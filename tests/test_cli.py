import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rmis
from rmis import findrmis
from rmis.cli import main
from rmis.graph import from_edge_list
from rmis.generators import (
    gen_bull,
    gen_complete_bipartite,
    gen_gk,
    gen_path,
    gen_random_connected,
    gen_square,
    gen_triangle,
)
from rmis.graph import Graph, to_edge_list

from conftest import traced


@pytest.fixture
def bull_file(tmp_path):
    path = tmp_path / "bull.edges"
    path.write_text(to_edge_list(gen_bull()))
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.edges"
    path.write_text(to_edge_list(gen_triangle()))
    return str(path)


class TestFind:
    def test_bull(self, bull_file, capsys):
        assert main(["find", bull_file]) == 0
        assert capsys.readouterr().out.strip() == "0,3,4"

    def test_triangle(self, triangle_file, capsys):
        assert main(["find", triangle_file]) == 1
        assert capsys.readouterr().out.strip() == "NO-RMIS"

    def test_json_output(self, bull_file, capsys):
        assert main(["find", bull_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exists"] is True
        assert payload["set"] == [0, 3, 4]
        assert "C(1,2,3)" in payload["labels"]

    def test_trace_output(self, bull_file, capsys):
        assert main(["find", bull_file, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "C(1,2,3)" in out and "E[0, 3, 4]" in out

    def test_articulation_point_without_a_common_tag_is_no_rmis(self, tmp_path, capsys):
        # a valid input once reported as an internal failure
        path = tmp_path / "a-node.edges"
        path.write_text(to_edge_list(gen_random_connected(22, 0.0955996241482135, 5688)))
        assert main(["find", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "NO-RMIS\n" and captured.err == ""

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"0 1\n1 2\n")))
        assert main(["find", "-"]) == 0
        assert capsys.readouterr().out.strip() == "0,2"


class TestClassify:
    def test_square(self, tmp_path, capsys):
        path = tmp_path / "square.edges"
        path.write_text(to_edge_list(gen_square()))
        assert main(["classify", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "complete_bipartite": True,
            "sputnik": False,
            "rmis_forall": True,
            "bipartition": [[0, 2], [1, 3]],
        }

    def test_bull(self, bull_file, capsys):
        assert main(["classify", bull_file]) == 1
        assert json.loads(capsys.readouterr().out)["rmis_forall"] is False

    def test_disconnected_is_an_input_error(self, tmp_path, capsys):
        # the block pass doubles as the connectivity check and keeps the
        # message the separate search gave
        path = tmp_path / "two-edges.edges"
        path.write_text("0 1\n2 3\n")
        assert main(["classify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: is_complete_bipartite requires a connected graph\n"


class TestVerify:
    def test_robust(self, bull_file, capsys):
        assert main(["verify", bull_file, "--set", "0,3,4"]) == 0
        assert capsys.readouterr().out.strip() == "ROBUST"

    def test_not_robust(self, bull_file, capsys):
        assert main(["verify", bull_file, "--set", "0,2"]) == 1
        assert capsys.readouterr().out.strip() == "NOT-ROBUST"

    def test_brute_agrees(self, bull_file, capsys):
        assert main(["verify", bull_file, "--set", "0,3,4", "--brute"]) == 0

    def test_negative_removable_cap_is_a_usage_error(self, triangle_file, capsys):
        args = ["verify", triangle_file, "--set", "0", "--brute", "--max-removable", "-1"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad --max-removable value -1; use a non-negative count\n"


class TestOracle:
    def test_bull(self, bull_file, capsys):
        assert main(["oracle", bull_file]) == 0
        assert capsys.readouterr().out.strip() == "0,3,4"

    def test_triangle(self, triangle_file, capsys):
        assert main(["oracle", triangle_file]) == 1

    def test_negative_vertex_cap_is_a_usage_error(self, triangle_file, capsys):
        assert main(["oracle", triangle_file, "--max-vertices", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad --max-vertices value -1; use a non-negative count\n"

    def test_large_star_under_a_raised_cap(self, tmp_path, capsys):
        path = tmp_path / "star.edges"
        path.write_text(to_edge_list(gen_complete_bipartite(1, 1500)))
        assert main(["oracle", str(path), "--max-vertices", "2000"]) == 0
        assert capsys.readouterr().out.splitlines() == ["0", ",".join(map(str, range(1, 1501)))]


class TestGen:
    def test_outputs_parse_back(self, capsys):
        calls = [
            ["gen", "gk", "--k", "2"],
            ["gen", "complete-bipartite", "--m", "2", "--n", "3"],
            ["gen", "cycle", "--n", "5"],
            ["gen", "path", "--n", "4"],
            ["gen", "bull"],
            ["gen", "triangle"],
            ["gen", "square"],
            ["gen", "lollipop", "--path-len", "3", "--clique-size", "3"],
            ["gen", "random-connected", "--n", "9", "--edge-prob", "0.3", "--seed", "4"],
            ["gen", "random-sputnik", "--size", "9", "--seed", "4"],
            ["gen", "sparse-connected", "--n", "9", "--extra", "3", "--seed", "4"],
            ["gen", "sparse-sputnik", "--n", "9", "--extra", "3", "--seed", "4"],
        ]
        for argv in calls:
            assert main(argv) == 0
            g = from_edge_list(capsys.readouterr().out)
            assert g.n >= 1

    def test_gk_json_carries_names_and_solutions(self, capsys):
        assert main(["gen", "gk", "--k", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        inst = gen_gk(1)
        assert payload["names"] == inst.names
        assert payload["m1"] == sorted(inst.m1)
        assert payload["m2"] == sorted(inst.m2)
        assert len(payload["edges"]) == 14

    def test_random_families_require_seed(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gen", "random-connected", "--n", "5", "--edge-prob", "0.5"])
        assert err.value.code == 2

    def test_gk_pipes_into_find(self, capsys, monkeypatch):
        assert main(["gen", "gk", "--k", "2"]) == 0
        edge_text = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(edge_text.encode())))
        assert main(["find", "-"]) == 0
        got = capsys.readouterr().out.strip()
        inst = gen_gk(2)
        expected = {",".join(map(str, sorted(s))) for s in (inst.m1, inst.m2)}
        assert got in expected


class TestSimulate:
    def test_square(self, tmp_path, capsys):
        path = tmp_path / "square.edges"
        path.write_text(to_edge_list(gen_square()))
        assert main(["simulate", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rounds_total"] == 3
        assert payload["valid_mis"] is True
        assert set(payload["per_node_rounds"].values()) == {3}

    def test_random_ids(self, tmp_path, capsys):
        path = tmp_path / "square.edges"
        path.write_text(to_edge_list(gen_square()))
        assert main(["simulate", str(path), "--ids", "random:7"]) == 0
        assert json.loads(capsys.readouterr().out)["valid_mis"] is True

    def test_bad_ids_spec(self, tmp_path, capsys):
        path = tmp_path / "square.edges"
        path.write_text(to_edge_list(gen_square()))
        assert main(["simulate", str(path), "--ids", "bogus"]) == 2

    def test_non_integer_seed_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "square.edges"
        path.write_text(to_edge_list(gen_square()))
        assert main(["simulate", str(path), "--ids", "random:abc"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad --ids value 'random:abc'")
        assert "internal failure" not in err

    def test_negative_round_cap_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "square.edges"
        path.write_text(to_edge_list(gen_square()))
        assert main(["simulate", str(path), "--max-rounds", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad --max-rounds value -1")
        assert "undecided" not in err

    def test_zero_round_cap_times_out(self, tmp_path, capsys):
        path = tmp_path / "square.edges"
        path.write_text(to_edge_list(gen_square()))
        assert main(["simulate", str(path), "--max-rounds", "0"]) == 2
        assert "4 nodes undecided after 0 rounds" in capsys.readouterr().err

    def test_round_cap_error_stays_one_short_line(self, tmp_path, capsys):
        # the line names the count and a few ids, not every undecided node
        path = tmp_path / "path.edges"
        path.write_text(to_edge_list(gen_path(5000)))
        assert main(["simulate", str(path), "--max-rounds", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: 5000 nodes undecided after 0 rounds")
        assert len(lines[0]) < 300


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["find", "/nonexistent/x.edges"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_edge_list(self, tmp_path, capsys):
        path = tmp_path / "bad.edges"
        path.write_text("0 0\n")
        assert main(["find", str(path)]) == 2

    def test_abc_renders(self, bull_file, capsys):
        assert main(["abc", bull_file]) == 0
        assert "C(1,2,3)" in capsys.readouterr().out
        assert main(["abc", bull_file, "--dot"]) == 0
        assert "diamond" in capsys.readouterr().out

    def test_abc_on_acyclic_graph_lists_nodes(self, tmp_path, capsys):
        path = tmp_path / "path.edges"
        path.write_text("0 1\n1 2\n")
        assert main(["abc", str(path)]) == 0
        out = capsys.readouterr().out
        assert "A(1)" in out and "P(0)" in out and "B(1,2)" in out

    def test_non_utf8_input(self, tmp_path, capsys):
        path = tmp_path / "bad.edges"
        path.write_bytes(b"\xff\xfe1 2\n")
        assert main(["find", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "{disconnected}", "--set", "0,2", "--brute"], "is_robust_mis_bruteforce requires a connected graph"),
            (["gen", "lollipop", "--path-len", "0", "--clique-size", "3"], "path needs at least one vertex"),
            (["gen", "random-connected", "--n", "0", "--edge-prob", "0.5", "--seed", "1"], "need at least one vertex"),
            (["gen", "random-connected", "--n", "3", "--edge-prob", "1.5", "--seed", "1"], "edge_prob must lie in [0, 1]"),
            (["gen", "sparse-connected", "--n", "0", "--extra", "0", "--seed", "1"], "need at least one vertex"),
        ],
        ids=["verify-brute-disconnected", "lollipop-no-path", "random-no-vertex", "random-bad-prob", "sparse-no-vertex"],
    )
    def test_input_error_exits_2_with_one_line(self, tmp_path, capsys, argv, message):
        path = tmp_path / "disconnected.edges"
        path.write_text("0 1\n2 3\n")
        assert main([a.format(disconnected=path) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    @pytest.mark.parametrize("argv", [["verify", "{file}", "--set", "0"], ["find", "{file}"]], ids=["verify", "find"])
    @pytest.mark.parametrize(
        "line, message",
        [
            ("49 49", "self-loop at vertex 49"),
            (f"1{'0' * 4999} 199", f"expected integers, got '1{'0' * 4999} 199'"),
        ],
        ids=["self-loop", "long-id"],
    )
    def test_bad_line_past_the_first_chunk_exits_2_with_one_line(self, tmp_path, capsys, argv, line, message):
        # line 5,000 of K_{100,100}'s 10,000 "u v" lines, far past the
        # first 4 KiB that the parser reads in bulk; an id of 5,000 digits
        # is past `int`'s limit
        lines = to_edge_list(gen_complete_bipartite(100, 100)).split("\n")
        lines[4999] = line
        path = tmp_path / "k100.edges"
        path.write_text("\n".join(lines))
        assert main([a.format(file=path) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: line 5000: {message}\n" and captured.out == ""

    @pytest.mark.parametrize(
        "flags", [["abc", "--dot", "--dot-graph"], ["find", "--json", "--trace"]], ids=["abc", "find"]
    )
    def test_exclusive_flags_together_are_a_usage_error(self, bull_file, capsys, flags):
        # each flag picks the whole output, so passing both is refused, not
        # settled by silently dropping one of them
        command, first, second = flags
        with pytest.raises(SystemExit) as err:
            main([command, bull_file, first, second])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {second}: not allowed with argument {first}" in captured.err

    def test_internal_failure_exits_2(self, bull_file, capsys, monkeypatch):
        def broken(g):
            raise findrmis.InternalLabelingError("invariant broke")

        monkeypatch.setattr(findrmis, "run_labeling", broken)
        assert main(["find", bull_file]) == 2
        assert capsys.readouterr().err == "error: internal failure: InternalLabelingError: invariant broke\n"


def hung_path_file(directory: Path, n: int) -> str:
    """A path of n vertices, 8 to n + 7, joined by edge (0, 8) to the
    4-cycle 0-1-2-3 that has pendants 4-7, one per cycle vertex: its ABC
    tree is about n levels deep, so the text tree grows with n squared.
    """
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7), (0, 8)]
    edges += [(v, v + 1) for v in range(8, n + 7)]
    path = directory / f"hung-path-{n}.edges"
    path.write_text(to_edge_list(Graph(range(n + 8), edges)))
    return str(path)


class TestDeepTrees:
    """gen_gk(600) roots an ABC tree about 1,200 levels deep."""

    @pytest.fixture(scope="class")
    def gk600_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("deep") / "gk600.edges"
        path.write_text(to_edge_list(gen_gk(600).graph))
        return str(path)

    def test_abc_renders(self, gk600_file, capsys):
        assert main(["abc", gk600_file]) == 0
        assert capsys.readouterr().out.count("\n") > 2400

    def test_find_trace(self, gk600_file, capsys):
        assert main(["find", gk600_file, "--trace"]) == 0
        out = capsys.readouterr().out.splitlines()
        inst = gen_gk(600)
        assert out[-1] in {",".join(map(str, sorted(s))) for s in (inst.m1, inst.m2)}

    def test_abc_text_peak_bytes_per_vertex(self, tmp_path):
        # the tree text is written line by line as it is rendered, so `abc`
        # holds no more than the graph and its tree while it prints 16 MB
        # here. Building the whole text before printing peaked at about
        # 24,800 B per vertex; writing each line as it comes reads about 690
        path = hung_path_file(tmp_path, 2000)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            rc, _, peak = traced(lambda: main(["abc", path]))
        assert rc == 0
        per_vertex = peak / 2008
        assert per_vertex <= 1500, f"{per_vertex:.0f} B per vertex"

    @pytest.mark.parametrize("read_first", [0, 100_000], ids=["closed-before-start", "closed-mid-stream"])
    def test_closed_pipe_is_one_error_line(self, tmp_path, monkeypatch, read_first):
        # a reader that goes before the first byte, or after 100 kB of the
        # 4 MB tree text: the next write fails with a broken pipe, which is
        # an error (exit 2) on one line, with no traceback. Printing the
        # whole text in one write reported success on the mid-stream close
        path = hung_path_file(tmp_path, 1000)
        monkeypatch.setenv("PYTHONPATH", str(Path(rmis.__file__).resolve().parents[1]))
        read_end, write_end = os.pipe()
        if not read_first:
            os.close(read_end)
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "rmis", "abc", path], stdout=write_end, stderr=subprocess.PIPE, text=True
            )
        finally:
            os.close(write_end)
        if read_first:
            with os.fdopen(read_end, "rb") as reader:
                assert len(reader.read(read_first)) == read_first
        err = proc.communicate(timeout=120)[1]
        assert proc.returncode == 2, err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert "Traceback" not in err


class TestOneParserPerProcess:
    def test_back_to_back_runs_match_fresh_interpreters(self, bull_file, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # help and usage text wrap at the terminal width
        runs = [
            ["verify", bull_file, "--set", "0,3,4"],
            ["find", "--json", bull_file],
            ["verify", bull_file],  # missing --set: a usage error, exit 2
            ["classify", bull_file],
            ["verify", bull_file, "--set", "0,9"],  # unknown vertex: exit 2
            ["gen", "path", "--n", "4"],
            ["find", "--help"],
            ["simulate", bull_file, "--ids", "random:3"],
            ["verify", bull_file, "--set", "0,2"],
        ]
        src = str(Path(rmis.__file__).resolve().parents[1])
        monkeypatch.setenv("PYTHONPATH", src)
        for argv in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = main(argv)
                except SystemExit as exc:
                    rc = exc.code
            fresh = subprocess.run(
                [sys.executable, "-m", "rmis.cli", *argv], capture_output=True, text=True, timeout=60
            )
            assert (rc, out.getvalue(), err.getvalue()) == (
                fresh.returncode,
                fresh.stdout,
                fresh.stderr,
            ), argv


class TestModuleEntryPoint:
    def test_python_dash_m_rmis_matches_main(self, bull_file, monkeypatch):
        # `python -m rmis` from a checkout, with only `src` on the path, gives
        # the bytes and exit codes of `cli.main`: 0 and 1 answer, 2 is an error
        monkeypatch.setenv("PYTHONPATH", str(Path(rmis.__file__).resolve().parents[1]))
        runs = [
            ["gen", "bull"],
            ["verify", bull_file, "--set", "0,3,4"],
            ["verify", bull_file, "--set", "0,2"],
            ["verify", bull_file, "--set", "0,9"],  # unknown vertex
        ]
        codes = []
        for argv in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
            fresh = subprocess.run([sys.executable, "-m", "rmis", *argv], capture_output=True, text=True, timeout=60)
            assert (fresh.returncode, fresh.stdout, fresh.stderr) == (rc, out.getvalue(), err.getvalue()), argv
            codes.append((rc, fresh.stdout))
        assert codes == [
            (0, to_edge_list(gen_bull())),
            (0, "ROBUST\n"),
            (1, "NOT-ROBUST\n"),
            (2, ""),
        ]
