import io
import json

import pytest

from rmis import findrmis
from rmis.cli import main
from rmis.graph import from_edge_list
from rmis.generators import gen_bull, gen_gk, gen_square, gen_triangle
from rmis.graph import to_edge_list


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


class TestVerify:
    def test_robust(self, bull_file, capsys):
        assert main(["verify", bull_file, "--set", "0,3,4"]) == 0
        assert capsys.readouterr().out.strip() == "ROBUST"

    def test_not_robust(self, bull_file, capsys):
        assert main(["verify", bull_file, "--set", "0,2"]) == 1
        assert capsys.readouterr().out.strip() == "NOT-ROBUST"

    def test_brute_agrees(self, bull_file, capsys):
        assert main(["verify", bull_file, "--set", "0,3,4", "--brute"]) == 0


class TestOracle:
    def test_bull(self, bull_file, capsys):
        assert main(["oracle", bull_file]) == 0
        assert capsys.readouterr().out.strip() == "0,3,4"

    def test_triangle(self, triangle_file, capsys):
        assert main(["oracle", triangle_file]) == 1


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

    def test_internal_failure_exits_2(self, bull_file, capsys, monkeypatch):
        def broken(g):
            raise findrmis.InternalLabelingError("invariant broke")

        monkeypatch.setattr(findrmis, "run_labeling", broken)
        assert main(["find", bull_file]) == 2
        assert capsys.readouterr().err == "error: internal failure: InternalLabelingError: invariant broke\n"


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

