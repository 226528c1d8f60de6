"""Golden CLI output: the stdout of `find`, `abc` and `classify` on a fixed
corpus, of `simulate` on a second one, and of `find --json` and `find --trace`
on deep gadget ladders must stay byte-identical across refactors.

`golden_cli.json` maps "<graph> <command>" to the exit code and the sha256
of stdout. Regenerate it only when an output change is intended:

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from rmis.cli import main
from rmis.generators import (
    gen_bull,
    gen_complete_bipartite,
    gen_gk,
    gen_lollipop,
    gen_path,
    gen_random_connected,
    gen_random_sputnik,
)
from rmis.graph import to_edge_list

DIGESTS = Path(__file__).with_name("golden_cli.json")

COMMANDS = {
    "find": ["find"],
    "find-json": ["find", "--json"],
    "find-trace": ["find", "--trace"],
    "abc": ["abc"],
    "abc-dot": ["abc", "--dot"],
    "abc-dot-graph": ["abc", "--dot-graph"],
    "classify": ["classify"],
}

SIM_COMMANDS = {
    "simulate": ["simulate"],
    "simulate-random": ["simulate", "--ids", "random:7"],
}

DEEP_COMMANDS = {
    "find-json": ["find", "--json"],
    "find-trace": ["find", "--trace"],
}


def corpus():
    """Name -> graph; every graph is fixed by its name."""
    graphs = {"bull": gen_bull(), "lollipop-4-5": gen_lollipop(4, 5), "k3x4": gen_complete_bipartite(3, 4)}
    for k in range(2, 61):
        graphs[f"gk{k}"] = gen_gk(k).graph
    for seed in (1, 2, 3):
        graphs[f"sputnik-{seed}-200"] = gen_random_sputnik(seed, 200)
    rng = random.Random(2024)
    for i in range(24):
        n = rng.randint(8, 60)
        p = round(rng.uniform(1.0, 4.0) / n, 4)
        graphs[f"random-{n}-{p}-{i}"] = gen_random_connected(n, p, i)
    return graphs


def sim_corpus():
    """Name -> graph for `simulate`: complete bipartite shapes, sputniks,
    paths and small gadget ladders.
    """
    sizes = (1, 2, 3, 4, 7, 12, 20, 30)
    graphs = {f"k{m}x{n}": gen_complete_bipartite(m, n) for m in sizes for n in sizes if m <= n}
    for seed in range(1, 21):
        graphs[f"sputnik-{seed}-{3 * seed}"] = gen_random_sputnik(seed, 3 * seed)
    for n in (1, 2, 3, 4, 5, 8, 13, 40):
        graphs[f"path{n}"] = gen_path(n)
    for k in range(2, 11):
        graphs[f"gk{k}"] = gen_gk(k).graph
    return graphs


def deep_corpus():
    """Name -> graph for the per-node label dumps on long ladders, whose ABC
    trees are hundreds of levels deep.
    """
    return {f"gk{k}": gen_gk(k).graph for k in (200, 400)}


def run_all(tmp_dir: Path) -> dict[str, list]:
    out = {}
    suites = ((corpus(), COMMANDS), (sim_corpus(), SIM_COMMANDS), (deep_corpus(), DEEP_COMMANDS))
    for graphs, commands in suites:
        for name, g in graphs.items():
            path = tmp_dir / f"{name}.edges"
            path.write_text(to_edge_list(g))
            for label, argv in commands.items():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = main([argv[0], str(path), *argv[1:]])
                out[f"{name} {label}"] = [rc, hashlib.sha256(buf.getvalue().encode()).hexdigest()]
    return out


def test_cli_output_matches_recorded_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text())
    got = run_all(tmp_path)
    assert got.keys() == expected.keys()
    changed = sorted(k for k in got if got[k] != expected[k])
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        got = run_all(Path(d))
    lines = [f"{json.dumps(k)}: {json.dumps(got[k])}" for k in sorted(got)]
    DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
