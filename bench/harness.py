"""Running one operation and judging its answer.

In-process operations call `rmis.cli.main` with standard output captured,
so parsing and output formatting are timed and interpreter start-up is
not. Answers are checked against `checker`, which does not use `rmis`.

A shared host can run the same code at quite different speeds from one
minute to the next. So a fixed piece of pure-Python work, `SpeedProbe`, is
timed between operations, and each operation's time is also given in
reference seconds: scaled by how fast the probe ran, at its median, over
the operation's round.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import statistics
import subprocess
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import networkx as nx

import checker
from workloads import Corpus, Op

CHILD = Path(__file__).resolve().parent / "child.py"
CAP_MIB = 512  # several times what linear-size labels need on gen_gk(6400)
CHILD_TIMEOUT_S = 150
PROBE_GRID = 48
PROBE_SOURCES = 6
REFERENCE_S = 0.0045  # the probe's time on the undisturbed development host


class SpeedProbe:
    """Times breadth-first searches over a fixed grid held in dicts and sets,
    work of the same kind as the program's own.
    """

    def __init__(self) -> None:
        g = PROBE_GRID
        self.adj = {
            i * g + j: [
                w
                for w, inside in ((i * g + j - 1, j > 0), (i * g + j + 1, j < g - 1),
                                  ((i - 1) * g + j, i > 0), ((i + 1) * g + j, i < g - 1))
                if inside
            ]
            for i in range(g)
            for j in range(g)
        }

    def sample(self) -> float:
        adj = self.adj
        start = perf_counter()
        for source in range(0, len(adj), len(adj) // PROBE_SOURCES):
            dist = {source: 0}
            queue = deque([source])
            while queue:
                v = queue.popleft()
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        queue.append(w)
        return perf_counter() - start


@dataclass
class Outcome:
    op: Op
    argv: list[str]
    seconds: float | None  # None when the operation failed
    rc: int | None = None
    out: str = ""
    error: str = ""
    speed: float = 1.0  # reference seconds per second during the round

    @property
    def reference_seconds(self) -> float:
        return self.seconds * self.speed


def run_in_process(cli_main, argv: list[str]) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        rc = cli_main(argv)
        seconds = perf_counter() - start
    return seconds, rc, out.getvalue(), err.getvalue()


def run_child(mode: list[str], argv: list[str], cwd: Path) -> tuple[int, dict | None, str]:
    """Run `child.py` and read the JSON record on its last output line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *mode, json.dumps(argv)],
            capture_output=True,
            text=True,
            cwd=cwd,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return -1, None, f"timed out after {CHILD_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, record, proc.stderr.strip()[-300:]


def parse_set(text: str) -> frozenset[int]:
    return frozenset(int(p) for p in text.split(",")) if text else frozenset()


def answer_set(op: Op, out: str) -> frozenset[int] | None:
    """The vertex set an answer names: found by `find`, IN under `simulate`."""
    if op.command == "find":
        line = out.strip()
        return None if line == "NO-RMIS" else parse_set(line)
    if op.command == "simulate":
        return frozenset(int(v) for v, o in json.loads(out)["outputs"].items() if o == "IN")
    return None


class Session:
    """Builds argument vectors, runs operations and memoises their checks."""

    def __init__(self, corpus: Corpus, root: Path, cli_main):
        self.corpus = corpus
        self.root = root
        self.cli_main = cli_main
        self.probe = SpeedProbe()
        self._graphs: dict[str, nx.Graph] = {}
        self._verdicts: dict[tuple, str] = {}
        self.errors: list[str] = []

    def graph(self, name: str) -> nx.Graph:
        if name not in self._graphs:
            self._graphs[name] = checker.read_edge_list(self.corpus.graphs[name].path)
        return self._graphs[name]

    def argv(self, op: Op, answers: dict[str, frozenset[int] | None]) -> list[str]:
        argv = [op.command, self.corpus.graphs[op.graph].path, *op.extra]
        if op.command == "verify":
            chosen = op.vertex_set if op.set_from is None else answers[op.set_from]
            argv += ["--set", ",".join(map(str, sorted(chosen or ())))]
        return argv

    def run_round(self) -> list[Outcome]:
        """Every operation once, in order; later ones may use earlier answers."""
        answers: dict[str, frozenset[int] | None] = {}
        outcomes = []
        probes = [self.probe.sample()]
        for op in self.corpus.ops:
            argv = self.argv(op, answers)
            outcome = self.run(op, argv)
            probes.append(self.probe.sample())
            if outcome.seconds is not None:
                self.check(outcome)
                answers[op.key] = answer_set(op, outcome.out)
            outcomes.append(outcome)
        # one speed for the whole round: single probes are noisy, their
        # median follows the slower drifts of the host
        speed = REFERENCE_S / statistics.median(probes)
        for outcome in outcomes:
            outcome.speed = speed
        return outcomes

    def run(self, op: Op, argv: list[str]) -> Outcome:
        if op.capped:
            rc, record, err = run_child(["--cap-mib", str(CAP_MIB)], argv, self.root)
            if record is None:
                return Outcome(op, argv, None, error=f"child exit {rc}: {err}")
            return Outcome(op, argv, record["seconds"], record["rc"], record["out"])
        try:
            seconds, rc, out, err = run_in_process(self.cli_main, argv)
        except Exception as exc:  # an escaping exception is a failed operation
            return Outcome(op, argv, None, error=f"{type(exc).__name__}: {exc}")
        return Outcome(op, argv, seconds, rc, out, err)

    def check(self, outcome: Outcome) -> None:
        key = (outcome.op.key, tuple(outcome.argv), outcome.rc, outcome.out)
        if key not in self._verdicts:
            try:
                self._verdicts[key] = self._judge(outcome)
            except (ValueError, KeyError, TypeError) as exc:
                self._verdicts[key] = f"unreadable answer: {type(exc).__name__}: {exc}"
        if self._verdicts[key]:
            self.errors.append(f"{outcome.op.key}: {self._verdicts[key]}")

    def _judge(self, o: Outcome) -> str:
        """Empty string when the answer is right, else what is wrong."""
        op, g = o.op, self.graph(o.op.graph)
        expect = op.expect
        if op.command == "classify":
            want = checker.classify(g)
            if json.loads(o.out) != want:
                return f"payload {o.out.strip()[:200]} != {want}"
            if "rmis_forall" in expect and want["rmis_forall"] != expect["rmis_forall"]:
                return "corpus graph is not in the expected class"
            return "" if o.rc == (0 if want["rmis_forall"] else 1) else f"exit {o.rc}"
        if op.command == "verify":
            chosen = parse_set(o.argv[o.argv.index("--set") + 1])
            robust = checker.is_robust_mis(g, chosen)
            if "robust" in expect and robust != expect["robust"]:
                return f"set is {'' if robust else 'not '}robust, against the corpus design"
            want = ("ROBUST", 0) if robust else ("NOT-ROBUST", 1)
            return "" if (o.out.strip(), o.rc) == want else f"answered {o.out.strip()!r} exit {o.rc}"
        found = answer_set(op, o.out)
        if found is None:
            return "NO-RMIS on a graph that has a robust MIS"
        if op.command == "find":
            if o.rc != 0 or not checker.is_robust_mis(g, found):
                return f"exit {o.rc}; the set is not a robust MIS"
            if "one_of" in expect and sorted(found) not in expect["one_of"]:
                return "set is neither stored solution of the gadget"
        else:
            payload = json.loads(o.out)
            rounds = payload["per_node_rounds"]
            if o.rc != 0 or payload["valid_mis"] is not True or not checker.is_mis(g, found):
                return f"exit {o.rc}; the IN-set is not an MIS"
            if {int(v) for v in rounds} != set(g) or payload["rounds_total"] != max(rounds.values()):
                return "round accounting does not cover the graph"
            if "rounds" in expect and set(rounds.values()) != {expect["rounds"]}:
                return f"nodes finished at rounds {sorted(set(rounds.values()))}"
        if expect.get("full_side") and found not in map(frozenset, nx.bipartite.sets(g)):
            return "set is not one full side of the bipartition"
        return ""
