"""Layer spans and simulator counters, attached from outside the program.

`install` replaces the public functions that the `rmis` modules call in one
another with wrappers that record a span per call: name, start, end and the
enclosing span. Every module namespace that holds the function under some
name gets the wrapper, so calls from inside the home module are seen too.
Per-node program calls are far too many for one span each; they are timed
as unrecorded frames that still count toward their parents' self time.

`CountingProgram` wraps the distributed program to count messages and their
payload; it is used in the counting and traced passes only.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter_ns
from typing import Any, Callable

from rmis import localsim
from rmis.graph import Graph
from rmis.localsim import NodeProgram, RmisForallProgram

# (home module, function name); the span is named "<module>.<function>"
WRAPPED = [
    ("cli", "main"),
    ("graph", "from_edge_list"),
    ("graph", "is_connected"),
    ("graph", "connected_components"),
    ("graph", "articulation_points"),
    ("graph", "bridges"),
    ("graph", "biconnected_components"),
    ("graph", "is_bipartite"),
    ("graph", "induced_subgraph"),
    ("abctree", "build_abc_tree"),
    ("abctree", "default_root"),
    ("abctree", "root_at"),
    ("findrmis", "run_labeling"),
    ("findrmis", "test_rmis"),
    ("twosat", "solve"),
    ("oracle", "is_robust_mis"),
    ("oracle", "is_mis"),
    ("oracle", "is_independent"),
    ("classify", "in_rmis_forall"),
    ("classify", "is_complete_bipartite"),
    ("classify", "is_sputnik"),
    ("classify", "cycle_vertices"),
    ("localsim", "run_sync"),
]
MODULES = ["cli", "graph", "abctree", "findrmis", "twosat", "oracle", "classify", "localsim", "generators"]


class _Frame:
    __slots__ = ("child_ns", "span_id")

    def __init__(self, span_id: int | None):
        self.child_ns = 0
        self.span_id = span_id


class Tracer:
    """Spans kept in memory, plus per-name totals and free-form counters.

    `totals[name]` is [calls, total ns, self ns]; self time is a call's
    duration minus the part its wrapped callees cover.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int | None]] = []
        self.totals: dict[str, list[int]] = {}
        self.counters: Counter[str] = Counter()
        self.maxima: dict[str, int] = {}
        self.programs: list[CountingProgram] = []
        self._stack: list[_Frame] = []
        self._next_id = 0

    def reset_totals(self) -> None:
        self.totals = {}
        self.counters = Counter()
        self.maxima = {}
        self.programs.clear()  # the installed program factory appends here

    def call(self, name: str, record: bool, fn: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._stack
        parent = stack[-1] if stack else None
        parent_id = parent.span_id if parent else None
        if record:
            span_id = self._next_id
            self._next_id += 1
        else:
            span_id = parent_id
        frame = _Frame(span_id)
        stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            elapsed = end - start
            entry = self.totals.get(name)
            if entry is None:
                entry = self.totals[name] = [0, 0, 0]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - frame.child_ns
            if parent is not None:
                parent.child_ns += elapsed
            if record:
                self.spans.append((span_id, name, start, end, parent_id))

    def untimed(self, fn: Callable, *args: Any) -> None:
        """Run bookkeeping so that its cost counts toward no layer."""
        start = perf_counter_ns()
        fn(*args)
        if self._stack:
            self._stack[-1].child_ns += perf_counter_ns() - start

    def note_max(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\n")
            for span_id, name, start, end, parent in self.spans:
                fh.write(f"{span_id}\t{name}\t{start}\t{end}\t{'' if parent is None else parent}\n")


_SCALARS = frozenset({int, str, bool, float, type(None)})


def payload_entries(value: Any) -> int:
    """Identifiers and statuses carried by a message body: one per scalar,
    one per mapping key plus its value's entries, and one per member of a
    set (the program's sets hold identifiers only).
    """
    kind = type(value)
    if kind in _SCALARS:
        return 1
    if kind is tuple or kind is list:
        entries = 0
        for v in value:
            entries += 1 if type(v) in _SCALARS else payload_entries(v)
        return entries
    if isinstance(value, dict):
        return sum(1 + payload_entries(v) for v in value.values())
    if isinstance(value, (set, frozenset)):
        return len(value)
    raise TypeError(f"cannot size a message field of type {kind.__name__}")


class CountingProgram(NodeProgram):
    """Delegates to another program; counts messages and payload per round.

    The engine initialises every node, then asks every node for its messages
    once per round, so the k-th `send` call overall belongs to round
    k // nodes + 1. Rounds 1-3 are the flooding stage of `RmisForallProgram`;
    later rounds are its leftover-forest stage. States pass through as they
    are, so without a tracer only `init` and `send` do extra work.
    """

    FLOOD_ROUNDS = 3

    def __init__(self, inner: NodeProgram, tracer: Tracer | None = None):
        self.inner = inner
        self.tracer = tracer
        self.messages: Counter[int] = Counter()
        self.payload: Counter[int] = Counter()
        self.nodes = 0
        self.sends = 0
        self.node_steps = 0

    def _run(self, fn: Callable, *args: Any) -> Any:
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call("localsim.program", False, fn, args, {})

    def _count(self, msgs: dict[int, Any]) -> None:
        rnd = self.sends // self.nodes + 1
        self.sends += 1
        self.messages[rnd] += len(msgs)
        if msgs:
            # a message is (tag, *fields); the tag is not payload
            self.payload[rnd] += sum(map(payload_entries, msgs.values())) - len(msgs)

    def init(self, ident: int, degree: int) -> Any:
        self.nodes += 1
        return self._run(self.inner.init, ident, degree)

    def send(self, state: Any) -> dict[int, Any]:
        msgs = self._run(self.inner.send, state)
        if self.tracer is None:
            self._count(msgs)
        else:
            self.tracer.untimed(self._count, msgs)
        return msgs

    def step(self, state: Any, inbox: dict[int, Any]) -> Any:
        self.node_steps += 1
        return self._run(self.inner.step, state, inbox)

    def output(self, state: Any) -> str | None:
        return self._run(self.inner.output, state)

    def totals(self) -> dict[str, int]:
        flood = range(1, self.FLOOD_ROUNDS + 1)
        return {
            "messages": sum(self.messages.values()),
            "payload_entries": sum(self.payload.values()),
            "flood_payload_entries": sum(self.payload[r] for r in flood),
            "forest_messages": sum(c for r, c in self.messages.items() if r not in flood),
            "node_steps": self.node_steps,
        }


def counting_factory(sink: list[CountingProgram], tracer: Tracer | None = None) -> Callable[[], NodeProgram]:
    original = localsim.rmis_forall_program

    def make() -> NodeProgram:
        program = CountingProgram(original(), tracer)
        sink.append(program)
        return program

    return make


# hooks that read counts off a call's arguments or result, outside its timing

def _abc_counts(tracer: Tracer, args: tuple, tree: Any) -> None:
    for node in tree.nodes:
        tracer.counters[f"abctree.nodes_{node.kind}"] += 1


def _abc_depth(tracer: Tracer, args: tuple, rooted: Any) -> None:
    depth = {rooted.root: 0}
    for node in rooted.subtree_nodes(rooted.root):
        for child in rooted.children[node]:
            depth[child] = depth[node] + 1
    tracer.note_max("abctree.depth", max(depth.values()))


def _witness_elems(tracer: Tracer, args: tuple, run: Any) -> None:
    tracer.counters["findrmis.witness_elems"] += sum(
        len(w) for tags in run.labels.values() for w in tags.values()
    )


def _twosat_size(tracer: Tracer, args: tuple, result: Any) -> None:
    formula = args[0]
    tracer.counters["twosat.vars"] += formula.num_vars
    tracer.counters["twosat.clauses"] += len(formula.clauses)


_AFTER: dict[str, Callable[[Tracer, tuple, Any], None]] = {
    "abctree.build_abc_tree": _abc_counts,
    "abctree.root_at": _abc_depth,
    "findrmis.run_labeling": _witness_elems,
    "twosat.solve": _twosat_size,
}


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    after = _AFTER.get(name)

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        result = tracer.call(name, True, fn, args, kwargs)
        if after is not None:
            tracer.untimed(after, tracer, args, result)
        return result

    return traced


def install(tracer: Tracer) -> Callable[[], None]:
    """Attach the wrappers; returns a function that takes them off again."""
    modules = [sys.modules[f"rmis.{m}"] for m in MODULES] + [sys.modules["rmis"]]
    undo: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, value: Any) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for home, fname in WRAPPED:
        original = getattr(sys.modules[f"rmis.{home}"], fname)
        wrapped = _wrap(tracer, f"{home}.{fname}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    patch(module, attr, wrapped)

    init = Graph.__init__
    gather = RmisForallProgram._gather_decision

    def graph_init(self: Graph, *args: Any, **kwargs: Any) -> None:
        tracer.call("graph.Graph", True, init, (self, *args), kwargs)

    def gather_decision(self: RmisForallProgram, state: Any) -> None:
        tracer.call("localsim.gather", False, gather, (self, state), {})

    patch(Graph, "__init__", graph_init)
    patch(RmisForallProgram, "_gather_decision", gather_decision)
    patch(localsim, "rmis_forall_program", counting_factory(tracer.programs, tracer))

    def uninstall() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall
