"""Synchronous message-passing execution and the distributed RMIS program.

The engine runs lock-step rounds: the outgoing messages of every node that
has work are collected, delivered, and only then do those nodes and every
node that received mail take their step. A program marks a node without
work through `NodeProgram.idle`; by default no node is idle, so every node
sends and steps in every round. Message size is unbounded. Nodes are
addressed by ports: port p of a node leads to the neighbor with the p-th
smallest assigned identifier, and a node initially knows nothing beyond its
own identifier and degree.

Programs must treat received message objects as read-only and never mutate
a payload after sending it.

An `RmisForallProgram` object gives equal neighborhoods one shared
frozenset object across the nodes it serves, and nodes with equal
neighborhoods one shared round-3 gathered map and bipartite test result.
These are devices of the simulator, to save time and memory: no shared
value is changed once built, and each equals the one the node would build
from its own inbox, so no information passes between nodes, and programs
must not rely on object identity.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from .classify import complete_bipartite_sides
from .generators import gen_gk
from .graph import Graph, GraphError, ball, is_connected

IN = "IN"
OUT = "OUT"

IdAssignment = dict[int, int]


class SimulationTimeout(Exception):
    """Round cap exceeded; carries the still-undecided vertices."""

    SHOWN = 10  # ids the message lists; `.undecided` holds them all

    def __init__(self, limit: int, undecided: list[int]):
        shown = ", ".join(map(str, undecided[: self.SHOWN]))
        more = len(undecided) - self.SHOWN
        if more > 0:
            shown += f", ... ({more} more)"
        super().__init__(f"{len(undecided)} nodes undecided after {limit} rounds: [{shown}]")
        self.undecided = undecided


@dataclass
class SimResult:
    outputs: dict[int, str]
    rounds_total: int
    termination_round: dict[int, int]
    node_steps: int  # `step` calls the engine made
    messages_per_round: list[int]  # messages sent in rounds 1, 2, ...


class NodeProgram(ABC):
    """Per-node behavior. One program object serves every node; all mutable
    state lives in the state value returned by `init` and threaded through
    `step`. A round is: `send` of every node that is not idle, delivery,
    then `step` of every node that is not idle or has mail.

    The engine skips an idle node whose inbox is empty, so `idle(state)`
    may hold only when `send(state)` returns nothing and a step with an
    empty inbox changes neither the node's output nor anything it will
    send later. The default, never idle, keeps every node stepped.
    """

    @abstractmethod
    def init(self, ident: int, degree: int) -> Any: ...

    @abstractmethod
    def send(self, state: Any) -> dict[int, Any]:
        """Messages to emit this round, keyed by port."""

    @abstractmethod
    def step(self, state: Any, inbox: dict[int, Any]) -> Any:
        """Consume this round's received messages, return the new state."""

    @abstractmethod
    def output(self, state: Any) -> str | None:
        """None while undecided, IN or OUT once terminated."""

    def idle(self, state: Any) -> bool:
        """Whether the engine may skip this node until it receives mail."""
        return False


def identity_ids(g: Graph) -> IdAssignment:
    return {v: v for v in g.vertices}


def random_ids(g: Graph, seed: int) -> IdAssignment:
    rng = random.Random(seed)
    pool = rng.sample(range(10 * g.n + 10), g.n)
    return {v: pool[i] for i, v in enumerate(g.vertices)}


def run_sync(
    g: Graph,
    program: NodeProgram,
    ids: IdAssignment,
    max_rounds: int | None = None,
) -> SimResult:
    """Execute `program` on every node of `g` until all have decided.

    Raises SimulationTimeout when the cap (default 4n + 8) is exceeded.
    """
    if set(ids) != set(g.vertices):
        raise GraphError("id assignment must cover exactly the vertex set")
    if len(set(ids.values())) != g.n:
        raise GraphError("id assignment must be injective")
    if any(i < 0 for i in ids.values()):
        raise GraphError("identifiers must be non-negative")
    if not is_connected(g):
        raise GraphError("run_sync requires a connected graph")
    limit = max_rounds if max_rounds is not None else 4 * g.n + 8

    # port_to[v][p] is the neighbor behind port p of v, and port_back[v][p]
    # that neighbor's port leading back to v
    adj = g._adj
    port_to: dict[int, list[int]] = {v: sorted(adj[v], key=ids.__getitem__) for v in g.vertices}
    # visiting the senders in id order fills each port_back list in the
    # order of its owner's ports
    port_back: dict[int, list[int]] = {v: [] for v in g.vertices}
    for v in sorted(g.vertices, key=ids.__getitem__):
        for p, u in enumerate(port_to[v]):
            port_back[u].append(p)

    send, step, output, idle = program.send, program.step, program.output, program.idle
    states = {v: program.init(ids[v], len(adj[v])) for v in g.vertices}
    termination: dict[int, int] = {}
    for v in g.vertices:
        if output(states[v]) is not None:
            termination[v] = 0
    # senders go in vertex order, so every inbox fills in the order it
    # would if every node sent
    active = [v for v in g.vertices if not idle(states[v])]
    rounds = node_steps = 0
    messages_per_round: list[int] = []
    while len(termination) < g.n:
        rounds += 1
        if rounds > limit:
            undecided = [v for v in g.vertices if v not in termination]
            raise SimulationTimeout(limit, undecided)
        inboxes: dict[int, Any] = {v: {} for v in active}
        sent = 0
        for v in active:
            msgs = send(states[v])
            sent += len(msgs)
            to, back = port_to[v], port_back[v]
            for port, msg in msgs.items():
                u = to[port]
                inbox = inboxes.get(u)
                if inbox is None:
                    inbox = inboxes[u] = {}
                inbox[back[port]] = msg
        messages_per_round.append(sent)
        active = []
        for v, inbox in inboxes.items():
            states[v] = state = step(states[v], inbox)
            inboxes[v] = None  # read; its mail need not outlive the step
            if v not in termination and output(state) is not None:
                termination[v] = rounds
            if not idle(state):
                active.append(v)
        node_steps += len(inboxes)
        active.sort()
    outputs = {v: output(states[v]) for v in g.vertices}
    return SimResult(outputs, max(termination.values()), termination, node_steps, messages_per_round)


# ---------------------------------------------------------------------------
# the distributed RMIS program for graphs where every MIS is robust

def _greedy_decision(ident: int, neighbors: dict[int, tuple[int, str | None]]) -> str | None:
    """Id-priority MIS rule over the given (id, status) neighbor table: join
    when no smaller-id neighbor is still undecided, leave when one joined.
    """
    decision: str | None = IN
    for nb, status in neighbors.values():
        if status == IN:
            return OUT
        if nb < ident and status != OUT:
            decision = None
    return decision


_NO_MAIL: dict[int, Any] = {}  # what a node without an outbox sends; never filled


@dataclass(slots=True)
class _GatherState:
    """One node's state; a field holds a value only while the node still
    reads it. After its third step a node keeps its identifier, degree,
    step count and decision, and a leftover-forest node also `residual`
    until it decides and then `outbox` until the round that sends it.
    """

    ident: int
    degree: int
    round: int = 0  # steps taken; no node idles before its fourth
    decision: str | None = None
    adj: dict[int, frozenset[int]] | None = None  # id -> full nbhd, one to three hops out
    sides: tuple[set[int], set[int]] | None = None  # complete_bipartite_sides(adj)
    residual: dict[int, tuple[int, str | None]] | None = None  # port -> (id, status)
    outbox: dict[int, Any] | None = None  # the node's one status announcement


def _merged(inbox: dict[int, Any], own: dict[int, frozenset[int]]) -> dict[int, frozenset[int]]:
    """A fresh map of the received adjacency maps and the node's own, which
    was sent and so is not changed in place.
    """
    merged: dict[int, frozenset[int]] = {}
    for _, mapping in inbox.values():
        merged.update(mapping)
    merged.update(own)
    return merged


class RmisForallProgram(NodeProgram):
    """Three rounds of neighborhood flooding, then a constant-time case
    split, then an id-priority MIS on the leftover forest.

    After the flooding a node holds every vertex within three hops, full
    adjacency out to two hops, and knows which collected vertices may have
    further unseen edges. If that knowledge is closed (nothing unseen) and
    forms a complete bipartite graph, the side holding the lowest identifier
    joins; the bipartite check establishes closure itself, since it accepts
    only maps whose every neighborhood is one of the two sides. Otherwise,
    on the graphs this program is meant for, every cycle vertex has a
    pendant neighbor: pendants join, their neighbors leave, and what remains
    induces a forest handled by the id-priority rule, ignoring edges into
    the already-decided part. A forest node announces its status
    once, in the round after it decides; neighbors keep the last one heard.

    The forest stage is a plain greedy; it can take a number of rounds
    linear in the forest size rather than the best known bounds, so only
    the outputs, not round counts, are contractual outside the complete
    bipartite case.

    A node keeps only what it still reads. Its gathered map and bipartite
    sides go at the end of its third step, once that step has made its
    decision or, for a leftover-forest node, built its residual table
    (port -> neighbor id and last status heard); the table goes when the
    node decides, and its announcement once sent.

    Nodes with equal neighborhoods hold one frozenset object, taken from a
    table the program object keeps (`_shared`), so the bipartite test
    compares them by identity. A second table (`_gathered`) holds the
    round-3 gathered map and its sides once per distinct neighborhood:
    nodes with equal neighbor sets hear the same senders, so they gather
    equal maps. Round 1 alone reads `_shared` and round 3 alone
    `_gathered`, and every node takes its second and its fourth step in
    the rounds after them, so each node drops both tables then: round 3
    starts with no entry from an earlier run, even one the round cap
    stopped, and a run that reaches a fourth round leaves neither table
    (one that ends in round 3, as on K_{m,n}, leaves `_gathered` to the
    next run's second step). These are simulator devices, not part of the algorithm: the tables
    only swap a node's values, never changed once built, for equal ones,
    and nothing may depend on object identity.
    """

    @cached_property
    def _shared(self) -> dict[frozenset[int], frozenset[int]]:
        """Neighborhood -> the one object that stands for it."""
        return {}

    @cached_property
    def _gathered(self) -> dict[frozenset[int], tuple[dict[int, frozenset[int]], Any]]:
        """Neighborhood -> (gathered map, its sides)."""
        return {}

    def init(self, ident: int, degree: int) -> _GatherState:
        return _GatherState(ident, degree)

    def send(self, state: _GatherState) -> dict[int, Any]:
        if state.round >= 3:
            return state.outbox or _NO_MAIL
        if state.round == 0:
            return dict.fromkeys(range(state.degree), ("id", state.ident))
        return dict.fromkeys(range(state.degree), ("adj", state.adj))

    def step(self, state: _GatherState, inbox: dict[int, Any]) -> _GatherState:
        state.round += 1
        if state.round == 2 or state.round == 4:
            tables = vars(self)
            tables.pop("_shared", None)
            tables.pop("_gathered", None)
        if state.round > 3:
            if state.decision is None:
                residual = state.residual
                for port, (_, ident, status) in inbox.items():
                    residual[port] = (ident, status)
                state.decision = _greedy_decision(state.ident, residual)
                if state.decision is not None:
                    msg = ("status", state.ident, state.decision)
                    state.outbox = dict.fromkeys(residual, msg) or None
                    state.residual = None
            elif state.outbox:  # announced this round; nothing more to say
                state.outbox = None
        elif state.round == 1:
            nbhd = frozenset([msg[1] for msg in inbox.values()])
            state.adj = {state.ident: self._shared.setdefault(nbhd, nbhd)}
        elif state.round == 2:
            state.adj = _merged(inbox, state.adj)
        else:
            nbhd = state.adj[state.ident]
            entry = self._gathered.get(nbhd)
            if entry is None:
                adj = _merged(inbox, state.adj)
                entry = self._gathered[nbhd] = (adj, complete_bipartite_sides(adj))
            state.adj, state.sides = entry
            self._gather_decision(state)
            state.adj = state.sides = None
        return state

    def _gather_decision(self, state: _GatherState) -> None:
        parts = state.sides
        if parts is not None:
            state.decision = IN if state.ident in parts[0] else OUT
            return
        if state.degree == 1:
            state.decision = IN
            return
        adj = state.adj
        for u in adj[state.ident]:
            if len(adj[u]) == 1:
                state.decision = OUT
                return
        # leftover-forest member: ignore edges toward nodes that have a
        # pendant neighbor, run the greedy on what remains; port p leads to
        # the neighbor with the p-th smallest id
        residual: dict[int, tuple[int, str | None]] = {}
        for port, ident in enumerate(sorted(adj[state.ident])):
            for w in adj[ident]:
                if len(adj[w]) == 1:
                    break
            else:
                residual[port] = (ident, None)
        state.residual = residual

    def output(self, state: _GatherState) -> str | None:
        return state.decision

    def idle(self, state: _GatherState) -> bool:
        # the fourth step runs the forest greedy for the first time; after
        # it, an empty inbox leaves the residual table and so the decision
        # unchanged, and a node with no status to announce sends nothing
        return state.round >= 4 and not state.outbox


def rmis_forall_program() -> NodeProgram:
    return RmisForallProgram()


# ---------------------------------------------------------------------------
# the locality lower-bound premise

def labeled_ball_view(
    ballg: Graph, center: int, ids: IdAssignment
) -> tuple[int, frozenset[int], frozenset[frozenset[int]]]:
    """A ball as seen through assigned identifiers: center id, id set, and
    id-level edge set. Two balls are isomorphic as labeled graphs exactly
    when these views are equal, since distinct ids force the matching.
    """
    return (
        ids[center],
        frozenset(ids[v] for v in ballg.vertices),
        frozenset(frozenset((ids[u], ids[v])) for u, v in ballg.edges()),
    )


def indistinguishability_check(k: int) -> bool:
    """Confirm the structural premise behind the distance lower bound on the
    two-solution ladder gadget: its two extremities admit identically
    labeled radius-k views in two differently labeled copies, even though
    any correct algorithm must give them opposite outputs.

    Three disjoint id pools label the two extremity neighborhoods across
    three copies of the gadget; the shared pool appears once at each
    extremity, and those two views must coincide.
    """
    if k < 1:
        raise GraphError("k must be at least 1")
    inst = gen_gk(k)
    g, names = inst.graph, inst.names
    mirror: dict[int, int] = {}
    for i in range(k + 1):
        for plain, marked in (("a", "alpha"), ("b", "beta"), ("c", "gamma")):
            mirror[names[f"{plain}{i}"]] = names[f"{marked}{i}"]
            mirror[names[f"{marked}{i}"]] = names[f"{plain}{i}"]

    b_end = names[f"b{k}"]
    beta_end = names[f"beta{k}"]
    ball_b, _ = ball(g, b_end, k)
    ball_beta, _ = ball(g, beta_end, k)
    if set(ball_b.vertices) & set(ball_beta.vertices):
        return False  # the two neighborhoods must not overlap at this radius

    positions = ball_b.vertices  # labelings are defined positionally
    pools = [
        {p: base + i for i, p in enumerate(positions)}
        for base in (10_000, 20_000, 30_000)
    ]

    def labeled_copy(b_pool: dict[int, int], beta_pool: dict[int, int]) -> IdAssignment:
        ids = dict(b_pool)
        for v in ball_beta.vertices:
            ids[v] = beta_pool[mirror[v]]
        filler = 40_000
        for v in g.vertices:
            if v not in ids:
                ids[v] = filler
                filler += 1
        return ids

    copy_one = labeled_copy(pools[0], pools[1])  # extremities see pools 1 and 2
    copy_three = labeled_copy(pools[1], pools[2])  # extremities see pools 2 and 3
    return labeled_ball_view(ball_beta, beta_end, copy_one) == labeled_ball_view(
        ball_b, b_end, copy_three
    )
