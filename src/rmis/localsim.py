"""Synchronous message-passing execution and the distributed RMIS program.

The engine runs lock-step rounds: the outgoing messages of every node that
has work are collected, delivered, and only then do those nodes and every
node that received mail take their step. A program marks a node without
work through `NodeProgram.idle`; by default no node is idle, so every node
sends and steps in every round. Message size is unbounded. Nodes are
addressed by ports: port p of a node leads to the neighbor with the p-th
smallest assigned identifier, and a node initially knows nothing beyond its
own identifier and degree. A program sends a mapping from port to message;
`Broadcast(degree, msg)` is the one that sends the same message on every
port, and the engine delivers it without a per-port lookup.

The engine numbers the nodes 0..n-1 in vertex order and keeps states, port
tables, inboxes and decision rounds in lists indexed by that position;
vertex ids appear again only in the `SimResult` and in a timeout's
`undecided` list.

Programs must treat received message objects as read-only and never mutate
a payload after sending it.

An `RmisForallProgram` object gives equal neighborhoods one shared tuple
across the nodes it serves, and nodes with equal neighborhoods one shared
round-3 gathered map and bipartite test result.
These are devices of the simulator, to save time and memory: no shared
value is changed once built, and each equals the one the node would build
from its own inbox, so no information passes between nodes, and programs
must not rely on object identity.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
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
    def send(self, state: Any) -> Mapping[int, Any]:
        """Messages to emit this round: a mapping from port to message;
        `Broadcast` sends one message on every port.
        """

    @abstractmethod
    def step(self, state: Any, inbox: dict[int, Any]) -> Any:
        """Consume this round's received messages, return the new state."""

    @abstractmethod
    def output(self, state: Any) -> str | None:
        """None while undecided, IN or OUT once terminated."""

    def idle(self, state: Any) -> bool:
        """Whether the engine may skip this node until it receives mail."""
        return False


class Broadcast(Mapping[int, Any]):
    """One message on every port: the read-only mapping {0: msg, ...,
    degree - 1: msg}, held as the message and the degree. `run_sync`
    delivers it in one pass over the sender's ports.
    """

    __slots__ = ("degree", "msg")

    def __init__(self, degree: int, msg: Any):
        self.degree = degree
        self.msg = msg

    def __len__(self) -> int:
        return self.degree

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.degree))

    def __getitem__(self, port: int) -> Any:
        if port in range(self.degree):
            return self.msg
        raise KeyError(port)


def identity_ids(g: Graph) -> IdAssignment:
    return {v: v for v in g.vertices}


def random_ids(g: Graph, seed: int) -> IdAssignment:
    rng = random.Random(seed)
    pool = rng.sample(range(10 * g.n + 10), g.n)
    return {v: pool[i] for i, v in enumerate(g.vertices)}


def _port_tables(g: Graph, ids: IdAssignment) -> tuple[list[list[int]], list[list[int]]]:
    """Port tables on node positions, node i being the i-th vertex: to[i][p]
    is the node behind port p of i, and back[i][p] that node's port leading
    back to i.
    """
    verts, adj = g.vertices, g._adj
    pos = dict(zip(verts, range(g.n)))
    key = [ids[v] for v in verts]
    order = sorted(range(g.n), key=key.__getitem__)
    # visiting the nodes in id order fills each to list, and then each back
    # list, in the order of its owner's ports
    to: list[list[int]] = [[] for _ in verts]
    for i in order:
        for j in map(pos.__getitem__, adj[verts[i]]):
            to[j].append(i)
    back: list[list[int]] = [[] for _ in verts]
    for i in order:
        for p, j in enumerate(to[i]):
            back[j].append(p)
    return to, back


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

    verts, n = g.vertices, g.n
    to, back = _port_tables(g, ids)
    send, step, output, idle = program.send, program.step, program.output, program.idle
    states = [program.init(ids[v], len(t)) for v, t in zip(verts, to)]
    decided_at: list[int | None] = [None if output(state) is None else 0 for state in states]
    undecided = decided_at.count(None)
    # senders go in node order, so every inbox fills in the order it would
    # if every node sent
    active = [i for i in range(n) if not idle(states[i])]
    inboxes: list[dict[int, Any] | None] = [None] * n
    rounds = node_steps = 0
    messages_per_round: list[int] = []
    while undecided:
        rounds += 1
        if rounds > limit:
            raise SimulationTimeout(limit, [verts[i] for i in range(n) if decided_at[i] is None])
        for i in active:
            inboxes[i] = {}
        woken: list[int] = []  # nodes without work that received mail
        sent = 0
        for i in active:
            msgs = send(states[i])
            sent += len(msgs)
            if type(msgs) is Broadcast:  # a subclass goes port by port
                msg = msgs.msg
                for j, p in zip(to[i], back[i]):
                    inbox = inboxes[j]
                    if inbox is None:
                        inbox = inboxes[j] = {}
                        woken.append(j)
                    inbox[p] = msg
            else:
                t, b = to[i], back[i]
                for port, msg in msgs.items():
                    j = t[port]
                    inbox = inboxes[j]
                    if inbox is None:
                        inbox = inboxes[j] = {}
                        woken.append(j)
                    inbox[b[port]] = msg
        messages_per_round.append(sent)
        stepped = active + woken
        active = []
        for i in stepped:
            states[i] = state = step(states[i], inboxes[i])
            inboxes[i] = None  # read; its mail need not outlive the step
            if decided_at[i] is None and output(state) is not None:
                decided_at[i] = rounds
                undecided -= 1
            if not idle(state):
                active.append(i)
        node_steps += len(stepped)
        active.sort()
    outputs = dict(zip(verts, map(output, states)))
    termination = dict(zip(verts, decided_at))
    return SimResult(outputs, max(decided_at), termination, node_steps, messages_per_round)  # type: ignore[arg-type]


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
    adj: dict[int, tuple[int, ...]] | None = None  # id -> sorted nbhd ids, one to three hops out
    sides: tuple[set[int], set[int]] | None = None  # complete_bipartite_sides(adj)
    residual: dict[int, tuple[int, str | None]] | None = None  # port -> (id, status)
    outbox: dict[int, Any] | None = None  # the node's one status announcement


def _merged(inbox: dict[int, Any], own: dict[int, tuple[int, ...]]) -> dict[int, tuple[int, ...]]:
    """A fresh map of the received adjacency maps and the node's own, which
    was sent and so is not changed in place.
    """
    merged: dict[int, tuple[int, ...]] = {}
    for _, mapping in inbox.values():
        merged.update(mapping)
    merged.update(own)
    return merged


class RmisForallProgram(NodeProgram):
    """Three rounds of neighborhood flooding, then a constant-time case
    split, then an id-priority MIS on the leftover forest. Each flooding
    round sends one `Broadcast`; a forest node's status announcement is a
    per-port dict on its residual ports.

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

    A node's neighborhood is the sorted tuple of its neighbors' ids, so port
    p leads to its p-th entry. Nodes with equal neighborhoods hold one
    shared tuple, taken from a table the program object keeps (`_shared`),
    so the bipartite test compares them by identity. A second table
    (`_gathered`) holds the round-3 gathered map and its sides once per
    distinct neighborhood: nodes with equal neighbor sets hear the same
    senders, so they gather equal maps. Round 1 alone reads `_shared` and
    round 3 alone `_gathered`, and every node takes its second and its
    fourth step in the rounds after them, so each node drops both tables
    then: round 3 starts with no entry from an earlier run, even one the
    round cap stopped, and a run that reaches a fourth round leaves neither
    table (one that ends in round 3, as on K_{m,n}, leaves `_gathered` to
    the next run's second step). These are simulator devices, not part of
    the algorithm: the tables only swap a node's values, never changed once
    built, for equal ones, and nothing may depend on object identity.
    """

    @cached_property
    def _shared(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Neighborhood -> the one object that stands for it."""
        return {}

    @cached_property
    def _gathered(self) -> dict[tuple[int, ...], tuple[dict[int, tuple[int, ...]], Any]]:
        """Neighborhood -> (gathered map, its sides)."""
        return {}

    def init(self, ident: int, degree: int) -> _GatherState:
        return _GatherState(ident, degree)

    def send(self, state: _GatherState) -> Mapping[int, Any]:
        if state.round >= 3:
            return state.outbox or _NO_MAIL
        if state.round == 0:
            return Broadcast(state.degree, ("id", state.ident))
        return Broadcast(state.degree, ("adj", state.adj))

    def step(self, state: _GatherState, inbox: dict[int, Any]) -> _GatherState:
        rnd = state.round = state.round + 1
        if rnd == 2 or rnd == 4:
            tables = vars(self)
            tables.pop("_shared", None)
            tables.pop("_gathered", None)
        if rnd > 3:
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
        elif rnd == 1:
            nbhd = tuple(sorted(map(itemgetter(1), inbox.values())))
            state.adj = {state.ident: self._shared.setdefault(nbhd, nbhd)}
        elif rnd == 2:
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
        # the neighbor with the p-th smallest id, the p-th of the tuple
        residual: dict[int, tuple[int, str | None]] = {}
        for port, ident in enumerate(adj[state.ident]):
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
    extremity, and those two views must coincide. Only those two views are
    built: the shared pool laid on b's ball, and the same pool pulled back
    onto beta's ball through the beta -> b mirror.
    """
    if k < 1:
        raise GraphError("k must be at least 1")
    inst = gen_gk(k)
    g, names = inst.graph, inst.names
    pairs = (("a", "alpha"), ("b", "beta"), ("c", "gamma"))
    mirror = {names[f"{m}{i}"]: names[f"{p}{i}"] for i in range(k + 1) for p, m in pairs}  # beta's side -> b's

    b_end = names[f"b{k}"]
    beta_end = names[f"beta{k}"]
    ball_b, _ = ball(g, b_end, k)
    ball_beta, _ = ball(g, beta_end, k)
    if set(ball_b.vertices) & set(ball_beta.vertices):
        return False  # the two neighborhoods must not overlap at this radius

    pool = {p: i for i, p in enumerate(ball_b.vertices)}  # labelings are positional
    pulled = {v: pool[mirror[v]] for v in ball_beta.vertices}
    return labeled_ball_view(ball_beta, beta_end, pulled) == labeled_ball_view(ball_b, b_end, pool)
