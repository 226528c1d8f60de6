import copy
import gc
import random
import timeit
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any

import pytest

from rmis import localsim
from rmis.classify import in_rmis_forall, is_complete_bipartite
from rmis.graph import (
    Graph,
    GraphError,
    ball,
    connected_components,
    induced_subgraph,
    pendant_vertices,
)
from rmis.generators import (
    gen_complete_bipartite,
    gen_gk,
    gen_path,
    gen_random_connected,
    gen_random_sputnik,
    gen_sparse_sputnik,
)
from rmis.localsim import (
    IN,
    OUT,
    Broadcast,
    NodeProgram,
    RmisForallProgram,
    SimulationTimeout,
    identity_ids,
    indistinguishability_check,
    labeled_ball_view,
    random_ids,
    rmis_forall_program,
    run_sync,
)
from rmis.oracle import is_mis

from conftest import diameter, leftover_first_mis, run_sync_every_node
from test_golden_cli import sim_corpus


class ConstantIn(NodeProgram):
    def init(self, ident, degree):
        return IN

    def send(self, state):
        return {}

    def step(self, state, inbox):
        return state

    def output(self, state):
        return state


class NeverDecides(ConstantIn):
    def init(self, ident, degree):
        return None


@dataclass
class _FloodState:
    ident: int
    degree: int
    radius: int
    round: int = 0
    adj: dict = field(default_factory=dict)
    port_ids: dict = field(default_factory=dict)
    done: bool = False


class FloodProbe(NodeProgram):
    """Gather full neighborhoods for `radius` rounds, then stop."""

    def __init__(self, radius):
        self.radius = radius

    def init(self, ident, degree):
        return _FloodState(ident, degree, self.radius)

    def send(self, state):
        if state.round == 0:
            return {p: ("id", state.ident) for p in range(state.degree)}
        if state.round < state.radius:
            return {p: dict(state.adj) for p in range(state.degree)}
        return {}

    def step(self, state, inbox):
        state.round += 1
        if state.round == 1:
            for port, (_, ident) in inbox.items():
                state.port_ids[port] = ident
            state.adj[state.ident] = frozenset(state.port_ids.values())
        else:
            for mapping in inbox.values():
                for ident, nbrs in mapping.items():
                    state.adj.setdefault(ident, nbrs)
        if state.round >= state.radius:
            state.done = True
        return state

    def output(self, state):
        return IN if state.done else None


@dataclass
class _GreedyState:
    ident: int
    degree: int
    round: int = 0
    decision: str | None = None
    neighbors: dict = field(default_factory=dict)


class ForestMisProgram(NodeProgram):
    """Standalone id-priority MIS: a node joins once every smaller-id
    neighbor has left, leaves once a neighbor joined. Correct on any graph,
    meant for forests where it needs at most linearly many rounds.
    """

    def init(self, ident, degree):
        return _GreedyState(ident, degree)

    def send(self, state):
        return {p: ("status", state.ident, state.decision) for p in range(state.degree)}

    def step(self, state, inbox):
        state.round += 1
        for port, (_, ident, status) in inbox.items():
            state.neighbors[port] = (ident, status)
        if state.decision is None:
            table = state.neighbors.values()
            if any(status == IN for _, status in table):
                state.decision = OUT
            elif all(status == OUT or ident > state.ident for ident, status in table):
                state.decision = IN
        return state

    def output(self, state):
        return state.decision


def forest_mis_program():
    return ForestMisProgram()


def in_set(result):
    return {v for v, out in result.outputs.items() if out == IN}


class TestEngine:
    def test_immediate_output_costs_zero_rounds(self):
        g = gen_path(4)
        result = run_sync(g, ConstantIn(), identity_ids(g))
        assert result.rounds_total == 0
        assert set(result.termination_round.values()) == {0}
        assert result.messages_per_round == []

    def test_messages_per_round_count_every_send(self):
        # ForestMisProgram sends its status on every port in every round
        g = gen_path(6)
        result = run_sync(g, forest_mis_program(), identity_ids(g))
        assert result.messages_per_round == [2 * g.num_edges] * result.rounds_total

    def test_round_cap(self):
        g = gen_path(3)
        with pytest.raises(SimulationTimeout) as err:
            run_sync(g, NeverDecides(), identity_ids(g), max_rounds=5)
        assert set(err.value.undecided) == {0, 1, 2}
        assert str(err.value) == "3 nodes undecided after 5 rounds: [0, 1, 2]"
        # the report names a few ids; the exception keeps them all
        g = gen_path(50)
        with pytest.raises(SimulationTimeout) as err:
            run_sync(g, NeverDecides(), identity_ids(g), max_rounds=0)
        assert err.value.undecided == list(range(50))
        assert str(err.value) == (
            "50 nodes undecided after 0 rounds: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ... (40 more)]"
        )

    def test_id_assignment_validation(self):
        g = gen_path(3)
        with pytest.raises(GraphError):
            run_sync(g, ConstantIn(), {0: 1, 1: 1, 2: 2})
        with pytest.raises(GraphError):
            run_sync(g, ConstantIn(), {0: 0, 1: 1})
        with pytest.raises(GraphError, match="^identifiers must be non-negative$"):
            run_sync(g, ConstantIn(), {0: -1, 1: 1, 2: 2})

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            run_sync(Graph(edges=[(0, 1), (2, 3)]), ConstantIn(), {0: 0, 1: 1, 2: 2, 3: 3})

    def test_ports_follow_neighbor_ids(self):
        # a guard on the contract `RmisForallProgram` relies on: port p of a
        # node leads to the neighbor with the p-th smallest id, so round 1
        # tells a node its neighbor ids by port
        class FirstInbox(RmisForallProgram):
            def __init__(self):
                self.first = {}

            def step(self, state, inbox):
                if state.round == 0:
                    self.first[state.ident] = dict(inbox)
                return super().step(state, inbox)

        graphs = [gen_path(9), gen_complete_bipartite(4, 7), gen_gk(3).graph]
        graphs += [gen_random_connected(30, 0.2, seed) for seed in range(3)]
        for i, g in enumerate(graphs):
            ids = random_ids(g, i)
            for engine in (run_sync, run_sync_every_node):
                program = FirstInbox()
                with pytest.raises(SimulationTimeout):  # no node decides in round 1
                    engine(g, program, ids, 1)
                assert len(program.first) == g.n
                for v in g.vertices:
                    nbr_ids = sorted(ids[u] for u in g.neighbors(v))
                    expected = {p: ("id", ident) for p, ident in enumerate(nbr_ids)}
                    assert program.first[ids[v]] == expected

    def test_flooding_matches_balls(self):
        # after three exchanges a node's knowledge is the whole of K3,3
        g = gen_complete_bipartite(3, 3)
        probe = FloodProbe(3)
        states = {}

        class Recorder(FloodProbe):
            def step(self, state, inbox):
                state = FloodProbe.step(self, state, inbox)
                states[state.ident] = state
                return state

        run_sync(g, Recorder(3), identity_ids(g))
        for v in g.vertices:
            known = Graph(
                set(states[v].adj),
                [(a, b) for a in states[v].adj for b in states[v].adj[a] if a < b],
            )
            expected, boundary = ball(g, v, 3)
            assert known == expected and boundary == set()

    def test_closure_detection_round_count_on_paths(self):
        # a node can tell its knowledge stopped growing one round after its
        # eccentricity; on a path that is the diameter plus one
        @dataclass
        class S(_FloodState):
            pass

        class ClosureProbe(FloodProbe):
            def __init__(self):
                super().__init__(radius=10**6)

            def step(self, state, inbox):
                state.round += 1
                if state.round == 1:
                    for port, (_, ident) in inbox.items():
                        state.port_ids[port] = ident
                    state.adj[state.ident] = frozenset(state.port_ids.values())
                else:
                    for mapping in inbox.values():
                        for ident, nbrs in mapping.items():
                            state.adj.setdefault(ident, nbrs)
                known = set(state.adj) | {w for ns in state.adj.values() for w in ns}
                if known and known == set(state.adj):
                    state.done = True
                return state

        g = gen_path(7)
        result = run_sync(g, ClosureProbe(), identity_ids(g))
        assert result.rounds_total == diameter(g) + 1


class TestBroadcast:
    """`Broadcast(d, msg)` is the mapping {0: msg, ..., d - 1: msg}."""

    @pytest.mark.parametrize("degree", [0, 1, 2, 7])
    def test_mapping_contract(self, degree):
        msg = ("adj", {3: frozenset([1, 2])})
        b = Broadcast(degree, msg)
        assert len(b) == degree
        assert list(b) == list(b.keys()) == list(range(degree))
        assert list(b.values()) == [msg] * degree
        assert all(value is msg for value in b.values())
        assert list(b.items()) == [(p, msg) for p in range(degree)]
        assert all(b[p] is msg and p in b for p in range(degree))
        for port in (-1, degree, degree + 5, "0", None):
            assert port not in b
            with pytest.raises(KeyError):
                b[port]
        assert b.get(degree) is None
        assert b == dict.fromkeys(range(degree), msg) and dict.fromkeys(range(degree), msg) == b
        assert b != dict.fromkeys(range(degree + 1), msg)
        assert b != dict.fromkeys(range(degree), ("adj", {})) or degree == 0
        assert not hasattr(b, "__dict__")


class TestRmisForallProgram:
    def test_complete_bipartite_rounds_and_convention(self):
        for m, n in ((1, 1), (2, 3), (4, 4), (1, 5)):
            g = gen_complete_bipartite(m, n)
            ids = random_ids(g, seed=m * 10 + n)
            result = run_sync(g, rmis_forall_program(), ids)
            assert set(result.termination_round.values()) == {3}
            chosen = in_set(result)
            assert is_mis(g, chosen)
            parts = is_complete_bipartite(g)
            lowest_vertex = min(g.vertices, key=lambda v: ids[v])
            side = parts[0] if lowest_vertex in parts[0] else parts[1]
            assert chosen == side

    def test_complete_bipartite_floods_every_port_three_times(self):
        for a, b in ((1, 1), (1, 6), (2, 3), (5, 5), (12, 20)):
            g = gen_complete_bipartite(a, b)
            ids = random_ids(g, seed=a * 100 + b)
            for engine in (run_sync, run_sync_every_node):
                result = engine(g, rmis_forall_program(), ids)
                assert result.messages_per_round == [2 * a * b] * 3

    def test_single_edge_splits(self):
        g = Graph(edges=[(0, 1)])
        result = run_sync(g, rmis_forall_program(), identity_ids(g))
        assert sorted(result.outputs.values()) == [IN, OUT]

    def test_sputnik_pendant_rules(self):
        rng = random.Random(3)
        for i in range(25):
            g = gen_random_sputnik(i, rng.randint(2, 60))
            if is_complete_bipartite(g) is not None:
                continue  # resolved by the bipartite convention instead
            result = run_sync(g, rmis_forall_program(), random_ids(g, i))
            chosen = in_set(result)
            assert is_mis(g, chosen)
            pend = pendant_vertices(g)
            assert pend <= chosen
            for v in g.vertices:
                if v not in pend and g.neighbors(v) & pend:
                    assert result.outputs[v] == OUT

    def test_chosen_set_is_pendants_plus_forest_mis(self):
        rng = random.Random(4)
        for i in range(15):
            g = gen_random_sputnik(100 + i, rng.randint(3, 50))
            if is_complete_bipartite(g) is not None:
                continue
            result = run_sync(g, rmis_forall_program(), random_ids(g, i))
            chosen = in_set(result)
            pend = pendant_vertices(g)
            leftover = {
                v for v in g.vertices if v not in pend and not (g.neighbors(v) & pend)
            }
            assert chosen - pend <= leftover
            if leftover:
                forest = induced_subgraph(g, leftover)
                # sputnik structure: what remains is acyclic (maybe disconnected)
                assert forest.num_edges == forest.n - len(connected_components(forest))
                assert is_mis(forest, chosen & leftover)

    def test_trees_work(self):
        g = gen_path(9)
        result = run_sync(g, rmis_forall_program(), identity_ids(g))
        assert is_mis(g, in_set(result))

    @staticmethod
    def forest_instances():
        for n in (3, 6, 10, 40):
            g = gen_path(n)
            yield g, identity_ids(g)
            yield g, random_ids(g, n)
        rng = random.Random(6)
        for i in range(20):
            g = gen_random_sputnik(300 + i, rng.randint(3, 60))
            yield g, random_ids(g, i)

    def test_each_port_carries_at_most_one_status(self):
        class StatusCounter(RmisForallProgram):
            def __init__(self):
                self.sent = Counter()

            def send(self, state):
                msgs = super().send(state)
                for port, msg in msgs.items():
                    if msg[0] == "status":
                        self.sent[state.ident, port] += 1
                return msgs

        announced = 0
        for g, ids in self.forest_instances():
            program = StatusCounter()
            result = run_sync(g, program, ids)
            assert is_mis(g, in_set(result))
            assert max(program.sent.values(), default=0) <= 1
            announced += len(program.sent)
        assert announced > 0

    def test_statuses_reach_exactly_the_forest_neighbors(self):
        # the forest is what the pendant rules leave: no pendant and no
        # pendant neighbor. Each forest node announces once, to each forest
        # neighbor, unless it decided in the last round
        announced = 0
        for g, ids in self.forest_instances():
            if is_complete_bipartite(g) is not None:
                continue  # decided in round 3, no forest stage
            pend = pendant_vertices(g)
            forest = {v for v in g.vertices if v not in pend and not g.neighbors(v) & pend}
            result = run_sync(g, rmis_forall_program(), ids)
            last = result.rounds_total
            expected = sum(len(g.neighbors(v) & forest) for v in forest if result.termination_round[v] < last)
            assert sum(result.messages_per_round[3:]) == expected
            announced += expected
        assert announced > 0

    def test_leftover_is_the_first_mis_in_id_order(self):
        # on a graph that is not complete bipartite, the vertices the
        # pendant rules leave undecided run the id-priority greedy on the
        # graph they induce, which picks its lexicographically first MIS
        # in order of assigned id; a smaller-id neighbor that is still
        # undecided holds a node back, a larger one does not
        graphs = [g for g in sim_corpus().values() if is_complete_bipartite(g) is None]
        graphs += [gen_sparse_sputnik(n, extra, seed) for n, extra, seed in ((2000, 200, 1), (3000, 300, 3))]
        checked = 0
        for i, g in enumerate(graphs):
            for ids in (identity_ids(g), random_ids(g, i)):
                leftover, expected = leftover_first_mis(g, ids)
                result = run_sync(g, rmis_forall_program(), ids)
                assert {v for v in leftover if result.outputs[v] == IN} == expected, (g.edges(), ids)
                checked += len(leftover) > 1
        assert checked > 40

    def test_payloads_are_not_changed_after_sending(self):
        class Snapshots(RmisForallProgram):
            def __init__(self):
                self.sent = []

            def send(self, state):
                msgs = super().send(state)
                self.sent.extend((msg, copy.deepcopy(msg)) for msg in msgs.values())
                return msgs

        instances = [(gen_complete_bipartite(3, 4), None), *self.forest_instances()]
        for g, ids in instances:
            program = Snapshots()
            run_sync(g, program, ids or identity_ids(g))
            assert all(msg == snapshot for msg, snapshot in program.sent)


class TestNodeState:
    """A node keeps only what it still reads."""

    def test_states_have_no_dict_and_shed_the_gathered_map(self):
        class Kept(RmisForallProgram):
            def __init__(self):
                self.states = []

            def init(self, ident, degree):
                state = super().init(ident, degree)
                self.states.append(state)
                return state

        g = gen_sparse_sputnik(2000, 200, 1)
        program = Kept()
        result = run_sync(g, program, identity_ids(g))
        assert is_mis(g, in_set(result))
        assert not any(hasattr(state, "__dict__") for state in program.states)
        # some nodes decided in their third step, forest nodes later
        assert 3 in result.termination_round.values() and result.rounds_total > 4
        for state in program.states:
            assert (state.adj, state.sides, state.residual) == (None,) * 3
            # the run ends before the last round's deciders announce
            if result.termination_round[state.ident] < result.rounds_total:
                assert state.outbox is None


class Unshared(RmisForallProgram):
    """The program with fresh neighborhood and gathered-map tables on every
    lookup, so no two nodes hold one neighborhood object and every node
    merges its own inbox.
    """

    @property
    def _shared(self):
        return {}

    @property
    def _gathered(self):
        return {}


def own_merge(inbox, round2_adj):
    """A node's round-3 map built from nothing but its own inbox and its
    own round-2 map."""
    merged = {}
    for _, mapping in inbox.values():
        merged.update(mapping)
    merged.update(round2_adj)
    return merged


def reuse_graphs():
    """A path and a sputnik where node 2 has neighbors {1, 3} in both. On
    the path, 1 has a pendant neighbor, so 2 ignores it and joins at once;
    on the sputnik, 1 hangs between 2 and the cycle with no pendant, so 2
    waits for it. A gathered map carried from one run into the next would
    hand 2 the other graph's surroundings.
    """
    path = gen_path(5)
    sputnik = Graph(
        edges=[(1, 2), (2, 3), (3, 4), (1, 10), (10, 11), (11, 12), (12, 13), (13, 10)]
        + [(10, 20), (11, 21), (12, 22), (13, 23)]
    )
    return path, sputnik


class TestSharedNeighborhoods:
    """Nodes with equal neighborhoods hold one neighborhood object and one
    gathered map; nothing else changes."""

    def test_flooded_maps_hold_one_object_per_side(self):
        class Gathered(RmisForallProgram):
            def __init__(self):
                self.maps = []
                self.merges = {}

            def step(self, state, inbox):
                if state.round == 2:  # this step gathers
                    self.merges[state.ident] = own_merge(inbox, state.adj)
                return super().step(state, inbox)

            def _gather_decision(self, state):
                self.maps.append(state.adj)
                assert state.adj == self.merges[state.ident]
                assert list(state.adj) == list(self.merges[state.ident])
                super()._gather_decision(state)

        for m, n in ((3, 4), (20, 30)):
            g = gen_complete_bipartite(m, n)
            for ids in (identity_ids(g), random_ids(g, m)):
                program = Gathered()
                run_sync(g, program, ids)
                assert len(program.maps) == g.n
                assert all(len(adj) == g.n for adj in program.maps)
                objects = {id(ns) for adj in program.maps for ns in adj.values()}
                assert len(objects) == 2
                assert len({id(adj) for adj in program.maps}) == 2

    def test_one_vertex_gathers_alone(self):
        # the lone node receives no mail; it builds its map through the
        # table all the same, from its own round-2 map alone
        g = Graph([5])
        for program in (rmis_forall_program(), Unshared()):
            result = run_sync(g, program, identity_ids(g))
            assert result.outputs == {5: IN}
            assert result.termination_round == {5: 4}

    def test_reused_program_matches_fresh_runs(self):
        path, sputnik = reuse_graphs()
        assert in_rmis_forall(sputnik).sputnik
        for first, second in ((path, sputnik), (sputnik, path)):
            program = rmis_forall_program()
            for g in (first, second):
                ids = identity_ids(g)
                assert run_sync(g, program, ids) == run_sync(g, rmis_forall_program(), ids)

    def test_gathered_table_dropped_after_the_third_step(self):
        # an entry holds a sender's round-2 map; every node takes its third
        # step in the same round, so none is read after it, and the table
        # goes at the first fourth step rather than at the end of the run.
        # Round 1 alone reads the neighborhood table, which goes at the
        # first second step.
        class Watched(RmisForallProgram):
            def __init__(self):
                self.kept = []
                self.shared = []

            def step(self, state, inbox):
                state = super().step(state, inbox)
                if state.round >= 2:
                    self.shared.append("_shared" in vars(self))
                if state.round >= 4:
                    self.kept.append("_gathered" in vars(self))
                return state

        g = gen_path(12)
        program = Watched()
        result = run_sync(g, program, identity_ids(g))
        assert result.rounds_total > 4
        assert program.kept and not any(program.kept)
        assert program.shared and not any(program.shared)
        assert not {"_shared", "_gathered"} & set(vars(program))
        assert result == run_sync(g, program, identity_ids(g))  # rebuilt on reuse

    def test_program_stopped_by_the_round_cap_is_reused_cleanly(self):
        # a run stopped after round 3 leaves its gathered maps behind; the
        # next run drops them before its own round 3
        path, sputnik = reuse_graphs()
        for first, second in ((path, sputnik), (sputnik, path)):
            program = rmis_forall_program()
            with pytest.raises(SimulationTimeout):
                run_sync(first, program, identity_ids(first), max_rounds=3)
            assert "_gathered" in vars(program)
            ids = identity_ids(second)
            assert run_sync(second, program, ids) == run_sync(second, rmis_forall_program(), ids)

    def test_sharing_changes_no_result(self):
        graphs = list(sim_corpus().values())
        sparse = ((2000, 200, 1), (2500, 1000, 2), (3000, 300, 3))
        graphs += [gen_sparse_sputnik(n, extra, seed) for n, extra, seed in sparse]
        assert max(g.n for g in graphs) >= 3000
        for i, g in enumerate(graphs):
            for ids in (identity_ids(g), random_ids(g, i)):
                # SimResult equality compares every field
                assert run_sync(g, rmis_forall_program(), ids) == run_sync(g, Unshared(), ids)


class TestForestProgram:
    def test_priority_path(self):
        g = Graph([1, 2, 3], [(3, 1), (1, 2)])
        result = run_sync(g, forest_mis_program(), identity_ids(g))
        assert in_set(result) == {1}

    def test_star_with_small_center(self):
        g = gen_complete_bipartite(1, 4)  # center 0 has the smallest id
        result = run_sync(g, forest_mis_program(), identity_ids(g))
        assert in_set(result) == {0}

    def test_isolated_vertex_joins(self):
        g = Graph([5])
        result = run_sync(g, forest_mis_program(), identity_ids(g))
        assert result.outputs == {5: IN}

    def test_valid_mis_on_any_graph(self):
        rng = random.Random(5)
        for i in range(20):
            g = gen_random_sputnik(200 + i, rng.randint(1, 30))
            result = run_sync(g, forest_mis_program(), random_ids(g, i))
            assert is_mis(g, in_set(result))


def outcome(engine, g, program, ids, max_rounds=None):
    """What a run shows from outside: the result, or the timeout's report."""
    try:
        result = engine(g, program, ids, max_rounds)
    except SimulationTimeout as err:
        return "timeout", str(err), err.undecided
    return result.outputs, result.rounds_total, result.termination_round, result.messages_per_round


def differential_graphs():
    graphs = [gen_path(n) for n in [*range(1, 41), 1000]]
    sides = (1, 2, 3, 4, 7, 12, 20, 30)
    graphs += [gen_complete_bipartite(m, n) for m in sides for n in sides if m <= n]
    graphs.append(gen_complete_bipartite(100, 100))
    rng = random.Random(9)
    graphs += [gen_random_sputnik(500 + i, rng.randint(2, 60)) for i in range(50)]
    graphs += [gen_gk(k).graph for k in range(1, 21)]
    for i, g in enumerate(graphs):
        yield g, identity_ids(g)
        yield g, random_ids(g, i)


@dataclass
class _MixedState:
    ident: int
    degree: int
    digest: int
    heard: int = 0
    outbox: Any = None


class MixedSends(NodeProgram):
    """Sends a `Broadcast`, a dict on every other port, or nothing, picked
    from a digest of the ports and messages heard so far, first at the
    start and then after each of its first three inboxes. A node idles
    once it has heard twice and has nothing to send; it is undecided while
    it has something to send, then IN or OUT by the digest's parity.
    """

    def __init__(self):
        self.sent = Counter()  # sends by kind: "Broadcast", "dict" or "nothing"

    def init(self, ident, degree):
        state = _MixedState(ident, degree, ident)
        state.outbox = self.next_send(state)
        return state

    @staticmethod
    def next_send(state):
        msg = (state.ident, state.digest)
        kind = state.digest % 3
        if kind == 0:
            return Broadcast(state.degree, msg)
        if kind == 1:
            return {p: msg for p in range(state.digest % 2, state.degree, 2)}
        return {}

    def send(self, state):
        msgs = state.outbox or {}
        self.sent[type(msgs).__name__ if msgs else "nothing"] += 1
        return msgs

    def step(self, state, inbox):
        state.outbox = None
        if inbox:
            state.heard += 1
            mail = sum((p + 1) * (ident + 3 * digest) for p, (ident, digest) in inbox.items())
            state.digest = (31 * state.digest + mail) % 1_000_003
            if state.heard <= 3:
                state.outbox = self.next_send(state)
        return state

    def output(self, state):
        if state.outbox:
            return None
        return IN if state.digest % 2 else OUT

    def idle(self, state):
        return state.heard >= 2 and not state.outbox


class TestActiveEngine:
    """`run_sync` skips idle nodes; the every-node reference engine in
    conftest must see the same run.
    """

    def test_matches_every_node_engine(self):
        programs = [
            (rmis_forall_program, None),
            (ConstantIn, None),
            (NeverDecides, 5),
            (forest_mis_program, None),
        ]
        for g, ids in differential_graphs():
            for make, max_rounds in programs:
                if g.n >= 1000 and make is not rmis_forall_program:
                    continue  # never idle, so a long path only costs time
                expected = outcome(run_sync_every_node, g, make(), ids, max_rounds)
                assert outcome(run_sync, g, make(), ids, max_rounds) == expected

    def test_mixed_sends_match_every_node_engine(self):
        # one program sends broadcasts, per-port dicts that skip ports and
        # nothing, and idles in between, so mail wakes nodes through both
        # delivery branches; a wrong port, lost message or missed wake-up
        # changes some digest
        sent = Counter()
        timeouts = 0
        for g, ids in differential_graphs():
            for max_rounds in (None, 1):
                expected = outcome(run_sync_every_node, g, MixedSends(), ids, max_rounds)
                program = MixedSends()
                assert outcome(run_sync, g, program, ids, max_rounds) == expected
                sent += program.sent
                timeouts += expected[0] == "timeout"
        assert timeouts > 0 and sent.keys() == {"Broadcast", "dict", "nothing"}

    def test_timeouts_match_outside_the_class(self):
        timeouts = 0
        for seed in range(30):
            g = gen_random_connected(12 + seed, 0.25, seed)
            if in_rmis_forall(g).rmis_forall:
                continue
            ids = random_ids(g, seed)
            for max_rounds in (4, 5, 6):
                expected = outcome(run_sync_every_node, g, rmis_forall_program(), ids, max_rounds)
                assert outcome(run_sync, g, rmis_forall_program(), ids, max_rounds) == expected
                timeouts += expected[0] == "timeout"
        assert timeouts > 0

    def test_idle_nodes_keep_the_contract(self):
        class IdleChecker(RmisForallProgram):
            def __init__(self):
                self.checked = 0

            def idle(self, state):
                if not super().idle(state):
                    return False
                assert self.send(state) == {}
                after = self.step(copy.deepcopy(state), {})
                assert (after.decision, after.residual, after.outbox) == (
                    state.decision,
                    state.residual,
                    state.outbox,
                )
                assert super().idle(after)
                self.checked += 1
                return True

        graphs = [gen_path(n) for n in (2, 5, 17, 40)]
        graphs += [gen_complete_bipartite(m, n) for m, n in ((1, 4), (3, 3), (5, 7))]
        rng = random.Random(10)
        graphs += [gen_random_sputnik(700 + i, rng.randint(3, 60)) for i in range(20)]
        checked = 0
        for i, g in enumerate(graphs):
            for ids in (identity_ids(g), random_ids(g, i)):
                program = IdleChecker()
                assert is_mis(g, in_set(run_sync(g, program, ids)))
                checked += program.checked
        assert checked > 0

    def test_path_steps_stay_linear(self):
        g = gen_path(1000)
        result = run_sync(g, rmis_forall_program(), identity_ids(g))
        assert result.rounds_total == 999
        assert result.node_steps <= 10 * g.n

    def test_default_steps_every_node_every_round(self):
        g = gen_path(6)
        result = run_sync(g, forest_mis_program(), identity_ids(g))
        assert result.node_steps == result.rounds_total * g.n


def peak_bytes_per_element(g):
    """The tracemalloc peak of one run with identity ids, per n + m, with
    the collector off."""
    ids = identity_ids(g)
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_sync(g, rmis_forall_program(), ids)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
        if collecting:
            gc.enable()
    return peak / (g.n + g.num_edges)


class TestSimulatorMemory:
    def test_peak_bytes_per_edge(self):
        # the tracemalloc peak of one K_{100,100} run, per n + m. Delivering
        # through `port_to` plus a per-node `port_from` dict peaked at 854 B,
        # per-port `port_back` lists alone at 672 B, one shared
        # neighborhood object per side at 508 B, one gathered map per side
        # at 331 B, a port table per node as a tuple, not a dict, at 256 B
        # (247 B with slotted state), and no port table at 230 B; keeping
        # two delivery tables, a neighborhood copy, a gathered map or a
        # port dict per node alive shows up here
        g = gen_complete_bipartite(100, 100)
        per_elem = peak_bytes_per_element(g)
        assert per_elem <= 290, f"{per_elem:.0f} B per n + m"

    def test_sparse_sputnik_peak_bytes_per_element(self):
        # the tracemalloc peak of one run on a sparse sputnik, per n + m.
        # Node state as an unslotted dataclass with four dicts per node,
        # each round's inboxes alive until the next round's were built and
        # every node's gathered map kept to the end read 1,060 B; slotted
        # state that sheds its maps after the third step, with each inbox
        # dropped once its node has stepped, read 779 B while the gathered
        # table kept each entry's first message and a port table per node;
        # without them, the table cleared at every second step, 668 B; with
        # the engine on node positions (states, port tables and inboxes in
        # lists, the position map dropped once the port tables are built)
        # and one `Broadcast` per flooding send, 610.5 B; with each
        # neighborhood a sorted id tuple, not a frozenset, 520.9 B
        g = gen_sparse_sputnik(20000, 2000, 1)
        per_elem = peak_bytes_per_element(g)
        assert per_elem <= 545, f"{per_elem:.0f} B per n + m"


def best_times_per_element(graphs, repeats):
    """Each graph's best run time with identity ids, per n + m. The graphs
    alternate, so a slow spell of the machine hits all of them."""
    best = [float("inf")] * len(graphs)
    for _ in range(repeats):
        for i, g in enumerate(graphs):
            ids = identity_ids(g)
            t = timeit.timeit(lambda: run_sync(g, rmis_forall_program(), ids), number=1)
            best[i] = min(best[i], t / (g.n + g.num_edges))
    return best


class TestScaling:
    # timeit holds the cyclic collector off, whose full passes scale with
    # everything the rest of the suite keeps alive, not with the code timed
    def test_complete_bipartite_time_per_element_stays_flat(self):
        # every node merging its neighbors' round-2 maps itself is
        # Theta(a * b * (a + b)) on K_{a,b}, against a + b + a * b elements
        small, large = best_times_per_element([gen_complete_bipartite(m, m) for m in (50, 300)], 5)
        assert large / small <= 1.6, f"{small * 1e6:.2f} -> {large * 1e6:.2f} us per n + m"

    def test_sparse_sputnik_time_per_element_stays_flat(self):
        # a regression guard: per-node work that grew with the graph, such
        # as a scan of every node in each of the forest stage's rounds,
        # would show here. Unslotted node state read 17.8 -> 24.0 us per
        # n + m (1.35) and passes too; slotted state reads about 1.34
        graphs = [gen_sparse_sputnik(n, n // 10, 1) for n in (5000, 20000)]
        small, large = best_times_per_element(graphs, 7)
        assert large / small <= 1.6, f"{small * 1e6:.2f} -> {large * 1e6:.2f} us per n + m"


class TestIndistinguishability:
    def test_holds_for_small_radii(self):
        for k in range(1, 9):
            assert indistinguishability_check(k)

    def test_same_instance_balls_differ(self):
        inst = gen_gk(2)
        g, nm = inst.graph, inst.names
        ids = identity_ids(g)
        ball_b, _ = ball(g, nm["b2"], 2)
        ball_beta, _ = ball(g, nm["beta2"], 2)
        assert labeled_ball_view(ball_b, nm["b2"], ids) != labeled_ball_view(
            ball_beta, nm["beta2"], ids
        )

    def test_lopsided_ladder_fails(self, monkeypatch):
        # the real ladder plus the edge alpha_k - gamma_k: beta_k's ball
        # gains an edge that b_k's lacks, so no labeling makes the two
        # views equal and the check must say so
        def lopsided_gk(k):
            inst = gen_gk(k)
            extra = (inst.names[f"alpha{k}"], inst.names[f"gamma{k}"])
            return replace(inst, graph=Graph(inst.graph.vertices, [*inst.graph.edges(), extra]))

        monkeypatch.setattr(localsim, "gen_gk", lopsided_gk)
        for k in (1, 2, 3):
            assert not indistinguishability_check(k)

    def test_rejects_radius_zero(self):
        with pytest.raises(GraphError):
            indistinguishability_check(0)
