import random
import sys

import pytest

from rmis.findrmis import find_rmis
from rmis.graph import Graph, GraphError
from rmis.generators import (
    gen_bull,
    gen_complete_bipartite,
    gen_cycle,
    gen_gk,
    gen_path,
    gen_random_connected,
    gen_random_sputnik,
)
from rmis import graph, oracle
from rmis.oracle import (
    cycle_edges,
    enumerate_mis,
    enumerate_robust_mis,
    format_vertex_set,
    is_independent,
    is_mis,
    is_robust_mis,
    is_robust_mis_bruteforce,
    parse_vertex_set,
)

from conftest import brute_bridges, connected_graphs, reference_is_robust_mis

BULL = gen_bull()
TRIANGLE = gen_cycle(3)
SQUARE = gen_cycle(4)


class TestIndependence:
    def test_square_opposite_corners(self):
        assert is_independent(SQUARE, {0, 2})

    def test_triangle_pair(self):
        assert not is_independent(TRIANGLE, {0, 1})

    def test_empty_set(self):
        assert is_independent(BULL, set())

    def test_unknown_vertex(self):
        with pytest.raises(GraphError):
            is_independent(TRIANGLE, {9})


class TestIsMis:
    def test_bull_pendant_plus_horn(self):
        assert is_mis(BULL, {0, 2})

    def test_bull_both_pendants_and_horn(self):
        assert is_mis(BULL, {0, 3, 4})

    def test_not_maximal(self):
        assert not is_mis(BULL, {0})

    def test_empty_never_maximal(self):
        assert not is_mis(TRIANGLE, set())


class TestRobustness:
    def test_triangle_has_none(self):
        assert not is_robust_mis(TRIANGLE, {0})

    def test_bull_unique_robust_choice(self):
        assert is_robust_mis(BULL, {0, 3, 4})
        assert not is_robust_mis(BULL, {0, 2})

    def test_square_all_robust(self):
        assert is_robust_mis(SQUARE, {0, 2})
        assert is_robust_mis(SQUARE, {1, 3})

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            is_robust_mis(Graph(edges=[(0, 1), (2, 3)]), {0, 2})


def greedy_mis(g: Graph, rng: random.Random) -> frozenset[int]:
    order = list(g.vertices)
    rng.shuffle(order)
    chosen: set[int] = set()
    for v in order:
        if chosen.isdisjoint(g.neighbors(v)):
            chosen.add(v)
    return frozenset(chosen)


class TestAgainstSearchReference:
    """`is_robust_mis` against the one-search-per-vertex check in conftest."""

    def test_every_mis_of_the_small_corpus(self, small_corpus):
        robust = 0
        for g in small_corpus:
            for s in enumerate_mis(g):
                expected = reference_is_robust_mis(g, s)
                assert is_robust_mis(g, s) == expected, (g.edges(), sorted(s))
                robust += expected
        assert robust > 0

    def test_random_graphs_with_greedy_and_found_sets(self):
        rng = random.Random(12)
        answers = []
        for i in range(300):
            if i % 3:
                g = gen_random_connected(rng.randint(2, 60), rng.uniform(0.02, 0.3), 500 + i)
            else:
                g = gen_random_sputnik(500 + i, rng.randint(4, 60))
            sets = [greedy_mis(g, rng) for _ in range(5)]
            found = find_rmis(g)
            if found is not None:
                sets.append(found)
            for s in sets:
                expected = reference_is_robust_mis(g, s)
                assert is_robust_mis(g, s) == expected, (g.edges(), sorted(s))
                answers.append(expected)
        assert 0 < sum(answers) < len(answers)

    def test_same_errors_and_non_mis_answers(self):
        apart = Graph(edges=[(0, 1), (2, 3)])
        for check in (is_robust_mis, reference_is_robust_mis):
            with pytest.raises(GraphError, match="connected"):
                check(apart, {0, 2})
            with pytest.raises(GraphError, match="unknown vertex 9"):
                check(BULL, {0, 3, 9})
            assert not check(BULL, {0})  # independent, not maximal
            assert not check(BULL, {0, 3, 4, 1})  # maximal, not independent
            assert not check(SQUARE, set())


class TestBruteforce:
    def test_six_cycle_gadget_solution(self):
        inst = gen_gk(0)
        assert is_robust_mis_bruteforce(inst.graph, inst.m1)

    def test_triangle(self):
        assert not is_robust_mis_bruteforce(TRIANGLE, {0})

    def test_tree_has_no_removable_edges(self):
        assert is_robust_mis_bruteforce(gen_path(3), {0, 2})

    def test_cap_advises_polynomial_checker(self):
        big = gen_cycle(10)
        with pytest.raises(GraphError, match="is_robust_mis"):
            is_robust_mis_bruteforce(big, {0, 2, 4, 6, 8}, max_removable=5)

    def test_cap_fails_fast_on_a_large_graph(self):
        # gk(1600) has 9,606 vertices and 12,806 removable edges; reaching
        # the cap costs a few linear passes, not a search
        inst = gen_gk(1600)
        with pytest.raises(GraphError, match="12806 removable edges exceeds cap 20; use is_robust_mis instead"):
            is_robust_mis_bruteforce(inst.graph, inst.m1)

    def test_does_not_use_the_block_pass(self, monkeypatch):
        # the definitional checker must not trust the decomposition it
        # judges: a wrong bridge there would fool every checker at once
        def refuse(*args, **kwargs):
            raise AssertionError("the brute-force checker called the block pass")

        for module in (graph, oracle):
            monkeypatch.setattr(module, "blocks", refuse)
            monkeypatch.setattr(module, "bridges", refuse, raising=False)
        inst = gen_gk(1)
        assert is_robust_mis_bruteforce(inst.graph, inst.m1)
        assert not is_robust_mis_bruteforce(BULL, {1, 4})

    def test_deep_search_is_not_bounded_by_the_recursion_limit(self):
        # a 20x20 grid plus a vertex joined to the last two grid vertices,
        # with the even checkerboard class as the set: the search removes
        # about 340 edges, one level each, before a removal uncovers a vertex
        grid = [(20 * i + j, 20 * i + j + 1) for i in range(20) for j in range(19)]
        grid += [(20 * i + j, 20 * i + j + 20) for i in range(19) for j in range(20)]
        g = Graph(edges=grid + [(399, 1_000_000), (398, 1_000_000)])
        even = {20 * i + j for i in range(20) for j in range(20) if (i + j) % 2 == 0}
        assert not is_robust_mis(g, even)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(250)
        try:
            assert not is_robust_mis_bruteforce(g, even, max_removable=1000)
        finally:
            sys.setrecursionlimit(limit)


class TestCycleEdges:
    """The brute-force checker's removable edges, against the definition
    (delete the edge, test connectivity) and against networkx."""

    def test_small_shapes(self):
        assert cycle_edges(Graph([5])) == []
        assert cycle_edges(gen_path(4)) == []
        assert cycle_edges(BULL) == [(1, 2), (1, 3), (2, 3)]
        assert cycle_edges(gen_cycle(5)) == list(gen_cycle(5).edges())

    def test_small_corpus_against_delete_and_test(self, small_corpus):
        for g in small_corpus:
            assert cycle_edges(g) == sorted(set(g.edges()) - brute_bridges(g)), g.edges()

    def test_random_sparse_against_networkx(self):
        nx = pytest.importorskip("networkx")
        from networkx import bridges as nx_bridges

        rng = random.Random(52)
        for n, extra in ((30, 3), (200, 20), (2_000, 150), (5_000, 2_500)):
            edges = [(rng.randrange(v), v) for v in range(1, n)]  # a random spanning tree
            while len(edges) < n - 1 + extra:
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.append((u, v))
            g = Graph(range(n), edges)
            ng = nx.Graph(g.edges())
            expect = set(g.edges()) - {(min(e), max(e)) for e in nx_bridges(ng)}
            assert cycle_edges(g) == sorted(expect)


class TestEnumeration:
    def test_triangle_misses(self):
        assert enumerate_mis(TRIANGLE) == [frozenset({0}), frozenset({1}), frozenset({2})]

    def test_square_misses(self):
        assert enumerate_mis(SQUARE) == [frozenset({0, 2}), frozenset({1, 3})]

    def test_bull_misses(self):
        assert enumerate_mis(BULL) == [
            frozenset({0, 2}),
            frozenset({0, 3, 4}),
            frozenset({1, 4}),
        ]

    def test_cap(self):
        with pytest.raises(GraphError):
            enumerate_mis(gen_path(17))

    def test_every_enumerated_set_is_a_mis(self):
        rng = random.Random(5)
        for i in range(40):
            g = gen_random_connected(rng.randint(1, 9), rng.uniform(0.1, 0.8), i)
            sets = enumerate_mis(g)
            assert len(set(sets)) == len(sets)
            for s in sets:
                assert is_mis(g, s)

    def test_enumeration_complete_against_powerset(self):
        rng = random.Random(6)
        for i in range(30):
            n = rng.randint(1, 7)
            g = gen_random_connected(n, rng.uniform(0.2, 0.8), 100 + i)
            by_filter = {
                frozenset(s)
                for mask in range(1 << n)
                if is_mis(g, s := {v for v in range(n) if mask >> v & 1})
            }
            assert set(enumerate_mis(g)) == by_filter

    def test_deep_search_with_a_tiny_answer(self):
        # 1,501 decisions deep, two answers: no recursion limit may interfere
        star = gen_complete_bipartite(1, 1500)
        assert enumerate_mis(star, max_vertices=2000) == [
            frozenset({0}),
            frozenset(range(1, 1501)),
        ]


class TestEnumerateRobust:
    def test_gadget_has_exactly_the_two_complements(self):
        inst = gen_gk(0)
        assert set(enumerate_robust_mis(inst.graph)) == {inst.m1, inst.m2}

    def test_triangle_empty(self):
        assert enumerate_robust_mis(TRIANGLE) == []

    def test_bull_unique(self):
        assert enumerate_robust_mis(BULL) == [frozenset({0, 3, 4})]

    def test_results_pass_both_checkers(self):
        rng = random.Random(9)
        for i in range(40):
            g = gen_random_connected(rng.randint(2, 8), rng.uniform(0.15, 0.6), 200 + i)
            for s in enumerate_robust_mis(g):
                assert is_mis(g, s)
                assert is_robust_mis(g, s)
                assert is_robust_mis_bruteforce(g, s)


class TestOracleAgreement:
    def test_exhaustive_small(self):
        # polynomial criterion vs. definition, every MIS of every graph on <= 5 vertices
        for n in range(1, 6):
            for g in connected_graphs(n):
                for s in enumerate_mis(g):
                    assert is_robust_mis(g, s) == is_robust_mis_bruteforce(g, s)

    def test_random_medium(self):
        rng = random.Random(10)
        for i in range(80):
            g = gen_random_connected(rng.randint(6, 8), rng.uniform(0.15, 0.5), 300 + i)
            for s in enumerate_mis(g):
                assert is_robust_mis(g, s) == is_robust_mis_bruteforce(g, s, max_removable=24)

    def test_trees_every_mis_robust(self):
        rng = random.Random(11)
        for i in range(30):
            g = gen_random_connected(rng.randint(1, 9), 0.0, 400 + i)  # spanning-tree patch
            assert g.num_edges == g.n - 1
            for s in enumerate_mis(g):
                assert is_robust_mis(g, s)

    def test_gadget_solutions_are_complements(self):
        for k in range(4):
            inst = gen_gk(k)
            assert inst.m2 == frozenset(inst.graph.vertices) - inst.m1


class TestSetFormat:
    def test_roundtrip(self):
        assert parse_vertex_set("3,1,5") == frozenset({1, 3, 5})
        assert format_vertex_set({5, 1, 3}) == "1,3,5"
        assert parse_vertex_set("") == frozenset()

    def test_bad_input(self):
        with pytest.raises(GraphError):
            parse_vertex_set("1,x")
