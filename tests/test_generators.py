import random

import pytest

from rmis.classify import cycle_vertices, is_complete_bipartite, is_sputnik
from rmis.graph import GraphError, is_connected, pendant_vertices
from rmis.generators import (
    gen_bull,
    gen_complete_bipartite,
    gen_cycle,
    gen_gk,
    gen_lollipop,
    gen_path,
    gen_random_connected,
    gen_random_sputnik,
    gen_sparse_connected,
    gen_sparse_sputnik,
    gen_square,
    gen_triangle,
)
from rmis.oracle import is_robust_mis

from conftest import reference_gen_gk


class TestGadgetFamily:
    def test_level_zero_is_the_six_cycle(self):
        inst = gen_gk(0)
        g = inst.graph
        assert g.n == 6 and g.num_edges == 6
        assert all(g.degree(v) == 2 for v in g.vertices)
        nm = inst.names
        ring = ["a0", "b0", "c0", "gamma0", "beta0", "alpha0"]
        for i, name in enumerate(ring):
            assert g.has_edge(nm[name], nm[ring[(i + 1) % 6]])

    def test_size_recurrence(self):
        # each level beyond the first adds six vertices and eight edges
        for k in range(6):
            g = gen_gk(k).graph
            assert g.n == 6 * (k + 1)
            assert g.num_edges == 6 + 8 * k

    def test_level_one_counts(self):
        g = gen_gk(1).graph
        assert (g.n, g.num_edges) == (12, 14)

    def test_recurrence_edges_by_name(self):
        inst = gen_gk(3)
        g, nm = inst.graph, inst.names
        for i in range(1, 4):
            for a, b in (
                (f"beta{i - 1}", f"alpha{i}"),
                (f"beta{i - 1}", f"gamma{i}"),
                (f"alpha{i}", f"beta{i}"),
                (f"gamma{i}", f"beta{i}"),
                (f"b{i - 1}", f"a{i}"),
                (f"b{i - 1}", f"c{i}"),
                (f"a{i}", f"b{i}"),
                (f"c{i}", f"b{i}"),
            ):
                assert g.has_edge(nm[a], nm[b])

    def test_solutions_are_complements(self):
        for k in (0, 1, 2, 5, 9):
            inst = gen_gk(k)
            assert inst.m1 == {
                inst.names[f"{stem}{i}"]
                for i in range(k + 1)
                for stem in ("alpha", "gamma", "b")
            }
            assert inst.m2 == frozenset(inst.graph.vertices) - inst.m1

    def test_stored_solutions_robust_up_to_fifty(self):
        for k in range(51):
            inst = gen_gk(k)
            assert is_robust_mis(inst.graph, inst.m1)
            assert is_robust_mis(inst.graph, inst.m2)

    def test_negative_k_rejected(self):
        with pytest.raises(GraphError):
            gen_gk(-1)

    def test_matches_reference_builder(self):
        for k in [*range(41), 1600]:
            got, want = gen_gk(k), reference_gen_gk(k)
            assert got == want
            assert list(got.names.items()) == list(want.names.items())


class TestNamedGraphs:
    def test_square_is_complete_bipartite_two_two(self):
        assert is_complete_bipartite(gen_square()) == ({0, 2}, {1, 3})
        k22 = gen_complete_bipartite(2, 2)
        assert (k22.n, k22.num_edges) == (gen_square().n, gen_square().num_edges)
        assert sorted(k22.degree(v) for v in k22.vertices) == [2, 2, 2, 2]

    def test_bull_shape(self):
        bull = gen_bull()
        assert (bull.n, bull.num_edges) == (5, 5)
        assert sorted(bull.degree(v) for v in bull.vertices) == [1, 1, 2, 3, 3]

    def test_triangle(self):
        assert gen_triangle().edges() == ((0, 1), (0, 2), (1, 2))

    def test_lollipop(self):
        g = gen_lollipop(5, 4)
        assert g.n == 9
        assert pendant_vertices(g) == {0}
        assert is_connected(g)

    def test_size_guards(self):
        with pytest.raises(GraphError):
            gen_cycle(2)
        with pytest.raises(GraphError):
            gen_path(0)
        with pytest.raises(GraphError):
            gen_lollipop(1, 2)
        with pytest.raises(GraphError):
            gen_complete_bipartite(0, 3)


class TestRandomFamilies:
    def test_connected_always(self):
        rng = random.Random(0)
        for i in range(50):
            g = gen_random_connected(rng.randint(1, 25), rng.uniform(0.0, 0.4), i)
            assert is_connected(g)

    def test_single_vertex_and_complete(self):
        assert gen_random_connected(1, 0.5, 3).n == 1
        g = gen_random_connected(6, 1.0, 3)
        assert g.num_edges == 15

    def test_reproducible(self):
        assert gen_random_connected(12, 0.3, 9) == gen_random_connected(12, 0.3, 9)
        assert gen_random_sputnik(9, 17) == gen_random_sputnik(9, 17)

    def test_sparse_connected_shape(self):
        rng = random.Random(3)
        for i in range(40):
            n, extra = rng.randint(2, 60), rng.randint(0, 30)
            g = gen_sparse_connected(n, extra, i)
            assert g.vertices == tuple(range(n)) and is_connected(g)
            assert n - 1 <= g.num_edges <= n - 1 + extra
        assert gen_sparse_connected(1, 0, 5).n == 1
        assert gen_sparse_connected(40, 25, 9) == gen_sparse_connected(40, 25, 9)

    def test_sparse_connected_draws_tree_then_chords(self):
        # vertex v > 0 joins a random earlier vertex, then each chord joins
        # two distinct random vertices, in that order of draws
        rng = random.Random(7)
        edges = {tuple(sorted((rng.randrange(v), v))) for v in range(1, 30)}
        chords = 0
        while chords < 12:
            u, v = rng.randrange(30), rng.randrange(30)
            if u != v:
                edges.add((min(u, v), max(u, v)))
                chords += 1
        assert set(gen_sparse_connected(30, 12, 7).edges()) == edges

    def test_sparse_connected_guards(self):
        for n, extra in ((0, 0), (3, -1), (1, 1)):
            with pytest.raises(GraphError):
                gen_sparse_connected(n, extra, 0)

    def test_sputnik_by_construction(self):
        rng = random.Random(1)
        for i in range(40):
            size = rng.randint(1, 40)
            g = gen_random_sputnik(i, size)
            assert is_sputnik(g)
            assert size <= g.n <= 2 * size
        with pytest.raises(GraphError, match="^need at least one vertex$"):
            gen_random_sputnik(1, 0)

    def test_sparse_sputnik_shape(self):
        # the sparse connected graph on ids 0..n-1, plus one fresh pendant,
        # numbered from n, on each cycle vertex that had no degree-1 neighbor
        rng = random.Random(4)
        hung = 0
        for i in range(40):
            n, extra = rng.randint(2, 80), rng.randint(0, 40)
            base = gen_sparse_connected(n, extra, i)
            g = gen_sparse_sputnik(n, extra, i)
            assert is_sputnik(g) and is_connected(g)
            assert n <= g.n <= 2 * n and g.vertices == tuple(range(g.n))
            new = set(range(n, g.n))
            assert {e for e in g.edges() if new.isdisjoint(e)} == set(base.edges())
            hosts = [u for v in sorted(new) for u in g.neighbors(v)]
            assert all(g.degree(v) == 1 for v in new)
            assert hosts == sorted(set(hosts))
            cycle, pend = cycle_vertices(base), pendant_vertices(base)
            assert set(hosts) == {v for v in cycle if not base.neighbors(v) & pend}
            hung += len(new)
        assert hung > 0
        assert gen_sparse_sputnik(1, 0, 5).n == 1
        assert gen_sparse_sputnik(300, 90, 9) == gen_sparse_sputnik(300, 90, 9)
        assert gen_sparse_sputnik(300, 90, 9) != gen_sparse_sputnik(300, 90, 10)
        for n, extra in ((0, 0), (3, -1), (1, 1)):
            with pytest.raises(GraphError):
                gen_sparse_sputnik(n, extra, 0)
