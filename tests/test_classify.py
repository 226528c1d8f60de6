import random
from collections import Counter

import pytest

from rmis import classify, graph
from rmis.classify import complete_bipartite_sides, in_rmis_forall, is_complete_bipartite, is_sputnik
from rmis.graph import Graph, GraphError
from rmis.generators import (
    gen_bull,
    gen_complete_bipartite,
    gen_cycle,
    gen_gk,
    gen_random_connected,
    gen_random_sputnik,
    gen_sparse_sputnik,
)
from rmis.oracle import enumerate_mis, is_robust_mis

from conftest import connected_graphs, traced


def reference_sides(adj):
    """Definition: a proper 2-colouring whose sides are both non-empty and
    fully joined, |E| = |V1| * |V2|; V1 holds the smallest vertex.
    """
    colour = {}
    for start in sorted(adj):
        if start in colour:
            continue
        colour[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in colour:
                    colour[w] = 1 - colour[v]
                    stack.append(w)
                elif colour[w] == colour[v]:
                    return None
    v1 = {v for v, c in colour.items() if c == 0}
    v2 = {v for v, c in colour.items() if c == 1}
    num_edges = sum(len(ns) for ns in adj.values()) // 2
    if v1 and v2 and num_edges == len(v1) * len(v2):
        return v1, v2
    return None


def k_map(m, n):
    """Adjacency map of K_{m,n} with sides range(m) and range(m, m + n)."""
    left, right = set(range(m)), set(range(m, m + n))
    return {v: set(right if v in left else left) for v in left | right}


def k_map_less_one_edge(m, n):
    """K_{m,n} without the edge between the last vertex of each side."""
    adj = k_map(m, n)
    adj[m - 1].discard(m + n - 1)
    adj[m + n - 1].discard(m - 1)
    return adj


def k_map_plus_inside_edge(m, n):
    """K_{m,n}, n >= 2, with an edge between two vertices of the second side."""
    adj = k_map(m, n)
    adj[m].add(m + 1)
    adj[m + 1].add(m)
    return adj


class TestCompleteBipartiteSides:
    def test_matches_definition_on_small_corpus(self, small_corpus):
        positives = 0
        for g in small_corpus:
            adj = {v: g.neighbors(v) for v in g}
            got = complete_bipartite_sides(adj)
            assert got == reference_sides(adj), g.edges()
            positives += got is not None
        assert positives > 0

    def test_complete_bipartite_shapes(self):
        for m in range(1, 7):
            for n in range(1, 7):
                adj = k_map(m, n)
                assert complete_bipartite_sides(adj) == reference_sides(adj) == (
                    set(range(m)),
                    set(range(m, m + n)),
                )

    def test_one_edge_missing(self):
        for m in range(1, 7):
            for n in range(1, 7):
                adj = k_map_less_one_edge(m, n)
                assert complete_bipartite_sides(adj) is None
                assert reference_sides(adj) is None

    def test_one_edge_inside_a_side(self):
        for m in range(1, 7):
            for n in range(2, 7):
                adj = k_map_plus_inside_edge(m, n)
                assert complete_bipartite_sides(adj) is None
                assert reference_sides(adj) is None

    def test_two_disjoint_edges(self):
        adj = {0: {1}, 1: {0}, 2: {3}, 3: {2}}
        assert complete_bipartite_sides(adj) is None
        assert reference_sides(adj) is None


def closed_sides_reference(adj):
    """The flooding decision's earlier two-step rule: the map must be closed
    (every neighbor a key), then V2 is the smallest vertex's neighborhood
    and V1 every other vertex, each fully joined to the other.
    """
    if not frozenset().union(*adj.values()) <= adj.keys():
        return None
    v2 = set(adj[min(adj)])
    v1 = adj.keys() - v2
    if v2 and all(adj[v] == v2 for v in v1) and all(adj[v] == v1 for v in v2):
        return v1, v2
    return None


def radius_two_views(g):
    """Each vertex's view after the flooding: full neighborhoods of every
    vertex within two hops, naming vertices up to three hops away.
    """
    for v in g.vertices:
        near = {v}.union(g.neighbors(v), *map(g.neighbors, g.neighbors(v)))
        yield {u: g.neighbors(u) for u in near}


def open_maps():
    closed = k_map(2, 2)
    return [
        {0: {1, 5}, 1: {0}},
        {0: {5}},
        {0: {1}, 1: {0, 7}},
        {0: set(), 1: {2}},
        {**closed, 4: {0, 9}},
        {**closed, 3: {0, 1, 8}},
    ]


def view_graphs(small_corpus):
    """The graphs whose radius-two views the closure tests run on."""
    graphs = list(small_corpus)
    graphs += [gen_complete_bipartite(a, b) for a in range(1, 8) for b in range(1, 8)]
    rng = random.Random(13)
    graphs += [gen_random_sputnik(900 + i, rng.randint(3, 40)) for i in range(30)]
    return graphs


class TestOpenMaps:
    """`complete_bipartite_sides` doubles as the closure test of the LOCAL
    program, so maps naming vertices that are not keys must give None.
    """

    def test_open_maps_give_none(self):
        assert complete_bipartite_sides(k_map(2, 2)) is not None
        for adj in open_maps():
            assert complete_bipartite_sides(adj) is None, adj
            assert closed_sides_reference(adj) is None, adj

    def test_radius_two_views_match_the_closed_rule(self, small_corpus):
        answers = Counter()
        for g in view_graphs(small_corpus):
            for view in radius_two_views(g):
                got = complete_bipartite_sides(view)
                assert got == closed_sides_reference(view), (g.edges(), view)
                answers[got is not None] += 1
        assert answers[True] > 0 and answers[False] > 0


def shared(adj):
    """`adj` with each group of equal neighborhoods as one frozenset object,
    as the LOCAL program's gathered maps hold them.
    """
    table = {}
    out = {}
    for v, ns in adj.items():
        ns = frozenset(ns)
        out[v] = table.setdefault(ns, ns)
    return out


def copied(adj):
    """`adj` with every neighborhood a distinct set object."""
    return {v: set(ns) for v, ns in adj.items()}


class CountingNbhd(frozenset):
    """A neighborhood that counts the `==` calls made on it."""

    calls = 0

    def __eq__(self, other):
        CountingNbhd.calls += 1
        return frozenset.__eq__(self, other)

    __hash__ = frozenset.__hash__


class TestSharedNeighborhoods:
    """`complete_bipartite_sides` compares by identity before content; the
    answer must not depend on whether equal neighborhoods are shared.
    """

    def maps(self, small_corpus):
        for g in small_corpus:
            yield {v: g.neighbors(v) for v in g}
        for m in range(1, 7):
            for n in range(1, 7):
                yield k_map(m, n)
                yield k_map_less_one_edge(m, n)
                if n >= 2:
                    yield k_map_plus_inside_edge(m, n)
        yield {0: {1}, 1: {0}, 2: {3}, 3: {2}}
        yield from open_maps()
        for g in view_graphs(small_corpus):
            yield from radius_two_views(g)

    def test_shared_and_copied_maps_agree(self, small_corpus):
        answers = Counter()
        for adj in self.maps(small_corpus):
            got = complete_bipartite_sides(shared(adj))
            assert got == complete_bipartite_sides(copied(adj)) == complete_bipartite_sides(adj), adj
            answers[got is not None] += 1
        assert answers[True] > 0 and answers[False] > 0

    def test_shared_maps_compare_by_identity(self):
        # on a shared K_{m,n} map no neighborhood is compared by content
        # with another; copies are, once per vertex but the one per side
        # that the others are compared with
        for m, n in ((1, 1), (3, 4), (40, 25)):
            left, right = CountingNbhd(range(m, m + n)), CountingNbhd(range(m))
            one = {v: left if v < m else right for v in range(m + n)}
            copies = {v: CountingNbhd(one[v]) for v in one}
            CountingNbhd.calls = 0
            assert complete_bipartite_sides(one) == (set(range(m)), set(range(m, m + n)))
            assert CountingNbhd.calls == 0
            assert complete_bipartite_sides(copies) == complete_bipartite_sides(one)
            assert CountingNbhd.calls == m + n - 2


class TestCompleteBipartite:
    def test_square(self):
        assert is_complete_bipartite(gen_cycle(4)) == ({0, 2}, {1, 3})

    def test_single_edge(self):
        assert is_complete_bipartite(Graph(edges=[(0, 1)])) == ({0}, {1})

    def test_bull(self):
        assert is_complete_bipartite(gen_bull()) is None

    def test_six_cycle_bipartite_but_incomplete(self):
        assert is_complete_bipartite(gen_cycle(6)) is None

    def test_single_vertex_excluded(self):
        assert is_complete_bipartite(Graph([0])) is None

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            is_complete_bipartite(Graph(edges=[(0, 1), (2, 3)]))


class TestSputnik:
    def test_any_tree(self):
        rng = random.Random(0)
        for i in range(20):
            tree = gen_random_connected(rng.randint(1, 10), 0.0, i)
            assert is_sputnik(tree)

    def test_bull_is_not(self):
        # vertex 3 sits on the triangle and has no pendant neighbor
        assert not is_sputnik(gen_bull())

    def test_triangle_with_pendant_per_corner(self):
        g = Graph(edges=[(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)])
        assert is_sputnik(g)

    def test_single_vertex(self):
        assert is_sputnik(Graph([0]))


class TestRmisForall:
    def test_square(self):
        assert in_rmis_forall(gen_cycle(4)).rmis_forall

    def test_triangle(self):
        assert not in_rmis_forall(gen_cycle(3)).rmis_forall

    def test_bull(self):
        assert not in_rmis_forall(gen_bull()).rmis_forall

    def test_verdict_is_the_disjunction(self):
        rng = random.Random(1)
        for i in range(60):
            g = gen_random_connected(rng.randint(1, 8), rng.uniform(0.1, 0.7), i)
            v = in_rmis_forall(g)
            assert v.rmis_forall == (v.complete_bipartite or v.sputnik)
            assert (v.bipartition is not None) == v.complete_bipartite

    def test_exhaustive_small_matches_per_mis_check(self):
        # membership holds exactly when every MIS passes the robustness check
        for n in range(1, 6):
            for g in connected_graphs(n):
                expected = all(is_robust_mis(g, s) for s in enumerate_mis(g))
                assert in_rmis_forall(g).rmis_forall == expected

    def test_generated_families(self):
        rng = random.Random(2)
        for i in range(15):
            cb = gen_complete_bipartite(rng.randint(1, 6), rng.randint(1, 6))
            assert in_rmis_forall(cb).rmis_forall
            sp = gen_random_sputnik(i, rng.randint(1, 40))
            assert is_sputnik(sp)
            assert in_rmis_forall(sp).rmis_forall
        for k in range(4):
            assert not in_rmis_forall(gen_gk(k).graph).rmis_forall


class TestOnePass:
    def test_one_block_pass_and_no_search(self, monkeypatch):
        # the block pass is the connectivity check too: no BFS runs
        calls = []
        real = classify.blocks

        def counted(g, op="blocks"):
            calls.append(op)
            return real(g, op)

        def refuse(*args, **kwargs):
            raise AssertionError("in_rmis_forall ran a connectivity search")

        shapes = [Graph([0]), gen_bull(), gen_cycle(4), gen_complete_bipartite(3, 4), gen_gk(3).graph, gen_random_sputnik(2, 60)]
        monkeypatch.setattr(classify, "blocks", counted)
        monkeypatch.setattr(graph, "reach", refuse)
        for g in shapes:
            calls.clear()
            in_rmis_forall(g)
            assert calls == ["is_complete_bipartite"], g
        with pytest.raises(GraphError, match="^is_complete_bipartite requires a connected graph$"):
            in_rmis_forall(Graph(edges=[(0, 1), (2, 3)]))

    def test_peak_bytes_per_vertex(self):
        # 251 B per vertex on gk(1600) with a separate search, the block
        # pass's dicts and frozensets, and a union set of the cycle vertices
        g = gen_gk(1600).graph
        verdict, _, peak = traced(lambda: in_rmis_forall(g))
        assert not verdict.rmis_forall
        per_vertex = peak / g.n
        assert per_vertex <= 160, f"{per_vertex:.0f} B per vertex"

    def test_peak_bytes_per_vertex_on_a_sparse_sputnik(self):
        # a graph that is mostly bridges, so most blocks close out of sorted
        # order: 234 B per vertex while the block pass sorted and renumbered
        # its blocks for every caller, 202 with the blocks as the pass
        # closes them
        g = gen_sparse_sputnik(20_000, 2_000, 1)
        verdict, _, peak = traced(lambda: in_rmis_forall(g))
        assert verdict.sputnik
        per_vertex = peak / g.n
        assert per_vertex <= 215, f"{per_vertex:.0f} B per vertex"
