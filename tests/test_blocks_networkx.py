"""Differential check of the shared block decomposition against networkx, at
sizes (about 10^4 vertices, and 10^5 for the deepest searches) that the
brute-force oracles in conftest.py cannot reach.
"""

import sys
from collections import Counter

import pytest

nx = pytest.importorskip("networkx")
from networkx import bridges as nx_bridges  # noqa: E402

from rmis.generators import (  # noqa: E402
    gen_complete_bipartite,
    gen_gk,
    gen_path,
    gen_random_sputnik,
    gen_sparse_connected,
)
from rmis import oracle  # noqa: E402
from rmis.graph import Graph, GraphError, blocks, bridges  # noqa: E402
from rmis.oracle import enumerate_mis, is_robust_mis, is_robust_mis_bruteforce  # noqa: E402


def windmill(k: int) -> Graph:
    """`k` triangles sharing their largest vertex, so the pass starts at a blade."""
    hub = 2 * k
    return Graph(edges=[e for i in range(k) for e in ((2 * i, 2 * i + 1), (2 * i, hub), (2 * i + 1, hub))])


def triangle_ring(k: int) -> Graph:
    """`k` triangles in a ring, each sharing a vertex with the next: one
    block of 2k vertices whose search path is about 2k deep.
    """
    n = 2 * k
    return Graph(range(n), [e for i in range(0, n, 2) for e in ((i, i + 1), (i + 1, (i + 2) % n), (i, (i + 2) % n))])


def assert_matches_networkx(g: Graph) -> None:
    ng = nx.Graph(g.edges())
    ng.add_nodes_from(g.vertices)
    got = blocks(g)
    assert got.articulation_points == set(nx.articulation_points(ng))
    # the bridges are the size-2 components, and the `bridges` view says so
    expect_bridges = {(min(e), max(e)) for e in nx_bridges(ng)}
    assert {c for c in got.components if len(c) == 2} == expect_bridges
    assert bridges(g) == expect_bridges
    assert sorted(got.components) == sorted(tuple(sorted(c)) for c in nx.biconnected_components(ng))
    # numbers run 0..n-1 from the root; each vertex but the root lies in the
    # block of its tree edge, and an edge in the block of its endpoint
    # numbered later
    number, block_of = got.number, got.block_of
    assert sorted(number.values()) == list(range(g.n)) and number[g.vertices[0]] == 0
    assert len(block_of) == g.n and block_of[0] == -1
    members = [frozenset(c) for c in got.components]
    assert all(v in members[block_of[number[v]]] for v in g.vertices[1:])
    # each block's top is its member the search reached first
    assert got.top == [min(c, key=number.__getitem__) for c in got.components]
    index = {c: i for i, c in enumerate(got.components)}
    for comp_edges in nx.biconnected_component_edges(ng):
        comp = index[tuple(sorted({x for e in comp_edges for x in e}))]
        for u, w in comp_edges:
            assert block_of[max(number[u], number[w])] == comp


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sparse_random(seed):
    # from mostly tree-like (many bridges) to well past one chord per vertex
    assert_matches_networkx(gen_sparse_connected(10_000, [500, 3_000, 12_000][seed - 1], seed))


def test_gadget_ladder():
    assert_matches_networkx(gen_gk(1600).graph)


def test_sputnik():
    assert_matches_networkx(gen_random_sputnik(2, 1500))


DENSE_SHAPES = {
    "K100,100": lambda: gen_complete_bipartite(100, 100),
    "windmill2000": lambda: windmill(2_000),
    "star5000": lambda: gen_complete_bipartite(1, 5_000),
    "K60": lambda: Graph(edges=[(u, v) for u in range(60) for v in range(u + 1, 60)]),
}


@pytest.mark.parametrize("shape", DENSE_SHAPES)
def test_dense_shapes(shape):
    # the most back edges per vertex (K_{m,n}, K_n) and the most blocks at
    # one vertex (the windmill's hub, the star's centre where the pass starts)
    assert_matches_networkx(DENSE_SHAPES[shape]())


def test_disconnected_raises():
    g = Graph(range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)])
    with pytest.raises(GraphError, match="blocks requires a connected graph"):
        blocks(g)
    with pytest.raises(GraphError, match="find_rmis requires a connected graph"):
        blocks(g, "find_rmis")


@pytest.mark.parametrize("shape", ["path", "triangle-ring"])
def test_searches_deeper_than_the_recursion_limit(shape):
    # the search path grows to about 10^5 vertices, far past the
    # interpreter's default recursion limit of 1,000
    g = gen_path(100_000) if shape == "path" else triangle_ring(50_000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        got = blocks(g)
    finally:
        sys.setrecursionlimit(limit)
    assert_matches_networkx(g)
    assert len(got.components) == (99_999 if shape == "path" else 1)


def test_robust_check_block_branch_matches_definition(small_corpus, monkeypatch):
    # is_robust_mis settles its first suspect with one search and every later
    # one through the block ids; wherever it reaches the block pass on an MIS
    # of a graph of at most 6 vertices, it agrees with the definition
    calls = []

    def counted(g, op="blocks"):
        calls.append(op)
        return blocks(g, op)

    monkeypatch.setattr(oracle, "blocks", counted)
    seen = Counter()
    for g in small_corpus:
        for s in enumerate_mis(g):
            before = len(calls)
            got = is_robust_mis(g, s)
            if len(calls) > before:
                assert got == is_robust_mis_bruteforce(g, s), (g.edges(), sorted(s))
                seen[got] += 1
    assert calls == ["is_robust_mis"] * len(calls)
    assert seen[True] > 1_000 and seen[False] > 1_000, seen
