"""Differential check of the shared block decomposition against networkx, at
sizes (about 10^4 vertices) that the brute-force oracles in conftest.py
cannot reach.
"""

import random

import pytest

nx = pytest.importorskip("networkx")

from rmis.generators import gen_complete_bipartite, gen_gk, gen_random_sputnik  # noqa: E402
from rmis.graph import Graph, GraphError, blocks  # noqa: E402


def sparse_connected(n: int, extra: int, seed: int) -> Graph:
    """A random spanning tree plus `extra` random chords."""
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    while extra:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
            extra -= 1
    return Graph(range(n), edges)


def windmill(k: int) -> Graph:
    """`k` triangles sharing their largest vertex, so the pass starts at a blade."""
    hub = 2 * k
    return Graph(edges=[e for i in range(k) for e in ((2 * i, 2 * i + 1), (2 * i, hub), (2 * i + 1, hub))])


def assert_matches_networkx(g: Graph) -> None:
    ng = nx.Graph(g.edges())
    ng.add_nodes_from(g.vertices)
    got = blocks(g)
    assert got.articulation_points == set(nx.articulation_points(ng))
    assert got.bridges == {(min(e), max(e)) for e in nx.bridges(ng)}
    want = sorted((frozenset(c) for c in nx.biconnected_components(ng)), key=lambda c: tuple(sorted(c)))
    assert got.components == want


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sparse_random(seed):
    # from mostly tree-like (many bridges) to well past one chord per vertex
    assert_matches_networkx(sparse_connected(10_000, [500, 3_000, 12_000][seed - 1], seed))


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
