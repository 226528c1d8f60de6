"""Differential check of the breadth-first searches, `reach` and `ball`,
against networkx on seeded connected and disconnected graphs.
"""

import random

import pytest

nx = pytest.importorskip("networkx")

from rmis.generators import gen_gk, gen_random_connected  # noqa: E402
from rmis.graph import Graph, ball, connected_components, is_connected, reach  # noqa: E402


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    """A seeded G(n, p) graph, disconnected more often than not at small p."""
    return Graph(range(n), [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def corpus():
    rng = random.Random(31)
    out = [gen_gk(2).graph, Graph([4]), Graph(edges=[(0, 1), (2, 3), (3, 5)])]
    for i in range(20):
        out.append(gen_random_connected(rng.randint(2, 14), rng.choice([0.1, 0.3, 0.6]), i))
        out.append(random_graph(rng, rng.randint(2, 14), rng.choice([0.05, 0.15, 0.3])))
    assert any(is_connected(g) for g in out) and not all(is_connected(g) for g in out)
    return out


def to_nx(g: Graph):
    ng = nx.Graph()
    ng.add_nodes_from(g.vertices)
    ng.add_edges_from(g.edges())
    return ng


GRAPHS = corpus()


@pytest.mark.parametrize("g", GRAPHS, ids=[f"{i}-n{g.n}-m{g.num_edges}" for i, g in enumerate(GRAPHS)])
class TestAgainstNetworkx:
    def test_reach_from_every_vertex(self, g):
        ng = to_nx(g)
        for v in g.vertices:
            assert reach(g, v) == nx.node_connected_component(ng, v)
        assert connected_components(g) == sorted(map(frozenset, nx.connected_components(ng)), key=min)
        assert is_connected(g) == nx.is_connected(ng)

    def test_reach_through_some_exits(self, g):
        # the search from `start` through `exits` is the component of
        # `start` once its edges to its other neighbours are gone
        rng = random.Random(g.n)
        ng = to_nx(g)
        for start in g.vertices:
            ns = sorted(g.neighbors(start))
            for exits in ([], ns, rng.sample(ns, len(ns) // 2), rng.sample(ns, (len(ns) + 1) // 2)):
                cut = ng.copy()
                cut.remove_edges_from((start, w) for w in ns if w not in exits)
                assert reach(g, start, exits) == nx.node_connected_component(cut, start)

    def test_ball_is_the_ego_graph_and_its_boundary(self, g):
        ng = to_nx(g)
        for v in g.vertices:
            dist = nx.single_source_shortest_path_length(ng, v)
            for radius in (0, 1, 2, 3, 4, max(dist.values()) + 1):
                sub, boundary = ball(g, v, radius)
                ego = nx.ego_graph(ng, v, radius)
                assert set(sub.vertices) == set(ego.nodes)
                assert set(sub.edges()) == {tuple(sorted(e)) for e in ego.edges}
                assert boundary == {w for w in ego if dist[w] == radius and any(x not in ego for x in ng[w])}
