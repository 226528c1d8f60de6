"""Tests for the benchmark's own answer checker.

Run from the repository root: `PYTHONPATH=src python3 -m pytest bench -q`.
The reference here is definitional: a set is a robust MIS iff it is an MIS
of every connected spanning subgraph, found by enumerating edge subsets.
"""

from __future__ import annotations

import random
import sys
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest

import checker

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def all_mis(g: nx.Graph) -> list[frozenset[int]]:
    nodes = sorted(g)
    found = []
    for r in range(1, len(nodes) + 1):
        for s in combinations(nodes, r):
            if checker.is_mis(g, s):
                found.append(frozenset(s))
    return found


def robust_by_definition(g: nx.Graph, sets: list[frozenset[int]]) -> dict[frozenset[int], bool]:
    """Check every candidate against every connected spanning subgraph.

    Vertices are bit positions; each subgraph is a list of neighbour masks.
    """
    index = {v: i for i, v in enumerate(sorted(g))}
    n = len(index)
    edges = [(index[u], index[v]) for u, v in g.edges()]
    full = (1 << n) - 1
    masks = {s: sum(1 << index[v] for v in s) for s in sets}
    robust = {s: True for s in sets}
    for keep in range(1 << len(edges)):
        nbr = [0] * n
        for j, (a, b) in enumerate(edges):
            if keep >> j & 1:
                nbr[a] |= 1 << b
                nbr[b] |= 1 << a
        reach, frontier = 1, 1
        while frontier:
            grown = reach
            for i in range(n):
                if frontier >> i & 1:
                    grown |= nbr[i]
            frontier, reach = grown & ~reach, grown
        if reach != full:
            continue
        for s, m in masks.items():
            if robust[s] and any(
                not (m >> i & 1) and not (nbr[i] & m) for i in range(n)
            ):
                robust[s] = False
    return robust


def connected_graphs_up_to(n: int) -> list[nx.Graph]:
    return [
        g
        for g in nx.graph_atlas_g()
        if 1 <= g.number_of_nodes() <= n and nx.is_connected(g)
    ]


def test_block_criterion_matches_definition_on_all_small_graphs():
    graphs = connected_graphs_up_to(6)
    assert len(graphs) == 143  # 1 + 1 + 2 + 6 + 21 + 112 isomorphism classes
    checked = 0
    for g in graphs:
        sets = all_mis(g)
        truth = robust_by_definition(g, sets)
        for s in sets:
            assert checker.is_robust_mis(g, s) == truth[s], (sorted(g.edges()), sorted(s))
            checked += 1
    assert checked > 500


def test_agrees_with_library_oracle_on_random_seven_vertex_graphs():
    from rmis import Graph
    from rmis.oracle import is_robust_mis

    rng = random.Random(7)
    graphs = 0
    while graphs < 300:
        g = nx.gnp_random_graph(7, rng.uniform(0.25, 0.7), seed=rng.randrange(2**31))
        if not nx.is_connected(g):
            continue
        graphs += 1
        rg = Graph(g.nodes, g.edges)
        for s in all_mis(g):
            assert checker.is_robust_mis(g, s) == is_robust_mis(rg, s)


def test_non_mis_is_never_robust():
    g = nx.path_graph(4)
    assert not checker.is_robust_mis(g, {0})  # not dominating
    assert not checker.is_robust_mis(g, {0, 1, 3})  # not independent
    assert checker.is_robust_mis(g, {0, 2})


def test_disconnected_graph_rejected():
    g = nx.Graph([(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        checker.is_robust_mis(g, {0, 2})


@pytest.mark.parametrize(
    "edges, expected",
    [
        ([(0, 2), (0, 3), (1, 2), (1, 3)], (True, False, [[0, 1], [2, 3]])),
        ([(0, 1), (0, 2), (0, 3)], (True, True, [[0], [1, 2, 3]])),
        ([(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)], (False, True, None)),
        ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], (False, False, None)),
    ],
)
def test_classify(edges, expected):
    complete, sputnik, sides = expected
    payload = checker.classify(nx.Graph(edges))
    assert payload["complete_bipartite"] == complete
    assert payload["sputnik"] == sputnik
    assert payload["rmis_forall"] == (complete or sputnik)
    assert payload.get("bipartition") == sides


def test_read_edge_list(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# comment\n0 1\n1 2\n\n7\n")
    g = checker.read_edge_list(str(path))
    assert sorted(g.edges()) == [(0, 1), (1, 2)]
    assert sorted(g) == [0, 1, 2, 7]


def test_checker_does_not_import_the_library_oracle():
    source = Path(checker.__file__).read_text()
    assert "rmis" not in "\n".join(
        line for line in source.splitlines() if line.startswith(("import", "from"))
    )
