"""Shared brute-force oracles and graph corpora.

The oracles here deliberately avoid the library's own algorithms: they work
straight from definitions (delete and re-test, enumerate cycles, enumerate
assignments) so that agreement is meaningful.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from rmis.abctree import KIND_A, KIND_B, KIND_P, AbcNode, RootedAbcTree
from rmis.graph import (
    Edge,
    Graph,
    GraphError,
    bfs_distances,
    induced_subgraph,
    is_connected,
    remove_edges,
)
from rmis.twosat import TwoSatFormula


def evaluate(f: TwoSatFormula, assignment: list[bool]) -> bool:
    """Whether `assignment` (one bool per variable) satisfies every clause."""
    assert len(assignment) == f.num_vars, "assignment length mismatch"
    return all(assignment[a] == pa or assignment[b] == pb for (a, pa), (b, pb) in f.clauses)


def diameter(g: Graph) -> int:
    """Longest shortest-path length over all vertex pairs."""
    if not is_connected(g):
        raise GraphError("diameter requires a connected graph")
    best = 0
    for v in g.vertices:
        best = max(best, max(bfs_distances(g, v).values()))
    return best


def brute_articulation_points(g: Graph) -> set[int]:
    """Definition check: v is an articulation point iff g minus v is disconnected."""
    out = set()
    for v in g.vertices:
        if g.n == 1:
            break
        rest = induced_subgraph(g, set(g.vertices) - {v})
        if not is_connected(rest):
            out.add(v)
    return out


def brute_bridges(g: Graph) -> set[tuple[int, int]]:
    """Definition check: an edge is a bridge iff removing it disconnects g."""
    return {e for e in g.edges() if not is_connected(remove_edges(g, [e]))}


def simple_cycles(g: Graph) -> list[list[int]]:
    """All simple cycles, each reported once (smallest vertex first, second
    vertex smaller than the last to kill direction duplicates).
    """
    cycles = []
    for start in g.vertices:
        stack = [(start, [start])]
        while stack:
            v, path = stack.pop()
            for w in sorted(g.neighbors(v)):
                if w == start and len(path) >= 3 and path[1] < path[-1]:
                    cycles.append(path[:])
                elif w not in path and w > start:
                    stack.append((w, path + [w]))
    return cycles


def brute_biconnected_components(g: Graph) -> list[frozenset[int]]:
    """Pairwise 2-connectivity closure: edges sharing a simple cycle merge
    into one class; the classes' vertex sets are the components.
    """
    edges = list(g.edges())
    idx = {e: i for i, e in enumerate(edges)}
    parent = list(range(len(edges)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    for cyc in simple_cycles(g):
        ring = [
            tuple(sorted((cyc[i], cyc[(i + 1) % len(cyc)]))) for i in range(len(cyc))
        ]
        for e in ring[1:]:
            union(idx[ring[0]], idx[e])
    classes: dict[int, set[int]] = {}
    for e, i in idx.items():
        classes.setdefault(find(i), set()).update(e)
    return sorted((frozenset(c) for c in classes.values()), key=lambda c: tuple(sorted(c)))


def _node_contribution(g: Graph, x: AbcNode) -> tuple[set[int], list[Edge]]:
    if x.kind in (KIND_A, KIND_P):
        return {x.vertex}, []
    if x.kind == KIND_B:
        u, v = x.edge
        return {u, v}, [(u, v)]
    comp = set(x.vertices)
    return comp, [(u, v) for u, v in g.edges() if u in comp and v in comp]


def induced_subgraph_of_subtree(g: Graph, rt: RootedAbcTree, x: AbcNode) -> Graph:
    """Union of the vertex/edge contributions of every node in the subtree
    at `x`: A/P contribute a vertex, B its edge, C its component. The
    labelling-soundness checks judge each label against this graph.
    """
    vs: set[int] = set()
    es: list[Edge] = []
    for node in rt.subtree_nodes(x):
        nvs, nes = _node_contribution(g, node)
        vs |= nvs
        es += nes
    return Graph(vs, es)


def aerial_subgraph_of_subtree(g: Graph, rt: RootedAbcTree, x: AbcNode) -> tuple[Graph, int]:
    """Subtree subgraph plus a fresh pendant attached at the attachment
    point. The fresh vertex id is max(g) + 1, so it never collides.
    """
    if rt.parent[x] is None:
        raise GraphError("the root has no attachment point for an aerial vertex")
    sub = induced_subgraph_of_subtree(g, rt, x)
    aerial = max(g.vertices) + 1
    ap = rt.attachment_point(x)
    return Graph(set(sub.vertices) | {aerial}, list(sub.edges()) + [(ap, aerial)]), aerial


def connected_graphs(n: int):
    """Every connected labeled graph on vertices 0..n-1."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if _connected_edges(n, edges):
            yield Graph(range(n), edges)


def _connected_edges(n: int, edges: list[tuple[int, int]]) -> bool:
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    comps = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    return comps == 1


@pytest.fixture(scope="session")
def small_corpus():
    """All connected labeled graphs on at most 6 vertices, with known counts
    per size as a cross-check on the generator itself.
    """
    expected_counts = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
    corpus = []
    for n in range(1, 7):
        batch = list(connected_graphs(n))
        assert len(batch) == expected_counts[n]
        corpus.extend(batch)
    return corpus
