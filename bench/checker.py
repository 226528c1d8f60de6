"""Answer checks computed apart from `rmis`.

Everything here works on `networkx` graphs read straight from the edge-list
files, so no verdict depends on the code it judges. In particular this
module never imports `rmis.oracle`.

Robustness uses the block criterion: an MIS S is robust iff every vertex u
outside S has some biconnected block at u whose edges from u all go into S.
A connected spanning subgraph must keep at least one of u's edges in every
block at u, since the rest of a block reaches u only through it; so such a
block keeps u covered. If no such block exists, dropping every edge from u
into S leaves each block at u attached through an edge to a non-member, the
graph stays connected, and u is uncovered.
"""

from __future__ import annotations

from collections.abc import Iterable

import networkx as nx


def read_edge_list(path: str) -> nx.Graph:
    """Parse the edge-list format of `docs/formats.md` without `rmis`."""
    g = nx.Graph()
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [int(p) for p in line.split()]
            if len(parts) == 1:
                g.add_node(parts[0])
            else:
                g.add_edge(parts[0], parts[1])
    return g


def is_mis(g: nx.Graph, s: Iterable[int]) -> bool:
    """Independent, inside the vertex set, and dominating."""
    members = set(s)
    if not members <= set(g):
        return False
    for v in g:
        hits = sum(1 for w in g[v] if w in members)
        if v in members and hits:
            return False
        if v not in members and not hits:
            return False
    return True


def is_robust_mis(g: nx.Graph, s: Iterable[int]) -> bool:
    """MIS check plus the block criterion; `g` must be connected."""
    members = set(s)
    if not nx.is_connected(g):
        raise ValueError("robustness is defined on connected graphs")
    if not is_mis(g, members):
        return False
    # for each vertex, one set of block-neighbours per block at that vertex
    block_ends: dict[int, list[set[int]]] = {v: [] for v in g}
    for block in nx.biconnected_component_edges(g):
        ends: dict[int, set[int]] = {}
        for u, v in block:
            ends.setdefault(u, set()).add(v)
            ends.setdefault(v, set()).add(u)
        for v, nbrs in ends.items():
            block_ends[v].append(nbrs)
    return all(
        any(nbrs <= members for nbrs in block_ends[u]) for u in g if u not in members
    )


def classify(g: nx.Graph) -> dict:
    """The `rmis classify` payload, computed from definitions with networkx."""
    payload = {"complete_bipartite": False, "sputnik": False, "rmis_forall": False}
    if g.number_of_nodes() >= 2 and nx.is_bipartite(g):
        left, right = nx.bipartite.sets(g)
        if g.number_of_edges() == len(left) * len(right):
            payload["complete_bipartite"] = True
            sides = sorted([sorted(left), sorted(right)], key=lambda side: side[0])
            payload["bipartition"] = sides
    cycle_vertices = set().union(
        *(c for c in nx.biconnected_components(g) if len(c) >= 3)
    )
    payload["sputnik"] = all(
        any(g.degree(w) == 1 for w in g[v]) for v in cycle_vertices
    )
    payload["rmis_forall"] = payload["complete_bipartite"] or payload["sputnik"]
    return payload
