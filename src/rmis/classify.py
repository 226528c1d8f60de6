"""Structural classification: complete bipartite graphs, sputniks, and the
class of graphs in which every MIS is robust (exactly the union of the two).
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from dataclasses import dataclass

from .graph import Graph, GraphError, blocks, is_connected, pendant_vertices


@dataclass(frozen=True)
class ClassVerdict:
    complete_bipartite: bool
    sputnik: bool
    rmis_forall: bool
    bipartition: tuple[frozenset[int], frozenset[int]] | None = None


def complete_bipartite_sides(adj: Mapping[int, Set[int]]) -> tuple[set[int], set[int]] | None:
    """The sides (V1, V2) of a complete bipartite adjacency map, or None.
    V2 is the neighborhood of the smallest vertex and V1 every other vertex.
    A map that is not closed (some neighbor is not a key) gives None, never
    a KeyError: sides are returned only when every neighborhood is V1 or V2,
    both inside the keys. Linear in the map's size, with no search.
    """
    v2 = set(adj[min(adj)])
    if not v2 or not v2 <= adj.keys():
        return None
    v1 = adj.keys() - v2
    if all(adj[v] == v2 for v in v1) and all(adj[v] == v1 for v in v2):
        return v1, v2
    return None


def is_complete_bipartite(g: Graph) -> tuple[set[int], set[int]] | None:
    """The bipartition (V1, V2) if every V1-V2 pair is an edge and there are
    no others; None otherwise. A single vertex does not qualify (one side
    would be empty), a single edge does.
    """
    if not is_connected(g):
        raise GraphError("is_complete_bipartite requires a connected graph")
    return complete_bipartite_sides(g._adj)


def cycle_vertices(g: Graph, op: str = "cycle_vertices") -> set[int]:
    """Vertices lying on some cycle: members of a biconnected component with
    three or more vertices. A disconnected graph raises GraphError naming `op`.
    """
    return set().union(*(c for c in blocks(g, op).components if len(c) >= 3))


def is_sputnik(g: Graph) -> bool:
    """True iff every vertex on a cycle has a degree-1 neighbor.

    Trees qualify vacuously, including the single-vertex graph.
    """
    pendants = pendant_vertices(g)
    return all(g.neighbors(v) & pendants for v in cycle_vertices(g, "is_sputnik"))


def in_rmis_forall(g: Graph) -> ClassVerdict:
    """Does every MIS of `g` stay maximal under connectivity-preserving edge
    removal? Holds exactly when `g` is complete bipartite or a sputnik.
    """
    parts = is_complete_bipartite(g)
    sputnik = is_sputnik(g)
    return ClassVerdict(
        complete_bipartite=parts is not None,
        sputnik=sputnik,
        rmis_forall=parts is not None or sputnik,
        bipartition=(frozenset(parts[0]), frozenset(parts[1])) if parts else None,
    )
