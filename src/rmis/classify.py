"""Structural classification: complete bipartite graphs, sputniks, and the
class of graphs in which every MIS is robust (exactly the union of the two).
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from dataclasses import dataclass

from .graph import Graph, GraphError, blocks, is_connected


@dataclass(frozen=True)
class ClassVerdict:
    complete_bipartite: bool
    sputnik: bool
    rmis_forall: bool
    bipartition: tuple[frozenset[int], frozenset[int]] | None = None


def complete_bipartite_sides(
    adj: Mapping[int, Collection[int]],
) -> tuple[set[int], set[int]] | None:
    """The sides (V1, V2) of a complete bipartite adjacency map, or None.
    V2 is the neighborhood of the smallest vertex and V1 every other vertex.
    A map that is not closed (some neighbor is not a key) gives None, never
    a KeyError: sides are returned only when every neighborhood is V1 or V2,
    both inside the keys.

    The neighborhoods are duplicate-free collections of one type per map:
    a graph's sorted tuples or the LOCAL simulator's frozensets. Each V1
    neighborhood is compared with the smallest vertex's, and each V2
    neighborhood with that of one V2 vertex, which is checked once against
    V1 by size and containment; a comparison tries identity before content.
    So the cost is linear in the map's size, with no search, and linear in
    the number of keys when equal neighborhoods are one shared object, as
    in the simulator's gathered maps.

    The size test makes the V2 check exact on any map: with containment it
    gives that one V2 neighborhood equals V1. On a symmetric map, as a
    graph's is, it decides nothing the V1 checks do not: if every V1
    neighborhood is V2, every V2 vertex has all of V1 as neighbors, so
    containment alone leaves equality. There it only rejects early, before
    V1 is built, and dropping it changes no answer a graph can give.
    """
    nbhd1 = adj[min(adj)]
    v2 = set(nbhd1)
    if not v2 or not v2 <= adj.keys():
        return None
    nbhd2 = adj[next(iter(v2))]
    if len(nbhd2) != len(adj) - len(v2):  # the size of V1, as v2 <= adj.keys()
        return None
    v1 = adj.keys() - v2
    if not v1.issuperset(nbhd2):
        return None
    if all(adj[v] is nbhd1 or adj[v] == nbhd1 for v in v1) and all(
        adj[v] is nbhd2 or adj[v] == nbhd2 for v in v2
    ):
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


def cycle_vertices(g: Graph) -> set[int]:
    """Vertices lying on some cycle: members of a biconnected component with
    three or more vertices. A disconnected graph raises GraphError.
    """
    return set().union(*(c for c in blocks(g, "cycle_vertices").components if len(c) >= 3))


def is_sputnik(g: Graph) -> bool:
    """True iff every vertex on a cycle has a degree-1 neighbor.

    Trees qualify vacuously, including the single-vertex graph.
    """
    return _sputnik_rule(g._adj, blocks(g, "is_sputnik").components)


def _sputnik_rule(adj: Mapping[int, Collection[int]], components: list[tuple[int, ...]]) -> bool:
    """The sputnik rule on the block pass's components: each vertex of a
    component with three or more vertices, which is each vertex on a cycle,
    is next to a degree-1 vertex. One scan of the adjacency finds those.
    """
    hosts = {w for ns in adj.values() if len(ns) == 1 for w in ns}
    return all(hosts.issuperset(c) for c in components if len(c) >= 3)


def in_rmis_forall(g: Graph) -> ClassVerdict:
    """Does every MIS of `g` stay maximal under connectivity-preserving edge
    removal? Holds exactly when `g` is complete bipartite or a sputnik.

    One block pass serves as the connectivity check of both tests and
    gives the sputnik test its cycle vertices.
    """
    components = blocks(g, "is_complete_bipartite").components
    parts = complete_bipartite_sides(g._adj)
    sputnik = _sputnik_rule(g._adj, components)
    return ClassVerdict(
        complete_bipartite=parts is not None,
        sputnik=sputnik,
        rmis_forall=parts is not None or sputnik,
        bipartition=(frozenset(parts[0]), frozenset(parts[1])) if parts else None,
    )
