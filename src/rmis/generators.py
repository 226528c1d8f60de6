"""Deterministic constructors for the named instance families, plus seeded
random graphs for property testing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .classify import cycle_vertices
from .graph import Edge, Graph, GraphError, connected_components, pendant_vertices


@dataclass(frozen=True)
class GkInstance:
    """A ladder-of-diamonds gadget with exactly two robust MISs.

    Level i holds a_i, b_i, c_i, alpha_i, beta_i, gamma_i at ids 6i..6i+5,
    in that order; `names` maps "a0", "b0", ... to those ids. Level 0 is a
    six-cycle; each further level hangs one diamond off b_{i-1} and one off
    beta_{i-1}. The two stored solutions are complements: m1 holds every b,
    alpha and gamma (the odd ids); m2 holds everything else.
    """

    graph: Graph
    names: dict[str, int]
    m1: frozenset[int]
    m2: frozenset[int]


def gen_gk(k: int) -> GkInstance:
    if k < 0:
        raise GraphError("k must be non-negative")
    n = 6 * (k + 1)
    # level 0, a-b-c-gamma-beta-alpha-a
    edges: list[Edge] = [(0, 1), (1, 2), (2, 5), (5, 4), (4, 3), (3, 0)]
    for i in range(1, k + 1):
        a, b, c, alpha, beta, gamma = range(6 * i, 6 * i + 6)
        b_up, beta_up = a - 5, a - 2  # b_{i-1} and beta_{i-1}
        edges += [
            (beta_up, alpha), (beta_up, gamma), (alpha, beta), (gamma, beta),
            (b_up, a), (b_up, c), (a, b), (c, b),
        ]
    stems = ("a", "b", "c", "alpha", "beta", "gamma")
    names = {f"{s}{i}": 6 * i + j for i in range(k + 1) for j, s in enumerate(stems)}
    m1 = frozenset(range(1, n, 2))
    return GkInstance(Graph(range(n), edges), names, m1, frozenset(range(0, n, 2)))


def gen_complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise GraphError("both parts need at least one vertex")
    return Graph(range(m + n), [(i, m + j) for i in range(m) for j in range(n)])


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("a cycle needs at least three vertices")
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def gen_path(n: int) -> Graph:
    if n < 1:
        raise GraphError("a path needs at least one vertex")
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def gen_triangle() -> Graph:
    return gen_cycle(3)


def gen_square() -> Graph:
    return gen_cycle(4)


def gen_bull() -> Graph:
    """Triangle 1-2-3 with pendants 0 (on 1) and 4 (on 2)."""
    return Graph(range(5), [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4)])


def gen_lollipop(path_len: int, clique_size: int) -> Graph:
    """A path joined by one bridge to a clique; vertex 0 is the pendant end."""
    if path_len < 1:
        raise GraphError("path needs at least one vertex")
    if clique_size < 3:
        raise GraphError("clique needs at least three vertices")
    edges = [(i, i + 1) for i in range(path_len - 1)]
    clique = range(path_len, path_len + clique_size)
    edges += list(combinations(clique, 2))
    edges.append((path_len - 1, path_len))
    return Graph(range(path_len + clique_size), edges)


def gen_random_connected(n: int, edge_prob: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi draw, patched into connectivity by linking the
    components with a random tree instead of redrawing. One draw per vertex
    pair makes it quadratic in n; `gen_sparse_connected` is linear.
    """
    if n < 1:
        raise GraphError("need at least one vertex")
    if not 0.0 <= edge_prob <= 1.0:
        raise GraphError("edge_prob must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < edge_prob]
    g = Graph(range(n), edges)
    comps = connected_components(g)
    if len(comps) > 1:
        rng.shuffle(comps)
        for i in range(1, len(comps)):
            a = rng.choice(sorted(comps[rng.randrange(i)]))
            b = rng.choice(sorted(comps[i]))
            edges.append((a, b))
        g = Graph(range(n), edges)
    return g


def gen_sparse_connected(n: int, extra: int, seed: int) -> Graph:
    """Seeded random spanning tree plus `extra` random chords, in time
    linear in n + extra: vertex v > 0 joins a random earlier vertex, then
    each chord joins two distinct random vertices (a chord that repeats an
    edge collapses into it).
    """
    if n < 1:
        raise GraphError("need at least one vertex")
    if extra < 0:
        raise GraphError("extra must be non-negative")
    if extra and n < 2:
        raise GraphError("chords need at least two vertices")
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    while extra:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
            extra -= 1
    return Graph(range(n), edges)


def gen_random_sputnik(seed: int, size: int) -> Graph:
    """Random connected graph with a fresh pendant hung on every cycle
    vertex that lacks one; at most doubles the vertex count.
    """
    if size < 1:
        raise GraphError("need at least one vertex")
    rng = random.Random(seed)
    edge_prob = min(1.0, rng.uniform(1.2, 3.0) / max(size, 2))
    return _with_pendants(gen_random_connected(size, edge_prob, rng.randrange(2**32)))


def gen_sparse_sputnik(n: int, extra: int, seed: int) -> Graph:
    """`gen_sparse_connected(n, extra, seed)` with a fresh pendant hung on
    every cycle vertex that lacks one: a sputnik on at most 2n vertices,
    built in time near linear in n + extra (a block pass and two sorts).
    """
    return _with_pendants(gen_sparse_connected(n, extra, seed))


def _with_pendants(base: Graph) -> Graph:
    """`base` plus a new degree-1 vertex on each cycle vertex, in increasing
    order, that has no degree-1 neighbor; new ids follow the largest one.
    """
    pend = pendant_vertices(base)
    adj = base._adj
    extra: list[Edge] = []
    next_id = max(base.vertices) + 1
    for v in sorted(cycle_vertices(base)):
        if pend.isdisjoint(adj[v]):
            extra.append((v, next_id))
            next_id += 1
    if not extra:
        return base
    return Graph(base.vertices, list(base.edges()) + extra)
