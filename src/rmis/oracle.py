"""Ground-truth verification for maximal independent sets and their robustness.

A set is a *robust* MIS when it stays maximal in every connected spanning
subgraph of the original graph. Two checkers live here: a linear-time one
based on a cut criterion, and an exponential one that enumerates connected
spanning subgraphs directly. The second exists to validate the first at
desk scale, so the two must stay independent: it finds its removable edges
with its own spanning-tree pass (`cycle_edges`), not the block pass that
the first checker and the search share.
"""

from __future__ import annotations

from collections.abc import Iterable

from .graph import Edge, Graph, GraphError, blocks, edge, is_connected, reach, remove_edges

DEFAULT_VERTEX_CAP = 16
DEFAULT_REMOVABLE_CAP = 20


def _as_member_set(g: Graph, s: Iterable[int]) -> frozenset[int]:
    members = frozenset(s)
    for v in members:
        if v not in g:
            raise GraphError(f"unknown vertex {v} in candidate set")
    return members


def is_independent(g: Graph, s: Iterable[int]) -> bool:
    """True iff no edge of `g` has both endpoints in `s`."""
    members = _as_member_set(g, s)
    adj = g._adj
    return all(members.isdisjoint(adj[v]) for v in members)


def is_mis(g: Graph, s: Iterable[int]) -> bool:
    """True iff `s` is independent and every vertex outside has a neighbor in it."""
    members = _as_member_set(g, s)
    if not is_independent(g, members):
        return False
    adj = g._adj
    return all(not members.isdisjoint(adj[v]) for v in g.vertices if v not in members)


def is_robust_mis(g: Graph, s: Iterable[int]) -> bool:
    """Robustness check in linear time but for each block's member sort.

    An MIS is robust iff for every vertex u outside it, deleting all edges
    between u and the set disconnects the graph: any connectivity-preserving
    removal then leaves u covered. Only a *suspect*, a vertex outside with a
    neighbour outside, can fail this. `is_connected` checks that the graph
    is connected, then one pass over the adjacency checks the MIS and
    collects the suspects. One more `reach`, leaving the first suspect only
    through its edges to vertices outside, settles that suspect, which is
    all a non-robust greedy set usually needs. One block pass settles the
    rest: deleting u's edges into the set disconnects the graph iff some
    block holding u has none of u's edges to vertices outside.
    """
    if not is_connected(g):
        raise GraphError("is_robust_mis requires a connected graph")
    adj = g._adj
    members = _as_member_set(g, s)
    suspects = []
    for v in g.vertices:
        ns = adj[v]
        if v in members:
            if not members.isdisjoint(ns):
                return False
        elif members.isdisjoint(ns):
            return False
        elif not members.issuperset(ns):
            suspects.append(v)
    if not suspects:
        return True
    u = suspects[0]
    if len(reach(g, u, [w for w in adj[u] if w not in members])) == g.n:
        return False
    found = blocks(g, "is_robust_mis")
    aps, number, block_of = found.articulation_points, found.number, found.block_of
    for u in suspects[1:]:
        if u not in aps:
            return False  # u's one block keeps u's edge to a non-member
        k = number[u]
        every: set[int] = set()
        kept: set[int] = set()
        for w in adj[u]:
            j = number[w]
            b = block_of[j if j > k else k]  # the endpoint numbered later
            every.add(b)
            if w not in members:
                kept.add(b)
        if len(kept) == len(every):
            return False
    return True


def is_robust_mis_bruteforce(
    g: Graph, s: Iterable[int], *, max_removable: int = DEFAULT_REMOVABLE_CAP
) -> bool:
    """Definitional robustness check: `s` is an MIS of every connected
    spanning subgraph. Exponential in the number of removable edges.
    """
    if not is_connected(g):
        raise GraphError("is_robust_mis_bruteforce requires a connected graph")
    members = _as_member_set(g, s)
    if not is_mis(g, members):
        return False
    removable = cycle_edges(g)
    if len(removable) > max_removable:
        raise GraphError(
            f"{len(removable)} removable edges exceeds cap {max_removable}; "
            "use is_robust_mis instead"
        )

    # Depth-first over subsets of removable edges, in increasing order of
    # their edges; a subset whose removal already disconnects the graph is
    # pruned with all its supersets. Each stack entry is a subgraph and the
    # next removable edge to try on it.
    stack = [(g, 0)]
    while stack:
        sub, j = stack.pop()
        if j == len(removable):
            continue
        stack.append((sub, j + 1))
        smaller = remove_edges(sub, [removable[j]])
        if is_connected(smaller):
            if not is_mis(smaller, members):
                return False
            stack.append((smaller, j + 1))
    return True


def cycle_edges(g: Graph) -> list[Edge]:
    """The edges of a connected graph that lie on a cycle, which are the
    edges whose removal keeps it connected, sorted. Near-linear time and
    independent of the block pass.

    A breadth-first spanning tree is taken; each non-tree edge closes a
    cycle with the tree path between its endpoints and marks that path.
    Union-find skips the marked stretches: `up[v]` is v while v's tree edge
    to its parent is unmarked, so each tree edge is marked once. The tree
    edges left unmarked are the bridges.
    """
    adj = g._adj
    root = g.vertices[0]
    parent = {root: root}
    depth = {root: 0}
    order = [root]
    for v in order:  # grows as the walk goes
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                depth[w] = depth[v] + 1
                order.append(w)
    up = {v: v for v in order}

    def find(v: int) -> int:
        top = v
        while up[top] != top:
            top = up[top]
        while up[v] != top:  # compress the path walked
            up[v], v = top, up[v]
        return top

    out: list[Edge] = []
    for u, w in g.edges():
        if parent[w] == u or parent[u] == w:
            continue
        out.append((u, w))
        a, b = find(u), find(w)
        while a != b:  # the deeper one lies below the endpoints' meeting point
            if depth[a] < depth[b]:
                a, b = b, a
            up[a] = parent[a]
            a = find(a)
    out += [edge(v, parent[v]) for v in order[1:] if up[v] != v]
    out.sort()
    return out


def enumerate_mis(g: Graph, *, max_vertices: int = DEFAULT_VERTEX_CAP) -> list[frozenset[int]]:
    """All maximal independent sets, canonically sorted.

    Decides in or out for each vertex in turn, depth-first on an explicit
    stack of (position, chosen, blocked) states, pruning branches where a
    skipped vertex can no longer be dominated.
    """
    if g.n > max_vertices:
        raise GraphError(f"{g.n} vertices exceeds enumeration cap {max_vertices}")
    adj = g._adj
    order = g.vertices
    rank = {v: i for i, v in enumerate(order)}
    found: list[frozenset[int]] = []
    stack = [(0, frozenset(), frozenset())]
    while stack:
        i, chosen, blocked = stack.pop()
        while i < len(order) and order[i] in blocked:
            i += 1
        if i == len(order):
            if len(chosen) + len(blocked) == g.n:
                found.append(chosen)
            continue
        v = order[i]
        # exclude v: only viable if some later neighbor can still dominate it
        if any(rank[w] > i for w in adj[v]):
            stack.append((i + 1, chosen, blocked))
        stack.append((i + 1, chosen | {v}, blocked.union(adj[v])))
    found.sort(key=lambda m: tuple(sorted(m)))
    return found


def enumerate_robust_mis(
    g: Graph, *, max_vertices: int = DEFAULT_VERTEX_CAP
) -> list[frozenset[int]]:
    """All robust MISs: the enumeration filtered by the polynomial checker."""
    return [m for m in enumerate_mis(g, max_vertices=max_vertices) if is_robust_mis(g, m)]


def parse_vertex_set(text: str) -> frozenset[int]:
    """Parse the comma-separated id form used on the command line."""
    text = text.strip()
    if not text:
        return frozenset()
    try:
        return frozenset(map(int, text.split(",")))
    except ValueError:
        raise GraphError(f"bad vertex set {text!r}; expected comma-separated ids") from None


def format_vertex_set(s: Iterable[int]) -> str:
    return ",".join(str(v) for v in sorted(s))
