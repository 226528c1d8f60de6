"""Simple undirected graphs and the structural primitives everything else builds on.

Graphs are immutable after construction; every operation here is a pure
function, so shared instances are safe to use from multiple threads.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from typing import NamedTuple

Edge = tuple[int, int]


class GraphError(Exception):
    """Invalid graph input or an operation applied outside its domain."""


class EdgeListParseError(GraphError):
    """Malformed edge-list text; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def edge(u: int, v: int) -> Edge:
    """Canonical form of an undirected edge: endpoints in increasing order."""
    if u == v:
        raise GraphError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph over non-negative integer vertex ids.

    Vertex ids need not be contiguous. Parallel edges collapse; self-loops
    are rejected. A graph has at least one vertex.
    """

    __slots__ = ("_adj", "_vertices")

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[Edge] = ()):
        adj: dict[int, set[int]] = {}
        for v in vertices:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise GraphError(f"vertex ids must be non-negative integers, got {v!r}")
            if v not in adj:
                adj[v] = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not isinstance(u, int) or isinstance(u, bool) or u < 0:
                raise GraphError(f"vertex ids must be non-negative integers, got {u!r}")
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise GraphError(f"vertex ids must be non-negative integers, got {v!r}")
            ns = adj.get(u)  # a set is built only for a new vertex
            if ns is None:
                adj[u] = {v}
            else:
                ns.add(v)
            ns = adj.get(v)
            if ns is None:
                adj[v] = {u}
            else:
                ns.add(u)
        if not adj:
            raise GraphError("a graph needs at least one vertex")
        self._freeze(adj)

    def _freeze(self, adj: dict[int, set[int]]) -> None:
        """Take a validated, non-empty, symmetric adjacency as this graph's
        own, replacing each neighbour set by its frozenset in the same dict,
        so that each set is freed as its frozen copy is made.
        """
        for v, ns in adj.items():
            adj[v] = frozenset(ns)  # type: ignore[assignment]
        self._adj = adj
        self._vertices = tuple(sorted(adj))

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return sum(len(ns) for ns in self._adj.values()) // 2

    def neighbors(self, v: int) -> frozenset[int]:
        try:
            return self._adj[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v}") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def edges(self) -> tuple[Edge, ...]:
        """All edges in canonical order, sorted lexicographically."""
        return tuple(
            sorted((v, w) for v in self._vertices for w in self._adj[v] if v < w)
        )

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def __iter__(self):
        return iter(self._vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self._vertices, frozenset(self.edges())))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


# ---------------------------------------------------------------------------
# parsing and serialization

def from_edge_list(text: str) -> Graph:
    """Parse edge-list text: one "u v" pair per line, "#" comment lines,
    and bare integers declaring isolated vertices. Duplicate edges collapse.

    Each line is split once and its ids go straight into the adjacency. A
    line is a comment when `int` rejects its first token and that token
    starts with "#" (`int` never accepts "#"). A bad line is reported by its
    first fault: a non-integer, then a negative id, then the count or a
    self-loop.
    """
    lines = text.splitlines()
    adj: dict[int, set[int]] = {}
    for lineno, parts in enumerate(map(str.split, lines), start=1):
        if len(parts) == 2:
            try:
                u = int(parts[0])
                v = int(parts[1])
            except ValueError:
                if parts[0].startswith("#"):
                    continue
                raise _line_error(lines, lineno, "expected integers, got") from None
            if u < 0 or v < 0:
                raise _line_error(lines, lineno, "negative vertex id in")
            if u == v:
                raise EdgeListParseError(lineno, f"self-loop at vertex {u}")
            ns = adj.get(u)  # a set is built only for a new vertex
            if ns is None:
                adj[u] = {v}
            else:
                ns.add(v)
            ns = adj.get(v)
            if ns is None:
                adj[v] = {u}
            else:
                ns.add(u)
        elif parts:
            try:
                nums = list(map(int, parts))
            except ValueError:
                if parts[0].startswith("#"):
                    continue
                raise _line_error(lines, lineno, "expected integers, got") from None
            if any(x < 0 for x in nums):
                raise _line_error(lines, lineno, "negative vertex id in")
            if len(nums) != 1:
                raise EdgeListParseError(lineno, f"expected 1 or 2 integers, got {len(nums)}")
            if nums[0] not in adj:
                adj[nums[0]] = set()
    if not adj:
        raise EdgeListParseError(0, "empty edge list")
    g = Graph.__new__(Graph)
    g._freeze(adj)  # int() ids are exact non-negative ints, never bools
    return g


def _line_error(lines: list[str], lineno: int, message: str) -> EdgeListParseError:
    return EdgeListParseError(lineno, f"{message} {lines[lineno - 1].strip()!r}")


def to_edge_list(g: Graph) -> str:
    """Serialize to the same format: sorted edges, then isolated vertices."""
    lines = [f"{u} {v}" for u, v in g.edges()]
    lines += [str(v) for v in g.vertices if g.degree(v) == 0]
    return "\n".join(lines) + "\n"


def to_dot(
    g: Graph,
    name: str = "g",
    vertex_attrs: dict[int, str] | None = None,
    edge_attrs: dict[Edge, str] | None = None,
) -> str:
    """Render as Graphviz DOT; per-vertex/per-edge attribute strings optional."""
    out = [f"graph {name} {{"]
    for v in g.vertices:
        attrs = (vertex_attrs or {}).get(v, "")
        out.append(f"  {v}{f' [{attrs}]' if attrs else ''};")
    for u, v in g.edges():
        attrs = (edge_attrs or {}).get((u, v), "")
        out.append(f"  {u} -- {v}{f' [{attrs}]' if attrs else ''};")
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# basic traversal

def bfs_distances(g: Graph, source: int) -> dict[int, int]:
    """Hop distance from `source` to every reachable vertex."""
    if source not in g:
        raise GraphError(f"unknown vertex {source}")
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Connected components, sorted by their smallest vertex."""
    seen: set[int] = set()
    comps = []
    for v in g.vertices:
        if v in seen:
            continue
        comp = set(bfs_distances(g, v))
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return len(bfs_distances(g, g.vertices[0])) == g.n


def pendant_vertices(g: Graph) -> set[int]:
    """Vertices of degree exactly 1."""
    return {v for v in g.vertices if g.degree(v) == 1}


# ---------------------------------------------------------------------------
# lowlink decomposition: articulation points, bridges, biconnected components

class Blocks(NamedTuple):
    """One block pass's result. Each component's `top` is its member the
    pass reached first; every other member lies below it in the search
    tree, so the tops root the block-cut tree at the pass's start vertex.
    """

    articulation_points: set[int]
    bridges: set[Edge]
    components: list[tuple[int, ...]]  # edge-based, sorted tuples, in sorted order
    top: list[int]  # per component, the member with the smallest `number`
    number: dict[int, int]  # the order in which the search reached each vertex
    # per number, the index in `components` of the block holding the tree edge
    # into that vertex (-1 for the root, number 0). An edge lies in the block
    # of its endpoint numbered later
    block_of: list[int]


def blocks(g: Graph, op: str = "blocks") -> Blocks:
    """One iterative depth-first pass computing articulation points, bridges,
    and biconnected components (as sorted vertex tuples), after Hopcroft and
    Tarjan.

    The state lives in flat lists indexed by DFS number: `low`, the vertex
    of each number, and the block of each vertex's tree edge. The path is two
    parallel lists, numbers and neighbour iterators; reached numbers wait on
    a stack. When a child `x` of `p` finishes with no edge from its subtree
    above `p`, the numbers down to `x`, plus `p`, form one component, whose
    top is `p`. The edge to the parent may count toward `low`: that only
    ever equals `p`, which still closes the component. Every edge lies in
    exactly one component; size-2 components are exactly the bridges. Only
    `number`, `top` and the order of `block_of` depend on the order in which
    neighbours are visited.

    Raises GraphError naming `op` when the pass does not reach every vertex.
    """
    adj = g._adj
    n = g.n
    root = g.vertices[0]
    number = dict.fromkeys(adj)  # sized once; None until reached
    number[root] = 0
    vertex = [root]
    low = [0] * n
    block_of = [-1] * n
    path = [0]
    path_iters = [iter(adj[root])]
    reached = [0]
    aps: set[int] = set()
    brs: set[Edge] = set()
    comps: list[tuple[int, ...]] = []
    tops: list[int] = []
    root_blocks = 0
    while path:
        x = path[-1]
        lx = low[x]
        for w in path_iters[-1]:
            k = number[w]
            if k is None:
                low[x] = lx
                number[w] = k = len(vertex)
                vertex.append(w)
                low[k] = k
                reached.append(k)
                path.append(k)
                path_iters.append(iter(adj[w]))
                break
            if k < lx:
                lx = k
        else:
            path.pop()
            path_iters.pop()
            if not path:
                break
            p = path[-1]
            if lx < p:
                if lx < low[p]:
                    low[p] = lx
                continue
            b = len(comps)
            block_of[x] = b
            members = [vertex[p], vertex[x]]
            while (k := reached.pop()) != x:
                block_of[k] = b
                members.append(vertex[k])
            members.sort()
            comps.append(tuple(members))
            tops.append(vertex[p])
            if len(members) == 2:
                brs.add(comps[-1])
            if p:
                aps.add(vertex[p])
            else:
                root_blocks += 1
    if len(vertex) != n:
        raise GraphError(f"{op} requires a connected graph")
    if root_blocks > 1:
        aps.add(root)
    del low, vertex, reached  # so that the renumbering does not set the peak
    # renumber the blocks in sorted order; rank[-1] is -1, so the root keeps it
    order = sorted(range(len(comps)), key=comps.__getitem__)
    comps = [comps[b] for b in order]
    tops = [tops[b] for b in order]
    rank = [-1] * (len(order) + 1)
    for i, b in enumerate(order):
        rank[b] = i
    del order
    return Blocks(aps, brs, comps, tops, number, list(map(rank.__getitem__, block_of)))


def articulation_points(g: Graph) -> set[int]:
    """Vertices whose removal disconnects the graph."""
    return blocks(g, "articulation_points").articulation_points


def bridges(g: Graph) -> set[Edge]:
    """Edges whose removal disconnects the graph (the non-removable edges)."""
    return blocks(g, "bridges").bridges


def biconnected_components(g: Graph) -> list[frozenset[int]]:
    """Maximal 2-vertex-connected subgraphs as vertex sets (see `blocks`)."""
    return [frozenset(c) for c in blocks(g, "biconnected_components").components]


# ---------------------------------------------------------------------------
# bipartiteness, balls, edge removal

def is_bipartite(g: Graph) -> tuple[set[int], set[int]] | None:
    """Two-color the graph if possible.

    Returns (V1, V2) where, within each connected component, the part holding
    the component's smallest vertex goes to V1. None if an odd cycle exists.
    """
    color: dict[int, int] = {}
    for start in g.vertices:
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    v1 = {v for v, c in color.items() if c == 0}
    v2 = {v for v, c in color.items() if c == 1}
    return v1, v2


def ball(g: Graph, v: int, radius: int) -> tuple[Graph, set[int]]:
    """Subgraph induced by vertices within `radius` hops of `v`, plus the
    boundary: vertices at distance exactly `radius` with neighbors outside.
    """
    if radius < 0:
        raise GraphError("radius must be non-negative")
    dist = bfs_distances(g, v)
    inside = {w for w, d in dist.items() if d <= radius}
    boundary = {
        w
        for w in inside
        if dist[w] == radius and any(x not in inside for x in g.neighbors(w))
    }
    return induced_subgraph(g, inside), boundary


def induced_subgraph(g: Graph, vs: Iterable[int]) -> Graph:
    keep = set(vs)
    for v in keep:
        if v not in g:
            raise GraphError(f"unknown vertex {v}")
    es = [(u, w) for u, w in g.edges() if u in keep and w in keep]
    return Graph(keep, es)


def remove_edges(g: Graph, es: Iterable[Edge]) -> Graph:
    """Copy of `g` with the given edges removed; vertex set unchanged."""
    drop = {edge(u, v) for u, v in es}
    for u, v in drop:
        if not g.has_edge(u, v):
            raise GraphError(f"edge ({u}, {v}) not in graph")
    keep = [e for e in g.edges() if e not in drop]
    return Graph(g.vertices, keep)
