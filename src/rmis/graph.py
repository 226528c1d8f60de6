"""Simple undirected graphs and the structural primitives everything else builds on.

Graphs are immutable after construction; every operation here is a pure
function, so shared instances are safe to use from multiple threads.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
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
            adj.setdefault(v, set())
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not isinstance(u, int) or isinstance(u, bool) or u < 0:
                raise GraphError(f"vertex ids must be non-negative integers, got {u!r}")
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise GraphError(f"vertex ids must be non-negative integers, got {v!r}")
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
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
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
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
            adj.setdefault(nums[0], set())
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
    articulation_points: set[int]
    bridges: set[Edge]
    components: list[frozenset[int]]  # edge-based, sorted by vertex content
    # the component each vertex was popped into (the root: its last one); an
    # edge lies in block_of[x] for its endpoint x found later in the search
    block_of: dict[int, frozenset[int]]


def blocks(g: Graph, op: str = "blocks") -> Blocks:
    """One iterative depth-first pass computing articulation points, bridges,
    and biconnected components (as vertex sets), after Hopcroft and Tarjan.

    Visited vertices wait on a stack. When a child `v` of `p` finishes with
    no back edge from its subtree above `p`, the vertices down to `v`, plus
    `p`, form one component. Every edge lies in exactly one component;
    size-2 components are exactly the bridges. Only `block_of` depends on
    the order in which neighbours are visited; the rest does not.

    Raises GraphError naming `op` when the pass does not reach every vertex.
    """
    root = g.vertices[0]
    disc = {root: 0}
    low = {root: 0}
    aps: set[int] = set()
    brs: set[Edge] = set()
    comps: list[frozenset[int]] = []
    block_of: dict[int, frozenset[int]] = {}
    visited = [root]
    root_blocks = 0
    stack: list[tuple[int, int | None, Iterator[int]]] = [(root, None, iter(g.neighbors(root)))]
    while stack:
        v, p, it = stack[-1]
        for w in it:
            if w not in disc:
                disc[w] = low[w] = len(disc)
                visited.append(w)
                stack.append((w, v, iter(g.neighbors(w))))
                break
            if w != p and disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if p is None:
                continue
            if low[v] < low[p]:
                low[p] = low[v]
            if low[v] >= disc[p]:
                members = {p, v}
                while (u := visited.pop()) != v:
                    members.add(u)
                comp = frozenset(members)
                comps.append(comp)
                for u in comp:  # p is popped later, and set again then
                    block_of[u] = comp
                if len(members) == 2:
                    brs.add(edge(p, v))
                if p != root:
                    aps.add(p)
                else:
                    root_blocks += 1
    if len(disc) != g.n:
        raise GraphError(f"{op} requires a connected graph")
    if root_blocks > 1:
        aps.add(root)
    comps.sort(key=lambda c: tuple(sorted(c)))
    return Blocks(aps, brs, comps, block_of)


def articulation_points(g: Graph) -> set[int]:
    """Vertices whose removal disconnects the graph."""
    return blocks(g, "articulation_points").articulation_points


def bridges(g: Graph) -> set[Edge]:
    """Edges whose removal disconnects the graph (the non-removable edges)."""
    return blocks(g, "bridges").bridges


def biconnected_components(g: Graph) -> list[frozenset[int]]:
    """Maximal 2-vertex-connected subgraphs as vertex sets (see `blocks`)."""
    return blocks(g, "biconnected_components").components


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
