"""Simple undirected graphs and the structural primitives everything else builds on.

Graphs are immutable after construction; every operation here is a pure
function, so shared instances are safe to use from multiple threads.

A graph keeps each vertex's neighbourhood as a sorted tuple of distinct
neighbour ids in `Graph._adj`, and each id in those tuples is the very int
object of its dict key, so a vertex costs one int however many edges
mention it. Library code reads the tuples directly: membership goes
through `in_sorted` (bisection) or a set built for the purpose, never a
scan of a tuple. `Graph.neighbors` builds a frozenset per call for
callers that want set algebra.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from itertools import count
from typing import NamedTuple

Edge = tuple[int, int]


class GraphError(Exception):
    """Invalid graph input or an operation applied outside its domain."""


class EdgeListParseError(GraphError):
    """Malformed edge-list text; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def in_sorted(ns: tuple[int, ...], v: int) -> bool:
    """Whether `v` is in the sorted tuple `ns`, by bisection."""
    i = bisect_left(ns, v)
    return i < len(ns) and ns[i] == v


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
        # each vertex's list starts with its id object; neighbours are
        # appended as those objects, so every id is one int (see `_freeze`)
        adj: dict[int, list[int]] = {}
        for v in vertices:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise GraphError(f"vertex ids must be non-negative integers, got {v!r}")
            if v not in adj:
                adj[v] = [v]
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not isinstance(u, int) or isinstance(u, bool) or u < 0:
                raise GraphError(f"vertex ids must be non-negative integers, got {u!r}")
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise GraphError(f"vertex ids must be non-negative integers, got {v!r}")
            nu = adj.get(u)
            if nu is None:
                nu = adj[u] = [u]
            nv = adj.get(v)
            if nv is None:
                nv = adj[v] = [v]
            nu.append(nv[0])
            nv.append(nu[0])
        if not adj:
            raise GraphError("a graph needs at least one vertex")
        self._freeze(adj)

    def _freeze(self, adj: dict[int, list[int]]) -> None:
        """Take a validated, non-empty, symmetric adjacency as this graph's
        own. Each list holds its vertex's id object, then that of every
        neighbour, once per edge mention; it becomes the sorted tuple of
        distinct neighbours, in the same dict, so each list is freed as its
        tuple is made.
        """
        for v, ns in adj.items():
            del ns[0]
            k = len(ns)
            if k == 2:  # the commonest degree, settled without a set
                if ns[0] is ns[1]:
                    del ns[1]
                elif ns[1] < ns[0]:
                    ns.reverse()
            elif k > 2:
                ns.sort()
                if len(set(ns)) < k:  # a repeated edge
                    ns = sorted(set(ns))
            adj[v] = tuple(ns)  # type: ignore[assignment]
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
        """A new frozenset of `v`'s neighbours (the graph keeps a tuple)."""
        try:
            return frozenset(self._adj[v])
        except KeyError:
            raise GraphError(f"unknown vertex {v}") from None

    def degree(self, v: int) -> int:
        try:
            return len(self._adj[v])
        except KeyError:
            raise GraphError(f"unknown vertex {v}") from None

    def has_edge(self, u: int, v: int) -> bool:
        ns = self._adj.get(u)
        return ns is not None and in_sorted(ns, v)

    def edges(self) -> tuple[Edge, ...]:
        """All edges in canonical order, sorted lexicographically: the
        vertices in order, each with its larger neighbours in order.
        """
        adj = self._adj
        out = []
        for v in self._vertices:
            for w in adj[v]:
                if v < w:
                    out.append((v, w))
        return tuple(out)

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

# characters per chunk, then on to the next line end: a chunk bounds the
# joined text and the id list of a bulk read, and the line list of a chunk
# out of form
_CHUNK = 4096
# every line end `str.splitlines` honours, a "\r\n" taken whole, so a chunk
# ends where a line does
_LINE_END = re.compile("\r\n|[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")
# deletes the ASCII digits, leaving a chunk's separators: in the form
# `to_edge_list` writes ("u v" lines, one space, a newline after each) they
# are a prefix of `_ALTERNATING` and the chunk ends with its last newline.
# The JSON reader then refuses an empty id, a leading zero or an id past
# `int`'s digit limit, so the two prove the form together
_DIGITS = str.maketrans("", "", "0123456789")
# longer than the separators of any chunk in form, which holds at most
# _CHUNK // 4 + 1 lines ("u v\n" takes four characters or more), two each
_ALTERNATING = " \n" * _CHUNK


def from_edge_list(text: str) -> Graph:
    """Parse edge-list text: one "u v" pair per line, "#" comment lines,
    and bare integers declaring isolated vertices. Duplicate edges collapse.

    The text is read a chunk at a time, each ending at the first line end
    past `_CHUNK` characters, any that `str.splitlines` honours with a
    "\r\n" taken whole, so a chunk's lines are the text's lines.
    `_read_in_form` reads a chunk in the serializer's form in bulk, and
    `_read_lines` any other chunk line by line, with the line count carried
    from chunk to chunk, so a stray line costs one chunk and each error is
    the one a line-by-line read of the whole text gives. Both put ids
    straight into the adjacency as the id objects of its keys, so the graph
    holds one int per vertex.
    """
    adj: dict[int, list[int]] = {}  # laid out as in `Graph.__init__`
    pos = lineno = 0
    while pos < len(text):
        found = _LINE_END.search(text, pos + _CHUNK)
        end = found.end() if found else len(text)
        chunk = text[pos:end]
        lineno += _read_in_form(chunk, lineno, adj) or _read_lines(chunk, lineno, adj)
        pos = end
    if not adj:
        raise EdgeListParseError(0, "empty edge list")
    g = Graph.__new__(Graph)
    g._freeze(adj)  # int() ids are exact non-negative ints, never bools
    return g


def _read_in_form(chunk: str, lineno: int, adj: dict[int, list[int]]) -> int:
    """Read `chunk`, which follows line `lineno`, into `adj` if it is in the
    serializer's form, and return how many lines it holds; return 0 if it
    is not. What `_DIGITS` leaves of the chunk proves the separators (and
    is freed before the ids are read), and one call of the C-level JSON
    reader turns the ids into ints or refuses them. A line in form can only
    fault by being a self-loop.
    """
    if chunk[-1] != "\n" or not _ALTERNATING.startswith(chunk.translate(_DIGITS)):
        return 0
    try:
        ids = json.loads("[" + chunk[:-1].replace("\n", ",").replace(" ", ",") + "]")
    except ValueError:
        return 0
    pairs = iter(ids)
    for u, v in zip(pairs, pairs):
        if u == v:
            lineno += chunk.split("\n").index(f"{u} {u}") + 1  # the first such line
            raise EdgeListParseError(lineno, f"self-loop at vertex {u}")
        nu = adj.get(u)
        if nu is None:
            nu = adj[u] = [u]
        nv = adj.get(v)
        if nv is None:
            nv = adj[v] = [v]
        nu.append(nv[0])
        nv.append(nu[0])
    return len(ids) // 2


def _read_lines(chunk: str, lineno: int, adj: dict[int, list[int]]) -> int:
    """Read `chunk`, which follows line `lineno`, into `adj` line by line,
    and return how many lines it holds. Each line is split once. A line is
    a comment when `int` rejects its first token and that token starts
    with "#" (`int` never accepts "#"). A bad line is reported by its first
    fault: a non-integer, then a negative id, then the count or a self-loop.
    """
    lines = chunk.splitlines()
    for lineno, line, parts in zip(count(lineno + 1), lines, map(str.split, lines)):
        if len(parts) == 2:
            try:
                u = int(parts[0])
                v = int(parts[1])
            except ValueError:
                if parts[0].startswith("#"):
                    continue
                raise EdgeListParseError(lineno, f"expected integers, got {line.strip()!r}") from None
            if u < 0 or v < 0:
                raise EdgeListParseError(lineno, f"negative vertex id in {line.strip()!r}")
            if u == v:
                raise EdgeListParseError(lineno, f"self-loop at vertex {u}")
            nu = adj.get(u)
            if nu is None:
                nu = adj[u] = [u]
            nv = adj.get(v)
            if nv is None:
                nv = adj[v] = [v]
            nu.append(nv[0])
            nv.append(nu[0])
        elif parts:
            try:
                nums = list(map(int, parts))
            except ValueError:
                if parts[0].startswith("#"):
                    continue
                raise EdgeListParseError(lineno, f"expected integers, got {line.strip()!r}") from None
            if any(x < 0 for x in nums):
                raise EdgeListParseError(lineno, f"negative vertex id in {line.strip()!r}")
            if len(nums) != 1:
                raise EdgeListParseError(lineno, f"expected 1 or 2 integers, got {len(nums)}")
            if nums[0] not in adj:
                adj[nums[0]] = nums  # [id]: the head of a new list
    return len(lines)


def to_edge_list(g: Graph) -> str:
    """Serialize to the same format: sorted edges, then isolated vertices."""
    lines = [f"{u} {v}" for u, v in g.edges()]
    lines += [str(v) for v in g.vertices if not g._adj[v]]
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

def reach(g: Graph, start: int, exits: Iterable[int] | None = None) -> set[int]:
    """The vertices, `start` among them, that a breadth-first search from
    `start` reaches when it leaves `start` only through `exits`, distinct
    neighbours of it; by default through every neighbour.
    """
    if start not in g:
        raise GraphError(f"unknown vertex {start}")
    adj = g._adj
    todo = list(adj[start] if exits is None else exits)
    seen = {start, *todo}
    for v in todo:  # grows as the walk goes
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Connected components, sorted by their smallest vertex."""
    seen: set[int] = set()
    comps = []
    for v in g.vertices:
        if v not in seen:
            comp = reach(g, v)
            seen |= comp
            comps.append(frozenset(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return len(reach(g, g.vertices[0])) == g.n


def pendant_vertices(g: Graph) -> set[int]:
    """Vertices of degree exactly 1."""
    return {v for v, ns in g._adj.items() if len(ns) == 1}


# ---------------------------------------------------------------------------
# lowlink decomposition: articulation points and biconnected components,
# whose size-2 members are the bridges

class Blocks(NamedTuple):
    """One block pass's result. The components of size 2 are exactly the
    bridges. Each component's `top` is its member the pass reached first;
    every other member lies below it in the search tree, so the tops root
    the block-cut tree at the pass's start vertex. The components come in
    the order the pass closed them (see `blocks`).
    """

    articulation_points: set[int]
    components: list[tuple[int, ...]]  # edge-based, sorted tuples, in closing order
    top: list[int]  # per component, the member with the smallest `number`
    number: dict[int, int]  # the order in which the search reached each vertex
    # per number, the index in `components` of the block holding the tree edge
    # into that vertex (-1 for the root, number 0). An edge lies in the block
    # of its endpoint numbered later
    block_of: list[int]


def blocks(g: Graph, op: str = "blocks") -> Blocks:
    """One iterative depth-first pass computing articulation points and
    biconnected components (as sorted vertex tuples), after Hopcroft and
    Tarjan.

    The vertex being walked lives in three locals: its DFS number `x`, its
    running low point `lx` and its neighbour iterator `it`. Only the path
    above it waits, on three stacks of numbers, low points and iterators; a
    descent pushes the walked vertex's three, and a finished vertex pops
    its parent's. Two flat lists indexed by DFS number hold the vertex of
    each number and the block of each vertex's tree edge, and reached
    numbers wait on a stack. When a child `x` of `p` finishes with no edge
    from its subtree above `p`, the numbers down to `x`, plus `p`, form one
    component, whose top is `p`; otherwise `x`'s low point lowers `p`'s.
    The edge to the parent may count toward the low point: that only ever
    equals `p`, which still closes the component. Every edge lies in
    exactly one component; size-2 components are exactly the bridges. They
    are listed as they close, unsorted, so `number`, the order of
    `components` and `top`, and the ids in `block_of` depend on the order
    in which neighbours are visited.

    Raises GraphError naming `op` when the pass does not reach every vertex.
    """
    adj = g._adj
    n = g.n
    root = g.vertices[0]
    number = dict.fromkeys(adj)  # sized once; None until reached
    number[root] = 0
    vertex = [root]
    block_of = [-1] * n
    x = lx = 0
    it = iter(adj[root])
    nums: list[int] = []  # the path above x: numbers, low points, iterators
    lows: list[int] = []
    iters: list[Iterator[int]] = []
    reached = [0]
    aps: set[int] = set()
    comps: list[tuple[int, ...]] = []
    tops: list[int] = []
    root_blocks = 0
    while True:
        for w in it:
            k = number[w]
            if k is None:
                nums.append(x)
                lows.append(lx)
                iters.append(it)
                number[w] = x = lx = len(vertex)
                vertex.append(w)
                reached.append(x)
                it = iter(adj[w])
                break
            if k < lx:
                lx = k
        else:
            if not nums:
                break
            p = nums.pop()
            it = iters.pop()
            lp = lows.pop()
            if lx < p:
                if lp < lx:
                    lx = lp
                x = p
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
            if p:
                aps.add(vertex[p])
            else:
                root_blocks += 1
            x = p
            lx = lp
    if len(vertex) != n:
        raise GraphError(f"{op} requires a connected graph")
    if root_blocks > 1:
        aps.add(root)
    return Blocks(aps, comps, tops, number, block_of)


def articulation_points(g: Graph) -> set[int]:
    """Vertices whose removal disconnects the graph."""
    return blocks(g, "articulation_points").articulation_points


def bridges(g: Graph) -> set[Edge]:
    """Edges whose removal disconnects the graph (the non-removable edges)."""
    return {c for c in blocks(g, "bridges").components if len(c) == 2}


def biconnected_components(g: Graph) -> list[frozenset[int]]:
    """Maximal 2-vertex-connected subgraphs as vertex sets, in sorted order."""
    return [frozenset(c) for c in sorted(blocks(g, "biconnected_components").components)]


# ---------------------------------------------------------------------------
# bipartiteness, balls, edge removal

def is_bipartite(g: Graph) -> tuple[set[int], set[int]] | None:
    """Two-color the graph if possible.

    Returns (V1, V2) where, within each connected component, the part holding
    the component's smallest vertex goes to V1. None if an odd cycle exists.
    """
    adj = g._adj
    color: dict[int, int] = {}
    for start in g.vertices:
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        for v in queue:  # grows as the walk goes
            for w in adj[v]:
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
    The search walks `radius` layers, or fewer if the graph ends first, and
    visits no vertex farther out.
    """
    if radius < 0:
        raise GraphError("radius must be non-negative")
    if v not in g:
        raise GraphError(f"unknown vertex {v}")
    adj = g._adj
    inside = {v}
    layer = [v]
    for _ in range(radius):
        if not layer:
            break
        outer = []
        for u in layer:
            for w in adj[u]:
                if w not in inside:
                    inside.add(w)
                    outer.append(w)
        layer = outer
    boundary = {w for w in layer if any(x not in inside for x in adj[w])}
    return induced_subgraph(g, inside), boundary


def induced_subgraph(g: Graph, vs: Iterable[int]) -> Graph:
    """The subgraph on `vs`, read from their own neighbourhoods only."""
    keep = set(vs)
    for v in keep:
        if v not in g:
            raise GraphError(f"unknown vertex {v}")
    es = [(u, w) for u in keep for w in g._adj[u] if u < w and w in keep]
    return Graph(keep, es)


def remove_edges(g: Graph, es: Iterable[Edge]) -> Graph:
    """Copy of `g` with the given edges removed; vertex set unchanged."""
    drop = {edge(u, v) for u, v in es}
    for u, v in drop:
        if not g.has_edge(u, v):
            raise GraphError(f"edge ({u}, {v}) not in graph")
    keep = [e for e in g.edges() if e not in drop]
    return Graph(g.vertices, keep)
