"""The ABC decomposition tree: a mixed block-cut/bridge decomposition.

Tree nodes are of four kinds: articulation points (A), bridges (B),
biconnected components with at least three vertices (C), and pendant
vertices (P). An A-node is adjacent to every C-node whose component
contains it; a B-node is adjacent to the nodes representing its two
endpoints. Interior component vertices that are neither articulation
points nor pendant get no node of their own.

Nodes are numbered 0..N-1 in sorted `AbcNode` order, and the tree, its
rooting and the labels all work on these ids; node `i` is `nodes[i]`.
Rooting fills per-node lists by id: each node's parent, its children and
its attachment point, the vertex its subtree shares with the rest of the
graph, which the search's tag masks are relative to.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from typing import NamedTuple

from .graph import Edge, Graph, GraphError, blocks, to_dot

KIND_A = "A"
KIND_B = "B"
KIND_C = "C"
KIND_P = "P"


class AbcNode(NamedTuple):
    kind: str
    vertices: tuple[int, ...]

    @classmethod
    def articulation(cls, v: int) -> AbcNode:
        return cls(KIND_A, (v,))

    @classmethod
    def bridge(cls, u: int, v: int) -> AbcNode:
        return cls(KIND_B, (u, v) if u < v else (v, u))

    @classmethod
    def component(cls, vs: Iterable[int]) -> AbcNode:
        return cls(KIND_C, tuple(sorted(vs)))

    @classmethod
    def pendant(cls, v: int) -> AbcNode:
        return cls(KIND_P, (v,))

    @property
    def vertex(self) -> int:
        """The represented vertex; only for A- and P-nodes."""
        if self.kind not in (KIND_A, KIND_P):
            raise GraphError(f"{self} does not represent a single vertex")
        return self.vertices[0]

    @property
    def edge(self) -> Edge:
        if self.kind != KIND_B:
            raise GraphError(f"{self} is not a bridge node")
        return self.vertices  # type: ignore[return-value]

    def __str__(self) -> str:
        return f"{self.kind}({','.join(map(str, self.vertices))})"


class AbcTree:
    """Unrooted decomposition tree over a connected graph.

    Node `i` is `nodes[i]`. Ids follow the sorted node order (A-, then B-,
    C- and P-nodes, each sorted by vertices), so sorting ids sorts nodes.
    """

    def __init__(self, graph: Graph, nodes: Iterable[AbcNode], edges: Iterable[tuple[int, int]]):
        self.graph = graph
        self.nodes: tuple[AbcNode, ...] = tuple(nodes)
        adj: list[list[int]] = [[] for _ in self.nodes]
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        self._adj = [tuple(sorted(ns)) for ns in adj]

    def neighbors(self, x: int) -> tuple[int, ...]:
        return self._adj[x]

    def edges(self) -> list[tuple[int, int]]:
        return [(x, y) for x, ys in enumerate(self._adj) for y in ys if x < y]

    def component_nodes(self) -> list[int]:
        return [i for i, x in enumerate(self.nodes) if x.kind == KIND_C]


def build_abc_tree(g: Graph, op: str = "build_abc_tree") -> AbcTree:
    """Decompose a connected graph into its ABC tree.

    An isolated single vertex registers as a (degenerate) pendant node so
    that every vertex of the graph appears somewhere in the tree. A
    disconnected graph raises GraphError naming `op`.
    """
    aps, brs, comps, _ = blocks(g, op)
    comps = [c for c in comps if len(c) >= 3]  # sorted by vertices already
    brs = sorted(brs)
    pend = sorted(v for v in g.vertices if g.degree(v) <= 1)

    nodes = [AbcNode.articulation(v) for v in sorted(aps)]
    nodes += [AbcNode.bridge(u, v) for u, v in brs]
    nodes += [AbcNode.component(c) for c in comps]
    nodes += [AbcNode.pendant(v) for v in pend]
    # a bridge endpoint is an articulation point or a pendant, never both
    single = {x.vertices[0]: i for i, x in enumerate(nodes) if x.kind in (KIND_A, KIND_P)}

    tree_edges: list[tuple[int, int]] = []
    for i, c in enumerate(comps, len(aps) + len(brs)):
        tree_edges += [(single[v], i) for v in sorted(c & aps)]
    for i, (u, v) in enumerate(brs, len(aps)):
        tree_edges += [(i, single[u]), (i, single[v])]
    return AbcTree(g, nodes, tree_edges)


class RootedAbcTree:
    """ABC tree oriented toward a chosen component node, by node id."""

    def __init__(self, tree: AbcTree, root: int):
        if not 0 <= root < len(tree.nodes):
            raise GraphError(f"{root} is not a node id of the tree")
        if tree.nodes[root].kind != KIND_C:
            raise GraphError(f"root must be a component node, got {tree.nodes[root]}")
        nodes = self.nodes = tree.nodes
        self.graph = tree.graph
        self.root = root
        # a tree: every neighbour but the parent is a child
        parent: list[int | None] = [None] * len(nodes)
        children: list[tuple[int, ...]] = [()] * len(nodes)
        # the vertex through which the subtree at a node meets the rest of
        # the graph: its own for A/P nodes, the parent's for B/C nodes (whose
        # parent is an A-node); the root has none
        attachment: list[int | None] = [None] * len(nodes)
        queue = deque([root])
        while queue:
            x = queue.popleft()
            up = parent[x]
            children[x] = kids = tuple([y for y in tree.neighbors(x) if y != up])
            if nodes[x].kind == KIND_A:
                vertex = nodes[x].vertices[0]
                for y in kids:
                    parent[y] = x
                    attachment[y] = vertex
            else:
                for y in kids:
                    parent[y] = x
                    attachment[y] = nodes[y].vertices[0]
            queue.extend(kids)
        self.parent, self.children, self.attachment = parent, children, attachment

    def subtree_nodes(self, x: int) -> list[int]:
        """Nodes of the subtree rooted at `x`, parents before children."""
        out = [x]
        i = 0
        while i < len(out):
            out.extend(self.children[out[i]])
            i += 1
        return out

    def postorder(self, x: int | None = None) -> list[int]:
        """Subtree nodes with every child preceding its parent."""
        return list(reversed(self.subtree_nodes(x if x is not None else self.root)))


def default_root(t: AbcTree) -> int:
    """Deterministic root choice: the component whose sorted vertex tuple is
    smallest, which is the first component id.
    """
    cnodes = t.component_nodes()
    if not cnodes:
        raise GraphError("tree has no component node; the graph is acyclic")
    return cnodes[0]


def root_at(t: AbcTree, r: int) -> RootedAbcTree:
    return RootedAbcTree(t, r)


# ---------------------------------------------------------------------------
# rendering

_DOT_SHAPES = {KIND_P: "circle", KIND_A: "diamond", KIND_B: "box", KIND_C: "doublecircle"}
_ROLE_COLORS = {KIND_A: "orange", KIND_P: "lightblue", KIND_C: "palegreen"}


def render_text(rt: RootedAbcTree, annotate=None) -> str:
    """Indented textual rendering of a rooted tree; `annotate(id)` may add
    a suffix per line.
    """
    lines: list[str] = []
    stack = [(rt.root, 0)]
    while stack:
        x, depth = stack.pop()
        suffix = f"  {annotate(x)}" if annotate else ""
        lines.append(f"{'  ' * depth}{rt.nodes[x]}{suffix}")
        stack.extend((c, depth + 1) for c in reversed(rt.children[x]))
    return "\n".join(lines) + "\n"


def tree_to_dot(t: AbcTree) -> str:
    """Graphviz rendering of the decomposition tree itself."""
    out = ["graph abctree {"]
    for i, x in enumerate(t.nodes):
        out.append(f'  n{i} [label="{x}" shape={_DOT_SHAPES[x.kind]}];')
    for a, b in t.edges():
        out.append(f"  n{a} -- n{b};")
    out.append("}")
    return "\n".join(out) + "\n"


def decomposition_dot(t: AbcTree) -> str:
    """DOT export of the tree's graph with vertices colored by their role
    (articulation, pendant, large-component member) and bridges dashed.
    """
    roles: dict[int, str] = {}
    for x in t.nodes:  # A-nodes sort first, so an articulation point keeps A
        if x.kind in _ROLE_COLORS:
            for v in x.vertices:
                roles.setdefault(v, x.kind)
    colors = {v: f'style=filled fillcolor={_ROLE_COLORS[r]} xlabel="{r}"' for v, r in roles.items()}
    dashed = {x.edge: "style=dashed" for x in t.nodes if x.kind == KIND_B}
    return to_dot(t.graph, name="decomposition", vertex_attrs=colors, edge_attrs=dashed)
