"""The ABC decomposition tree: a mixed block-cut/bridge decomposition.

Tree nodes are of four kinds: articulation points (A), bridges (B),
biconnected components with at least three vertices (C), and pendant
vertices (P). An A-node is adjacent to every C-node whose component
contains it; a B-node is adjacent to the nodes representing its two
endpoints. Interior component vertices that are neither articulation
points nor pendant get no node of their own.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from collections.abc import Iterable

from .graph import Edge, Graph, GraphError, blocks, to_dot

KIND_A = "A"
KIND_B = "B"
KIND_C = "C"
KIND_P = "P"


@dataclass(frozen=True, order=True)
class AbcNode:
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
    """Unrooted decomposition tree over a connected graph."""

    def __init__(self, graph: Graph, nodes: Iterable[AbcNode], edges: Iterable[tuple[AbcNode, AbcNode]]):
        self.graph = graph
        self.nodes: tuple[AbcNode, ...] = tuple(sorted(set(nodes)))
        adj: dict[AbcNode, set[AbcNode]] = {x: set() for x in self.nodes}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        self._adj = {x: tuple(sorted(ns)) for x, ns in adj.items()}

    def neighbors(self, x: AbcNode) -> tuple[AbcNode, ...]:
        return self._adj[x]

    def edges(self) -> list[tuple[AbcNode, AbcNode]]:
        return [(x, y) for x in self.nodes for y in self._adj[x] if x < y]

    def component_nodes(self) -> list[AbcNode]:
        return [x for x in self.nodes if x.kind == KIND_C]


def build_abc_tree(g: Graph, op: str = "build_abc_tree") -> AbcTree:
    """Decompose a connected graph into its ABC tree.

    An isolated single vertex registers as a (degenerate) pendant node so
    that every vertex of the graph appears somewhere in the tree. A
    disconnected graph raises GraphError naming `op`.
    """
    aps, brs, comps = blocks(g, op)
    comps = [c for c in comps if len(c) >= 3]
    pend = {v for v in g.vertices if g.degree(v) <= 1}

    nodes = [AbcNode.articulation(v) for v in sorted(aps)]
    nodes += [AbcNode.bridge(u, v) for u, v in sorted(brs)]
    nodes += [AbcNode.component(c) for c in comps]
    nodes += [AbcNode.pendant(v) for v in sorted(pend)]

    def endpoint_node(v: int) -> AbcNode:
        if v in aps:
            return AbcNode.articulation(v)
        if v in pend:
            return AbcNode.pendant(v)
        raise GraphError(f"bridge endpoint {v} is neither articulation nor pendant")

    tree_edges: list[tuple[AbcNode, AbcNode]] = []
    for c in comps:
        cnode = AbcNode.component(c)
        for v in sorted(c & aps):
            tree_edges.append((AbcNode.articulation(v), cnode))
    for u, v in sorted(brs):
        bnode = AbcNode.bridge(u, v)
        tree_edges.append((bnode, endpoint_node(u)))
        tree_edges.append((bnode, endpoint_node(v)))
    return AbcTree(g, nodes, tree_edges)


class RootedAbcTree:
    """ABC tree oriented toward a chosen component node."""

    def __init__(self, tree: AbcTree, root: AbcNode):
        if root.kind != KIND_C:
            raise GraphError(f"root must be a component node, got {root}")
        if root not in tree._adj:
            raise GraphError(f"{root} is not a node of the tree")
        self.tree = tree
        self.graph = tree.graph
        self.root = root
        parent: dict[AbcNode, AbcNode | None] = {root: None}
        children: dict[AbcNode, list[AbcNode]] = {x: [] for x in tree.nodes}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in tree.neighbors(x):
                if y not in parent:
                    parent[y] = x
                    children[x].append(y)
                    queue.append(y)
        self.parent = parent
        self.children = {x: tuple(ys) for x, ys in children.items()}

    def attachment_point(self, x: AbcNode) -> int:
        """The vertex through which the subtree at `x` meets the rest of the
        graph: `x` itself for A/P nodes, the parent's vertex for B/C nodes.
        """
        if x.kind in (KIND_A, KIND_P):
            return x.vertex
        p = self.parent[x]
        if p is None:
            raise GraphError("the root has no attachment point")
        return p.vertex

    def subtree_nodes(self, x: AbcNode) -> list[AbcNode]:
        """Nodes of the subtree rooted at `x`, parents before children."""
        out = [x]
        i = 0
        while i < len(out):
            out.extend(self.children[out[i]])
            i += 1
        return out

    def postorder(self, x: AbcNode | None = None) -> list[AbcNode]:
        """Subtree nodes with every child preceding its parent."""
        return list(reversed(self.subtree_nodes(x if x is not None else self.root)))


def default_root(t: AbcTree) -> AbcNode:
    """Deterministic root choice: the component whose sorted vertex tuple is
    smallest (ties broken by the full tuple).
    """
    cnodes = t.component_nodes()
    if not cnodes:
        raise GraphError("tree has no component node; the graph is acyclic")
    return min(cnodes, key=lambda x: x.vertices)


def root_at(t: AbcTree, r: AbcNode) -> RootedAbcTree:
    return RootedAbcTree(t, r)


# ---------------------------------------------------------------------------
# rendering

_DOT_SHAPES = {KIND_P: "circle", KIND_A: "diamond", KIND_B: "box", KIND_C: "doublecircle"}
_ROLE_COLORS = {KIND_A: "orange", KIND_P: "lightblue", KIND_C: "palegreen"}


def render_text(rt: RootedAbcTree, annotate=None) -> str:
    """Indented textual rendering of a rooted tree; `annotate(node)` may add
    a suffix per line.
    """
    lines: list[str] = []
    stack = [(rt.root, 0)]
    while stack:
        x, depth = stack.pop()
        suffix = f"  {annotate(x)}" if annotate else ""
        lines.append(f"{'  ' * depth}{x}{suffix}")
        stack.extend((c, depth + 1) for c in reversed(rt.children[x]))
    return "\n".join(lines) + "\n"


def tree_to_dot(t: AbcTree) -> str:
    """Graphviz rendering of the decomposition tree itself."""
    ids = {x: f"n{i}" for i, x in enumerate(t.nodes)}
    out = ["graph abctree {"]
    for x in t.nodes:
        out.append(f'  {ids[x]} [label="{x}" shape={_DOT_SHAPES[x.kind]}];')
    for a, b in t.edges():
        out.append(f"  {ids[a]} -- {ids[b]};")
    out.append("}")
    return "\n".join(out) + "\n"


def decomposition_dot(g: Graph) -> str:
    """DOT export of the graph itself with vertices colored by their role
    (articulation, pendant, large-component member) and bridges dashed.
    """
    aps, brs, comps = blocks(g, "decomposition_dot")
    pend = {v for v in g.vertices if g.degree(v) <= 1}
    in_comp = set().union(*[c for c in comps if len(c) >= 3], set())
    colors: dict[int, str] = {}
    for v in g.vertices:
        if v in aps:
            role = KIND_A
        elif v in pend:
            role = KIND_P
        elif v in in_comp:
            role = KIND_C
        else:
            role = "other"
        if role in _ROLE_COLORS:
            colors[v] = f'style=filled fillcolor={_ROLE_COLORS[role]} xlabel="{role}"'
    dashed = {e: "style=dashed" for e in brs}
    return to_dot(g, name="decomposition", vertex_attrs=colors, edge_attrs=dashed)
