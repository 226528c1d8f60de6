"""The ABC decomposition tree: a mixed block-cut/bridge decomposition.

Tree nodes are of four kinds: articulation points (A), bridges (B),
biconnected components with at least three vertices (C), and pendant
vertices (P). An A-node is adjacent to every C-node whose component
contains it; a B-node is adjacent to the nodes representing its two
endpoints. Interior component vertices that are neither articulation
points nor pendant get no node of their own.

Nodes are numbered 0..N-1 in sorted `AbcNode` order, and the tree, its
rooting and the labels all work on these ids. The tree is flat per-node
lists by id: `kinds[i]` and `vertices[i]` (a sorted vertex tuple), plus
each node's neighbour ids. Rooting fills further lists: each node's
parent, its children and its attachment point, the vertex its subtree
shares with the rest of the graph, which the search's tag masks are
relative to, and keeps the breadth-first order it walked. `AbcNode`
values serve output and inspection only: `nodes[i]` is built from the
lists on first read.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property
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


class _TreeNodes:
    """Per-node lists by id, shared by a tree and its rootings: `kinds[i]` and
    `vertices[i]` are node i's kind and sorted vertex tuple. The `AbcNode`
    of each id is built on first read of `nodes`, for output and inspection.
    """

    def __init__(self, graph: Graph, kinds: list[str], vertices: list[tuple[int, ...]]):
        self.graph = graph
        self.kinds = kinds
        self.vertices = vertices

    @cached_property
    def nodes(self) -> tuple[AbcNode, ...]:
        return tuple(map(AbcNode, self.kinds, self.vertices))


class AbcTree(_TreeNodes):
    """Unrooted decomposition tree over a connected graph.

    Ids follow the sorted node order (A-, then B-, C- and P-nodes, each
    sorted by vertices), so sorting ids sorts nodes. Each node's neighbours
    are listed in increasing id order.
    """

    def __init__(
        self, graph: Graph, kinds: list[str], vertices: list[tuple[int, ...]], adjacency: list[list[int]]
    ):
        super().__init__(graph, kinds, vertices)
        self._adj = adjacency

    def component_nodes(self) -> list[int]:
        return [i for i, kind in enumerate(self.kinds) if kind == KIND_C]

    def edges(self) -> list[tuple[int, int]]:
        return [(x, y) for x, ys in enumerate(self._adj) for y in ys if x < y]


def build_abc_tree(g: Graph, op: str = "build_abc_tree") -> AbcTree:
    """Decompose a connected graph into its ABC tree.

    An isolated single vertex registers as a (degenerate) pendant node so
    that every vertex of the graph appears somewhere in the tree. A
    disconnected graph raises GraphError naming `op`.

    The block pass's sets are freed as soon as their sorted lists exist, so
    the tree's lists are built without them alive.
    """
    found = blocks(g, op)
    arts = sorted(found.articulation_points)
    bridges = sorted(found.bridges)
    members = [c for c in found.components if len(c) >= 3]  # sorted tuples, in sorted order
    del found
    adj = g._adj
    pend = [v for v in g.vertices if len(adj[v]) <= 1]
    kinds = [KIND_A] * len(arts) + [KIND_B] * len(bridges) + [KIND_C] * len(members) + [KIND_P] * len(pend)
    vertices = [(v,) for v in arts] + bridges + members + [(v,) for v in pend]
    first_c = len(arts) + len(bridges)
    # a bridge endpoint is an articulation point or a pendant, never both
    single = {v: i for i, v in enumerate(arts)}
    single.update({v: i for i, v in enumerate(pend, first_c + len(members))})

    # bridges, then components, each in id order: every neighbour list comes
    # out sorted, as B-nodes sort before C-nodes and A-nodes before P-nodes
    adjacency: list[list[int]] = [[] for _ in kinds]
    for i, (u, v) in enumerate(bridges, len(arts)):
        a, b = single[u], single[v]
        adjacency[i] = [a, b] if a < b else [b, a]
        adjacency[a].append(i)
        adjacency[b].append(i)
    # a component vertex in `single` is an articulation point: a pendant
    # has degree 1 and lies in no component
    for i, c in enumerate(members, first_c):
        for v in c:
            a = single.get(v)
            if a is not None:
                adjacency[i].append(a)
                adjacency[a].append(i)
    return AbcTree(g, kinds, vertices, adjacency)


class RootedAbcTree(_TreeNodes):
    """ABC tree oriented toward a chosen component node, by node id.

    Rooting fills, per id, the parent (None at the root), the children in
    increasing id order, and the attachment point: the vertex through which
    the subtree at the node meets the rest of the graph (None at the root).
    `order` is the breadth-first order from the root, parents first. The
    rooted tree shares the unrooted tree's node lists, not its adjacency.
    """

    def __init__(self, tree: AbcTree, root: int):
        kinds = tree.kinds
        if not 0 <= root < len(kinds):
            raise GraphError(f"{root} is not a node id of the tree")
        if kinds[root] != KIND_C:
            raise GraphError(f"root must be a component node, got {tree.nodes[root]}")
        super().__init__(tree.graph, kinds, tree.vertices)
        self.root = root
        vertices, adjacency = self.vertices, tree._adj
        size = len(kinds)
        parent: list[int | None] = [None] * size
        children: list[tuple[int, ...]] = [()] * size
        # an A-node's subtrees meet the rest at its vertex; a B- or C-node's
        # children are A- or P-nodes, each attached at its own vertex
        attachment: list[int | None] = [None] * size
        order = [root]
        for x in order:  # grows as the walk goes
            up = parent[x]
            children[x] = kids = tuple([y for y in adjacency[x] if y != up])
            if kinds[x] == KIND_A:
                vertex = vertices[x][0]
                for y in kids:
                    parent[y] = x
                    attachment[y] = vertex
            else:
                for y in kids:
                    parent[y] = x
                    attachment[y] = vertices[y][0]
            order += kids
        self.parent, self.children, self.attachment, self.order = parent, children, attachment, order

    def subtree_nodes(self, x: int) -> list[int]:
        """Nodes of the subtree rooted at `x`, parents before children."""
        out = [x]
        for y in out:
            out += self.children[y]
        return out

    def postorder(self) -> list[int]:
        """All nodes with every child preceding its parent."""
        return self.order[::-1]


def default_root(t: AbcTree) -> int:
    """Deterministic root choice: the component whose sorted vertex tuple is
    smallest, which is the first component id.
    """
    try:
        return t.kinds.index(KIND_C)
    except ValueError:
        raise GraphError("tree has no component node; the graph is acyclic") from None


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
