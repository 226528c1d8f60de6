"""The ABC decomposition tree: a mixed block-cut/bridge decomposition.

Tree nodes are of four kinds: articulation points (A), bridges (B),
biconnected components with at least three vertices (C), and pendant
vertices (P). An A-node is adjacent to every C-node whose component
contains it; a B-node is adjacent to the nodes representing its two
endpoints. Interior component vertices that are neither articulation
points nor pendant get no node of their own.

Nodes are numbered 0..N-1 in sorted `AbcNode` order, and the tree and the
labels work on these ids. There is one tree, and it is rooted: flat
per-node lists by id hold `kinds[i]`, `vertices[i]` (a sorted vertex
tuple) and `parent[i]`, and the children, attachment points and order
follow from the parents. The attachment point is the vertex a node's
subtree shares with the rest of the graph, which the search's tag masks
are relative to. The parents come straight from the block pass: a block
hangs off the node of its top vertex, the member the pass reached first,
and every other member's node hangs off the block. Re-rooting reverses the
one parent path from the new root to the old. `AbcNode` values serve
output and inspection only: `nodes[i]` is built from the lists on first
read.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property
from itertools import groupby, islice
from typing import NamedTuple

from .graph import Graph, GraphError, blocks, to_dot

KIND_A = "A"
KIND_B = "B"
KIND_C = "C"
KIND_P = "P"


class AbcNode(NamedTuple):
    kind: str
    vertices: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.kind}({','.join(map(str, self.vertices))})"


class AbcTree:
    """Rooted decomposition tree over a connected graph, by node id.

    Ids follow the sorted node order (A-, then B-, C- and P-nodes, each
    sorted by vertices), so sorting ids sorts nodes. `parent[i]` is None
    only at `root`. The other lists follow from it: `children[i]` in
    increasing id order; `attachment[i]`, the parent's vertex under an A-
    or P-node and the node's own vertex otherwise (None at the root); and
    `order`, breadth first from the root, parents first: the tree's one
    walk, which a bottom-up pass reads reversed. The constructor's `ids[i]`
    is the int object for id i, and every list holds these objects, so
    each id is one object.
    """

    def __init__(
        self, graph: Graph, kinds: list[str], vertices: list[tuple[int, ...]], parent: list[int | None], ids: list[int]
    ):
        self.graph, self.kinds, self.vertices, self.parent = graph, kinds, vertices, parent
        self.root = root = ids[parent.index(None)]
        size = len(kinds)
        children: list[tuple[int, ...]] = [()] * size
        attachment: list[int | None] = [None] * size
        # a stable sort of the other ids by parent groups each node's
        # children in increasing id order
        below = ids.copy()
        del below[root]
        below.sort(key=parent.__getitem__)
        for p, group in groupby(below, parent.__getitem__):
            children[p] = kids = tuple(group)
            if kinds[p] in (KIND_A, KIND_P):
                vertex = vertices[p][0]
                for x in kids:
                    attachment[x] = vertex
            else:  # a block's children are A- and P-nodes
                for x in kids:
                    attachment[x] = vertices[x][0]
        self.children, self.attachment = children, attachment
        self.order = self.subtree_nodes(root)

    @cached_property
    def nodes(self) -> tuple[AbcNode, ...]:
        return tuple(map(AbcNode, self.kinds, self.vertices))

    def edges(self) -> list[tuple[int, int]]:
        """Every tree edge as a sorted id pair, in sorted order."""
        return sorted((x, y) if x < y else (y, x) for x, y in enumerate(self.parent) if y is not None)

    def subtree_nodes(self, x: int) -> list[int]:
        """Nodes of the subtree rooted at `x`, parents before children."""
        out = [x]
        for y in out:
            out += self.children[y]
        return out


def build_abc_tree(g: Graph, op: str = "build_abc_tree") -> AbcTree:
    """Decompose a connected graph into its ABC tree, rooted at
    `default_root`, or where the block pass started if the graph is acyclic.

    The block pass roots the tree at its start vertex: each block hangs off
    the node of its top vertex (the block whose top has no node is the
    root), and every other member's A- or P-node hangs off the block.
    Reversing the one parent path to the default root then re-roots it.

    An isolated single vertex registers as a (degenerate) pendant node so
    that every vertex of the graph appears somewhere in the tree. A
    disconnected graph raises GraphError naming `op`. The block-pass result
    is dropped once its components and tops are taken, so the tree's lists
    are built without its per-vertex state alive. Node ids follow sorted
    block order, so the blocks, which the pass lists as it closes them, are
    sorted here and nowhere else.
    """
    found = blocks(g, op)
    arts = sorted(found.articulation_points)
    comps, tops = found.components, found.top  # sorted tuples, in closing order
    del found
    order = sorted(range(len(comps)), key=comps.__getitem__)
    comps, tops = list(map(comps.__getitem__, order)), list(map(tops.__getitem__, order))
    bridges = [c for c in comps if len(c) == 2]
    members = [c for c in comps if len(c) >= 3]
    adj = g._adj
    pend = [v for v in g.vertices if len(adj[v]) <= 1]
    kinds = [KIND_A] * len(arts) + [KIND_B] * len(bridges) + [KIND_C] * len(members) + [KIND_P] * len(pend)
    vertices = [(v,) for v in arts] + bridges + members + [(v,) for v in pend]
    ids = list(range(len(kinds)))
    first_c = len(arts) + len(bridges)
    bridge_ids, component_ids = islice(ids, len(arts), first_c), islice(ids, first_c, None)
    # a block member with a node is an articulation point or a pendant,
    # never both: a pendant lies in one bridge only
    single = dict(zip(arts, ids))
    single.update(zip(pend, islice(ids, first_c + len(members), None)))
    parent: list[int | None] = [None] * len(kinds)
    for comp, top in zip(comps, tops):
        i = next(bridge_ids if len(comp) == 2 else component_ids)
        parent[i] = single.get(top)
        for v in comp:
            if v != top:
                x = single.get(v)
                if x is not None:
                    parent[x] = i
    del comps, tops, single, order
    if members:
        _reroot(parent, ids[first_c])
    return AbcTree(g, kinds, vertices, parent, ids)


def _reroot(parent: list[int | None], r: int) -> None:
    """Make `r` the root by reversing the parent path from `r` to the root."""
    below = None
    while r is not None:
        up = parent[r]
        parent[r] = below
        below, r = r, up


def default_root(t: AbcTree) -> int:
    """Deterministic root choice: the component whose sorted vertex tuple is
    smallest, which is the first component id.
    """
    try:
        return t.kinds.index(KIND_C)
    except ValueError:
        raise GraphError("tree has no component node; the graph is acyclic") from None


def root_at(t: AbcTree, r: int) -> AbcTree:
    """The tree rooted at component node `r`: `t` itself if `r` is its root,
    else a tree sharing `t`'s node lists whose parents are a copy of `t`'s
    with the path from `r` to the old root reversed.
    """
    kinds = t.kinds
    if not 0 <= r < len(kinds):
        raise GraphError(f"{r} is not a node id of the tree")
    if kinds[r] != KIND_C:
        raise GraphError(f"root must be a component node, got {t.nodes[r]}")
    if r == t.root:
        return t
    parent = t.parent.copy()
    ids = sorted(t.order)
    _reroot(parent, ids[r])
    return AbcTree(t.graph, kinds, t.vertices, parent, ids)


# ---------------------------------------------------------------------------
# rendering

_DOT_SHAPES = {KIND_P: "circle", KIND_A: "diamond", KIND_B: "box", KIND_C: "doublecircle"}
_ROLE_COLORS = {KIND_A: "orange", KIND_P: "lightblue", KIND_C: "palegreen"}


def render_text(rt: AbcTree, annotate=None) -> Iterator[str]:
    """Indented textual rendering of a rooted tree, one newline-terminated
    line at a time, so a writer need not hold the whole text; `annotate(id)`
    may add a suffix per line.
    """
    stack = [(rt.root, 0)]
    while stack:
        x, depth = stack.pop()
        suffix = f"  {annotate(x)}" if annotate else ""
        yield f"{'  ' * depth}{rt.nodes[x]}{suffix}\n"
        stack.extend((c, depth + 1) for c in reversed(rt.children[x]))


def tree_to_dot(t: AbcTree) -> str:
    """Graphviz rendering of the decomposition tree itself, labelled as
    `AbcNode` prints, straight from the kind and vertex lists.
    """
    out = ["graph abctree {"]
    for i, (kind, vs) in enumerate(zip(t.kinds, t.vertices)):
        label = ",".join(map(str, vs))
        out.append(f'  n{i} [label="{kind}({label})" shape={_DOT_SHAPES[kind]}];')
    out += [f"  n{a} -- n{b};" for a, b in t.edges()]
    out.append("}")
    return "\n".join(out) + "\n"


def decomposition_dot(t: AbcTree) -> str:
    """DOT export of the tree's graph with vertices colored by their role
    (articulation, pendant, large-component member) and bridges dashed.
    """
    roles: dict[int, str] = {}
    dashed: dict[tuple[int, ...], str] = {}
    # A-nodes sort first, so an articulation point keeps A
    for kind, vs in zip(t.kinds, t.vertices):
        if kind in _ROLE_COLORS:
            for v in vs:
                roles.setdefault(v, kind)
        elif kind == KIND_B:
            dashed[vs] = "style=dashed"
    colors = {v: f'style=filled fillcolor={_ROLE_COLORS[r]} xlabel="{r}"' for v, r in roles.items()}
    return to_dot(t.graph, name="decomposition", vertex_attrs=colors, edge_attrs=dashed)
