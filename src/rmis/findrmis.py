"""Polynomial search for a robust MIS via the ABC tree.

The graph is decomposed into its ABC tree, rooted at a component node, and
labeled bottom-up. Each label states what the subtree below a node can
offer, always relative to its attachment point (the vertex linking it to
the rest of the graph):

  PI  (possibly in)       a robust MIS of the subtree graph containing the
                          attachment point exists;
  PO  (possibly out)      one avoiding the attachment point exists;
  PE  (possibly external) no PO, but one avoiding the attachment point
                          exists provided an outside neighbor of the
                          attachment point joins the set;
  N   (negative)          none of the above; the whole search fails;
  E   (end)               root-only: a robust MIS of the whole graph.

Every label carries a witness set realizing it. Component nodes resolve
their internal membership constraints through 2-SAT: after dropping edges
whose two endpoints may both stay out, membership must 2-color each
remaining piece, one boolean variable per piece.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass

from .abctree import (
    AbcNode,
    AbcTree,
    KIND_A,
    KIND_B,
    KIND_C,
    RootedAbcTree,
    build_abc_tree,
    default_root,
    root_at,
)
from .graph import Graph, GraphError, is_bipartite
from .twosat import TwoSatFormula, solve

TAG_PI = "PI"
TAG_PO = "PO"
TAG_PE = "PE"
TAG_N = "N"
TAG_E = "E"

# per-node labels: tag -> witness vertex set
LabelSet = dict[str, frozenset[int]]
LabelMap = dict[AbcNode, LabelSet]

_NO_LABELS: LabelSet = {}


class InternalLabelingError(RuntimeError):
    """A labeling invariant broke; indicates a bug, not a bad input."""


@dataclass
class LabelingRun:
    """Everything one search produced, kept for inspection and tracing."""

    graph: Graph
    tree: AbcTree
    rooted: RootedAbcTree | None
    labels: LabelMap
    result: frozenset[int] | None
    tree_case: bool


def find_rmis(g: Graph) -> frozenset[int] | None:
    """A robust MIS of `g` if one exists, else None. Polynomial time."""
    return run_labeling(g).result


def run_labeling(g: Graph) -> LabelingRun:
    """Run the full search, returning labels and outcome for inspection."""
    tree = build_abc_tree(g, "find_rmis")
    if not tree.component_nodes():
        # acyclic: every MIS is robust; return one color class of a
        # 2-coloring (the class holding the smallest vertex is never empty)
        v1, _ = is_bipartite(g)  # type: ignore[misc]
        return LabelingRun(g, tree, None, {}, frozenset(v1), tree_case=True)
    rt = root_at(tree, default_root(tree))
    labels: LabelMap = {}
    for c in rt.children[rt.root]:
        label_subtree(rt, c, labels)
    if any(TAG_N in labels[c] for c in rt.children[rt.root]):
        labels[rt.root] = {TAG_N: frozenset()}
    else:
        witness = test_rmis(rt, rt.root, frozenset(), frozenset(), labels)
        if witness is None:
            labels[rt.root] = {TAG_N: frozenset()}
        else:
            labels[rt.root] = {TAG_E: witness}
    return LabelingRun(g, tree, rt, labels, decide(labels, rt.root), False)


def decide(labels: LabelMap, root: AbcNode) -> frozenset[int] | None:
    """Read the verdict off the root: the E witness, or None on N."""
    return labels.get(root, _NO_LABELS).get(TAG_E)


# ---------------------------------------------------------------------------
# bottom-up labeling

def label_subtree(rt: RootedAbcTree, x: AbcNode, labels: LabelMap) -> None:
    """Label every node of the subtree at `x`, children before parents.

    A node with an N child is N itself; otherwise the rule for its kind
    applies. Pendant leaves can join (their witness is themselves) or stay
    out if their unique neighbor joins instead.
    """
    for node in rt.postorder(x):
        if any(TAG_N in labels[c] for c in rt.children[node]):
            labels[node] = {TAG_N: frozenset()}
        elif node.kind == KIND_A:
            label_node_a(rt, node, labels)
        elif node.kind == KIND_B:
            label_node_b(rt, node, labels)
        elif node.kind == KIND_C:
            label_node_c(rt, node, labels)
        else:
            labels[node] = {TAG_PI: frozenset({node.vertex}), TAG_PE: frozenset()}


def label_node_a(rt: RootedAbcTree, x: AbcNode, labels: LabelMap) -> None:
    """Articulation point: its subtrees all share the vertex, so a tag holds
    only when every child supports it. PO additionally needs one child that
    truly covers the vertex from below, not just tolerance (PE).
    """
    kids = [labels[c] for c in rt.children[x]]
    out = labels.setdefault(x, {})
    if all(TAG_PI in kl for kl in kids):
        out[TAG_PI] = frozenset().union(*(kl[TAG_PI] for kl in kids))
    if all(TAG_PE in kl for kl in kids):
        out[TAG_PE] = frozenset().union(*(kl[TAG_PE] for kl in kids))
    if all(TAG_PO in kl or TAG_PE in kl for kl in kids) and any(
        TAG_PO in kl for kl in kids
    ):
        out[TAG_PO] = frozenset().union(
            *(kl[TAG_PO] if TAG_PO in kl else kl[TAG_PE] for kl in kids)
        )


def label_node_b(rt: RootedAbcTree, x: AbcNode, labels: LabelMap) -> None:
    """Bridge: flips the child's verdict across the edge. A child that can
    join pushes the parent endpoint out; a child that can stay out (or needs
    external help) lets the parent endpoint join. PE is suppressed when PO
    is already present, as the two are mutually exclusive.
    """
    (child,) = rt.children[x]
    kl = labels[child]
    out = labels.setdefault(x, {})
    parent_vertex = rt.attachment_point(x)
    if TAG_PI in kl:
        out[TAG_PO] = kl[TAG_PI]
    if TAG_PO in kl:
        out[TAG_PI] = frozenset({parent_vertex}) | kl[TAG_PO]
        if TAG_PO not in out:
            out[TAG_PE] = kl[TAG_PO]
    if TAG_PE in kl:
        out[TAG_PI] = frozenset({parent_vertex}) | kl[TAG_PE]


def label_node_c(rt: RootedAbcTree, x: AbcNode, labels: LabelMap) -> None:
    """Non-root component: probe with the attachment point forced in (PI),
    forced out (PO), and, failing PO, with the attachment point covered from
    outside (PE): an external neighbor joins, so it reads as PO in the probe.
    """
    parent = rt.parent[x]
    if parent is None:
        raise GraphError("label_node_c does not apply to the root")
    ap = parent.vertex
    out = labels.setdefault(x, {})
    witness = test_rmis(rt, x, frozenset({ap}), frozenset(), labels)
    if witness is not None:
        out[TAG_PI] = witness
    witness = test_rmis(rt, x, frozenset(), frozenset({ap}), labels)
    if witness is not None:
        out[TAG_PO] = witness
    else:
        witness = test_rmis(rt, x, frozenset(), frozenset(), labels, covered=ap)
        if witness is not None:
            out[TAG_PE] = witness
    if not out:
        labels[x] = {TAG_N: frozenset()}


# ---------------------------------------------------------------------------
# per-component constraint solving

def _edges_within(g: Graph, comp: Set[int]) -> list[tuple[int, int]]:
    return [
        (u, w)
        for u in sorted(comp)
        for w in sorted(g.neighbors(u))
        if w in comp and u < w
    ]


def test_rmis(
    rt: RootedAbcTree,
    x: AbcNode,
    in_vertices: frozenset[int],
    out_vertices: frozenset[int],
    labels: LabelMap,
    covered: int | None = None,
) -> frozenset[int] | None:
    """Decide whether the subtree at component `x` admits a robust MIS
    compatible with the forced `in_vertices`/`out_vertices`, and build one.
    `covered` names a vertex with a neighbor in the set outside the subtree;
    it reads as PO.

    Edges whose two endpoints both carry PO may have both ends out (each
    side covers itself from below); they are set aside with an at-most-one
    constraint. All remaining edges need exactly one endpoint in the set,
    so membership must 2-color every connected piece of what is left: one
    boolean per piece, plus unit constraints from single-tag articulation
    points and from the forced vertices.
    """
    comp = x.vertices
    tags = {v: labels.get(AbcNode.articulation(v), _NO_LABELS) for v in comp}
    if covered is not None:
        tags[covered] = {TAG_PO: frozenset()}

    removed: list[tuple[int, int]] = []
    core: dict[int, list[int]] = {v: [] for v in comp}
    for u, v in _edges_within(rt.graph, tags.keys()):
        if TAG_PO in tags[u] and TAG_PO in tags[v]:
            removed.append((u, v))
        else:
            core[u].append(v)
            core[v].append(u)

    # one variable per connected piece of the core, numbered by smallest
    # vertex; the side holding that vertex is the positive side
    literal: dict[int, tuple[int, bool]] = {}
    pieces = 0
    for start in comp:
        if start in literal:
            continue
        literal[start] = (pieces, True)
        stack = [start]
        while stack:
            v = stack.pop()
            side = not literal[v][1]
            for w in core[v]:
                if w not in literal:
                    literal[w] = (pieces, side)
                    stack.append(w)
                elif literal[w][1] != side:
                    return None
        pieces += 1

    def lit(v: int, value: bool) -> tuple[int, bool]:
        var, pol = literal[v]
        return (var, pol if value else not pol)

    formula = TwoSatFormula(pieces)
    for v in comp:
        if len(tags[v]) == 1:
            (tag,) = tags[v]
            if tag == TAG_PI:
                formula.add_unit(lit(v, True))
            elif tag in (TAG_PO, TAG_PE):
                formula.add_unit(lit(v, False))
    for u, v in removed:
        formula.add_clause(lit(u, False), lit(v, False))
    for v in sorted(in_vertices):
        formula.add_unit(lit(v, True))
    for v in sorted(out_vertices):
        formula.add_unit(lit(v, False))

    assignment = solve(formula)
    if assignment is None:
        return None
    members = {v for v in comp if assignment[literal[v][0]] == literal[v][1]}

    witness = set(members)
    for child in rt.children[x]:
        kl = labels[child]
        if child.vertex in members:
            part = kl.get(TAG_PI)
        else:
            part = kl.get(TAG_PO, kl.get(TAG_PE))
        if part is None:
            raise InternalLabelingError(
                f"child {child} lacks the label needed for its assigned polarity"
            )
        witness |= part
    return frozenset(witness)
