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

The labels live in flat lists indexed by node id, filled in one bottom-up
loop that reads the rooted tree's own flat lists (kinds, vertices,
children, attachment points) and the graph's adjacency, so a search
builds no `AbcNode`. Each node's tags are one int mask of the bits
`PI`..`E`; the A-, B- and P-node rules are arithmetic on the children's
masks. Only component nodes store vertices, as sorted tuples: their
members in the PI (or E) witness and in the PO or PE one. Every other
node's own set follows from the node: an A- or P-node owns its vertex
under PI, a B-node owns its attachment point under PI and its child's
vertex under PO, and nothing else owns anything. A search therefore keeps
no set alive: a witness is read as these tuples, and a set is built only
where the API returns one. One rule (`LabelingRun.witness_parts`) gives
each child's tag; `decide` follows it in one pass down the tree's order
for the answer, and every other witness is assembled from it on demand.

Component nodes settle their constraints through 2-SAT: once edges whose
two ends may both stay out are dropped, membership 2-colors each piece.
Each component's core (pieces, literals and one base formula) is built
once and shared by its PI and PO probes (and its E probe at the root); a
probe solves the base under its one forced literal as an assumption. The
PE probe builds its own core, since covering the attachment point can drop
its edges and change the pieces.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

from .abctree import (
    KIND_A,
    KIND_B,
    KIND_C,
    AbcTree,
    build_abc_tree,
    default_root,
    root_at,
)
from .graph import Graph, in_sorted, is_bipartite
from .twosat import TwoSatFormula, solve

TAG_PI = "PI"
TAG_PO = "PO"
TAG_PE = "PE"
TAG_N = "N"
TAG_E = "E"

# tag bits of a node's mask
PI, PO, PE, N, E = 1, 2, 4, 8, 16
TAG_NAMES = {PI: TAG_PI, PO: TAG_PO, PE: TAG_PE, N: TAG_N, E: TAG_E}

# the read-only view of the labels: node id -> tag name -> own vertices
LabelMap = Mapping[int, Mapping[str, frozenset[int]]]


class InternalLabelingError(RuntimeError):
    """A labeling invariant broke; indicates a bug, not a bad input."""


@dataclass
class LabelingRun:
    """Everything one search produced, kept for inspection and tracing.

    `mask[x]` holds node x's tags. A component node's own members are the
    sorted vertex tuples `own_in[x]` under PI or E and `own_out[x]` under
    PO or PE; both lists hold None for every other node, and for a tag the
    component lacks. An acyclic graph has no tree and no labels.
    """

    rooted: AbcTree | None
    mask: list[int]
    own_in: list[tuple[int, ...] | None]
    own_out: list[tuple[int, ...] | None]
    result: frozenset[int] | None = None

    def own(self, x: int, tag: int) -> tuple[int, ...]:
        """Node x's own vertices under the single tag bit `tag`, sorted: a
        component's stored tuple itself, a 1-tuple of one vertex, or ().
        """
        rt = self.rooted
        kind = rt.kinds[x]
        if kind == KIND_C:
            if tag & (PI | E):
                return self.own_in[x]
            return self.own_out[x] if tag & (PO | PE) else ()
        if tag == PI:
            return (rt.attachment[x],)
        if tag == PO and kind == KIND_B:
            return (rt.attachment[rt.children[x][0]],)
        return ()

    def witness_parts(self, x: int, tag: int) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
        """The parts of node x's witness under the tag bit `tag`: its own
        vertices, and (child, tag bit) per child whose witness joins them.
        A child takes PI if its attachment point is among the own vertices,
        else PO if it has it, else PE; an N node has no parts below it.
        """
        own = self.own(x, tag)
        if tag == N:
            return own, []
        rt = self.rooted
        picks = []
        for child in rt.children[x]:
            m = self.mask[child]
            pick = PI if in_sorted(own, rt.attachment[child]) else PO if m & PO else PE
            if not m & pick:
                raise InternalLabelingError(f"child {rt.nodes[child]} lacks the label needed for its assigned polarity")
            picks.append((child, pick))
        return own, picks

    @cached_property
    def labels(self) -> LabelMap:
        """Per node id, each tag's name and the node's own vertices under it;
        built on first use.
        """
        return MappingProxyType(
            {
                x: MappingProxyType({name: frozenset(self.own(x, bit)) for bit, name in TAG_NAMES.items() if m & bit})
                for x, m in enumerate(self.mask)
            }
        )


def find_rmis(g: Graph) -> frozenset[int] | None:
    """A robust MIS of `g` if one exists, else None. Polynomial time."""
    return run_labeling(g).result


def run_labeling(g: Graph) -> LabelingRun:
    """Run the full search, returning labels and outcome for inspection."""
    tree = build_abc_tree(g, "find_rmis")
    if KIND_C not in tree.kinds:
        # acyclic: every MIS is robust; return one color class of a
        # 2-coloring (the class holding the smallest vertex is never empty)
        v1, _ = is_bipartite(g)  # type: ignore[misc]
        return LabelingRun(None, [], [], [], frozenset(v1))
    run = label_tree(root_at(tree, default_root(tree)))
    run.result = decide(run)
    return run


def decide(run: LabelingRun) -> frozenset[int] | None:
    """The root's E witness, assembled in one pass down the tree's order;
    None on N. A parent sets its children's picks before the pass reaches
    them, and the own vertices gather in one list, made a set at the end.
    """
    rt = run.rooted
    if not run.mask[rt.root] & E:
        return None
    pick = [E] * len(rt.kinds)  # the root keeps E; every other entry is its parent's pick
    witness: list[int] = []
    for x in rt.order:
        own, picks = run.witness_parts(x, pick[x])
        witness += own
        for child, tag in picks:
            pick[child] = tag
    return frozenset(witness)


def all_witnesses(run: LabelingRun) -> dict[int, dict[str, frozenset[int]]]:
    """Every node's witness per tag, its own set plus its picks'; a node that
    adds nothing to its one pick shares that pick's set.
    """
    out: dict[int, dict[str, frozenset[int]]] = {}
    for x in reversed(run.rooted.order):
        out[x] = tags = {}
        for bit, name in TAG_NAMES.items():
            if run.mask[x] & bit:
                own, picks = run.witness_parts(x, bit)
                parts = [out[c][TAG_NAMES[t]] for c, t in picks]
                tags[name] = parts[0] if len(parts) == 1 and parts[0].issuperset(own) else frozenset(own).union(*parts)
    return out


# ---------------------------------------------------------------------------
# bottom-up labeling

def articulation_mask(kids: Iterable[int]) -> int:
    """Articulation point, from its children's masks: its subtrees all share
    the vertex, so a tag holds only when every child supports it. PO
    additionally needs one child that truly covers the vertex from below,
    not just tolerance (PE). An N child makes it N, and so do children that
    share no tag (one offers only PI, another only PO or PE): the vertex can
    then be neither in nor out.
    """
    every = PI | PE  # of these, the tags every child has
    out = PO  # kept while every child has PO or PE
    some = 0
    for m in kids:
        every &= m
        out &= m | m >> 1
        some |= m
    return N if some & N else every | (out & some) or N


def bridge_mask(m: int) -> int:
    """Bridge, from its child's mask: flips the child's verdict across the
    edge. A child that can join pushes the parent endpoint out; a child
    that can stay out (or needs external help) lets the parent endpoint
    join. PE needs a child that can stay out but not join. An N child makes
    it N.
    """
    if m & N:
        return N
    out = (m & PI) << 1  # PI -> PO
    if m & (PO | PE):
        out |= PI
    if m & (PI | PO) == PO:
        out |= PE
    return out


def label_tree(rt: AbcTree) -> LabelingRun:
    """Label every node, children before parents; `result` is left unset.

    A pendant leaf can join, or stay out if its unique neighbor joins
    instead. A component probes its core with the attachment point forced
    in (PI) and forced out (PO). Failing PO, it probes a second core in
    which the attachment point is covered from outside (PE): an external
    neighbor joins, so it reads as PO, which can drop its edges from the
    core. The root has no attachment point; one free probe makes it E. A
    component with an N child, or that no probe satisfies, is N.
    """
    size = len(rt.kinds)
    mask = [0] * size
    own_in: list[tuple[int, ...] | None] = [None] * size
    own_out: list[tuple[int, ...] | None] = [None] * size
    kinds, children, attachment = rt.kinds, rt.children, rt.attachment
    for x in reversed(rt.order):
        kind = kinds[x]
        kids = children[x]
        if kind == KIND_A:
            mask[x] = articulation_mask([mask[c] for c in kids])
        elif kind == KIND_B:
            mask[x] = bridge_mask(mask[kids[0]])
        elif kind != KIND_C:
            mask[x] = PI | PE
        elif any(mask[c] & N for c in kids):
            mask[x] = N
        else:
            core = component_core(rt, x, mask)
            ap = attachment[x]
            if ap is None:
                own_in[x] = witness = test_rmis(core)
                mask[x] = N if witness is None else E
                continue
            m = 0
            own_in[x] = witness = test_rmis(core, ((ap, True),))
            if witness is not None:
                m = PI
            own_out[x] = witness = test_rmis(core, ((ap, False),))
            if witness is not None:
                m |= PO
            else:
                own_out[x] = witness = test_rmis(component_core(rt, x, mask, covered=ap))
                if witness is not None:
                    m |= PE
            mask[x] = m or N
    return LabelingRun(rt, mask, own_in, own_out)


# ---------------------------------------------------------------------------
# per-component constraint solving

class ComponentCore(NamedTuple):
    """A component's constraints before any vertex is forced: the literal
    of each vertex meaning "in" (`2*piece + pol`, as `twosat` numbers
    literals), and the base formula every probe of the component solves.
    """

    vertices: tuple[int, ...]
    literal: dict[int, int]
    base: TwoSatFormula


def component_core(
    rt: AbcTree, x: int, mask: list[int], covered: int | None = None
) -> ComponentCore | None:
    """The constraints of component `x` given its children's masks, or None
    if no membership satisfies them. `covered` names a vertex with a neighbor
    in the set outside the subtree; it reads as PO.

    Edges whose two endpoints both carry PO may have both ends out (each
    side covers itself from below); they are set aside with an at-most-one
    clause. All remaining edges need exactly one endpoint in the set, so
    membership must 2-color every connected piece of what is left (an odd
    cycle gives None): one boolean per piece, plus unit clauses from
    single-tag articulation points.
    """
    comp = rt.vertices[x]
    # the children are the component's articulation points bar the parent,
    # which the bottom-up loop has not labeled yet
    tags = dict.fromkeys(comp, 0)
    attachment = rt.attachment
    for child in rt.children[x]:
        tags[attachment[child]] = mask[child]
    if covered is not None:
        tags[covered] = PO

    # one variable per connected piece of the core, numbered by smallest
    # vertex; the side holding that vertex is the positive side
    adj = rt.graph._adj
    removed: list[tuple[int, int]] = []
    literal: dict[int, int] = {}
    pieces = 0
    for start in comp:
        if start in literal:
            continue
        literal[start] = 2 * pieces + 1
        piece = [start]
        for v in piece:  # grows as the walk goes
            tag = tags[v]
            side = literal[v] ^ 1  # the literal across an edge from v
            nbrs = adj[v]
            if len(nbrs) > len(comp):  # an articulation point: scan the block
                nbrs = [w for w in comp if in_sorted(nbrs, w)]
            for w in nbrs:
                other = tags.get(w)
                if other is None:
                    continue
                if tag & other & PO:
                    if v < w:
                        removed.append((v, w))
                    continue
                lit = literal.get(w)
                if lit is None:
                    literal[w] = side
                    piece.append(w)
                elif lit != side:
                    return None
        pieces += 1
    removed.sort()  # clause order feeds the solver's model

    base = TwoSatFormula(pieces)
    for v in comp:
        tag = tags[v]
        if tag == PI:
            base.add_unit(literal[v])
        elif tag == PO or tag == PE:
            base.add_unit(literal[v] ^ 1)
    for u, v in removed:
        base.add_clause(literal[u] ^ 1, literal[v] ^ 1)
    return ComponentCore(comp, literal, base)


def test_rmis(
    core: ComponentCore | None, forced: Iterable[tuple[int, bool]] = ()
) -> tuple[int, ...] | None:
    """Probe a component's core: whether the subtree at the component admits
    a robust MIS in which each `(vertex, value)` of `forced` is in (True) or
    out (False), and if so the component's members in one, as a sorted
    tuple. The probe solves the core's base formula under one assumed
    literal per forced vertex, in the order given; no core (an odd cycle)
    admits nothing.
    """
    if core is None:
        return None
    literal = core.literal
    assume = []
    for v, value in forced:
        assume.append(literal[v] if value else literal[v] ^ 1)
    assignment = solve(core.base, tuple(assume))
    if assignment is None:
        return None
    members = []
    for v in core.vertices:
        lit = literal[v]
        if assignment[lit >> 1] == lit & 1:
            members.append(v)
    return tuple(members)
