"""Shared brute-force oracles and graph corpora.

The oracles here deliberately avoid the library's own algorithms: they work
straight from definitions (delete and re-test, enumerate cycles, enumerate
assignments) so that agreement is meaningful.

The reference implementations at the end are different: they are simpler,
slower versions of library code (the every-node LOCAL engine, the
line-stripping parser, the name-lookup gadget builder, the breadth-first
rooting of an ABC tree, the dict-of-frozensets per-probe labelling, the
implication-graph 2-SAT model on a recursive Tarjan search and the
one-search-per-vertex robustness check), and the library must give exactly
their results.
"""

from __future__ import annotations

import gc
import tracemalloc
from collections import deque
from collections.abc import Iterator
from itertools import combinations
from typing import Any, NamedTuple

import pytest

from rmis.abctree import (
    KIND_A,
    KIND_B,
    KIND_C,
    KIND_P,
    AbcNode,
    AbcTree,
    build_abc_tree,
    default_root,
)
from rmis.findrmis import TAG_E, TAG_N, TAG_PE, TAG_PI, TAG_PO, InternalLabelingError
from rmis.generators import GkInstance
from rmis.graph import (
    Edge,
    EdgeListParseError,
    Graph,
    GraphError,
    induced_subgraph,
    is_bipartite,
    is_connected,
    remove_edges,
)
from rmis.localsim import IdAssignment, NodeProgram, SimResult, SimulationTimeout
from rmis.oracle import is_mis
from rmis.twosat import TwoSatFormula


def evaluate(f: TwoSatFormula, assignment: list[bool]) -> bool:
    """Whether `assignment` (one bool per variable) satisfies every clause,
    each literal `2*var + pol` read as "variable var equals pol".
    """
    assert len(assignment) == f.num_vars, "assignment length mismatch"
    return all(assignment[a // 2] == a % 2 or assignment[b // 2] == b % 2 for a, b in f.clauses)


def diameter(g: Graph) -> int:
    """Longest shortest-path length over all vertex pairs, by a
    breadth-first search of its own from every vertex, so that it judges
    the library's searches without using them.
    """
    best = 0
    for source in g.vertices:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        if len(dist) < g.n:
            raise GraphError("diameter requires a connected graph")
        best = max(best, max(dist.values()))
    return best


def brute_articulation_points(g: Graph) -> set[int]:
    """Definition check: v is an articulation point iff g minus v is disconnected."""
    out = set()
    for v in g.vertices:
        if g.n == 1:
            break
        rest = induced_subgraph(g, set(g.vertices) - {v})
        if not is_connected(rest):
            out.add(v)
    return out


def brute_bridges(g: Graph) -> set[tuple[int, int]]:
    """Definition check: an edge is a bridge iff removing it disconnects g."""
    return {e for e in g.edges() if not is_connected(remove_edges(g, [e]))}


def simple_cycles(g: Graph) -> list[list[int]]:
    """All simple cycles, each reported once (smallest vertex first, second
    vertex smaller than the last to kill direction duplicates).
    """
    cycles = []
    for start in g.vertices:
        stack = [(start, [start])]
        while stack:
            v, path = stack.pop()
            for w in sorted(g.neighbors(v)):
                if w == start and len(path) >= 3 and path[1] < path[-1]:
                    cycles.append(path[:])
                elif w not in path and w > start:
                    stack.append((w, path + [w]))
    return cycles


def brute_biconnected_components(g: Graph) -> list[frozenset[int]]:
    """Pairwise 2-connectivity closure: edges sharing a simple cycle merge
    into one class; the classes' vertex sets are the components.
    """
    edges = list(g.edges())
    idx = {e: i for i, e in enumerate(edges)}
    parent = list(range(len(edges)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    for cyc in simple_cycles(g):
        ring = [
            tuple(sorted((cyc[i], cyc[(i + 1) % len(cyc)]))) for i in range(len(cyc))
        ]
        for e in ring[1:]:
            union(idx[ring[0]], idx[e])
    classes: dict[int, set[int]] = {}
    for e, i in idx.items():
        classes.setdefault(find(i), set()).update(e)
    return sorted((frozenset(c) for c in classes.values()), key=lambda c: tuple(sorted(c)))


def _node_contribution(g: Graph, x: AbcNode) -> tuple[set[int], list[Edge]]:
    if x.kind in (KIND_A, KIND_P):
        return set(x.vertices), []
    if x.kind == KIND_B:
        u, v = x.vertices
        return {u, v}, [(u, v)]
    comp = set(x.vertices)
    return comp, [(u, v) for u, v in g.edges() if u in comp and v in comp]


def induced_subgraph_of_subtree(g: Graph, rt: AbcTree | ReferenceRooting, x: int) -> Graph:
    """Union of the vertex/edge contributions of every node in the subtree
    at node id `x`: A/P contribute a vertex, B its edge, C its component. The
    labelling-soundness checks judge each label against this graph.
    """
    vs: set[int] = set()
    es: list[Edge] = []
    for node in rt.subtree_nodes(x):
        nvs, nes = _node_contribution(g, rt.nodes[node])
        vs |= nvs
        es += nes
    return Graph(vs, es)


def attachment_point(rt: AbcTree | ReferenceRooting, x: int) -> int:
    """The vertex through which the subtree at node id `x` meets the rest of
    the graph: the node's own vertex for A/P nodes, the parent's for B/C
    nodes. Read off the node kinds, not `rt.attachment`.
    """
    node = rt.nodes[x]
    if node.kind in (KIND_A, KIND_P):
        return node.vertices[0]
    p = rt.parent[x]
    if p is None:
        raise GraphError("the root has no attachment point")
    return rt.nodes[p].vertices[0]


def aerial_subgraph_of_subtree(g: Graph, rt: AbcTree | ReferenceRooting, x: int) -> tuple[Graph, int]:
    """Subtree subgraph plus a fresh pendant attached at the attachment
    point. The fresh vertex id is max(g) + 1, so it never collides.
    """
    if rt.parent[x] is None:
        raise GraphError("the root has no attachment point for an aerial vertex")
    sub = induced_subgraph_of_subtree(g, rt, x)
    aerial = max(g.vertices) + 1
    ap = attachment_point(rt, x)
    return Graph(set(sub.vertices) | {aerial}, list(sub.edges()) + [(ap, aerial)]), aerial


def connected_graphs(n: int):
    """Every connected labeled graph on vertices 0..n-1."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if _connected_edges(n, edges):
            yield Graph(range(n), edges)


def _connected_edges(n: int, edges: list[tuple[int, int]]) -> bool:
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    comps = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    return comps == 1


def traced(fn):
    """`fn()`, and the bytes it left allocated and its peak above the start,
    after one full collection.
    """
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        if started:
            tracemalloc.stop()
    return out, retained - before, peak - before


@pytest.fixture(scope="session")
def small_corpus():
    """All connected labeled graphs on at most 6 vertices, with known counts
    per size as a cross-check on the generator itself.
    """
    expected_counts = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
    corpus = []
    for n in range(1, 7):
        batch = list(connected_graphs(n))
        assert len(batch) == expected_counts[n]
        corpus.extend(batch)
    return corpus


def run_sync_every_node(
    g: Graph,
    program: NodeProgram,
    ids: IdAssignment,
    max_rounds: int | None = None,
) -> SimResult:
    """Reference LOCAL engine: every node sends, receives an inbox and
    steps in every round, whatever `program.idle` says. `run_sync` must
    give the same outputs, rounds, per-round message counts and timeouts.
    """
    if set(ids) != set(g.vertices):
        raise GraphError("id assignment must cover exactly the vertex set")
    if len(set(ids.values())) != g.n:
        raise GraphError("id assignment must be injective")
    if any(i < 0 for i in ids.values()):
        raise GraphError("identifiers must be non-negative")
    if not is_connected(g):
        raise GraphError("run_sync requires a connected graph")
    limit = max_rounds if max_rounds is not None else 4 * g.n + 8

    # port p of v leads to its p-th neighbor in order of assigned id
    port_to: dict[int, list[int]] = {
        v: sorted(g.neighbors(v), key=lambda u: ids[u]) for v in g.vertices
    }
    port_from: dict[int, dict[int, int]] = {
        v: {u: p for p, u in enumerate(port_to[v])} for v in g.vertices
    }

    states = {v: program.init(ids[v], g.degree(v)) for v in g.vertices}
    termination: dict[int, int] = {}
    for v in g.vertices:
        if program.output(states[v]) is not None:
            termination[v] = 0
    rounds = 0
    messages_per_round: list[int] = []
    while len(termination) < g.n:
        rounds += 1
        if rounds > limit:
            undecided = [v for v in g.vertices if v not in termination]
            raise SimulationTimeout(limit, undecided)
        outboxes = {v: program.send(states[v]) for v in g.vertices}
        messages_per_round.append(sum(len(msgs) for msgs in outboxes.values()))
        inboxes: dict[int, dict[int, Any]] = {v: {} for v in g.vertices}
        for v, msgs in outboxes.items():
            for port, msg in msgs.items():
                u = port_to[v][port]
                inboxes[u][port_from[u][v]] = msg
        for v in g.vertices:
            states[v] = program.step(states[v], inboxes[v])
        for v in g.vertices:
            if v not in termination and program.output(states[v]) is not None:
                termination[v] = rounds
    outputs = {v: program.output(states[v]) for v in g.vertices}
    rounds_total = max(termination.values()) if termination else 0
    return SimResult(outputs, rounds_total, termination, rounds * g.n, messages_per_round)


def reference_from_edge_list(text: str) -> Graph:
    """Reference edge-list parser: strips each line, then splits it.
    `graph.from_edge_list` must give the same graph or the same error.
    """
    vertices: list[int] = []
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            nums = [int(p) for p in parts]
        except ValueError:
            raise EdgeListParseError(lineno, f"expected integers, got {line!r}") from None
        if any(x < 0 for x in nums):
            raise EdgeListParseError(lineno, f"negative vertex id in {line!r}")
        if len(nums) == 1:
            vertices.append(nums[0])
        elif len(nums) == 2:
            if nums[0] == nums[1]:
                raise EdgeListParseError(lineno, f"self-loop at vertex {nums[0]}")
            edges.append((nums[0], nums[1]))
        else:
            raise EdgeListParseError(lineno, f"expected 1 or 2 integers, got {len(nums)}")
    if not vertices and not edges:
        raise EdgeListParseError(0, "empty edge list")
    return Graph(vertices, edges)


def reference_is_robust_mis(g: Graph, s) -> bool:
    """Reference robustness check: one search per vertex outside the set.
    `oracle.is_robust_mis` must give the same answer or the same error.
    """
    if not is_connected(g):
        raise GraphError("is_robust_mis requires a connected graph")
    members = frozenset(s)
    for v in members:
        if v not in g:
            raise GraphError(f"unknown vertex {v} in candidate set")
    if not is_mis(g, members):
        return False
    for u in g.vertices:
        if u in members:
            continue
        if g.neighbors(u) <= members:
            # u loses all its edges, so the deletion isolates it
            continue
        if _connected_without_cut(g, u, members):
            return False
    return True


def _connected_without_cut(g: Graph, u: int, members: frozenset[int]) -> bool:
    """Connectivity of g after deleting every edge from u into `members`."""
    start = u
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if v == u and w in members:
                continue
            if w == u and v in members:
                continue
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.n


def reference_gen_gk(k: int) -> GkInstance:
    """Reference gadget builder: looks up every edge endpoint by its name.
    `generators.gen_gk` must give an equal instance with the same name order.
    """
    if k < 0:
        raise GraphError("k must be non-negative")
    names: dict[str, int] = {}
    for i in range(k + 1):
        base = 6 * i
        for offset, stem in enumerate(("a", "b", "c", "alpha", "beta", "gamma")):
            names[f"{stem}{i}"] = base + offset

    def v(stem: str, i: int) -> int:
        return names[f"{stem}{i}"]

    edges: list[Edge] = [
        (v("a", 0), v("b", 0)),
        (v("b", 0), v("c", 0)),
        (v("c", 0), v("gamma", 0)),
        (v("gamma", 0), v("beta", 0)),
        (v("beta", 0), v("alpha", 0)),
        (v("alpha", 0), v("a", 0)),
    ]
    for i in range(1, k + 1):
        edges += [
            (v("beta", i - 1), v("alpha", i)),
            (v("beta", i - 1), v("gamma", i)),
            (v("alpha", i), v("beta", i)),
            (v("gamma", i), v("beta", i)),
            (v("b", i - 1), v("a", i)),
            (v("b", i - 1), v("c", i)),
            (v("a", i), v("b", i)),
            (v("c", i), v("b", i)),
        ]
    g = Graph(range(6 * (k + 1)), edges)
    m1 = frozenset(
        names[f"{stem}{i}"] for i in range(k + 1) for stem in ("alpha", "gamma", "b")
    )
    m2 = frozenset(g.vertices) - m1
    return GkInstance(g, names, m1, m2)


def strongly_connected_components(succ: list[list[int]]) -> list[int]:
    """Component index per node of a digraph given as successor lists, in the
    order Tarjan's recursive lowlink search completes them, which is reverse
    topological: nodes are started in increasing order and each successor
    list is read in order. Recursion depth is the longest search path, so
    this judge is for small graphs.
    """
    n = len(succ)
    index: list[int | None] = [None] * n
    low = [0] * n
    comp = [-1] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    num_comps = 0

    def visit(v: int) -> None:
        nonlocal counter, num_comps
        index[v] = low[v] = counter
        counter += 1
        stack.append(v)
        on_stack[v] = True
        for w in succ[v]:
            if index[w] is None:
                visit(w)
                low[v] = min(low[v], low[w])
            elif on_stack[w]:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            while True:
                w = stack.pop()
                on_stack[w] = False
                comp[w] = num_comps
                if w == v:
                    break
            num_comps += 1

    for v in range(n):
        if index[v] is None:
            visit(v)
    return comp


def implication_graph_model(num_vars: int, clauses: list[tuple[int, int]]) -> list[bool] | None:
    """Reference 2-SAT model from the strongly connected components of the
    implication graph, for every list of clauses over `num_vars` variables
    (each literal `2*var + pol`, so node 2v + 1 is v and 2v is not-v):
    `twosat.solve` must return the same assignment, including on formulas
    it settles without the graph.
    """
    succ: list[list[int]] = [[] for _ in range(2 * num_vars)]
    for a, b in clauses:
        not_a = a + 1 if a % 2 == 0 else a - 1
        not_b = b + 1 if b % 2 == 0 else b - 1
        succ[not_a].append(b)
        succ[not_b].append(a)
    comp = strongly_connected_components(succ)
    if any(comp[2 * v] == comp[2 * v + 1] for v in range(num_vars)):
        return None
    return [comp[2 * v + 1] < comp[2 * v] for v in range(num_vars)]


# per-node labels of the reference search: tag -> the node's own vertices
LabelMap = dict[int, dict[str, frozenset[int]]]


class ReferenceRooting(NamedTuple):
    """A rooted ABC tree by node id, as `reference_rooting` builds it."""

    graph: Graph
    nodes: tuple[AbcNode, ...]
    root: int
    parent: list[int | None]
    children: list[tuple[int, ...]]
    attachment: list[int | None]
    order: list[int]  # breadth first from the root

    def subtree_nodes(self, x: int) -> list[int]:
        out = [x]
        for y in out:
            out += self.children[y]
        return out

    def postorder(self) -> list[int]:
        return self.order[::-1]


def reference_rooting(t: AbcTree, r: int) -> ReferenceRooting:
    """Reference rooting: a breadth-first search from node id `r` over the
    tree's edges, with the children of each node sorted and the attachment
    points read off the node kinds, as `attachment_point` does. It takes
    nothing from the tree but its nodes and `t.edges()`, and accepts any
    root; `abctree.root_at` must give the same parents, children and
    attachment points.
    """
    nodes = t.nodes
    nbrs: list[list[int]] = [[] for _ in nodes]
    for x, y in t.edges():
        nbrs[x].append(y)
        nbrs[y].append(x)
    parent: list[int | None] = [None] * len(nodes)
    order = [r]
    for x in order:
        for y in sorted(nbrs[x]):
            if y != r and parent[y] is None:
                parent[y] = x
                order.append(y)
    children = [tuple(sorted(y for y in nbrs[x] if y != parent[x])) for x in range(len(nodes))]
    attachment: list[int | None] = [None] * len(nodes)
    for x in order[1:]:
        owner = x if nodes[x].kind in (KIND_A, KIND_P) else parent[x]
        attachment[x] = nodes[owner].vertices[0]
    return ReferenceRooting(t.graph, nodes, r, parent, children, attachment, order)


class ReferenceRun(NamedTuple):
    rooted: ReferenceRooting | None
    labels: LabelMap
    result: frozenset[int] | None


def reference_labeling(g: Graph) -> ReferenceRun:
    """Reference search: `findrmis.run_labeling` with every label a dict of
    frozensets, the A- and B-node rules written over those dicts, the
    witness walk over them, and every component probe rebuilding the
    component's tags, core and formula on its own. `run_labeling` must give
    the same labels, as its `labels` view, and the same answer.
    """
    tree = build_abc_tree(g, "find_rmis")
    if KIND_C not in tree.kinds:
        v1, _ = is_bipartite(g)  # type: ignore[misc]
        return ReferenceRun(None, {}, frozenset(v1))
    rt = reference_rooting(tree, default_root(tree))
    labels: LabelMap = {}
    for node in rt.postorder():
        kind = rt.nodes[node].kind
        if any(TAG_N in labels[c] for c in rt.children[node]):
            labels[node] = {TAG_N: frozenset()}
        elif kind == KIND_A:
            labels[node] = reference_label_a([labels[c] for c in rt.children[node]], rt.nodes[node].vertices[0])
        elif kind == KIND_B:
            (child,) = rt.children[node]
            labels[node] = reference_label_b(labels[child], attachment_point(rt, node), rt.nodes[child].vertices[0])
        elif kind == KIND_C:
            _reference_label_node_c(rt, node, labels)
        else:
            labels[node] = {TAG_PI: frozenset({rt.nodes[node].vertices[0]}), TAG_PE: frozenset()}
    return ReferenceRun(rt, labels, _reference_decide(rt, labels))


def reference_label_a(kids: list[dict[str, frozenset[int]]], vertex: int) -> dict[str, frozenset[int]]:
    """Articulation point `vertex` from its children's labels: a tag holds
    when every child supports it; PO also needs one child with PO. Children
    that leave no tag standing make it N."""
    out = {}
    if all(TAG_PI in kl for kl in kids):
        out[TAG_PI] = frozenset({vertex})
    if all(TAG_PE in kl for kl in kids):
        out[TAG_PE] = frozenset()
    if all(TAG_PO in kl or TAG_PE in kl for kl in kids) and any(TAG_PO in kl for kl in kids):
        out[TAG_PO] = frozenset()
    return out or {TAG_N: frozenset()}


def reference_label_b(kl: dict[str, frozenset[int]], ap: int, child_vertex: int) -> dict[str, frozenset[int]]:
    """Bridge from its child's label: PO (owning the child's vertex) on a
    PI child, PI (owning `ap`) on a PO or PE child, and PE on a PO child
    that lacks PI."""
    out = {}
    if TAG_PI in kl:
        out[TAG_PO] = frozenset({child_vertex})
    if TAG_PO in kl or TAG_PE in kl:
        out[TAG_PI] = frozenset({ap})
        if TAG_PO in kl and TAG_PO not in out:
            out[TAG_PE] = frozenset()
    return out


def _reference_picks(rt: ReferenceRooting, labels: LabelMap, x: int, tag: str) -> Iterator[tuple[int, str]]:
    for child in rt.children[x] if tag != TAG_N else ():
        kl = labels[child]
        if attachment_point(rt, child) in labels[x][tag]:
            pick = TAG_PI
        else:
            pick = TAG_PO if TAG_PO in kl else TAG_PE
        if pick not in kl:
            raise InternalLabelingError(f"child {rt.nodes[child]} lacks the label needed for its assigned polarity")
        yield child, pick


def _reference_decide(rt: ReferenceRooting, labels: LabelMap) -> frozenset[int] | None:
    if TAG_E not in labels[rt.root]:
        return None
    witness: set[int] = set()
    stack = [(rt.root, TAG_E)]
    while stack:
        x, tag = stack.pop()
        witness |= labels[x][tag]
        stack += _reference_picks(rt, labels, x, tag)
    return frozenset(witness)


def _reference_label_node_c(rt: ReferenceRooting, x: int, labels: LabelMap) -> None:
    out = labels.setdefault(x, {})
    parent = rt.parent[x]
    if parent is None:
        witness = _reference_probe(rt, x, frozenset(), frozenset(), labels)
        if witness is not None:
            out[TAG_E] = witness
    else:
        ap = rt.nodes[parent].vertices[0]
        witness = _reference_probe(rt, x, frozenset({ap}), frozenset(), labels)
        if witness is not None:
            out[TAG_PI] = witness
        witness = _reference_probe(rt, x, frozenset(), frozenset({ap}), labels)
        if witness is not None:
            out[TAG_PO] = witness
        else:
            witness = _reference_probe(rt, x, frozenset(), frozenset(), labels, covered=ap)
            if witness is not None:
                out[TAG_PE] = witness
    if not out:
        labels[x] = {TAG_N: frozenset()}


def _reference_probe(
    rt: ReferenceRooting,
    x: int,
    in_vertices: frozenset[int],
    out_vertices: frozenset[int],
    labels: LabelMap,
    covered: int | None = None,
) -> frozenset[int] | None:
    comp = rt.nodes[x].vertices
    tags: dict[int, dict] = dict.fromkeys(comp, {})
    for child in rt.children[x]:
        tags[rt.nodes[child].vertices[0]] = labels[child]
    if covered is not None:
        tags[covered] = {TAG_PO: frozenset()}

    removed: list[tuple[int, int]] = []
    core: dict[int, list[int]] = {v: [] for v in comp}
    for u in comp:
        for v in rt.graph.neighbors(u):
            if u < v and v in tags:
                if TAG_PO in tags[u] and TAG_PO in tags[v]:
                    removed.append((u, v))
                else:
                    core[u].append(v)
                    core[v].append(u)
    removed.sort()

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

    def lit(v: int, value: bool) -> int:
        # the solver's literal: 2*var + 1 for var true, 2*var for var false
        var, pol = literal[v]
        return 2 * var + (pol if value else not pol)

    clauses: list[tuple[int, int]] = []
    for v in comp:
        if len(tags[v]) == 1:
            (tag,) = tags[v]
            if tag == TAG_PI:
                clauses.append((lit(v, True), lit(v, True)))
            elif tag in (TAG_PO, TAG_PE):
                clauses.append((lit(v, False), lit(v, False)))
    for u, v in removed:
        clauses.append((lit(u, False), lit(v, False)))
    for v in sorted(in_vertices):
        clauses.append((lit(v, True), lit(v, True)))
    for v in sorted(out_vertices):
        clauses.append((lit(v, False), lit(v, False)))

    assignment = implication_graph_model(pieces, clauses)
    if assignment is None:
        return None
    return frozenset(v for v in comp if assignment[literal[v][0]] == literal[v][1])
