import gc
import random
import timeit
from dataclasses import replace

import pytest

from rmis import findrmis
from rmis.abctree import (
    KIND_A,
    KIND_B,
    KIND_C,
    KIND_P,
    AbcNode,
    build_abc_tree,
    root_at,
)
from rmis.findrmis import (
    E,
    N,
    PE,
    PI,
    PO,
    TAG_E,
    TAG_N,
    TAG_PE,
    TAG_PI,
    TAG_PO,
    InternalLabelingError,
    LabelingRun,
    all_witnesses,
    articulation_mask,
    bridge_mask,
    component_core,
    decide,
    find_rmis,
    label_tree,
    run_labeling,
)
from rmis.findrmis import test_rmis as component_probe  # alias keeps pytest from collecting it
from rmis.graph import Graph, GraphError, from_edge_list, to_edge_list
from rmis.classify import in_rmis_forall
from rmis.generators import (
    gen_bull,
    gen_complete_bipartite,
    gen_cycle,
    gen_gk,
    gen_path,
    gen_random_connected,
    gen_random_sputnik,
    gen_sparse_sputnik,
)
from rmis.oracle import enumerate_mis, enumerate_robust_mis, is_robust_mis

from conftest import (
    aerial_subgraph_of_subtree,
    attachment_point,
    connected_graphs,
    induced_subgraph_of_subtree,
    reference_labeling,
    traced,
)


def rooted_at(g, comp):
    t = build_abc_tree(g)
    return root_at(t, t.nodes.index(AbcNode(KIND_C, tuple(sorted(comp)))))


def synthetic_run(rt, masks):
    """A labelling of `rt` holding the given masks (node id -> mask), zero
    elsewhere, and no component sets."""
    mask = [0] * len(rt.nodes)
    for x, m in masks.items():
        mask[x] = m
    return LabelingRun(rt, mask, [None] * len(mask), [None] * len(mask))


def robust_sets(g):
    return [s for s in enumerate_mis(g, max_vertices=32) if is_robust_mis(g, s)]


def assert_well_labeled(g, run):
    """Check every non-root label set against brute force on the subtree
    subgraph and its aerial variant:

    - PI/PO present exactly when a robust MIS containing/avoiding the
      attachment point exists, with a valid witness;
    - PE present exactly when PO is impossible but the aerial graph has a
      robust MIS using the aerial vertex;
    - N exactly when even the aerial graph offers nothing.
    """
    rt = run.rooted
    witnesses = all_witnesses(run)
    assert witnesses[rt.root].get(TAG_E) == run.result
    assert rt.attachment[rt.root] is None
    for x in rt.order[::-1]:
        if x == rt.root:
            continue
        tags = witnesses[x]
        sub = induced_subgraph_of_subtree(g, rt, x)
        aerial_graph, aerial = aerial_subgraph_of_subtree(g, rt, x)
        ap = attachment_point(rt, x)
        assert rt.attachment[x] == ap
        plain = robust_sets(sub)
        with_aerial = [s for s in robust_sets(aerial_graph) if aerial in s]
        can_in = any(ap in s for s in plain)
        can_out = any(ap not in s for s in plain)

        if TAG_N in tags:
            assert tags == {TAG_N: frozenset()}
            assert not plain and not with_aerial
            continue
        assert (TAG_PI in tags) == can_in
        assert (TAG_PO in tags) == can_out
        assert (TAG_PE in tags) == (not can_out and bool(with_aerial))
        assert not (TAG_PO in tags and TAG_PE in tags)
        if TAG_PI in tags:
            w = tags[TAG_PI]
            assert ap in w and is_robust_mis(sub, w)
        if TAG_PO in tags:
            w = tags[TAG_PO]
            assert ap not in w and is_robust_mis(sub, w)
        if TAG_PE in tags:
            w = tags[TAG_PE]
            assert ap not in w and is_robust_mis(aerial_graph, w | {aerial})


class TestVignettes:
    def test_triangle_has_no_solution(self):
        assert find_rmis(gen_cycle(3)) is None

    def test_bull_unique_solution(self):
        assert find_rmis(gen_bull()) == frozenset({0, 3, 4})

    def test_square_yields_one_of_its_two(self):
        got = find_rmis(gen_cycle(4))
        assert got in (frozenset({0, 2}), frozenset({1, 3}))
        assert is_robust_mis(gen_cycle(4), got)

    def test_path_takes_the_coloring_shortcut(self):
        assert find_rmis(gen_path(3)) == frozenset({0, 2})

    def test_single_vertex(self):
        assert find_rmis(Graph([7])) == frozenset({7})

    def test_single_edge(self):
        got = find_rmis(Graph(edges=[(0, 1)]))
        assert got in (frozenset({0}), frozenset({1}))

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            find_rmis(Graph(edges=[(0, 1), (2, 3)]))

    def test_gadgets_return_a_stored_solution_verbatim(self):
        for k in range(5):
            inst = gen_gk(k)
            assert find_rmis(inst.graph) in (inst.m1, inst.m2)


class TestAgainstEnumeration:
    def test_exhaustive_small(self):
        for n in range(1, 6):
            for g in connected_graphs(n):
                expect = enumerate_robust_mis(g)
                got = find_rmis(g)
                assert (got is not None) == bool(expect)
                if got is not None:
                    assert is_robust_mis(g, got)

    def test_random_medium(self):
        rng = random.Random(20)
        for i in range(150):
            g = gen_random_connected(rng.randint(6, 9), rng.uniform(0.15, 0.55), i)
            expect = enumerate_robust_mis(g)
            got = find_rmis(g)
            assert (got is not None) == bool(expect)
            if got is not None:
                assert is_robust_mis(g, got)


class TestLabeling:
    def test_pendant_leaf_label(self):
        g = gen_bull()
        rt = rooted_at(g, {1, 2, 3})
        p0, b01, a1 = map(rt.nodes.index, (AbcNode(KIND_P, (0,)), AbcNode(KIND_B, (0, 1)), AbcNode(KIND_A, (1,))))
        run = label_tree(rt)
        assert (run.mask[p0], run.mask[b01], run.mask[a1]) == (PI | PE, PO | PI, PI | PO)
        # only component nodes store sets
        assert run.own_in[p0] is run.own_in[b01] is run.own_in[a1] is None
        # each label holds only the vertices its own node decides
        assert run.labels[p0] == {
            TAG_PI: frozenset({0}),
            TAG_PE: frozenset(),
        }
        # the bridge flips the pendant's verdict toward vertex 1
        assert run.labels[b01] == {
            TAG_PO: frozenset({0}),
            TAG_PI: frozenset({1}),
        }
        assert run.labels[a1] == {
            TAG_PI: frozenset({1}),
            TAG_PO: frozenset(),
        }
        # assembled on the full run, the witnesses read as the subtree's sets
        run = run_labeling(g)
        witnesses = all_witnesses(run)
        assert witnesses[p0] == {TAG_PI: frozenset({0}), TAG_PE: frozenset()}
        assert witnesses[b01] == {TAG_PO: frozenset({0}), TAG_PI: frozenset({1})}
        assert witnesses[a1] == {TAG_PI: frozenset({1}), TAG_PO: frozenset({0})}

    def test_negative_child_short_circuits(self):
        # triangle leaf hanging off a square root: the leaf is hopeless and
        # poisons everything up to the root's children
        g = Graph(
            edges=[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 4)]
        )
        run = run_labeling(g)
        assert run.result is None
        idx = run.rooted.nodes.index
        assert run.labels[idx(AbcNode(KIND_C, (4, 5, 6)))] == {TAG_N: frozenset()}
        assert run.labels[idx(AbcNode(KIND_B, (0, 4)))] == {TAG_N: frozenset()}
        assert run.labels[run.rooted.root] == {TAG_N: frozenset()}
        assert run.mask[idx(AbcNode(KIND_A, (4,)))] == N
        assert run.mask[run.rooted.root] == N

    def test_articulation_rules_on_synthetic_children(self):
        # triangle root with a bridge to vertex 0, which carries two pendant legs
        g = Graph(edges=[(4, 5), (5, 6), (6, 4), (4, 0), (0, 1), (0, 2)])
        rt = rooted_at(g, {4, 5, 6})
        a0 = rt.nodes.index(AbcNode(KIND_A, (0,)))
        kids = rt.children[a0]
        assert [rt.nodes[k] for k in kids] == [AbcNode(KIND_B, (0, 1)), AbcNode(KIND_B, (0, 2))]

        assert articulation_mask([PI, PI]) == PI
        run = synthetic_run(rt, {kids[0]: PI, kids[1]: PI, a0: PI})
        assert run.labels[a0] == {TAG_PI: frozenset({0})}
        assert run.witness_parts(a0, PI) == ((0,), [(kids[0], PI), (kids[1], PI)])

        assert articulation_mask([PE, PO]) == PO
        run = synthetic_run(rt, {kids[0]: PE, kids[1]: PO, a0: PO})
        assert run.labels[a0] == {TAG_PO: frozenset()}
        assert run.witness_parts(a0, PO) == ((), [(kids[0], PE), (kids[1], PO)])

        assert articulation_mask([PI | PE, PI | PO]) == PI | PO
        run = synthetic_run(rt, {kids[0]: PI | PE, kids[1]: PI | PO, a0: PI | PO})
        assert run.labels[a0] == {TAG_PI: frozenset({0}), TAG_PO: frozenset()}

        # PE needs it of every child, PO of one; an N child wins over all
        assert articulation_mask([PI | PE, PE]) == PE
        assert articulation_mask([PE, PE]) == PE
        assert articulation_mask([PI | PO, N]) == N

        # on the real tree, PI unions both legs' PI and PO takes both legs' PO
        run = run_labeling(g)
        witnesses = all_witnesses(run)
        assert witnesses[a0] == {TAG_PI: frozenset({0}), TAG_PO: frozenset({1, 2})}
        assert witnesses[run.rooted.nodes.index(AbcNode(KIND_A, (4,)))] == {TAG_PI: frozenset({4, 1, 2}), TAG_PO: frozenset({0})}

    def test_bridge_rules_on_synthetic_children(self):
        g = gen_bull()
        rt = rooted_at(g, {1, 2, 3})
        bridge = rt.nodes.index(AbcNode(KIND_B, (0, 1)))  # parent side is vertex 1
        child = rt.nodes.index(AbcNode(KIND_P, (0,)))

        assert bridge_mask(PO) == PI | PE
        run = synthetic_run(rt, {child: PO, bridge: PI | PE})
        assert run.labels[bridge] == {
            TAG_PI: frozenset({1}),
            TAG_PE: frozenset(),
        }
        assert run.witness_parts(bridge, PI) == ((1,), [(child, PO)])
        assert run.witness_parts(bridge, PE) == ((), [(child, PO)])

        assert bridge_mask(PI) == PO
        run = synthetic_run(rt, {child: PI, bridge: PO})
        assert run.labels[bridge] == {TAG_PO: frozenset({0})}
        assert run.witness_parts(bridge, PO) == ((0,), [(child, PI)])

        # PI child plus PO child: PE is suppressed because PO is already there
        assert bridge_mask(PI | PO) == PO | PI
        run = synthetic_run(rt, {child: PI | PO, bridge: PO | PI})
        assert run.labels[bridge] == {TAG_PO: frozenset({0}), TAG_PI: frozenset({1})}

        # a PE child lets the far endpoint join, without PE; N passes up
        assert bridge_mask(PE) == PI
        assert bridge_mask(PI | PE) == PO | PI
        assert bridge_mask(N) == N

        # on a real tree: vertex 10 can stay out but never join, so the
        # bridge from the square takes PI and PE, both built on A(10)'s PO
        g = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0), (0, 10), (10, 11), (10, 13), (10, 14), (11, 12), (11, 13)])
        run = run_labeling(g)
        bridge = run.rooted.nodes.index(AbcNode(KIND_B, (0, 10)))
        assert run.labels[bridge] == {TAG_PI: frozenset({0}), TAG_PE: frozenset()}
        assert all_witnesses(run)[bridge] == {
            TAG_PI: frozenset({0, 12, 13, 14}),
            TAG_PE: frozenset({12, 13, 14}),
        }
        assert run.result == frozenset({1, 3, 12, 13, 14})

    def test_leaf_component_cases(self):
        # square / five-cycle / triangle hanging below a triangle root
        for leaf_size, expected, mask in ((4, {TAG_PI, TAG_PO}, PI | PO), (5, {TAG_N}, N), (3, {TAG_N}, N)):
            ring = [(10 + i, 10 + (i + 1) % leaf_size) for i in range(leaf_size)]
            g = Graph(edges=[(0, 1), (1, 2), (2, 0), (0, 10)] + ring)
            rt = rooted_at(g, {0, 1, 2})
            leaf = rt.nodes.index(AbcNode(KIND_C, tuple(range(10, 10 + leaf_size))))
            run = label_tree(rt)
            assert set(run.labels[leaf]) == expected
            assert run.mask[leaf] == mask

    def test_articulation_point_whose_children_share_no_tag_is_negative(self):
        # A(3)'s children are B(3,12), which offers only PI, and the
        # component C(2,3,4,6,20), which offers only PE: vertex 3 can be
        # neither in nor out, so A(3) is N and there is no robust MIS
        g = gen_random_connected(22, 0.0955996241482135, 5688)
        run = run_labeling(g)
        idx = run.rooted.nodes.index
        assert run.mask[idx(AbcNode(KIND_B, (3, 12)))] == PI
        assert run.mask[idx(AbcNode(KIND_C, (2, 3, 4, 6, 20)))] == PE
        assert run.mask[idx(AbcNode(KIND_A, (3,)))] == N
        assert articulation_mask([PI, PE]) == articulation_mask([PI, PO]) == N
        assert find_rmis(g) is None
        assert enumerate_robust_mis(g, max_vertices=32) == []
        assert run.labels == reference_labeling(g).labels

    def test_edge_between_two_pe_articulation_points_is_kept(self):
        # 6 and 10 can each stay out only with a neighbour outside their
        # subtrees in the set, so the root keeps its edge 6-10 and, with
        # both forced out, fails; setting the edge aside as if both were PO
        # would accept a set that is not robust
        g = Graph(
            edges=[(0, 13), (1, 6), (1, 11), (2, 10), (2, 13), (3, 6), (3, 10), (3, 11), (4, 5),
                   (5, 6), (5, 9), (6, 9), (6, 10), (7, 8), (7, 10), (7, 12), (8, 13)]
        )
        run = run_labeling(g)
        idx = run.rooted.nodes.index
        assert run.mask[idx(AbcNode(KIND_A, (6,)))] == run.mask[idx(AbcNode(KIND_A, (10,)))] == PE
        assert run.mask[run.rooted.root] == N
        assert run.result is None and enumerate_robust_mis(g) == []
        assert run.labels == reference_labeling(g).labels

    def test_decide_reads_the_root(self):
        run = run_labeling(gen_bull())
        root = run.rooted.root
        assert run.mask[root] == E
        assert run.labels[root] == {TAG_E: frozenset({3})}  # the root's own members
        assert decide(run) == frozenset({0, 3, 4})
        assert all_witnesses(run)[root] == {TAG_E: frozenset({0, 3, 4})}
        mask = list(run.mask)
        mask[root] = N
        assert decide(replace(run, mask=mask)) is None

    @pytest.mark.parametrize("g", [gen_gk(3).graph, gen_random_sputnik(321, 60)], ids=["gk3", "sputnik-321-60"])
    def test_own_is_the_stored_tuple(self, g):
        # a component's own part is the sorted tuple the search stored, not a
        # copy; any other node's is at most one vertex
        run = run_labeling(g)
        rt = run.rooted
        read = 0
        for x, m in enumerate(run.mask):
            for bit in (PI, PO, PE, E):
                if not m & bit:
                    continue
                own = run.own(x, bit)
                if rt.kinds[x] == KIND_C:
                    assert own is (run.own_in[x] if bit & (PI | E) else run.own_out[x])
                    read += bool(own)
                else:
                    assert type(own) is tuple and len(own) <= 1
        assert read

    def test_decide_rejects_a_child_lacking_its_picked_tag(self):
        run = run_labeling(gen_bull())
        mask = list(run.mask)
        # vertex 1 is out of the root's members, so A(1) must offer PO or PE
        mask[run.rooted.nodes.index(AbcNode(KIND_A, (1,)))] = PI
        broken = replace(run, mask=mask)
        with pytest.raises(InternalLabelingError, match="lacks the label"):
            decide(broken)
        with pytest.raises(InternalLabelingError, match="lacks the label"):
            all_witnesses(broken)

    def test_stored_labels_are_linear(self):
        # each label holds its own node's vertices, not copies of its subtree
        g = gen_gk(400).graph
        run = run_labeling(g)
        stored = sum(len(w) for tags in run.labels.values() for w in tags.values())
        assert stored <= g.n + g.num_edges
        assert run.result in (gen_gk(400).m1, gen_gk(400).m2)

    def test_component_probe_at_bare_roots(self):
        tri = gen_cycle(3)
        rt = rooted_at(tri, {0, 1, 2})
        assert component_probe(component_core(rt, rt.root, []), ()) is None

        sq = gen_cycle(4)
        rt = rooted_at(sq, {0, 1, 2, 3})
        got = component_probe(component_core(rt, rt.root, []), ())
        assert got == (1, 3)  # ties resolve away from the lowest vertex


class TestWellLabeled:
    def test_bull(self):
        run = run_labeling(gen_bull())
        assert_well_labeled(gen_bull(), run)

    def test_gadget(self):
        g = gen_gk(2).graph
        assert_well_labeled(g, run_labeling(g))

    def test_random_sample(self):
        rng = random.Random(21)
        checked = 0
        for i in range(120):
            g = gen_random_connected(rng.randint(4, 8), rng.uniform(0.25, 0.65), 700 + i)
            run = run_labeling(g)
            if run.rooted is None:
                continue
            assert_well_labeled(g, run)
            checked += 1
        assert checked >= 60

    def test_tree_case_flag(self):
        run = run_labeling(gen_path(4))
        assert run.rooted is None
        assert run.result == frozenset({0, 2})


class TestSharedCore:
    """Probes that share their component's core give the labels and the
    answer, witnesses included, of probes that each rebuild it."""

    @staticmethod
    def assert_matches_reference(g):
        run, ref = run_labeling(g), reference_labeling(g)
        assert run.labels == ref.labels
        assert run.result == ref.result
        return run

    def test_small_corpus(self, small_corpus):
        for g in small_corpus:
            self.assert_matches_reference(g)

    def test_gadgets(self):
        for k in range(1, 21):
            self.assert_matches_reference(gen_gk(k).graph)

    def test_random_sputniks(self):
        rng = random.Random(31)
        for i in range(50):
            self.assert_matches_reference(gen_random_sputnik(300 + i, rng.randint(1, 60)))

    def test_random_connected(self):
        # sparse enough that trees hang off the cycles, which reaches PE
        # probes and the at-most-one clauses of edges whose two ends carry PO
        rng = random.Random(32)
        pe_probes = removed_edge_clauses = 0
        for i in range(100):
            g = gen_random_connected(rng.randint(6, 20), rng.uniform(0.1, 0.25), 900 + i)
            run = self.assert_matches_reference(g)
            if run.rooted is None:
                continue
            rt = run.rooted
            for x in rt.order[::-1]:
                if rt.nodes[x].kind != KIND_C or run.mask[x] & N:
                    continue
                pe_probes += rt.parent[x] is not None and not run.mask[x] & PO
                core = component_core(rt, x, run.mask)
                removed_edge_clauses += core is not None and any(a != b for a, b in core.base.clauses)
        assert pe_probes > 0 and removed_edge_clauses > 0

    @pytest.mark.parametrize(
        "g, expect_pe",
        [(gen_gk(400).graph, False), (gen_random_sputnik(321, 60), True)],
        ids=["gk400", "sputnik-321-60"],
    )
    def test_one_core_per_component_and_pe_probe(self, monkeypatch, g, expect_pe):
        calls = []
        build = findrmis.component_core

        def counting(*args, **kwargs):
            calls.append(kwargs.get("covered"))
            return build(*args, **kwargs)

        monkeypatch.setattr(findrmis, "component_core", counting)
        run = run_labeling(g)
        rt = run.rooted
        components = [x for x in rt.order[::-1] if rt.nodes[x].kind == KIND_C]
        pe_probes = sum(rt.parent[x] is not None and TAG_PO not in run.labels[x] for x in components)
        assert (pe_probes > 0) == expect_pe
        assert len(calls) == len(components) + pe_probes
        assert sum(c is not None for c in calls) == pe_probes


class TestRetainedMemory:
    def test_labelled_tree_bytes_per_node(self):
        # what one search keeps alive per ABC tree node on a built graph: the
        # rooted tree and its labels. A label dict of frozensets per node
        # retained 926 B per node on gk(1600), and tag masks in flat lists
        # with sets only on component nodes 512 B with an `AbcNode` per node.
        # Flat per-node kinds and vertices retain 464 B with a frozenset of
        # each component's members per tag, and 284 B with a vertex tuple
        g = gen_gk(1600).graph
        run, retained, _ = traced(lambda: run_labeling(g))
        per_node = retained / len(run.rooted.nodes)
        assert per_node <= 360, f"{per_node:.0f} B per tree node"

    def test_search_peak_bytes_per_vertex(self):
        # the most a search holds at once above the built graph: 337 B per
        # vertex on gk(1600) while the tree was built beside the whole
        # block-pass result and components kept frozensets, and 251 B, the
        # peak of the block pass itself, without. Flat block-pass state
        # lowered that peak, and the search's now lies past the tree
        g = gen_gk(1600).graph
        _, _, peak = traced(lambda: run_labeling(g))
        per_vertex = peak / g.n
        assert per_vertex <= 230, f"{per_vertex:.0f} B per vertex"

    def test_sputnik_search_peak_bytes_per_vertex(self):
        # a sputnik's big component is one 2-SAT core with a literal per
        # vertex: a (piece, polarity) tuple per literal peaked at 587 B per
        # vertex here, and the solver's int literal at 528
        g = gen_sparse_sputnik(5000, 500, 1)
        _, _, peak = traced(lambda: find_rmis(g))
        per_vertex = peak / g.n
        assert per_vertex <= 555, f"{per_vertex:.0f} B per vertex"

    def test_find_peak_with_its_parsed_graph(self):
        # what `rmis find` holds at its peak: the parsed graph and the
        # search above it. A frozenset graph with an int per id mention
        # peaked at 523 B per vertex on gk(1600); the tuple graph at 324
        text = to_edge_list(gen_gk(1600).graph)
        n = 6 * 1601
        _, _, peak = traced(lambda: find_rmis(from_edge_list(text)))
        per_vertex = peak / n
        assert per_vertex <= 360, f"{per_vertex:.0f} B per vertex"

    def test_search_keeps_no_collector_tracked_objects(self):
        # a frozenset per component and tag stays tracked by the cyclic
        # collector (one object per tree node on gk(1600)); tuples of ints
        # are untracked by the first collection that sees them
        g = gen_gk(1600).graph
        gc.collect()
        before = len(gc.get_objects())
        run = run_labeling(g)
        gc.collect()
        per_node = (len(gc.get_objects()) - before) / len(run.rooted.nodes)
        assert per_node <= 0.05, f"{per_node:.2f} tracked objects per tree node"


class TestScaling:
    # a sputnik's big component has thousands of articulation points, so
    # any per-neighbour cost proportional to the component shows up here.
    # timeit holds the cyclic collector off, whose full passes scale with
    # everything the rest of the suite keeps alive, not with the code timed
    @pytest.fixture(scope="class")
    def sputniks(self):
        return [gen_random_sputnik(2, size) for size in (1500, 12000)]  # generating is quadratic

    def test_sputnik_find_time_per_vertex_stays_flat(self, sputniks):
        def per_vertex(g):
            return min(timeit.repeat(lambda: find_rmis(g), repeat=3, number=1)) / g.n

        small, large = map(per_vertex, sputniks)
        assert large / small <= 2.5, f"{small * 1e6:.1f} -> {large * 1e6:.1f} us per vertex"

    def test_friendship_find_time_per_vertex_stays_flat(self):
        # k triangles sharing vertex 0: the hub lies in k components, so a
        # core that scanned the hub's whole neighborhood per component would
        # be quadratic in k
        def friendship(k):
            edges = []
            for i in range(1, 2 * k, 2):
                edges += [(0, i), (0, i + 1), (i, i + 1)]
            return Graph(range(2 * k + 1), edges)

        def per_vertex(g):
            return min(timeit.repeat(lambda: find_rmis(g), repeat=3, number=1)) / g.n

        small, large = map(per_vertex, map(friendship, (1000, 4000)))
        assert large / small <= 2.5, f"{small * 1e6:.1f} -> {large * 1e6:.1f} us per vertex"

    @pytest.mark.parametrize("op", ["classify", "find", "verify"])
    def test_complete_bipartite_time_per_element_stays_flat(self, op):
        # every neighbourhood of K_{m,m} holds m ids, so a membership test
        # that scanned a neighbour tuple, or compared one with a set item by
        # item, would be quadratic per vertex here. The sizes alternate, so
        # a slow spell of the machine hits both
        run = {
            "classify": in_rmis_forall,
            "find": find_rmis,
            "verify": lambda g: is_robust_mis(g, range(g.n // 2)),
        }[op]
        graphs = [gen_complete_bipartite(m, m) for m in (50, 300)]
        best = [float("inf")] * len(graphs)
        for _ in range(5):
            for i, g in enumerate(graphs):
                t = timeit.timeit(lambda: run(g), number=1)
                best[i] = min(best[i], t / (g.n + g.num_edges))
        small, large = best
        assert large / small <= 1.6, f"{small * 1e6:.2f} -> {large * 1e6:.2f} us per n + m"

    def test_sputnik_verify_time_per_vertex_stays_flat(self, sputniks):
        def per_vertex(g):
            s = find_rmis(g)
            assert s is not None
            return min(timeit.repeat(lambda: is_robust_mis(g, s), repeat=3, number=1)) / g.n

        small, large = map(per_vertex, sputniks)
        assert large / small <= 2.5, f"{small * 1e6:.1f} -> {large * 1e6:.1f} us per vertex"
