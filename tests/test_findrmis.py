import random

import pytest

from rmis.abctree import (
    AbcNode,
    build_abc_tree,
    root_at,
)
from rmis.findrmis import (
    TAG_E,
    TAG_N,
    TAG_PE,
    TAG_PI,
    TAG_PO,
    InternalLabelingError,
    _picks,
    all_witnesses,
    decide,
    find_rmis,
    label_node_a,
    label_node_b,
    label_subtree,
    run_labeling,
)
from rmis.findrmis import test_rmis as component_probe  # alias keeps pytest from collecting it
from rmis.graph import Graph, GraphError
from rmis.generators import (
    gen_bull,
    gen_cycle,
    gen_gk,
    gen_path,
    gen_random_connected,
)
from rmis.oracle import enumerate_mis, enumerate_robust_mis, is_robust_mis

from conftest import aerial_subgraph_of_subtree, connected_graphs, induced_subgraph_of_subtree


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
    witnesses = all_witnesses(rt, run.labels)
    assert witnesses[rt.root].get(TAG_E) == run.result
    for x in rt.postorder():
        if x == rt.root:
            continue
        tags = witnesses[x]
        sub = induced_subgraph_of_subtree(g, rt, x)
        aerial_graph, aerial = aerial_subgraph_of_subtree(g, rt, x)
        ap = rt.attachment_point(x)
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
        rt = root_at(build_abc_tree(g), AbcNode.component({1, 2, 3}))
        labels = {}
        label_subtree(rt, AbcNode.articulation(1), labels)
        # each label holds only the vertices its own node decides
        assert labels[AbcNode.pendant(0)] == {
            TAG_PI: frozenset({0}),
            TAG_PE: frozenset(),
        }
        # the bridge flips the pendant's verdict toward vertex 1
        assert labels[AbcNode.bridge(0, 1)] == {
            TAG_PO: frozenset({0}),
            TAG_PI: frozenset({1}),
        }
        assert labels[AbcNode.articulation(1)] == {
            TAG_PI: frozenset({1}),
            TAG_PO: frozenset(),
        }
        # assembled on the full run, the witnesses read as the subtree's sets
        run = run_labeling(g)
        witnesses = all_witnesses(run.rooted, run.labels)
        assert witnesses[AbcNode.pendant(0)] == {TAG_PI: frozenset({0}), TAG_PE: frozenset()}
        assert witnesses[AbcNode.bridge(0, 1)] == {TAG_PO: frozenset({0}), TAG_PI: frozenset({1})}
        assert witnesses[AbcNode.articulation(1)] == {TAG_PI: frozenset({1}), TAG_PO: frozenset({0})}

    def test_negative_child_short_circuits(self):
        # triangle leaf hanging off a square root: the leaf is hopeless and
        # poisons everything up to the root's children
        g = Graph(
            edges=[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 4)]
        )
        run = run_labeling(g)
        assert run.result is None
        assert run.labels[AbcNode.component({4, 5, 6})] == {TAG_N: frozenset()}
        assert run.labels[AbcNode.bridge(0, 4)] == {TAG_N: frozenset()}
        assert run.labels[run.rooted.root] == {TAG_N: frozenset()}

    def test_articulation_rules_on_synthetic_children(self):
        # triangle root with a bridge to vertex 0, which carries two pendant legs
        g = Graph(edges=[(4, 5), (5, 6), (6, 4), (4, 0), (0, 1), (0, 2)])
        rt = root_at(build_abc_tree(g), AbcNode.component({4, 5, 6}))
        a0 = AbcNode.articulation(0)
        kids = rt.children[a0]
        assert set(kids) == {AbcNode.bridge(0, 1), AbcNode.bridge(0, 2)}

        labels = {kids[0]: {TAG_PI: frozenset({0})}, kids[1]: {TAG_PI: frozenset({0})}}
        label_node_a(rt, a0, labels)
        assert labels[a0] == {TAG_PI: frozenset({0})}
        assert list(_picks(rt, labels, a0, TAG_PI)) == [(kids[0], TAG_PI), (kids[1], TAG_PI)]

        labels = {kids[0]: {TAG_PE: frozenset()}, kids[1]: {TAG_PO: frozenset({2})}}
        label_node_a(rt, a0, labels)
        assert labels[a0] == {TAG_PO: frozenset()}
        assert list(_picks(rt, labels, a0, TAG_PO)) == [(kids[0], TAG_PE), (kids[1], TAG_PO)]

        labels = {
            kids[0]: {TAG_PI: frozenset({0}), TAG_PE: frozenset()},
            kids[1]: {TAG_PI: frozenset({0}), TAG_PO: frozenset({2})},
        }
        label_node_a(rt, a0, labels)
        assert labels[a0] == {TAG_PI: frozenset({0}), TAG_PO: frozenset()}

        # on the real tree, PI unions both legs' PI and PO takes both legs' PO
        run = run_labeling(g)
        witnesses = all_witnesses(run.rooted, run.labels)
        assert witnesses[a0] == {TAG_PI: frozenset({0}), TAG_PO: frozenset({1, 2})}
        assert witnesses[AbcNode.articulation(4)] == {TAG_PI: frozenset({4, 1, 2}), TAG_PO: frozenset({0})}

    def test_bridge_rules_on_synthetic_children(self):
        g = gen_bull()
        rt = root_at(build_abc_tree(g), AbcNode.component({1, 2, 3}))
        bridge = AbcNode.bridge(0, 1)  # parent side is vertex 1
        child = AbcNode.pendant(0)

        labels = {child: {TAG_PO: frozenset()}}
        label_node_b(rt, bridge, labels)
        assert labels[bridge] == {
            TAG_PI: frozenset({1}),
            TAG_PE: frozenset(),
        }
        assert list(_picks(rt, labels, bridge, TAG_PI)) == [(child, TAG_PO)]
        assert list(_picks(rt, labels, bridge, TAG_PE)) == [(child, TAG_PO)]

        labels = {child: {TAG_PI: frozenset({0})}}
        label_node_b(rt, bridge, labels)
        assert labels[bridge] == {TAG_PO: frozenset({0})}
        assert list(_picks(rt, labels, bridge, TAG_PO)) == [(child, TAG_PI)]

        # PI child plus PO child: PE is suppressed because PO is already there
        labels = {child: {TAG_PI: frozenset({0}), TAG_PO: frozenset()}}
        label_node_b(rt, bridge, labels)
        assert labels[bridge] == {TAG_PO: frozenset({0}), TAG_PI: frozenset({1})}

        # on a real tree: vertex 10 can stay out but never join, so the
        # bridge from the square takes PI and PE, both built on A(10)'s PO
        g = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0), (0, 10), (10, 11), (10, 13), (10, 14), (11, 12), (11, 13)])
        run = run_labeling(g)
        bridge = AbcNode.bridge(0, 10)
        assert run.labels[bridge] == {TAG_PI: frozenset({0}), TAG_PE: frozenset()}
        assert all_witnesses(run.rooted, run.labels)[bridge] == {
            TAG_PI: frozenset({0, 12, 13, 14}),
            TAG_PE: frozenset({12, 13, 14}),
        }
        assert run.result == frozenset({1, 3, 12, 13, 14})

    def test_leaf_component_cases(self):
        # square / five-cycle / triangle hanging below a triangle root
        for leaf_size, expected in ((4, {TAG_PI, TAG_PO}), (5, {TAG_N}), (3, {TAG_N})):
            ring = [(10 + i, 10 + (i + 1) % leaf_size) for i in range(leaf_size)]
            g = Graph(edges=[(0, 1), (1, 2), (2, 0), (0, 10)] + ring)
            rt = root_at(build_abc_tree(g), AbcNode.component({0, 1, 2}))
            leaf = AbcNode.component(range(10, 10 + leaf_size))
            labels = {}
            label_subtree(rt, rt.children[rt.root][0], labels)
            assert set(labels[leaf]) == expected

    def test_decide_reads_the_root(self):
        run = run_labeling(gen_bull())
        root = run.rooted.root
        assert run.labels[root] == {TAG_E: frozenset({3})}  # the root's own members
        assert decide(run.rooted, run.labels) == frozenset({0, 3, 4})
        assert all_witnesses(run.rooted, run.labels)[root] == {TAG_E: frozenset({0, 3, 4})}
        labels = dict(run.labels)
        labels[root] = {TAG_N: frozenset()}
        assert decide(run.rooted, labels) is None

    def test_decide_rejects_a_child_lacking_its_picked_tag(self):
        run = run_labeling(gen_bull())
        labels = dict(run.labels)
        # vertex 1 is out of the root's members, so A(1) must offer PO or PE
        labels[AbcNode.articulation(1)] = {TAG_PI: frozenset({1})}
        with pytest.raises(InternalLabelingError, match="lacks the label"):
            decide(run.rooted, labels)
        with pytest.raises(InternalLabelingError, match="lacks the label"):
            all_witnesses(run.rooted, labels)

    def test_stored_labels_are_linear(self):
        # each label holds its own node's vertices, not copies of its subtree
        g = gen_gk(400).graph
        run = run_labeling(g)
        stored = sum(len(w) for tags in run.labels.values() for w in tags.values())
        assert stored <= g.n + g.num_edges
        assert run.result in (gen_gk(400).m1, gen_gk(400).m2)

    def test_component_probe_at_bare_roots(self):
        tri = gen_cycle(3)
        rt = root_at(build_abc_tree(tri), AbcNode.component({0, 1, 2}))
        assert component_probe(rt, rt.root, frozenset(), frozenset(), {}) is None

        sq = gen_cycle(4)
        rt = root_at(build_abc_tree(sq), AbcNode.component({0, 1, 2, 3}))
        got = component_probe(rt, rt.root, frozenset(), frozenset(), {})
        assert got == frozenset({1, 3})  # ties resolve away from the lowest vertex


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
