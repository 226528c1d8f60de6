import random

import pytest

from rmis.abctree import (
    KIND_A,
    KIND_B,
    KIND_C,
    KIND_P,
    AbcNode,
    build_abc_tree,
    decomposition_dot,
    default_root,
    render_text,
    root_at,
    tree_to_dot,
)
from rmis.cli import main
from rmis.findrmis import run_labeling
from rmis.graph import Graph, GraphError, blocks, is_connected, to_edge_list
from rmis.generators import (
    gen_bull,
    gen_cycle,
    gen_gk,
    gen_lollipop,
    gen_path,
    gen_random_connected,
    gen_sparse_sputnik,
)
from rmis.oracle import is_robust_mis

from conftest import (
    aerial_subgraph_of_subtree,
    connected_graphs,
    induced_subgraph_of_subtree,
    reference_rooting,
    traced,
)


def tree_is_actually_a_tree(t) -> bool:
    nodes = t.nodes
    if not nodes:
        return False
    edges = t.edges()
    if len(edges) != len(nodes) - 1:
        return False
    return is_connected(Graph(range(len(nodes)), edges))


class TestBuild:
    def test_bull_nodes_and_shape(self):
        t = build_abc_tree(gen_bull())
        assert set(t.nodes) == {
            AbcNode(KIND_P, (0,)),
            AbcNode(KIND_P, (4,)),
            AbcNode(KIND_A, (1,)),
            AbcNode(KIND_A, (2,)),
            AbcNode(KIND_B, (0, 1)),
            AbcNode(KIND_B, (2, 4)),
            AbcNode(KIND_C, (1, 2, 3)),
        }
        # ids follow sorted node order
        assert list(t.nodes) == sorted(t.nodes)
        # the tree is the path P(0)-B(0,1)-A(1)-C(1,2,3)-A(2)-B(2,4)-P(4)
        path = [
            AbcNode(KIND_P, (0,)),
            AbcNode(KIND_B, (0, 1)),
            AbcNode(KIND_A, (1,)),
            AbcNode(KIND_C, (1, 2, 3)),
            AbcNode(KIND_A, (2,)),
            AbcNode(KIND_B, (2, 4)),
            AbcNode(KIND_P, (4,)),
        ]
        ids = list(map(t.nodes.index, path))
        assert t.edges() == sorted(tuple(sorted(e)) for e in zip(ids, ids[1:]))

    def test_path_is_all_bridges(self):
        t = build_abc_tree(gen_path(3))
        assert KIND_C not in t.kinds
        assert set(t.nodes) == {
            AbcNode(KIND_P, (0,)),
            AbcNode(KIND_P, (2,)),
            AbcNode(KIND_A, (1,)),
            AbcNode(KIND_B, (0, 1)),
            AbcNode(KIND_B, (1, 2)),
        }

    def test_square_is_one_component(self):
        t = build_abc_tree(gen_cycle(4))
        assert t.nodes == (AbcNode(KIND_C, (0, 1, 2, 3)),)

    def test_single_vertex_registers_as_pendant(self):
        t = build_abc_tree(Graph([3]))
        assert t.nodes == (AbcNode(KIND_P, (3,)),)

    def test_nodes_behave_as_kind_vertices_tuples(self):
        nodes = list(build_abc_tree(gen_gk(3).graph).nodes)
        pairs = [(x.kind, x.vertices) for x in nodes]
        assert [repr(x) for x in nodes] == [f"AbcNode(kind={k!r}, vertices={vs!r})" for k, vs in pairs]
        assert [hash(x) for x in nodes] == [hash(p) for p in pairs]
        assert [AbcNode(*p) for p in pairs] == nodes and len(set(nodes)) == len(nodes)
        shuffled = random.Random(3).sample(nodes, len(nodes))
        assert [(x.kind, x.vertices) for x in sorted(shuffled)] == sorted(pairs)

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            build_abc_tree(Graph(edges=[(0, 1), (2, 3)]))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ids_follow_sorted_nodes_when_blocks_close_out_of_order(self, seed):
        # the block pass lists blocks as it closes them, far from sorted
        # order on a sputnik that is mostly bridges; the tree sorts them
        g = gen_sparse_sputnik(5_000, 500, seed)
        comps = blocks(g).components
        assert comps != sorted(comps)
        t = build_abc_tree(g)
        assert list(t.nodes) == sorted(t.nodes)
        assert sorted(vs for kind, vs in zip(t.kinds, t.vertices) if kind in "BC") == sorted(comps)

    def test_is_a_tree_and_covers_graph(self):
        cases = [g for n in range(1, 6) for g in connected_graphs(n)]
        rng = random.Random(3)
        cases += [
            gen_random_connected(rng.randint(6, 8), rng.uniform(0.2, 0.6), i)
            for i in range(40)
        ]
        for g in cases:
            t = build_abc_tree(g)
            assert tree_is_actually_a_tree(t)
            assert list(t.nodes) == sorted(t.nodes)
            covered = set()
            for x in t.nodes:
                covered.update(x.vertices)
            assert covered == set(g.vertices)
            for u, v in g.edges():
                holders = [
                    x
                    for x in t.nodes
                    if x.kind in "BC" and u in x.vertices and v in x.vertices
                ]
                assert len(holders) == 1
            # rooted at any component, children follow in increasing id order
            for root in [i for i, kind in enumerate(t.kinds) if kind == KIND_C]:
                assert all(list(kids) == sorted(kids) for kids in root_at(t, root).children)


class TestRooting:
    def test_bull_rooted_at_component(self):
        g = gen_bull()
        t = build_abc_tree(g)
        rt = root_at(t, default_root(t))
        assert rt.nodes[rt.root] == AbcNode(KIND_C, (1, 2, 3))
        assert {rt.nodes[c] for c in rt.children[rt.root]} == {
            AbcNode(KIND_A, (1,)),
            AbcNode(KIND_A, (2,)),
        }
        assert rt.attachment[rt.nodes.index(AbcNode(KIND_B, (0, 1)))] == 1
        assert rt.attachment[rt.nodes.index(AbcNode(KIND_A, (1,)))] == 1
        assert rt.attachment[rt.nodes.index(AbcNode(KIND_P, (0,)))] == 0
        assert rt.attachment[rt.root] is None

    def test_square_root_has_no_children(self):
        t = build_abc_tree(gen_cycle(4))
        rt = root_at(t, default_root(t))
        assert rt.children[rt.root] == ()

    def test_root_must_be_component(self):
        t = build_abc_tree(gen_bull())
        for bad in (t.nodes.index(AbcNode(KIND_A, (1,))), len(t.nodes), -1):
            with pytest.raises(GraphError):
                root_at(t, bad)

    def test_acyclic_graph_has_no_root(self):
        with pytest.raises(GraphError):
            default_root(build_abc_tree(gen_path(4)))

    def test_reversed_order_children_first(self):
        t = build_abc_tree(gen_bull())
        rt = root_at(t, default_root(t))
        order = rt.order[::-1]
        pos = {x: i for i, x in enumerate(order)}
        for x in order:
            for c in rt.children[x]:
                assert pos[c] < pos[x]
        assert order[-1] == rt.root


class TestRootingJudge:
    """`root_at` against `reference_rooting`, a breadth-first search over the
    tree's edges, at every component root; and the block pass's tops, from
    which the built tree takes its parents.
    """

    @staticmethod
    def assert_rooted_as_judged(g):
        t = build_abc_tree(g)
        found = blocks(g)
        assert found.top == [min(c, key=found.number.__getitem__) for c in found.components]
        # by definition, an A- or P-node is adjacent to each block holding its vertex
        nodes = t.nodes
        single = [x for x, node in enumerate(nodes) if node.kind in "AP"]
        block_nodes = [y for y, node in enumerate(nodes) if node.kind in "BC"]
        assert t.edges() == sorted(
            (min(x, y), max(x, y)) for x in single for y in block_nodes if nodes[x].vertices[0] in nodes[y].vertices
        )
        if KIND_C not in t.kinds:
            # acyclic: the tree keeps the block pass's root, one node that
            # has no parent, and reaches every node from it
            assert t.parent.count(None) == 1 and t.parent[t.root] is None
            assert sorted(t.order) == list(range(len(t.nodes)))
            ref = reference_rooting(t, t.root)
            assert (t.parent, t.children, t.attachment) == (ref.parent, ref.children, ref.attachment)
            return
        assert t.root == default_root(t)
        for r in [i for i, kind in enumerate(t.kinds) if kind == KIND_C]:
            rt = root_at(t, r)
            ref = reference_rooting(t, r)
            assert rt.root == r
            assert rt.parent == ref.parent
            assert rt.children == ref.children
            assert rt.attachment == ref.attachment
            position = {x: i for i, x in enumerate(rt.order)}
            assert len(position) == len(rt.nodes) and rt.order[0] == r
            assert all(position[rt.parent[x]] < position[x] for x in rt.order[1:])

    def test_small_corpus(self, small_corpus):
        for g in small_corpus:
            self.assert_rooted_as_judged(g)

    def test_random_graphs(self):
        rng = random.Random(18)
        for i in range(200):
            self.assert_rooted_as_judged(gen_random_connected(rng.randint(2, 30), rng.uniform(0.05, 0.4), 1800 + i))

    def test_lollipops(self):
        # pendant 0 starts the block pass at the far end of the path, so the
        # default root, the clique, lies a whole path away from where the
        # pass roots the tree
        for path_len in (1, 2, 5, 40):
            for clique_size in (3, 4, 6):
                self.assert_rooted_as_judged(gen_lollipop(path_len, clique_size))

    def test_root_at_own_root_is_the_tree(self):
        t = build_abc_tree(gen_gk(3).graph)
        assert root_at(t, t.root) is t


class TestTreeMemory:
    def test_tree_stage_peak_bytes_per_vertex(self):
        # building the tree and rooting it at its default root, above the
        # built graph, on gk(1600): 186 B per vertex while rooting walked
        # unrooted neighbour lists, 141 B with parents from the block pass
        g = gen_gk(1600).graph

        def stage():
            t = build_abc_tree(g)
            return root_at(t, default_root(t))

        _, _, peak = traced(stage)
        per_vertex = peak / g.n
        assert per_vertex <= 160, f"{per_vertex:.0f} B per vertex"


def sputnik_at_the_end_of_a_path(length):
    """A path 0..length-1 from pendant 0 into a 4-cycle with a pendant on
    each cycle vertex. Every cycle vertex has a pendant, so the graph is a
    sputnik and every MIS of it is robust.
    """
    cycle = range(length, length + 4)
    edges = [(i, i + 1) for i in range(length - 1)]
    edges += [(c, length + (c - length + 1) % 4) for c in cycle]
    edges += [(c, c + 4) for c in cycle]
    edges.append((length - 1, length))
    return Graph(range(length + 8), edges), tuple(cycle)


class TestDeepRerooting:
    def test_path_into_a_sputnik_cycle(self, tmp_path, capsys):
        # the block pass starts at pendant 0 and roots the tree 10^5 nodes
        # away from the cycle; rooting at the cycle reverses that whole path
        g, cycle = sputnik_at_the_end_of_a_path(10**5)
        run = run_labeling(g)
        t = run.rooted
        assert t.nodes[t.root] == AbcNode(KIND_C, cycle)
        assert run.result is not None and is_robust_mis(g, run.result)
        path = tmp_path / "deep.edges"
        path.write_text(to_edge_list(g))
        assert main(["abc", "--dot", str(path)]) == 0
        assert capsys.readouterr().out.count(" -- ") == len(t.nodes) - 1


def bull_rooted(g):
    t = build_abc_tree(g)
    return root_at(t, t.nodes.index(AbcNode(KIND_C, (1, 2, 3))))


class TestSubtreeGraphs:
    def test_bull_subtree_at_horn_side(self):
        g = gen_bull()
        rt = bull_rooted(g)
        sub = induced_subgraph_of_subtree(g, rt, rt.nodes.index(AbcNode(KIND_A, (2,))))
        assert set(sub.vertices) == {2, 4}
        assert sub.edges() == ((2, 4),)

    def test_subtree_at_root_is_whole_graph(self):
        g = gen_bull()
        rt = bull_rooted(g)
        assert induced_subgraph_of_subtree(g, rt, rt.root) == g

    def test_subtree_at_pendant_is_one_vertex(self):
        g = gen_bull()
        rt = bull_rooted(g)
        sub = induced_subgraph_of_subtree(g, rt, rt.nodes.index(AbcNode(KIND_P, (0,))))
        assert set(sub.vertices) == {0} and sub.num_edges == 0

    def test_subtrees_connected_and_reconstruct(self):
        rng = random.Random(4)
        for i in range(40):
            g = gen_random_connected(rng.randint(2, 8), rng.uniform(0.2, 0.6), 50 + i)
            t = build_abc_tree(g)
            if KIND_C not in t.kinds:
                continue
            rt = root_at(t, default_root(t))
            for x in rt.order[::-1]:
                assert is_connected(induced_subgraph_of_subtree(g, rt, x))
            assert induced_subgraph_of_subtree(g, rt, rt.root) == g

    def test_aerial_adds_pendant_at_attachment(self):
        g = gen_bull()
        rt = bull_rooted(g)
        sub, aerial = aerial_subgraph_of_subtree(g, rt, rt.nodes.index(AbcNode(KIND_A, (2,))))
        assert aerial == 5
        assert set(sub.vertices) == {2, 4, 5}
        assert sub.edges() == ((2, 4), (2, 5))

    def test_aerial_on_pendant_subtree_is_single_edge(self):
        g = gen_bull()
        rt = bull_rooted(g)
        sub, aerial = aerial_subgraph_of_subtree(g, rt, rt.nodes.index(AbcNode(KIND_P, (0,))))
        assert sub.edges() == ((0, aerial),)

    def test_aerial_never_collides(self):
        rng = random.Random(5)
        for i in range(30):
            g = gen_random_connected(rng.randint(3, 8), rng.uniform(0.25, 0.6), 90 + i)
            t = build_abc_tree(g)
            if KIND_C not in t.kinds:
                continue
            rt = root_at(t, default_root(t))
            for x in rt.order[::-1]:
                if x == rt.root:
                    with pytest.raises(GraphError):
                        aerial_subgraph_of_subtree(g, rt, x)
                else:
                    _, aerial = aerial_subgraph_of_subtree(g, rt, x)
                    assert aerial not in g


class TestRendering:
    def test_text_render_mentions_every_node(self):
        g = gen_bull()
        rt = bull_rooted(g)
        lines = list(render_text(rt))
        # one newline-terminated line per node, yielded as it is rendered
        assert len(lines) == len(rt.nodes)
        assert all(line.count("\n") == 1 and line.endswith("\n") for line in lines)
        text = "".join(lines)
        for node in rt.nodes:
            assert str(node) in text

    def test_dot_outputs_parse_superficially(self):
        g = gen_bull()
        t = build_abc_tree(g)
        dot = tree_to_dot(t)
        assert dot.startswith("graph") and dot.rstrip().endswith("}")
        dot2 = decomposition_dot(build_abc_tree(g))
        assert "style=dashed" in dot2 and "diamond" not in dot2
