import random

import pytest

from rmis.abctree import (
    AbcNode,
    build_abc_tree,
    decomposition_dot,
    default_root,
    render_text,
    root_at,
    tree_to_dot,
)
from rmis.graph import Graph, GraphError, is_connected
from rmis.generators import gen_bull, gen_cycle, gen_gk, gen_path, gen_random_connected

from conftest import aerial_subgraph_of_subtree, connected_graphs, induced_subgraph_of_subtree


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
            AbcNode.pendant(0),
            AbcNode.pendant(4),
            AbcNode.articulation(1),
            AbcNode.articulation(2),
            AbcNode.bridge(0, 1),
            AbcNode.bridge(2, 4),
            AbcNode.component({1, 2, 3}),
        }
        # ids follow sorted node order
        assert list(t.nodes) == sorted(t.nodes)
        # the tree is the path P(0)-B(0,1)-A(1)-C(1,2,3)-A(2)-B(2,4)-P(4)
        path = [
            AbcNode.pendant(0),
            AbcNode.bridge(0, 1),
            AbcNode.articulation(1),
            AbcNode.component({1, 2, 3}),
            AbcNode.articulation(2),
            AbcNode.bridge(2, 4),
            AbcNode.pendant(4),
        ]
        ids = list(map(t.nodes.index, path))
        assert t.edges() == sorted(tuple(sorted(e)) for e in zip(ids, ids[1:]))

    def test_path_is_all_bridges(self):
        t = build_abc_tree(gen_path(3))
        assert t.component_nodes() == []
        assert set(t.nodes) == {
            AbcNode.pendant(0),
            AbcNode.pendant(2),
            AbcNode.articulation(1),
            AbcNode.bridge(0, 1),
            AbcNode.bridge(1, 2),
        }

    def test_square_is_one_component(self):
        t = build_abc_tree(gen_cycle(4))
        assert t.nodes == (AbcNode.component({0, 1, 2, 3}),)

    def test_single_vertex_registers_as_pendant(self):
        t = build_abc_tree(Graph([3]))
        assert t.nodes == (AbcNode.pendant(3),)

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
            for root in t.component_nodes():
                assert all(list(kids) == sorted(kids) for kids in root_at(t, root).children)


class TestRooting:
    def test_bull_rooted_at_component(self):
        g = gen_bull()
        t = build_abc_tree(g)
        rt = root_at(t, default_root(t))
        assert rt.nodes[rt.root] == AbcNode.component({1, 2, 3})
        assert {rt.nodes[c] for c in rt.children[rt.root]} == {
            AbcNode.articulation(1),
            AbcNode.articulation(2),
        }
        assert rt.attachment[rt.nodes.index(AbcNode.bridge(0, 1))] == 1
        assert rt.attachment[rt.nodes.index(AbcNode.articulation(1))] == 1
        assert rt.attachment[rt.nodes.index(AbcNode.pendant(0))] == 0
        assert rt.attachment[rt.root] is None

    def test_square_root_has_no_children(self):
        t = build_abc_tree(gen_cycle(4))
        rt = root_at(t, default_root(t))
        assert rt.children[rt.root] == ()

    def test_root_must_be_component(self):
        t = build_abc_tree(gen_bull())
        for bad in (t.nodes.index(AbcNode.articulation(1)), len(t.nodes), -1):
            with pytest.raises(GraphError):
                root_at(t, bad)

    def test_acyclic_graph_has_no_root(self):
        with pytest.raises(GraphError):
            default_root(build_abc_tree(gen_path(4)))

    def test_postorder_children_first(self):
        t = build_abc_tree(gen_bull())
        rt = root_at(t, default_root(t))
        order = rt.postorder()
        pos = {x: i for i, x in enumerate(order)}
        for x in order:
            for c in rt.children[x]:
                assert pos[c] < pos[x]
        assert order[-1] == rt.root


def bull_rooted(g):
    t = build_abc_tree(g)
    return root_at(t, t.nodes.index(AbcNode.component({1, 2, 3})))


class TestSubtreeGraphs:
    def test_bull_subtree_at_horn_side(self):
        g = gen_bull()
        rt = bull_rooted(g)
        sub = induced_subgraph_of_subtree(g, rt, rt.nodes.index(AbcNode.articulation(2)))
        assert set(sub.vertices) == {2, 4}
        assert sub.edges() == ((2, 4),)

    def test_subtree_at_root_is_whole_graph(self):
        g = gen_bull()
        rt = bull_rooted(g)
        assert induced_subgraph_of_subtree(g, rt, rt.root) == g

    def test_subtree_at_pendant_is_one_vertex(self):
        g = gen_bull()
        rt = bull_rooted(g)
        sub = induced_subgraph_of_subtree(g, rt, rt.nodes.index(AbcNode.pendant(0)))
        assert set(sub.vertices) == {0} and sub.num_edges == 0

    def test_subtrees_connected_and_reconstruct(self):
        rng = random.Random(4)
        for i in range(40):
            g = gen_random_connected(rng.randint(2, 8), rng.uniform(0.2, 0.6), 50 + i)
            t = build_abc_tree(g)
            if not t.component_nodes():
                continue
            rt = root_at(t, default_root(t))
            for x in rt.postorder():
                assert is_connected(induced_subgraph_of_subtree(g, rt, x))
            assert induced_subgraph_of_subtree(g, rt, rt.root) == g

    def test_aerial_adds_pendant_at_attachment(self):
        g = gen_bull()
        rt = bull_rooted(g)
        sub, aerial = aerial_subgraph_of_subtree(g, rt, rt.nodes.index(AbcNode.articulation(2)))
        assert aerial == 5
        assert set(sub.vertices) == {2, 4, 5}
        assert sub.edges() == ((2, 4), (2, 5))

    def test_aerial_on_pendant_subtree_is_single_edge(self):
        g = gen_bull()
        rt = bull_rooted(g)
        sub, aerial = aerial_subgraph_of_subtree(g, rt, rt.nodes.index(AbcNode.pendant(0)))
        assert sub.edges() == ((0, aerial),)

    def test_aerial_never_collides(self):
        rng = random.Random(5)
        for i in range(30):
            g = gen_random_connected(rng.randint(3, 8), rng.uniform(0.25, 0.6), 90 + i)
            t = build_abc_tree(g)
            if not t.component_nodes():
                continue
            rt = root_at(t, default_root(t))
            for x in rt.postorder():
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
        text = render_text(rt)
        for node in rt.nodes:
            assert str(node) in text

    def test_dot_outputs_parse_superficially(self):
        g = gen_bull()
        t = build_abc_tree(g)
        dot = tree_to_dot(t)
        assert dot.startswith("graph") and dot.rstrip().endswith("}")
        dot2 = decomposition_dot(build_abc_tree(g))
        assert "style=dashed" in dot2 and "diamond" not in dot2
