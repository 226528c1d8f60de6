import gc
import random
import timeit
import tracemalloc

import pytest

from rmis.graph import (
    EdgeListParseError,
    Graph,
    GraphError,
    articulation_points,
    ball,
    biconnected_components,
    blocks,
    bridges,
    edge,
    from_edge_list,
    induced_subgraph,
    is_bipartite,
    is_connected,
    pendant_vertices,
    reach,
    remove_edges,
    to_edge_list,
)
from rmis.generators import (
    gen_bull,
    gen_complete_bipartite,
    gen_cycle,
    gen_gk,
    gen_path,
    gen_random_connected,
    gen_sparse_sputnik,
)

from conftest import (
    brute_articulation_points,
    brute_biconnected_components,
    brute_bridges,
    connected_graphs,
    diameter,
    traced,
)


class TestParsing:
    def test_two_edge_path(self):
        g = from_edge_list("0 1\n1 2")
        assert g.vertices == (0, 1, 2)
        assert g.edges() == ((0, 1), (1, 2))

    def test_duplicate_edges_collapse(self):
        g = from_edge_list("0 1\n1 0")
        assert g.edges() == ((0, 1),)

    def test_self_loop_rejected(self):
        with pytest.raises(EdgeListParseError) as err:
            from_edge_list("0 1\n0 0")
        assert err.value.line == 2

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListParseError) as err:
            from_edge_list("0 1\nfoo bar")
        assert err.value.line == 2

    def test_comments_blanks_and_isolated_vertices(self):
        g = from_edge_list("# header\n\n0 1\n7\n")
        assert g.vertices == (0, 1, 7)
        assert g.degree(7) == 0

    def test_three_numbers_rejected(self):
        with pytest.raises(EdgeListParseError):
            from_edge_list("0 1 2")

    def test_roundtrip_is_identity(self):
        for g in (gen_bull(), gen_cycle(5), from_edge_list("0 1\n5\n9\n2 3")):
            assert from_edge_list(to_edge_list(g)) == g

    @pytest.mark.parametrize("sep", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_line_number_past_the_first_chunks(self, sep):
        # K_{50,50}'s 2,500 lines span several chunks, and a chunk that
        # ended between "\r" and "\n" would count a line too many
        lines = to_edge_list(gen_complete_bipartite(50, 50)).splitlines()
        with pytest.raises(EdgeListParseError, match="^line 2501: self-loop at vertex 3$"):
            from_edge_list(sep.join([*lines, "3 3"]))

    def test_serializer_sorted(self):
        g = Graph(range(4), [(2, 3), (0, 2), (0, 1)])
        assert to_edge_list(g) == "0 1\n0 2\n2 3\n"


class TestParseMemory:
    def test_parsed_graph_bytes_per_vertex(self):
        # a frozenset per vertex and a new int for every mention of an id
        # kept 327 B per vertex on gk(1600); sorted neighbour tuples whose
        # ids are their keys' own int objects keep 127
        text = to_edge_list(gen_gk(1600).graph)
        g, kept, _ = traced(lambda: from_edge_list(text))
        per_vertex = kept / g.n
        assert per_vertex <= 160, f"{per_vertex:.0f} B per vertex"

    def test_parse_peak_stays_near_the_graph_it_keeps(self):
        # the parse peaks while its neighbour lists and the lines not yet
        # read are alive: 1.39 times the tuple graph it keeps on gk(1600).
        # Neighbour sets beside the whole line list peaked at 1.3 times a
        # frozenset graph 2.6 times as big, and freezing into a second dict
        # held every set and every frozenset at once, at 2.05 times. The
        # ratio alone would pass a bigger parse of a bigger graph, so the
        # peak is also bounded in bytes per vertex: 178 with the whole text
        # split into lines, 189 read in bulk a chunk at a time
        text = to_edge_list(gen_gk(1600).graph)
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            g = from_edge_list(text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        ratio = (peak - before) / (kept - before)
        per_vertex = (peak - before) / g.n
        assert g.n == 6 * 1601 and ratio <= 1.6, f"parse peak {ratio:.2f} times the kept graph"
        assert per_vertex <= 200, f"parse peak {per_vertex:.0f} B per vertex"

    def test_bulk_read_holds_no_line_list(self):
        # K_{100,100} has 50 times as many edges as vertices, so here the
        # parse peak is mostly what it holds per line: 64 B per n + m with
        # a list of the whole text's lines, 36 read a chunk at a time
        text = to_edge_list(gen_complete_bipartite(100, 100))
        g, _, peak = traced(lambda: from_edge_list(text))
        per_element = peak / (g.n + g.num_edges)
        assert per_element <= 45, f"parse peak {per_element:.0f} B per n + m"

    @pytest.mark.parametrize("sep", ["\r", "\x0c", "\x85", "\u2028"], ids=["cr", "ff", "nel", "ls"])
    def test_bare_carriage_returns_end_chunks(self, sep):
        # with bare "\r" line ends, or any other that `str.splitlines`
        # honours, a chunk ends at the first one past its length, so the
        # line parser holds one chunk's lines at a time: 23 B per n + m,
        # against 20 for the "\n" text read in bulk. A chunk that ran on to
        # the next "\n" took the whole text in one, at 81
        text = to_edge_list(gen_complete_bipartite(100, 100))
        sep_text = text.replace("\n", sep)
        g, _, sep_peak = traced(lambda: from_edge_list(sep_text))
        assert g == from_edge_list(text)
        _, _, lf_peak = traced(lambda: from_edge_list(text))
        assert sep_peak <= 1.5 * lf_peak, f"parse peak {sep_peak / lf_peak:.2f} times the \"\\n\" text's"


def best_parse_times(texts):
    """Each text's best parse time of five; the texts alternate, so a slow
    spell of the machine hits all of them.
    """
    best = [float("inf")] * len(texts)
    for _ in range(5):
        for i, t in enumerate(texts):
            best[i] = min(best[i], timeit.timeit(lambda: from_edge_list(t), number=1))
    return best


class TestParseTime:
    # timeit holds the cyclic collector off, whose full passes scale with
    # everything the rest of the suite keeps alive, not with the code timed
    def test_serializer_form_is_read_in_bulk(self):
        # with "\r\n" line ends every chunk is out of the serializer's form
        # and read line by line, at the bulk read's speed or slower: 1.0
        # times with no bulk read, 0.5-0.55 with it
        text = to_edge_list(gen_complete_bipartite(100, 100))
        bulk, lines = best_parse_times([text, text.replace("\n", "\r\n")])
        assert bulk <= 0.8 * lines, f"{bulk * 1e3:.2f} ms in bulk, {lines * 1e3:.2f} ms by line"

    def test_stray_line_costs_one_chunk(self):
        # one leading comment line sends one chunk to the line parser and
        # the rest is read in bulk: 0.53-0.56 times the line-by-line read,
        # where handing the rest of the text to the line parser read 1.0
        text = to_edge_list(gen_complete_bipartite(100, 100))
        stray, lines = best_parse_times(["# x\n" + text, text.replace("\n", "\r\n")])
        assert stray <= 0.8 * lines, f"{stray * 1e3:.2f} ms with a stray line, {lines * 1e3:.2f} ms by line"


class TestGraphInvariants:
    def test_needs_a_vertex(self):
        with pytest.raises(GraphError):
            Graph()

    def test_negative_id_rejected(self):
        with pytest.raises(GraphError):
            Graph([-1])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(edges=[(1, 1)])
        with pytest.raises(GraphError, match="^self-loop at vertex 3$"):
            edge(3, 3)

    @pytest.mark.parametrize(
        "op",
        [
            lambda g: g.neighbors(9),
            lambda g: g.degree(9),
            lambda g: reach(g, 9),
            lambda g: reach(g, 9, []),
            lambda g: ball(g, 9, 2),
            lambda g: induced_subgraph(g, [0, 9]),
        ],
        ids=["neighbors", "degree", "reach", "reach-exits", "ball", "induced_subgraph"],
    )
    def test_unknown_vertex_rejected(self, op):
        with pytest.raises(GraphError, match="^unknown vertex 9$"):
            op(gen_path(3))

    @pytest.mark.parametrize("bad", [-1, True, False, 2.0, "3", None])
    def test_bad_id_rejected_at_either_endpoint(self, bad):
        message = f"vertex ids must be non-negative integers, got {bad!r}"
        for e in ((bad, 5), (5, bad)):
            with pytest.raises(GraphError) as err:
                Graph(edges=[(0, 1), e])
            assert str(err.value) == message

    def test_equality_hash_and_repr(self):
        g = Graph([3], [(0, 1), (2, 1), (1, 0)])
        parsed = from_edge_list("1 0\n1 2\n3\n")
        assert g == parsed and hash(g) == hash(parsed)
        assert g.__eq__(g.edges()) is NotImplemented
        assert g != g.edges()
        assert repr(g) == "Graph(n=4, m=2)"

    def test_adjacency_symmetric(self):
        g = gen_bull()
        for u in g.vertices:
            for w in g.neighbors(u):
                assert u in g.neighbors(w)


class TestConnectivity:
    def test_triangle_connected(self):
        assert is_connected(gen_cycle(3))

    def test_two_disjoint_edges(self):
        assert not is_connected(Graph(edges=[(0, 1), (2, 3)]))

    def test_single_vertex(self):
        assert is_connected(Graph([0]))


class TestPendants:
    def test_bull(self):
        assert pendant_vertices(gen_bull()) == {0, 4}

    def test_cycle(self):
        assert pendant_vertices(gen_cycle(4)) == set()

    def test_single_edge(self):
        assert pendant_vertices(Graph(edges=[(0, 1)])) == {0, 1}


class TestLowlinkDecompositions:
    def test_path_articulation(self):
        assert articulation_points(gen_path(3)) == {1}

    def test_cycle_articulation(self):
        assert articulation_points(gen_cycle(4)) == set()

    def test_bull_articulation_matches_bruteforce(self):
        bull = gen_bull()
        assert brute_articulation_points(bull) == {1, 2}
        assert articulation_points(bull) == {1, 2}

    def test_bull_bridges_match_bruteforce(self):
        bull = gen_bull()
        assert brute_bridges(bull) == {(0, 1), (2, 4)}
        assert bridges(bull) == {(0, 1), (2, 4)}

    def test_cycle_has_no_bridges(self):
        assert bridges(gen_cycle(4)) == set()

    def test_path_bridges(self):
        assert bridges(gen_path(3)) == {(0, 1), (1, 2)}

    def test_disconnected_rejected(self):
        g = Graph(edges=[(0, 1), (2, 3)])
        for op in (articulation_points, bridges, biconnected_components, diameter):
            with pytest.raises(GraphError):
                op(g)

    def test_bull_components(self):
        assert biconnected_components(gen_bull()) == [
            frozenset({0, 1}),
            frozenset({1, 2, 3}),
            frozenset({2, 4}),
        ]

    def test_cycle_single_component(self):
        assert biconnected_components(gen_cycle(4)) == [frozenset({0, 1, 2, 3})]

    def test_star_components(self):
        star = gen_complete_bipartite(1, 3)
        assert biconnected_components(star) == [
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({0, 3}),
        ]

    def test_exhaustive_small_against_definitions(self):
        for n in range(2, 6):
            for g in connected_graphs(n):
                assert articulation_points(g) == brute_articulation_points(g)
                assert bridges(g) == brute_bridges(g)
                assert biconnected_components(g) == brute_biconnected_components(g)

    def test_random_medium_against_definitions(self):
        rng = random.Random(42)
        for i in range(120):
            n = rng.randint(6, 8)
            g = gen_random_connected(n, rng.uniform(0.2, 0.6), rng.randrange(10**6))
            assert articulation_points(g) == brute_articulation_points(g)
            assert bridges(g) == brute_bridges(g)
            assert biconnected_components(g) == brute_biconnected_components(g)

    def test_every_edge_in_exactly_one_component(self):
        rng = random.Random(7)
        for i in range(60):
            g = gen_random_connected(rng.randint(2, 9), rng.uniform(0.2, 0.7), i)
            comps = biconnected_components(g)
            brs = bridges(g)
            for u, v in g.edges():
                holders = [c for c in comps if u in c and v in c]
                assert len(holders) == 1
                if len(holders[0]) >= 3:
                    assert (u, v) not in brs


class TestBlockPassMemory:
    def test_peak_bytes_per_vertex(self):
        # disc and low dicts, a (vertex, parent, iterator) tuple per path
        # frame, a frozenset per block and a vertex-to-block dict peaked at
        # 251 B per vertex on gk(1600); flat lists by DFS number and a sorted
        # tuple per block stay well below
        g = gen_gk(1600).graph
        _, _, peak = traced(lambda: blocks(g))
        per_vertex = peak / g.n
        assert per_vertex <= 160, f"{per_vertex:.0f} B per vertex"

    def test_kept_bytes_per_vertex_on_a_sparse_sputnik(self):
        # what the pass returns on a graph that is mostly bridges: 204 B per
        # vertex while it also kept a set of every bridge, which are the
        # size-2 components already; 183 without it
        g = gen_sparse_sputnik(20_000, 2_000, 1)
        found, kept, _ = traced(lambda: blocks(g))
        per_vertex = kept / g.n
        assert len(found.components) > g.n // 2 and per_vertex <= 195, f"{per_vertex:.0f} B per vertex"


class TestBipartite:
    def test_square(self):
        assert is_bipartite(gen_cycle(4)) == ({0, 2}, {1, 3})

    def test_triangle(self):
        assert is_bipartite(gen_cycle(3)) is None

    def test_path(self):
        assert is_bipartite(gen_path(3)) == ({0, 2}, {1})

    def test_per_component_smallest_first(self):
        g = Graph(edges=[(0, 1), (2, 3)])
        assert is_bipartite(g) == ({0, 2}, {1, 3})


class TestBall:
    def test_square_radius_one(self):
        sub, boundary = ball(gen_cycle(4), 0, 1)
        assert set(sub.vertices) == {0, 1, 3}
        assert sub.edges() == ((0, 1), (0, 3))
        assert boundary == {1, 3}

    def test_k33_radius_three_is_everything(self):
        g = gen_complete_bipartite(3, 3)
        sub, boundary = ball(g, 0, 3)
        assert sub == g
        assert boundary == set()

    def test_path_end(self):
        sub, boundary = ball(gen_path(10), 0, 3)
        assert set(sub.vertices) == {0, 1, 2, 3}
        assert boundary == {3}

    def test_negative_radius_rejected(self):
        with pytest.raises(GraphError, match="^radius must be non-negative$"):
            ball(gen_path(3), 0, -1)

    def test_radius_beyond_diameter_covers_graph(self):
        rng = random.Random(11)
        for i in range(25):
            g = gen_random_connected(rng.randint(1, 8), 0.4, i)
            sub, boundary = ball(g, g.vertices[0], diameter(g))
            assert sub == g and boundary == set()


class TestDiameter:
    def test_single_vertex(self):
        assert diameter(Graph([5])) == 0

    def test_square(self):
        assert diameter(gen_cycle(4)) == 2

    def test_gadget_matches_floyd_warshall(self):
        g = gen_gk(1).graph
        n = g.n
        dist = [[0 if i == j else 10**9 for j in range(n)] for i in range(n)]
        for u, v in g.edges():
            dist[u][v] = dist[v][u] = 1
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if dist[i][k] + dist[k][j] < dist[i][j]:
                        dist[i][j] = dist[i][k] + dist[k][j]
        assert diameter(g) == max(max(row) for row in dist) == 7


class TestRemoveEdges:
    def test_square_minus_edge_is_path(self):
        g = remove_edges(gen_cycle(4), [(0, 1)])
        assert g.num_edges == 3 and is_connected(g)
        assert pendant_vertices(g) == {0, 1}

    def test_remove_nothing_is_identity(self):
        g = gen_bull()
        assert remove_edges(g, []) == g

    def test_triangle_minus_two_is_path(self):
        g = remove_edges(gen_cycle(3), [(0, 1), (1, 2)])
        assert g.edges() == ((0, 2),)
        assert set(g.vertices) == {0, 1, 2}

    def test_unknown_edge(self):
        with pytest.raises(GraphError):
            remove_edges(gen_cycle(3), [(0, 4)])
