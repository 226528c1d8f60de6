"""Property test of the graph's adjacency: each neighbourhood is a sorted,
duplicate-free tuple whose ids are the dict keys' own int objects, built
the same by the parser and the constructor, and read the same as a
set-based reference by `neighbors`, `has_edge` and `edges`. The parser is
fed both its line-by-line input and the serializer's "u v" form, which it
reads in bulk.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rmis.graph import Graph, from_edge_list  # noqa: E402

# ids from 1000 up, where CPython shares no int object between mentions
_IDS = st.integers(min_value=1000, max_value=1030)


@st.composite
def edge_lists(draw):
    """Distinct edges, each written once or more and in either direction,
    in a shuffled order, plus some isolated vertices.
    """
    pairs = draw(st.lists(st.tuples(_IDS, _IDS).filter(lambda e: e[0] != e[1]), max_size=40))
    lines = []
    for u, v in pairs:
        lines += [(u, v)] * draw(st.integers(1, 3))
        if draw(st.booleans()):
            lines.append((v, u))
    lines = draw(st.permutations(lines))
    isolated = draw(st.lists(_IDS, max_size=4))
    if not lines and not isolated:
        isolated = [1000]
    return lines, isolated


def reference_adjacency(lines, isolated):
    adj = {v: set() for v in isolated}
    for u, v in lines:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def assert_shared_sorted_tuples(g):
    keys = {v: v for v in g._adj}
    for ns in g._adj.values():
        assert type(ns) is tuple
        assert list(ns) == sorted(set(ns))
        assert all(w is keys[w] for w in ns)  # the key's own int object


class TestAdjacency:
    @settings(max_examples=300, deadline=None)
    @given(edge_lists())
    def test_parser_and_constructor_agree(self, case):
        lines, isolated = case
        text = "\n".join([f"{u} {v}" for u, v in lines] + [str(v) for v in isolated])
        parsed = from_edge_list(text)
        # fresh int objects for every mention, as a parser would make them
        built = Graph(
            [int(str(v)) for v in isolated],
            [(int(str(u)), int(str(v))) for u, v in lines],
        )
        assert parsed._adj == built._adj
        assert_shared_sorted_tuples(parsed)
        assert_shared_sorted_tuples(built)

    @settings(max_examples=300, deadline=None)
    @given(edge_lists(), st.integers(1, 40))
    def test_bulk_read_agrees_with_the_constructor(self, case, copies):
        # "u v" lines only, repeated up to 40 times, so that a key made in
        # one 4 KiB chunk gets neighbours from the chunks after it
        lines, _ = case
        assume(lines)
        text = "".join(f"{u} {v}\n" for u, v in lines) * copies
        parsed = from_edge_list(text)
        built = Graph(edges=[(int(str(u)), int(str(v))) for u, v in lines])
        assert parsed._adj == built._adj
        assert_shared_sorted_tuples(parsed)

    @settings(max_examples=300, deadline=None)
    @given(edge_lists(), st.lists(st.tuples(_IDS, _IDS), max_size=20))
    def test_reads_agree_with_a_set_reference(self, case, probes):
        lines, isolated = case
        g = Graph(isolated, lines)
        ref = reference_adjacency(lines, isolated)
        assert sorted(g._adj) == sorted(ref)
        for v, ns in ref.items():
            assert type(g.neighbors(v)) is frozenset
            assert g.neighbors(v) == frozenset(g._adj[v]) == ns
            assert g.degree(v) == len(ns)
        for u, v in probes + lines:
            assert g.has_edge(u, v) == (u in ref and v in ref[u])
        expected = sorted((u, v) for u, ns in ref.items() for v in ns if u < v)
        assert list(g.edges()) == expected
        assert g.num_edges == len(expected)
