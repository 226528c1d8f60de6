"""Differential property test of the edge-list parser: `from_edge_list`
gives the same graph, or fails on the same line with the same message, as
the reference parser in conftest, on text drawn token by token and on the
serializer's text with one line changed.
"""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rmis.generators import gen_complete_bipartite  # noqa: E402
from rmis.graph import Graph, GraphError, from_edge_list, to_edge_list  # noqa: E402

from conftest import reference_from_edge_list  # noqa: E402

# the CLI fuzz alphabet, plus other whitespace and line breaks (form feed,
# no-break space, the separators `splitlines` breaks on) and the integer
# spellings `int` accepts
_TOKENS = [
    "0", "1", "2", "3", "17", " ", " ", "\n", "\n", "#", "-", "x",
    "\r", "\r\n", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000",
    "+5", "1_0", "-0", "-2", "\u0663",
]  # fmt: skip


def outcome(parse, text):
    try:
        return parse(text)
    except GraphError as err:
        return type(err), getattr(err, "line", None), str(err)


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(_TOKENS), max_size=40).map("".join))
    @example("1 -2 3")
    @example("-1 2 3 4")
    @example("1 2 -3\n")
    @example("  # 1 2\n+5\t1_0\r\n-0 3\x0c")
    @example("\xa07 8\xa0\n# x\n")
    @example("")
    @example("#\n \n")
    @example("# 1")
    @example("1 #")
    @example("1 -2")
    @example("+5 5")
    @example("1 2\n2 1\n2\n")
    def test_same_graph_or_same_error(self, text):
        assert outcome(from_edge_list, text) == outcome(reference_from_edge_list, text)


# what line i of the serializer's text, "u v", becomes: some changes keep
# the text valid but out of the serializer's form, some make it invalid,
# and a self-loop is the one fault a line in that form can have
_LONG_ID = "1" + "0" * 4999  # past `int`'s 4,300-digit limit
_LINE_CHANGES = {
    "none": lambda u, v: [f"{u} {v}"],
    "self-loop": lambda u, v: [f"{u} {u}"],
    "reversed duplicate": lambda u, v: [f"{u} {v}", f"{v} {u}"],
    "leading zero": lambda u, v: [f"0{u} {v}"],
    "tab": lambda u, v: [f"{u}\t{v}"],
    "double space": lambda u, v: [f"{u}  {v}"],
    "crlf": lambda u, v: [f"{u} {v}\r"],
    "comment": lambda u, v: ["# x", f"{u} {v}"],
    "isolated vertex": lambda u, v: ["7", f"{u} {v}"],
    "long id": lambda u, v: [f"{_LONG_ID} {v}"],
    "unicode digit": lambda u, v: [f"{u} {v}\u0663"],
    "one then three ids": lambda u, v: [u, f"{u} {v} {v}"],  # as many spaces as newlines
    "plus sign": lambda u, v: [f"+{u} {v}"],  # `int` accepts it
}
# changes of the whole text: its last line end dropped, an id after it
# that leaves the separators alternating, or every "\n" a bare "\r" or a
# "\u2028", another line end that `str.splitlines` honours. The id has
# several digits and is in none of the graphs drawn here: a bulk read of
# that last chunk would cut its last digit off with the line end it lacks
# and leave it unpaired, so the vertex would be lost (a one-digit id would
# leave an empty one, which JSON refuses)
_TEXT_CHANGES = {
    "no final newline": lambda text: text[:-1],
    "lone last id": lambda text: text + "99999",
    "bare cr line ends": lambda text: text.replace("\n", "\r"),
    "line separator line ends": lambda text: text.replace("\n", "\u2028"),
}
_MUTATIONS = [*_LINE_CHANGES, *_TEXT_CHANGES]


def mutated(text, mutation, where):
    """`text` with line `where` (mod the line count) changed, or with the
    whole text changed.
    """
    if mutation in _TEXT_CHANGES:
        return _TEXT_CHANGES[mutation](text)
    lines = text.split("\n")  # the last is the "" after the final newline
    i = where % (len(lines) - 1)
    lines[i : i + 1] = _LINE_CHANGES[mutation](*lines[i].split(" "))
    return "\n".join(lines)


@st.composite
def serialized_graphs(draw):
    """`to_edge_list` of a random graph without isolated vertices, so that
    every line is "u v": up to about 60 KiB of text, many times the bulk
    read's 4 KiB chunks, with ids of one to thirteen digits.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([2, 10, 300, 5000]))
    offset = draw(st.sampled_from([0, 1000, 10**12]))
    ids = [offset + x for x in range(n)]
    edges = [tuple(rng.sample(ids, 2)) for _ in range(draw(st.integers(1, 4000)))]
    return to_edge_list(Graph(edges=edges))


class TestSerializedTextAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(
        serialized_graphs(),
        st.sampled_from(_MUTATIONS),
        st.integers(min_value=0),
    )
    def test_same_graph_or_same_error(self, text, mutation, where):
        text = mutated(text, mutation, where)
        assert outcome(from_edge_list, text) == outcome(reference_from_edge_list, text)

    @pytest.mark.parametrize(
        "where", [0, 1100, 1450, 2000, -1], ids=["first-line", "second-chunk", "third-chunk-start", "third-chunk", "last-line"]
    )
    @pytest.mark.parametrize("mutation", _MUTATIONS)
    def test_same_graph_or_same_error_past_the_first_chunks(self, mutation, where):
        # K_{50,50}'s 2,500 lines take 14,500 characters, four chunks
        # that start at lines 1, 768, 1,451 and 2,134
        text = to_edge_list(gen_complete_bipartite(50, 50))
        text = mutated(text, mutation, where)
        assert outcome(from_edge_list, text) == outcome(reference_from_edge_list, text)
