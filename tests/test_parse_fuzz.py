"""Differential property test of the edge-list parser: `from_edge_list`
gives the same graph, or fails on the same line with the same message, as
the reference parser in conftest.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rmis.graph import GraphError, from_edge_list  # noqa: E402

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
