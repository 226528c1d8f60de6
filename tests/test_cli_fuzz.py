"""Property test of the CLI exit-code contract: whatever bytes arrive as
input, `find` and `classify` answer 0 or 1 or report an error with 2, and
never let an exception escape.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rmis.cli import main  # noqa: E402


_edge_text = st.lists(
    st.sampled_from(["0", "1", "2", "3", "17", " ", " ", "\n", "\n", "#", "-", "x"]), max_size=60
).map(lambda parts: "".join(parts).encode())


class TestArbitraryBytes:
    @settings(max_examples=150, deadline=None)
    @given(data=st.one_of(st.binary(max_size=80), _edge_text), command=st.sampled_from(["find", "classify"]))
    def test_exit_code_contract(self, data, command):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "input.edges"
            path.write_bytes(data)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                rc = main([command, str(path)])
        assert rc in (0, 1, 2)
        assert (rc == 2) == err.getvalue().startswith("error: ")
