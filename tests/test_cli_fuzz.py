"""Property tests of the CLI exit-code contract: whatever bytes arrive as
input and whatever values the flags carry, every subcommand answers 0 or 1
or reports an error with 2, and never lets an exception escape.

`gen` is left out: its sizes allocate without bound (`gen gk --k 10**9`
builds a graph that size), and a `MemoryError` propagates by contract
rather than being reported as an answer about the input.
"""

import contextlib
import io
import re
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


@st.composite
def _connected_text(draw) -> bytes:
    """A connected graph on up to 8 vertices: a random spanning tree plus
    random chords, so that most subcommands get past the input checks."""
    n = draw(st.integers(min_value=1, max_value=8))
    edges = {(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)}
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
        edges |= set(draw(st.lists(pairs, max_size=10)))
    lines = [f"{u} {v}" for u, v in sorted(edges)] or ["0"]
    return ("\n".join(lines) + "\n").encode()


_inputs = st.one_of(st.binary(max_size=80), _edge_text, _connected_text())

# flag values: small, negative, huge and non-integer numbers, and any text
_numbers = st.one_of(
    st.integers(min_value=-3, max_value=40),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),
    st.text(max_size=8),
).map(str)
_sets = st.one_of(
    st.lists(st.integers(min_value=-2, max_value=20), max_size=5).map(lambda vs: ",".join(map(str, vs))),
    st.text(max_size=12),
)
_ids = st.one_of(
    st.sampled_from(["identity", "random:"]),
    st.integers().map(lambda seed: f"random:{seed}"),
    st.text(max_size=12).map(lambda seed: f"random:{seed}"),
    st.text(max_size=12),
)

# an error line of the program ("error: ...") or of argparse ("rmis verify: error: ...")
_ERROR_LINE = re.compile(r"^(rmis[\w -]*: )?error: ", re.MULTILINE)


@st.composite
def _argv(draw, path: str) -> list[str]:
    """One subcommand on `path` with its flags; each valued flag is passed
    either as `--flag=value` or as two tokens."""

    def flag(name: str, values) -> list[str]:
        value = draw(values)
        return [f"{name}={value}"] if draw(st.booleans()) else [name, value]

    command = draw(st.sampled_from(["find", "verify", "classify", "abc", "oracle", "simulate"]))
    argv = [command, path]
    if command == "find":
        argv += draw(st.sampled_from([[], ["--json"], ["--trace"]]))
    elif command == "verify":
        argv += flag("--set", _sets)
        if draw(st.booleans()):
            argv += ["--brute", *flag("--max-removable", _numbers)]
    elif command == "abc":
        argv += draw(st.sampled_from([[], ["--dot"], ["--dot-graph"]]))
    elif command == "oracle":
        argv += flag("--max-vertices", _numbers)
    elif command == "simulate":
        argv += flag("--ids", _ids) + flag("--max-rounds", _numbers)
    return argv


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard error of one `main` call; an argparse
    rejection arrives as SystemExit(2)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue()


class TestArbitraryBytes:
    @settings(max_examples=150, deadline=None)
    @given(data=_inputs, command=st.sampled_from(["find", "classify"]))
    def test_exit_code_contract(self, data, command):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "input.edges"
            path.write_bytes(data)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                rc = main([command, str(path)])
        assert rc in (0, 1, 2)
        assert (rc == 2) == err.getvalue().startswith("error: ")


class TestEverySubcommand:
    @settings(max_examples=400, deadline=None)
    @given(data=_inputs, draw=st.data())
    def test_exit_code_contract(self, data, draw):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "input.edges"
            path.write_bytes(data)
            argv = draw.draw(_argv(str(path)), label="argv")
            rc, err = run(argv)
        assert rc in (0, 1, 2)
        assert (rc == 2) == bool(_ERROR_LINE.search(err)), err
        assert "internal failure" not in err
