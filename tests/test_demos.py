"""The demos run end to end, and demo 02 prints the labelled bull as before."""

from __future__ import annotations

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted(Path(__file__).resolve().parent.parent.joinpath("demos").glob("*.py"))

BULL_LABELS = """\
== labeled run
C(1,2,3)  E[0, 3, 4]
  A(1)  PI[1] PO[0]
    B(0,1)  PI[1] PO[0]
      P(0)  PE[] PI[0]
  A(2)  PI[2] PO[4]
    B(2,4)  PI[2] PO[4]
      P(4)  PE[] PI[4]
   verdict: [0, 3, 4]
"""


def run_demo(path: Path) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(path), run_name="__main__")
    return buf.getvalue()


def test_three_demos_exist():
    assert [p.name[:3] for p in DEMOS] == ["01_", "02_", "03_"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    assert run_demo(path)


def test_polynomial_search_demo_prints_assembled_witnesses():
    out = run_demo(next(p for p in DEMOS if p.name.startswith("02_")))
    assert BULL_LABELS in out
