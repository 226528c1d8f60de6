"""The mutant list in `tests/mutants.py` stays applicable: each mutant's old
text occurs exactly once in its module, so no edit of the library leaves a
mutant silently pointing at nothing.
"""

from pathlib import Path

import pytest

import rmis
from mutants import MUTANTS

LIBRARY = Path(rmis.__file__).resolve().parent


@pytest.mark.parametrize("mutant", MUTANTS, ids=[f"{i}-{m.module}" for i, m in enumerate(MUTANTS)])
def test_old_text_occurs_once(mutant):
    text = (LIBRARY / mutant.module).read_text()
    assert text.count(mutant.old) == 1, mutant.breaks
    assert mutant.new != mutant.old
