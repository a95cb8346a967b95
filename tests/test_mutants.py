"""The fast guard of ``tests/mutants.py``: every mutant still applies, as
its old text occurs exactly once in its file, and names tests that exist.
Running the mutants themselves is ``python tests/mutants.py``."""
from pathlib import Path

import pytest

from mutants import MUTANTS, RETIRED, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_applies_once(mutant):
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    for test in mutant.tests:
        path, *names = test.split("[", 1)[0].split("::")
        assert f"def {names[-1]}(" in (ROOT / path).read_text("utf-8")


@pytest.mark.parametrize("retired", RETIRED, ids=[r.name for r in RETIRED])
def test_each_retired_mutant_s_code_is_gone(retired):
    assert retired.gone not in (ROOT / retired.file).read_text("utf-8")
    assert retired.name not in {m.name for m in MUTANTS}
