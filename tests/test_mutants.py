"""The mutation list in `tools/mutants.py` stays live: each substitution
matches the working tree's text of its file exactly once, so a source edit
that leaves the list stale fails here rather than when the tool runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_matches_its_file_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.old != mutant.new
    assert all((ROOT / test).is_file() for test in mutant.tests)
