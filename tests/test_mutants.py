"""Every row of the mutant catalogue in scripts/mutants.py stays anchored:
its old text occurs exactly once in its file, and every test it names is
defined.  A code edit that moves an anchor then fails here, and the row is
retargeted with that edit.  The catalogue run itself, python3
scripts/mutants.py, is not part of this suite."""

import importlib.util
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("row", mutants.MUTANTS, ids=[row[0] for row in mutants.MUTANTS])
def test_mutant_old_text_occurs_exactly_once(row):
    _, path, old, new, tests = row
    assert old != new
    assert (ROOT / path).read_text().count(old) == 1
    assert tests
    for test in tests:
        file, function = test.split("::")
        source = (ROOT / file).read_text()
        assert re.search(rf"^def {function}\(", source, re.MULTILINE), test


def test_mutant_names_are_distinct():
    names = [row[0] for row in mutants.MUTANTS]
    assert len(names) == len(set(names))
