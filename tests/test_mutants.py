"""The mutation sweep's list stays applicable: ``tools/mutants.py`` itself
runs outside tier-1, since each mutant costs one run of the suite."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_site_occurs_exactly_once(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_expected_killer_exists(mutant):
    path, *names = mutant.killer.split("::")
    source = (ROOT / path).read_text(encoding="utf-8")
    for name in names:
        keyword = "class" if name.startswith("Test") else "def"
        assert f"{keyword} {name}" in source


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
