"""The mutant catalogue and the sweep's classifications cannot rot unseen:
every entry still applies."""

import ast
from pathlib import Path

import sweep
from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_each_mutant_text_occurs_once_under_src():
    texts = {path: path.read_text() for path in sorted(SRC.rglob("*.py"))}
    for mutant in MUTANTS:
        counts = {path.name: text.count(mutant.old) for path, text in texts.items()}
        assert {name: n for name, n in counts.items() if n} == {mutant.file: 1}, mutant.name


def test_each_mutant_names_tests_that_exist():
    # The runner stays out of tier-1, so a renamed or deleted test would
    # otherwise orphan its entry until the catalogue next runs.
    missing = []
    for mutant in MUTANTS:
        for node in mutant.tests:
            path, name = node.split("[")[0].split("::")
            file = ROOT / path
            defined = file.is_file() and name in {
                fn.name
                for fn in ast.parse(file.read_text()).body
                if isinstance(fn, ast.FunctionDef)
            }
            if not defined:
                missing.append((mutant.name, node))
    assert missing == []


def test_each_equivalent_survivor_names_a_sweep_site():
    keys = {
        site.key
        for file in sweep.FILES
        for site, _text in sweep.sites(file, (SRC / "nilcantor" / file).read_text())
    }
    assert sorted(set(sweep.EQUIVALENT) - keys) == []
