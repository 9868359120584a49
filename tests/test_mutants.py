"""The mutant catalogue and the sweep's classifications cannot rot unseen:
every entry still applies."""

import os
import subprocess
import sys
from pathlib import Path

import sweep
from mutants import MUTANTS, Mutant, run

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_each_mutant_text_occurs_once_under_src():
    texts = {path: path.read_text() for path in sorted(SRC.rglob("*.py"))}
    for mutant in MUTANTS:
        counts = {path.name: text.count(mutant.old) for path, text in texts.items()}
        assert {name: n for name, n in counts.items() if n} == {mutant.file: 1}, mutant.name


def test_each_mutant_names_tests_that_exist():
    # The runner stays out of tier-1, so a renamed or deleted test would
    # otherwise orphan its entry until the catalogue next runs.  An entry
    # names a test or one of its parametrized cases by the id pytest
    # collects.
    files = sorted({node.split("::")[0] for mutant in MUTANTS for node in mutant.tests})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files],
        cwd=ROOT, capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stdout
    collected = set(proc.stdout.splitlines())
    collected |= {node.split("[")[0] for node in collected}
    missing = [(m.name, node) for m in MUTANTS for node in m.tests if node not in collected]
    assert missing == []


class _CannedCheckout:
    """A checkout whose every pytest run exits 1 printing `out`."""

    def __init__(self, out: str):
        self.out = out

    def source(self, file: str) -> str:
        return "old"

    def pytest(self, file, text, args, timeout=None):
        return 1, self.out


def test_run_kills_a_named_case_by_its_own_id():
    checkout = _CannedCheckout(
        "F.\n"
        "FAILED tests/test_x.py::test_y[a] - AssertionError\n"
        "1 failed, 1 passed in 0.01s\n"
    )
    case = Mutant("m", "x.py", "old", "new", ("tests/test_x.py::test_y[a]",))
    assert run(case, checkout) == "killed"
    assert run(case._replace(tests=("tests/test_x.py::test_y",)), checkout) == "killed"
    other = case._replace(tests=("tests/test_x.py::test_y[b]",))
    assert run(other, checkout) == "survived (tests/test_x.py::test_y[b] passed)"


def test_each_equivalent_survivor_names_a_sweep_site():
    keys = {
        site.key
        for file in sweep.FILES
        for site, _text in sweep.sites(file, (SRC / "nilcantor" / file).read_text())
    }
    assert sorted(set(sweep.EQUIVALENT) - keys) == []
