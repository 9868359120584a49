"""The mutant catalogue cannot rot unseen: every entry still applies."""

from pathlib import Path

from mutants import MUTANTS

SRC = Path(__file__).resolve().parent.parent / "src"


def test_each_mutant_text_occurs_once_under_src():
    texts = {path: path.read_text() for path in sorted(SRC.rglob("*.py"))}
    for mutant in MUTANTS:
        counts = {path.name: text.count(mutant.old) for path, text in texts.items()}
        assert {name: n for name, n in counts.items() if n} == {mutant.file: 1}, mutant.name
