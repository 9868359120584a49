"""The seed-7 census as a golden: 1,500 generated chains through the three
certificates, one line each.

The chains are the first 1,500 valid `draw_chain` draws (draws that
`ChainSpec` rejects are skipped) from `random.Random(7)`.  A change that
moves a verdict shows up as a diff of this file rather than a hand count.
Regenerate it with

    PYTHONPATH=src python tests/test_census.py

Each line, fields separated by `|`:
  index; the explicit schedules as p:a/b/c with each coordinate
  start.base.slope; the family exponents a.b.c (or -); the wildness verdict
  at window (3,5), its grade, stable_from_level and reason; each report
  as l1-l2@d:order with + when persistent; the freeness verdict at
  (1, 100, 6) and its escape depth; for l = 1, 2 the discriminant orders
  over depths l..l+3 with s when stabilized; and the first 12 hex digits
  of the sha256 of the full reprs of the four results, each certificate's
  with the chain label and the window it was computed for written in
  after its verdict (`_with_inputs`).
"""

import hashlib
import random
import sys
from pathlib import Path

from nilcantor.dynamics import (
    discriminant_limit_report,
    freeness_certificate,
    wildness_certificate,
)
from nilcantor.errors import ContractError

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from gen_chains import draw_chain  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden" / "census_seed7.txt"
SEED = 7
COUNT = 1500
WINDOW = (3, 5)  # wildness certificate: max cylinder, max depth
FREENESS = (1, 100, 6)  # cylinder, ball radius, max depth
DISCRIMINANT_LEVELS = (1, 2)  # each read over depths l..l+3
SHOWN_DIFFS = 10


def census_chains() -> list:
    rng = random.Random(SEED)
    chains = []
    while len(chains) < COUNT:
        try:
            chains.append(draw_chain(rng))
        except ContractError:
            continue
    return chains


def _coord(s) -> str:
    return f"{s.start}.{s.base}.{s.slope}"


def _with_inputs(cert, label: str, parameters: tuple) -> str:
    """The certificate's repr with the chain label and the named window
    parameters written in after its verdict: certificates store neither,
    and the digest names both."""
    verdict = f"verdict={cert.verdict!r}, "
    inputs = f"chain_label={label!r}, parameters={parameters!r}, "
    return repr(cert).replace(verdict, verdict + inputs, 1)


def census_line(index: int, chain) -> str:
    wild = wildness_certificate(chain, *WINDOW)
    free = freeness_certificate(chain, *FREENESS)
    discs = [discriminant_limit_report(chain, level, level + 3) for level in DISCRIMINANT_LEVELS]
    family = chain.family
    texts = [
        _with_inputs(wild, chain.label, tuple(zip(("max_cylinder", "max_depth"), WINDOW))),
        _with_inputs(
            free, chain.label, tuple(zip(("cylinder", "ball_radius", "max_depth"), FREENESS))
        ),
        *map(repr, discs),
    ]
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    fields = [
        f"{index:04d}",
        " ".join(f"{s.prime}:{_coord(s.a)}/{_coord(s.b)}/{_coord(s.c)}" for s in chain.explicit),
        "-" if family is None else f"{family.a_exp}.{family.b_exp}.{family.c_exp}",
        f"{wild.verdict} {wild.evidence_grade} {wild.stable_from_level} {wild.reason}",
        " ".join(
            f"{r.cylinder}-{r.refined}@{r.depth}:{r.kernel_order}{'+' if r.persistent else ''}"
            for r in wild.reports
        ),
        f"{free.verdict} {free.escape_depth}",
        " ".join(
            ",".join(map(str, d.orders)) + ("s" if d.stabilized else "") for d in discs
        ),
        digest[:12],
    ]
    return "|".join(fields)


def census_text() -> str:
    return "".join(census_line(i, c) + "\n" for i, c in enumerate(census_chains()))


def test_census_matches_golden():
    expected = GOLDEN.read_text().splitlines()
    actual = census_text().splitlines()
    diffs = [
        f"line {i}:\n  golden: {old}\n  now:    {new}"
        for i, (old, new) in enumerate(zip(expected, actual))
        if old != new
    ]
    shown = "\n".join(diffs[:SHOWN_DIFFS])
    assert not diffs, f"{len(diffs)} census lines differ; first {SHOWN_DIFFS}:\n{shown}"
    assert len(actual) == len(expected) == COUNT


if __name__ == "__main__":
    GOLDEN.write_text(census_text())
