"""The mutant catalogue: small deliberate faults the test suite must catch.

Each entry names a file under `src/nilcantor/`, an exact text that occurs
once under `src/`, the text that replaces it, and the tests that must fail
once it is replaced.  Run it with

    python3 tests/mutants.py

Each entry is applied to a fresh copy of the checkout in a temporary
directory, and only that entry's tests run there.  A mutant is killed when
every one of its tests fails; a test that passes, or a run that ends in a
collection error, lets it survive.  The runner prints one line per entry
and exits 1 naming every survivor.

The file is not named `test_*.py`, so pytest does not collect it;
`tests/test_mutants.py` checks in tier-1 that every old text still occurs
exactly once under `src/`, and that every test an entry names exists.  A
change that adds a certificate or a property adds its mutants here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/nilcantor/
    old: str
    new: str
    tests: tuple  # pytest node ids that must fail


MUTANTS = (
    Mutant(
        "c-line-plus",
        "dynamics.py",
        "(ec.slope, ec.base - k)",
        "(ec.slope, ec.base + k)",
        (
            "tests/test_properties.py::test_kernel_law_keeps_the_slope_and_never_raises_the_base",
            "tests/test_properties.py::test_kernel_law_is_the_closed_form_at_depth",
        ),
    ),
    Mutant(
        "persistent-without-limit-gap",
        "dynamics.py",
        "ratio == limit_gap == orders[0]",
        "ratio == orders[0]",
        ("tests/test_properties.py::test_persistent_gaps_are_the_gaps_the_limit_keeps",),
    ),
    Mutant(
        "escape-depth-plus-one",
        "dynamics.py",
        "escape_depth=d)",
        "escape_depth=d + 1)",
        ("tests/test_properties.py::test_freeness_verdict_is_the_fixing_scan_in_the_ball",),
    ),
    Mutant(
        "escape-depth-minus-one",
        "dynamics.py",
        "escape_depth=d)",
        "escape_depth=d - 1)",
        ("tests/test_properties.py::test_freeness_verdict_is_the_fixing_scan_in_the_ball",),
    ),
    Mutant(
        "escape-radius-ge",
        "dynamics.py",
        "min(kernel.Ma, kernel.Mb, kernel.Mc) > ball_radius",
        "min(kernel.Ma, kernel.Mb, kernel.Mc) >= ball_radius",
        ("tests/test_properties.py::test_freeness_verdict_is_the_fixing_scan_in_the_ball",),
    ),
    Mutant(
        "stabilized-without-floor",
        "dynamics.py",
        "stabilized = bool(symbolic and (numeric or len(images) == 1))",
        "stabilized = bool(numeric or len(images) == 1)",
        ("tests/test_properties.py::test_stabilized_discriminant_keeps_its_limit_order",),
    ),
    Mutant(
        "promotion-on-c-slope",
        "towers.py",
        "total = sum(s.coord(x).slope for x in COORDS)",
        "total = s.c.slope",
        (
            "tests/test_properties.py"
            "::test_steinitz_limit_exponents_are_read_off_the_raw_orders",
        ),
    ),
    Mutant(
        "one-sided-tail-twice",
        "steinitz.py",
        "fp = {p: op(x1.multiplicity(p), x2.multiplicity(p)) for p",
        "fp = {p: op(x1.multiplicity(p), x2.multiplicity(p))"
        " + (tail.exponent if p in sided else 0) for p",
        ("tests/test_steinitz.py::test_tails_agree_with_multiplicities",),
    ),
    Mutant(
        "kernel-column-one-depth",
        "dynamics.py",
        "range(first, last + 1)",
        "range(first, first + 1)",
        ("tests/test_dynamics.py::test_order_constancy_decides_the_persistent_mark",),
    ),
    Mutant(
        "pair-reads-one-column",
        "dynamics.py",
        "for l in (l1, l2)",
        "for l in (l2, l2)",
        ("tests/test_dynamics.py::test_wild_family_certificate",),
    ),
    Mutant(
        "kernel-limit-without-family",
        "dynamics.py",
        "if f is not None and _kernel_eventual(f.schedule_at(cylinder + 1), cylinder, coord)",
        "if False and _kernel_eventual(f.schedule_at(cylinder + 1), cylinder, coord)",
        (
            "tests/test_properties.py::test_not_free_witness_is_the_generator_past_every_start",
            "tests/test_properties.py::test_not_free_witness_lies_in_every_tested_kernel",
        ),
    ),
    Mutant(
        "kernel-limit-multiple",
        "dynamics.py",
        "modulus *= s.prime ** base",
        "modulus *= s.prime ** (base + 1)",
        (
            "tests/test_properties.py::test_not_free_witness_is_the_generator_past_every_start",
            "tests/test_dynamics.py::test_degenerate_chain_is_not_free",
        ),
    ),
    Mutant(
        "witness-smallest-ratio",
        "dynamics.py",
        "ratios.index(max(ratios))",
        "ratios.index(min(ratios))",
        (
            "tests/test_properties.py::test_derived_witness_marks_exactly_the_gaps",
            "tests/test_dynamics.py::test_lqa_witness_example",
        ),
    ),
    Mutant(
        "inconclusive-schedule-certified",
        "dynamics.py",
        'GRADE_FINITE if self.verdict == "Inconclusive" else GRADE_SCHEDULE',
        "GRADE_SCHEDULE",
        ("tests/test_dynamics.py::test_freeness_inconclusive_when_depth_too_small",),
    ),
    Mutant(
        "family-gap-zero",
        "dynamics.py",
        "return sum(_kernel_eventual(q, 0, x)[0] - _kernel_eventual(q, 1, x)[0]",
        "return 0 * sum(_kernel_eventual(q, 0, x)[0] - _kernel_eventual(q, 1, x)[0]",
        (
            "tests/test_properties.py::test_family_gap_decides_wildness",
            "tests/test_dynamics.py::test_wild_family_certificate",
        ),
    ),
    Mutant(
        "raw-order-max",
        "towers.py",
        "e = s.a.exponent(depth) + s.b.exponent(depth) + s.c.exponent(depth)",
        "e = max(s.a.exponent(depth), s.b.exponent(depth), s.c.exponent(depth))",
        (
            "tests/test_properties.py::test_raw_steinitz_order_is_lcm_of_box_indices",
            "tests/test_towers.py::test_steinitz_order_ex41",
        ),
    ),
    Mutant(
        "branches-cover-each-other",
        "steinitz.py",
        'return base == "primes" or base == _base(t2.primes)',
        'return base == "primes" or _base(t2.primes) != "primes"',
        (
            "tests/test_steinitz.py::test_almost_disjoint_pairwise_inequivalent",
            "tests/test_properties.py"
            "::test_branch_limits_are_equivalent_exactly_when_words_and_sums_agree",
        ),
    ),
    Mutant(
        "below-without-exponent",
        "steinitz.py",
        "return _covers(t2, t1) and t1.exponent <= t2.exponent",
        "return _covers(t2, t1)",
        (
            "tests/test_steinitz.py::test_type_leq_with_tails",
            "tests/test_properties.py"
            "::test_branch_limits_are_equivalent_exactly_when_words_and_sums_agree",
        ),
    ),
    Mutant(
        "relative-core-shear-ma",
        "heisenberg.py",
        "gcd(inner.Mc, outer.Mb)",
        "gcd(inner.Mc, outer.Ma)",
        (
            "tests/test_properties.py::test_kernel_closed_form_equals_fixing_scan",
            "tests/test_heisenberg.py::test_relative_core_examples",
        ),
    ),
    Mutant(
        "branch-keeps-trailing-zeros",
        "steinitz.py",
        '.rstrip("0")',
        "",
        ("tests/test_steinitz.py::test_branches_with_one_stripped_word_are_one_set",),
    ),
    Mutant(
        "combine-keeps-left-tail",
        "steinitz.py",
        "if 2 * len(on_t2) < len(sided):",
        "if False:",
        ("tests/test_steinitz.py::test_tailed_product_same_schedule",),
    ),
    Mutant(
        "coset-table-short-window",
        "oracle.py",
        "for x in range(0, wa, ma)",
        "for x in range(0, wa - ma, ma)",
        ("tests/test_oracle.py::test_canonical_table_matches_closed_form",),
    ),
    Mutant(
        "coset-table-group-law",
        "oracle.py",
        "shift = rc + ra * y",
        "shift = rc + rb * x",
        ("tests/test_oracle.py::test_canonical_table_matches_closed_form",),
    ),
    Mutant(
        "coset-table-non-box-step",
        "oracle.py",
        "for y in range(0, wb, mb)",
        "for y in range(0, wb, 1)",
        ("tests/test_oracle.py::test_canonical_table_matches_closed_form",),
    ),    Mutant(
        "canonical-without-shear",
        "heisenberg.py",
        "(g.c - abar * (g.b - bbar)) % self.Mc",
        "g.c % self.Mc",
        (
            "tests/test_towers.py::test_canonical_constant_on_cosets",
            "tests/test_oracle.py::test_canonical_oracle_agrees_with_closed_form",
            "tests/test_oracle.py::test_canonical_table_matches_closed_form",
        ),
    ),
    Mutant(
        "validation-skips-level-before-start",
        "towers.py",
        "sorted({1} | starts | {s - 1 for s in starts})",
        "sorted({1} | starts)",
        ("tests/test_properties.py::test_breakpoints_decide_what_the_level_walk_decides",),
    ),
    Mutant(
        "stable-level-bisection-past-the-floor",
        "dynamics.py",
        "lo = mid + 1",
        "lo = mid + 2",
        (
            "tests/test_properties.py::test_stable_level_is_one_past_the_last_surviving_drop",
            "tests/test_dynamics.py::test_late_start_chain_gets_honest_stable_level",
        ),
    ),
)


def run(mutant: Mutant) -> str:
    """'killed' or why the mutant survived, from a fresh mutated copy."""
    with tempfile.TemporaryDirectory(prefix="nilcantor-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        target = copy / "src" / "nilcantor" / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "old text does not occur exactly once"
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy,
            env=env,
            capture_output=True,
            text=True,
        )
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    passed = [t for t in mutant.tests if not any(f.split("[")[0] == t for f in failed)]
    if done.returncode != 1:
        return f"survived (pytest exit {done.returncode})"
    if passed:
        return f"survived ({', '.join(passed)} passed)"
    return "killed"


def main() -> int:
    survivors = []
    for mutant in MUTANTS:
        outcome = run(mutant)
        print(f"{mutant.name}: {outcome}", flush=True)
        if outcome != "killed":
            survivors.append(mutant.name)
    if survivors:
        print(f"surviving mutants: {', '.join(survivors)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
