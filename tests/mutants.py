"""The mutant catalogue: small deliberate faults the test suite must catch.

Each entry names a file under `src/nilcantor/`, an exact text that occurs
once under `src/`, the text that replaces it, and the tests that must fail
once it is replaced.  Run it with

    python3 tests/mutants.py

The checkout is copied once per run into a temporary directory (`Checkout`);
each entry is written into that copy, only its tests run there, and the
file is restored before the next entry.  A mutant is killed when every one
of its tests fails; a test that passes, or a run that ends in a collection
error, lets it survive.  The runner prints one line per entry and its wall
time, and exits 1 naming every survivor.  `tests/sweep.py`, the mechanical
sweep, runs its mutants through the same `Checkout`.

The file is not named `test_*.py`, so pytest does not collect it;
`tests/test_mutants.py` checks in tier-1 that every old text still occurs
exactly once under `src/`, and that every test an entry names exists.  A
change that adds a certificate or a property adds its mutants here.
"""

import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__")
MEMORY_LIMIT = 4 << 30  # address space of each test run, so a mutant cannot exhaust the host


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


class Checkout:
    """One copy of the checkout in `tmp`, shared by every mutant of a run:
    each is written into the copy, tested and restored."""

    def __init__(self, tmp: str):
        self.root = Path(tmp) / "repo"
        shutil.copytree(ROOT, self.root, ignore=SKIP)
        self.env = dict(
            os.environ, PYTHONPATH=str(self.root / "src"), PYTHONDONTWRITEBYTECODE="1"
        )

    def source(self, file: str) -> str:
        return (self.root / "src" / "nilcantor" / file).read_text()

    def pytest(self, file: str, text: str, args, timeout: Optional[float] = None):
        """Pytest's exit code and stdout for `args`, run in the copy with
        src/nilcantor/`file` replaced by `text`; the exit code is None when
        the run outlived `timeout` seconds and was killed."""
        target = self.root / "src" / "nilcantor" / file
        original = target.read_text()
        target.write_text(text)
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
                cwd=self.root,
                env=self.env,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
                start_new_session=True,
                preexec_fn=_limit_memory,
            )
            try:
                out, _ = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                return None, ""
            return proc.returncode, out
        finally:
            target.write_text(original)
            # Examples a failing run saved must not steer the next run.
            shutil.rmtree(self.root / ".hypothesis", ignore_errors=True)


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
        "set(orders) == {ratio} == {limit_gap}",
        "set(orders) == {ratio}",
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
        "stabilized = symbolic and (len(images) == 1 or images[-1] == images[-2])",
        "stabilized = len(images) == 1 or images[-1] == images[-2]",
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
        "settled-without-family",
        "towers.py",
        'if f is not None and getattr(f, f"{coord}_exp") > 0:',
        "if False:",
        (
            # wild_chain is refused, so modules that build one at import
            # do not collect; these tests build theirs inside.
            "tests/test_towers.py::test_settled_factors_read_the_explicit_slopes_and_the_family",
            "tests/test_towers.py::test_box_at_examples",
        ),
    ),
    Mutant(
        "settled-without-slope",
        "towers.py",
        "if any(s.coord(coord).slope > 0 for s in self.explicit):",
        "if False:",
        (
            # ex41 is refused, so modules that build chains at import do
            # not collect; these tests build theirs inside.
            "tests/test_towers.py::test_settled_factors_read_the_explicit_slopes_and_the_family",
            "tests/test_towers.py::test_box_at_examples",
        ),
    ),
    Mutant(
        "settled-multiple",
        "towers.py",
        "return tuple((s.prime, s.coord(coord).base) for s in self.explicit)",
        "return tuple((s.prime, s.coord(coord).base + 1) for s in self.explicit)",
        (
            "tests/test_properties.py::test_not_free_witness_is_the_generator_past_every_start",
            "tests/test_properties.py::test_not_free_exactly_when_the_c_modulus_settles",
            "tests/test_towers.py::test_settled_factors_read_the_explicit_slopes_and_the_family",
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
        "combine-accepts-one-tail",
        "steinitz.py",
        "if x1.tail is not None or x2.tail is not None:",
        "if x1.tail is not None and x2.tail is not None:",
        ("tests/test_steinitz.py::test_product_and_lcm_refuse_a_tail_on_either_side",),
    ),
    Mutant(
        "infinity-repr-oo",
        "steinitz.py",
        'return "inf"',
        'return "oo"',
        ("tests/test_steinitz.py::test_text_form_examples",),
    ),
    Mutant(
        "infinity-copies-a-fresh-instance",
        "steinitz.py",
        'return "INF"',
        "return (_Infinity, ())",
        ("tests/test_steinitz.py::test_multiplicity_examples",),
    ),
    Mutant(
        "branch-accepts-width-zero",
        "steinitz.py",
        "if not (width >= 1 and 0 <= branch < 2**width):",
        "if not (width >= 0 and 0 <= branch < 2**width):",
        ("tests/test_steinitz.py::test_branch_labels_fit_their_width",),
    ),
    Mutant(
        "branch-accepts-label-two-to-the-width",
        "steinitz.py",
        "if not (width >= 1 and 0 <= branch < 2**width):",
        "if not (width >= 1 and 0 <= branch <= 2**width):",
        ("tests/test_steinitz.py::test_branch_labels_fit_their_width",),
    ),
    Mutant(
        "tail-accepts-exponent-zero",
        "steinitz.py",
        "isinstance(exponent, int) and exponent >= 1",
        "isinstance(exponent, int) and exponent >= 0",
        ("tests/test_steinitz.py::test_tail_exponents_are_positive_and_starts_default_to_zero",),
    ),
    Mutant(
        "tail-accepts-negative-start",
        "steinitz.py",
        "isinstance(start, int) and start >= 0",
        "isinstance(start, int) and start >= -1",
        ("tests/test_steinitz.py::test_tail_exponents_are_positive_and_starts_default_to_zero",),
    ),
    Mutant(
        "tail-default-start-one",
        "steinitz.py",
        "exponent: int, start: int = 0):",
        "exponent: int, start: int = 1):",
        ("tests/test_steinitz.py::test_tail_exponents_are_positive_and_starts_default_to_zero",),
    ),
    Mutant(
        "number-accepts-exponent-zero",
        "steinitz.py",
        "isinstance(e, int) and e >= 1",
        "isinstance(e, int) and e >= 0",
        ("tests/test_steinitz.py::test_disjointness_invariants",),
    ),
    Mutant(
        "tail-overlap-skips-infinite-primes",
        "steinitz.py",
        "for p in list(fp) + list(inf):",
        "for p in list(fp):",
        ("tests/test_steinitz.py::test_disjointness_invariants",),
    ),
    Mutant(
        "spectra-repr-without-pi",
        "steinitz.py",
        '_shown = ("pi",) + __slots__',
        "_shown = __slots__",
        ("tests/test_steinitz.py::test_spectra_examples",),
    ),
    Mutant(
        "spectra-accepts-bound-one",
        "steinitz.py",
        "if bound < 2:",
        "if bound < 1:",
        ("tests/test_steinitz.py::test_spectra_examples",),
    ),
    Mutant(
        "spectra-drops-finite-prime-at-bound",
        "steinitz.py",
        "xi.finite_part if p <= bound)",
        "xi.finite_part if p < bound)",
        ("tests/test_steinitz.py::test_spectra_examples",),
    ),
    Mutant(
        "spectra-incomplete-at-bound",
        "steinitz.py",
        "all(p <= bound for p in xi.infinite_primes)",
        "all(p < bound for p in xi.infinite_primes)",
        ("tests/test_steinitz.py::test_spectra_examples",),
    ),
    Mutant(
        "almost-disjoint-width-two",
        "steinitz.py",
        "width = max(1, (count - 1).bit_length())",
        "width = max(2, (count - 1).bit_length())",
        ("tests/test_steinitz.py::test_almost_disjoint_width_is_the_label_length",),
    ),
    Mutant(
        "branch-keeps-trailing-zeros",
        "steinitz.py",
        '.rstrip("0")',
        "",
        ("tests/test_steinitz.py::test_branches_with_one_stripped_word_are_one_set",),
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
    # Survivors of the mechanical sweep (tests/sweep.py), each killed by a
    # test written for it.
    Mutant(
        "kernel-accepts-cylinder-minus-one",
        "dynamics.py",
        "if cylinder < 0 or depth < max(cylinder, 1):",
        "if cylinder < -1 or depth < max(cylinder, 1):",
        ("tests/test_dynamics.py::test_kernel_refuses_levels_out_of_order",),
    ),
    Mutant(
        "kernel-depth-below-cylinder",
        "dynamics.py",
        "if cylinder < 0 or depth < max(cylinder, 1):",
        "if cylinder < 0 or depth < min(cylinder, 1):",
        ("tests/test_dynamics.py::test_kernel_refuses_levels_out_of_order",),
    ),
    Mutant(
        "kernel-accepts-depth-zero",
        "dynamics.py",
        "if cylinder < 0 or depth < max(cylinder, 1):",
        "if cylinder < 0 or depth < max(cylinder, 0):",
        ("tests/test_dynamics.py::test_kernel_refuses_levels_out_of_order",),
    ),
    Mutant(
        "lqa-accepts-cylinder-zero",
        "dynamics.py",
        "if not (depth >= refined > cylinder >= 1):",
        "if not (depth >= refined > cylinder >= 0):",
        ("tests/test_dynamics.py::test_lqa_witness_refuses_levels_out_of_order",),
    ),
    Mutant(
        "freeness-refuses-radius-one",
        "dynamics.py",
        "if ball_radius < 1 or max_depth < max(cylinder, 1) or cylinder < 0:",
        "if ball_radius <= 1 or max_depth < max(cylinder, 1) or cylinder < 0:",
        ("tests/test_dynamics.py::test_freeness_ball_radius_starts_at_one",),
    ),
    Mutant(
        "freeness-accepts-radius-zero",
        "dynamics.py",
        "if ball_radius < 1 or max_depth < max(cylinder, 1) or cylinder < 0:",
        "if ball_radius < 0 or max_depth < max(cylinder, 1) or cylinder < 0:",
        ("tests/test_dynamics.py::test_freeness_refuses_arguments_out_of_range",),
    ),
    Mutant(
        "freeness-depth-below-cylinder",
        "dynamics.py",
        "if ball_radius < 1 or max_depth < max(cylinder, 1) or cylinder < 0:",
        "if ball_radius < 1 or max_depth < min(cylinder, 1) or cylinder < 0:",
        ("tests/test_dynamics.py::test_freeness_refuses_arguments_out_of_range",),
    ),
    Mutant(
        "freeness-accepts-depth-zero",
        "dynamics.py",
        "if ball_radius < 1 or max_depth < max(cylinder, 1) or cylinder < 0:",
        "if ball_radius < 1 or max_depth < max(cylinder, 0) or cylinder < 0:",
        ("tests/test_dynamics.py::test_freeness_refuses_arguments_out_of_range",),
    ),
    Mutant(
        "freeness-accepts-cylinder-minus-one",
        "dynamics.py",
        "if ball_radius < 1 or max_depth < max(cylinder, 1) or cylinder < 0:",
        "if ball_radius < 1 or max_depth < max(cylinder, 1) or cylinder < -1:",
        ("tests/test_dynamics.py::test_freeness_refuses_arguments_out_of_range",),
    ),
    Mutant(
        "discriminant-accepts-level-zero",
        "dynamics.py",
        "if not 1 <= level <= max_depth:",
        "if not 0 <= level <= max_depth:",
        ("tests/test_dynamics.py::test_discriminant_report_refuses_levels_out_of_order",),
    ),
    Mutant(
        "discriminant-core-per-depth",
        "dynamics.py",
        "images = [chain.image_over(core, d) for d in depths]",
        "images = [chain.stable_image(level, d) for d in depths]",
        ("tests/test_dynamics.py::test_discriminant_report_builds_its_level_core_once",),
    ),
    Mutant(
        "discriminant-ignores-two-equal-images",
        "dynamics.py",
        "(len(images) == 1 or images[-1] == images[-2])",
        "(len(images) == 1)",
        ("tests/test_dynamics.py::test_discriminant_report_stabilizes_on_two_equal_images",),
    ),
    Mutant(
        "schedule-key-reads-stored-start",
        "towers.py",
        "start = 1 if self.is_zero() else max(self.start, 1)",
        "start = 1 if self.is_zero() else self.start",
        (
            "tests/test_towers.py"
            "::test_schedules_equal_exactly_when_their_exponents_agree_from_level_1",
            "tests/test_towers.py::test_config_chain_starting_at_level_0_equals_the_builtin",
        ),
    ),
    Mutant(
        "pickle-reads-key",
        "_value.py",
        "return (type(self), Value._key(self))",
        "return (type(self), self._key())",
        (
            "tests/test_towers.py"
            "::test_schedules_equal_exactly_when_their_exponents_agree_from_level_1",
        ),
    ),
    Mutant(
        "schedule-default-start-one",
        "towers.py",
        "def __init__(self, start: int = 0, base: int = 0, slope: int = 0):",
        "def __init__(self, start: int = 1, base: int = 0, slope: int = 0):",
        ("tests/test_towers.py::test_schedule_parameters_are_non_negative_and_default_to_zero",),
    ),
    Mutant(
        "schedule-accepts-negative-start",
        "towers.py",
        "if start < 0 or base < 0 or slope < 0:",
        "if start < -1 or base < 0 or slope < 0:",
        ("tests/test_towers.py::test_schedule_parameters_are_non_negative_and_default_to_zero",),
    ),
    Mutant(
        "schedule-accepts-negative-base",
        "towers.py",
        "if start < 0 or base < 0 or slope < 0:",
        "if start < 0 or base < -1 or slope < 0:",
        ("tests/test_towers.py::test_schedule_parameters_are_non_negative_and_default_to_zero",),
    ),
    Mutant(
        "schedule-accepts-negative-slope",
        "towers.py",
        "if start < 0 or base < 0 or slope < 0:",
        "if start < 0 or base < 0 or slope < -1:",
        ("tests/test_towers.py::test_schedule_parameters_are_non_negative_and_default_to_zero",),
    ),
    Mutant(
        "family-sign-check-max",
        "towers.py",
        "if min(a_exp, b_exp, c_exp) < 0:",
        "if max(a_exp, b_exp, c_exp) < 0:",
        ("tests/test_towers.py::test_family_exponents_are_checked_one_by_one",),
    ),
    Mutant(
        "family-sign-check-skips-a",
        "towers.py",
        "if min(a_exp, b_exp, c_exp) < 0:",
        "if min(b_exp, b_exp, c_exp) < 0:",
        ("tests/test_towers.py::test_family_exponents_are_checked_one_by_one",),
    ),
    Mutant(
        "family-sign-check-skips-b",
        "towers.py",
        "if min(a_exp, b_exp, c_exp) < 0:",
        "if min(a_exp, a_exp, c_exp) < 0:",
        ("tests/test_towers.py::test_family_exponents_are_checked_one_by_one",),
    ),
    Mutant(
        "family-accepts-minus-one",
        "towers.py",
        "if min(a_exp, b_exp, c_exp) < 0:",
        "if min(a_exp, b_exp, c_exp) < -1:",
        ("tests/test_towers.py::test_family_exponents_are_checked_one_by_one",),
    ),
    Mutant(
        "box-accepts-level-zero",
        "towers.py",
        'if level < 1:\n            raise ContractError("level must be >= 1")',
        'if level < 0:\n            raise ContractError("level must be >= 1")',
        ("tests/test_towers.py::test_level_walks_start_at_level_one",),
    ),
    Mutant(
        "steinitz-accepts-depth-zero",
        "towers.py",
        'if depth < 1:\n            raise ContractError("depth must be >= 1")',
        'if depth < 0:\n            raise ContractError("depth must be >= 1")',
        ("tests/test_towers.py::test_level_walks_start_at_level_one",),
    ),
    Mutant(
        "quotient-positivity-max",
        "towers.py",
        "if min(A, B, C) < 1:",
        "if max(A, B, C) < 1:",
        ("tests/test_towers.py::test_quotient_moduli_must_be_positive",),
    ),
    Mutant(
        "quotient-accepts-zero",
        "towers.py",
        "if min(A, B, C) < 1:",
        "if min(A, B, C) < 0:",
        ("tests/test_towers.py::test_quotient_moduli_must_be_positive",),
    ),
    Mutant(
        "image-a-without-gcd",
        "towers.py",
        "gcd(box.Ma, core.Ma)",
        "box.Ma",
        (
            "tests/test_properties.py::test_stable_image_is_the_oracle_closure",
            "tests/test_towers.py::test_stable_image_examples",
        ),
    ),
    Mutant(
        "image-b-reads-ma",
        "towers.py",
        "gcd(box.Mb, core.Mb)",
        "gcd(box.Ma, core.Mb)",
        (
            "tests/test_properties.py::test_stable_image_is_the_oracle_closure",
            "tests/test_towers.py::test_stable_image_examples",
        ),
    ),
    Mutant(
        "image-c-from-depth-box",
        "towers.py",
        "gcd(box.Mb, core.Mb), core.Mc)",
        "gcd(box.Mb, core.Mb), box.Mc)",
        (
            "tests/test_properties.py::test_stable_image_is_the_oracle_closure",
            "tests/test_towers.py::test_stable_image_examples",
        ),
    ),
    Mutant(
        "quotient-refuses-modulus-one",
        "towers.py",
        "if min(A, B, C) < 1:",
        "if min(A, B, C) <= 1:",
        ("tests/test_towers.py::test_quotient_orders",),
    ),
    Mutant(
        "quotient-b-reads-ma",
        "towers.py",
        "FiniteQuotient(c.Ma, c.Mb, c.Mc)",
        "FiniteQuotient(c.Ma, c.Ma, c.Mc)",
        ("tests/test_towers.py::test_quotient_orders",),
    ),
    Mutant(
        "element-check-skips-a",
        "heisenberg.py",
        "for v in (a, b, c):",
        "for v in (b, b, c):",
        ("tests/test_heisenberg.py::test_elements_and_boxes_check_each_coordinate",),
    ),
    Mutant(
        "box-check-skips-ma",
        "heisenberg.py",
        "for v in (Ma, Mb, Mc):",
        "for v in (Mb, Mb, Mc):",
        ("tests/test_heisenberg.py::test_elements_and_boxes_check_each_coordinate",),
    ),
    Mutant(
        "element-key-reads-b-for-a",
        "heisenberg.py",
        "return (self.a, self.b, self.c)",
        "return (self.b, self.b, self.c)",
        ("tests/test_heisenberg.py::test_value_semantics",),
    ),
    Mutant(
        "act-accepts-a-at-ma",
        "heisenberg.py",
        "0 <= x[0] < self.Ma",
        "0 <= x[0] <= self.Ma",
        ("tests/test_towers.py::test_act_examples_and_axioms",),
    ),
    Mutant(
        "act-b-reads-ma",
        "heisenberg.py",
        "0 <= x[1] < self.Mb",
        "0 <= x[1] < self.Ma",
        ("tests/test_towers.py::test_act_examples_and_axioms",),
    ),
    Mutant(
        "act-accepts-negative-c",
        "heisenberg.py",
        "0 <= x[2] < self.Mc",
        "-1 <= x[2] < self.Mc",
        ("tests/test_towers.py::test_act_examples_and_axioms",),
    ),
    Mutant(
        "stable-chain-accepts-r-zero",
        "towers.py",
        "if not 1 <= ri <= ni:",
        "if not 0 <= ri <= ni:",
        ("tests/test_towers.py::test_built_in_chains_refuse_their_exponents_by_name",),
    ),
    Mutant(
        "wild-chain-accepts-r-zero",
        "towers.py",
        "if not 1 <= r < n:",
        "if not 0 <= r < n:",
        ("tests/test_towers.py::test_built_in_chains_refuse_their_exponents_by_name",),
    ),
    Mutant(
        "wild-chain-refuses-every-enumeration",
        "towers.py",
        "if enumeration.index_of(p) is not None:",
        "if True:",
        (
            "tests/test_towers.py"
            "::test_wild_chain_checks_a_given_enumeration_against_its_growing_primes",
        ),
    ),
    Mutant(
        "count-cap-two-to-the-31",
        "primes.py",
        "COUNT_CAP = 1 << 32",
        "COUNT_CAP = 1 << 31",
        ("tests/test_primes.py::test_caps_refuse_before_any_work",),
    ),
    Mutant(
        "nth-cap-ten-to-the-9",
        "primes.py",
        "NTH_CAP = 10**8",
        "NTH_CAP = 10**9",
        ("tests/test_primes.py::test_caps_refuse_before_any_work",),
    ),
    Mutant(
        "count-cap-refuses-at-the-cap",
        "primes.py",
        "if x > COUNT_CAP:",
        "if x >= COUNT_CAP:",
        ("tests/test_primes.py::test_caps_refuse_before_any_work",),
    ),
    Mutant(
        "nth-cap-refuses-at-the-cap",
        "primes.py",
        "if n > NTH_CAP:",
        "if n >= NTH_CAP:",
        ("tests/test_primes.py::test_caps_refuse_before_any_work",),
    ),
    Mutant(
        "mr-base-four-for-three",
        "primes.py",
        "MR_BASES = (2, 3, 5,",
        "MR_BASES = (2, 4, 5,",
        ("tests/test_primes.py::test_mr_bound_is_where_the_bases_fail",),
    ),
    Mutant(
        "nth-sieve-path-misses-its-last-prime",
        "primes.py",
        "    if n <= len(_SIEVE.primes):",
        "    if n < len(_SIEVE.primes):",
        ("tests/test_primes.py::test_nth_prime_on_a_fresh_sieve",),
    ),
    Mutant(
        "nth-count-includes-the-start",
        "primes.py",
        "first = primepi(lo - 1) + 1",
        "first = primepi(lo) + 1",
        ("tests/test_primes.py::test_nth_prime_counts_up_to_its_window",),
    ),
    Mutant(
        "nth-count-stops-two-below-the-start",
        "primes.py",
        "first = primepi(lo - 1) + 1",
        "first = primepi(lo - 2) + 1",
        ("tests/test_primes.py::test_nth_prime_counts_up_to_its_window",),
    ),
    Mutant(
        "nth-window-stops-one-late",
        "primes.py",
        "if n < first + len(window):",
        "if n <= first + len(window):",
        ("tests/test_primes.py::test_nth_prime_counts_up_to_its_window",),
    ),
    Mutant(
        "nth-next-window-keeps-the-count",
        "primes.py",
        "first, lo = first + len(window), hi",
        "first, lo = first, hi",
        ("tests/test_primes.py::test_nth_prime_counts_up_to_its_window",),
    ),
    Mutant(
        "config-keeps-comments",
        "towers.py",
        'line = rawline.partition("#")[0].strip()',
        "line = rawline.strip()",
        ("tests/test_towers.py::test_parse_chain_config_strips_comments_and_keeps_whole_labels",),
    ),
    Mutant(
        "config-label-cut-at-second-equals",
        "towers.py",
        'label = line.split("=", 1)[1].strip()',
        'label = line.split("=", 2)[1].strip()',
        ("tests/test_towers.py::test_parse_chain_config_strips_comments_and_keeps_whole_labels",),
    ),
    Mutant(
        "config-flag-cut-at-second-equals",
        "towers.py",
        'value = line.split("=", 1)[1].strip().lower()',
        'value = line.split("=", 2)[1].strip().lower()',
        (
            "tests/test_towers.py"
            "::test_parse_chain_config_refuses_a_value_with_a_second_equals_sign",
        ),
    ),
    Mutant(
        "config-fields-cut-at-second-equals",
        "towers.py",
        'fields = dict(tok.split("=", 1) for tok in tokens if "=" in tok)',
        'fields = dict(tok.split("=", 2) for tok in tokens if "=" in tok)',
        (
            "tests/test_towers.py"
            "::test_parse_chain_config_refuses_a_value_with_a_second_equals_sign",
        ),
    ),
    Mutant(
        "config-default-start-minus-one",
        "towers.py",
        'start=int(fields.get("start", 0))',
        'start=int(fields.get("start", -1))',
        ("tests/test_towers.py::test_parse_chain_config_defaults_start_base_and_slope_to_zero",),
    ),
    Mutant(
        "config-default-start-one",
        "towers.py",
        'start=int(fields.get("start", 0))',
        'start=int(fields.get("start", 1))',
        ("tests/test_towers.py::test_config_chain_starting_at_level_0_equals_the_builtin",),
    ),
    Mutant(
        "config-default-base-one",
        "towers.py",
        'base=int(fields.get("base", 0))',
        'base=int(fields.get("base", 1))',
        ("tests/test_towers.py::test_parse_chain_config_defaults_start_base_and_slope_to_zero",),
    ),
    Mutant(
        "config-default-slope-one",
        "towers.py",
        'slope=int(fields.get("slope", 0))',
        'slope=int(fields.get("slope", 1))',
        ("tests/test_towers.py::test_parse_chain_config_defaults_start_base_and_slope_to_zero",),
    ),
    Mutant(
        "config-b-reads-a",
        "towers.py",
        'b=coords.get("b", ZERO_SCHEDULE)',
        'b=coords.get("a", ZERO_SCHEDULE)',
        ("tests/test_towers.py::test_parse_chain_config_defaults_start_base_and_slope_to_zero",),
    ),
    Mutant(
        "config-family-default-a-one",
        "towers.py",
        'a_exp=family_coords.get("a", 0)',
        'a_exp=family_coords.get("a", 1)',
        ("tests/test_towers.py::test_parse_chain_config_family_exponents_default_to_zero",),
    ),
    Mutant(
        "config-family-default-b-one",
        "towers.py",
        'b_exp=family_coords.get("b", 0)',
        'b_exp=family_coords.get("b", 1)',
        ("tests/test_towers.py::test_parse_chain_config_family_exponents_default_to_zero",),
    ),
    Mutant(
        "config-family-default-c-one",
        "towers.py",
        'c_exp=family_coords.get("c", 0)',
        'c_exp=family_coords.get("c", 1)',
        ("tests/test_towers.py::test_parse_chain_config_family_exponents_default_to_zero",),
    ),
)


def run(mutant: Mutant, checkout: Checkout) -> str:
    """'killed' or why the mutant survived, from the mutated copy."""
    text = checkout.source(mutant.file)
    if text.count(mutant.old) != 1:
        return "old text does not occur exactly once"
    code, out = checkout.pytest(mutant.file, text.replace(mutant.old, mutant.new), mutant.tests)
    failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAILED ")]
    passed = [t for t in mutant.tests if not any(f.split("[")[0] == t for f in failed)]
    if code != 1:
        return f"survived (pytest exit {code})"
    if passed:
        return f"survived ({', '.join(passed)} passed)"
    return "killed"


def main() -> int:
    start = time.monotonic()
    survivors = []
    with tempfile.TemporaryDirectory(prefix="nilcantor-mutants-") as tmp:
        checkout = Checkout(tmp)
        for mutant in MUTANTS:
            outcome = run(mutant, checkout)
            print(f"{mutant.name}: {outcome}", flush=True)
            if outcome != "killed":
                survivors.append(mutant.name)
    print(f"{len(MUTANTS)} mutants in {time.monotonic() - start:.0f} s")
    if survivors:
        print(f"surviving mutants: {', '.join(survivors)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
