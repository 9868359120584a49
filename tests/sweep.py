"""The mechanical mutant sweep over the closed forms of `dynamics.py`,
`towers.py`, `heisenberg.py` and `steinitz.py`, and over the prime layer,
`primes.py`.  Run it with

    python3 tests/sweep.py [dynamics.py|towers.py|heisenberg.py|steinitz.py|primes.py ...]

Every site of six operators becomes one mutant, generated with `ast`:

  * int      -- an integer constant plus 1, and minus 1;
  * cmp      -- one `<` <-> `<=` or `>` <-> `>=` of a comparison;
  * maxmin   -- a call of `max` made a call of `min`, and the reverse;
  * drop     -- one term of a sum, difference or product dropped: the
                left or the right operand of `+` and `*`, the left of `-`,
                and an augmented `+=`, `-=` or `*=` made `pass`;
  * ab       -- a swapped a/b coordinate: the attributes `a`, `Ma` and
                `a_exp`, the names `a` and the strings "a", for b alike;
  * if-true  -- the test of an `if` made `True`, so the first branch is
                taken, and returns or raises early where it does.

Annotations and f-strings are not mutated.  Each mutant is written into
one copy of the checkout (`mutants.Checkout`), tier-1 runs there with `-x`
over the files of `ORDER`, fast unit tests first, and the file is
restored.  `ORDER` leaves out `tests/test_mutants.py`: it checks the
catalogue's texts, so it would fail on every mutant of a catalogue line
whatever the mutant does.  Before the first mutant, one clean run of the
same files is timed in the copy; a mutant is killed when its run fails,
does not import, or outlives `SLOWDOWN` times that clean run, so a
mutant that loops forever costs a few suite runs, not a fixed wait.  The
sweep prints both times.

A survivor is classified in `EQUIVALENT`, keyed by its file, enclosing
function, operator and replaced text, with the argument that no input
tells it apart; the sweep exits 1 naming each unclassified survivor, and
each listed mutant that the suite kills.  A survivor that some input does
tell apart gets a tier-1 test and a `tests/mutants.py` entry instead.  The
sweep stays outside tier-1: `tests/test_mutants.py` checks only that
every `EQUIVALENT` key still names a site.
"""

import ast
import sys
import tempfile
import time
from collections import Counter
from typing import NamedTuple

from mutants import Checkout

FILES = ("dynamics.py", "towers.py", "heisenberg.py", "steinitz.py", "primes.py")
ORDER = tuple(
    f"tests/{name}.py"
    for name in (
        "test_towers",
        "test_dynamics",
        "test_heisenberg",
        "test_steinitz",
        "test_oracle",
        "test_primes",
        "test_acceptance",
        "test_census",
        "test_cli",
        "test_properties",
    )
)
SLOWDOWN = 3  # a mutant's run is stopped at this multiple of the clean run's time
SWAP = {"a": "b", "b": "a", "Ma": "Mb", "Mb": "Ma", "a_exp": "b_exp", "b_exp": "a_exp"}
FLIP = {ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">"}
OPS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="}


class Site(NamedTuple):
    file: str
    line: int
    function: str  # the enclosing function's qualified name, or "<module>"
    operator: str
    old: str  # the replaced source text
    new: str  # its replacement
    nth: int  # how many earlier sites in the function share the four fields above

    @property
    def key(self) -> tuple:
        """What names the site in `EQUIVALENT`: everything but the line."""
        return (self.file, self.function, self.operator, self.old, self.new, self.nth)


def _frozen(tree) -> set:
    """The ids of the nodes no operator mutates: annotations and f-strings."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
            args = node.args
            roots += [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs]
            roots += [a.annotation for a in (args.vararg, args.kwarg) if a is not None]
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
        elif isinstance(node, ast.JoinedStr):
            roots.append(node)
    return {id(n) for root in roots if root is not None for n in ast.walk(root)}


def _functions(tree) -> dict:
    """The qualified name of the innermost function or class around each node."""
    names = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if name == "<module>" else f"{name}.{child.name}"
            names[id(child)] = inner
            visit(child, inner)

    visit(tree, "<module>")
    return names


def _replacements(node, segment):
    """(operator, target node, replacement) for each mutant of `node`."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        yield "int", node, f"({node.value + 1})"
        yield "int", node, f"({node.value - 1})"
    elif isinstance(node, ast.Constant) and node.value in SWAP:
        yield "ab", node, repr(SWAP[node.value])
    elif isinstance(node, ast.Name) and node.id in SWAP and isinstance(node.ctx, ast.Load):
        yield "ab", node, SWAP[node.id]
    elif isinstance(node, ast.Attribute) and node.attr in SWAP:
        yield "ab", node, f"({segment(node.value)}).{SWAP[node.attr]}"
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in FLIP:
                ops = [FLIP[type(o)] if j == i else OPS[type(o)] for j, o in enumerate(node.ops)]
                parts = [f"({segment(node.left)})"]
                for o, right in zip(ops, node.comparators):
                    parts += [o, f"({segment(right)})"]
                yield "cmp", node, f"({' '.join(parts)})"
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("max", "min"):
            yield "maxmin", node.func, "min" if node.func.id == "max" else "max"
    elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
        if not any(isinstance(x, (ast.JoinedStr, ast.List)) or (
            isinstance(x, ast.Constant) and isinstance(x.value, str)
        ) for x in (node.left, node.right)):
            yield "drop", node, f"({segment(node.left)})"
            if not isinstance(node.op, ast.Sub):
                yield "drop", node, f"({segment(node.right)})"
    elif isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
        yield "drop", node, "pass"
    elif isinstance(node, ast.If):
        yield "if-true", node.test, "True"


def sites(file: str, source: str) -> list:
    """Every mutant of `source`, in source order, with its mutated text."""
    tree = ast.parse(source)
    frozen, functions = _frozen(tree), _functions(tree)
    raw = source.encode()
    starts = [0]
    for line in raw.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def span(node):
        return (
            starts[node.lineno - 1] + node.col_offset,
            starts[node.end_lineno - 1] + node.end_col_offset,
        )

    def segment(node):
        lo, hi = span(node)
        return raw[lo:hi].decode()

    found = []
    for node in ast.walk(tree):
        if id(node) in frozen:
            continue
        for operator, target, new in _replacements(node, segment):
            lo, hi = span(target)
            text = (raw[:lo] + new.encode() + raw[hi:]).decode()
            found.append((lo, target.lineno, functions.get(id(node), "<module>"), operator,
                          segment(target), new, text))
    seen = Counter()
    result = []
    for _lo, line, *fields, text in sorted(found):
        result.append((Site(file, line, *fields, seen[tuple(fields)]), text))
        seen[tuple(fields)] += 1
    return result


# Survivors that no input tells apart from the code, with the argument.
_START_ZERO_IS_ONE = (
    "a schedule starting at level 0 or 1 has the exponent 0 at level 0 and "
    "base + slope*level at every level >= 1; CoordSchedule._key reads both "
    "starts as 1"
)
_ZERO_SCHEDULE_START = (
    "a zero schedule keys as (k, 0, 0) and every other schedule has base or "
    "slope > 0, so any constant k keeps zero schedules equal to each other "
    "and apart from the rest"
)
_SPEED_ONLY = "the constant sets only how much work a call does, not what it returns"
_NO_SQUARE_ROOT_OF_MINUS_ONE = (
    "the extra squarings reach x = a^(2^j*d) with j >= s, where n - 1 = 2^s*d, "
    "d odd, and no base divides n; x = -1 (mod n) there would need "
    "2^(j+1) | p - 1 for every prime p | n, so 2^(j+1) | n - 1"
)
_LARGE_UNUSED = "large[0] is never read: large[i] is read for 1 <= i <= r only"
_DUSART_PLACES_THE_WINDOW = (
    "the Dusart bound only places the first window: every start from 513 "
    "(so that hi <= lo*lo) up to p_n sieves forward to p_n, and over the "
    "indices above the sieve "
    "(295,948 to NTH_CAP) p_n exceeds the bound by more than 10^4, far past "
    "the float error and the margin of 2"
)
_WINDOW_IS_A_CACHE = "the window is a cache: a miss sieves the same window again"
EQUIVALENT = {
    ("dynamics.py", "_family_activation_gap", "int", "0", "(-1)", 0): (
        "with no family the one reader, wildness_certificate, compares the gap "
        "with 1, and 0 and -1 both fall below it"
    ),
    ("dynamics.py", "_family_activation_gap", "int", "0", "(-1)", 1): (
        "every exponent is 0 below level 1, so _kernel_eventual takes k = 0 at "
        "cylinders 0 and -1 alike"
    ),
    ("dynamics.py", "_family_activation_gap", "int", "1", "(2)", 1): (
        "q_1's exponents are constant from level 1 on, so its kernel base is the "
        "same at cylinders 1 and 2"
    ),
    ("dynamics.py", "_stable_level", "int", "1", "(0)", 1): (
        "the bisection's lower end: level starts at 1 and takes max(level, lo), "
        "and a kernel base at cylinder 0 is never below the floor"
    ),
    (
        "towers.py",
        "ChainSpec.check_depth_budget",
        "cmp",
        "self.family.prime_at(level) > SIEVE_CAP",
        "((self.family.prime_at(level)) >= (SIEVE_CAP))",
        0,
    ): "SIEVE_CAP = 2^22 is not a prime, so no family prime equals it",
    **{("towers.py", "ex41", "int", "1", "(0)", n): _START_ZERO_IS_ONE for n in (0, 2, 4)},
    **{("towers.py", "ex42", "int", "1", "(0)", n): _START_ZERO_IS_ONE for n in (0, 2, 4, 6)},
    **{("towers.py", "stable_chain", "int", "1", "(0)", n): _START_ZERO_IS_ONE for n in (1, 2, 3)},
    ("steinitz.py", "Primes.index_of", "cmp", "q < p", "((q) <= (p))", 0): (
        "an excluded p returned None above, so no excluded q equals p"
    ),
    ("towers.py", "CoordSchedule._key", "int", "1", "(0)", 0): _ZERO_SCHEDULE_START,
    ("towers.py", "CoordSchedule._key", "int", "1", "(2)", 0): _ZERO_SCHEDULE_START,
    **{("primes.py", "<module>", "int", old, new, n): _SPEED_ONLY
       for old, new, n in (("1", "(2)", 2), ("18", "(17)", 0), ("18", "(19)", 0))},
    ("primes.py", "_segment", "int", "1", "(2)", 0): (
        "every reader of the flags tests their truth: compress and bool"
    ),
    ("primes.py", "_segment", "cmp", "p * p >= hi", "((p * p) > (hi))", 0): (
        "a prime with p*p == hi lies below lo, since hi <= lo*lo and hi is not "
        "lo*lo for lo > 2, so it strikes only its multiples k*p >= lo, k >= 2: "
        "composites"
    ),
    **{("primes.py", "_Sieve.__init__", "int", "0", new, 0): (
        "an empty window holds no index, whatever its first index"
    ) for new in ("(-1)", "(1)")},
    (
        "primes.py",
        "_Sieve.grow",
        "cmp",
        "self.limit < SIEVE_CAP",
        "((self.limit) <= (SIEVE_CAP))",
        0,
    ): (
        "no caller asks for need >= SIEVE_CAP: primepi grows to x < SIEVE_CAP, "
        "nth_prime to a limit below it, _nth_above_sieve to isqrt(hi) < 2^16; "
        "so limit <= need already implies limit < SIEVE_CAP"
    ),
    ("primes.py", "isprime", "int", "2", "(1)", 0): (
        "1 is below the sieve's limit from the start, and flags[1] is 0"
    ),
    ("primes.py", "_miller_rabin", "int", "0", "(1)", 1): _NO_SQUARE_ROOT_OF_MINUS_ONE,
    ("primes.py", "_miller_rabin", "int", "1", "(2)", 1): _NO_SQUARE_ROOT_OF_MINUS_ONE,
    ("primes.py", "_miller_rabin", "drop", "s - 1", "(s)", 0): _NO_SQUARE_ROOT_OF_MINUS_ONE,
    ("primes.py", "_miller_rabin", "int", "1", "(0)", 4): _NO_SQUARE_ROOT_OF_MINUS_ONE,
    ("primes.py", "_lucy", "int", "256", "(255)", 0): _SPEED_ONLY,
    ("primes.py", "_lucy", "int", "256", "(257)", 0): _SPEED_ONLY,
    ("primes.py", "_lucy", "int", "0", "(-1)", 0): _LARGE_UNUSED,
    ("primes.py", "_lucy", "int", "0", "(1)", 0): _LARGE_UNUSED,
    ("primes.py", "_lucy", "int", "1", "(2)", 3): (
        "large gains an entry at index r + 1, which no i <= r reads"
    ),
    ("primes.py", "_lucy", "int", "1", "(0)", 7): (
        "the pass at i = 0 writes large[0] only; " + _LARGE_UNUSED
    ),
    ("primes.py", "_lucy", "int", "1", "(2)", 9): (
        "the extra v = p*p - 1 subtracts small[p - 1] - below, which is 0"
    ),
    ("primes.py", "primepi", "cmp", "x < SIEVE_CAP", "((x) <= (SIEVE_CAP))", 0): (
        "2^22 is not a prime, and the sieve at its cap holds every prime below it"
    ),
    (
        "primes.py",
        "_nth_above_sieve",
        "cmp",
        "first <= n < first + len(window)",
        "((first) < (n) < (first + len(window)))",
        0,
    ): _WINDOW_IS_A_CACHE,
    (
        "primes.py",
        "_nth_above_sieve",
        "drop",
        "int(n * (log(n) + log(log(n)) - 1)) - 2",
        "(int(n * (log(n) + log(log(n)) - 1)))",
        0,
    ): _DUSART_PLACES_THE_WINDOW,
    **{
        ("primes.py", "_nth_above_sieve", "drop", "log(n) + log(log(n))", new, 0): (
            _DUSART_PLACES_THE_WINDOW
        )
        for new in ("(log(log(n)))", "(log(n))")
    },
    **{("primes.py", "_nth_above_sieve", "int", old, new, 0): _DUSART_PLACES_THE_WINDOW
       for old, new in (("1", "(2)"), ("2", "(1)"), ("2", "(3)"))},
    (
        "primes.py",
        "nth_prime",
        "cmp",
        "0 < n <= len(_SIEVE.primes)",
        "((0) < (n) < (len(_SIEVE.primes)))",
        0,
    ): "the path past the checks returns the same sieve entry",
    ("primes.py", "nth_prime", "int", "0", "(1)", 0): (
        "the path past the checks returns the same sieve entry"
    ),
    ("primes.py", "nth_prime", "cmp", "len(_SIEVE.primes) < n", "((len(_SIEVE.primes)) <= (n))", 0): (
        "the loop grows the sieve once more, and the answer is read from it the same"
    ),
}


def main(argv) -> int:
    files = argv or FILES
    start = time.monotonic()
    counts = Counter()
    unclassified, wrong = [], []
    with tempfile.TemporaryDirectory(prefix="nilcantor-sweep-") as tmp:
        checkout = Checkout(tmp)
        began = time.monotonic()
        code, _out = checkout.pytest(files[0], checkout.source(files[0]), ["-x", *ORDER])
        clean = time.monotonic() - began
        if code != 0:
            print(f"the clean run fails (pytest exit {code}); no mutant can be judged",
                  file=sys.stderr)
            return 1
        timeout = SLOWDOWN * clean
        print(f"clean run {clean:.1f} s; each mutant is stopped after {timeout:.1f} s",
              flush=True)
        for file in files:
            for site, text in sites(file, checkout.source(file)):
                compile(text, file, "exec")  # a mutant that cannot parse proves nothing
                began = time.monotonic()
                code, _out = checkout.pytest(file, text, ["-x", *ORDER], timeout=timeout)
                took = time.monotonic() - began
                if code == 0:
                    outcome = "equivalent" if site.key in EQUIVALENT else "SURVIVED"
                else:
                    outcome = "killed" if code is not None else "killed (timeout)"
                counts[outcome.split()[0].lower()] += 1
                print(
                    f"{file}:{site.line} {site.function} {site.operator} "
                    f"{site.old!r} -> {site.new!r}: {outcome} ({took:.1f} s)",
                    flush=True,
                )
                if outcome == "SURVIVED":
                    unclassified.append(site)
                elif code != 0 and site.key in EQUIVALENT:
                    wrong.append(site)
    total = sum(counts.values())
    print(f"{total} mutants, {dict(counts)}, in {time.monotonic() - start:.0f} s")
    for site in unclassified:
        print(f"unclassified survivor: {site.key}", file=sys.stderr)
    for site in wrong:
        print(f"killed, but listed as equivalent: {site.key}", file=sys.stderr)
    return 1 if unclassified or wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
