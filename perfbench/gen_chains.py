"""The generated_chains workload: warm, in-process library use.

One process imports nilcantor once.  Group g draws PASS_SIZE valid chains
from the seed and g (draws that ChainSpec rejects are discarded and not
counted).  Passes run every chain of a group through the certificates and
check each chain by two independent routes:

  * the trivial-action kernel closed form against `oracle.fixing_scan`,
    for every cylinder <= depth <= 4 within the scan budget;
  * the raw Steinitz order at depth 4 against the lcm of the box indices.

Usage (the benchmark runs these as child processes):

    python perfbench/gen_chains.py setup --seed N
    python perfbench/gen_chains.py run --seed N --seconds S
    python perfbench/gen_chains.py run --seed N --once [--trace]

`setup` imports, generates and validates group 0, then exits.  `run` prints
one JSON object with every chain's latency (its fastest try), their sum,
every try's time and the failures.  Timed by --seconds, the passes take the
GROUPS groups in turn; --once checks group 0 once, and --trace adds the
layer trace summary.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import signal
import sys
import time
from math import gcd, lcm
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nilcantor import dynamics, oracle, towers  # noqa: E402
from nilcantor.errors import ContractError  # noqa: E402
from nilcantor.steinitz import Primes  # noqa: E402

PASS_SIZE = 200
EXPLICIT_PRIMES = (2, 3, 5)
FAMILY_CHANCE = 0.3
WINDOW = (3, 5)  # wildness certificate: max cylinder, max depth
FREENESS = (1, 100, 6)  # cylinder, ball radius, max depth
DISCRIMINANT = (1, 4)  # level, max depth
ORDER_DEPTH = 4
SCAN_DEPTH = 4
MAX_QUOTIENT = 20000  # |Q_d| a fixing scan may enumerate
MAX_SCAN_CELLS = 2000  # |Q_d| / [Gamma : Gamma_cylinder], the cosets it confronts
CHAIN_TIMEOUT_S = 10.0
GROUPS = 3  # groups of PASS_SIZE chains a run checks in turn


# -- generation --------------------------------------------------------------


def draw_chain(rng: random.Random):
    """One random chain; raises ContractError for draws ChainSpec rejects."""
    primes = sorted(rng.sample(EXPLICIT_PRIMES, rng.choice((1, 2))))
    entries = []
    for p in primes:
        coords = {
            x: towers.CoordSchedule(rng.randrange(0, 4), rng.randrange(0, 3), rng.randrange(0, 3))
            for x in "abc"
        }
        entries.append(towers.PrimeSchedule(p, **coords))
    family = None
    if rng.random() < FAMILY_CHANCE:
        a, b = rng.randrange(0, 3), rng.randrange(0, 3)
        family = towers.IndexedFamily(Primes(exclude=tuple(primes)), a, b, rng.randrange(0, a + b + 1))
    return towers.ChainSpec("generated", tuple(entries), family, trivial_intersection=False)


def generate(seed: int, group: int, count: int = PASS_SIZE) -> list:
    """The valid chains of one group; the same (seed, group) gives the same chains."""
    rng = random.Random(f"{seed}:{group}")
    chains = []
    while len(chains) < count:
        try:
            chains.append(draw_chain(rng))
        except ContractError:
            continue
    return chains


# -- checks ------------------------------------------------------------------


def kernel_lattice(kernel, quotient) -> frozenset:
    """The closed-form kernel, as the set of Q_d residues it contains."""
    sa, sb, sc = gcd(kernel.Ma, quotient.A), gcd(kernel.Mb, quotient.B), gcd(kernel.Mc, quotient.C)
    return frozenset(
        (a, b, c)
        for a in range(0, quotient.A, sa)
        for b in range(0, quotient.B, sb)
        for c in range(0, quotient.C, sc)
    )


def kernel_problem(cylinder, depth, kernel, quotient, scanned):
    if scanned != kernel_lattice(kernel, quotient):
        return f"kernel l={cylinder} d={depth}: closed form {kernel} != fixing_scan"
    return None


def order_problem(raw_order: int, indices) -> str | None:
    expected = lcm(*indices)
    if raw_order != expected:
        return f"raw Steinitz order {raw_order} != lcm of box indices {expected}"
    return None


def check_chain(chain) -> list:
    """Run one chain through the library; return the problems found."""
    dynamics.wildness_certificate(chain, *WINDOW)
    dynamics.freeness_certificate(chain, *FREENESS)
    dynamics.discriminant_limit_report(chain, *DISCRIMINANT)
    order = chain.steinitz_order(ORDER_DEPTH)
    problems = []
    indices = [chain.box_at(level).index() for level in range(1, ORDER_DEPTH + 1)]
    problems.append(order_problem(order.raw.as_int(), indices))
    budget = oracle.OracleBudget(max_group_order=MAX_QUOTIENT * MAX_SCAN_CELLS)
    for depth in range(1, SCAN_DEPTH + 1):
        quotient = chain.quotient_at(depth)
        if quotient.order > MAX_QUOTIENT:
            continue
        for cylinder in range(1, depth + 1):
            if quotient.order // chain.box_at(cylinder).index() > MAX_SCAN_CELLS:
                continue
            scanned = oracle.fixing_scan(chain, cylinder, depth, budget)
            kernel = dynamics.trivial_action_kernel(chain, cylinder, depth)
            problems.append(kernel_problem(cylinder, depth, kernel, quotient, scanned))
    return [p for p in problems if p]


# -- the worker ----------------------------------------------------------------


class ChainTimeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise ChainTimeout()


def timed_pass(chains, g: int, failures: list) -> list:
    """Each chain's check time, inf where the check failed."""
    times = []
    for i, chain in enumerate(chains):
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, CHAIN_TIMEOUT_S)
        try:
            problems = check_chain(chain)
        except ChainTimeout:
            failures.append({"group": g, "chain": i, "timeout": True})
            times.append(math.inf)
            continue
        except Exception as exc:  # a crash is a failed call, reported with its type
            failures.append({"group": g, "chain": i, "timeout": False, "error": repr(exc)})
            times.append(math.inf)
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        times.append(time.perf_counter() - start)
        if problems:
            failures.append({"group": g, "chain": i, "timeout": False, "error": problems})
    return times


def run(chains_for, seconds: float, once: bool, tracer=None) -> dict:
    """Passes over the groups of chains `chains_for(g)` gives, g < GROUPS,
    in turn and each over fresh chain objects, until `seconds` have elapsed
    and every group has had a pass (one pass over group 0 if `once`).

    A chain's latency is its fastest try: other tenants of a shared machine
    slow whole stretches of a run, to as little as half speed, and tries
    spread over the run rarely all fall in one.  The wall time is the sum of the
    chains' latencies."""
    signal.signal(signal.SIGALRM, _alarm)
    groups = 1 if once else GROUPS
    best = [[math.inf] * PASS_SIZE for _ in range(groups)]
    tries, failures = [], []
    begin = time.perf_counter()
    passes = 0
    while passes < groups or (not once and time.perf_counter() - begin < seconds):
        g = passes % groups
        times = timed_pass(chains_for(g), g, failures)
        best[g] = list(map(min, best[g], times))
        tries.extend(times)
        passes += 1
    latencies = [t for row in best for t in row if math.isfinite(t)]
    out = {"latencies": latencies, "wall": sum(latencies), "passes": passes,
           "tries": [t for t in tries if math.isfinite(t)], "failures": failures,
           "attempted": len(tries)}
    if tracer is not None:
        out["trace"] = tracer.summary()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--once", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        generate(args.seed, 0)
        return 0
    if args.once:
        first = generate(args.seed, 0)  # before any tracing starts
        chains_for = lambda _k: first  # noqa: E731
    else:
        chains_for = functools.partial(generate, args.seed)
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    print(json.dumps(run(chains_for, args.seconds, args.once, tracer)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
