"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints a single PASS line (visible with pytest -s or in the
captured output summary) and enforces its wall-clock budget.
"""

import random
import time

from nilcantor.heisenberg import (
    GAMMA,
    BoxSubgroup,
    HeisenbergElement,
    index_in,
    relative_core,
)
from nilcantor.steinitz import (
    INF,
    SteinitzNumber,
    TailSchedule,
    almost_disjoint_spectra,
    asymptotically_equivalent,
    spectra,
)
from nilcantor.towers import (
    ChainSpec,
    CoordSchedule,
    PrimeSchedule,
    builtin_chain,
    ex41,
    ex42,
    stable_chain,
    wild_chain,
)
from nilcantor.dynamics import (
    freeness_certificate,
    trivial_action_kernel,
    wildness_certificate,
)
from nilcantor.oracle import (
    OracleBudget,
    canonical_table_by_enumeration,
    core_by_enumeration,
    fixing_scan,
    relative_core_by_enumeration,
)
from nilcantor.errors import ContractError

from helpers import escape_depth, steinitz_int


class _Budget:
    def __init__(self, name, seconds):
        self.name, self.seconds = name, seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name}: {elapsed:.2f}s over budget"
            print(f"{self.name}: PASS ({elapsed:.2f}s < {self.seconds}s)")
        return False


def test_criterion_1_one_prime_chain_reproduction():
    with _Budget("ACCEPTANCE-1 one-prime chain", 1.0):
        chain = ex41(2)
        for level in range(1, 5):
            n = 2 ** (2 * level)
            assert chain.core_at(level) == BoxSubgroup(n, n, n)
            assert index_in(chain.box_at(level), chain.core_at(level)) == n
        assert index_in(chain.stable_image(1, 2), chain.core_at(1)) == 1
        order = chain.steinitz_order(4)
        assert order.limit.multiplicity(2) is INF
        assert order.limit == SteinitzNumber(infinite_primes=(2,))
        assert order.raw.as_int() == 2**16


def test_criterion_2_two_prime_chain_reproduction():
    with _Budget("ACCEPTANCE-2 two-prime chain", 1.0):
        chain = ex42(2, 3)
        images = [chain.stable_image(1, d) for d in range(1, 5)]
        assert [index_in(img, chain.core_at(1)) for img in images] == [6, 6, 6, 6]
        for prev, curr in zip(images, images[1:]):
            assert prev == curr
        order = chain.steinitz_order(4)
        assert order.limit == SteinitzNumber(infinite_primes=(2, 3))


def test_criterion_3_finite_family_is_stable():
    with _Budget("ACCEPTANCE-3 finite-family stability", 5.0):
        chain = stable_chain((2, 3), (1, 1), (2, 2), (5,))
        cert = wildness_certificate(chain, 3, 4)
        assert cert.verdict == "StableCertified"
        assert cert.stable_from_level <= 2
        assert all(r.kernel_order == 1 for r in cert.reports)
        sp = spectra(chain.steinitz_order(4).limit, 7)
        assert sp.pi_f.primes == (2, 3) and sp.pi_f.complete
        assert sp.pi_inf.primes == (5,) and sp.pi_inf.complete


def test_criterion_4_endless_family_is_wild():
    with _Budget("ACCEPTANCE-4 endless-family wildness", 10.0):
        chain = wild_chain(2, 1)  # activations 2, 3, 5, 7, ...
        cert = wildness_certificate(chain, 3, 5)
        assert cert.verdict == "WildEvidence"
        expected = {(1, 2): 3, (1, 3): 15, (2, 3): 5}
        qs = (2, 3, 5, 7, 11)
        for (l1, l2), value in expected.items():
            prod = 1
            for i in range(l1 + 1, l2 + 1):
                prod *= qs[i - 1] ** (2 - 1)
            assert prod == value
            for d in range(l2, 6):
                k = trivial_action_kernel(chain, l2, d)
                c = trivial_action_kernel(chain, l1, d)
                assert index_in(k, c) == value
        reported = {(r.cylinder, r.refined): r.kernel_order for r in cert.reports}
        assert reported == expected
        assert all(r.persistent for r in cert.reports)


def test_criterion_5_topological_freeness():
    with _Budget("ACCEPTANCE-5 topological freeness", 10.0):
        chain = wild_chain(2, 1)
        cert = freeness_certificate(chain, 1, 100, 6)
        assert cert.verdict == "FreeCertified"
        assert cert.escape_depth <= 6
        # Complete argument for the whole radius-100 ball: by the escape
        # depth, all three kernel lattices exceed 100, so the only
        # surviving triple is the identity.
        kernel = trivial_action_kernel(chain, 1, cert.escape_depth)
        assert min(kernel.Ma, kernel.Mb, kernel.Mc) > 100
        # Exhaustive spot check on a sub-ball plus seeded samples of the
        # full ball, element by element.
        for a in range(-6, 7):
            for b in range(-6, 7):
                for c in range(-6, 7):
                    if (a, b, c) == (0, 0, 0):
                        continue
                    d = escape_depth(chain, 1, HeisenbergElement(a, b, c), 6)
                    assert d is not None and d <= 6
        rng = random.Random(20260810)
        for _ in range(2000):
            g = HeisenbergElement(
                rng.randrange(-100, 101), rng.randrange(-100, 101), rng.randrange(-100, 101)
            )
            if g == HeisenbergElement(0, 0, 0):
                continue
            d = escape_depth(chain, 1, g, 6)
            assert d is not None and d <= 6


def _all_boxes(limit):
    for ma in range(1, limit + 1):
        for mb in range(1, limit + 1):
            for mc in range(1, limit + 1):
                if (ma * mb) % mc == 0:
                    yield BoxSubgroup(ma, mb, mc)


def test_criterion_6_oracle_equivalence_suite():
    with _Budget("ACCEPTANCE-6 oracle equivalence", 60.0):
        budget = OracleBudget()
        boxes = list(_all_boxes(8))
        # core and the trivial-action kernel of the whole space
        for box in boxes:
            found = core_by_enumeration(box, budget)
            assert found == box.core()
            assert found == relative_core(GAMMA, box)
        # canonical coset representatives over a doubled grid
        for box in boxes:
            table = canonical_table_by_enumeration(box, span=2)
            for g, rep in table.items():
                assert box.canonical(HeisenbergElement(*g)) == rep
        # 200 seeded random nested pairs with moduli <= 12
        rng = random.Random(20260810)
        pairs = []
        while len(pairs) < 200:
            ma, mb = rng.randrange(1, 13), rng.randrange(1, 13)
            mcs = [d for d in range(1, 13) if (ma * mb) % d == 0]
            inner = BoxSubgroup(ma, mb, rng.choice(mcs))
            outs = [
                BoxSubgroup(da, db, dc)
                for da in _divisors(inner.Ma)
                for db in _divisors(inner.Mb)
                for dc in _divisors(inner.Mc)
                if (da * db) % dc == 0
            ]
            pairs.append((rng.choice(outs), inner))
        for outer, inner in pairs:
            found = relative_core_by_enumeration(outer, inner, budget)
            assert found == relative_core(outer, inner)
        # the kernel closed form against the pointwise-fixing scan on
        # seeded random expressible chains
        checked = 0
        while checked < 12:
            chain = _random_one_prime_chain(rng)
            if chain is None:
                continue
            depth = 2
            core = chain.core_at(depth)
            if core.index() > 20000:
                continue
            scanned = fixing_scan(chain, 1, depth, budget)
            kernel = trivial_action_kernel(chain, 1, depth)
            expected = frozenset(
                (a, b, c)
                for a in range(0, core.Ma, kernel.Ma)
                for b in range(0, core.Mb, kernel.Mb)
                for c in range(0, core.Mc, kernel.Mc)
            )
            assert scanned == expected
            checked += 1


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _random_one_prime_chain(rng):
    p = rng.choice((2, 3))
    sa, sb = rng.randrange(0, 3), rng.randrange(0, 3)
    sc = rng.randrange(0, 3)
    try:
        return ChainSpec(
            "rand",
            (
                PrimeSchedule(
                    p,
                    a=CoordSchedule(1, rng.randrange(0, 2), sa),
                    b=CoordSchedule(1, rng.randrange(0, 2), sb),
                    c=CoordSchedule(1, 0, sc),
                ),
            ),
            trivial_intersection=False,
        )
    except ContractError:
        return None


def test_criterion_7_steinitz_property_suite():
    with _Budget("ACCEPTANCE-7 Steinitz properties", 5.0):
        rng = random.Random(20260810)
        primes = (2, 3, 5, 7, 11, 13)

        def rand_number():
            fp = {p: rng.randrange(1, 6) for p in primes if rng.random() < 0.4}
            infs = tuple(p for p in primes if p not in fp and rng.random() < 0.15)
            return SteinitzNumber(fp, infinite_primes=infs)

        numbers = [rand_number() for _ in range(1000)]
        for i in range(0, 1000, 2):
            x, y = numbers[i], numbers[i + 1]
            prod, join = x.product(y), x.lcm(y)
            for p in primes:
                ex, ey = x.multiplicity(p), y.multiplicity(p)
                if ex is INF or ey is INF:
                    assert prod.multiplicity(p) is INF
                    assert join.multiplicity(p) is INF
                else:
                    assert prod.multiplicity(p) == ex + ey
                    assert join.multiplicity(p) == max(ex, ey)
        # Lagrange identity |Q_l| = |X_l| * |D_l| across both basic chains
        for chain in (ex41(2), ex42(2, 3)):
            for level in range(1, 5):
                box, core = chain.box_at(level), chain.core_at(level)
                q = steinitz_int(index_in(GAMMA, core))
                x = steinitz_int(index_in(GAMMA, box))
                d = steinitz_int(index_in(box, core))
                assert x.product(d) == q
        # equivalence: reflexive, symmetric, transitive, preserves pi_inf
        sample = numbers[:25]
        for x in sample:
            assert asymptotically_equivalent(x, x)
        for x in sample:
            for y in sample:
                exy = asymptotically_equivalent(x, y)
                assert exy == asymptotically_equivalent(y, x)
                if exy:
                    assert set(x.infinite_primes) == set(y.infinite_primes)
                for z in sample[:12]:
                    if exy and asymptotically_equivalent(y, z):
                        assert asymptotically_equivalent(x, z)


def test_criterion_8_almost_disjoint_wild_chains():
    with _Budget("ACCEPTANCE-8 almost-disjoint spectra", 5.0):
        count = 5
        sets = almost_disjoint_spectra(count)
        chains = [wild_chain(2, 1, enumeration=s) for s in sets]
        limits = [c.steinitz_order(3).limit for c in chains]
        inequivalent = 0
        for i in range(count):
            for j in range(i + 1, count):
                if not asymptotically_equivalent(limits[i], limits[j]):
                    inequivalent += 1
        assert inequivalent == 10
        for chain in chains:
            cert = wildness_certificate(chain, 2, 3)
            assert cert.verdict == "WildEvidence"


def test_criterion_9_finite_spectrum_never_wild():
    with _Budget("ACCEPTANCE-9 meta-consistency", 30.0):
        builtins = [
            ex41(2),
            ex41(3),
            ex42(2, 3),
            ex42(3, 5),
            stable_chain((2, 3), (1, 1), (2, 2), (5,)),
            stable_chain((2,), (1,), (3,), (3, 7)),
            stable_chain((5,), (2,), (2,), (2,)),
        ]
        for chain in builtins:
            order = chain.steinitz_order(3)
            assert order.limit.tail is None  # schedule-certified finite spectrum
            cert = wildness_certificate(chain, 3, 5)
            assert cert.verdict != "WildEvidence", chain.label
        rng = random.Random(20260810)
        generated = 0
        while generated < 50:
            chain = _random_finite_chain(rng)
            if chain is None:
                continue
            generated += 1
            assert chain.steinitz_order(3).limit.tail is None
            cert = wildness_certificate(chain, 3, 5)
            assert cert.verdict != "WildEvidence", chain.label


def _random_finite_chain(rng):
    entries = []
    for p in rng.sample((2, 3, 5, 7), rng.randrange(1, 4)):
        coords = {}
        for coord in "abc":
            coords[coord] = CoordSchedule(
                start=rng.randrange(0, 4),
                base=rng.randrange(0, 3),
                slope=rng.randrange(0, 3),
            )
        entries.append(
            PrimeSchedule(p, a=coords["a"], b=coords["b"], c=coords["c"])
        )
    try:
        return ChainSpec("rand-finite", tuple(entries), trivial_intersection=False)
    except ContractError:
        return None
