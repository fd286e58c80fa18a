"""Modular sum evaluation against literal exact-rational oracles.

Every oracle here is written out longhand (lambdas over math.comb and
Fraction) so a wrong shape table inside the package cannot hide by being
used on both sides of the comparison.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import supercong
from supercong.context import JACOBI_CACHE, TERM_CACHE, PrimeContext
from supercong.errors import BaseNotUnit, DenominatorNotUnit, NegativeValuation, SupercongError
from supercong.padic import DEFAULT_GUARD
from supercong.registry import REGISTRY, SUM_SPECS, statement_modexp
from supercong.statements import MAX_MODEXP
from supercong.sums import (
    FULL,
    HALF,
    SumSpec,
    W_INV_2K1,
    W_INV_K1,
    W_K,
    W_ONE,
    Weight,
    evaluate_combo,
    evaluate_jacobi_sum,
    evaluate_jacobi_sum_exact,
    evaluate_sum,
    linear_weight,
)

# -- literal oracles -----------------------------------------------------------

WEIGHTS = {
    "one": lambda k: Fraction(1),
    "k": lambda k: Fraction(k),
    "k2": lambda k: Fraction(k) ** 2,
    "k3": lambda k: Fraction(k) ** 3,
    "inv_k1": lambda k: Fraction(1, k + 1),
    "inv_k1_sq": lambda k: Fraction(1, k + 1) ** 2,
    "inv_k1_cu": lambda k: Fraction(1, k + 1) ** 3,
    "inv_k2": lambda k: Fraction(1, k + 2),
    "inv_k3": lambda k: Fraction(1, k + 3),
    "inv_2k1": lambda k: Fraction(1, 2 * k - 1),
    "inv_2k1_sq": lambda k: Fraction(1, 2 * k - 1) ** 2,
}

BINOMS = {
    "B22": lambda k: math.comb(2 * k, k),
    "B31": lambda k: math.comb(3 * k, k),
    "B42": lambda k: math.comb(4 * k, 2 * k),
    "B63": lambda k: math.comb(6 * k, 3 * k),
}

LIMITS = {
    "half": lambda p: (p - 1) // 2,
    "full": lambda p: p - 1,
    "full_minus_1": lambda p: p - 2,
    "full_minus_2": lambda p: p - 3,
}

PREFACTORS = {
    "none": lambda p: 1,
    "sign_half": lambda p: (-1) ** ((p - 1) // 2),
    "sign_quarter": lambda p: (-1) ** ((p - 1) // 4),
}

ORACLE_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def weight_fn(weight):
    if weight.tag == "linear":
        return lambda k: weight.c0 + weight.c1 * k
    return WEIGHTS[weight.tag]


def oracle_sum(spec: SumSpec, p: int) -> Fraction:
    w = weight_fn(spec.weight)
    total = Fraction(0)
    for k in range(LIMITS[spec.limit](p) + 1):
        term = w(k)
        for kind in spec.product:
            term *= BINOMS[kind](k)
        total += term / Fraction(spec.m) ** k
    return total * PREFACTORS[spec.prefactor](p)


def reduce_fraction(q: Fraction, p: int, t: int) -> int:
    m = p**t
    assert q.denominator % p != 0, "sum is not p-integral"
    return q.numerator * pow(q.denominator, -1, m) % m


def falling_binom(a: int, k: int) -> Fraction:
    num = Fraction(1)
    for i in range(k):
        num *= a - i
    return num / math.factorial(k)


# -- registered sums vs oracle -------------------------------------------------


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_every_registered_sum_matches_exact_oracle(p):
    """evaluate_sum == literal big-rational summation at the statement's
    own modulus, for every registered sum at every prime up to 37."""
    ctx = PrimeContext(p, 8)
    checked = 0
    for sid, spec in SUM_SPECS.items():
        t = statement_modexp(REGISTRY[sid], p)
        m = Fraction(spec.m)
        if m.numerator % p == 0 or m.denominator % p == 0:
            with pytest.raises(BaseNotUnit):
                evaluate_sum(spec, p, t, ctx)
            continue
        exact = oracle_sum(spec, p)
        if exact.denominator % p == 0:
            # a weight pole the product does not absorb (e.g. 1/(k+3) at
            # p = 5): the sum is not p-integral and the engine must say so
            with pytest.raises(NegativeValuation):
                evaluate_sum(spec, p, t, ctx)
            continue
        got = evaluate_sum(spec, p, t, ctx)
        want = reduce_fraction(exact, p, t)
        assert got.value == want and got.modulus == p**t, sid
        checked += 1
    assert checked > 140


def test_golden_sum_values():
    """Spot values: three registered sums with known reduced values."""
    t23a = SUM_SPECS["T2.3a"]
    assert evaluate_sum(t23a, 11, 2).value == 99
    s24 = SUM_SPECS["S-2.4"]
    assert evaluate_sum(s24, 11, 2).value == 115
    t27 = SUM_SPECS["T2.7"]
    assert evaluate_sum(t27, 5, 2).value == 11
    assert evaluate_sum(t27, 7, 2).value == 36


# -- pole behaviour ------------------------------------------------------------


def pole_specs():
    return {
        sid: spec
        for sid, spec in SUM_SPECS.items()
        if spec.weight.tag.startswith("inv_2k1")
    }


def test_pole_specs_are_registered():
    tags = {spec.weight.tag for spec in pole_specs().values()}
    assert tags == {"inv_2k1", "inv_2k1_sq"}


@pytest.mark.parametrize("p", (5, 13, 41, 97))
def test_pole_sums_complete_at_t2(p):
    ctx = PrimeContext(p, 6)
    for sid, spec in pole_specs().items():
        value = evaluate_sum(spec, p, 2, ctx)
        assert 0 <= value.value < p * p, sid


@pytest.mark.parametrize("p", (5, 7, 11, 13, 17, 19, 23))
def test_pole_term_valuation_floor(p):
    """At k = (p+1)/2 the term's exact valuation clears the in-stream floor:
    2 for a central-cube with 1/(2k-1), 1 for the squared and mixed shapes."""
    k = (p + 1) // 2
    for sid, spec in pole_specs().items():
        term = weight_fn(spec.weight)(k)
        for kind in spec.product:
            term *= BINOMS[kind](k)
        v = 0
        n, d = term.numerator, term.denominator
        while n % p == 0:
            n //= p
            v += 1
        while d % p == 0:
            d //= p
            v -= 1
        gain = sum(1 for kind in spec.product if kind in ("B22", "B63"))
        exp = 1 if spec.weight.tag == "inv_2k1" else 2
        floor = gain - exp
        assert v >= floor, (sid, v, floor)
        if spec.product == ("B22", "B22", "B22") and spec.weight.tag == "inv_2k1":
            assert v >= 2, (sid, v)


# -- structural properties -----------------------------------------------------


@pytest.mark.parametrize("base", (16, -64, 256, -512, 4096))
def test_tail_vanishing_mod_p2(base):
    """For two or three central-binomial factors, the upper-half terms all
    carry valuation >= 2, so extending half to full changes nothing mod p^2."""
    products = (("B22", "B22"), ("B22", "B22", "B22"))
    for p in [n for n in range(5, 101) if all(n % d for d in range(2, n))]:
        ctx = PrimeContext(p, 6)
        for product in products:
            half = SumSpec(product, Fraction(base), W_ONE, HALF)
            full = SumSpec(product, Fraction(base), W_ONE, FULL)
            assert evaluate_sum(half, p, 2, ctx) == evaluate_sum(full, p, 2, ctx)


def test_linearity_of_combo():
    p, t = 13, 2
    ctx = PrimeContext(p, 6)
    s1 = SumSpec(("B22", "B22", "B22"), Fraction(-512), W_ONE, HALF)
    s2 = SumSpec(("B22", "B22", "B22"), Fraction(-512), W_K, HALF)
    rng = random.Random(3)
    for _ in range(25):
        c1 = Fraction(rng.randrange(-50, 51), rng.choice((1, 2, 3, 4, 6)))
        c2 = Fraction(rng.randrange(-50, 51), rng.choice((1, 2, 3, 4, 6)))
        combo = evaluate_combo([(c1, s1), (c2, s2)], p, t, ctx)
        m = p**t
        want = (
            c1.numerator * pow(c1.denominator, -1, m) * evaluate_sum(s1, p, t, ctx).value
            + c2.numerator * pow(c2.denominator, -1, m) * evaluate_sum(s2, p, t, ctx).value
        ) % m
        assert combo.value == want


def test_base_not_unit_rejected():
    spec = SumSpec(("B22",), Fraction(10), W_ONE, HALF)
    with pytest.raises(BaseNotUnit):
        evaluate_sum(spec, 5, 2)
    spec = SumSpec(("B22",), Fraction(1, 5), W_ONE, HALF)
    with pytest.raises(BaseNotUnit):
        evaluate_sum(spec, 5, 2)


def test_negative_valuation_surfaces_for_non_integral_sums():
    """A lone C(3k,k) with 1/(2k-1) has nothing to absorb the pole."""
    spec = SumSpec(("B31",), Fraction(1), W_INV_2K1, FULL)
    with pytest.raises(NegativeValuation):
        evaluate_sum(spec, 11, 2)


def test_linear_weight_matches_literal():
    p, t = 11, 2
    ctx = PrimeContext(p, 6)
    w = linear_weight(Fraction(3, 4), Fraction(-5, 2))
    spec = SumSpec(("B22", "B22"), Fraction(16), w, HALF)
    total = Fraction(0)
    for k in range((p - 1) // 2 + 1):
        total += (Fraction(3, 4) - Fraction(5, 2) * k) * math.comb(2 * k, k) ** 2 / Fraction(16) ** k
    assert evaluate_sum(spec, p, t, ctx).value == reduce_fraction(total, p, t)


# -- two-parameter binomial sums ----------------------------------------------


@pytest.mark.parametrize("p", (5, 11, 13))
def test_jacobi_sum_matches_falling_factorial_oracle(p):
    """Every weight, limit, multiplier class (0, p, a unit) and central
    flag, each sum evaluated on a fresh context and, in shuffled order,
    on one shared context whose term cache sees every (a, central, z).
    a = 3 hits an integer wall; the full limits include the 1/(2k-1) pole
    at 2k = p + 1 and the k + c = p poles."""
    rng = random.Random(40 + p)
    t = 2
    avals = (3, rng.randrange(p, p * p), -rng.randrange(1, p * p))
    unit = next(n for n in (3, -4, 7) if n % p)
    cases = [
        (a, tag, limit, mult, central, rng.choice((None, Fraction(-64), Fraction(7, 3))))
        for a in avals
        for tag in WEIGHTS
        for limit in LIMITS
        for mult in (0, p, unit)
        for central in (False, True)
    ]
    rng.shuffle(cases)
    shared = PrimeContext(p, 8)
    non_integral = 0
    for a, tag, limit, mult, central, base in cases:
        if base is not None and (base.numerator % p == 0 or base.denominator % p == 0):
            base = None
        weight = Weight(tag)
        kw = dict(weight=weight, limit=limit, mult=mult, base=base, central=central)
        total = Fraction(0)
        for k in range(LIMITS[limit](p) + 1):
            term = WEIGHTS[tag](k) * falling_binom(a, k) * falling_binom(-1 - a, k)
            if central:
                term *= math.comb(2 * k, k)
            term *= Fraction(mult) ** k
            if base is not None:
                term /= base**k
            total += term
        assert evaluate_jacobi_sum_exact(a, p, **kw) == total
        non_integral += total.denominator % p == 0
        for ctx in (shared, None):
            if total.denominator % p == 0:
                with pytest.raises(NegativeValuation):
                    evaluate_jacobi_sum(a, p, t, ctx=ctx, **kw)
            else:
                got = evaluate_jacobi_sum(a, p, t, ctx=ctx, **kw)
                assert got.value == reduce_fraction(total, p, t), (a, kw)
    assert 0 < non_integral < len(cases) // 2


# -- caches ----------------------------------------------------------------------


def test_sampled_caches_stay_bounded():
    """100 distinct a, each with its own base, leave at most the LRU sizes."""
    p = 101
    ctx = PrimeContext(p, 8)
    for a in range(100):
        for central in (False, True):
            evaluate_jacobi_sum(7 * a + 2, p, 2, weight=W_K, base=a + 1, central=central, ctx=ctx)
        evaluate_sum(SumSpec(("B22", "B22", "B22"), Fraction(16 * (a + 1)), W_INV_K1), p, 2, ctx)
    assert len(ctx._jacobi) == len(ctx._jacobi_central) == JACOBI_CACHE
    assert len(ctx._terms) == TERM_CACHE
    assert len(ctx._products) == 1 and len(ctx._weights) == 2


def test_shared_context_matches_fresh_context():
    """Every registered sum gives the same residue, or the same error, on
    one context shared by all sums of a prime as on a context of its own."""

    def outcome(spec, p, t, ctx):
        try:
            return evaluate_sum(spec, p, t, ctx).value
        except SupercongError as exc:
            return type(exc)

    for p in [n for n in range(5, 201) if all(n % d for d in range(2, n))]:
        shared = PrimeContext(p, MAX_MODEXP + DEFAULT_GUARD)
        for sid, spec in SUM_SPECS.items():
            t = statement_modexp(REGISTRY[sid], p)
            assert outcome(spec, p, t, shared) == outcome(spec, p, t, None), (sid, p)


# -- typed errors ----------------------------------------------------------------


def test_linear_weight_denominator_divisible_by_p_is_typed():
    spec = SumSpec(("B22", "B22"), Fraction(16), linear_weight(Fraction(1, 7), 1), HALF)
    with pytest.raises(DenominatorNotUnit):
        evaluate_sum(spec, 7, 2)
    assert evaluate_sum(spec, 11, 2).value == reduce_fraction(oracle_sum(spec, 11), 11, 2)


POLE_FLOOR_SCRIPT = """
import sys
from fractions import Fraction
from supercong.context import PrimeContext
from supercong.errors import PoleFloorViolated
from supercong.sums import FULL, W_INV_2K1, SumSpec, evaluate_sum

if __debug__:
    sys.exit("assertions are enabled")
p = 13
ctx = PrimeContext(p, 6)
vs, _ = ctx.product(("B22", "B22"))
vs[(p + 1) // 2] = 0  # two C(2k,k) factors guarantee p^2 at 2k = p + 1
try:
    evaluate_sum(SumSpec(("B22", "B22"), Fraction(16), W_INV_2K1, FULL), p, 2, ctx)
except PoleFloorViolated:
    sys.exit(0)
sys.exit("no PoleFloorViolated")
"""


def test_pole_floor_is_checked_under_python_O():
    """A stream whose pole term falls under the SumSpec floor raises a typed
    error, also when python -O strips assertions."""
    src = str(Path(supercong.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", POLE_FLOOR_SCRIPT], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
