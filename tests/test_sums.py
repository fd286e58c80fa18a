"""Modular sum evaluation against literal exact-rational oracles.

Every oracle here is written out longhand (lambdas over math.comb and
Fraction) so a wrong shape table inside the package cannot hide by being
used on both sides of the comparison.
"""

import gc
import math
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import evaluate_jacobi_sum_exact

import supercong
from supercong import context
from supercong.binomials import KINDS, stream_arrays
from supercong.context import JACOBI_CACHE, PrimeContext
from supercong.errors import BaseNotUnit, DenominatorNotUnit, NegativeValuation, SupercongError
from supercong.identities import PRODUCT_FORMS
from supercong.registry import REGISTRY, SUM_SPECS, statement_modexp
from supercong.statements import MAX_MODEXP, evaluate_statement
from supercong.sums import (
    FULL,
    HALF,
    SumSpec,
    W_INV_2K1,
    W_INV_K1,
    W_K,
    W_ONE,
    Weight,
    evaluate_jacobi_sum,
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


def primes_to(n: int) -> list[int]:
    return [q for q in range(5, n + 1) if all(q % d for d in range(2, q))]


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
    """A sum weighted c1 + c2*k is c1 times the sum weighted 1 plus c2 times
    the sum weighted k, for rational c1, c2 with p-unit denominators."""
    p, t = 13, 2
    ctx = PrimeContext(p, t)
    product, base = ("B22", "B22", "B22"), Fraction(-512)
    s1 = evaluate_sum(SumSpec(product, base, W_ONE, HALF), p, t, ctx).value
    s2 = evaluate_sum(SumSpec(product, base, W_K, HALF), p, t, ctx).value
    rng = random.Random(3)
    m = p**t
    for _ in range(25):
        c1 = Fraction(rng.randrange(-50, 51), rng.choice((1, 2, 3, 4, 6)))
        c2 = Fraction(rng.randrange(-50, 51), rng.choice((1, 2, 3, 4, 6)))
        combo = evaluate_sum(SumSpec(product, base, linear_weight(c1, c2), HALF), p, t, ctx)
        want = (
            c1.numerator * pow(c1.denominator, -1, m) * s1
            + c2.numerator * pow(c2.denominator, -1, m) * s2
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
    at 2k = p + 1 and the k + c = p poles.  The rational a are the four
    points of PRODUCT_FORMS and two r/s with p | 2r + s and p^2 | 2r + s,
    whose pole terms carry two or four more powers of p."""
    rng = random.Random(40 + p)
    t = 2
    avals = (3, rng.randrange(p, p * p), -rng.randrange(1, p * p))
    avals += (*PRODUCT_FORMS, Fraction((p - 3) // 2, 3), Fraction((p * p - 3) // 2, 3))
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


@pytest.mark.parametrize("p", (7, 11, 13))
def test_linear_weights_on_the_jacobi_path(p):
    """Two rational linear weights on the plain and the central stream, at a
    sampled int a and at a = -1/3, on a fresh and on a shared context,
    match the falling-factorial oracle; at p = 7 the weight 1 + k/7 has a
    denominator p divides and raises DenominatorNotUnit."""
    rng = random.Random(70 + p)
    t = 2
    shared = PrimeContext(p, 4)
    weights = (linear_weight(Fraction(3, 4), Fraction(-5, 2)), linear_weight(1, Fraction(1, 7)))
    for weight in weights:
        for a in (rng.randrange(p, p * p), Fraction(-1, 3)):
            for central in (False, True):
                kw = dict(weight=weight, mult=-3, central=central)
                if weight.c1.denominator == p:
                    with pytest.raises(DenominatorNotUnit):
                        evaluate_jacobi_sum(a, p, t, **kw)
                    continue
                total = Fraction(0)
                for k in range(p):
                    term = weight_fn(weight)(k) * falling_binom(a, k) * falling_binom(-1 - a, k)
                    total += term * math.comb(2 * k, k) ** central * Fraction(-3) ** k
                assert evaluate_jacobi_sum_exact(a, p, **kw) == total
                for ctx in (shared, None):
                    got = evaluate_jacobi_sum(a, p, t, ctx=ctx, **kw)
                    assert got.value == reduce_fraction(total, p, t), (weight, a, central)


def _value_or_error(evaluate):
    try:
        return evaluate().value
    except SupercongError as exc:
        return type(exc)


@pytest.mark.parametrize("t", (2, 3))
@pytest.mark.parametrize("p", (11, 13, 101))
def test_fixed_a_jacobi_sums_match_product_sums(p, t):
    """At each a of PRODUCT_FORMS, C(a,k) C(-1-a,k) = prod(kinds at k)/b^k,
    so every Jacobi sum at a, with C(2k,k) or without, equals the product
    sum over kinds (and B22) at base b * base / mult: every weight, poles
    included, and every limit, with the same typed error where the sum is
    not p-integral."""
    ctx = PrimeContext(p, t)
    values = 0
    for a, (kinds, b) in PRODUCT_FORMS.items():
        for central in (False, True):
            product = ("B22", *kinds) if central else kinds
            for mult, base in ((1, None), (-6, 7)):
                m = Fraction(b * (base or 1), mult)
                for tag in WEIGHTS:
                    for limit in LIMITS:
                        spec = SumSpec(product, m, Weight(tag), limit)
                        kw = dict(weight=Weight(tag), limit=limit, mult=mult, base=base)
                        want = _value_or_error(lambda: evaluate_sum(spec, p, t, ctx))
                        got = _value_or_error(
                            lambda: evaluate_jacobi_sum(a, p, t, central=central, ctx=ctx, **kw)
                        )
                        assert got == want, (a, central, mult, tag, limit)
                        values += isinstance(want, int)
    assert values > 0.9 * len(PRODUCT_FORMS) * 2 * 2 * len(WEIGHTS) * len(LIMITS)


# -- caches ----------------------------------------------------------------------


def test_sampled_caches_stay_bounded():
    """100 distinct sampled a and multipliers, each with its own base, leave
    the per-sample caches at their LRU size; what is finite per prime (the
    fixed-a stream, products, product term arrays, weights) is kept."""
    p = 101
    ctx = PrimeContext(p, 8)
    for a in range(100):
        for central in (False, True):
            evaluate_jacobi_sum(7 * a + 2, p, 2, weight=W_K, base=a + 1, central=central, ctx=ctx)
        evaluate_jacobi_sum(Fraction(-1, 2), p, 2, weight=W_K, mult=a + 1, ctx=ctx)
        evaluate_sum(SumSpec(("B22", "B22", "B22"), Fraction(16 * (a + 1)), W_INV_K1), p, 2, ctx)
    assert len(ctx._sampled_a) == len(ctx._sample_terms) == JACOBI_CACHE
    assert list(ctx._fixed_a) == [(Fraction(-1, 2), False)]
    assert len(ctx._group_terms) == 100
    assert len(ctx._products) == 1 and len(ctx._weights) == 2


def test_a_run_builds_each_cached_array_once():
    """At p = 211 with every id on one root context, in sorted order and in a
    seeded shuffle, no cache of any context builds a key twice: a sample's
    arrays live in caches of their own and never evict an array that a
    later id reads."""
    p = 211
    shuffled = sorted(REGISTRY)
    random.Random(14).shuffle(shuffled)
    for sids in (sorted(REGISTRY), shuffled):
        builds = Counter()
        ctx = PrimeContext(p, MAX_MODEXP)
        with pytest.MonkeyPatch.context() as mp:
            for cls in vars(context).values():
                if isinstance(cls, type) and "get_or_build" in vars(cls):

                    def counted(cache, key, build, _get_or_build=cls.get_or_build):
                        if key not in cache:
                            builds[id(cache), key] += 1
                        return _get_or_build(cache, key, build)

                    mp.setattr(cls, "get_or_build", counted)
            for sid in sids:
                try:
                    evaluate_statement(sid, p, ctx=ctx)
                except SupercongError:
                    pass
        assert len(builds) > 400
        assert [key for key, n in builds.items() if n > 1] == [], sids[:3]


def test_views_reduce_the_root_streams():
    """A view at t < workexp holds each stream as stream_arrays builds it
    at t, while the prime builds each stream kind only once, at the
    root's exponent; narrowing is cached and the root is its own view."""
    p = 101
    built = []

    def counted(kind, p, workexp):
        built.append((kind, workexp))
        return stream_arrays(kind, p, workexp)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(context, "stream_arrays", counted)
        root = PrimeContext(p, MAX_MODEXP)
        for t in (1, 2, 3):
            view = root.at(t)
            assert view is root.at(t) and view.at(t) is view
            assert (view.p, view.workexp, view.P) == (p, t, p**t)
            for kind in KINDS:
                assert view.stream(kind) == stream_arrays(kind, p, t), (kind, t)
    assert root.at(MAX_MODEXP) is root
    assert sorted(built) == [(kind, MAX_MODEXP) for kind in sorted(KINDS)]
    for t in (0, MAX_MODEXP + 1):
        with pytest.raises(ValueError):
            root.at(t)


def test_contexts_free_without_the_cycle_collector():
    """A root and its views, after serving sums at every exponent, are
    freed by reference counting alone: no view refers back to its root."""
    p = 101
    spec = SumSpec(("B22", "B22"), Fraction(16), W_INV_K1)
    gc.disable()
    try:
        root = PrimeContext(p, MAX_MODEXP)
        views = [root.at(t) for t in (1, 2, 3)]
        for ctx in (root, *views):
            evaluate_sum(spec, p, ctx.workexp, ctx)
            evaluate_jacobi_sum(7, p, ctx.workexp, weight=W_K, central=True, ctx=ctx)
        refs = [weakref.ref(ctx) for ctx in (root, *views)]
        del root, views, ctx
        assert [ref() for ref in refs] == [None] * 4
    finally:
        gc.enable()


def outcome(spec, p, t, ctx):
    """The residue of a sum, or the type of the engine error it raises."""
    try:
        return evaluate_sum(spec, p, t, ctx).value
    except SupercongError as exc:
        return type(exc)


def test_shared_context_matches_fresh_context():
    """Every registered sum gives the same residue, or the same error, on
    one context shared by all sums of a prime as on a context of its own."""
    for p in primes_to(200):
        shared = PrimeContext(p, MAX_MODEXP)
        for sid, spec in SUM_SPECS.items():
            t = statement_modexp(REGISTRY[sid], p)
            assert outcome(spec, p, t, shared) == outcome(spec, p, t, None), (sid, p)


def test_sums_need_no_headroom():
    """Every registered sum evaluated at working exponent t equals the same
    sum at t + 4, or raises the same error, for every prime up to 1000:
    every kept term has valuation >= 0, so no digit below p^t is lost."""
    for p in primes_to(1000):
        ctxs = {e: PrimeContext(p, e) for e in range(1, MAX_MODEXP + 5)}
        for sid, spec in SUM_SPECS.items():
            t = statement_modexp(REGISTRY[sid], p)
            assert outcome(spec, p, t, ctxs[t]) == outcome(spec, p, t, ctxs[t + 4]), (sid, p)


def test_context_for_another_prime_is_rejected():
    """A context for another prime, or below the target exponent, raises
    instead of giving a residue for the wrong modulus."""
    spec = SUM_SPECS["T2.7"]
    with pytest.raises(ValueError):
        evaluate_sum(spec, 7, 2, PrimeContext(11, 8))
    with pytest.raises(ValueError):
        evaluate_jacobi_sum(3, 7, 2, ctx=PrimeContext(11, 8))
    with pytest.raises(ValueError):
        evaluate_jacobi_sum(3, 7, 3, ctx=PrimeContext(7, 2))
    assert evaluate_sum(spec, 7, 2, PrimeContext(7, 2)).value == 36


def test_modulus_exponent_below_one_is_rejected():
    spec = SUM_SPECS["T2.7"]
    for t in (0, -1):
        with pytest.raises(ValueError):
            evaluate_sum(spec, 7, t)
        with pytest.raises(ValueError):
            evaluate_jacobi_sum(3, 7, t, ctx=PrimeContext(7, 2))


# -- random sums against the oracle -------------------------------------------


@st.composite
def sum_specs(draw):
    p = draw(st.sampled_from(primes_to(200)))
    product = tuple(draw(st.lists(st.sampled_from(sorted(BINOMS)), min_size=1, max_size=3)))
    tag = draw(st.sampled_from(sorted(WEIGHTS) + ["linear"]))
    if tag == "linear":
        coeff = st.fractions(min_value=-20, max_value=20, max_denominator=12)
        weight = linear_weight(draw(coeff), draw(coeff))
    else:
        weight = Weight(tag)
    num = draw(st.integers(min_value=-600, max_value=600))
    den = draw(st.integers(min_value=1, max_value=50))
    assume(num % p and den % p)
    spec = SumSpec(
        product,
        Fraction(num, den),
        weight,
        draw(st.sampled_from(sorted(LIMITS))),
        draw(st.sampled_from(sorted(PREFACTORS))),
    )
    return spec, p, draw(st.integers(min_value=1, max_value=4))


@settings(max_examples=150, deadline=None)
@given(case=sum_specs())
def test_random_sum_matches_oracle_or_raises_typed_error(case):
    """A random sum on a context with no headroom (working exponent t)
    equals the Fraction oracle mod p^t, or raises a typed error: a pole
    the product does not absorb, or a linear weight whose denominator p
    divides."""
    spec, p, t = case
    exact = oracle_sum(spec, p)
    try:
        got = evaluate_sum(spec, p, t, PrimeContext(p, t))
    except NegativeValuation:
        assert exact.denominator % p == 0
        return
    except DenominatorNotUnit:
        assert spec.weight.tag == "linear"
        return
    assert got.value == reduce_fraction(exact, p, t) and got.modulus == p**t


# -- typed errors ----------------------------------------------------------------


def test_linear_weight_denominator_divisible_by_p_is_typed():
    spec = SumSpec(("B22", "B22"), Fraction(16), linear_weight(Fraction(1, 7), 1), HALF)
    with pytest.raises(DenominatorNotUnit):
        evaluate_sum(spec, 7, 2)
    assert evaluate_sum(spec, 11, 2).value == reduce_fraction(oracle_sum(spec, 11), 11, 2)


def test_jacobi_sum_at_a_with_p_in_its_denominator_is_typed():
    with pytest.raises(DenominatorNotUnit):
        evaluate_jacobi_sum(Fraction(1, 7), 7, 2)
    with pytest.raises(DenominatorNotUnit):
        evaluate_jacobi_sum(Fraction(1, 7), 7, 2, weight=Weight("inv_2k1"), central=True)


POLE_FLOOR_SCRIPT = """
import sys
from fractions import Fraction
from supercong.context import PrimeContext
from supercong.errors import PoleFloorViolated
from supercong.sums import FULL, W_INV_2K1, SumSpec, evaluate_jacobi_sum, evaluate_sum

if __debug__:
    sys.exit("assertions are enabled")
p = 13
ctx = PrimeContext(p, 6)
vs, _ = ctx.product(("B22", "B22"))
vs[(p + 1) // 2] = 0  # two C(2k,k) factors guarantee p^2 at 2k = p + 1
try:
    evaluate_sum(SumSpec(("B22", "B22"), Fraction(16), W_INV_2K1, FULL), p, 2, ctx)
    sys.exit("no PoleFloorViolated from the product stream")
except PoleFloorViolated:
    pass
a = Fraction(-1, 2)
vs, _ = ctx.jacobi_central(a)
vs[(p + 1) // 2] = 2  # C(2k,k) and p | 2a + 1 guarantee p^3 at 2k = p + 1
try:
    evaluate_jacobi_sum(a, p, 3, weight=W_INV_2K1, central=True, ctx=ctx)
    sys.exit("no PoleFloorViolated from the Jacobi stream")
except PoleFloorViolated:
    pass
a = 20  # a sampled int with p not dividing 2a + 1, and no wall before k = p - 1
vs, _ = ctx.jacobi_central(a)
vs[(p + 1) // 2] = 1  # C(2k,k), and p | (a - 6)...(a + 7), guarantee p^2 at 2k = p + 1
try:
    evaluate_jacobi_sum(a, p, 3, weight=W_INV_2K1, central=True, ctx=ctx)
    sys.exit("no PoleFloorViolated from the Jacobi stream at an int a")
except PoleFloorViolated:
    pass
"""


def test_pole_floor_is_checked_under_python_O():
    """A product stream, and central Jacobi streams at a = -1/2 and at an int
    a with p not dividing 2a + 1, whose pole terms fall under their floors
    raise a typed error, also when python -O strips assertions."""
    src = str(Path(supercong.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", POLE_FLOOR_SCRIPT], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
