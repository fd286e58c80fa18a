"""Binomial streams and one-shot binomials against exact big integers."""

import math
from fractions import Fraction

import pytest
from oracles import EXACT, rational_binomial

from supercong.binomials import (
    B22,
    RATIOS,
    batch_invert,
    binomial_mod,
    exact_binomial,
    jacobi_stream_arrays,
    stream_arrays,
)
from supercong.context import PrimeContext
from supercong.identities import PRODUCT_FORMS
from supercong.padic import residue_from_fraction


def exact_vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@pytest.mark.parametrize("p", (11, 101, 997))
@pytest.mark.parametrize("kind", list(RATIOS))
def test_stream_matches_exact_binomials(p, kind):
    """Every stream term equals the exact binomial, reduced mod p^2 and p^4."""
    vs, us = stream_arrays(kind, p, 4)
    for k in range(p):
        n = EXACT[kind](k)
        assert vs[k] == exact_vp(n, p)
        for t in (2, 4):
            m = p**t
            assert us[k] * p ** vs[k] % m == n % m, (kind, p, k, t)


@pytest.mark.parametrize("p", (11, 101))
@pytest.mark.parametrize("kind", list(RATIOS))
def test_stream_iterator_agrees_with_arrays(p, kind):
    """A context's stream at working exponent 3, with no headroom, gives
    every term exactly mod p^3."""
    vs, us = PrimeContext(p, 3).stream(kind)
    for k in range(p):
        assert us[k] * p ** vs[k] % p**3 == EXACT[kind](k) % p**3


@pytest.mark.parametrize("p", (11, 101, 997))
def test_central_binomial_divisible_in_upper_half(p):
    """C(2k,k) = 0 (mod p) for (p+1)/2 <= k <= p-1."""
    vs, _ = stream_arrays(B22, p, 2)
    for k in range((p + 1) // 2, p):
        assert vs[k] >= 1


def test_consecutive_ratios_against_exact_for_k_up_to_200():
    """Stream recursions reproduce exact binomials for k <= 200 (prime 211)."""
    p = 211
    for kind in RATIOS:
        vs, us = stream_arrays(kind, p, 4)
        m = p**4
        for k in range(201):
            n = EXACT[kind](k)
            assert us[k] * p ** vs[k] % m == n % m, (kind, k)


@pytest.mark.parametrize("t", (2, 4))
@pytest.mark.parametrize("p", (11, 101))
def test_jacobi_stream_matches_rational_binomials(p, t):
    """Every term of the Jacobi stream equals C(a,k) C(-1-a,k) mod p^t,
    with the exact valuation where the term is nonzero.  The integer a put
    a multiple of p (or of p^2) in a - k or a + k + 1 for some k, or hit a
    wall where the stream is exactly zero from there on.  The rational a
    are the four points of PRODUCT_FORMS and two r/s with p | 2r + s and
    p^2 | 2r + s, where the factor at k = (p-1)/2 holds p^2 or p^4."""
    m = p**t
    inv_sq = [pow(k + 1, -2, m) for k in range(p - 1)]
    ints = (3 + p, 2 * p - 5, p * p + 7, p * p - 1, -2 * p + 3, 0, 5, -1, -4, 123457)
    rationals = (*PRODUCT_FORMS, Fraction((p - 3) // 2, 3), Fraction((p * p - 3) // 2, 3))
    for a in ints + rationals:
        vs, us = jacobi_stream_arrays(a, p, t, inv_sq)
        for k in range(p):
            exact = rational_binomial(a, k) * rational_binomial(-1 - a, k)
            assert exact.denominator == 1 or a in rationals
            assert us[k] * p ** vs[k] % m == residue_from_fraction(exact, p, t).value, (a, k)
            if exact:
                assert vs[k] == exact_vp(exact.numerator, p), (a, k)


def test_exact_binomial():
    assert exact_binomial(10, 3) == 120
    assert exact_binomial(3, 7) == 0


def test_rational_binomial_small_values():
    assert rational_binomial(Fraction(-1, 2), 2) == Fraction(3, 8)
    assert rational_binomial(5, 2) == Fraction(10)
    assert rational_binomial(Fraction(1, 3), 0) == Fraction(1)


def test_batch_invert():
    xs = [1, 2, 3, 4, 6]
    m = 7**3
    inv = batch_invert(xs, m)
    for x, y in zip(xs, inv):
        assert x * y % m == 1


@pytest.mark.parametrize(
    "n,k,p,t",
    [
        (40, 17, 11, 3),
        (123, 61, 7, 2),
        (200_000, 90_000, 11, 3),
        (30_001, 10_000, 101, 2),
    ],
)
def test_binomial_mod_matches_exact(n, k, p, t):
    assert binomial_mod(n, k, p, t) == math.comb(n, k) % p**t


@pytest.mark.parametrize("p", (13, 29))
def test_half_binomial_identity(p):
    """C(-1/2, k) = C(2k,k) / (-4)^k for all k < p."""
    t = 2
    m = p**t
    for k in range(p):
        got = residue_from_fraction(rational_binomial(Fraction(-1, 2), k), p, t)
        want = math.comb(2 * k, k) * pow(-4, -k, m) % m
        assert got.value == want, k


@pytest.mark.parametrize("p", (13, 29))
def test_product_identities_mod_p2(p):
    """C(a,k)C(-1-a,k) for a = -1/4, -1/6, -1/3 equals the matching stream
    quotient C(2k,k)C(4k,2k)/64^k, C(3k,k)C(6k,3k)/432^k, C(2k,k)C(3k,k)/27^k."""
    t = 2
    m = p**t
    cases = [
        (Fraction(-1, 4), lambda k: math.comb(2 * k, k) * math.comb(4 * k, 2 * k), 64),
        (Fraction(-1, 6), lambda k: math.comb(3 * k, k) * math.comb(6 * k, 3 * k), 432),
        (Fraction(-1, 3), lambda k: math.comb(2 * k, k) * math.comb(3 * k, k), 27),
    ]
    for a, prod, base in cases:
        if base % p == 0:
            continue
        for k in range(p):
            left = rational_binomial(a, k) * rational_binomial(-1 - a, k)
            want = prod(k) * pow(base, -k, m) % m
            assert residue_from_fraction(left, p, t).value == want, (a, k)

