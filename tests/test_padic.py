"""Residues mod p^t and p-adic valuations against exact rational references."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercong.errors import DenominatorNotUnit
from supercong.padic import Residue, residue_from_fraction, residue_from_rational, strip_p

PRIMES = (5, 7, 11, 101)


def exact_vp(q: Fraction, p: int) -> int:
    """Valuation of a nonzero rational, by literal division counting."""
    v, n, d = 0, q.numerator, q.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def unit_fractions(rng: random.Random, p: int) -> Fraction:
    """A random rational with p-unit denominator (may be p-divisible on top)."""
    num = rng.randrange(-(10**6), 10**6 + 1)
    den = rng.randrange(1, 10**4)
    while den % p == 0:
        den = rng.randrange(1, 10**4)
    return Fraction(num, den)


def test_strip_p():
    assert strip_p(50, 5) == (2, 2)
    assert strip_p(-75, 5) == (2, -3)
    assert strip_p(7, 5) == (0, 7)
    with pytest.raises(ValueError):
        strip_p(0, 5)


def test_residue_normalizes_and_computes():
    r = Residue(5, 2, -3)
    assert r.value == 22 and r.modulus == 25
    same = Residue(5, 2, 22 + 25 * 7)
    assert same == r and hash(same) == hash(r)
    assert len({r, same, Residue(5, 3, 22), Residue(7, 2, 22), Residue(5, 2, 23)}) == 4
    assert repr(r) == "22 mod 5^2"
    with pytest.raises(AttributeError):
        r.value = 3


def test_residue_from_rational_rejects_p_denominator():
    with pytest.raises(DenominatorNotUnit):
        residue_from_rational(1, 10, 5, 2)
    assert residue_from_rational(1, 3, 5, 2).value == pow(3, -1, 25)


def split_reduce(q: Fraction, p: int, t: int) -> int:
    """q mod p^t through its split into p^v times a unit, v >= 0."""
    if q == 0:
        return 0
    v, un = strip_p(q.numerator, p)
    _, ud = strip_p(q.denominator, p)
    m = p**t
    return un * pow(ud, -1, m) * p**v % m


@pytest.mark.parametrize("p", PRIMES)
def test_round_trip_matches_direct_reduction(p):
    """Reducing the unit of a rational and multiplying its power of p back
    in gives the one-step residue."""
    rng = random.Random(100 + p)
    for _ in range(300):
        q = unit_fractions(rng, p)
        t = rng.randrange(1, 5)
        want = residue_from_rational(q.numerator, q.denominator, p, t)
        assert split_reduce(q, p, t) == want.value
        assert want.value * q.denominator % p**t == q.numerator % p**t


@pytest.mark.parametrize("p", PRIMES)
def test_ring_laws_against_fraction_oracle(p):
    """Reduction mod p^t is a ring map: (x+y)z reduces to the sum and
    product of the reductions."""
    rng = random.Random(200 + p)
    t = 3
    m = p**t
    for _ in range(1000):
        qx, qy, qz = (unit_fractions(rng, p) for _ in range(3))
        x, y, z = (residue_from_fraction(q, p, t).value for q in (qx, qy, qz))
        want = residue_from_fraction((qx + qy) * qz, p, t)
        assert (x + y) * z % m == want.value
        assert (x * z + y * z) % m == want.value


@pytest.mark.parametrize("p", (5, 11))
def test_valuation_additivity(p):
    """strip_p valuations add under products, match literal counting and
    bound the valuation of a sum."""
    rng = random.Random(300 + p)
    for _ in range(500):
        x, y = rng.randrange(-(10**6), 10**6 + 1), rng.randrange(-(10**6), 10**6 + 1)
        if x == 0 or y == 0:
            continue
        (vx, ux), (vy, uy) = strip_p(x, p), strip_p(y, p)
        assert vx == exact_vp(Fraction(x), p) and ux * p**vx == x
        assert strip_p(x * y, p) == (vx + vy, ux * uy)
        if x + y == 0:
            continue
        vs, _ = strip_p(x + y, p)
        assert vs >= min(vx, vy)
        if vx != vy:
            assert vs == min(vx, vy)


def test_negative_valuation_rejected_only_at_reduction():
    """1/5 has no residue mod 5^t, but 25 times it does."""
    q = Fraction(1, 5)
    assert exact_vp(q, 5) == -1
    with pytest.raises(DenominatorNotUnit):
        residue_from_fraction(q, 5, 2)
    assert residue_from_fraction(q * 25, 5, 2) == residue_from_rational(5, 1, 5, 2)


def test_division():
    """The residue of x/y times the residue of y is the residue of x, also
    when p divides both x and y."""
    p, t = 7, 3
    m = p**t
    x, y = Fraction(14, 3), Fraction(7, 5)
    got = residue_from_fraction(x / y, p, t).value * residue_from_fraction(y, p, t).value % m
    assert got == residue_from_rational(14, 3, p, t).value


@settings(max_examples=200, deadline=None)
@given(
    num=st.integers(min_value=-(10**9), max_value=10**9),
    den=st.integers(min_value=1, max_value=10**6),
    t=st.integers(min_value=1, max_value=4),
)
def test_lift_reduce_round_trip_property(num, den, t):
    p = 11
    if den % p == 0:
        return
    q = Fraction(num, den)
    assert residue_from_fraction(q, p, t).value == split_reduce(q, p, t)


@settings(max_examples=200, deadline=None)
@given(
    a=st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
    b=st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
)
def test_product_matches_fraction_oracle_property(a, b):
    p, t = 13, 2
    if a.denominator % p == 0 or b.denominator % p == 0:
        return
    got = residue_from_fraction(a, p, t).value * residue_from_fraction(b, p, t).value
    assert got % p**t == residue_from_fraction(a * b, p, t).value
