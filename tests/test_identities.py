"""Exact rational identity suites at their full verification sizes."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercong import identities
from supercong.binomials import exact_binomial, rational_binomial
from supercong.identities import (
    check_convolution_identity,
    check_convolution_recurrence,
    check_product_identities,
    check_series_square,
    check_shift_identity,
    convolution_lhs,
    convolution_rhs,
)


def oracle_lhs(a, n):
    """sum_{k=0}^n k C(a,k)C(-1-a,k) (n+1-k) C(a,n+1-k)C(-1-a,n+1-k), term by term."""
    a = Fraction(a)
    total = Fraction(0)
    for k in range(n + 1):
        j = n + 1 - k
        total += (
            k
            * rational_binomial(a, k)
            * rational_binomial(-1 - a, k)
            * j
            * rational_binomial(a, j)
            * rational_binomial(-1 - a, j)
        )
    return total


def oracle_rhs(a, n):
    """a(a+1) sum_{k=0}^n C(a,k)C(-1-a,k)C(2k,k+1)(-1)^(n+1-k)C(k-1,n-k), term by term."""
    a = Fraction(a)
    total = Fraction(0)
    for k in range(n + 1):
        sign = -1 if (n + 1 - k) % 2 else 1
        total += (
            rational_binomial(a, k)
            * rational_binomial(-1 - a, k)
            * exact_binomial(2 * k, k + 1)
            * sign
            * rational_binomial(k - 1, n - k)
        )
    return a * (a + 1) * total


def seeded_rationals(seed: int, count: int):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = Fraction(rng.randrange(-60, 61), rng.randrange(1, 13))
        out.append(q)
    return out


def test_convolution_identity_up_to_40():
    for n in range(41):
        assert check_convolution_identity(n), n


def test_convolution_recurrence_up_to_40():
    rationals = seeded_rationals(0, 5)
    for n in range(2, 41):
        for a in rationals:
            assert check_convolution_recurrence(n, a), (n, a)


def test_convolution_recurrence_rejects_small_n():
    with pytest.raises(ValueError):
        check_convolution_recurrence(1, Fraction(1, 2))


def test_product_identities_up_to_200():
    assert check_product_identities(200)


def test_series_square_order_30():
    for a in seeded_rationals(1, 20):
        assert check_series_square(a, 30), a


def test_shift_identity_200_pairs():
    rng = random.Random(2)
    for _ in range(200):
        a = Fraction(rng.randrange(-60, 61), rng.randrange(1, 13))
        k = rng.randrange(0, 51)
        assert check_shift_identity(a, k), (a, k)


def test_convolution_sides_agree_pointwise():
    for a in (Fraction(0), Fraction(1, 2), Fraction(-3, 4), Fraction(5)):
        for n in (0, 1, 2, 7):
            assert convolution_lhs(a, n) == convolution_rhs(a, n)


@settings(max_examples=60, deadline=None)
@given(
    a=st.fractions(min_value=-100, max_value=100, max_denominator=40),
    k=st.integers(min_value=0, max_value=25),
)
def test_shift_identity_property(a, k):
    assert check_shift_identity(a, k)


@settings(max_examples=30, deadline=None)
@given(
    a=st.fractions(min_value=-50, max_value=50, max_denominator=20),
    n=st.integers(min_value=2, max_value=15),
)
def test_convolution_recurrence_property(a, n):
    assert check_convolution_recurrence(n, a)


#: integers, half-integers and general rationals
rationals = st.one_of(
    st.integers(min_value=-60, max_value=60).map(Fraction),
    st.integers(min_value=-60, max_value=60).map(lambda m: Fraction(2 * m + 1, 2)),
    st.fractions(min_value=-60, max_value=60, max_denominator=30),
)


@settings(max_examples=100, deadline=None)
@given(a=rationals, n=st.integers(min_value=0, max_value=15), data=st.data())
def test_rows_and_sides_match_fraction_oracles(a, n, data):
    start = data.draw(st.integers(min_value=0, max_value=n))
    row = identities._binomial_row(a, n, start)
    assert row == [rational_binomial(a, k) for k in range(start, n + 1)]
    if a.denominator == 1:
        assert all(type(x) is int for x in row)
    assert convolution_lhs(a, n) == oracle_lhs(a, n)
    assert convolution_rhs(a, n) == oracle_rhs(a, n)


def _c2_off_by_one(row_fn):
    """The row helper with C(a,2) one too large: C(a,2) + 1 and C(-1-a,2) + 1
    always change the product C(a,2)C(-1-a,2), by a^2 + a + 2 != 0."""

    def broken(a, n, start=0):
        row = row_fn(a, n, start)
        if start <= 2 <= n:
            row[2 - start] += 1
        return row

    return broken


@pytest.mark.parametrize(
    "check",
    [
        lambda: check_convolution_identity(3),
        lambda: check_convolution_recurrence(3, Fraction(2, 5)),
        lambda: check_product_identities(3),
        lambda: check_series_square(Fraction(2, 5), 4),
        lambda: check_shift_identity(Fraction(2, 5), 1),
    ],
    ids=["convolution", "recurrence", "products", "series_square", "shift"],
)
def test_checks_fail_on_a_wrong_binomial(monkeypatch, check):
    assert check() is True
    monkeypatch.setattr(identities, "_binomial_row", _c2_off_by_one(identities._binomial_row))
    assert check() is False
