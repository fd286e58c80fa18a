"""Exact rational identity suites at their full verification sizes."""

import math
import random
from fractions import Fraction
from math import factorial
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import EXACT, convolution_lhs, convolution_rhs, rational_binomial

from supercong import binomials, identities
from supercong.binomials import exact_binomial
from supercong.cli import main
from supercong.identities import (
    check_convolution_identity,
    check_convolution_recurrence,
    check_product_identities,
    check_series_square,
    check_shift_identity,
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


# -- Fraction oracles: one Fraction per row entry, sides in Fraction arithmetic


def fraction_row(a, n, start=0):
    """[C(a,start), ..., C(a,n)] as Fractions, by the falling-factorial step."""
    a = Fraction(a)
    r, s = a.numerator, a.denominator
    row = [Fraction(1)] if start == 0 else []
    num = den = 1
    for k in range(n):
        num *= r - k * s
        den *= s * (k + 1)
        if k + 1 >= start:
            row.append(Fraction(num, den))
    return row


def fraction_jacobi_row(a, n, start=0):
    return list(map(mul, fraction_row(a, n, start), fraction_row(-1 - Fraction(a), n, start)))


def fraction_lhs_sum(jac, n):
    return sum(k * (n + 1 - k) * jac[k] * jac[n + 1 - k] for k in range(1, n + 1))


def fraction_recurrence_sides(n, a):
    a = Fraction(a)
    jac = fraction_jacobi_row(a, n + 1)
    s = [fraction_lhs_sum(jac, m) for m in (n, n - 1, n - 2)]
    lhs = (n**3 - n) * s[0]
    rhs = 2 * (n**3 - (2 * a * a + 2 * a + 1) * n + a * (a + 1)) * s[1] - (
        n**3 - (2 * a + 1) ** 2 * n
    ) * s[2]
    return lhs, rhs


def fraction_product_sides(k_max):
    """(C(a,k)C(-1-a,k), closed form at k) per entry, in the order of the check."""
    half = fraction_row(Fraction(-1, 2), k_max)
    out = [(half[k], Fraction(exact_binomial(2 * k, k), (-4) ** k)) for k in range(k_max + 1)]
    for a, (kinds, base) in identities.PRODUCT_FORMS.items():
        jac = fraction_jacobi_row(a, k_max)
        for k in range(k_max + 1):
            closed = Fraction(EXACT[kinds[0]](k) * EXACT[kinds[1]](k), base**k)
            out.append((jac[k], closed))
    return out


def fraction_series_square_sides(a, order):
    a = Fraction(a)
    jac = fraction_jacobi_row(a, order)
    lin = [(-1) ** k * k * x for k, x in enumerate(jac)]
    lhs = [sum(lin[i] * lin[m - i] for i in range(m + 1)) for m in range(order + 1)]
    coef = [exact_binomial(2 * k, k + 1) * x for k, x in enumerate(jac)]
    inner = [
        sum((-1) ** k * exact_binomial(k, i - k) * coef[k] for k in range((i + 1) // 2, i + 1))
        for i in range(order)
    ]
    rhs = [Fraction(0)]
    q = 0
    for x in inner:
        q = x - q
        rhs.append(a * (a + 1) * q)
    return lhs, rhs


def fraction_shift_sides(a, k):
    a = Fraction(a)
    jac_k, jac_next = fraction_jacobi_row(a, k + 1, start=k)
    lhs = (k + 1) ** 2 * jac_next * exact_binomial(2 * k + 2, k + 1)
    rhs = (
        4 * k * k + 2 * k - 4 * a * (a + 1) + 2 * a * (a + 1) / Fraction(k + 1)
    ) * jac_k * exact_binomial(2 * k, k)
    return lhs, rhs


def over(den, *sides):
    """Integer sides (ints or lists of ints) as Fractions over ``den``."""
    return tuple(
        [Fraction(x, den) for x in side] if isinstance(side, list) else Fraction(side, den)
        for side in sides
    )


def own_den(a, k):
    """s^k k!, the denominator of C(a,k) at a = r/s that the numerator rows sit over."""
    return a.denominator**k * factorial(k)


def shift_den(a, k):
    """s^(2k+2) k! (k+1)!, the factor ``_shift_sides`` multiplies both sides by."""
    return a.denominator * own_den(a, k) * own_den(a, k + 1)


@settings(max_examples=100, deadline=None)
@given(a=rationals, n=st.integers(min_value=0, max_value=15), data=st.data())
def test_rows_and_sides_match_fraction_oracles(a, n, data):
    start = data.draw(st.integers(min_value=0, max_value=n))
    r, s = a.as_integer_ratio()
    ks = range(start, n + 1)
    row = identities._numerator_row(r, s, n, start)
    expected = [rational_binomial(a, k) for k in ks]
    assert [Fraction(x, own_den(a, k)) for k, x in zip(ks, row)] == expected
    assert expected == fraction_row(a, n, start)
    jac = identities._jacobi_numerators(a, n, start)
    expected = [rational_binomial(a, k) * rational_binomial(-1 - a, k) for k in ks]
    assert [Fraction(x, own_den(a, k) ** 2) for k, x in zip(ks, jac)] == expected
    assert expected == fraction_jacobi_row(a, n, start)
    jac, den = identities._jacobi_row(a, n)
    assert den == own_den(a, n) ** 2
    assert [Fraction(x, den) for x in jac] == fraction_jacobi_row(a, n)

    assert convolution_lhs(a, n) == oracle_lhs(a, n)
    assert convolution_rhs(a, n) == oracle_rhs(a, n)
    if n >= 2:
        lhs, rhs, den = identities._recurrence_sides(n, a)
        assert over(den, lhs, rhs) == fraction_recurrence_sides(n, a)
    lhs, rhs, den = identities._series_square_sides(a, n)
    assert over(den, lhs, rhs) == fraction_series_square_sides(a, n)
    sides = list(identities._shift_sides(a, start, n + 1))
    assert len(sides) == n + 1 - start
    for k, (lhs, rhs) in zip(ks, sides):
        assert over(shift_den(a, k), lhs, rhs) == fraction_shift_sides(a, k)


@pytest.mark.parametrize("k", [150, 199])
@pytest.mark.parametrize("a", [Fraction(-37, 12), Fraction(5, 7), Fraction(59, 11), Fraction(-42)])
def test_shift_sides_match_fraction_oracle_at_large_k(a, k):
    """The per-k denominators grow with k, past the property test's k <= 15:
    alone, as ``check_shift_identity`` reads k, and two steps into a row."""
    [(lhs, rhs)] = identities._shift_sides(a, k, k + 1)
    assert lhs == rhs
    assert over(shift_den(a, k), lhs, rhs) == fraction_shift_sides(a, k)
    assert list(identities._shift_sides(a, k - 2, k + 1))[-1] == (lhs, rhs)


def test_convolution_points_reach_a_equal_n_plus_1(monkeypatch):
    """Both sides are of degree n+1 in a(a+1), so the check needs n+2 points.
    One more a(a+1) J_n(a) on the right vanishes at a = 0..n-1, where
    C(a,n) = 0, and one more J_{n+1}(a) on the left at a = 0..n: only points
    that reach a = n, and a = n+1, catch them."""
    rhs_weights = identities._rhs_weights
    lhs_sum = identities._lhs_sum

    def last_weight_plus_one(n):
        weights = rhs_weights(n)
        weights[-1] += 1
        return weights

    def plus_next_entry(jac, n):
        return lhs_sum(jac, n) + jac[n + 1]

    for name, wrong in (("_rhs_weights", last_weight_plus_one), ("_lhs_sum", plus_next_entry)):
        with monkeypatch.context() as patch:
            patch.setattr(identities, name, wrong)
            for n in range(1, 13):
                assert check_convolution_identity(n) is False, (name, n)


SUITES = ("convolution", "recurrence", "products", "series-square", "shift")


def _top_entry(a, k):
    """P_k(a) = prod_{j<k} (j(j+1) - a(a+1)), the numerator of C(a,k)C(-1-a,k):
    of degree k in a(a+1), 0 at the integers a = 0..k-1 and not at a = k.
    Added to one side of an identity of degree >= k, it is an error only the
    point a = k sees."""
    return identities._jacobi_numerators(a, k, start=k)[0]


def _recurrence_plus_top(sides, at):
    def wrong(n, a):
        lhs, rhs, den = sides(n, a)
        return lhs + (n == at) * _top_entry(a, n + 1), rhs, den

    return wrong


def _series_square_plus_top(sides, at):
    def wrong(a, order):
        lhs, rhs, den = sides(a, order)
        lhs[order] += (order == at) * _top_entry(a, order)
        return lhs, rhs, den

    return wrong


def _shift_plus_top(sides, at):
    def wrong(a, k_lo, k_hi):
        for k, (lhs, rhs) in zip(range(k_lo, k_hi), sides(a, k_lo, k_hi)):
            yield lhs + (k == at) * _top_entry(a, k + 1), rhs

    return wrong


@pytest.mark.parametrize(
    "suite, name, wrong, check, top, cli_size",
    [
        ("recurrence", "_recurrence_sides", _recurrence_plus_top,
         lambda a, n: check_convolution_recurrence(n, a), lambda n: n + 1, 6),
        ("series-square", "_series_square_sides", _series_square_plus_top,
         check_series_square, lambda order: order, 6),
        ("shift", "_shift_sides", _shift_plus_top, check_shift_identity, lambda k: k + 1, 19),
    ],
    ids=["recurrence", "series_square", "shift"],
)
def test_suite_points_reach_their_degree_bound(
    monkeypatch, capsys, suite, name, wrong, check, top, cli_size
):
    """Each suite's top point (a = n+1, a = order, a = k+1) is the one point
    that sees an error of the full degree, so the CLI, which must reach the
    top point of its largest size (n = nmax, order, k = kmax - 1), fails that
    suite alone."""
    sides = getattr(identities, name)
    for size in range(2, 9):
        monkeypatch.setattr(identities, name, wrong(sides, size))
        assert all(check(a, size) for a in range(top(size))), size
        assert check(top(size), size) is False, size
    monkeypatch.setattr(identities, name, wrong(sides, cli_size))
    assert main(["identities", "--nmax", "6", "--kmax", "20", "--order", "6"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{s}: {'FAIL' if s == suite else 'pass'}" for s in SUITES]


def test_product_sides_match_fraction_oracle():
    sides = [over(den * power, lhs, rhs) for lhs, rhs, den, power in identities._product_sides(40)]
    assert sides == fraction_product_sides(40)


def test_product_identities_need_no_exact_binomials(monkeypatch):
    """The closed forms come from the exact ratios, not from math.comb."""

    def unused(n, k):
        raise AssertionError("math.comb called")

    monkeypatch.setattr(math, "comb", unused)
    assert check_product_identities(200)


_B63_RATIO = binomials.RATIOS["B63"]


def _wrong_b63_ratio(k):
    """RATIOS["B63"] with 6k + 7 for 6k + 5, so C(6,3) steps to 28, not 20."""
    nums, dens = _B63_RATIO(k)
    return (*nums[:2], 6 * k + 7, *nums[3:]), dens


def test_products_fail_on_a_wrong_ratio(monkeypatch, capsys):
    monkeypatch.setitem(binomials.RATIOS, "B63", _wrong_b63_ratio)
    assert check_product_identities(200) is False
    assert main(["identities", "--nmax", "4", "--kmax", "10", "--order", "4"]) == 1
    out = capsys.readouterr().out
    assert "products: FAIL" in out
    for name in ("convolution", "recurrence", "series-square", "shift"):
        assert f"{name}: pass" in out


def _c2_off_by_one(row_fn):
    """The numerator row with N_2 one too large.  At a = r/s, N_2(a) = r(r-s)
    and N_2(-1-a) = (r+s)(r+2s), so the Jacobi numerator P_2 moves by
    N_2(a) + N_2(-1-a) + 1 = 2r^2 + 2rs + 2s^2 + 1 > 0: C(a,2)C(-1-a,2)
    always changes, and so does C(-1/2,2) = N_2(-1/2) / 8."""

    def broken(r, s, n, start=0):
        row = row_fn(r, s, n, start)
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
    monkeypatch.setattr(identities, "_numerator_row", _c2_off_by_one(identities._numerator_row))
    assert check() is False


def test_cli_reports_failing_suites(monkeypatch, capsys):
    argv = ["identities", "--nmax", "6", "--kmax", "20", "--order", "6"]
    monkeypatch.setattr(identities, "_numerator_row", _c2_off_by_one(identities._numerator_row))
    assert main(argv) == 1
    out = capsys.readouterr().out
    # the shift suite reads C(a,2) at k = 1 and 2, from the rows at a = 0..3
    for name in ("convolution", "recurrence", "products", "series-square", "shift"):
        assert f"{name}: FAIL" in out
