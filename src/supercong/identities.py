"""Exact rational identities underlying the congruence machinery.

Everything here is checked in exact arithmetic over the rationals
(no primes, no truncation beyond an explicit series order), so these
functions double as self-tests of the algebra the modular evaluators
rely on: the product formulas rewriting C(a,k)C(-1-a,k) for the four
special values of a, the convolution identity equating two weighted
sums, its three-term recurrence, the squared-series identity, and the
index-shift formula for (k+1)^2 C(a,k+1)C(-1-a,k+1)C(2k+2,k+1).

Every check runs in plain ints, on one path for integer and rational a.
For a = r/s in lowest terms, ``_binomial_row`` steps C(a,k+1) =
C(a,k)(a-k)/(k+1) over one common denominator D: D = 1 at an integer a,
else D = s^n n!, which every denominator d_k = s^k k! of C(a,k) divides.
The Jacobi row J_k = C(a,k)C(-1-a,k) is the entrywise product of the rows
at a and -1-a, over D^2.  Each check multiplies its identity through by
its denominators (a power of D, and s^2 for a(a+1) = r(r+s)/s^2) and
compares two integer sides, which a ``_*_sides`` helper returns with the
denominator they are over.  Only the convolution sides come back as
Fractions, each made once from its integer sum.

The two rows are built independently and multiplied entry by entry, never
stepped by the ratio J_{k+1}/J_k: that ratio is what check_shift_identity
tests.  The closed forms the product formulas compare with, C(2k,k),
C(3k,k), C(4k,2k) and C(6k,3k), are built once per check by
``_family_rows``, each stepped by its exact ratio ``binomials.RATIOS``,
the ratios the engine's streams step by; the series-square check reads its
C(k, i-k) from one Pascal triangle.  The tests keep the Fraction rows and
checks, one Fraction per entry, and ``binomials.EXACT`` (``math.comb``) as
the oracles these integers are compared with.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from operator import add, mul

from .binomials import RATIOS, exact_binomial


def _binomial_row(a: Fraction | int, n: int, start: int = 0) -> tuple[list[int], int]:
    """([D C(a,start), ..., D C(a,n)], D), D = 1 for an integer a, else s^n n!."""
    r, s = a.as_integer_ratio()
    den = 1 if s == 1 else s**n * factorial(n)
    # C(a,start) = prod_{i<start} (r - is) / (s^start start!), whose
    # denominator divides D; at an integer a, D = 1 and start! divides the product
    c = prod(range(r, r - start * s, -s))
    if s == 1:
        c //= factorial(start)
    else:
        # D / (s^start start!) = s^(n-start) (start+1)...n
        c *= s ** (n - start) * prod(range(start + 1, n + 1))
    row = [c]
    for k in range(start, n):
        # exact: D C(a,k+1) = D C(a,k) (r - ks) / (s(k+1)) is an integer
        c = c * (r - k * s) // (s * (k + 1))
        row.append(c)
    return row, den


def _jacobi_row(a: Fraction | int, n: int, start: int = 0) -> tuple[list[int], int]:
    """The numerators of [C(a,k) C(-1-a,k) for k = start..n] over one common
    denominator, and that denominator, from two independently built rows."""
    row, den = _binomial_row(a, n, start)
    row2, den2 = _binomial_row(-1 - a, n, start)
    return list(map(mul, row, row2)), den * den2


def _lhs_sum(jac: list[int], n: int) -> int:
    """sum_{k=0}^n k J_k (n+1-k) J_{n+1-k}; ``jac`` must reach index n+1."""
    m = n + 1
    return sum(k * (m - k) * jac[k] * jac[m - k] for k in range(1, m))


def _rhs_weights(n: int) -> list[int]:
    """C(2k,k+1) (-1)^(n+1-k) C(k-1,n-k) for k = 0..n, where C(-1,n) = (-1)^n."""
    out = []
    for k in range(n + 1):
        lower = (-1) ** n if k == 0 else exact_binomial(k - 1, n - k)
        out.append(exact_binomial(2 * k, k + 1) * (-1) ** (n + 1 - k) * lower)
    return out


def convolution_lhs(a: Fraction | int, n: int) -> Fraction:
    """sum_{k=0}^n k C(a,k)C(-1-a,k) (n+1-k) C(a,n+1-k)C(-1-a,n+1-k)."""
    jac, den = _jacobi_row(a, n + 1)
    return Fraction(_lhs_sum(jac, n), den * den)


def convolution_rhs(a: Fraction | int, n: int) -> Fraction:
    """a(a+1) sum_{k=0}^n C(a,k)C(-1-a,k)C(2k,k+1)(-1)^(n+1-k)C(k-1,n-k)."""
    r, s = a.as_integer_ratio()
    jac, den = _jacobi_row(a, n)
    return Fraction(r * (r + s) * sum(map(mul, jac, _rhs_weights(n))), s * s * den)


def check_convolution_identity(n: int) -> bool:
    """Both sides are polynomials in a of degree <= 2n+2, so agreement
    at 2n+3 points proves the identity for that n."""
    weights = _rhs_weights(n)
    for a in range(2 * n + 3):
        jac, _ = _jacobi_row(a, n + 1)  # over 1 at an integer a
        if _lhs_sum(jac, n) != a * (a + 1) * sum(map(mul, jac, weights)):
            return False
    return True


def _recurrence_sides(n: int, a: Fraction | int) -> tuple[int, int, int]:
    """Both sides of the recurrence times their denominator D^4 s^2, and D^4 s^2."""
    if n < 2:
        raise ValueError("recurrence starts at n = 2")
    r, s = a.as_integer_ratio()
    jac, den = _jacobi_row(a, n + 1)
    # each S(m) is a sum of products of two Jacobi entries, over D^4
    s0, s1, s2 = (_lhs_sum(jac, m) for m in (n, n - 1, n - 2))
    n3 = n**3 * s * s
    lhs = (n3 - n * s * s) * s0
    rhs = 2 * (n3 - (2 * r * r + 2 * r * s + s * s) * n + r * (r + s)) * s1 - (
        n3 - (2 * r + s) ** 2 * n
    ) * s2
    return lhs, rhs, den * den * s * s


def check_convolution_recurrence(n: int, a: Fraction | int) -> bool:
    """(n^3-n) S(n) = 2(n^3-(2a^2+2a+1)n+a(a+1)) S(n-1) - (n^3-(2a+1)^2 n) S(n-2)."""
    lhs, rhs, _ = _recurrence_sides(n, a)
    return lhs == rhs


#: a -> (stream kinds, base) with C(a,k)C(-1-a,k) = prod(streams at k)/base^k
#: at the corollaries' four fixed a: checked by ``check_product_identities``,
#: and the tests' oracle for the engine's Jacobi sums at these a.
PRODUCT_FORMS: dict[Fraction, tuple[tuple[str, str], int]] = {
    Fraction(-1, 2): (("B22", "B22"), 16),
    Fraction(-1, 3): (("B22", "B31"), 27),
    Fraction(-1, 4): (("B22", "B42"), 64),
    Fraction(-1, 6): (("B31", "B63"), 432),
}


def _family_rows(kinds, k_max: int) -> dict[str, list[int]]:
    """kind -> [C(0), ..., C(k_max)] for each stream kind in ``kinds``, stepped
    C(k+1) = C(k) prod(nums) / prod(dens) by its exact ratio RATIOS[kind]."""
    rows = {}
    for kind in dict.fromkeys(kinds):
        ratio = RATIOS[kind]
        c = 1
        row = [c]
        for k in range(k_max):
            nums, dens = ratio(k)
            c = c * prod(nums) // prod(dens)
            row.append(c)
        rows[kind] = row
    return rows


def _product_sides(k_max: int):
    """For C(-1/2,k) = C(2k,k)/(-4)^k, then each form of PRODUCT_FORMS, and
    k = 0..k_max: both sides times den * base^k, with den (the row's D or
    D^2) and base^k, whose product the check need not form."""
    forms = [(_binomial_row(Fraction(-1, 2), k_max), ("B22",), -4)]
    forms += [(_jacobi_row(a, k_max), kinds, base) for a, (kinds, base) in PRODUCT_FORMS.items()]
    closed = _family_rows([kind for _, kinds, _ in forms for kind in kinds], k_max)
    for (row, den), kinds, base in forms:
        power = 1
        for x, *cs in zip(row, *(closed[kind] for kind in kinds)):
            yield x * power, prod(cs) * den, den, power
            power *= base


def check_product_identities(k_max: int) -> bool:
    """C(-1/2,k) = C(2k,k)/(-4)^k and the four product formulas of PRODUCT_FORMS."""
    return all(lhs == rhs for lhs, rhs, _, _ in _product_sides(k_max))


def _series_square(f: list[int], order: int) -> list[int]:
    """The coefficients of f(t)^2 through t^order, each cross term f_i f_j
    (i < j) formed once and doubled."""
    out = [0] * (order + 1)
    for i in range(min(len(f), order // 2 + 1)):
        fi = f[i]
        if not fi:
            continue
        out[2 * i] += fi * fi
        twice = 2 * fi
        for j in range(i + 1, min(len(f), order + 1 - i)):
            out[i + j] += twice * f[j]
    return out


def _pascal(n: int) -> list[list[int]]:
    """Rows 0..n-1 of Pascal's triangle: C(k, j) = _pascal(n)[k][j]."""
    rows = [[1]]
    for _ in range(1, n):
        prev = rows[-1]
        rows.append([1, *map(add, prev, prev[1:]), 1])
    return rows[:n]


def _series_square_sides(a: Fraction | int, order: int) -> tuple[list[int], list[int], int]:
    """The coefficient lists of both series times D^4 s^2, and D^4 s^2."""
    r, s = a.as_integer_ratio()
    jac, den = _jacobi_row(a, order)
    lhs_lin = [(-1) ** k * k * x for k, x in enumerate(jac)]
    lhs = _series_square(lhs_lin, order)  # over den^2

    coef = [exact_binomial(2 * k, k + 1) * x for k, x in enumerate(jac)]
    # the t^i coefficient of (-t(t+1))^k is (-1)^k C(k, i-k)
    pascal = _pascal(order)
    inner = [
        sum((-1) ** k * pascal[k][i - k] * coef[k] for k in range((i + 1) // 2, i + 1))
        for i in range(order)
    ]
    # divide by t+1: q_i = inner_i - q_{i-1}; then multiply by a(a+1) t,
    # which leaves rhs over den s^2
    rhs = [0]
    q = 0
    for x in inner:
        q = x - q
        rhs.append(r * (r + s) * q)
    return [x * s * s for x in lhs], [x * den for x in rhs], den * den * s * s


def check_series_square(a: Fraction | int, order: int) -> bool:
    """(sum_k C(a,k)C(-1-a,k) k (-t)^k)^2 equals
    (a(a+1)t/(t+1)) sum_k C(2k,k+1)C(a,k)C(-1-a,k)(-t(t+1))^k
    as formal power series in t, compared through t^order."""
    lhs, rhs, _ = _series_square_sides(a, order)
    return lhs == rhs


def _shift_sides(a: Fraction | int, k: int) -> tuple[int, int, int]:
    """Both sides of the shift identity times D^2 s^2 (k+1), and D^2 s^2 (k+1)."""
    r, s = a.as_integer_ratio()
    (jac_k, jac_next), den = _jacobi_row(a, k + 1, start=k)
    aa = r * (r + s)
    lhs = (k + 1) ** 3 * s * s * jac_next * exact_binomial(2 * k + 2, k + 1)
    rhs = ((4 * k * k + 2 * k) * (k + 1) * s * s - (4 * k + 2) * aa) * jac_k
    return lhs, rhs * exact_binomial(2 * k, k), den * s * s * (k + 1)


def check_shift_identity(a: Fraction | int, k: int) -> bool:
    """(k+1)^2 C(a,k+1)C(-1-a,k+1)C(2k+2,k+1) equals
    (4k^2 + 2k - 4a(a+1) + 2a(a+1)/(k+1)) C(a,k)C(-1-a,k)C(2k,k)."""
    lhs, rhs, _ = _shift_sides(a, k)
    return lhs == rhs
