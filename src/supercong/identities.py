"""Exact rational identities underlying the congruence machinery.

Everything here is checked in exact arithmetic over the rationals
(no primes, no truncation beyond an explicit series order), so these
functions double as self-tests of the algebra the modular evaluators
rely on: the product formulas rewriting C(a,k)C(-1-a,k) for the four
special values of a, the convolution identity equating two weighted
sums, its three-term recurrence, the squared-series identity, and the
index-shift formula for (k+1)^2 C(a,k+1)C(-1-a,k+1)C(2k+2,k+1).

Each check builds the rows [C(a,0), ..., C(a,n)] and [C(-1-a,0), ...,
C(-1-a,n)] once, by the falling-factorial step C(a,k+1) = C(a,k)(a-k)/(k+1),
and then evaluates every sum over them in O(n) operations:

* at an integer a the row is exact ints, so the convolution identity,
  which is checked at the integer points a = 0..2n+2, never leaves int
  arithmetic;
* at a = r/s the step carries the integer numerator prod(r - i*s) and the
  denominator s^k k!, and makes one Fraction per entry.

The two rows are built independently and multiplied entry by entry, never
stepped by the ratio J_{k+1}/J_k of J_k = C(a,k)C(-1-a,k): that ratio is
what check_shift_identity tests.  The term-by-term Fraction sums, one
rational_binomial per factor, are kept in the tests as the oracles these
rows are checked against.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .binomials import EXACT, exact_binomial


def _binomial_row(a: Fraction | int, n: int, start: int = 0) -> list:
    """[C(a,start), ..., C(a,n)]: ints for an integer a, else Fractions
    (an int 1 for C(a,0)).  Entries below ``start`` are stepped through
    but never made into Fractions."""
    a = Fraction(a)
    r, s = a.numerator, a.denominator
    if s == 1:
        row = [1]
        c = 1
        for k in range(n):
            # exact: C(a,k)(a-k) = (k+1) C(a,k+1) is a multiple of k+1
            c = c * (r - k) // (k + 1)
            row.append(c)
        return row[start:]
    row = [1] if start == 0 else []
    num = den = 1
    for k in range(n):
        num *= r - k * s
        den *= s * (k + 1)
        if k + 1 >= start:
            row.append(Fraction(num, den))
    return row


def _jacobi_row(a: Fraction | int, n: int, start: int = 0) -> list:
    """[C(a,k) C(-1-a,k) for k = start..n], from two independently built rows."""
    return list(map(mul, _binomial_row(a, n, start), _binomial_row(-1 - a, n, start)))


def _lhs_sum(jac: list, n: int) -> Fraction | int:
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
    return Fraction(_lhs_sum(_jacobi_row(a, n + 1), n))


def convolution_rhs(a: Fraction | int, n: int) -> Fraction:
    """a(a+1) sum_{k=0}^n C(a,k)C(-1-a,k)C(2k,k+1)(-1)^(n+1-k)C(k-1,n-k)."""
    a = Fraction(a)
    return a * (a + 1) * sum(map(mul, _jacobi_row(a, n), _rhs_weights(n)))


def check_convolution_identity(n: int) -> bool:
    """Both sides are polynomials in a of degree <= 2n+2, so agreement
    at 2n+3 points proves the identity for that n."""
    weights = _rhs_weights(n)
    for a in range(2 * n + 3):
        jac = _jacobi_row(a, n + 1)
        if _lhs_sum(jac, n) != a * (a + 1) * sum(map(mul, jac, weights)):
            return False
    return True


def check_convolution_recurrence(n: int, a: Fraction | int) -> bool:
    """(n^3-n) S(n) = 2(n^3-(2a^2+2a+1)n+a(a+1)) S(n-1) - (n^3-(2a+1)^2 n) S(n-2)."""
    if n < 2:
        raise ValueError("recurrence starts at n = 2")
    a = Fraction(a)
    jac = _jacobi_row(a, n + 1)
    s = [_lhs_sum(jac, m) for m in (n, n - 1, n - 2)]
    lhs = (n**3 - n) * s[0]
    rhs = 2 * (n**3 - (2 * a * a + 2 * a + 1) * n + a * (a + 1)) * s[1] - (
        n**3 - (2 * a + 1) ** 2 * n
    ) * s[2]
    return lhs == rhs


#: a -> (stream kinds, base) with C(a,k)C(-1-a,k) = prod(streams at k)/base^k.
PRODUCT_FORMS: dict[Fraction, tuple[tuple[str, str], int]] = {
    Fraction(-1, 2): (("B22", "B22"), 16),
    Fraction(-1, 3): (("B22", "B31"), 27),
    Fraction(-1, 4): (("B22", "B42"), 64),
    Fraction(-1, 6): (("B31", "B63"), 432),
}


def check_product_identities(k_max: int) -> bool:
    """C(-1/2,k) = C(2k,k)/(-4)^k and the four product formulas of PRODUCT_FORMS."""
    half = _binomial_row(Fraction(-1, 2), k_max)
    if any(half[k] != Fraction(exact_binomial(2 * k, k), (-4) ** k) for k in range(k_max + 1)):
        return False
    for a, (kinds, base) in PRODUCT_FORMS.items():
        jac = _jacobi_row(a, k_max)
        for k in range(k_max + 1):
            if jac[k] != Fraction(EXACT[kinds[0]](k) * EXACT[kinds[1]](k), base**k):
                return False
    return True


def _series_mul(f: list, g: list, order: int) -> list:
    out = [0] * (order + 1)
    for i, fi in enumerate(f):
        if fi == 0 or i > order:
            continue
        for j, gj in enumerate(g):
            if i + j > order:
                break
            out[i + j] += fi * gj
    return out


def check_series_square(a: Fraction | int, order: int) -> bool:
    """(sum_k C(a,k)C(-1-a,k) k (-t)^k)^2 equals
    (a(a+1)t/(t+1)) sum_k C(2k,k+1)C(a,k)C(-1-a,k)(-t(t+1))^k
    as formal power series in t, compared through t^order."""
    a = Fraction(a)
    jac = _jacobi_row(a, order)
    lhs_lin = [(-1) ** k * k * x for k, x in enumerate(jac)]
    lhs = _series_mul(lhs_lin, lhs_lin, order)

    coef = [exact_binomial(2 * k, k + 1) * x for k, x in enumerate(jac)]
    # the t^i coefficient of (-t(t+1))^k is (-1)^k C(k, i-k)
    inner = [
        sum((-1) ** k * exact_binomial(k, i - k) * coef[k] for k in range((i + 1) // 2, i + 1))
        for i in range(order)
    ]
    # divide by t+1: q_i = inner_i - q_{i-1}; then multiply by a(a+1) t
    rhs = [0]
    q = 0
    for x in inner:
        q = x - q
        rhs.append(a * (a + 1) * q)
    return lhs == rhs


def check_shift_identity(a: Fraction | int, k: int) -> bool:
    """(k+1)^2 C(a,k+1)C(-1-a,k+1)C(2k+2,k+1) equals
    (4k^2 + 2k - 4a(a+1) + 2a(a+1)/(k+1)) C(a,k)C(-1-a,k)C(2k,k)."""
    a = Fraction(a)
    jac_k, jac_next = _jacobi_row(a, k + 1, start=k)
    lhs = (k + 1) ** 2 * jac_next * exact_binomial(2 * k + 2, k + 1)
    rhs = (
        4 * k * k + 2 * k - 4 * a * (a + 1) + 2 * a * (a + 1) / Fraction(k + 1)
    ) * jac_k * exact_binomial(2 * k, k)
    return lhs == rhs
