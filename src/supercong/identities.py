"""Exact rational identities underlying the congruence machinery.

Everything here is checked in exact arithmetic over the rationals
(no primes, no truncation beyond an explicit series order), so these
functions double as self-tests of the algebra the modular evaluators
rely on: the product formulas rewriting C(a,k)C(-1-a,k) for the four
special values of a, the convolution identity equating two weighted
sums, its three-term recurrence, the squared-series identity, and the
index-shift formula for (k+1)^2 C(a,k+1)C(-1-a,k+1)C(2k+2,k+1).

Every check runs in plain ints, on one path for integer and rational a.
At a = r/s in lowest terms, C(a,k) = N_k / (s^k k!) with the falling
product N_k = prod_{i<k} (r - is), which ``_numerator_row`` steps by one
multiplication per k.  It is the one row primitive every check reads, and
no check divides an entry, so a wrong N_k changes what each check compares.
The Jacobi entry J_k = C(a,k)C(-1-a,k) is P_k / (s^k k!)^2 with
P_k = N_k(a) N_k(-1-a).  The product formulas and the shift identity
compare one or two neighbouring k at a time, so each entry stays over its
own (s^k k!)^2 (s^k k! for C(-1/2,k)), and the numbers are only as large
as k needs.  The convolution identity, its recurrence and the squared
series mix entries of every k up to n, so ``_jacobi_row`` brings them over
one D^2, D = s^n n!; the convolution check, whose points are all integers,
builds that scale once per n.  Each check multiplies its identity through
by its denominators (and s^2 for a(a+1) = r(r+s)/s^2) and compares two
integer sides, which a ``_*_sides`` helper returns with the factor they
were multiplied by (the shift helper, whose check need not form it, names
it in its docstring).

J_k = prod_{j<k} (j(j+1) - a(a+1)) / (k!)^2 is a polynomial of degree k in
a(a+1), so each identity, multiplied through by its a-free denominators,
equates two polynomials in a(a+1) of degree <= d, and agreement at the d+1
distinct a(a+1), a = 0..d, proves it for every a.  ``supercong identities``
checks each at those points, for d = n+1 at the convolution identity and
its recurrence at n (S(m) has degree m+1, and the recurrence's coefficients
are linear in a(a+1)), d = order at the series square through t^order (its
t^i coefficient has degree <= i) and d = k+1 at the shift identity at k,
which one row per integer a walks through every k it reaches.

The two rows are built independently and multiplied entry by entry, never
stepped by the ratio J_{k+1}/J_k: that ratio is what check_shift_identity
tests.  The closed forms the product formulas compare with, C(2k,k),
C(3k,k), C(4k,2k) and C(6k,3k), are built once per check by
``_family_rows``, each stepped by its exact ratio ``binomials.RATIOS``,
the ratios the engine's streams step by; the series-square check reads its
C(k, i-k) from one Pascal triangle.  The tests keep the Fraction rows and
checks, one Fraction per entry, and ``tests/oracles.py`` keeps the
``math.comb`` closed forms and the Fraction convolution sides: the
oracles these integers are compared with.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import add, mul

from .binomials import PRODUCT_FORMS, RATIOS, exact_binomial


def _numerator_row(r: int, s: int, n: int, start: int = 0) -> list[int]:
    """[N_start, ..., N_n] with N_k = prod_{i<k} (r - is): C(r/s, k) = N_k / (s^k k!)."""
    c = prod(range(r, r - start * s, -s))
    row = [c]
    for k in range(start, n):
        c *= r - k * s
        row.append(c)
    return row


def _jacobi_numerators(a: Fraction | int, n: int, start: int = 0) -> list[int]:
    """[P_start, ..., P_n] with P_k = N_k(a) N_k(-1-a), so that
    C(a,k)C(-1-a,k) = P_k / (s^k k!)^2 at a = r/s, from two independently
    built rows (-1-a = (-r-s)/s is in lowest terms too)."""
    r, s = a.as_integer_ratio()
    return list(map(mul, _numerator_row(r, s, n, start), _numerator_row(-r - s, s, n, start)))


def _common_scale(s: int, n: int) -> list[int]:
    """[(D / (s^k k!))^2 for k = 0..n] with D = s^n n!: the factors that bring
    each P_k, over (s^k k!)^2, over the one denominator D^2 (the first factor)."""
    out = [1]
    f = 1
    for k in range(n, 0, -1):
        f *= s * k
        out.append(f * f)
    out.reverse()
    return out


def _jacobi_row(a: Fraction | int, n: int) -> tuple[list[int], int]:
    """The numerators of [C(a,k) C(-1-a,k) for k = 0..n] over one common
    denominator D^2, D = s^n n!, and D^2."""
    scale = _common_scale(a.as_integer_ratio()[1], n)
    return list(map(mul, _jacobi_numerators(a, n), scale)), scale[0]


def _lhs_sum(jac: list[int], n: int) -> int:
    """sum_{k=0}^n k J_k (n+1-k) J_{n+1-k}; ``jac`` must reach index n+1.
    The summand is the same at k and m-k (m = n+1), so each k < m/2 counts
    twice, and the middle term k = m/2, when m is even, once."""
    m = n + 1
    half, odd = divmod(m, 2)
    total = 2 * sum(k * (m - k) * jac[k] * jac[m - k] for k in range(1, half + odd))
    return total if odd else total + half * half * jac[half] ** 2


def _rhs_weights(n: int) -> list[int]:
    """C(2k,k+1) (-1)^(n+1-k) C(k-1,n-k) for k = 0..n, where C(-1,n) = (-1)^n."""
    out = []
    for k in range(n + 1):
        lower = (-1) ** n if k == 0 else exact_binomial(k - 1, n - k)
        out.append(exact_binomial(2 * k, k + 1) * (-1) ** (n + 1 - k) * lower)
    return out


def check_convolution_identity(n: int) -> bool:
    """The convolution identity at n, proved at its n+2 points a = 0..n+1."""
    m = n + 1
    # at an integer a, J_k = P_k / (k!)^2: one scale brings every point over (m!)^2
    scale = _common_scale(1, m)
    weights = _rhs_weights(n)
    for a in range(n + 2):
        jac = list(map(mul, _jacobi_numerators(a, m), scale))
        if _lhs_sum(jac, n) != scale[0] * a * (a + 1) * sum(map(mul, jac, weights)):
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
    k = 0..k_max: both sides times den * base^k, with den the entry's own
    denominator (2^k k! for C(-1/2,k), (s^k k!)^2 for a Jacobi entry) and
    base^k, whose product the check need not form."""
    forms = [(_numerator_row(-1, 2, k_max), 2, 1, ("B22",), -4)]
    forms += [
        (_jacobi_numerators(a, k_max), a.denominator, 2, kinds, base)
        for a, (kinds, base) in PRODUCT_FORMS.items()
    ]
    closed = _family_rows([kind for *_, kinds, _ in forms for kind in kinds], k_max)
    for row, s, e, kinds, base in forms:
        den = power = 1
        for k, (x, *cs) in enumerate(zip(row, *(closed[kind] for kind in kinds)), 1):
            yield x * power, prod(cs) * den, den, power
            den *= (s * k) ** e
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


def _shift_sides(a: Fraction | int, k_lo: int, k_hi: int):
    """For k = k_lo..k_hi-1: both sides of the shift identity times
    s^(2k+2) k! (k+1)!, a factor the check need not form.  One row reaches
    k_lo with one product per side and then steps, and so does C(2k,k)."""
    r, s = a.as_integer_ratio()
    jac = _jacobi_numerators(a, k_hi, start=k_lo)  # P_k over (s^k k!)^2
    aa, ss = r * (r + s), s * s
    central = exact_binomial(2 * k_lo, k_lo)
    for k, jac_k, jac_next in zip(range(k_lo, k_hi), jac, jac[1:]):
        nxt = central * (4 * k + 2) // (k + 1)
        lhs = (k + 1) * jac_next * nxt
        rhs = ((4 * k * k + 2 * k) * (k + 1) * ss - (4 * k + 2) * aa) * jac_k * central
        yield lhs, rhs
        central = nxt


def check_shift_identity(a: Fraction | int, k: int, k_hi: int | None = None) -> bool:
    """(k+1)^2 C(a,k+1)C(-1-a,k+1)C(2k+2,k+1) equals
    (4k^2 + 2k - 4a(a+1) + 2a(a+1)/(k+1)) C(a,k)C(-1-a,k)C(2k,k), at k or,
    given k_hi, at every k..k_hi-1 along one row."""
    return all(lhs == rhs for lhs, rhs in _shift_sides(a, k, k + 1 if k_hi is None else k_hi))
