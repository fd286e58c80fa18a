"""Exact reference implementations the tests compare the engine with.

Each is a slow path the engine replaced and no engine path runs: the
closed-form binomials by ``math.comb``, C(a,k) over the rationals, Jacobi
sums as Fraction sums, the exact Euler and U numbers by their integer
recurrences, and the two convolution sides as Fractions.  They live here,
not in the package, so the package holds only what its commands run.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Callable

from supercong.binomials import B22, B31, B42, B63
from supercong.identities import _jacobi_row, _lhs_sum, _rhs_weights
from supercong.sums import FULL, W_ONE, Weight, limit_bound

#: kind -> exact C(a*k, b*k) evaluator (the oracle the streams must match).
EXACT: dict[str, Callable[[int], int]] = {
    B22: lambda k: math.comb(2 * k, k),
    B31: lambda k: math.comb(3 * k, k),
    B42: lambda k: math.comb(4 * k, 2 * k),
    B63: lambda k: math.comb(6 * k, 3 * k),
}


def rational_binomial(a: Fraction | int, k: int) -> Fraction:
    """C(a,k) = a(a-1)...(a-k+1)/k! for any rational a and k >= 0."""
    if k < 0:
        return Fraction(0)
    out = Fraction(1)
    for i in range(k):
        out *= Fraction(a) - i
    return out / math.factorial(k)


def weight_value(weight: Weight, k: int) -> Fraction:
    a0, a1, exp, inverted, clear = weight.shape
    b = Fraction(a0 + a1 * k)
    if b == 0:
        return b
    return (b**-exp if inverted else b**exp) / clear


def evaluate_jacobi_sum_exact(
    a: Fraction | int,
    p: int,
    *,
    weight: Weight = W_ONE,
    limit: str = FULL,
    mult: int = 1,
    base: Fraction | int | None = None,
    central: bool = False,
) -> Fraction:
    total = Fraction(0)
    for k in range(limit_bound(limit, p) + 1):
        term = weight_value(weight, k)
        if term == 0:
            continue
        term *= rational_binomial(a, k) * rational_binomial(-1 - a, k)
        if central:
            term *= EXACT["B22"](k)
        term *= Fraction(mult) ** k
        if base is not None:
            term /= Fraction(base) ** k
        total += term
    return total


def euler_numbers_exact(n_max: int) -> list[int]:
    """Exact integer E_0..E_n_max by E_2n = -sum C(2n,2k) E_{2n-2k} (test oracle)."""
    out = [0] * (n_max + 1)
    out[0] = 1
    for n2 in range(2, n_max + 1, 2):
        out[n2] = -sum(math.comb(n2, k2) * out[n2 - k2] for k2 in range(2, n2 + 1, 2))
    return out


def u_numbers_exact(n_max: int) -> list[int]:
    """Exact integer U_0..U_n_max by U_2n = -2 sum C(2n,2k) U_{2n-2k} (test oracle)."""
    out = [0] * (n_max + 1)
    out[0] = 1
    for n2 in range(2, n_max + 1, 2):
        out[n2] = -2 * sum(math.comb(n2, k2) * out[n2 - k2] for k2 in range(2, n2 + 1, 2))
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
