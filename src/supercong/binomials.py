"""Binomial-coefficient building blocks with p-adic valuation tracking.

Four streaming families cover every product that occurs in the registered
sums: C(2k,k), C(3k,k), C(4k,2k), C(6k,3k) for k = 0..p-1.  Each family is
generated from its exact consecutive-term ratio; the ratios are derived from
factorial quotients and unit-tested against ``exact_binomial``.

One-shot ``binomial_mod`` handles the special binomials in right-hand sides
(valuation by carry counting, unit by p-free factorial products), and
``generalized_binomial`` extends C(a,k) to p-adic a.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .errors import IndexOutOfRange
from .padic import DEFAULT_GUARD, PadicApprox, padic_from_fraction, strip_p

#: Stream kind tags.
B22 = "B22"  # C(2k, k)
B31 = "B31"  # C(3k, k)
B42 = "B42"  # C(4k, 2k)
B63 = "B63"  # C(6k, 3k)

KINDS = (B22, B31, B42, B63)

#: kind -> (k -> (numerator factors, denominator factors)) of the exact
#: ratio C(next)/C(current).  Derived from factorial quotients:
#:   C(2k+2,k+1)/C(2k,k)   = 2(2k+1)/(k+1)
#:   C(3k+3,k+1)/C(3k,k)   = 3(3k+1)(3k+2) / (2(k+1)(2k+1))
#:   C(4k+4,2k+2)/C(4k,2k) = 2(4k+1)(4k+3) / ((k+1)(2k+1))
#:   C(6k+6,3k+3)/C(6k,3k) = 8(6k+1)(6k+5)(2k+1) / ((k+1)(3k+1)(3k+2))
RATIOS: dict[str, Callable[[int], tuple[tuple[int, ...], tuple[int, ...]]]] = {
    B22: lambda k: ((2, 2 * k + 1), (k + 1,)),
    B31: lambda k: ((3, 3 * k + 1, 3 * k + 2), (2, k + 1, 2 * k + 1)),
    B42: lambda k: ((2, 4 * k + 1, 4 * k + 3), (k + 1, 2 * k + 1)),
    B63: lambda k: ((8, 6 * k + 1, 6 * k + 5, 2 * k + 1), (k + 1, 3 * k + 1, 3 * k + 2)),
}

#: kind -> exact C(a*k, b*k) evaluator (the oracle the streams must match).
EXACT: dict[str, Callable[[int], int]] = {
    B22: lambda k: math.comb(2 * k, k),
    B31: lambda k: math.comb(3 * k, k),
    B42: lambda k: math.comb(4 * k, 2 * k),
    B63: lambda k: math.comb(6 * k, 3 * k),
}


def exact_binomial(n: int, k: int) -> int:
    """Exact C(n,k) for integer n >= 0; 0 when k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def rational_binomial(a: Fraction | int, k: int) -> Fraction:
    """C(a,k) = a(a-1)...(a-k+1)/k! for any rational a and k >= 0."""
    if k < 0:
        return Fraction(0)
    out = Fraction(1)
    for i in range(k):
        out *= Fraction(a) - i
    return out / math.factorial(k)


def batch_invert(xs: list[int], m: int) -> list[int]:
    """Inverses mod m of a list of units, with a single extended-Euclid call."""
    n = len(xs)
    prefix = [1] * (n + 1)
    for i, x in enumerate(xs):
        prefix[i + 1] = prefix[i] * x % m
    inv = pow(prefix[n], -1, m)
    out = [0] * n
    for i in range(n - 1, -1, -1):
        out[i] = inv * prefix[i] % m
        inv = inv * xs[i] % m
    return out


def stream_arrays(kind: str, p: int, workexp: int) -> tuple[list[int], list[int]]:
    """Valuations and unit parts of one binomial family for k = 0..p-1.

    Returns (vs, us) with term_k = us[k] * p^vs[k] and us[k] a unit known
    mod p^workexp.  This is the fast path the sum evaluators consume.
    """
    ratio = RATIOS[kind]
    P = p**workexp
    vs = [0] * p
    cum_num = [1] * p
    cum_den = [1] * p
    v = 0
    num_acc = 1
    den_acc = 1
    for k in range(p - 1):
        nums, dens = ratio(k)
        for f in nums:
            fv, fu = strip_p(f, p)
            v += fv
            num_acc = num_acc * fu % P
        for f in dens:
            fv, fu = strip_p(f, p)
            v -= fv
            den_acc = den_acc * fu % P
        vs[k + 1] = v
        cum_num[k + 1] = num_acc
        cum_den[k + 1] = den_acc
    # Invert the last cumulative denominator, then walk back through the
    # same ratio factors to recover every inverse with one pow total.
    us = [0] * p
    inv = pow(cum_den[p - 1], -1, P)
    for k in range(p - 1, -1, -1):
        us[k] = cum_num[k] * inv % P
        if k > 0:
            _, dens = ratio(k - 1)
            for f in dens:
                _, fu = strip_p(f, p)
                inv = inv * fu % P
    return vs, us


def stream(kind: str, p: int, g: int) -> Iterator[PadicApprox]:
    """Yield C(.k,.k-type) for k = 0..p-1 as PadicApprox with g unit digits."""
    if g < 1:
        raise ValueError("g must be >= 1")
    vs, us = stream_arrays(kind, p, g)
    m = p**g
    for k in range(p):
        yield PadicApprox(p, vs[k], us[k] % m, g)


def v_p_binomial(n: int, k: int, p: int) -> int:
    """v_p(C(n,k)) by Kummer: carries when adding k and n-k in base p."""

    def digit_sum(m: int) -> int:
        s = 0
        while m:
            s += m % p
            m //= p
        return s

    return (digit_sum(k) + digit_sum(n - k) - digit_sum(n)) // (p - 1)


def _factorial_unit(m: int, p: int, mod: int) -> int:
    """Unit part of m! (the p-free factor m!/p^{v_p(m!)}) mod `mod`."""
    u = 1
    while m > 1:
        blk = 1
        for i in range(2, m + 1):
            if i % p:
                blk = blk * i % mod
        u = u * blk % mod
        m //= p
    return u


#: Above this n, binomial_mod works with p-free factorial units instead of
#: exact big integers (C(n, n/2) at n ~ 10^5 is astronomically large).
_EXACT_CUTOFF = 10_000


def binomial_mod(n: int, k: int, p: int, t: int) -> PadicApprox:
    """C(n,k) as a PadicApprox with t + guard unit digits (0 <= k <= n)."""
    if not 0 <= k <= n:
        raise ValueError("binomial_mod requires 0 <= k <= n")
    g = t + DEFAULT_GUARD
    mod = p**g
    if n <= _EXACT_CUTOFF:
        c = math.comb(n, k)
        if c == 1:
            return PadicApprox.one(p, g)
        v, u = strip_p(c, p)
        return PadicApprox(p, v, u % mod, g)
    v = v_p_binomial(n, k, p)
    u = (
        _factorial_unit(n, p, mod)
        * pow(_factorial_unit(k, p, mod) * _factorial_unit(n - k, p, mod), -1, mod)
        % mod
    )
    return PadicApprox(p, v, u, g)


def generalized_binomial(
    a: int | Fraction | PadicApprox, k: int, p: int, g: int | None = None
) -> PadicApprox:
    """C(a,k) = a(a-1)...(a-k+1)/k! for p-adic a, 0 <= k <= p-1.

    k is capped below p so that k! stays a p-unit.  Exact int/Fraction
    arguments are evaluated exactly and then reduced.
    """
    if not 0 <= k <= p - 1:
        raise IndexOutOfRange(f"k={k} outside 0..{p - 1}")
    if isinstance(a, PadicApprox):
        if a.p != p:
            raise ValueError("prime mismatch")
        gg = a.g if g is None else g
        out = PadicApprox.one(p, gg)
        for i in range(k):
            out = out.mul(a.sub(padic_from_fraction(i, p, gg)))
        return out.div(padic_from_fraction(math.factorial(k), p, gg))
    gg = (2 + DEFAULT_GUARD) if g is None else g
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(a) - i
    return padic_from_fraction(num / math.factorial(k), p, gg)


def jacobi_stream_arrays(
    a: int, p: int, workexp: int, inv_sq: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Valuations/units of J_k = C(a,k) C(-1-a,k) for k = 0..p-1, a exact int.

    Ratio: J_{k+1}/J_k = -(a-k)(a+k+1)/(k+1)^2, with inv_sq[k] = (k+1)^-2
    mod p^workexp (the (k+1)^2 are p-free for k <= p-2).  When a hits an
    integer wall (a = k or a = -k-1) the stream is exactly zero from there
    on; those entries carry u = 0 and their valuations are meaningless.
    """
    P = p**workexp
    vs = [0] * p
    us = [0] * p
    us[0] = 1
    v = 0
    u = 1
    for k in range(p - 1):
        top1 = a - k
        top2 = a + k + 1
        if top1 == 0 or top2 == 0:
            break
        v1, u1 = strip_p(top1, p)
        v2, u2 = strip_p(top2, p)
        v += v1 + v2
        u = u * -u1 % P * u2 % P * inv_sq[k] % P
        vs[k + 1] = v
        us[k + 1] = u
    return vs, us
