"""Binomial-coefficient building blocks with p-adic valuation tracking.

Four streaming families cover every product in the fixed sums: C(2k,k),
C(3k,k), C(4k,2k), C(6k,3k) for k = 0..p-1; the Jacobi stream
C(a,k)C(-1-a,k) at a p-integral a covers every parametric sum.  Each is
generated from its exact consecutive-term ratio; the ratios are derived
from factorial quotients and unit-tested against the exact binomials of
``tests/oracles.py``.

One-shot ``binomial_mod`` handles the special binomials in right-hand sides:
every caller passes n < p, so it reduces the exact ``math.comb`` mod p^t.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from .errors import DenominatorNotUnit
from .padic import strip_p

#: Stream kind tags.
B22 = "B22"  # C(2k, k)
B31 = "B31"  # C(3k, k)
B42 = "B42"  # C(4k, 2k)
B63 = "B63"  # C(6k, 3k)

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

#: kind -> its text in a claim.
TEXT = {B22: "C(2k,k)", B31: "C(3k,k)", B42: "C(4k,2k)", B63: "C(6k,3k)"}


def exact_binomial(n: int, k: int) -> int:
    """Exact C(n,k) for integer n >= 0; 0 when k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


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
        # strip_p only where p divides the factor: at most once per
        # linear factor in p consecutive k
        for f in nums:
            if f % p == 0:
                fv, f = strip_p(f, p)
                v += fv
            num_acc = num_acc * f % P
        for f in dens:
            if f % p == 0:
                fv, f = strip_p(f, p)
                v -= fv
            den_acc = den_acc * f % P
        vs[k + 1] = v
        cum_num[k + 1] = num_acc
        cum_den[k + 1] = den_acc
    us = [n * d % P for n, d in zip(cum_num, batch_invert(cum_den, P))]
    return vs, us


def binomial_mod(n: int, k: int, p: int, t: int) -> int:
    """C(n,k) mod p^t (0 <= k <= n)."""
    if not 0 <= k <= n:
        raise ValueError("binomial_mod requires 0 <= k <= n")
    return math.comb(n, k) % p**t


def jacobi_stream_arrays(
    a: Fraction | int, p: int, workexp: int, inv_sq: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Valuations/units of J_k = C(a,k) C(-1-a,k) for k = 0..p-1.

    a = r/s is an int or a Fraction whose denominator p does not divide
    (DenominatorNotUnit otherwise).  J_{k+1}/J_k = (k(k+1) - a(a+1))/(k+1)^2,
    so each step multiplies in one integer factor k(k+1)s^2 - r(r+s),
    stripped of p only when p divides it, and the unit s^-2 inv_sq[k], with
    inv_sq[k] = (k+1)^-2 mod p^workexp (p-free for k <= p-2).  A zero factor
    is an integer wall (a = k or a = -k-1): the stream is exactly zero from
    there on; those entries carry u = 0 and their valuations are meaningless.
    """
    r, s = a.as_integer_ratio()
    if s % p == 0:
        raise DenominatorNotUnit(f"a = {a} has denominator divisible by p={p}")
    P = p**workexp
    if s != 1:
        scale = pow(s * s, -1, P)
        inv_sq = [i * scale % P for i in inv_sq]
    ss, rr = s * s, r * (r + s)
    vs = [0] * p
    us = [0] * p
    us[0] = 1
    v = 0
    u = 1
    for k in range(p - 1):
        f = k * (k + 1) * ss - rr
        if f == 0:
            break
        if f % p == 0:
            fv, f = strip_p(f, p)
            v += fv
        u = u * f % P * inv_sq[k] % P
        vs[k + 1] = v
        us[k + 1] = u
    return vs, us
