"""Exact evaluation of truncated binomial sums modulo prime powers.

A sum is described by a :class:`SumSpec`: a product of central binomial
families, a rational base m (terms are divided by m^k), a term weight,
a truncation limit, and an optional global sign.  Each limit, sign and
weight tag is one table entry giving its value and its claim text, so
str(spec) is the sum as a claim prints it.  Jacobi sums take the stream
C(a,k)C(-1-a,k) [* C(2k,k)], at a sampled int a or a fixed rational a,
and a multiplier mult^k / base^k instead of the product and base: every
parametric sum, theorem and corollary alike, is one of them.

Evaluation has two stages, both cached on the :class:`PrimeContext`:

* the term array t_k = u_k * z^k * p^(v_k) mod P (P = p^workexp), built
  once per (stream, base) by ``ctx.terms``: u_k p^(v_k) is the stream term
  and z = p^zv * zu the per-step multiplier (1/m, or mult/base);
* the weight array w_k of ``ctx.weight``: k^e as plain ints, or the
  inverses of k+1, k+2, k+3, 2k-1 and their powers.  A linear weight
  c0 + c1*k is one array too, of the integers a0 + a1*k = clear*(c0 + c1*k),
  and its sum is scaled by 1/clear.

A sum is then the truncated dot product sum_{k <= bound} w_k t_k mod P, so
the 4 to 6 weights a statement compares at one (stream, base) share one
term array.  Every residue is exact: units are carried mod P and terms of
valuation >= workexp vanish mod P.  The tests compare it with the exact
Fraction sums of ``tests/oracles.py``.

Inverse weights have poles where p divides their base (k + 1 = p, 2k - 1
= p, ...).  The weight array holds 0 there, and each pole at or below the
bound adds its term exactly from the stream: valuation v_k + k*zv - d for
a weight p^-d * unit.  A negative valuation means the sum is not a p-adic
integer and raises :class:`NegativeValuation`.  A 1/(2k-1)^e weight has
its pole at 2k = p + 1, where the stream's valuation has a floor: over a
product, one for each C(2k,k) or C(6k,3k) factor (C(3k,k) and C(4k,2k)
give none); over the Jacobi stream at a = r/s, one for C(2k,k) when
central, plus one, plus one more when p | 2r + s.  At k = (p+1)/2,
C(a,k)C(-1-a,k) is +-(a - (p-1)/2)...(a + (p+1)/2)/(k!)^2: the p + 1
consecutive terms cover every residue, so p divides one of them, and two
exactly when p divides the end terms, that is when p | 2r + s; the k! and
the s of a = r/s are units.  A pole term under that floor less e raises
:class:`PoleFloorViolated`, a check that ``python -O`` keeps.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from operator import mul
from typing import Callable

from .binomials import TEXT
from .context import PrimeContext, Source, context_for
from .errors import BaseNotUnit, DenominatorNotUnit, NegativeValuation, PoleFloorViolated
from .padic import Residue

# Truncation limits: tag -> (the last k at p, its text).
HALF = "half"
FULL = "full"
FULL_MINUS_1 = "full_minus_1"
FULL_MINUS_2 = "full_minus_2"
_LIMITS: dict[str, tuple[Callable[[int], int], str]] = {
    HALF: (lambda p: (p - 1) // 2, "(p-1)/2"),
    FULL: (lambda p: p - 1, "p-1"),
    FULL_MINUS_1: (lambda p: p - 2, "p-2"),
    FULL_MINUS_2: (lambda p: p - 3, "p-3"),
}

# Global sign prefactors: tag -> (the sign at p, its text).
NONE = "none"
SIGN_HALF = "sign_half"
SIGN_QUARTER = "sign_quarter"  # p = 1 (mod 4) only
_PREFACTORS: dict[str, tuple[Callable[[int], int], str]] = {
    NONE: (lambda p: 1, ""),
    SIGN_HALF: (lambda p: -1 if (p - 1) // 2 % 2 else 1, "(-1)^((p-1)/2) * "),
    SIGN_QUARTER: (lambda p: -1 if (p - 1) // 4 % 2 else 1, "(-1)^((p-1)/4) * "),
}

# Weights: tag -> ((a0, a1, exp, inverted), its text), for w(k) = (a0 + a1*k)^exp
# or its inverse.
_WEIGHTS: dict[str, tuple[tuple[int, int, int, bool], str]] = {
    "one": ((1, 0, 1, False), ""),
    "k": ((0, 1, 1, False), "k * "),
    "k2": ((0, 1, 2, False), "k^2 * "),
    "k3": ((0, 1, 3, False), "k^3 * "),
    "inv_k1": ((1, 1, 1, True), "1/(k+1) * "),
    "inv_k1_sq": ((1, 1, 2, True), "1/(k+1)^2 * "),
    "inv_k1_cu": ((1, 1, 3, True), "1/(k+1)^3 * "),
    "inv_k2": ((2, 1, 1, True), "1/(k+2) * "),
    "inv_k3": ((3, 1, 1, True), "1/(k+3) * "),
    "inv_2k1": ((-1, 2, 1, True), "1/(2k-1) * "),
    "inv_2k1_sq": ((-1, 2, 2, True), "1/(2k-1)^2 * "),
}

#: The 1/(2k-1)^e weights, whose pole at 2k = p + 1 is checked against the
#: stream's valuation floor there (see the module docstring).
POLE_TAGS = ("inv_2k1", "inv_2k1_sq")


@dataclass(frozen=True)
class Weight:
    """Term weight w(k).

    Tags: "one", "k", "k2", "k3" multiply by k^e; "inv_k1", "inv_k1_sq",
    "inv_k1_cu" divide by (k+1)^e; "inv_k2", "inv_k3" divide by k+2, k+3;
    "inv_2k1", "inv_2k1_sq" divide by (2k-1)^e; "linear" multiplies by
    c0 + c1*k.  Weights that evaluate to 0 zero out the term; inverse
    weights at p-divisible arguments lower the term valuation instead.
    """

    tag: str
    c0: Fraction = Fraction(0)
    c1: Fraction = Fraction(0)

    @cached_property
    def shape(self) -> tuple[int, int, int, bool, int]:
        """(a0, a1, exp, inverted, clear) with w(k) = (a0 + a1*k)^(+-exp) / clear:
        clear is 1 except for a linear weight, whose c0 + c1*k it clears of
        denominators."""
        if self.tag == "linear":
            clear = math.lcm(self.c0.denominator, self.c1.denominator)
            return int(self.c0 * clear), int(self.c1 * clear), 1, False, clear
        return (*_WEIGHTS[self.tag][0], 1)

    @property
    def text(self) -> str:
        """The weight as a claim prints it, before the stream."""
        if self.tag == "linear":
            return f"({self.c0} + {self.c1}k) * "
        return _WEIGHTS[self.tag][1]


W_ONE = Weight("one")
W_K = Weight("k")
W_K2 = Weight("k2")
W_K3 = Weight("k3")
W_INV_K1 = Weight("inv_k1")
W_INV_K1_SQ = Weight("inv_k1_sq")
W_INV_K1_CU = Weight("inv_k1_cu")
W_INV_K2 = Weight("inv_k2")
W_INV_K3 = Weight("inv_k3")
W_INV_2K1 = Weight("inv_2k1")
W_INV_2K1_SQ = Weight("inv_2k1_sq")


def linear_weight(c0: Fraction | int, c1: Fraction | int) -> Weight:
    return Weight("linear", Fraction(c0), Fraction(c1))


@dataclass(frozen=True)
class SumSpec:
    """A truncated sum sum_k w(k) * prod(binomials at k) / m^k."""

    product: tuple[str, ...]
    m: Fraction
    weight: Weight = W_ONE
    limit: str = HALF
    prefactor: str = NONE

    def __str__(self) -> str:
        """The sum as a claim prints it."""
        counts = sorted(Counter(self.product).items())
        prod = " ".join(TEXT[kind] + (f"^{n}" if n > 1 else "") for kind, n in counts)
        mtxt = "" if self.m == 1 else f" / ({self.m})^k"
        return (
            f"{_PREFACTORS[self.prefactor][1]}sum_{{k=0..{_LIMITS[self.limit][1]}}} "
            f"{self.weight.text}{prod}{mtxt}"
        )


def limit_bound(limit: str, p: int) -> int:
    if limit not in _LIMITS:
        raise ValueError(f"unknown limit {limit!r}")
    return _LIMITS[limit][0](p)


def prefactor_sign(prefactor: str, p: int) -> int:
    if prefactor not in _PREFACTORS:
        raise ValueError(f"unknown prefactor {prefactor!r}")
    return _PREFACTORS[prefactor][0](p)


def _unit_inverse(base: Fraction, p: int, P: int) -> int:
    """1/base mod P for a p-adic unit base."""
    num, den = base.numerator, base.denominator
    if num % p == 0 or den % p == 0:
        raise BaseNotUnit(f"base {base} is not a p-adic unit at p={p}")
    return den % P * pow(num, -1, P) % P


def _weighted_sum(
    ctx: PrimeContext,
    source: Source,
    zv: int,
    zu: int,
    weight: Weight,
    bound: int,
    gain: int = 0,
) -> int:
    """sum_{k=0..bound} w(k) * term_k * z^k, exact mod P, with z = p^zv * zu.

    source names the stream (see ``PrimeContext.terms``); gain is the
    stream's valuation floor at 2k = p + 1, where a 1/(2k-1)^e weight has
    its pole (see the module docstring).
    """
    p, P = ctx.p, ctx.P
    a0, a1, exp, inverted, clear = weight.shape
    if clear % p == 0:
        raise DenominatorNotUnit(
            f"weight {weight.c0} + {weight.c1}*k has denominator {clear}, divisible by p={p}"
        )
    ws, poles = ctx.weight(a0, a1, exp, inverted)
    floor = gain - exp if weight.tag in POLE_TAGS else None
    n = bound + 1
    acc = sum(map(mul, islice(ws, n), islice(ctx.terms(source, zv, zu), n)))
    for k, d, unit in poles:
        if k > bound:
            continue
        vs, us = ctx.arrays(source)
        if not us[k]:
            continue
        v = vs[k] - d
        if floor is not None and v < floor:
            raise PoleFloorViolated(f"term k={k} has valuation {v} below the pole floor {floor}")
        v += k * zv
        if v < 0:
            raise NegativeValuation(f"term k={k} has valuation {v} < 0; sum is not p-integral")
        if v < ctx.workexp:
            acc += us[k] * pow(zu, k, P) % P * unit % P * ctx.pow_p[v]
    if clear != 1:
        acc *= pow(clear, -1, P)
    return acc % P


def evaluate_sum(
    spec: SumSpec,
    p: int,
    t: int,
    ctx: PrimeContext | None = None,
) -> Residue:
    """Evaluate the sum exactly modulo p^t."""
    ctx = context_for(ctx, p, t)
    zu = _unit_inverse(Fraction(spec.m), p, ctx.P)
    bound = limit_bound(spec.limit, p)
    gain = sum(kind in ("B22", "B63") for kind in spec.product)
    acc = _weighted_sum(ctx, spec.product, 0, zu, spec.weight, bound, gain)
    if prefactor_sign(spec.prefactor, p) < 0:
        acc = -acc % ctx.P
    return Residue(p, t, acc)


def evaluate_jacobi_sum(
    a: Fraction | int,
    p: int,
    t: int,
    *,
    weight: Weight = W_ONE,
    limit: str = FULL,
    mult: int = 1,
    base: Fraction | int | None = None,
    central: bool = False,
    ctx: PrimeContext | None = None,
) -> Residue:
    """Sum of w(k) * C(a,k)C(-1-a,k) [* C(2k,k)] * mult^k [/ base^k] mod p^t.

    a is an int or a Fraction whose denominator p does not divide
    (DenominatorNotUnit otherwise).  mult is an exact integer; it may be
    divisible by p (the tail of the series then vanishes on its own) or
    zero (only k = 0 remains).  base, when given, must be a p-adic unit.
    """
    ctx = context_for(ctx, p, t)
    P, T = ctx.P, ctx.workexp
    zv, zu = 0, mult
    if mult == 0:
        zv, zu = T + 4, 1  # kills every k >= 1
    else:
        while zu % p == 0:
            zu //= p
            zv += 1
        zu %= P
    if base is not None:
        zu = zu * _unit_inverse(Fraction(base), p, P) % P
    r, s = a.as_integer_ratio()
    gain = central + 1 + ((2 * r + s) % p == 0)
    bound = limit_bound(limit, p)
    return Residue(p, t, _weighted_sum(ctx, (a, central), zv, zu, weight, bound, gain))
