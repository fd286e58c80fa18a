"""Exact evaluation of truncated binomial sums modulo prime powers.

A sum is described by a :class:`SumSpec`: a product of central binomial
families, a rational base m (terms are divided by m^k), a term weight,
a truncation limit, and an optional global sign.  Jacobi sums take the
stream C(a,k)C(-1-a,k) [* C(2k,k)] and a multiplier mult^k / base^k
instead of the product and base.

Evaluation has two stages, both cached on the :class:`PrimeContext`:

* the term array t_k = u_k * z^k * p^(v_k) mod P (P = p^workexp), built
  once per (stream, base) by ``ctx.terms``: u_k p^(v_k) is the stream term
  and z = p^zv * zu the per-step multiplier (1/m, or mult/base);
* the weight array w_k of ``ctx.weight``: k^e as plain ints, or the
  inverses of k+1, k+2, k+3, 2k-1 and their powers.  A linear weight
  c0 + c1*k is taken as c0 times the sum weighted 1 plus c1 times the sum
  weighted k.

A sum is then the truncated dot product sum_{k <= bound} w_k t_k mod P, so
the 4 to 6 weights a statement compares at one (stream, base) share one
term array.  Every residue is exact: units are carried mod P and terms of
valuation >= workexp vanish mod P.

Inverse weights have poles where p divides their base (k + 1 = p, 2k - 1
= p, ...).  The weight array holds 0 there, and each pole at or below the
bound adds its term exactly from the stream: valuation v_k + k*zv - d for
a weight p^-d * unit.  A negative valuation means the sum is not a p-adic
integer and raises :class:`NegativeValuation`.  For a 1/(2k-1)^e sum over
a product, the stream valuation at 2k = p + 1 is at least the number of
C(2k,k) and C(6k,3k) factors; a pole term under ``SumSpec.pole_floor``,
that number less e, raises :class:`PoleFloorViolated`, a check that
``python -O`` keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import Iterable

from .binomials import EXACT, rational_binomial
from .context import PrimeContext, Source
from .errors import BaseNotUnit, DenominatorNotUnit, NegativeValuation, PoleFloorViolated
from .padic import DEFAULT_GUARD, Residue

# Truncation limits, as functions of p.
HALF = "half"  # k = 0 .. (p-1)/2
FULL = "full"  # k = 0 .. p-1
FULL_MINUS_1 = "full_minus_1"  # k = 0 .. p-2
FULL_MINUS_2 = "full_minus_2"  # k = 0 .. p-3

# Global sign prefactors.
NONE = "none"
SIGN_HALF = "sign_half"  # (-1)^((p-1)/2)
SIGN_QUARTER = "sign_quarter"  # (-1)^((p-1)/4), p = 1 (mod 4) only


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

# (a0, a1, exp, inverted) per tag: w(k) = (a0 + a1*k)^exp, or its inverse;
# "linear" is special.
_WEIGHT_SHAPE = {
    "one": (1, 0, 1, False),
    "k": (0, 1, 1, False),
    "k2": (0, 1, 2, False),
    "k3": (0, 1, 3, False),
    "inv_k1": (1, 1, 1, True),
    "inv_k1_sq": (1, 1, 2, True),
    "inv_k1_cu": (1, 1, 3, True),
    "inv_k2": (2, 1, 1, True),
    "inv_k3": (3, 1, 1, True),
    "inv_2k1": (-1, 2, 1, True),
    "inv_2k1_sq": (-1, 2, 2, True),
}


def linear_weight(c0: Fraction | int, c1: Fraction | int) -> Weight:
    return Weight("linear", Fraction(c0), Fraction(c1))


@dataclass(frozen=True)
class SumSpec:
    """A truncated sum sum_k w(k) * prod(binomials at k) / m^k.

    pole_floor is derived: for a 1/(2k-1)^e weight, each C(2k,k) or
    C(6k,3k) factor contributes one power of p at 2k = p + 1 while C(3k,k)
    and C(4k,2k) contribute none, so the pole term's valuation is at least
    that count less e.  It is None for the other weights.
    """

    product: tuple[str, ...]
    m: Fraction
    weight: Weight = W_ONE
    limit: str = HALF
    prefactor: str = NONE
    pole_floor: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        floor = None
        if self.weight.tag in ("inv_2k1", "inv_2k1_sq"):
            gain = sum(1 for kind in self.product if kind in ("B22", "B63"))
            floor = gain - _WEIGHT_SHAPE[self.weight.tag][2]
        object.__setattr__(self, "pole_floor", floor)


def limit_bound(limit: str, p: int) -> int:
    if limit == HALF:
        return (p - 1) // 2
    if limit == FULL:
        return p - 1
    if limit == FULL_MINUS_1:
        return p - 2
    if limit == FULL_MINUS_2:
        return p - 3
    raise ValueError(f"unknown limit {limit!r}")


def prefactor_sign(prefactor: str, p: int) -> int:
    if prefactor == NONE:
        return 1
    if prefactor == SIGN_HALF:
        return -1 if (p - 1) // 2 % 2 else 1
    if prefactor == SIGN_QUARTER:
        return -1 if (p - 1) // 4 % 2 else 1
    raise ValueError(f"unknown prefactor {prefactor!r}")


def _linear_ints(weight: Weight) -> tuple[int, int, int]:
    """(a0, a1, clear) with c0 + c1*k = (a0 + a1*k) / clear in integers."""
    clear = math.lcm(weight.c0.denominator, weight.c1.denominator)
    return int(weight.c0 * clear), int(weight.c1 * clear), clear


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
    floor: int | None = None,
) -> int:
    """sum_{k=0..bound} w(k) * term_k * z^k, exact mod P, with z = p^zv * zu.

    source names the stream (see ``PrimeContext.terms``); floor, when
    given, is the least stream valuation less the weight's pole order
    that a pole term may have.
    """
    p, P = ctx.p, ctx.P
    if weight.tag == "linear":
        # (c0 + c1*k) = (a0 + a1*k) / clear, from the sums weighted 1 and k
        a0, a1, clear = _linear_ints(weight)
        if clear % p == 0:
            raise DenominatorNotUnit(
                f"weight {weight.c0} + {weight.c1}*k has denominator {clear}, divisible by p={p}"
            )
        s0 = _weighted_sum(ctx, source, zv, zu, W_ONE, bound)
        s1 = _weighted_sum(ctx, source, zv, zu, W_K, bound)
        return (a0 * s0 + a1 * s1) * pow(clear, -1, P) % P
    ws, poles = ctx.weight(*_WEIGHT_SHAPE[weight.tag])
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
    return acc % P


def evaluate_sum(
    spec: SumSpec,
    p: int,
    t: int,
    ctx: PrimeContext | None = None,
    guard: int = DEFAULT_GUARD,
) -> Residue:
    """Evaluate the sum exactly modulo p^t."""
    if ctx is None:
        ctx = PrimeContext.for_target(p, t, guard)
    if ctx.workexp < t:
        raise ValueError(f"context exponent {ctx.workexp} below target {t}")
    zu = _unit_inverse(Fraction(spec.m), p, ctx.P)
    bound = limit_bound(spec.limit, p)
    acc = _weighted_sum(ctx, spec.product, 0, zu, spec.weight, bound, spec.pole_floor)
    if prefactor_sign(spec.prefactor, p) < 0:
        acc = -acc % ctx.P
    return Residue(p, t, acc)


def evaluate_combo(
    terms: Iterable[tuple[Fraction | int, SumSpec]],
    p: int,
    t: int,
    ctx: PrimeContext | None = None,
    guard: int = DEFAULT_GUARD,
) -> Residue:
    """Linear combination sum_i c_i * S_i of sums, exact modulo p^t."""
    if ctx is None:
        ctx = PrimeContext.for_target(p, t, guard)
    m = p**t
    total = 0
    for coeff, spec in terms:
        c = Fraction(coeff)
        cval = c.numerator * pow(c.denominator, -1, m) % m
        total = (total + cval * evaluate_sum(spec, p, t, ctx, guard).value) % m
    return Residue(p, t, total)


def evaluate_jacobi_sum(
    a: int,
    p: int,
    t: int,
    *,
    weight: Weight = W_ONE,
    limit: str = FULL,
    mult: int = 1,
    base: Fraction | int | None = None,
    central: bool = False,
    ctx: PrimeContext | None = None,
    guard: int = DEFAULT_GUARD,
) -> Residue:
    """Sum of w(k) * C(a,k)C(-1-a,k) [* C(2k,k)] * mult^k [/ base^k] mod p^t.

    a and mult are exact integers; mult may be divisible by p (the tail
    of the series then vanishes on its own) or zero (only k = 0 remains).
    base, when given, must be a p-adic unit.
    """
    if ctx is None:
        ctx = PrimeContext.for_target(p, t, guard)
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
    bound = limit_bound(limit, p)
    return Residue(p, t, _weighted_sum(ctx, (a, central), zv, zu, weight, bound))


# -- exact rational oracles (for tests and cross-checks) -------------------


def weight_value(weight: Weight, k: int) -> Fraction:
    if weight.tag == "linear":
        return weight.c0 + weight.c1 * k
    a0, a1, exp, inv = _WEIGHT_SHAPE[weight.tag]
    b = Fraction(a0 + a1 * k)
    if b == 0:
        return Fraction(0)
    return b**-exp if inv else b**exp


def evaluate_sum_exact(spec: SumSpec, p: int) -> Fraction:
    """The same sum as an exact rational number (slow, small p only)."""
    total = Fraction(0)
    for k in range(limit_bound(spec.limit, p) + 1):
        term = weight_value(spec.weight, k)
        if term == 0:
            continue
        for kind in spec.product:
            term *= EXACT[kind](k)
        total += term / spec.m**k
    return total * prefactor_sign(spec.prefactor, p)


def evaluate_jacobi_sum_exact(
    a: int,
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
