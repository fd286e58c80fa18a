"""Exact evaluation of truncated binomial sums modulo prime powers.

A sum is described by a :class:`SumSpec`: a product of central binomial
families, a rational base m (terms are divided by m^k), a term weight,
a truncation limit, and an optional global sign.  Each limit, sign and
weight tag is one table entry giving its value and its claim text, so
str(spec) is the sum as a claim prints it.  Jacobi sums take the stream
C(a,k)C(-1-a,k) [* C(2k,k)], at a sampled int a or a fixed rational a:
every parametric sum, theorem and corollary alike, is one of them.

Every sum is sum_k w(k) * (stream term at k) * z^k for one exact z, 1/m
for a ``SumSpec``: p may divide z's numerator but not its denominator
(:class:`BaseNotUnit`), and a zero z leaves the k = 0 term alone.

Evaluation has two stages, both cached on the :class:`PrimeContext`:

* the term array t_k = u_k * z^k * p^(v_k) mod P (P = p^workexp), built
  once per (stream, z) by ``ctx.terms``: u_k p^(v_k) is the stream term
  and z = p^zv * zu the per-step multiplier;
* the weight array w_k of ``ctx.weight``: k^e as plain ints, the integers
  c0 + c1*k of a linear weight, or the inverses of k+1, k+2, k+3, 2k-1
  and their powers.

A sum is then the truncated dot product sum_{k <= bound} w_k t_k mod P, so
the 4 to 6 weights a statement compares at one (stream, z) share one
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

from collections import Counter
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import Callable, NamedTuple

from .binomials import TEXT
from .context import PrimeContext, Source, context_for
from .errors import BaseNotUnit, NegativeValuation, PoleFloorViolated
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


class Weight:
    """Term weight w(k).

    Tags: "one", "k", "k2", "k3" multiply by k^e; "inv_k1", "inv_k1_sq",
    "inv_k1_cu" divide by (k+1)^e; "inv_k2", "inv_k3" divide by k+2, k+3;
    "inv_2k1", "inv_2k1_sq" divide by (2k-1)^e; "linear" multiplies by
    c0 + c1*k for integers c0, c1 (ValueError otherwise).  Weights that
    evaluate to 0 zero out the term; inverse weights at p-divisible
    arguments lower the term valuation instead.  Immutable, equal and
    hashed by (tag, c0, c1).

    ``shape`` is (a0, a1, exp, inverted) with w(k) = (a0 + a1*k)^(+-exp).
    """

    __slots__ = ("tag", "c0", "c1", "shape")

    def __init__(self, tag: str, c0: int = 0, c1: int = 0) -> None:
        if int(c0) != c0 or int(c1) != c1:
            raise ValueError(f"weight coefficients must be integers, got {c0}, {c1}")
        shape = (int(c0), int(c1), 1, False) if tag == "linear" else _WEIGHTS[tag][0]
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "c0", int(c0))
        object.__setattr__(self, "c1", int(c1))
        object.__setattr__(self, "shape", shape)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not Weight:
            return NotImplemented
        return self.tag == other.tag and self.c0 == other.c0 and self.c1 == other.c1

    def __hash__(self) -> int:
        return hash((self.tag, self.c0, self.c1))

    def __reduce__(self) -> tuple:
        return Weight, (self.tag, self.c0, self.c1)

    def __repr__(self) -> str:
        return f"Weight(tag={self.tag!r}, c0={self.c0!r}, c1={self.c1!r})"

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


def linear_weight(c0: int, c1: int) -> Weight:
    return Weight("linear", c0, c1)


class SumSpec(NamedTuple):
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


def _multiplier(num: int, den: int, p: int, P: int) -> tuple[int, int]:
    """(zv, zu) with z = num/den = p^zv * zu mod P, and (0, 0) for z = 0;
    BaseNotUnit when p divides den."""
    if den % p == 0:
        raise BaseNotUnit(f"multiplier {num}/{den} has a denominator divisible by p={p}")
    zv = 0
    while num and num % p == 0:
        num //= p
        zv += 1
    return zv, num * pow(den, -1, P) % P


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
    P = ctx.P
    ws, poles = ctx.weight(*weight.shape)
    floor = gain - weight.shape[2] if weight.tag in POLE_TAGS else None
    n = bound + 1 if zu else 1  # a zero z leaves the k = 0 term alone
    acc = sum(map(mul, islice(ws, n), islice(ctx.terms(source, zv, zu), n)))
    for k, d, unit in poles:
        if k >= n:
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
) -> Residue:
    """Evaluate the sum exactly modulo p^t."""
    ctx = context_for(ctx, p, t)
    zv, zu = _multiplier(*spec.m.as_integer_ratio()[::-1], p, ctx.P)  # z = 1/m
    bound = limit_bound(spec.limit, p)
    gain = sum(kind in ("B22", "B63") for kind in spec.product)
    acc = _weighted_sum(ctx, spec.product, zv, zu, spec.weight, bound, gain)
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
    z: Fraction | int = 1,
    central: bool = False,
    ctx: PrimeContext | None = None,
) -> Residue:
    """Sum of w(k) * C(a,k)C(-1-a,k) [* C(2k,k)] * z^k mod p^t.

    a is an int or a Fraction whose denominator p does not divide
    (DenominatorNotUnit otherwise).  z is an exact int or Fraction: p may
    divide its numerator (the tail of the series then vanishes on its
    own) but not its denominator (BaseNotUnit), and a zero z leaves only
    the k = 0 term.
    """
    ctx = context_for(ctx, p, t)
    zv, zu = _multiplier(*z.as_integer_ratio(), p, ctx.P)
    r, s = a.as_integer_ratio()
    gain = central + 1 + ((2 * r + s) % p == 0)
    bound = limit_bound(limit, p)
    return Residue(p, t, _weighted_sum(ctx, (a, central), zv, zu, weight, bound, gain))
