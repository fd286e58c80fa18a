"""Registry of congruence statements over binomial-product sums.

Each entry couples a left-hand side (usually a truncated sum of binomial
coefficient products) with an exact recipe for its closed-form right-hand
side and an applicability predicate on the prime.  Fixed statements check
one congruence per prime; parametric statements check a family of
congruences at deterministically sampled parameter tuples.

Right-hand sides are built from quadratic-form representations of the
prime (p = x^2 + 4y^2, x^2 + 2y^2, x^2 + 3y^2, x^2 + 7y^2, 4p = x^2 +
27y^2), a handful of distinguished central binomial coefficients, Fermat
quotients, and Euler-number tails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from . import quadform
from .binomials import B22, B31, B42, B63
from .context import PrimeContext
from .errors import ModulusTooHigh
from .quadform import F2, F3, F4, F7, F27
from .sums import (
    FULL,
    FULL_MINUS_1,
    FULL_MINUS_2,
    HALF,
    NONE,
    SIGN_HALF,
    SIGN_QUARTER,
    SumSpec,
    W_INV_2K1,
    W_INV_2K1_SQ,
    W_INV_K1,
    W_INV_K1_CU,
    W_INV_K1_SQ,
    W_INV_K2,
    W_INV_K3,
    W_K,
    W_K2,
    W_K3,
    W_ONE,
    Weight,
    evaluate_jacobi_sum,
    evaluate_sum,
    linear_weight,
    prefactor_sign,
)

Fr = Fraction

C2 = (B22, B22)
C3 = (B22, B22, B22)
C2B31 = (B22, B22, B31)
C2B42 = (B22, B22, B42)
CB31 = (B22, B31)
CB42 = (B22, B42)
CB31B63 = (B22, B31, B63)
B31B63 = (B31, B63)

STATUSES = ("theorem", "lemma", "corollary", "cited", "conjecture")

Applies = Callable[[int], bool]
ModExp = Union[int, Callable[[int], int]]
Side = Callable[[PrimeContext, int], int]
Check = Callable[[PrimeContext, int, tuple[int, ...]], "list[tuple[int, int]] | None"]


@dataclass(frozen=True)
class Fixed:
    """One congruence: lhs(ctx, t) == rhs(ctx, t) mod p^t when applies(p)."""

    sid: str
    status: str
    claim: str
    condition: str
    applies: Applies
    modexp: ModExp
    lhs: Side
    rhs: Side
    note: str = ""


@dataclass(frozen=True)
class Parametric:
    """A congruence family checked at sampled parameter tuples.

    ``check`` returns (lhs, rhs) pairs for one admissible tuple, or None
    when the tuple fails a stated unit hypothesis and must be skipped.
    """

    sid: str
    status: str
    claim: str
    condition: str
    applies: Applies
    modexp: ModExp
    params: tuple[str, ...]
    admissible: Callable[[int, tuple[int, ...]], bool]
    check: Check
    note: str = ""


Statement = Union[Fixed, Parametric]

REGISTRY: dict[str, Statement] = {}

# Statements whose left-hand side is a single registered sum, keyed by id.
# Exposed so oracle tests can re-evaluate each sum with exact rationals.
SUM_SPECS: dict[str, SumSpec] = {}


# -- prime-class predicates --------------------------------------------------


def _is_odd(p: int) -> bool:
    return p > 2


def _gt3(p: int) -> bool:
    return p > 3


def _gt5(p: int) -> bool:
    return p > 5


def _gt7(p: int) -> bool:
    return p > 7


def _f7cl(p: int) -> bool:
    return p > 2 and p % 7 in (1, 2, 4)


def _f3cl(p: int) -> bool:
    return p % 3 == 1


def _f2cl(p: int) -> bool:
    return p > 2 and p % 8 in (1, 3)


def _f4cl(p: int) -> bool:
    return p % 4 == 1


def _m43(p: int) -> bool:
    return p > 2 and p % 4 == 3


def _not_2_7(p: int) -> bool:
    return p > 2 and p != 7


def _not_2_3_7(p: int) -> bool:
    return p > 3 and p != 7


# -- right-hand side builders ------------------------------------------------


def _fr(ctx: PrimeContext, q: Fraction | int, t: int) -> int:
    """Exact rational constant reduced mod p^t (denominator a p-unit)."""
    return ctx.residue(Fraction(q), t).value


def _sum_lhs(spec: SumSpec) -> Side:
    def lhs(ctx: PrimeContext, t: int) -> int:
        return evaluate_sum(spec, ctx.p, t, ctx).value

    return lhs


def _xyq(
    form: str,
    on: str,
    csq: Fraction | int,
    cp: Fraction | int = 0,
    cpp: Fraction | int = 0,
    c0: Fraction | int = 0,
    c0_sign: str = NONE,
) -> Side:
    """csq*s + cp*p + c0*sign + cpp*p^2/s with s = x^2 or y^2 over form."""

    def rhs(ctx: PrimeContext, t: int) -> int:
        m = ctx.p**t
        x, y = ctx.xy(form)
        s = x * x if on == "x" else y * y
        val = _fr(ctx, csq, t) * s + _fr(ctx, cp, t) * ctx.p
        if c0:
            val += _fr(ctx, c0, t) * prefactor_sign(c0_sign, ctx.p)
        if cpp:
            val += _fr(ctx, cpp, t) * ctx.p % m * ctx.p % m * pow(s % m, -1, m)
        return val % m

    return rhs


def _split(form: str, main: Side, other: Side) -> Side:
    """main when p is represented by form, other on the complement class."""

    def rhs(ctx: PrimeContext, t: int) -> int:
        if quadform.applicable(ctx.p, form):
            return main(ctx, t)
        return other(ctx, t)

    return rhs


def _const(cp: Fraction | int = 0, c0: Fraction | int = 0) -> Side:
    def rhs(ctx: PrimeContext, t: int) -> int:
        return (_fr(ctx, cp, t) * ctx.p + _fr(ctx, c0, t)) % ctx.p**t

    return rhs


def _signed_p(c: Fraction | int, sign: str) -> Side:
    def rhs(ctx: PrimeContext, t: int) -> int:
        return _fr(ctx, c, t) * ctx.p * prefactor_sign(sign, ctx.p) % ctx.p**t

    return rhs


def _rmix(
    which: str,
    cr: Fraction | int,
    cp: Fraction | int = 0,
    c0: Fraction | int = 0,
) -> Side:
    """cr*R + cp*p + c0 where R is the R1 or R3 constant (known mod p^2)."""

    def rhs(ctx: PrimeContext, t: int) -> int:
        if t > 2:
            raise ModulusTooHigh(f"R1/R3 right-hand sides are known mod p^2 only, not mod p^{t}")
        m = ctx.p**t
        r = (ctx.r1() if which == "r1" else ctx.r3()) % m
        return (_fr(ctx, cr, t) * r + _fr(ctx, cp, t) * ctx.p + _fr(ctx, c0, t)) % m

    return rhs


def _b3(ctx: PrimeContext, t: int) -> int:
    """C(floor(2p/3), floor(p/3)) for p = 2 (mod 3), a p-unit."""
    p = ctx.p
    return ctx.binom((2 * p - 1) // 3, (p - 2) // 3, t)


def _b3sq(cb: Fraction | int, cp: Fraction | int = 0, c0: Fraction | int = 0) -> Side:
    """cb*(2p+1)*B3^2 + cp*p + c0 on the p = 2 (mod 3) class."""

    def rhs(ctx: PrimeContext, t: int) -> int:
        p, m = ctx.p, ctx.p**t
        b = _b3(ctx, t)
        val = _fr(ctx, cb, t) * (2 * p + 1) % m * b % m * b % m
        return (val + _fr(ctx, cp, t) * p + _fr(ctx, c0, t)) % m

    return rhs


def _binv2(c: Fraction | int, nk: Callable[[int], tuple[int, int]]) -> Side:
    """c * p^2 * C(n,k)^{-2} with (n, k) = nk(p)."""

    def rhs(ctx: PrimeContext, t: int) -> int:
        p, m = ctx.p, ctx.p**t
        n, k = nk(p)
        b = pow(ctx.binom(n, k, t), -1, m)
        return _fr(ctx, c, t) * p % m * p % m * b % m * b % m

    return rhs


def _b7rhs(c: Fraction | int, pexp: int, binvert: bool) -> Side:
    """c * p^pexp * C(floor(3p/7), floor(p/7))^(+-2)."""

    def rhs(ctx: PrimeContext, t: int) -> int:
        p, m = ctx.p, ctx.p**t
        b = ctx.binom(3 * p // 7, p // 7, t)
        if binvert:
            b = pow(b, -1, m)
        return _fr(ctx, c, t) * pow(p, pexp, m) % m * b % m * b % m

    return rhs


def _leg3(p: int) -> int:
    """Legendre symbol (p|3) for p not divisible by 3."""
    return 1 if p % 3 == 1 else -1


# -- claim text ---------------------------------------------------------------

_STREAM_TEXT = {B22: "C(2k,k)", B31: "C(3k,k)", B42: "C(4k,2k)", B63: "C(6k,3k)"}
_LIMIT_TEXT = {HALF: "(p-1)/2", FULL: "p-1", FULL_MINUS_1: "p-2", FULL_MINUS_2: "p-3"}
_PREFACTOR_TEXT = {
    NONE: "",
    SIGN_HALF: "(-1)^((p-1)/2) * ",
    SIGN_QUARTER: "(-1)^((p-1)/4) * ",
}
_WEIGHT_TEXT = {
    W_ONE: "",
    W_K: "k * ",
    W_K2: "k^2 * ",
    W_K3: "k^3 * ",
    W_INV_K1: "1/(k+1) * ",
    W_INV_K1_SQ: "1/(k+1)^2 * ",
    W_INV_K1_CU: "1/(k+1)^3 * ",
    W_INV_K2: "1/(k+2) * ",
    W_INV_K3: "1/(k+3) * ",
    W_INV_2K1: "1/(2k-1) * ",
    W_INV_2K1_SQ: "1/(2k-1)^2 * ",
}


def _weight_text(w: Weight) -> str:
    if w.tag == "linear":
        return f"({w.c0} + {w.c1}k) * "
    return _WEIGHT_TEXT[w]


def sum_text(spec: SumSpec) -> str:
    """Human-readable formula for a SumSpec left-hand side."""
    counts: dict[str, int] = {}
    for kind in spec.product:
        counts[kind] = counts.get(kind, 0) + 1
    prod = " ".join(
        _STREAM_TEXT[kind] + (f"^{n}" if n > 1 else "")
        for kind, n in sorted(counts.items())
    )
    mtxt = "" if spec.m == 1 else f" / ({spec.m})^k"
    return (
        f"{_PREFACTOR_TEXT[spec.prefactor]}"
        f"sum_{{k=0..{_LIMIT_TEXT[spec.limit]}}} "
        f"{_weight_text(spec.weight)}{prod}{mtxt}"
    )


# -- registration helpers ------------------------------------------------------


def _add(stmt: Statement) -> None:
    if stmt.sid in REGISTRY:
        raise ValueError(f"duplicate statement id {stmt.sid}")
    REGISTRY[stmt.sid] = stmt


def _fixed(
    sid: str,
    status: str,
    condition: str,
    applies: Applies,
    modexp: ModExp,
    spec: SumSpec,
    rhs: Side,
    rhs_text: str,
    *,
    mod_text: str | None = None,
    note: str = "",
) -> None:
    if mod_text is None:
        mod_text = "p" if modexp == 1 else f"p^{modexp}"
    claim = f"{sum_text(spec)} == {rhs_text} (mod {mod_text})"
    _add(Fixed(sid, status, claim, condition, applies, modexp, _sum_lhs(spec), rhs, note))
    SUM_SPECS[sid] = spec


def _fixed_custom(
    sid: str,
    status: str,
    condition: str,
    applies: Applies,
    modexp: ModExp,
    lhs: Side,
    rhs: Side,
    claim: str,
    note: str = "",
) -> None:
    _add(Fixed(sid, status, claim, condition, applies, modexp, lhs, rhs, note))


def _param(
    sid: str,
    status: str,
    condition: str,
    applies: Applies,
    modexp: int,
    params: tuple[str, ...],
    admissible: Callable[[int, tuple[int, ...]], bool],
    check: Check,
    claim: str,
    note: str = "",
) -> None:
    _add(Parametric(sid, status, claim, condition, applies, modexp, params, admissible, check, note))


# ==============================================================================
# Cited evaluations of full-range product sums
# ==============================================================================

_fixed(
    "S-RV1", "cited", "p > 3", _gt3, 2,
    SumSpec(C2B31, Fr(108), W_ONE, FULL),
    _split(F3, _xyq(F3, "x", 4, -2), _const()),
    "4x^2 - 2p if p = x^2 + 3y^2 else 0",
)
_fixed(
    "S-RV2", "cited", "p > 3", _gt3, 2,
    SumSpec(C2B42, Fr(256), W_ONE, FULL),
    _split(F2, _xyq(F2, "x", 4, -2), _const()),
    "4x^2 - 2p if p = x^2 + 2y^2 (p == 1, 3 mod 8) else 0",
)


def _rhs_rv3(ctx: PrimeContext, t: int) -> int:
    if ctx.p % 4 != 1:
        return 0
    x, _ = ctx.xy(F4)
    return _fr(ctx, _leg3(ctx.p) * (4 * x * x - 2 * ctx.p), t)


_fixed(
    "S-RV3", "cited", "p > 3", _gt3, 2,
    SumSpec(CB31B63, Fr(1728), W_ONE, FULL),
    _rhs_rv3,
    "(p|3) * (4x^2 - 2p) if p = x^2 + 4y^2 else 0",
)

# Conjectured full-range and (k+1)-weighted cube sums tied to x^2 + 7y^2

_CJ7 = "p == 1, 2, 4 (mod 7)"
_fixed(
    "CJ-S7-intro-a", "conjecture", _CJ7, _f7cl, 3,
    SumSpec(C3, Fr(1), W_ONE, FULL),
    _xyq(F7, "x", 4, -2, cpp=Fr(-1, 4)),
    "4x^2 - 2p - p^2/(4x^2) with p = x^2 + 7y^2",
)
_fixed(
    "CJ-S7-intro-b", "conjecture", "p == 3 (mod 7)",
    lambda p: p > 2 and p % 7 == 3, 3,
    SumSpec(C3, Fr(1), W_ONE, FULL),
    _b7rhs(-11, 2, True),
    "-11 p^2 / C(floor(3p/7), floor(p/7))^2",
)
_fixed(
    "CJ-S7-intro-c", "conjecture", "p == 5 (mod 7)",
    lambda p: p > 2 and p % 7 == 5, 3,
    SumSpec(C3, Fr(1), W_ONE, FULL),
    _b7rhs(Fr(-11, 16), 2, True),
    "-(11/16) p^2 / C(floor(3p/7), floor(p/7))^2",
)
_fixed(
    "CJ-S7-intro-d", "conjecture", "p == 6 (mod 7)",
    lambda p: p > 2 and p % 7 == 6, 3,
    SumSpec(C3, Fr(1), W_ONE, FULL),
    _b7rhs(Fr(-11, 4), 2, True),
    "-(11/4) p^2 / C(floor(3p/7), floor(p/7))^2",
)
_fixed(
    "CJ-S9-intro-a", "conjecture", _CJ7, _f7cl, 3,
    SumSpec(C3, Fr(1), W_INV_K1, HALF),
    _xyq(F7, "y", -44, 2),
    "-44y^2 + 2p with p = x^2 + 7y^2",
)
_fixed(
    "CJ-S9-intro-b", "conjecture", "p == 3 (mod 7)",
    lambda p: p > 2 and p % 7 == 3, 1,
    SumSpec(C3, Fr(1), W_INV_K1, HALF),
    _b7rhs(Fr(-1, 7), 0, False),
    "-(1/7) C(floor(3p/7), floor(p/7))^2",
)
_fixed(
    "CJ-S9-intro-c", "conjecture", "p == 5 (mod 7)",
    lambda p: p > 2 and p % 7 == 5, 1,
    SumSpec(C3, Fr(1), W_INV_K1, HALF),
    _b7rhs(Fr(-16, 7), 0, False),
    "-(16/7) C(floor(3p/7), floor(p/7))^2",
)
_fixed(
    "CJ-S9-intro-d", "conjecture", "p == 6 (mod 7)",
    lambda p: p > 2 and p % 7 == 6, 1,
    SumSpec(C3, Fr(1), W_INV_K1, HALF),
    _b7rhs(Fr(-4, 7), 0, False),
    "-(4/7) C(floor(3p/7), floor(p/7))^2",
)

# ==============================================================================
# Lemmas: half-range square sums and mixed product sums
# ==============================================================================


def _rhs_l23a(ctx: PrimeContext, t: int) -> int:
    m = ctx.p**t
    xt = ctx.x_one_mod_4() % m
    val = _fr(ctx, Fr(-1, 2), t) * xt + _fr(ctx, Fr(1, 4), t) * ctx.p % m * pow(xt, -1, m)
    return val * ctx.sign_quarter % m


_fixed(
    "S-L2.3a", "lemma", "p == 1 (mod 4)", _f4cl, 2,
    SumSpec(C2, Fr(-16), W_K, HALF),
    _rhs_l23a,
    "(-1)^((p-1)/4) * (-x/2 + p/(4x)) with p = x^2 + 4y^2, x == 1 (mod 4)",
)


def _rhs_l23b(ctx: PrimeContext, t: int) -> int:
    p, m = ctx.p, ctx.p**t
    b = ctx.binom((p - 1) // 2, (p - 3) // 4, t)
    binv = pow(b, -1, m)
    q2 = ctx.fermat_quotient(2, 2)
    inner = (b + binv - _fr(ctx, Fr(1, 2), t) * q2 % m * b) % m
    sign = -1 if (p + 1) // 4 % 2 else 1
    return (b + inner * p) * sign % m * _fr(ctx, Fr(1, 4), t) % m


_fixed(
    "S-L2.3b", "lemma", "p == 3 (mod 4)", _m43, 2,
    SumSpec(C2, Fr(-16), W_K, HALF),
    _rhs_l23b,
    "(-1)^((p+1)/4)/4 * (B + (B + 1/B - q_2(p) B / 2) p), B = C((p-1)/2, (p-3)/4)",
)


def _c1(ctx: PrimeContext, t: int) -> int:
    return ctx.binom((2 * ctx.p - 2) // 3, (ctx.p - 1) // 3, t)


def _c2(ctx: PrimeContext, t: int) -> int:
    return ctx.binom((2 * ctx.p + 2) // 3, (ctx.p + 1) // 3, t)


def _rhs_l24a(ctx: PrimeContext, t: int) -> int:
    m = ctx.p**t
    if ctx.p % 3 == 1:
        return _c1(ctx, t)
    return ctx.p * pow(_c2(ctx, t), -1, m) % m


def _rhs_l24b(ctx: PrimeContext, t: int) -> int:
    p, m = ctx.p, ctx.p**t
    if p % 3 == 1:
        c = _c1(ctx, t)
        return (p * pow(c, -1, m) - c) % m
    c = _c2(ctx, t)
    return (-(p + 1) * c - p * pow(c, -1, m)) % m


_fixed(
    "S-L2.4a", "lemma", "p > 3", _gt3, 2,
    SumSpec(CB31, Fr(24), W_ONE, FULL),
    _rhs_l24a,
    "C((2p-2)/3, (p-1)/3) if p == 1 (mod 3) else p / C((2p+2)/3, (p+1)/3)",
)
_fixed(
    "S-L2.4b", "lemma", "p > 3", _gt3, 2,
    SumSpec(CB31, Fr(24), W_K, FULL),
    _rhs_l24b,
    "p/C1 - C1 (C1 = C((2p-2)/3,(p-1)/3)) if p == 1 (mod 3) "
    "else -(p+1) C2 - p/C2 (C2 = C((2p+2)/3,(p+1)/3))",
)


def _c3b(ctx: PrimeContext, t: int) -> int:
    return ctx.binom((ctx.p + 1) // 2, (ctx.p + 1) // 6, t)


def _rhs_l25a(ctx: PrimeContext, t: int) -> int:
    p, m = ctx.p, ctx.p**t
    if p % 3 == 1:
        x, _ = ctx.xy(F3)
        sx = 1 if x % 3 == 1 else -1
        return sx * (2 * x - p * pow(2 * x % m, -1, m)) % m
    return 3 * p * pow(2 * _c3b(ctx, t) % m, -1, m) % m


def _rhs_l25b(ctx: PrimeContext, t: int) -> int:
    p, m = ctx.p, ctx.p**t
    if p % 3 == 1:
        x, _ = ctx.xy(F3)
        sx = 1 if x % 3 == 1 else -1
        return sx * (-x + p * pow(2 * x % m, -1, m)) % m
    c = _c3b(ctx, t)
    e2 = pow(2, p - 1, m) - 1
    e3 = pow(3, p - 1, m) - 1
    coeff = (
        _fr(ctx, Fr(-1, 3), t)
        + _fr(ctx, Fr(-1, 3), t) * p
        + _fr(ctx, Fr(-2, 9), t) * e2
        + _fr(ctx, Fr(1, 4), t) * e3
    ) % m
    return (coeff * c - 3 * p * pow(4 * c % m, -1, m)) % m


_fixed(
    "S-L2.5a", "lemma", "p > 3", _gt3, 2,
    SumSpec(CB42, Fr(48), W_ONE, FULL),
    _rhs_l25a,
    "(x|3)(2x - p/(2x)) with p = x^2 + 3y^2 if p == 1 (mod 3) "
    "else 3p / (2 C((p+1)/2, (p+1)/6))",
)
_fixed(
    "S-L2.5b", "lemma", "p > 3", _gt3, 2,
    SumSpec(CB42, Fr(48), W_K, FULL),
    _rhs_l25b,
    "(x|3)(-x + p/(2x)) if p == 1 (mod 3) else "
    "(-1/3 - p/3 - (2/9)(2^(p-1)-1) + (1/4)(3^(p-1)-1)) C3 - 3p/(4 C3), "
    "C3 = C((p+1)/2, (p+1)/6)",
)


def _c4(ctx: PrimeContext, t: int) -> int:
    return ctx.binom((ctx.p - 1) // 2, (ctx.p - 1) // 4, t)


def _c5(ctx: PrimeContext, t: int) -> int:
    return ctx.binom((ctx.p - 1) // 2, (ctx.p - 3) // 4, t)


def _rhs_l26a(ctx: PrimeContext, t: int) -> int:
    p, m = ctx.p, ctx.p**t
    eps = ctx.legendre(6)
    if p % 4 == 1:
        e2 = pow(2, p - 1, m) - 1
        return eps * _c4(ctx, t) % m * (1 - _fr(ctx, Fr(1, 2), t) * e2) % m
    return eps * p * pow(3 * _c5(ctx, t) % m, -1, m) % m


def _rhs_l26b(ctx: PrimeContext, t: int) -> int:
    p, m = ctx.p, ctx.p**t
    eps = ctx.legendre(6)
    e2 = pow(2, p - 1, m) - 1
    half = _fr(ctx, Fr(1, 2), t)
    if p % 4 == 1:
        c = _c4(ctx, t)
        val = -half * eps * p % m * pow(c, -1, m) % m
        val += half * eps * c % m * (1 - half * e2) % m
        return val % m
    c = _c5(ctx, t)
    coeff = (_fr(ctx, Fr(3, 2), t) * (1 + p) - _fr(ctx, Fr(3, 4), t) * e2) % m
    return (eps * p * pow(6 * c % m, -1, m) + eps * coeff * c) % m


_fixed(
    "S-L2.6a", "lemma", "p > 3", _gt3, 2,
    SumSpec(CB42, Fr(72), W_ONE, FULL),
    _rhs_l26a,
    "(6|p) C((p-1)/2,(p-1)/4) (1 - (2^(p-1)-1)/2) if p == 1 (mod 4) "
    "else (6|p) p / (3 C((p-1)/2,(p-3)/4))",
)
_fixed(
    "S-L2.6b", "lemma", "p > 3", _gt3, 2,
    SumSpec(CB42, Fr(72), W_K, FULL),
    _rhs_l26b,
    "(6|p)(-p/(2 C4) + C4 (1 - (2^(p-1)-1)/2)/2) if p == 1 (mod 4) else "
    "(6|p)(p/(6 C5) + (3/2 + 3p/2 - 3(2^(p-1)-1)/4) C5)",
)

# ==============================================================================
# Half-range cube sums weighted by 1/(k+1)
# ==============================================================================

_fixed(
    "T2.3a", "theorem", _CJ7, _f7cl, 2,
    SumSpec(C3, Fr(1), W_INV_K1, HALF),
    _xyq(F7, "y", -44, 2),
    "-44y^2 + 2p with p = x^2 + 7y^2",
)
_fixed(
    "T2.3b", "theorem", _CJ7, _f7cl, 2,
    SumSpec(C3, Fr(4096), W_INV_K1, HALF, SIGN_HALF),
    _xyq(F7, "y", 72, 2),
    "72y^2 + 2p with p = x^2 + 7y^2",
)
_fixed(
    "T2.4a", "theorem", "p == 1 (mod 3)", _f3cl, 2,
    SumSpec(C3, Fr(16), W_INV_K1, HALF),
    _xyq(F3, "y", -16, 2),
    "-16y^2 + 2p with p = x^2 + 3y^2",
)
_fixed(
    "T2.4b", "theorem", "p == 1 (mod 3)", _f3cl, 2,
    SumSpec(C3, Fr(256), W_INV_K1, HALF, SIGN_HALF),
    _xyq(F3, "y", -8, 2),
    "-8y^2 + 2p with p = x^2 + 3y^2",
)
_fixed(
    "T2.5", "theorem", "p == 1, 3 (mod 8)", _f2cl, 2,
    SumSpec(C3, Fr(-64), W_INV_K1, HALF, SIGN_HALF),
    _xyq(F2, "y", -12, 2),
    "-12y^2 + 2p with p = x^2 + 2y^2",
)
_fixed(
    "T2.6", "theorem", "p == 1 (mod 4)", _f4cl, 2,
    SumSpec(C3, Fr(-512), W_INV_K1, HALF, SIGN_QUARTER),
    _xyq(F4, "y", -32, 2),
    "-32y^2 + 2p with p = x^2 + 4y^2",
)
_fixed(
    "T2.7", "theorem", "p odd", _is_odd, 2,
    SumSpec(C3, Fr(-8), W_INV_K1, HALF),
    _split(F4, _xyq(F4, "y", -24, 2), _rmix("r1", Fr(1, 2), 1)),
    "-24y^2 + 2p if p = x^2 + 4y^2 else R1(p)/2 + p",
)

# ==============================================================================
# Full-range product sums with polynomial and 1/(k+1) weights
# ==============================================================================

_fixed(
    "T2.8a", "theorem", "p > 5", _gt5, 2,
    SumSpec(C2B31, Fr(-192), W_K, FULL),
    _split(F27, _xyq(F27, "x", Fr(-1, 5), Fr(3, 5)), _const(Fr(-1, 5))),
    "(3p - x^2)/5 if 4p = x^2 + 27y^2 (p == 1 mod 3) else -p/5",
)
_fixed(
    "T2.8b", "theorem", "p > 5", _gt5, 2,
    SumSpec(C2B31, Fr(-192), W_INV_K1, FULL_MINUS_1),
    _split(F27, _xyq(F27, "x", Fr(3, 2), -4), _b3sq(2, 1)),
    "(3/2)x^2 - 4p if 4p = x^2 + 27y^2 else 2(2p+1) C(floor(2p/3), floor(p/3))^2 + p",
)
_fixed(
    "T2.9a", "theorem", "p > 5", _gt5, 2,
    SumSpec(C2B42, Fr(-144), W_K, FULL),
    _split(F3, _xyq(F3, "x", Fr(-4, 5), Fr(3, 5)), _const(Fr(-1, 5))),
    "(3p - 4x^2)/5 if p = x^2 + 3y^2 else -p/5",
)
_fixed(
    "T2.9b", "theorem", "p > 3", _gt3, 2,
    SumSpec(C2B42, Fr(-144), W_INV_K1, FULL_MINUS_1),
    _split(F3, _xyq(F3, "y", -16, 2), _rmix("r3", Fr(4, 3), Fr(2, 3))),
    "-16y^2 + 2p if p = x^2 + 3y^2 else (4/3) R3(p) + (2/3) p",
)
_fixed(
    "T2.10a", "theorem", "p != 2, 3, 7", _not_2_3_7, 2,
    SumSpec(C2B42, Fr(648), W_K, FULL),
    _split(F4, _xyq(F4, "x", Fr(-4, 7), Fr(3, 7)), _const(Fr(-1, 7))),
    "(3p - 4x^2)/7 if p = x^2 + 4y^2 else -p/7",
)
_fixed(
    "T2.10b", "theorem", "p != 2, 3, 7", _not_2_3_7, 2,
    SumSpec(C2B42, Fr(648), W_INV_K1, FULL_MINUS_1),
    _split(F4, _xyq(F4, "y", Fr(-40, 3), 2), _rmix("r1", Fr(-3, 2), Fr(-1, 3))),
    "-(40/3)y^2 + 2p if p = x^2 + 4y^2 else -(3/2) R1(p) - p/3",
)

# ==============================================================================
# Cited half- and full-range evaluations
# ==============================================================================

_fixed(
    "S-2.4", "cited", _CJ7, _f7cl, 2,
    SumSpec(C3, Fr(1), W_ONE, HALF),
    _xyq(F7, "x", 4, -2),
    "4x^2 - 2p with p = x^2 + 7y^2",
)
_fixed(
    "S-2.5", "cited", _CJ7, _f7cl, 2,
    SumSpec(C3, Fr(1), W_K, HALF),
    _xyq(F7, "x", Fr(-32, 21), Fr(8, 7)),
    "(8/21)(3p - 4x^2) with p = x^2 + 7y^2",
)
_fixed(
    "S-2.6", "cited", _CJ7, _f7cl, 2,
    SumSpec(C3, Fr(4096), W_ONE, HALF, SIGN_HALF),
    _xyq(F7, "x", 4, -2),
    "4x^2 - 2p with p = x^2 + 7y^2",
)
_fixed(
    "S-2.7", "cited", _CJ7, _f7cl, 2,
    SumSpec(C3, Fr(4096), W_K, HALF, SIGN_HALF),
    _xyq(F7, "y", Fr(10, 3), Fr(-5, 42)),
    "(5/42)(28y^2 - p) with p = x^2 + 7y^2",
)
_fixed(
    "S-2.8", "cited", "p == 1 (mod 3)", _f3cl, 2,
    SumSpec(C3, Fr(16), W_ONE, HALF),
    _xyq(F3, "x", 4, -2),
    "4x^2 - 2p with p = x^2 + 3y^2",
)
_fixed(
    "S-2.9", "cited", "p == 1 (mod 3)", _f3cl, 2,
    SumSpec(C3, Fr(16), W_K, HALF),
    _xyq(F3, "x", Fr(-4, 3), 1),
    "p - (4/3)x^2 with p = x^2 + 3y^2",
)
_fixed(
    "S-2.10", "cited", "p == 1 (mod 3)", _f3cl, 2,
    SumSpec(C3, Fr(256), W_ONE, HALF, SIGN_HALF),
    _xyq(F3, "x", 4, -2),
    "4x^2 - 2p with p = x^2 + 3y^2",
)
_fixed(
    "S-2.11", "cited", "p == 1 (mod 3)", _f3cl, 2,
    SumSpec(C3, Fr(256), W_K, HALF, SIGN_HALF),
    _xyq(F3, "y", 2, Fr(-1, 6)),
    "(1/6)(12y^2 - p) with p = x^2 + 3y^2",
)
_fixed(
    "S-2.12", "cited", "p == 1, 3 (mod 8)", _f2cl, 2,
    SumSpec(C3, Fr(-64), W_ONE, HALF, SIGN_HALF),
    _xyq(F2, "x", 4, -2),
    "4x^2 - 2p with p = x^2 + 2y^2",
)
_fixed(
    "S-2.13", "cited", "p == 1, 3 (mod 8)", _f2cl, 2,
    SumSpec(C3, Fr(-64), W_K, HALF, SIGN_HALF),
    _xyq(F2, "y", 2, Fr(-1, 4)),
    "(1/4)(8y^2 - p) with p = x^2 + 2y^2",
)
_fixed(
    "S-2.14", "cited", "p == 1 (mod 4)", _f4cl, 2,
    SumSpec(C3, Fr(-512), W_ONE, HALF, SIGN_QUARTER),
    _xyq(F4, "x", 4, -2),
    "4x^2 - 2p with p = x^2 + 4y^2",
)
_fixed(
    "S-2.15", "cited", "p == 1 (mod 4)", _f4cl, 2,
    SumSpec(C3, Fr(-512), W_K, HALF, SIGN_QUARTER),
    _xyq(F4, "y", Fr(8, 3), Fr(-1, 6)),
    "(1/6)(16y^2 - p) with p = x^2 + 4y^2",
)


def _rhs_s216(ctx: PrimeContext, t: int) -> int:
    m = ctx.p**t
    xt = ctx.x_one_mod_4() % m
    val = (2 * xt - ctx.p * pow(2 * xt % m, -1, m)) % m
    return val * ctx.sign_quarter % m


_fixed(
    "S-2.16", "cited", "p == 1 (mod 4)", _f4cl, 2,
    SumSpec(C2, Fr(-16), W_ONE, FULL),
    _rhs_s216,
    "(-1)^((p-1)/4)(2x - p/(2x)) with p = x^2 + 4y^2, x == 1 (mod 4)",
)


def _rhs_s217(ctx: PrimeContext, t: int) -> int:
    p, m = ctx.p, ctx.p**t
    sign = -1 if (p - 3) // 4 % 2 else 1
    return sign * p * pow(_c5(ctx, t), -1, m) % m


_fixed(
    "S-2.17", "cited", "p == 3 (mod 4)", _m43, 2,
    SumSpec(C2, Fr(-16), W_ONE, FULL),
    _rhs_s217,
    "(-1)^((p-3)/4) p / C((p-1)/2, (p-3)/4)",
)


def _lhs_s218(ctx: PrimeContext, t: int) -> int:
    b = _c4(ctx, t)
    return b * b % ctx.p**t


def _rhs_s218(ctx: PrimeContext, t: int) -> int:
    m = ctx.p**t
    x, _ = ctx.xy(F4)
    return pow(2, ctx.p - 1, m) * _fr(ctx, 4 * x * x - 2 * ctx.p, t) % m


_fixed_custom(
    "S-2.18", "cited", "p == 1 (mod 4)", _f4cl, 2,
    _lhs_s218,
    _rhs_s218,
    "C((p-1)/2, (p-1)/4)^2 == 2^(p-1) (4x^2 - 2p) (mod p^2) with p = x^2 + 4y^2",
)
_fixed(
    "S-Su1", "cited", "p != 2, 7", _not_2_7, 3,
    SumSpec(C3, Fr(1), linear_weight(8, 21), FULL),
    _const(8),
    "8p",
)
_fixed(
    "S-OZ", "cited", "p odd", _is_odd, 2,
    SumSpec(C3, Fr(4096), linear_weight(5, 42), HALF),
    _signed_p(5, SIGN_HALF),
    "5 (-1)^((p-1)/2) p",
)
_fixed(
    "S-L1", "cited", "p == 1 (mod 3)", _f3cl, 4,
    SumSpec(C3, Fr(256), linear_weight(1, 6), HALF),
    _signed_p(1, SIGN_HALF),
    "(-1)^((p-1)/2) p",
)
_fixed(
    "S-M2", "cited", "p == 1, 3 (mod 8)", _f2cl, 3,
    SumSpec(C3, Fr(-64), linear_weight(1, 4), HALF),
    _signed_p(1, SIGN_HALF),
    "(-1)^((p-1)/2) p",
)
_fixed(
    "S-L2", "cited", "p == 1 (mod 4)", _f4cl, 2,
    SumSpec(C3, Fr(-512), linear_weight(1, 6), HALF),
    _signed_p(1, SIGN_QUARTER),
    "(-1)^((p-1)/4) p",
)
_fixed(
    "S-GZ", "cited", "p > 3", _gt3, 3,
    SumSpec(C3, Fr(-8), linear_weight(1, 3), HALF),
    _signed_p(1, SIGN_HALF),
    "(-1)^((p-1)/2) p",
)
_fixed(
    "S-2.19", "cited", "p > 3", _gt3, 2,
    SumSpec(C2B31, Fr(-192), W_ONE, FULL),
    _split(F27, _xyq(F27, "x", 1, -2), _const()),
    "x^2 - 2p if 4p = x^2 + 27y^2 (p == 1 mod 3) else 0",
)
_fixed(
    "S-2.20", "cited", "p > 3", _gt3, 2,
    SumSpec(C2B42, Fr(-144), W_ONE, FULL),
    _split(F3, _xyq(F3, "x", 4, -2), _const()),
    "4x^2 - 2p if p = x^2 + 3y^2 else 0",
)
_fixed(
    "S-2.21", "cited", "p > 3", _gt3, 2,
    SumSpec(C2B42, Fr(648), W_ONE, FULL),
    _split(F4, _xyq(F4, "x", 4, -2), _const()),
    "4x^2 - 2p if p = x^2 + 4y^2 else 0",
)

# ==============================================================================
# Conjectures: mod p^3 refinements and Euler-number tails
# ==============================================================================

_fixed(
    "CJ-R2.2-1", "conjecture", "p == 1 (mod 4)", _f4cl, 3,
    SumSpec(C3, Fr(-8), W_INV_K1, HALF),
    _xyq(F4, "y", -24, 2),
    "-24y^2 + 2p with p = x^2 + 4y^2",
)


def _rhs_cj222(ctx: PrimeContext, t: int) -> int:
    m = ctx.p**t
    sign = -1 if ctx.p // 4 % 2 else 1
    if ctx.p % 4 == 1:
        _, y = ctx.xy(F4)
        return sign * (-32 * y * y + 2 * ctx.p) % m
    return sign * (-4 * (ctx.r1() % m) - 2 * ctx.p) % m


_fixed(
    "CJ-R2.2-2", "conjecture", "p > 3", _gt3,
    lambda p: 3 if p % 4 == 1 else 2,
    SumSpec(C3, Fr(-512), W_INV_K1, HALF),
    _rhs_cj222,
    "(-1)^floor(p/4) (-32y^2 + 2p) (mod p^3) if p = x^2 + 4y^2 "
    "else (-1)^floor(p/4) (-4 R1(p) - 2p) (mod p^2)",
    mod_text="p^3 or p^2 by class",
)
_fixed(
    "CJ-R2.2-3", "conjecture", "p > 3", _gt3,
    lambda p: 3 if p % 3 == 1 else 2,
    SumSpec(C3, Fr(16), W_INV_K1, HALF),
    _split(F3, _xyq(F3, "y", -16, 2), _rmix("r3", Fr(-4, 3), Fr(-2, 3))),
    "-16y^2 + 2p (mod p^3) if p = x^2 + 3y^2 else -(4/3) R3(p) - (2/3) p (mod p^2)",
    mod_text="p^3 or p^2 by class",
)
_fixed(
    "CJ-R2.2-4", "conjecture", "p > 3", _gt3,
    lambda p: 3 if p % 3 == 1 else 2,
    SumSpec(C3, Fr(256), W_INV_K1, HALF, SIGN_HALF),
    _split(F3, _xyq(F3, "y", -8, 2), _rmix("r3", Fr(16, 3), Fr(2, 3))),
    "-8y^2 + 2p (mod p^3) if p = x^2 + 3y^2 else (16/3) R3(p) + (2/3) p (mod p^2)",
    mod_text="p^3 or p^2 by class",
)
_fixed(
    "CJ-R2.2-5", "conjecture", "p == 1, 3 (mod 8) and p > 3",
    lambda p: p > 3 and p % 8 in (1, 3), 3,
    SumSpec(C3, Fr(-64), W_INV_K1, HALF, SIGN_HALF),
    _xyq(F2, "y", -12, 2),
    "-12y^2 + 2p with p = x^2 + 2y^2",
)
_fixed(
    "CJ-R2.2-6", "conjecture", _CJ7, _f7cl, 3,
    SumSpec(C3, Fr(4096), W_INV_K1, HALF, SIGN_HALF),
    _xyq(F7, "y", 72, 2),
    "72y^2 + 2p with p = x^2 + 7y^2",
)
_fixed(
    "CJ-R2.3-S7-1", "conjecture", "p > 3", _gt3, 3,
    SumSpec(C2B31, Fr(-192), W_ONE, FULL),
    _split(
        F27,
        _xyq(F27, "x", 1, -2, cpp=-1),
        _binv2(Fr(3, 4), lambda p: ((2 * p - 1) // 3, (p - 2) // 3)),
    ),
    "x^2 - 2p - p^2/x^2 if 4p = x^2 + 27y^2 "
    "else (3/4) p^2 / C(floor(2p/3), floor(p/3))^2",
)
_fixed(
    "CJ-R2.3-S7-2", "conjecture", "p > 3", _gt3, 3,
    SumSpec(C2B42, Fr(-144), W_ONE, FULL),
    _split(
        F3,
        _xyq(F3, "x", 4, -2, cpp=Fr(-1, 4)),
        _binv2(1, lambda p: ((p - 1) // 2, (p - 5) // 6)),
    ),
    "4x^2 - 2p - p^2/(4x^2) if p = x^2 + 3y^2 else p^2 / C((p-1)/2, (p-5)/6)^2",
)
_fixed(
    "CJ-R2.3-S7-3", "conjecture", "p > 3", _gt3, 3,
    SumSpec(C2B42, Fr(648), W_ONE, FULL),
    _split(
        F4,
        _xyq(F4, "x", 4, -2, cpp=Fr(-1, 4)),
        _binv2(Fr(-5, 36), lambda p: ((p - 3) // 2, (p - 3) // 4)),
    ),
    "4x^2 - 2p - p^2/(4x^2) if p = x^2 + 4y^2 else -(5/36) p^2 / C((p-3)/2, (p-3)/4)^2",
)
_fixed(
    "CJ-R2.3-S9-1", "conjecture", "p == 1 (mod 3) and p > 3",
    lambda p: p > 3 and p % 3 == 1, 3,
    SumSpec(C2B31, Fr(-192), W_INV_K1, FULL_MINUS_1),
    _xyq(F27, "x", Fr(3, 2), -4),
    "(3/2)x^2 - 4p with 4p = x^2 + 27y^2",
)
_fixed(
    "CJ-R2.3-S9-2", "conjecture", "p == 1 (mod 3) and p > 3",
    lambda p: p > 3 and p % 3 == 1, 3,
    SumSpec(C2B42, Fr(-144), W_INV_K1, FULL_MINUS_1),
    _xyq(F3, "y", -16, 2),
    "-16y^2 + 2p with p = x^2 + 3y^2",
)
_fixed(
    "CJ-R2.3-S9-3", "conjecture", "p == 1 (mod 4) and p > 3",
    lambda p: p > 3 and p % 4 == 1, 3,
    SumSpec(C2B42, Fr(648), W_INV_K1, FULL_MINUS_1),
    _xyq(F4, "y", Fr(-40, 3), 2),
    "-(40/3)y^2 + 2p with p = x^2 + 4y^2",
)


def _rhs_cj22(ctx: PrimeContext, t: int) -> int:
    p, m = ctx.p, ctx.p**t
    u = ctx.u_number(p - 3)
    return (_leg3(p) * p + _fr(ctx, Fr(5, 2), t) * pow(p, 3, m) % m * u) % m


_fixed(
    "CJ-2.22", "conjecture", "p > 3", _gt3, 4,
    SumSpec(C2B42, Fr(-144), linear_weight(1, 5), FULL),
    _rhs_cj22,
    "(p|3) p + (5/2) p^3 U(p-3)",
)


def _rhs_cj23(ctx: PrimeContext, t: int) -> int:
    p, m = ctx.p, ctx.p**t
    e = ctx.euler_number(p - 3)
    val = ctx.sign_half * p - _fr(ctx, Fr(745, 447), t) * pow(p, 3, m) % m * e
    return val % m


_fixed(
    "CJ-2.23", "conjecture", "p > 3 and p != 149",
    lambda p: p > 3 and p != 149, 4,
    SumSpec(C2B42, Fr(648), linear_weight(1, 7), FULL),
    _rhs_cj23,
    "(-1)^((p-1)/2) p - (745/447) p^3 E(p-3)",
    note="excluded prime: 149",
)


def _rhs_cj24(ctx: PrimeContext, t: int) -> int:
    p, m = ctx.p, ctx.p**t
    u = ctx.u_number(p - 3)
    return (_leg3(p) * p + _fr(ctx, Fr(5, 3), t) * pow(p, 3, m) % m * u) % m


_fixed(
    "CJ-2.24", "conjecture", "p > 3", _gt3, 4,
    SumSpec(C2B31, Fr(-192), linear_weight(1, 5), FULL),
    _rhs_cj24,
    "(p|3) p + (5/3) p^3 U(p-3)",
)

# ==============================================================================
# k^2- and k^3-weighted sums
# ==============================================================================

_fixed(
    "T3.2a", "theorem", _CJ7, _f7cl, 2,
    SumSpec(C3, Fr(1), W_K2, HALF),
    _xyq(F7, "x", Fr(736, 1323), Fr(-272, 441)),
    "(736/1323)x^2 - (272/441)p with p = x^2 + 7y^2",
)
_fixed(
    "T3.2b", "theorem", _CJ7, _f7cl, 2,
    SumSpec(C3, Fr(1), W_K3, HALF),
    _xyq(F7, "x", Fr(-5408, 27783), Fr(2992, 9261)),
    "-(5408/27783)x^2 + (2992/9261)p with p = x^2 + 7y^2",
)
_fixed(
    "T3.2c", "theorem", _CJ7, _f7cl, 2,
    SumSpec(C3, Fr(4096), W_K2, HALF, SIGN_HALF),
    _xyq(F7, "x", Fr(43, 1323), Fr(-13, 441)),
    "(43/1323)x^2 - (13/441)p with p = x^2 + 7y^2",
)
_fixed(
    "T3.2d", "theorem", _CJ7, _f7cl, 2,
    SumSpec(C3, Fr(4096), W_K3, HALF, SIGN_HALF),
    _xyq(F7, "x", Fr(169, 55566), Fr(-31, 74088)),
    "(169/55566)x^2 - (31/74088)p with p = x^2 + 7y^2",
)
_fixed(
    "T3.3a", "theorem", "p == 1 (mod 3)", _f3cl, 2,
    SumSpec(C3, Fr(16), W_K2, HALF),
    _xyq(F3, "x", Fr(4, 9), Fr(-5, 9)),
    "(4/9)x^2 - (5/9)p with p = x^2 + 3y^2",
)
_fixed(
    "T3.3b", "theorem", "p == 1 (mod 3)", _f3cl, 2,
    SumSpec(C3, Fr(16), W_K3, HALF),
    _xyq(F3, "x", Fr(-2, 9), Fr(4, 9)),
    "-(2/9)x^2 + (4/9)p with p = x^2 + 3y^2",
)
_fixed(
    "T3.3c", "theorem", "p == 1 (mod 3)", _f3cl, 2,
    SumSpec(C3, Fr(256), W_K2, HALF, SIGN_HALF),
    _xyq(F3, "x", Fr(1, 9), Fr(-1, 18)),
    "(1/9)x^2 - p/18 with p = x^2 + 3y^2",
)
_fixed(
    "T3.3d", "theorem", "p == 1 (mod 3)", _f3cl, 2,
    SumSpec(C3, Fr(256), W_K3, HALF, SIGN_HALF),
    _xyq(F3, "x", Fr(1, 18), Fr(1, 72)),
    "(1/18)x^2 + p/72 with p = x^2 + 3y^2",
)
_fixed(
    "T3.4a", "theorem", "p == 1, 3 (mod 8)", _f2cl, 2,
    SumSpec(C3, Fr(-64), W_K2, HALF, SIGN_HALF),
    _xyq(F2, "x", Fr(1, 8), Fr(-3, 16)),
    "(1/8)x^2 - (3/16)p with p = x^2 + 2y^2",
)
_fixed(
    "T3.4b", "theorem", "p == 1, 3 (mod 8)", _f2cl, 2,
    SumSpec(C3, Fr(-64), W_K3, HALF, SIGN_HALF),
    _xyq(F2, "x", Fr(1, 32), Fr(-1, 64)),
    "(1/32)x^2 - p/64 with p = x^2 + 2y^2",
)
_fixed(
    "T3.5a", "theorem", "p == 1 (mod 4)", _f4cl, 2,
    SumSpec(C3, Fr(-512), W_K2, HALF, SIGN_QUARTER),
    _xyq(F4, "x", Fr(1, 27), Fr(-1, 18)),
    "(1/27)x^2 - p/18 with p = x^2 + 4y^2",
)
_fixed(
    "T3.5b", "theorem", "p == 1 (mod 4)", _f4cl, 2,
    SumSpec(C3, Fr(-512), W_K3, HALF, SIGN_QUARTER),
    _xyq(F4, "x", Fr(-1, 162), Fr(-1, 216)),
    "-(1/162)x^2 - p/216 with p = x^2 + 4y^2",
)
_fixed(
    "T3.6a", "theorem", "p > 3", _gt3, 2,
    SumSpec(C3, Fr(-8), W_K2, HALF),
    _split(F4, _xyq(F4, "x", Fr(10, 27), Fr(-4, 9)), _rmix("r1", Fr(1, 18), Fr(7, 27))),
    "(10/27)x^2 - (4/9)p if p = x^2 + 4y^2 else (7/27)p + (1/18) R1(p)",
)
_fixed(
    "T3.6b", "theorem", "p > 3", _gt3, 2,
    SumSpec(C3, Fr(-8), W_K3, HALF),
    _split(F4, _xyq(F4, "x", Fr(-4, 81), Fr(4, 27)), _rmix("r1", Fr(-2, 27), Fr(-10, 81))),
    "-(4/81)x^2 + (4/27)p if p = x^2 + 4y^2 else -(10/81)p - (2/27) R1(p)",
)
_fixed(
    "S-3.2", "cited", "p odd", _is_odd, 2,
    SumSpec(C3, Fr(-8), W_ONE, HALF),
    _split(F4, _xyq(F4, "x", 4, -2), _const()),
    "4x^2 - 2p if p = x^2 + 4y^2 else 0",
)
_fixed(
    "S-3.3", "cited", "p > 3", _gt3, 2,
    SumSpec(C3, Fr(-8), W_K, HALF),
    _split(F4, _xyq(F4, "x", Fr(-4, 3), 1), _const(Fr(-1, 3))),
    "p - (4/3)x^2 if p = x^2 + 4y^2 else -p/3",
)
_fixed(
    "T3.7a", "theorem", "p > 5", _gt5, 2,
    SumSpec(C2B31, Fr(-192), W_K2, FULL),
    _split(
        F27,
        _xyq(F27, "x", Fr(2, 125), Fr(-27, 250)),
        _b3sq(Fr(2, 25), Fr(19, 250)),
    ),
    "(2/125)x^2 - (27/250)p if 4p = x^2 + 27y^2 "
    "else (2/25)(2p+1) C(floor(2p/3), floor(p/3))^2 + (19/250)p",
)
_fixed(
    "T3.7b", "theorem", "p > 5", _gt5, 2,
    SumSpec(C2B31, Fr(-192), W_K3, FULL),
    _split(
        F27,
        _xyq(F27, "x", Fr(21, 6250), Fr(-221, 12500)),
        _b3sq(Fr(-27, 625), Fr(137, 12500)),
    ),
    "(21/6250)x^2 - (221/12500)p if 4p = x^2 + 27y^2 "
    "else -(27/625)(2p+1) C(floor(2p/3), floor(p/3))^2 + (137/12500)p",
)
_fixed(
    "T3.8a", "theorem", "p > 5", _gt5, 2,
    SumSpec(C2B42, Fr(-144), W_K2, FULL),
    _split(
        F3,
        _xyq(F3, "x", Fr(12, 125), Fr(-19, 125)),
        _rmix("r3", Fr(2, 25), Fr(13, 125)),
    ),
    "(12/125)x^2 - (19/125)p if p = x^2 + 3y^2 else (2/25) R3(p) + (13/125)p",
)
_fixed(
    "T3.8b", "theorem", "p > 5", _gt5, 2,
    SumSpec(C2B42, Fr(-144), W_K3, FULL),
    _split(
        F3,
        _xyq(F3, "x", Fr(62, 3125), Fr(6, 3125)),
        _rmix("r3", Fr(-48, 625), Fr(-37, 3125)),
    ),
    "(62/3125)x^2 + (6/3125)p if p = x^2 + 3y^2 else -(48/625) R3(p) - (37/3125)p",
)
_fixed(
    "T3.9a", "theorem", "p != 2, 3, 7", _not_2_3_7, 2,
    SumSpec(C2B42, Fr(648), W_K2, FULL),
    _split(
        F4,
        _xyq(F4, "x", Fr(34, 343), Fr(-8, 343)),
        _rmix("r1", Fr(9, 98), Fr(-9, 343)),
    ),
    "(34/343)x^2 - (8/343)p if p = x^2 + 4y^2 else (9/98) R1(p) - (9/343)p",
)
_fixed(
    "T3.9b", "theorem", "p != 2, 3, 7", _not_2_3_7, 2,
    SumSpec(C2B42, Fr(648), W_K3, FULL),
    _split(
        F4,
        _xyq(F4, "x", Fr(1436, 16807), Fr(792, 16807)),
        _rmix("r1", Fr(216, 2401), Fr(-1510, 16807)),
    ),
    "(1436/16807)x^2 + (792/16807)p if p = x^2 + 4y^2 "
    "else (216/2401) R1(p) - (1510/16807)p",
)
_fixed(
    "CJ-R3.1-1", "conjecture", _CJ7, _f7cl, 3,
    SumSpec(C3, Fr(1), W_K2, FULL),
    _xyq(F7, "x", Fr(736, 1323), Fr(-272, 441), cpp=Fr(20, 1323)),
    "(736/1323)x^2 - (272/441)p + (20/1323)p^2/x^2 with p = x^2 + 7y^2",
)
_fixed(
    "CJ-R3.1-2", "conjecture", _CJ7, _f7cl, 3,
    SumSpec(C3, Fr(1), W_K3, FULL),
    _xyq(F7, "x", Fr(-5408, 27783), Fr(2992, 9261), cpp=Fr(-1774, 27783)),
    "-(5408/27783)x^2 + (2992/9261)p - (1774/27783)p^2/x^2 with p = x^2 + 7y^2",
)
_fixed(
    "CJ-R3.1-3", "conjecture", _CJ7, _f7cl, 3,
    SumSpec(C3, Fr(4096), W_K2, HALF, SIGN_HALF),
    _xyq(F7, "x", Fr(43, 1323), Fr(-13, 441), cpp=Fr(-1, 1323)),
    "(43/1323)x^2 - (13/441)p - (1/1323)p^2/x^2 with p = x^2 + 7y^2",
)
_fixed(
    "CJ-R3.1-4", "conjecture", _CJ7, _f7cl, 3,
    SumSpec(C3, Fr(4096), W_K3, HALF, SIGN_HALF),
    _xyq(F7, "x", Fr(169, 55566), Fr(-31, 74088), cpp=Fr(-71, 444528)),
    "(169/55566)x^2 - (31/74088)p - (71/444528)p^2/x^2 with p = x^2 + 7y^2",
)

# ==============================================================================
# Sums weighted by 1/(k+1)^2 and 1/(k+1)^3
# ==============================================================================

_fixed(
    "T4.2a", "theorem", _CJ7, _f7cl, 2,
    SumSpec(C3, Fr(1), W_INV_K1_SQ, HALF),
    _xyq(F7, "y", -68, 1),
    "-68y^2 + p with p = x^2 + 7y^2",
)
_fixed(
    "T4.2b", "theorem", _CJ7, _f7cl, 2,
    SumSpec(C3, Fr(1), W_INV_K1_CU, HALF),
    _xyq(F7, "y", Fr(-201, 2), Fr(-9, 4), c0=Fr(1, 8)),
    "1/8 - (201/2)y^2 - (9/4)p with p = x^2 + 7y^2",
)
_fixed(
    "T4.2c", "theorem", _CJ7, _f7cl, 2,
    SumSpec(C3, Fr(4096), W_INV_K1_SQ, HALF, SIGN_HALF),
    _xyq(F7, "y", -1136, 64),
    "-1136y^2 + 64p with p = x^2 + 7y^2",
)
_fixed(
    "T4.2d", "theorem", _CJ7, _f7cl, 2,
    SumSpec(C3, Fr(4096), W_INV_K1_CU, HALF, SIGN_HALF),
    _xyq(F7, "y", 6432, -648, c0=512, c0_sign=SIGN_HALF),
    "512 (-1)^((p-1)/2) + 6432y^2 - 648p with p = x^2 + 7y^2",
)
_fixed(
    "T4.3a", "theorem", "p == 1 (mod 3)", _f3cl, 2,
    SumSpec(C3, Fr(16), W_INV_K1_SQ, HALF),
    _xyq(F3, "y", -24, 2),
    "-24y^2 + 2p with p = x^2 + 3y^2",
)
_fixed(
    "T4.3b", "theorem", "p == 1 (mod 3)", _f3cl, 2,
    SumSpec(C3, Fr(16), W_INV_K1_CU, HALF),
    _xyq(F3, "y", -24, 0, c0=2),
    "2 - 24y^2 with p = x^2 + 3y^2",
)
_fixed(
    "T4.3c", "theorem", "p == 1 (mod 3)", _f3cl, 2,
    SumSpec(C3, Fr(256), W_INV_K1_SQ, HALF, SIGN_HALF),
    _xyq(F3, "y", -48, 8),
    "-48y^2 + 8p with p = x^2 + 3y^2",
)
_fixed(
    "T4.3d", "theorem", "p == 1 (mod 3)", _f3cl, 2,
    SumSpec(C3, Fr(256), W_INV_K1_CU, HALF, SIGN_HALF),
    _xyq(F3, "y", 96, -24, c0=32, c0_sign=SIGN_HALF),
    "32 (-1)^((p-1)/2) + 96y^2 - 24p with p = x^2 + 3y^2",
)
_fixed(
    "T4.4a", "theorem", "p == 1, 3 (mod 8)", _f2cl, 2,
    SumSpec(C3, Fr(-64), W_INV_K1_SQ, HALF, SIGN_HALF),
    _xyq(F2, "y", -8, 0),
    "-8y^2 with p = x^2 + 2y^2",
)
_fixed(
    "T4.4b", "theorem", "p == 1, 3 (mod 8)", _f2cl, 2,
    SumSpec(C3, Fr(-64), W_INV_K1_CU, HALF, SIGN_HALF),
    _xyq(F2, "y", -32, 8, c0=-8, c0_sign=SIGN_HALF),
    "-8 (-1)^((p-1)/2) - 32y^2 + 8p with p = x^2 + 2y^2",
)
_fixed(
    "T4.5a", "theorem", "p == 1 (mod 4)", _f4cl, 2,
    SumSpec(C3, Fr(-512), W_INV_K1_SQ, HALF, SIGN_QUARTER),
    _xyq(F4, "y", 64, -8),
    "64y^2 - 8p with p = x^2 + 4y^2",
)
_fixed(
    "T4.5b", "theorem", "p == 1 (mod 4)", _f4cl, 2,
    SumSpec(C3, Fr(-512), W_INV_K1_CU, HALF, SIGN_QUARTER),
    _xyq(F4, "y", -384, 72, c0=-64, c0_sign=SIGN_QUARTER),
    "-64 (-1)^((p-1)/4) - 384y^2 + 72p with p = x^2 + 4y^2",
)
_fixed(
    "T4.6a", "theorem", "p odd", _is_odd, 2,
    SumSpec(C3, Fr(-8), W_INV_K1_SQ, HALF),
    _split(F4, _xyq(F4, "y", -32, 1), _rmix("r1", 3, 3)),
    "-32y^2 + p if p = x^2 + 4y^2 else 3p + 3 R1(p)",
)
_fixed(
    "T4.6b", "theorem", "p odd", _is_odd, 2,
    SumSpec(C3, Fr(-8), W_INV_K1_CU, HALF),
    _split(F4, _xyq(F4, "y", -48, 0, c0=-1), _rmix("r1", 12, 6, -1)),
    "-1 - 48y^2 if p = x^2 + 4y^2 else -1 + 6p + 12 R1(p)",
)
_fixed(
    "T4.7a", "theorem", "p > 3", _gt3, 2,
    SumSpec(C2B31, Fr(-192), W_INV_K1_SQ, FULL_MINUS_1),
    _split(F27, _xyq(F27, "x", Fr(1, 4), -2), _b3sq(13, Fr(3, 2))),
    "x^2/4 - 2p if 4p = x^2 + 27y^2 "
    "else 13(2p+1) C(floor(2p/3), floor(p/3))^2 + (3/2)p",
)
_fixed(
    "T4.7b", "theorem", "p > 3", _gt3, 2,
    SumSpec(C2B31, Fr(-192), W_INV_K1_CU, FULL_MINUS_1),
    _split(
        F27,
        _xyq(F27, "x", Fr(51, 8), -9, c0=-16),
        _b3sq(Fr(115, 2), Fr(-15, 4), -16),
    ),
    "-16 + (51/8)x^2 - 9p if 4p = x^2 + 27y^2 "
    "else -16 + (115/2)(2p+1) C(floor(2p/3), floor(p/3))^2 - (15/4)p",
)
_fixed(
    "T4.8a", "theorem", "p > 3", _gt3, 2,
    SumSpec(C2B42, Fr(-144), W_INV_K1_SQ, FULL_MINUS_1),
    _split(
        F3,
        _xyq(F3, "y", Fr(-40, 3), Fr(2, 3)),
        _rmix("r3", Fr(88, 9), Fr(14, 9)),
    ),
    "-(40/3)y^2 + (2/3)p if p = x^2 + 3y^2 else (88/9) R3(p) + (14/9)p",
)
_fixed(
    "T4.8b", "theorem", "p > 3", _gt3, 2,
    SumSpec(C2B42, Fr(-144), W_INV_K1_CU, FULL_MINUS_1),
    _split(
        F3,
        _xyq(F3, "y", Fr(-376, 9), Fr(56, 9), c0=-6),
        _rmix("r3", Fr(1360, 27), Fr(20, 27), -6),
    ),
    "-6 - (376/9)y^2 + (56/9)p if p = x^2 + 3y^2 "
    "else -6 + (1360/27) R3(p) + (20/27)p",
)
_fixed(
    "T4.9a", "theorem", "p > 3", _gt3, 2,
    SumSpec(C2B42, Fr(648), W_INV_K1_SQ, FULL_MINUS_1),
    _split(
        F4,
        _xyq(F4, "x", Fr(112, 9), Fr(-55, 9)),
        _rmix("r1", -11, Fr(-1, 9)),
    ),
    "(112/9)x^2 - (55/9)p if p = x^2 + 4y^2 else -11 R1(p) - p/9",
)
_fixed(
    "T4.9b", "theorem", "p > 3", _gt3, 2,
    SumSpec(C2B42, Fr(648), W_INV_K1_CU, FULL_MINUS_1),
    _split(
        F4,
        _xyq(F4, "x", Fr(-740, 27), Fr(248, 27), c0=27),
        _rmix("r1", Fr(-170, 3), Fr(122, 27), 27),
    ),
    "27 - (740/27)x^2 + (248/27)p if p = x^2 + 4y^2 "
    "else 27 - (170/3) R1(p) + (122/27)p",
)
_fixed(
    "CJ-R4.1-1", "conjecture", _CJ7, _f7cl, 3,
    SumSpec(C3, Fr(1), W_INV_K1_SQ, HALF),
    _xyq(F7, "y", -68, 1, cpp=Fr(-1, 4)),
    "-68y^2 + p - p^2/(4y^2) with p = x^2 + 7y^2",
)
_fixed(
    "CJ-R4.1-2", "conjecture", _CJ7, _f7cl, 3,
    SumSpec(C3, Fr(1), W_INV_K1_CU, HALF),
    _xyq(F7, "y", Fr(-201, 2), Fr(-9, 4), cpp=Fr(-39, 32), c0=Fr(1, 8)),
    "1/8 - (201/2)y^2 - (9/4)p - (39/32)p^2/y^2 with p = x^2 + 7y^2",
)
_fixed(
    "CJ-R4.1-3", "conjecture", _CJ7, _f7cl, 3,
    SumSpec(C3, Fr(4096), W_INV_K1_SQ, HALF, SIGN_HALF),
    _xyq(F7, "y", -1136, 64, cpp=2),
    "-1136y^2 + 64p + 2p^2/y^2 with p = x^2 + 7y^2",
)
_fixed(
    "CJ-R4.1-4", "conjecture", _CJ7, _f7cl, 3,
    SumSpec(C3, Fr(4096), W_INV_K1_CU, HALF, SIGN_HALF),
    _xyq(F7, "y", 6432, -648, cpp=-6, c0=512, c0_sign=SIGN_HALF),
    "512 (-1)^((p-1)/2) + 6432y^2 - 648p - 6p^2/y^2 with p = x^2 + 7y^2",
)

# ==============================================================================
# Full-range sums weighted by 1/(2k-1) and 1/(2k-1)^2
# ==============================================================================

_fixed(
    "T5.3a", "theorem", _CJ7, _f7cl, 2,
    SumSpec(C3, Fr(1), W_INV_2K1, FULL),
    _xyq(F7, "y", -36, 14),
    "-36y^2 + 14p with p = x^2 + 7y^2",
)
_fixed(
    "T5.3b", "theorem", _CJ7, _f7cl, 2,
    SumSpec(C3, Fr(1), W_INV_2K1_SQ, FULL),
    _xyq(F7, "y", -284, 34),
    "-284y^2 + 34p with p = x^2 + 7y^2",
)
_fixed(
    "T5.3c", "theorem", _CJ7, _f7cl, 2,
    SumSpec(C3, Fr(4096), W_INV_2K1, FULL, SIGN_HALF),
    _xyq(F7, "y", 22, Fr(-7, 4)),
    "22y^2 - (7/4)p with p = x^2 + 7y^2",
)
_fixed(
    "T5.3d", "theorem", _CJ7, _f7cl, 2,
    SumSpec(C3, Fr(4096), W_INV_2K1_SQ, FULL, SIGN_HALF),
    _xyq(F7, "y", -17, Fr(97, 64)),
    "-17y^2 + (97/64)p with p = x^2 + 7y^2",
)
_fixed(
    "T5.4a", "theorem", "p == 1 (mod 3)", _f3cl, 2,
    SumSpec(C3, Fr(16), W_INV_2K1, FULL),
    _xyq(F3, "y", 4, 0),
    "4y^2 with p = x^2 + 3y^2",
)
_fixed(
    "T5.4b", "theorem", "p == 1 (mod 3)", _f3cl, 2,
    SumSpec(C3, Fr(16), W_INV_2K1_SQ, FULL),
    _xyq(F3, "y", -12, 2),
    "-12y^2 + 2p with p = x^2 + 3y^2",
)
_fixed(
    "T5.4c", "theorem", "p == 1 (mod 3)", _f3cl, 2,
    SumSpec(C3, Fr(256), W_INV_2K1, FULL, SIGN_HALF),
    _xyq(F3, "y", 8, Fr(-3, 2)),
    "8y^2 - (3/2)p with p = x^2 + 3y^2",
)
_fixed(
    "T5.4d", "theorem", "p == 1 (mod 3)", _f3cl, 2,
    SumSpec(C3, Fr(256), W_INV_2K1_SQ, FULL, SIGN_HALF),
    _xyq(F3, "y", -6, Fr(5, 4)),
    "-6y^2 + (5/4)p with p = x^2 + 3y^2",
)
_fixed(
    "T5.5a", "theorem", "p == 1, 3 (mod 8)", _f2cl, 2,
    SumSpec(C3, Fr(-64), W_INV_2K1, FULL, SIGN_HALF),
    _xyq(F2, "x", -3, 1),
    "p - 3x^2 with p = x^2 + 2y^2",
)
_fixed(
    "T5.5b", "theorem", "p == 1, 3 (mod 8)", _f2cl, 2,
    SumSpec(C3, Fr(-64), W_INV_2K1_SQ, FULL, SIGN_HALF),
    _xyq(F2, "x", 1, 0),
    "x^2 with p = x^2 + 2y^2",
)
_fixed(
    "T5.6a", "theorem", "p == 1 (mod 4)", _f4cl, 2,
    SumSpec(C3, Fr(-512), W_INV_2K1, FULL, SIGN_QUARTER),
    _xyq(F4, "x", -3, Fr(5, 4)),
    "-3x^2 + (5/4)p with p = x^2 + 4y^2",
)
_fixed(
    "T5.6b", "theorem", "p == 1 (mod 4)", _f4cl, 2,
    SumSpec(C3, Fr(-512), W_INV_2K1_SQ, FULL, SIGN_QUARTER),
    _xyq(F4, "x", 2, Fr(-5, 8)),
    "2x^2 - (5/8)p with p = x^2 + 4y^2",
)
_fixed(
    "T5.7a", "theorem", "p odd", _is_odd, 2,
    SumSpec(C3, Fr(-8), W_INV_2K1, FULL),
    _split(F4, _xyq(F4, "x", -4, 0), _rmix("r1", -2, 2)),
    "-4x^2 if p = x^2 + 4y^2 else 2p - 2 R1(p)",
)
_fixed(
    "T5.7b", "theorem", "p odd", _is_odd, 2,
    SumSpec(C3, Fr(-8), W_INV_2K1_SQ, FULL),
    _split(F4, _xyq(F4, "x", -4, 2), _rmix("r1", 6, 0)),
    "-4x^2 + 2p if p = x^2 + 4y^2 else 6 R1(p)",
)
_fixed(
    "T5.8", "theorem", "p > 3", _gt3, 2,
    SumSpec(C2B31, Fr(-192), W_INV_2K1, FULL),
    _split(
        F27,
        _xyq(F27, "x", Fr(-3, 4), Fr(9, 8)),
        _b3sq(Fr(-1, 2), Fr(3, 8)),
    ),
    "-(3/4)x^2 + (9/8)p if 4p = x^2 + 27y^2 "
    "else -(1/2)(2p+1) C(floor(2p/3), floor(p/3))^2 + (3/8)p",
)
_fixed(
    "T5.9", "theorem", "p > 3", _gt3, 2,
    SumSpec(C2B42, Fr(-144), W_INV_2K1, FULL),
    _split(
        F3,
        _xyq(F3, "x", Fr(-28, 9), Fr(8, 9)),
        _rmix("r3", Fr(-8, 9), Fr(2, 3)),
    ),
    "-(28/9)x^2 + (8/9)p if p = x^2 + 3y^2 else -(8/9) R3(p) + (2/3)p",
)
_fixed(
    "T5.10", "theorem", "p > 3", _gt3, 2,
    SumSpec(C2B42, Fr(648), W_INV_2K1, FULL),
    _split(
        F4,
        _xyq(F4, "x", Fr(-76, 27), Fr(104, 81)),
        _rmix("r1", Fr(-2, 9), Fr(10, 81)),
    ),
    "-(76/27)x^2 + (104/81)p if p = x^2 + 4y^2 else -(2/9) R1(p) + (10/81)p",
)

# ==============================================================================
# Sums weighted by 1/(k+2) and 1/(k+3)
# ==============================================================================

_fixed(
    "T6.2a", "theorem", _CJ7, _f7cl, 2,
    SumSpec(C3, Fr(1), W_INV_K2, HALF),
    _xyq(F7, "y", Fr(-466, 27), Fr(29, 27)),
    "-(466/27)y^2 + (29/27)p with p = x^2 + 7y^2",
)
_fixed(
    "T6.2b", "theorem", _CJ7, _f7cl, 2,
    SumSpec(C3, Fr(4096), W_INV_K2, HALF, SIGN_HALF),
    _xyq(F7, "y", Fr(52616, 27), Fr(-34, 27)),
    "(52616/27)y^2 - (34/27)p with p = x^2 + 7y^2",
)
_fixed(
    "T6.3a", "theorem", "p == 1 (mod 3)", _f3cl, 2,
    SumSpec(C3, Fr(16), W_INV_K2, HALF),
    _xyq(F3, "x", Fr(64, 27), Fr(-4, 3)),
    "(64/27)x^2 - (4/3)p with p = x^2 + 3y^2",
)
_fixed(
    "T6.3b", "theorem", "p == 1 (mod 3)", _f3cl, 2,
    SumSpec(C3, Fr(256), W_INV_K2, HALF, SIGN_HALF),
    _xyq(F3, "x", Fr(-8, 27), Fr(10, 9)),
    "-(8/27)x^2 + (10/9)p with p = x^2 + 3y^2",
)
_fixed(
    "T6.4", "theorem", "p == 1, 3 (mod 8) and p > 3",
    lambda p: p > 3 and p % 8 in (1, 3), 2,
    SumSpec(C3, Fr(-64), W_INV_K2, HALF, SIGN_HALF),
    _xyq(F2, "x", 2, Fr(-8, 9)),
    "2x^2 - (8/9)p with p = x^2 + 2y^2",
)
_fixed(
    "T6.5", "theorem", "p == 1 (mod 4)", _f4cl, 2,
    SumSpec(C3, Fr(-512), W_INV_K2, HALF, SIGN_QUARTER),
    _xyq(F4, "x", Fr(-152, 27), Fr(190, 27)),
    "-(152/27)x^2 + (190/27)p with p = x^2 + 4y^2",
)
_fixed(
    "T6.6", "theorem", "p > 3", _gt3, 2,
    SumSpec(C3, Fr(-8), W_INV_K2, HALF),
    _split(F4, _xyq(F4, "x", Fr(64, 27), Fr(-35, 27)), _const(Fr(1, 9))),
    "(64/27)x^2 - (35/27)p if p = x^2 + 4y^2 else p/9",
)
_fixed(
    "T6.7", "theorem", "p > 5", _gt5, 2,
    SumSpec(C2B31, Fr(-192), W_INV_K2, FULL_MINUS_2),
    _split(F27, _xyq(F27, "x", Fr(2, 5), Fr(-7, 15)), _b3sq(-1, Fr(-1, 3))),
    "(2/5)x^2 - (7/15)p if 4p = x^2 + 27y^2 "
    "else -(2p+1) C(floor(2p/3), floor(p/3))^2 - p/3",
)
_fixed(
    "T6.8", "theorem", "p > 7", _gt7, 2,
    SumSpec(C2B42, Fr(-144), W_INV_K2, FULL_MINUS_2),
    _split(F3, _xyq(F3, "y", Fr(-32, 5), Fr(16, 15)), _rmix("r3", Fr(-4, 21))),
    "-(32/5)y^2 + (16/15)p if p = x^2 + 3y^2 else -(4/21) R3(p)",
)
_fixed(
    "T6.9", "theorem", "p > 7", _gt7, 2,
    SumSpec(C2B42, Fr(648), W_INV_K2, FULL_MINUS_2),
    _split(
        F4,
        _xyq(F4, "x", Fr(8, 7), Fr(-5, 21)),
        _rmix("r1", Fr(-6, 5), Fr(-1, 3)),
    ),
    "(8/7)x^2 - (5/21)p if p = x^2 + 4y^2 else -(6/5) R1(p) - p/3",
)
_fixed(
    "CJ-R6.1-1", "conjecture", _CJ7, _f7cl, 3,
    SumSpec(C3, Fr(1), W_INV_K2, HALF),
    _xyq(F7, "y", Fr(-466, 27), Fr(29, 27), cpp=Fr(17, 864)),
    "-(466/27)y^2 + (29/27)p + (17/864)p^2/y^2 with p = x^2 + 7y^2",
)
_fixed(
    "CJ-R6.1-2", "conjecture", _CJ7, _f7cl, 3,
    SumSpec(C3, Fr(1), W_INV_K3, HALF),
    _xyq(F7, "y", Fr(-36052, 3375), Fr(2378, 3375), cpp=Fr(1421, 108000)),
    "-(36052/3375)y^2 + (2378/3375)p + (1421/108000)p^2/y^2 with p = x^2 + 7y^2",
)
_fixed(
    "CJ-R6.1-3", "conjecture", _CJ7, _f7cl, 3,
    SumSpec(C3, Fr(4096), W_INV_K2, HALF, SIGN_HALF),
    _xyq(F7, "y", Fr(52616, 27), Fr(-34, 27), cpp=Fr(-20, 27)),
    "(52616/27)y^2 - (34/27)p - (20/27)p^2/y^2 with p = x^2 + 7y^2",
)
_fixed(
    "CJ-R6.1-4", "conjecture", _CJ7, _f7cl, 3,
    SumSpec(C3, Fr(4096), W_INV_K3, HALF, SIGN_HALF),
    _xyq(F7, "y", Fr(217125848, 3375), Fr(-250882, 3375), cpp=Fr(-83972, 3375)),
    "(217125848/3375)y^2 - (250882/3375)p - (83972/3375)p^2/y^2 with p = x^2 + 7y^2",
)

# ==============================================================================
# Parametric families over sampled p-adic parameters
# ==============================================================================


def _jsum(
    ctx: PrimeContext,
    t: int,
    a: int,
    *,
    weight: Weight = W_ONE,
    limit: str = FULL,
    mult: int = 1,
    base: int | None = None,
    central: bool = False,
) -> int:
    return evaluate_jacobi_sum(
        a, ctx.p, t, weight=weight, limit=limit, mult=mult, base=base,
        central=central, ctx=ctx,
    ).value


def _adm_none(p: int, ps: tuple[int, ...]) -> bool:
    return True


def _adm_t_unit(p: int, ps: tuple[int, ...]) -> bool:
    tt = ps[-1]
    return tt % p != 0 and (tt + 1) % p != 0


def _adm_a_t(p: int, ps: tuple[int, ...]) -> bool:
    a, tt = ps
    return a % p not in (0, p - 1) and tt % p != 0 and (tt + 1) % p != 0


def _adm_a_m(p: int, ps: tuple[int, ...]) -> bool:
    a, mm = ps
    return a % p not in (0, p - 1) and mm % p != 0


def _adm_m_unit(p: int, ps: tuple[int, ...]) -> bool:
    return ps[0] % p != 0


def _adm_a_m_wide(p: int, ps: tuple[int, ...]) -> bool:
    a, mm = ps
    return a % p not in (0, 1, p - 1, p - 2) and mm % p != 0


def _chk_pl22(ctx: PrimeContext, t: int, ps: tuple[int, ...]):
    a, tt = ps
    m = ctx.p**t
    s0 = _jsum(ctx, t, a, mult=-tt)
    rhs = _jsum(ctx, t, a, mult=-tt * (tt + 1), central=True)
    return [(s0 * s0 % m, rhs)]


_param(
    "P-L2.2", "lemma", "none", _is_odd, 2, ("a", "t"), _adm_none, _chk_pl22,
    "(sum_{k=0..p-1} C(a,k) C(-1-a,k) (-t)^k)^2 == "
    "sum_{k=0..p-1} C(2k,k) C(a,k) C(-1-a,k) (-t(t+1))^k (mod p^2)",
)


def _chk_pt21(ctx: PrimeContext, t: int, ps: tuple[int, ...]):
    a, tt = ps
    m = ctx.p**t
    lhs = _jsum(ctx, t, a, weight=W_INV_K1, limit=FULL_MINUS_1,
                mult=-tt * (tt + 1), central=True)
    s0 = _jsum(ctx, t, a, mult=-tt)
    s1 = _jsum(ctx, t, a, weight=W_K, mult=-tt)
    c = _fr(ctx, Fr(tt + 1, a * (a + 1) * tt), t)
    return [(lhs, (s0 * s0 - c * s1 % m * s1) % m)]


_param(
    "P-T2.1", "theorem", "a != 0, -1 and t(t+1) != 0 (mod p)", _is_odd, 2,
    ("a", "t"), _adm_a_t, _chk_pt21,
    "sum_{k=0..p-2} C(2k,k) C(a,k) C(-1-a,k) (-t(t+1))^k / (k+1) == "
    "S0^2 - (t+1)/(a(a+1)t) S1^2 (mod p^2), "
    "S_i = sum_{k=0..p-1} k^i C(a,k) C(-1-a,k) (-t)^k",
)


def _chk_peq22(ctx: PrimeContext, t: int, ps: tuple[int, ...]):
    a, tt = ps
    m = ctx.p**t
    s0 = _jsum(ctx, t, a, mult=-tt)
    s1 = _jsum(ctx, t, a, weight=W_K, mult=-tt)
    n1 = _jsum(ctx, t, a, weight=W_K, mult=-tt * (tt + 1), central=True)
    c = _fr(ctx, Fr(2 * tt + 1, tt + 1), t)
    return [(2 * s0 * s1 % m, c * n1 % m)]


_param(
    "P-eq2.2", "lemma", "t(t+1) != 0 (mod p)", _is_odd, 2,
    ("a", "t"), _adm_t_unit, _chk_peq22,
    "2 S0 S1 == (2t+1)/(t+1) sum_{k=0..p-1} k C(2k,k) C(a,k) C(-1-a,k) "
    "(-t(t+1))^k (mod p^2), S_i = sum_{k=0..p-1} k^i C(a,k) C(-1-a,k) (-t)^k",
)


def _chk_pt22(ctx: PrimeContext, t: int, ps: tuple[int, ...]):
    a, tt = ps
    p, m = ctx.p, ctx.p**t
    mult = -tt * (tt + 1)
    d = _jsum(ctx, t, a, mult=mult, central=True)
    if d % p == 0:
        return None
    n = _jsum(ctx, t, a, weight=W_K, mult=mult, central=True)
    lhs = _jsum(ctx, t, a, weight=W_INV_K1, limit=FULL_MINUS_1, mult=mult, central=True)
    c = _fr(ctx, Fr((2 * tt + 1) ** 2, 4 * a * (a + 1) * tt * (tt + 1)), t)
    rhs = (d - c * n % m * n % m * pow(d, -1, m)) % m
    return [(lhs, rhs)]


_param(
    "P-T2.2", "theorem",
    "a != 0, -1 and t(t+1) != 0 (mod p); requires D a unit", _is_odd, 2,
    ("a", "t"), _adm_a_t, _chk_pt22,
    "sum_{k=0..p-2} C(2k,k) C(a,k) C(-1-a,k) (-t(t+1))^k / (k+1) == "
    "D - (2t+1)^2/(4a(a+1)t(t+1)) N^2/D (mod p^2), D and N the plain and "
    "k-weighted sums of C(2k,k) C(a,k) C(-1-a,k) (-t(t+1))^k over k=0..p-1",
)


def _chk_pc21(ctx: PrimeContext, t: int, ps: tuple[int, ...]):
    (tt,) = ps
    p, m = ctx.p, ctx.p**t
    lhs = evaluate_sum(
        SumSpec(C3, Fr(-16, tt * (tt + 1)), W_INV_K1, HALF), p, t, ctx
    ).value
    s0 = evaluate_sum(SumSpec(C2, Fr(-16, tt), W_ONE, HALF), p, t, ctx).value
    s1 = evaluate_sum(SumSpec(C2, Fr(-16, tt), W_K, HALF), p, t, ctx).value
    c = _fr(ctx, Fr(4 * (tt + 1), tt), t)
    return [(lhs, (s0 * s0 + c * s1 % m * s1) % m)]


_param(
    "P-C2.1", "corollary", "t(t+1) != 0 (mod p)", _is_odd, 2,
    ("t",), _adm_t_unit, _chk_pc21,
    "sum_{k=0..(p-1)/2} C(2k,k)^3 (-t(t+1)/16)^k / (k+1) == "
    "S0^2 + 4(t+1)/t S1^2 (mod p^2), "
    "S_i = sum_{k=0..(p-1)/2} k^i C(2k,k)^2 (-t/16)^k",
)


def _pc2_pair(lprod: tuple[str, ...], rprod: tuple[str, ...], b: int, cnum: int, cden: int):
    def chk(ctx: PrimeContext, t: int, ps: tuple[int, ...]):
        (tt,) = ps
        p, m = ctx.p, ctx.p**t
        lhs = evaluate_sum(
            SumSpec(lprod, Fr(-b, tt * (tt + 1)), W_INV_K1, FULL_MINUS_1), p, t, ctx
        ).value
        s0 = evaluate_sum(SumSpec(rprod, Fr(-b, tt), W_ONE, FULL), p, t, ctx).value
        s1 = evaluate_sum(SumSpec(rprod, Fr(-b, tt), W_K, FULL), p, t, ctx).value
        c = _fr(ctx, Fr(cnum * (tt + 1), cden * tt), t)
        return [(lhs, (s0 * s0 + c * s1 % m * s1) % m)]

    return chk


_param(
    "P-C2.2", "corollary", "t(t+1) != 0 (mod p)", _gt3, 2,
    ("t",), _adm_t_unit, _pc2_pair(C2B31, CB31, 27, 9, 2),
    "sum_{k=0..p-2} C(2k,k)^2 C(3k,k) (-t(t+1)/27)^k / (k+1) == "
    "S0^2 + 9(t+1)/(2t) S1^2 (mod p^2), "
    "S_i = sum_{k=0..p-1} k^i C(2k,k) C(3k,k) (-t/27)^k",
)
_param(
    "P-C2.3", "corollary", "t(t+1) != 0 (mod p)", _gt3, 2,
    ("t",), _adm_t_unit, _pc2_pair(C2B42, CB42, 64, 16, 3),
    "sum_{k=0..p-2} C(2k,k)^2 C(4k,2k) (-t(t+1)/64)^k / (k+1) == "
    "S0^2 + 16(t+1)/(3t) S1^2 (mod p^2), "
    "S_i = sum_{k=0..p-1} k^i C(2k,k) C(4k,2k) (-t/64)^k",
)
_param(
    "P-C2.4", "corollary", "t(t+1) != 0 (mod p)", _gt5, 2,
    ("t",), _adm_t_unit, _pc2_pair(CB31B63, B31B63, 432, 36, 5),
    "sum_{k=0..p-2} C(2k,k) C(3k,k) C(6k,3k) (-t(t+1)/432)^k / (k+1) == "
    "S0^2 + 36(t+1)/(5t) S1^2 (mod p^2), "
    "S_i = sum_{k=0..p-1} k^i C(3k,k) C(6k,3k) (-t/432)^k",
)


def _pc2_self(prod: tuple[str, ...], b: int, cnum: int, cden: int, half: bool):
    lim_s = HALF if half else FULL
    lim_l = HALF if half else FULL_MINUS_1

    def chk(ctx: PrimeContext, t: int, ps: tuple[int, ...]):
        (tt,) = ps
        p, m = ctx.p, ctx.p**t
        base = Fr(-b, tt * (tt + 1))
        d = evaluate_sum(SumSpec(prod, base, W_ONE, lim_s), p, t, ctx).value
        if d % p == 0:
            return None
        n = evaluate_sum(SumSpec(prod, base, W_K, lim_s), p, t, ctx).value
        lhs = evaluate_sum(SumSpec(prod, base, W_INV_K1, lim_l), p, t, ctx).value
        c = _fr(ctx, Fr(cnum * (2 * tt + 1) ** 2, cden * tt * (tt + 1)), t)
        rhs = (d + c * n % m * n % m * pow(d, -1, m)) % m
        return [(lhs, rhs)]

    return chk


_param(
    "P-C2.5", "corollary",
    "t(t+1) != 0 (mod p); requires D a unit", _is_odd, 2,
    ("t",), _adm_t_unit, _pc2_self(C3, 16, 1, 1, True),
    "sum_{k=0..(p-1)/2} C(2k,k)^3 (-t(t+1)/16)^k / (k+1) == "
    "D + (2t+1)^2/(t(t+1)) N^2/D (mod p^2), D and N the plain and k-weighted "
    "half-range sums of C(2k,k)^3 (-t(t+1)/16)^k",
)
_param(
    "P-C2.6", "corollary",
    "t(t+1) != 0 (mod p); requires D a unit", _gt3, 2,
    ("t",), _adm_t_unit, _pc2_self(C2B31, 27, 9, 8, False),
    "sum_{k=0..p-2} C(2k,k)^2 C(3k,k) (-t(t+1)/27)^k / (k+1) == "
    "D + 9(2t+1)^2/(8t(t+1)) N^2/D (mod p^2), D and N the plain and "
    "k-weighted full-range sums of C(2k,k)^2 C(3k,k) (-t(t+1)/27)^k",
)
_param(
    "P-C2.7", "corollary",
    "t(t+1) != 0 (mod p); requires D a unit", _gt3, 2,
    ("t",), _adm_t_unit, _pc2_self(C2B42, 64, 4, 3, False),
    "sum_{k=0..p-2} C(2k,k)^2 C(4k,2k) (-t(t+1)/64)^k / (k+1) == "
    "D + 4(2t+1)^2/(3t(t+1)) N^2/D (mod p^2), D and N the plain and "
    "k-weighted full-range sums of C(2k,k)^2 C(4k,2k) (-t(t+1)/64)^k",
)
_param(
    "P-C2.8", "corollary",
    "t(t+1) != 0 (mod p); requires D a unit", _gt5, 2,
    ("t",), _adm_t_unit, _pc2_self(CB31B63, 432, 9, 5, False),
    "sum_{k=0..p-2} C(2k,k) C(3k,k) C(6k,3k) (-t(t+1)/432)^k / (k+1) == "
    "D + 9(2t+1)^2/(5t(t+1)) N^2/D (mod p^2), D and N the plain and "
    "k-weighted full-range sums of C(2k,k) C(3k,k) C(6k,3k) (-t(t+1)/432)^k",
)


def _chk_pt31(ctx: PrimeContext, t: int, ps: tuple[int, ...]):
    a, mm = ps
    p, m = ctx.p, ctx.p**t

    def js(w: Weight, lim: str = FULL) -> int:
        return _jsum(ctx, t, a, weight=w, limit=lim, base=mm, central=True)

    s = js(W_ONE)
    sk = js(W_K)
    sk2 = js(W_K2)
    sk3 = js(W_K3)
    sinv = js(W_INV_K1, FULL_MINUS_1)
    aa = a * (a + 1)
    half_m4 = _fr(ctx, Fr(mm - 4, 2), t)
    pairs = [
        (half_m4 * sk2 % m, (sk - 2 * aa % m * s % m + aa % m * sinv) % m),
        (half_m4 * sk3 % m,
         (3 * sk2 - (2 * aa - 1) % m * sk % m - aa % m * s % m) % m),
    ]
    if (mm - 4) % p:
        den = (mm - 4) ** 2
        c1 = _fr(ctx, Fr((2 - 4 * aa) * (mm - 4) + 12, den), t)
        c2 = _fr(ctx, Fr(-2 * aa * (mm + 8), den), t)
        c3 = _fr(ctx, Fr(12 * aa, den), t)
        pairs.append((sk3, (c1 * sk % m + c2 * s % m + c3 * sinv) % m))
    return pairs


_param(
    "P-T3.1", "theorem", "a != 0, -1 and m != 0 (mod p)", _is_odd, 3,
    ("a", "m"), _adm_a_m, _chk_pt31,
    "with T_i = sum k^i C(2k,k) C(a,k) C(-1-a,k) / m^k (full range) and "
    "V = sum_{k=0..p-2} C(2k,k) C(a,k) C(-1-a,k) / (m^k (k+1)): "
    "(m-4)/2 T_2 == T_1 - 2a(a+1) T_0 + a(a+1) V, "
    "(m-4)/2 T_3 == 3 T_2 - (2a(a+1)-1) T_1 - a(a+1) T_0, and for m != 4: "
    "T_3 == ((2-4a(a+1))(m-4)+12)/(m-4)^2 T_1 - 2a(a+1)(m+8)/(m-4)^2 T_0 "
    "+ 12a(a+1)/(m-4)^2 V (mod p^3)",
)


def _chk_pc31(ctx: PrimeContext, t: int, ps: tuple[int, ...]):
    (mm,) = ps
    p, m = ctx.p, ctx.p**t

    def cs(w: Weight) -> int:
        return evaluate_sum(SumSpec(C3, Fr(16 * mm), w, HALF), p, t, ctx).value

    s = cs(W_ONE)
    sk = cs(W_K)
    sk2 = cs(W_K2)
    sinv = cs(W_INV_K1)
    half_m4 = _fr(ctx, Fr(mm - 4, 2), t)
    pairs = [
        (half_m4 * sk2 % m,
         (sk + _fr(ctx, Fr(1, 2), t) * s % m - _fr(ctx, Fr(1, 4), t) * sinv) % m)
    ]
    if (mm - 4) % p:
        sk3 = cs(W_K3)
        den = (mm - 4) ** 2
        pairs.append(
            (sk3,
             (_fr(ctx, Fr(3 * mm, den), t) * sk % m
              + _fr(ctx, Fr(mm + 8, 2 * den), t) * s % m
              - _fr(ctx, Fr(3, den), t) * sinv) % m)
        )
    return pairs


_param(
    "P-C3.1", "corollary", "m != 0 (mod p)", _is_odd, 3,
    ("m",), _adm_m_unit, _chk_pc31,
    "with T_i = sum_{k=0..(p-1)/2} k^i C(2k,k)^3 / (16m)^k and "
    "V the 1/(k+1)-weighted half-range sum: "
    "(m-4)/2 T_2 == T_1 + T_0/2 - V/4, and for m != 4: "
    "T_3 == 3m/(m-4)^2 T_1 + (m+8)/(2(m-4)^2) T_0 - 3/(m-4)^2 V (mod p^3)",
)


def _chk_pt41(ctx: PrimeContext, t: int, ps: tuple[int, ...]):
    a, mm = ps
    p, m = ctx.p, ctx.p**t

    def js(w: Weight, lim: str = FULL) -> int:
        return _jsum(ctx, t, a, weight=w, limit=lim, base=mm, central=True)

    s = js(W_ONE)
    sk = js(W_K)
    sinv = js(W_INV_K1, FULL_MINUS_1)
    sinv2 = js(W_INV_K1_SQ, FULL_MINUS_1)
    sinv3 = js(W_INV_K1_CU, FULL_MINUS_1)
    aa = a * (a + 1)
    lhs1 = 2 * aa % m * sinv2 % m
    rhs1 = ((mm - 4) % m * sk % m + 2 * s + (4 * aa - 2) % m * sinv) % m
    lhs2 = 2 * aa % m * sinv3 % m
    ck = _fr(ctx, 2 * mm - 8 - Fr(mm - 4, aa), t)
    cs_ = _fr(ctx, mm - Fr(2, aa), t)
    ci = _fr(ctx, 8 * aa - 2 + Fr(2, aa), t)
    rhs2 = (-mm + ck * sk % m + cs_ * s % m + ci * sinv) % m
    return [(lhs1, rhs1), (lhs2, rhs2)]


_param(
    "P-T4.1", "theorem", "a != 0, -1 and m != 0 (mod p)", _is_odd, 3,
    ("a", "m"), _adm_a_m, _chk_pt41,
    "with T_i and V_e = sum_{k=0..p-2} C(2k,k) C(a,k) C(-1-a,k)/(m^k (k+1)^e): "
    "2a(a+1) V_2 == (m-4) T_1 + 2 T_0 + (4a(a+1)-2) V_1 and "
    "2a(a+1) V_3 == -m + (2m-8-(m-4)/(a(a+1))) T_1 + (m-2/(a(a+1))) T_0 "
    "+ (8a(a+1)-2+2/(a(a+1))) V_1 (mod p^3)",
)


def _chk_pc41(ctx: PrimeContext, t: int, ps: tuple[int, ...]):
    (mm,) = ps
    p, m = ctx.p, ctx.p**t

    def cs(w: Weight) -> int:
        return evaluate_sum(SumSpec(C3, Fr(16 * mm), w, HALF), p, t, ctx).value

    s = cs(W_ONE)
    sk = cs(W_K)
    sinv = cs(W_INV_K1)
    sinv2 = cs(W_INV_K1_SQ)
    sinv3 = cs(W_INV_K1_CU)
    rhs1 = ((8 - 2 * mm) % m * sk % m - 4 * s + 6 * sinv) % m
    rhs2 = (2 * mm - 12 * (mm - 4) % m * sk % m
            - 2 * (mm + 8) % m * s % m + 24 * sinv) % m
    return [(sinv2, rhs1), (sinv3, rhs2)]


_param(
    "P-C4.1", "corollary", "m != 0 (mod p)", _is_odd, 3,
    ("m",), _adm_m_unit, _chk_pc41,
    "with half-range T_i and V_e = sum C(2k,k)^3/((16m)^k (k+1)^e): "
    "V_2 == (8-2m) T_1 - 4 T_0 + 6 V_1 and "
    "V_3 == 2m - 12(m-4) T_1 - 2(m+8) T_0 + 24 V_1 (mod p^3)",
)


def _chk_pt51(ctx: PrimeContext, t: int, ps: tuple[int, ...]):
    a, mm = ps
    m = ctx.p**t

    def js(w: Weight, lim: str = FULL) -> int:
        return _jsum(ctx, t, a, weight=w, limit=lim, base=mm, central=True)

    lhs = js(W_INV_2K1)
    s = js(W_ONE)
    sk = js(W_K)
    sinv = js(W_INV_K1, FULL_MINUS_1)
    c1 = _fr(ctx, Fr(8, mm) - 2, t)
    c3 = _fr(ctx, Fr(8 * a * (a + 1), mm), t)
    return [(lhs, (c1 * sk % m - s - c3 * sinv % m) % m)]


_param(
    "P-T5.1", "theorem", "a != 0, -1 and m != 0 (mod p)", _is_odd, 3,
    ("a", "m"), _adm_a_m, _chk_pt51,
    "sum_{k=0..p-1} C(2k,k) C(a,k) C(-1-a,k)/(m^k (2k-1)) == "
    "(8/m - 2) T_1 - T_0 - 8a(a+1)/m V_1 (mod p^3), with T_i the k^i-weighted "
    "full-range sums and V_1 the 1/(k+1)-weighted sum over k=0..p-2",
)


def _chk_pc51(ctx: PrimeContext, t: int, ps: tuple[int, ...]):
    (mm,) = ps
    p, m = ctx.p, ctx.p**t
    lhs = evaluate_sum(SumSpec(C3, Fr(16 * mm), W_INV_2K1, FULL), p, t, ctx).value

    def cs(w: Weight) -> int:
        return evaluate_sum(SumSpec(C3, Fr(16 * mm), w, HALF), p, t, ctx).value

    c1 = _fr(ctx, Fr(8, mm) - 2, t)
    c3 = _fr(ctx, Fr(2, mm), t)
    rhs = (c1 * cs(W_K) % m - cs(W_ONE) + c3 * cs(W_INV_K1) % m) % m
    return [(lhs, rhs)]


_param(
    "P-C5.1", "corollary", "m != 0 (mod p)", _is_odd, 3,
    ("m",), _adm_m_unit, _chk_pc51,
    "sum_{k=0..p-1} C(2k,k)^3/((16m)^k (2k-1)) == (8/m - 2) T_1 - T_0 "
    "+ (2/m) V_1 (mod p^3), with T_i, V_1 the half-range k^i- and "
    "1/(k+1)-weighted sums of C(2k,k)^3/(16m)^k",
)


def _chk_pt52(ctx: PrimeContext, t: int, ps: tuple[int, ...]):
    (mm,) = ps
    p, m = ctx.p, ctx.p**t
    lhs = evaluate_sum(SumSpec(C3, Fr(16 * mm), W_INV_2K1_SQ, FULL), p, t, ctx).value

    def cs(w: Weight) -> int:
        return evaluate_sum(SumSpec(C3, Fr(16 * mm), w, HALF), p, t, ctx).value

    c1 = _fr(ctx, 4 - Fr(16, mm), t)
    c2 = _fr(ctx, 1 + Fr(4, mm), t)
    c3 = _fr(ctx, Fr(6, mm), t)
    rhs = (c1 * cs(W_K) % m + c2 * cs(W_ONE) % m - c3 * cs(W_INV_K1) % m) % m
    return [(lhs, rhs)]


_param(
    "P-T5.2", "theorem", "m != 0 (mod p)", _is_odd, 3,
    ("m",), _adm_m_unit, _chk_pt52,
    "sum_{k=0..p-1} C(2k,k)^3/((16m)^k (2k-1)^2) == (4 - 16/m) T_1 "
    "+ (1 + 4/m) T_0 - (6/m) V_1 (mod p^3), with T_i, V_1 the half-range "
    "k^i- and 1/(k+1)-weighted sums of C(2k,k)^3/(16m)^k",
)


def _chk_pt61(ctx: PrimeContext, t: int, ps: tuple[int, ...]):
    a, mm = ps
    m = ctx.p**t

    def js(w: Weight, lim: str = FULL) -> int:
        return _jsum(ctx, t, a, weight=w, limit=lim, base=mm, central=True)

    lhs = js(W_INV_K2, FULL_MINUS_2)
    s = js(W_ONE)
    sk = js(W_K)
    sinv = js(W_INV_K1, FULL_MINUS_1)
    den = 6 * (a - 1) * (a + 2)
    c1 = _fr(ctx, Fr(4 - mm, den), t)
    c2 = _fr(ctx, Fr(mm - 6, den), t)
    c3 = _fr(ctx, Fr(2 * a * (a + 1) - mm, den), t)
    return [(lhs, (c1 * sk % m + c2 * s % m + c3 * sinv) % m)]


_param(
    "P-T6.1", "theorem", "a != 0, 1, -1, -2 and m != 0 (mod p)", _gt3, 3,
    ("a", "m"), _adm_a_m_wide, _chk_pt61,
    "sum_{k=0..p-3} C(2k,k) C(a,k) C(-1-a,k)/(m^k (k+2)) == "
    "(4-m)/(6(a-1)(a+2)) T_1 + (m-6)/(6(a-1)(a+2)) T_0 "
    "+ (2a(a+1)-m)/(6(a-1)(a+2)) V_1 (mod p^3)",
)


def _chk_pc61(ctx: PrimeContext, t: int, ps: tuple[int, ...]):
    (mm,) = ps
    p, m = ctx.p, ctx.p**t

    def cs(w: Weight) -> int:
        return evaluate_sum(SumSpec(C3, Fr(16 * mm), w, HALF), p, t, ctx).value

    lhs = cs(W_INV_K2)
    c1 = _fr(ctx, Fr(2 * mm - 8, 27), t)
    c2 = _fr(ctx, Fr(2 * mm - 12, 27), t)
    c3 = _fr(ctx, Fr(2 * mm + 1, 27), t)
    rhs = (c1 * cs(W_K) % m - c2 * cs(W_ONE) % m + c3 * cs(W_INV_K1) % m) % m
    return [(lhs, rhs)]


_param(
    "P-C6.1", "corollary", "m != 0 (mod p)", _gt3, 3,
    ("m",), _adm_m_unit, _chk_pc61,
    "sum_{k=0..(p-1)/2} C(2k,k)^3/((16m)^k (k+2)) == (2m-8)/27 T_1 "
    "- (2m-12)/27 T_0 + (2m+1)/27 V_1 (mod p^3), with T_i, V_1 the "
    "half-range k^i- and 1/(k+1)-weighted sums of C(2k,k)^3/(16m)^k",
)


def statement_modexp(stmt: Statement, p: int) -> int:
    """The working modulus exponent for a statement at prime p."""
    if callable(stmt.modexp):
        return stmt.modexp(p)
    return stmt.modexp


def by_status(status: str) -> list[str]:
    return [sid for sid, s in REGISTRY.items() if s.status == status]
