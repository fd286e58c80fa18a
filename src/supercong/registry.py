"""Registry of congruence statements over binomial-product sums.

Each entry couples a left-hand side (usually a truncated sum of binomial
coefficient products) with an exact right-hand side and the primes it
applies to.  Fixed statements check one congruence per prime; parametric
statements check a family of congruences at deterministically sampled
parameter tuples.

Claims are data, so ``list --claims`` prints the values the engine
checks.  A ``Cond`` is both the predicate on p and its text, a ``Hyp``
both the predicate on a parametric statement's parameters and its
text, and a ``ByClass`` modulus exponent and a ``SumSpec`` left-hand
side print themselves too.  A fixed right-hand side is a ``Lin``, a sum of
rational multiples of atoms and of their products, or a ``Split`` of two
such forms by the class of p; each gives its exact value at a context
and its claim text.  The atoms are x, x^2, y^2, p/x, p^2/x^2 and p^2/y^2
over a quadratic form of the prime (p = x^2 + 4y^2, x^2 + 2y^2,
x^2 + 3y^2, x^2 + 7y^2, 4p = x^2 + 27y^2), p, R1 and R3, signs such as
(-1)^((p-1)/2), (p|3), (6|p) and (x|3), distinguished binomials C(n, k)
and their powers and quotients p^e / C(n, k)^e, q_2(p), 2^(p-1),
2^(p-1) - 1 and 3^(p-1) - 1, and the Euler and U tails p^3 E(p-3) and
p^3 U(p-3).  A product prints its factors side by side, and a single
term times a form of several terms prints factored, as in
(x|3) (2x - p/(2x)).  A parametric statement's ``Rel``, equations between
Lins in one sample's named sums, is both its check and its claim.

Every statement runs on a context at its own modulus exponent t, so
``ctx.P`` = p^t is its modulus.  A closed form's value is exact, a
Fraction or an int, e.g. (3/5)p - (1/5)x^2, and ``_fixed`` reduces it
once, mod ``ctx.P``, with ``_fr``, which is also the one place that raises
DenominatorNotUnit.  Its leaves are exact integers or residues mod
``ctx.P`` (2^(p-1), binomials, Fermat quotients, Euler and U numbers), or
R1/R3, known mod p^2 only, whose atoms (``_mod_p2``) raise ModulusTooHigh
above it; over p = x^2 + 4y^2, ``_x`` signs x == 1 (mod 4) beside
``_x_where``, which prints that sign.  The unit invariant that keeps
this exact: a closed form divides only by exact integers (such as x) or
by ``ctx.binom`` values, and ``ctx.binom`` raises DenominatorNotUnit when
p divides the binomial, so no division by a residue can cancel a factor p
unseen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Iterable, Union

from . import quadform, special
from .binomials import B22, B31, B42, B63, PRODUCT_FORMS
from .context import PrimeContext
from .errors import ModulusTooHigh
from .padic import Residue, residue_from_rational
from .quadform import F2, F3, F4, F7, F27
from .sums import (
    FULL,
    FULL_MINUS_1,
    FULL_MINUS_2,
    HALF,
    POLE_TAGS,
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
)

Fr = Fraction

C2 = (B22, B22)
C3 = (B22, B22, B22)
C2B31 = (B22, B22, B31)
C2B42 = (B22, B22, B42)
CB31 = (B22, B31)
CB42 = (B22, B42)
CB31B63 = (B22, B31, B63)

STATUSES = ("theorem", "lemma", "corollary", "cited", "conjecture")

Applies = Callable[[int], bool]
ModExp = Union[int, Callable[[int], int]]
Side = Callable[[PrimeContext], int]
# A closed form: the exact value of a side at ctx, reduced by _reduced
Value = Callable[[PrimeContext], Union[Fraction, int]]
Check = Callable[[PrimeContext, tuple[int, ...]], "list[tuple[int, int]] | None"]


@dataclass(frozen=True)
class Fixed:
    """One congruence: lhs(ctx) == rhs(ctx) mod ctx.P when applies(p)."""

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

    ``admissible`` is the parameters' hypothesis, a ``Hyp``: it names the
    parameters, admits a tuple and prints the condition.  ``check``
    returns (lhs, rhs) pairs for one admissible tuple, or None when the
    tuple fails the hypothesis's unit requirement and must be skipped.
    """

    sid: str
    status: str
    claim: str
    applies: Applies
    modexp: ModExp
    admissible: Hyp
    check: Check
    note: str = ""

    @property
    def params(self) -> tuple[str, ...]:
        return tuple(self.admissible.avoid)

    @property
    def condition(self) -> str:
        return str(self.admissible)


Statement = Union[Fixed, Parametric]

REGISTRY: dict[str, Statement] = {}

# Statements whose left-hand side is a single registered sum, keyed by id.
# Exposed so oracle tests can re-evaluate each sum with exact rationals.
SUM_SPECS: dict[str, SumSpec] = {}


# -- conditions and moduli -----------------------------------------------------

def _ints(ns: Iterable[int]) -> str:
    return ", ".join(map(str, ns))


class Cond:
    """The odd primes p > above with p mod ``mod`` in ``residues``, less
    the excluded ones.  Called, it is the predicate; str() is its text."""

    __slots__ = ("mod", "residues", "above", "excluded")

    def __init__(
        self, mod: int = 1, residues: tuple[int, ...] = (0,), above: int = 2,
        excluded: tuple[int, ...] = (),
    ):
        self.mod, self.residues, self.above, self.excluded = mod, residues, above, excluded

    def __call__(self, p: int) -> bool:
        return p > self.above and p % self.mod in self.residues and p not in self.excluded

    def __str__(self) -> str:
        parts = []
        if self.mod > 1:
            parts.append(f"p == {_ints(self.residues)} (mod {self.mod})")
        if self.above > 2:
            parts.append(f"p > {self.above}")
        if self.excluded:
            parts.append(f"p != {_ints(self.excluded)}")
        return " and ".join(parts) or "p odd"


class Hyp:
    """A parametric hypothesis: each parameter, in order, avoids the given
    residues mod p, and ``unit`` names a sum the relation needs to be a
    unit.  Called as (p, params), it is the predicate; str() is its text,
    where a set closed under x -> -1-x prints through x(x+1)."""

    __slots__ = ("unit", "avoid")

    def __init__(self, unit: str = "", **avoid: tuple[int, ...]):
        self.unit, self.avoid = unit, avoid

    def __call__(self, p: int, ps: tuple[int, ...]) -> bool:
        return all((x - c) % p for x, cs in zip(ps, self.avoid.values()) for c in cs)

    def without(self, name: str) -> Hyp:
        return Hyp(self.unit, **{x: cs for x, cs in self.avoid.items() if x != name})

    def __str__(self) -> str:
        parts = []
        for x, cs in self.avoid.items():
            if cs and all(-1 - c in cs for c in cs):
                parts.append(f"{x}({x}+1) != {_ints(dict.fromkeys(c * (c + 1) for c in cs))}")
            elif cs:
                parts.append(f"{x} != {_ints(cs)}")
        text = f"{' and '.join(parts)} (mod p)" if parts else "none"
        return text + (f"; requires {self.unit} a unit" if self.unit else "")


class ByClass:
    """Modulus exponent hi on the primes a form represents, lo elsewhere."""

    __slots__ = ("form", "hi", "lo")

    def __init__(self, form: str, hi: int, lo: int):
        self.form, self.hi, self.lo = form, hi, lo

    def __call__(self, p: int) -> int:
        return self.hi if quadform.applicable(p, self.form) else self.lo

    def __str__(self) -> str:
        return f"p^{self.hi} if {quadform.TEXT[self.form]} else p^{self.lo}"


# -- right-hand sides -----------------------------------------------------------

Coef = Union[Fraction, int]


class Atom:
    """A quantity right-hand sides are linear in: its claim text, its exact
    value at ctx, the form its x and y are read over and the text that
    states that form.  A fraction coefficient prints in parentheses before
    the text, as in (3/2)p and (1/2)p / C(n, k); an integer one prints
    before it too, after a space when the text is word-like, as in 2p and
    2 (2^(p-1)-1); a coefficient 1/d prints as ``over`` with d filled in,
    when given.  Atoms multiply: a product prints its factors side by
    side, and a product of monomials (``key`` set) is their merged monomial."""

    __slots__ = ("text", "value", "form", "where", "word", "over", "key")

    def __init__(
        self, text: str, value: Value, form: str | None = None, word: bool = False,
        over: str = "", where: str = "", key: tuple | None = None,
    ):
        self.text, self.value, self.form, self.word, self.over = text, value, form, word, over
        self.where = where or (quadform.TEXT[form] if form else "")
        self.key = key

    def __mul__(self, other: Atom) -> Atom:
        if not other.text:
            return self
        if not self.text:
            return other
        if self.key is not None and other.key is not None:
            return _mono(self.key + other.key)
        return Atom(
            f"{self.text} {other.text}", lambda ctx: self.value(ctx) * other.value(ctx),
            self.form or other.form, word=True, where=self.where or other.where,
        )

    def term(self, n: int, d: int) -> str:
        """The text of n/d times this atom, for n > 0."""
        if not self.text:
            return f"{n}/{d}" if d > 1 else str(n)
        if self.over and n == 1 and d > 1:
            return self.over.format(d)
        if d > 1:
            return f"({n}/{d}){self.text}"
        return ("" if n == 1 else f"{n} " if self.word else str(n)) + self.text


class Lin:
    """sum c_i atom_i, in the order the terms are written: value(ctx) is
    its exact value and str() its claim text.  Lins add, subtract, scale by
    rationals and multiply, and a rational alone is a constant term.  A
    product distributes over the terms, except that a single term times a
    form of several terms stays factored, c atom (form)."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[Coef, Atom], ...] = ()):
        self.terms = terms

    def __add__(self, other: Lin | Coef) -> Lin:
        return Lin(self.terms + _lin(other).terms)

    def __radd__(self, other: Coef) -> Lin:
        return _lin(other) + self

    def __sub__(self, other: Lin | Coef) -> Lin:
        return self + -_lin(other)

    def __rsub__(self, other: Coef) -> Lin:
        return _lin(other) + -self

    def __rmul__(self, c: Coef) -> Lin:
        return Lin(tuple([(c if k == 1 else c * k, atom) for k, atom in self.terms]))

    def __mul__(self, other: Lin) -> Lin:
        if len(self.terms) == 1 and len(other.terms) > 1:
            (c, atom), = self.terms
            factor = Atom(f"({other.body()})", other.value, other.form, where=other.where)
            return Lin(((c, atom * factor),))
        return Lin(tuple([(c * k, a * b) for c, a in self.terms for k, b in other.terms]))

    def __truediv__(self, other: Lin) -> Lin:
        """This form over a single monomial term."""
        (c, atom), = other.terms
        return Fr(1, c) * self * Lin(((1, _mono(tuple((s, -e) for s, e in atom.key))),))

    def __neg__(self) -> Lin:
        return Lin(tuple([(-k, atom) for k, atom in self.terms]))

    @property
    def form(self) -> str | None:
        return next((atom.form for _, atom in self.terms if atom.form), None)

    @property
    def where(self) -> str:
        return next((atom.where for _, atom in self.terms if atom.where), "")

    def value(self, ctx: PrimeContext) -> Coef:
        return sum(c * atom.value(ctx) for c, atom in self.terms)

    def body(self) -> str:
        """The terms' text, without the form they are read over."""
        text = ""
        for c, atom in self.terms:
            n = c.numerator
            term = atom.term(abs(n), c.denominator)
            if text:
                text += f" {'-' if n < 0 else '+'} {term}"
            else:
                text = f"-{term}" if n < 0 else term
        return text or "0"

    def __str__(self) -> str:
        where = self.where
        return self.body() + (f" with {where}" if where else "")


def _lin(x: Lin | Coef) -> Lin:
    return x if isinstance(x, Lin) else Lin(((x, _ONE),))


class Split:
    """main on the primes a form represents, other on the rest.  The form
    is main's, or given when main reads no x or y: for p > 3, p == 1 (mod 3)
    is F3 and p == 1 (mod 4) is F4."""

    __slots__ = ("main", "other", "form")

    def __init__(self, main: Lin, other: Lin, form: str | None = None):
        self.main, self.other, self.form = main, other, form or main.form

    def value(self, ctx: PrimeContext) -> Coef:
        part = self.main if quadform.applicable(ctx.p, self.form) else self.other
        return part.value(ctx)

    def __str__(self) -> str:
        return f"{self.main.body()} if {quadform.TEXT[self.form]} else {self.other.body()}"


def _atom(text: str, value: Value, **kw) -> Lin:
    return Lin(((1, Atom(text, value, **kw)),))


def _sign(exponent: str, e: Callable[[int], int]) -> Lin:
    """(-1)^exponent, with the exponent's value e(p)."""
    return _atom(f"(-1)^{exponent}", lambda ctx: -1 if e(ctx.p) % 2 else 1, word=True)


def _mod_p2(name: str, value: Callable[[int], Residue]) -> Lin:
    """name(p), known mod p^2 only: ModulusTooHigh above p^2."""

    def at(ctx: PrimeContext) -> int:
        if ctx.workexp > 2:
            raise ModulusTooHigh(f"{name} is known mod p^2 only, not mod p^{ctx.workexp}")
        return value(ctx.p).value

    return _atom(f"{name}(p)", at, word=True)


_ONE = Atom("", lambda ctx: 1, key=())
ZERO = Lin()
P = _atom("p", lambda ctx: ctx.p, over="p/{}")
R1 = _mod_p2("R1", special.r1)
R3 = _mod_p2("R3", special.r3)
SIGN2 = _sign("((p-1)/2)", lambda p: (p - 1) // 2)
SIGN4 = _sign("((p-1)/4)", lambda p: (p - 1) // 4)
# p = 3 (mod 4)
SIGN4_PLUS = _sign("((p+1)/4)", lambda p: (p + 1) // 4)
SIGN4_MINUS = _sign("((p-3)/4)", lambda p: (p - 3) // 4)
SIGN_FLOOR4 = _sign("floor(p/4)", lambda p: p // 4)
LEG3 = _atom("(p|3)", lambda ctx: 1 if ctx.p % 3 == 1 else -1, word=True)
LEG6 = _atom("(6|p)", lambda ctx: special.legendre(6, ctx.p), word=True)
# (x|3) with p = x^2 + 3y^2, where 3 does not divide x
X_LEG3 = _atom("(x|3)", lambda ctx: 1 if ctx.xy(F3)[0] % 3 == 1 else -1, form=F3, word=True)
Q2 = _atom(
    "q_2(p)", lambda ctx: special.fermat_quotient(2, ctx.p, ctx.workexp + 1).value, word=True
)
POW2 = _atom("2^(p-1)", lambda ctx: pow(2, ctx.p - 1, ctx.P), word=True)
POW2_1 = _atom("(2^(p-1)-1)", lambda ctx: pow(2, ctx.p - 1, ctx.P) - 1, word=True)
POW3_1 = _atom("(3^(p-1)-1)", lambda ctx: pow(3, ctx.p - 1, ctx.P) - 1, word=True)
# E and U are read through ``special``, where bench/tracing.py rebinds them
P3_U = _atom(
    "p^3 U(p-3)", lambda ctx: ctx.p**3 * special.u_numbers_mod(ctx.p - 3, ctx.p), word=True
)
P3_E = _atom(
    "p^3 E(p-3)", lambda ctx: ctx.p**3 * special.euler_numbers_mod(ctx.p - 3, ctx.p), word=True
)
# (2p+1) C(floor(2p/3), floor(p/3))^2, a p-unit binomial for p = 2 (mod 3)
B3_SQ = _atom(
    "(2p+1) C(floor(2p/3), floor(p/3))^2",
    lambda ctx: (2 * ctx.p + 1) * ctx.binom(2 * ctx.p // 3, ctx.p // 3) ** 2,
)


def x2(form: str) -> Lin:
    return _atom("x^2", lambda ctx: ctx.xy(form)[0] ** 2, form=form)


def y2(form: str) -> Lin:
    return _atom("y^2", lambda ctx: ctx.xy(form)[1] ** 2, form=form)


def p2_x2(form: str) -> Lin:
    return _atom(
        "p^2/x^2", lambda ctx: Fr(ctx.p**2, ctx.xy(form)[0] ** 2), form=form, over="p^2/({}x^2)"
    )


def p2_y2(form: str) -> Lin:
    return _atom(
        "p^2/y^2", lambda ctx: Fr(ctx.p**2, ctx.xy(form)[1] ** 2), form=form, over="p^2/({}y^2)"
    )


def _x(ctx: PrimeContext, form: str) -> int:
    x = ctx.xy(form)[0]
    return -x if form == F4 and x % 4 != 1 else x


def _x_where(form: str) -> str:
    return quadform.TEXT[form] + (", x == 1 (mod 4)" if form == F4 else "")


def x1(form: str) -> Lin:
    """x, which over F4 is signed so that x == 1 (mod 4), as its text says."""
    return _atom("x", lambda ctx: _x(ctx, form), form=form, where=_x_where(form), over="x/{}")


def p_x1(form: str) -> Lin:
    """p/x, with x as in x1."""
    return _atom(
        "p/x", lambda ctx: Fr(ctx.p, _x(ctx, form)), form=form, where=_x_where(form),
        over="p/({}x)",
    )


def binom(n: str, k: str, nk: Callable[[int], tuple[int, int]], e: int = 1) -> Lin:
    """C(n, k)^e with (n, k) = nk(p), printed as n and k."""
    power = f"^{e}" if e > 1 else ""
    return _atom(f"C({n}, {k}){power}", lambda ctx: ctx.binom(*nk(ctx.p)) ** e, word=True)


def p_over_binom(n: str, k: str, nk: Callable[[int], tuple[int, int]], e: int = 1) -> Lin:
    """p^e / C(n, k)^e with (n, k) = nk(p), printed as n and k."""
    power = f"^{e}" if e > 1 else ""
    return _atom(
        f"p{power} / C({n}, {k}){power}", lambda ctx: Fr(ctx.p, ctx.binom(*nk(ctx.p))) ** e,
        word=True,
    )


# The p-unit binomials of the closed forms, each at the primes it is read at:
# C(floor(3p/7), floor(p/7)) for p = 3, 5, 6 (mod 7)
_C7 = ("floor(3p/7)", "floor(p/7)", lambda p: (3 * p // 7, p // 7))
# C((2p-2)/3, (p-1)/3) for p = 1 (mod 3), C((2p+2)/3, (p+1)/3) for p = 2 (mod 3)
_C31 = ("(2p-2)/3", "(p-1)/3", lambda p: ((2 * p - 2) // 3, (p - 1) // 3))
_C32 = ("(2p+2)/3", "(p+1)/3", lambda p: ((2 * p + 2) // 3, (p + 1) // 3))
# C((p+1)/2, (p+1)/6) for p = 5 (mod 6)
_C6 = ("(p+1)/2", "(p+1)/6", lambda p: ((p + 1) // 2, (p + 1) // 6))
# C((p-1)/2, (p-1)/4) for p = 1 (mod 4), C((p-1)/2, (p-3)/4) for p = 3 (mod 4)
_C41 = ("(p-1)/2", "(p-1)/4", lambda p: ((p - 1) // 2, (p - 1) // 4))
_C43 = ("(p-1)/2", "(p-3)/4", lambda p: ((p - 1) // 2, (p - 3) // 4))
C7_SQ = binom(*_C7, e=2)
P2_OVER_C7_SQ = p_over_binom(*_C7, e=2)

Rhs = Union[Lin, Split]


# -- registration helpers ------------------------------------------------------


def _fr(ctx: PrimeContext, q: Fraction | int, den: int = 1) -> int:
    """Exact rational q/den mod P; DenominatorNotUnit if p divides its denominator."""
    return residue_from_rational(q.numerator, q.denominator * den, ctx.p, ctx.workexp).value


def _reduced(value: Value) -> Side:
    """The side that reduces a closed form's exact value once, mod P."""
    return lambda ctx: _fr(ctx, value(ctx))


def _sum_lhs(spec: SumSpec) -> Side:
    def lhs(ctx: PrimeContext) -> int:
        return evaluate_sum(spec, ctx.p, ctx.workexp, ctx).value

    return lhs


def mod_text(modexp: ModExp) -> str:
    """The text of a modulus: p, p^t, or a ByClass's two powers."""
    return str(modexp) if isinstance(modexp, ByClass) else "p" if modexp == 1 else f"p^{modexp}"


def _add(stmt: Statement) -> None:
    if stmt.sid in REGISTRY:
        raise ValueError(f"duplicate statement id {stmt.sid}")
    REGISTRY[stmt.sid] = stmt


def _fixed(
    sid: str, status: str, cond: Cond, modexp: ModExp, lhs: SumSpec | Lin, rhs: Rhs, *,
    note: str = "",
) -> None:
    """Register lhs == rhs where cond holds: lhs is a sum, or a closed form
    like rhs.  The claim is printed from both sides, and a closed form's
    exact value is reduced once, mod P."""
    claim = f"{lhs} == {rhs} (mod {mod_text(modexp)})"
    if isinstance(lhs, SumSpec):
        SUM_SPECS[sid] = lhs
        side = _sum_lhs(lhs)
    else:
        side = _reduced(lhs.value)
    _add(Fixed(sid, status, claim, str(cond), cond, modexp, side, _reduced(rhs.value), note))


# ==============================================================================
# Cited evaluations of full-range product sums
# ==============================================================================

_fixed(
    "S-RV1", "cited", Cond(above=3), 2,
    SumSpec(C2B31, Fr(108), W_ONE, FULL),
    Split(4 * x2(F3) - 2 * P, ZERO),
)
_fixed(
    "S-RV2", "cited", Cond(above=3), 2,
    SumSpec(C2B42, Fr(256), W_ONE, FULL),
    Split(4 * x2(F2) - 2 * P, ZERO),
)


_fixed(
    "S-RV3", "cited", Cond(above=3), 2,
    SumSpec(CB31B63, Fr(1728), W_ONE, FULL),
    Split(LEG3 * (4 * x2(F4) - 2 * P), ZERO),
)

# Conjectured full-range and (k+1)-weighted cube sums tied to x^2 + 7y^2

_fixed(
    "CJ-S7-intro-a", "conjecture", Cond(7, (1, 2, 4)), 3,
    SumSpec(C3, Fr(1), W_ONE, FULL),
    4 * x2(F7) - 2 * P - Fr(1, 4) * p2_x2(F7),
)
_fixed(
    "CJ-S7-intro-b", "conjecture", Cond(7, (3,)), 3,
    SumSpec(C3, Fr(1), W_ONE, FULL),
    -11 * P2_OVER_C7_SQ,
)
_fixed(
    "CJ-S7-intro-c", "conjecture", Cond(7, (5,)), 3,
    SumSpec(C3, Fr(1), W_ONE, FULL),
    -Fr(11, 16) * P2_OVER_C7_SQ,
)
_fixed(
    "CJ-S7-intro-d", "conjecture", Cond(7, (6,)), 3,
    SumSpec(C3, Fr(1), W_ONE, FULL),
    -Fr(11, 4) * P2_OVER_C7_SQ,
)
_fixed(
    "CJ-S9-intro-a", "conjecture", Cond(7, (1, 2, 4)), 3,
    SumSpec(C3, Fr(1), W_INV_K1, HALF),
    -44 * y2(F7) + 2 * P,
)
_fixed(
    "CJ-S9-intro-b", "conjecture", Cond(7, (3,)), 1,
    SumSpec(C3, Fr(1), W_INV_K1, HALF),
    -Fr(1, 7) * C7_SQ,
)
_fixed(
    "CJ-S9-intro-c", "conjecture", Cond(7, (5,)), 1,
    SumSpec(C3, Fr(1), W_INV_K1, HALF),
    -Fr(16, 7) * C7_SQ,
)
_fixed(
    "CJ-S9-intro-d", "conjecture", Cond(7, (6,)), 1,
    SumSpec(C3, Fr(1), W_INV_K1, HALF),
    -Fr(4, 7) * C7_SQ,
)

# ==============================================================================
# Lemmas: half-range square sums and mixed product sums
# ==============================================================================


_fixed(
    "S-L2.3a", "lemma", Cond(4, (1,)), 2,
    SumSpec(C2, Fr(-16), W_K, HALF),
    SIGN4 * (-Fr(1, 2) * x1(F4) + Fr(1, 4) * p_x1(F4)),
)
_fixed(
    "S-L2.3b", "lemma", Cond(4, (3,)), 2,
    SumSpec(C2, Fr(-16), W_K, HALF),
    Fr(1, 4) * SIGN4_PLUS * (binom(*_C43) * (1 + P - Fr(1, 2) * Q2 * P) + p_over_binom(*_C43)),
)
_fixed(
    "S-L2.4a", "lemma", Cond(above=3), 2,
    SumSpec(CB31, Fr(24), W_ONE, FULL),
    Split(binom(*_C31), p_over_binom(*_C32), form=F3),
)
_fixed(
    "S-L2.4b", "lemma", Cond(above=3), 2,
    SumSpec(CB31, Fr(24), W_K, FULL),
    Split(
        p_over_binom(*_C31) - binom(*_C31),
        -binom(*_C32) * (1 + P) - p_over_binom(*_C32),
        form=F3,
    ),
)
_fixed(
    "S-L2.5a", "lemma", Cond(above=3), 2,
    SumSpec(CB42, Fr(48), W_ONE, FULL),
    Split(X_LEG3 * (2 * x1(F3) - Fr(1, 2) * p_x1(F3)), Fr(3, 2) * p_over_binom(*_C6)),
)
_fixed(
    "S-L2.5b", "lemma", Cond(above=3), 2,
    SumSpec(CB42, Fr(48), W_K, FULL),
    Split(
        X_LEG3 * (-x1(F3) + Fr(1, 2) * p_x1(F3)),
        binom(*_C6) * (Fr(-1, 3) - Fr(1, 3) * P - Fr(2, 9) * POW2_1 + Fr(1, 4) * POW3_1)
        - Fr(3, 4) * p_over_binom(*_C6),
    ),
)
_fixed(
    "S-L2.6a", "lemma", Cond(above=3), 2,
    SumSpec(CB42, Fr(72), W_ONE, FULL),
    Split(
        LEG6 * binom(*_C41) * (1 - Fr(1, 2) * POW2_1),
        Fr(1, 3) * LEG6 * p_over_binom(*_C43),
        form=F4,
    ),
)
_fixed(
    "S-L2.6b", "lemma", Cond(above=3), 2,
    SumSpec(CB42, Fr(72), W_K, FULL),
    Split(
        LEG6 * (-Fr(1, 2) * p_over_binom(*_C41) + binom(*_C41) * (Fr(1, 2) - Fr(1, 4) * POW2_1)),
        LEG6 * (
            Fr(1, 6) * p_over_binom(*_C43)
            + binom(*_C43) * (Fr(3, 2) + Fr(3, 2) * P - Fr(3, 4) * POW2_1)
        ),
        form=F4,
    ),
)

# ==============================================================================
# Half-range cube sums weighted by 1/(k+1)
# ==============================================================================

_fixed(
    "T2.3a", "theorem", Cond(7, (1, 2, 4)), 2,
    SumSpec(C3, Fr(1), W_INV_K1, HALF),
    -44 * y2(F7) + 2 * P,
)
_fixed(
    "T2.3b", "theorem", Cond(7, (1, 2, 4)), 2,
    SumSpec(C3, Fr(4096), W_INV_K1, HALF, SIGN_HALF),
    72 * y2(F7) + 2 * P,
)
_fixed(
    "T2.4a", "theorem", Cond(3, (1,)), 2,
    SumSpec(C3, Fr(16), W_INV_K1, HALF),
    -16 * y2(F3) + 2 * P,
)
_fixed(
    "T2.4b", "theorem", Cond(3, (1,)), 2,
    SumSpec(C3, Fr(256), W_INV_K1, HALF, SIGN_HALF),
    -8 * y2(F3) + 2 * P,
)
_fixed(
    "T2.5", "theorem", Cond(8, (1, 3)), 2,
    SumSpec(C3, Fr(-64), W_INV_K1, HALF, SIGN_HALF),
    -12 * y2(F2) + 2 * P,
)
_fixed(
    "T2.6", "theorem", Cond(4, (1,)), 2,
    SumSpec(C3, Fr(-512), W_INV_K1, HALF, SIGN_QUARTER),
    -32 * y2(F4) + 2 * P,
)
_fixed(
    "T2.7", "theorem", Cond(), 2,
    SumSpec(C3, Fr(-8), W_INV_K1, HALF),
    Split(-24 * y2(F4) + 2 * P, Fr(1, 2) * R1 + P),
)

# ==============================================================================
# Full-range product sums with polynomial and 1/(k+1) weights
# ==============================================================================

_fixed(
    "T2.8a", "theorem", Cond(above=5), 2,
    SumSpec(C2B31, Fr(-192), W_K, FULL),
    Split(Fr(3, 5) * P - Fr(1, 5) * x2(F27), -Fr(1, 5) * P),
)
_fixed(
    "T2.8b", "theorem", Cond(above=5), 2,
    SumSpec(C2B31, Fr(-192), W_INV_K1, FULL_MINUS_1),
    Split(Fr(3, 2) * x2(F27) - 4 * P, 2 * B3_SQ + P),
)
_fixed(
    "T2.9a", "theorem", Cond(above=5), 2,
    SumSpec(C2B42, Fr(-144), W_K, FULL),
    Split(Fr(3, 5) * P - Fr(4, 5) * x2(F3), -Fr(1, 5) * P),
)
_fixed(
    "T2.9b", "theorem", Cond(above=3), 2,
    SumSpec(C2B42, Fr(-144), W_INV_K1, FULL_MINUS_1),
    Split(-16 * y2(F3) + 2 * P, Fr(4, 3) * R3 + Fr(2, 3) * P),
)
_fixed(
    "T2.10a", "theorem", Cond(excluded=(2, 3, 7)), 2,
    SumSpec(C2B42, Fr(648), W_K, FULL),
    Split(Fr(3, 7) * P - Fr(4, 7) * x2(F4), -Fr(1, 7) * P),
)
_fixed(
    "T2.10b", "theorem", Cond(excluded=(2, 3, 7)), 2,
    SumSpec(C2B42, Fr(648), W_INV_K1, FULL_MINUS_1),
    Split(-Fr(40, 3) * y2(F4) + 2 * P, -Fr(3, 2) * R1 - Fr(1, 3) * P),
)

# ==============================================================================
# Cited half- and full-range evaluations
# ==============================================================================

_fixed(
    "S-2.4", "cited", Cond(7, (1, 2, 4)), 2,
    SumSpec(C3, Fr(1), W_ONE, HALF),
    4 * x2(F7) - 2 * P,
)
_fixed(
    "S-2.5", "cited", Cond(7, (1, 2, 4)), 2,
    SumSpec(C3, Fr(1), W_K, HALF),
    Fr(8, 7) * P - Fr(32, 21) * x2(F7),
)
_fixed(
    "S-2.6", "cited", Cond(7, (1, 2, 4)), 2,
    SumSpec(C3, Fr(4096), W_ONE, HALF, SIGN_HALF),
    4 * x2(F7) - 2 * P,
)
_fixed(
    "S-2.7", "cited", Cond(7, (1, 2, 4)), 2,
    SumSpec(C3, Fr(4096), W_K, HALF, SIGN_HALF),
    Fr(10, 3) * y2(F7) - Fr(5, 42) * P,
)
_fixed(
    "S-2.8", "cited", Cond(3, (1,)), 2,
    SumSpec(C3, Fr(16), W_ONE, HALF),
    4 * x2(F3) - 2 * P,
)
_fixed(
    "S-2.9", "cited", Cond(3, (1,)), 2,
    SumSpec(C3, Fr(16), W_K, HALF),
    P - Fr(4, 3) * x2(F3),
)
_fixed(
    "S-2.10", "cited", Cond(3, (1,)), 2,
    SumSpec(C3, Fr(256), W_ONE, HALF, SIGN_HALF),
    4 * x2(F3) - 2 * P,
)
_fixed(
    "S-2.11", "cited", Cond(3, (1,)), 2,
    SumSpec(C3, Fr(256), W_K, HALF, SIGN_HALF),
    2 * y2(F3) - Fr(1, 6) * P,
)
_fixed(
    "S-2.12", "cited", Cond(8, (1, 3)), 2,
    SumSpec(C3, Fr(-64), W_ONE, HALF, SIGN_HALF),
    4 * x2(F2) - 2 * P,
)
_fixed(
    "S-2.13", "cited", Cond(8, (1, 3)), 2,
    SumSpec(C3, Fr(-64), W_K, HALF, SIGN_HALF),
    2 * y2(F2) - Fr(1, 4) * P,
)
_fixed(
    "S-2.14", "cited", Cond(4, (1,)), 2,
    SumSpec(C3, Fr(-512), W_ONE, HALF, SIGN_QUARTER),
    4 * x2(F4) - 2 * P,
)
_fixed(
    "S-2.15", "cited", Cond(4, (1,)), 2,
    SumSpec(C3, Fr(-512), W_K, HALF, SIGN_QUARTER),
    Fr(8, 3) * y2(F4) - Fr(1, 6) * P,
)


_fixed(
    "S-2.16", "cited", Cond(4, (1,)), 2,
    SumSpec(C2, Fr(-16), W_ONE, FULL),
    SIGN4 * (2 * x1(F4) - Fr(1, 2) * p_x1(F4)),
)
_fixed(
    "S-2.17", "cited", Cond(4, (3,)), 2,
    SumSpec(C2, Fr(-16), W_ONE, FULL),
    SIGN4_MINUS * p_over_binom(*_C43),
)
_fixed(
    "S-2.18", "cited", Cond(4, (1,)), 2,
    binom(*_C41, e=2),
    POW2 * (4 * x2(F4) - 2 * P),
)
_fixed(
    "S-Su1", "cited", Cond(excluded=(2, 7)), 3,
    SumSpec(C3, Fr(1), linear_weight(8, 21), FULL),
    8 * P,
)
_fixed(
    "S-OZ", "cited", Cond(), 2,
    SumSpec(C3, Fr(4096), linear_weight(5, 42), HALF),
    5 * SIGN2 * P,
)
_fixed(
    "S-L1", "cited", Cond(3, (1,)), 4,
    SumSpec(C3, Fr(256), linear_weight(1, 6), HALF),
    SIGN2 * P,
)
_fixed(
    "S-M2", "cited", Cond(8, (1, 3)), 3,
    SumSpec(C3, Fr(-64), linear_weight(1, 4), HALF),
    SIGN2 * P,
)
_fixed(
    "S-L2", "cited", Cond(4, (1,)), 2,
    SumSpec(C3, Fr(-512), linear_weight(1, 6), HALF),
    SIGN4 * P,
)
_fixed(
    "S-GZ", "cited", Cond(above=3), 3,
    SumSpec(C3, Fr(-8), linear_weight(1, 3), HALF),
    SIGN2 * P,
)
_fixed(
    "S-2.19", "cited", Cond(above=3), 2,
    SumSpec(C2B31, Fr(-192), W_ONE, FULL),
    Split(x2(F27) - 2 * P, ZERO),
)
_fixed(
    "S-2.20", "cited", Cond(above=3), 2,
    SumSpec(C2B42, Fr(-144), W_ONE, FULL),
    Split(4 * x2(F3) - 2 * P, ZERO),
)
_fixed(
    "S-2.21", "cited", Cond(above=3), 2,
    SumSpec(C2B42, Fr(648), W_ONE, FULL),
    Split(4 * x2(F4) - 2 * P, ZERO),
)

# ==============================================================================
# Conjectures: mod p^3 refinements and Euler-number tails
# ==============================================================================

_fixed(
    "CJ-R2.2-1", "conjecture", Cond(4, (1,)), 3,
    SumSpec(C3, Fr(-8), W_INV_K1, HALF),
    -24 * y2(F4) + 2 * P,
)


_fixed(
    "CJ-R2.2-2", "conjecture", Cond(above=3), ByClass(F4, 3, 2),
    SumSpec(C3, Fr(-512), W_INV_K1, HALF),
    Split(SIGN_FLOOR4 * (-32 * y2(F4) + 2 * P), SIGN_FLOOR4 * (-4 * R1 - 2 * P)),
)
_fixed(
    "CJ-R2.2-3", "conjecture", Cond(above=3), ByClass(F3, 3, 2),
    SumSpec(C3, Fr(16), W_INV_K1, HALF),
    Split(-16 * y2(F3) + 2 * P, -Fr(4, 3) * R3 - Fr(2, 3) * P),
)
_fixed(
    "CJ-R2.2-4", "conjecture", Cond(above=3), ByClass(F3, 3, 2),
    SumSpec(C3, Fr(256), W_INV_K1, HALF, SIGN_HALF),
    Split(-8 * y2(F3) + 2 * P, Fr(16, 3) * R3 + Fr(2, 3) * P),
)
_fixed(
    "CJ-R2.2-5", "conjecture", Cond(8, (1, 3), above=3), 3,
    SumSpec(C3, Fr(-64), W_INV_K1, HALF, SIGN_HALF),
    -12 * y2(F2) + 2 * P,
)
_fixed(
    "CJ-R2.2-6", "conjecture", Cond(7, (1, 2, 4)), 3,
    SumSpec(C3, Fr(4096), W_INV_K1, HALF, SIGN_HALF),
    72 * y2(F7) + 2 * P,
)
_fixed(
    "CJ-R2.3-S7-1", "conjecture", Cond(above=3), 3,
    SumSpec(C2B31, Fr(-192), W_ONE, FULL),
    Split(
        x2(F27) - 2 * P - p2_x2(F27),
        Fr(3, 4) * p_over_binom("floor(2p/3)", "floor(p/3)", lambda p: (2 * p // 3, p // 3), 2),
    ),
)
_fixed(
    "CJ-R2.3-S7-2", "conjecture", Cond(above=3), 3,
    SumSpec(C2B42, Fr(-144), W_ONE, FULL),
    Split(
        4 * x2(F3) - 2 * P - Fr(1, 4) * p2_x2(F3),
        p_over_binom("(p-1)/2", "(p-5)/6", lambda p: ((p - 1) // 2, (p - 5) // 6), 2),
    ),
)
_fixed(
    "CJ-R2.3-S7-3", "conjecture", Cond(above=3), 3,
    SumSpec(C2B42, Fr(648), W_ONE, FULL),
    Split(
        4 * x2(F4) - 2 * P - Fr(1, 4) * p2_x2(F4),
        -Fr(5, 36) * p_over_binom("(p-3)/2", "(p-3)/4", lambda p: ((p - 3) // 2, (p - 3) // 4), 2),
    ),
)
_fixed(
    "CJ-R2.3-S9-1", "conjecture", Cond(3, (1,), above=3), 3,
    SumSpec(C2B31, Fr(-192), W_INV_K1, FULL_MINUS_1),
    Fr(3, 2) * x2(F27) - 4 * P,
)
_fixed(
    "CJ-R2.3-S9-2", "conjecture", Cond(3, (1,), above=3), 3,
    SumSpec(C2B42, Fr(-144), W_INV_K1, FULL_MINUS_1),
    -16 * y2(F3) + 2 * P,
)
_fixed(
    "CJ-R2.3-S9-3", "conjecture", Cond(4, (1,), above=3), 3,
    SumSpec(C2B42, Fr(648), W_INV_K1, FULL_MINUS_1),
    -Fr(40, 3) * y2(F4) + 2 * P,
)


_fixed(
    "CJ-2.22", "conjecture", Cond(above=3), 4,
    SumSpec(C2B42, Fr(-144), linear_weight(1, 5), FULL),
    LEG3 * P + Fr(5, 2) * P3_U,
)


_fixed(
    "CJ-2.23", "conjecture", Cond(above=3, excluded=(149,)), 4,
    SumSpec(C2B42, Fr(648), linear_weight(1, 7), FULL),
    SIGN2 * P - Fr(745, 447) * P3_E,
    note="excluded prime: 149",
)


_fixed(
    "CJ-2.24", "conjecture", Cond(above=3), 4,
    SumSpec(C2B31, Fr(-192), linear_weight(1, 5), FULL),
    LEG3 * P + Fr(5, 3) * P3_U,
)

# ==============================================================================
# k^2- and k^3-weighted sums
# ==============================================================================

_fixed(
    "T3.2a", "theorem", Cond(7, (1, 2, 4)), 2,
    SumSpec(C3, Fr(1), W_K2, HALF),
    Fr(736, 1323) * x2(F7) - Fr(272, 441) * P,
)
_fixed(
    "T3.2b", "theorem", Cond(7, (1, 2, 4)), 2,
    SumSpec(C3, Fr(1), W_K3, HALF),
    -Fr(5408, 27783) * x2(F7) + Fr(2992, 9261) * P,
)
_fixed(
    "T3.2c", "theorem", Cond(7, (1, 2, 4)), 2,
    SumSpec(C3, Fr(4096), W_K2, HALF, SIGN_HALF),
    Fr(43, 1323) * x2(F7) - Fr(13, 441) * P,
)
_fixed(
    "T3.2d", "theorem", Cond(7, (1, 2, 4)), 2,
    SumSpec(C3, Fr(4096), W_K3, HALF, SIGN_HALF),
    Fr(169, 55566) * x2(F7) - Fr(31, 74088) * P,
)
_fixed(
    "T3.3a", "theorem", Cond(3, (1,)), 2,
    SumSpec(C3, Fr(16), W_K2, HALF),
    Fr(4, 9) * x2(F3) - Fr(5, 9) * P,
)
_fixed(
    "T3.3b", "theorem", Cond(3, (1,)), 2,
    SumSpec(C3, Fr(16), W_K3, HALF),
    -Fr(2, 9) * x2(F3) + Fr(4, 9) * P,
)
_fixed(
    "T3.3c", "theorem", Cond(3, (1,)), 2,
    SumSpec(C3, Fr(256), W_K2, HALF, SIGN_HALF),
    Fr(1, 9) * x2(F3) - Fr(1, 18) * P,
)
_fixed(
    "T3.3d", "theorem", Cond(3, (1,)), 2,
    SumSpec(C3, Fr(256), W_K3, HALF, SIGN_HALF),
    Fr(1, 18) * x2(F3) + Fr(1, 72) * P,
)
_fixed(
    "T3.4a", "theorem", Cond(8, (1, 3)), 2,
    SumSpec(C3, Fr(-64), W_K2, HALF, SIGN_HALF),
    Fr(1, 8) * x2(F2) - Fr(3, 16) * P,
)
_fixed(
    "T3.4b", "theorem", Cond(8, (1, 3)), 2,
    SumSpec(C3, Fr(-64), W_K3, HALF, SIGN_HALF),
    Fr(1, 32) * x2(F2) - Fr(1, 64) * P,
)
_fixed(
    "T3.5a", "theorem", Cond(4, (1,)), 2,
    SumSpec(C3, Fr(-512), W_K2, HALF, SIGN_QUARTER),
    Fr(1, 27) * x2(F4) - Fr(1, 18) * P,
)
_fixed(
    "T3.5b", "theorem", Cond(4, (1,)), 2,
    SumSpec(C3, Fr(-512), W_K3, HALF, SIGN_QUARTER),
    -Fr(1, 162) * x2(F4) - Fr(1, 216) * P,
)
_fixed(
    "T3.6a", "theorem", Cond(above=3), 2,
    SumSpec(C3, Fr(-8), W_K2, HALF),
    Split(Fr(10, 27) * x2(F4) - Fr(4, 9) * P, Fr(7, 27) * P + Fr(1, 18) * R1),
)
_fixed(
    "T3.6b", "theorem", Cond(above=3), 2,
    SumSpec(C3, Fr(-8), W_K3, HALF),
    Split(-Fr(4, 81) * x2(F4) + Fr(4, 27) * P, -Fr(10, 81) * P - Fr(2, 27) * R1),
)
_fixed(
    "S-3.2", "cited", Cond(), 2,
    SumSpec(C3, Fr(-8), W_ONE, HALF),
    Split(4 * x2(F4) - 2 * P, ZERO),
)
_fixed(
    "S-3.3", "cited", Cond(above=3), 2,
    SumSpec(C3, Fr(-8), W_K, HALF),
    Split(P - Fr(4, 3) * x2(F4), -Fr(1, 3) * P),
)
_fixed(
    "T3.7a", "theorem", Cond(above=5), 2,
    SumSpec(C2B31, Fr(-192), W_K2, FULL),
    Split(Fr(2, 125) * x2(F27) - Fr(27, 250) * P, Fr(2, 25) * B3_SQ + Fr(19, 250) * P),
)
_fixed(
    "T3.7b", "theorem", Cond(above=5), 2,
    SumSpec(C2B31, Fr(-192), W_K3, FULL),
    Split(
        Fr(21, 6250) * x2(F27) - Fr(221, 12500) * P,
        -Fr(27, 625) * B3_SQ + Fr(137, 12500) * P,
    ),
)
_fixed(
    "T3.8a", "theorem", Cond(above=5), 2,
    SumSpec(C2B42, Fr(-144), W_K2, FULL),
    Split(Fr(12, 125) * x2(F3) - Fr(19, 125) * P, Fr(2, 25) * R3 + Fr(13, 125) * P),
)
_fixed(
    "T3.8b", "theorem", Cond(above=5), 2,
    SumSpec(C2B42, Fr(-144), W_K3, FULL),
    Split(Fr(62, 3125) * x2(F3) + Fr(6, 3125) * P, -Fr(48, 625) * R3 - Fr(37, 3125) * P),
)
_fixed(
    "T3.9a", "theorem", Cond(excluded=(2, 3, 7)), 2,
    SumSpec(C2B42, Fr(648), W_K2, FULL),
    Split(Fr(34, 343) * x2(F4) - Fr(8, 343) * P, Fr(9, 98) * R1 - Fr(9, 343) * P),
)
_fixed(
    "T3.9b", "theorem", Cond(excluded=(2, 3, 7)), 2,
    SumSpec(C2B42, Fr(648), W_K3, FULL),
    Split(
        Fr(1436, 16807) * x2(F4) + Fr(792, 16807) * P,
        Fr(216, 2401) * R1 - Fr(1510, 16807) * P,
    ),
)
_fixed(
    "CJ-R3.1-1", "conjecture", Cond(7, (1, 2, 4)), 3,
    SumSpec(C3, Fr(1), W_K2, FULL),
    Fr(736, 1323) * x2(F7) - Fr(272, 441) * P + Fr(20, 1323) * p2_x2(F7),
)
_fixed(
    "CJ-R3.1-2", "conjecture", Cond(7, (1, 2, 4)), 3,
    SumSpec(C3, Fr(1), W_K3, FULL),
    -Fr(5408, 27783) * x2(F7) + Fr(2992, 9261) * P - Fr(1774, 27783) * p2_x2(F7),
)
_fixed(
    "CJ-R3.1-3", "conjecture", Cond(7, (1, 2, 4)), 3,
    SumSpec(C3, Fr(4096), W_K2, HALF, SIGN_HALF),
    Fr(43, 1323) * x2(F7) - Fr(13, 441) * P - Fr(1, 1323) * p2_x2(F7),
)
_fixed(
    "CJ-R3.1-4", "conjecture", Cond(7, (1, 2, 4)), 3,
    SumSpec(C3, Fr(4096), W_K3, HALF, SIGN_HALF),
    Fr(169, 55566) * x2(F7) - Fr(31, 74088) * P - Fr(71, 444528) * p2_x2(F7),
)

# ==============================================================================
# Sums weighted by 1/(k+1)^2 and 1/(k+1)^3
# ==============================================================================

_fixed(
    "T4.2a", "theorem", Cond(7, (1, 2, 4)), 2,
    SumSpec(C3, Fr(1), W_INV_K1_SQ, HALF),
    -68 * y2(F7) + P,
)
_fixed(
    "T4.2b", "theorem", Cond(7, (1, 2, 4)), 2,
    SumSpec(C3, Fr(1), W_INV_K1_CU, HALF),
    Fr(1, 8) - Fr(201, 2) * y2(F7) - Fr(9, 4) * P,
)
_fixed(
    "T4.2c", "theorem", Cond(7, (1, 2, 4)), 2,
    SumSpec(C3, Fr(4096), W_INV_K1_SQ, HALF, SIGN_HALF),
    -1136 * y2(F7) + 64 * P,
)
_fixed(
    "T4.2d", "theorem", Cond(7, (1, 2, 4)), 2,
    SumSpec(C3, Fr(4096), W_INV_K1_CU, HALF, SIGN_HALF),
    512 * SIGN2 + 6432 * y2(F7) - 648 * P,
)
_fixed(
    "T4.3a", "theorem", Cond(3, (1,)), 2,
    SumSpec(C3, Fr(16), W_INV_K1_SQ, HALF),
    -24 * y2(F3) + 2 * P,
)
_fixed(
    "T4.3b", "theorem", Cond(3, (1,)), 2,
    SumSpec(C3, Fr(16), W_INV_K1_CU, HALF),
    2 - 24 * y2(F3),
)
_fixed(
    "T4.3c", "theorem", Cond(3, (1,)), 2,
    SumSpec(C3, Fr(256), W_INV_K1_SQ, HALF, SIGN_HALF),
    -48 * y2(F3) + 8 * P,
)
_fixed(
    "T4.3d", "theorem", Cond(3, (1,)), 2,
    SumSpec(C3, Fr(256), W_INV_K1_CU, HALF, SIGN_HALF),
    32 * SIGN2 + 96 * y2(F3) - 24 * P,
)
_fixed(
    "T4.4a", "theorem", Cond(8, (1, 3)), 2,
    SumSpec(C3, Fr(-64), W_INV_K1_SQ, HALF, SIGN_HALF),
    -8 * y2(F2),
)
_fixed(
    "T4.4b", "theorem", Cond(8, (1, 3)), 2,
    SumSpec(C3, Fr(-64), W_INV_K1_CU, HALF, SIGN_HALF),
    -8 * SIGN2 - 32 * y2(F2) + 8 * P,
)
_fixed(
    "T4.5a", "theorem", Cond(4, (1,)), 2,
    SumSpec(C3, Fr(-512), W_INV_K1_SQ, HALF, SIGN_QUARTER),
    64 * y2(F4) - 8 * P,
)
_fixed(
    "T4.5b", "theorem", Cond(4, (1,)), 2,
    SumSpec(C3, Fr(-512), W_INV_K1_CU, HALF, SIGN_QUARTER),
    -64 * SIGN4 - 384 * y2(F4) + 72 * P,
)
_fixed(
    "T4.6a", "theorem", Cond(), 2,
    SumSpec(C3, Fr(-8), W_INV_K1_SQ, HALF),
    Split(-32 * y2(F4) + P, 3 * P + 3 * R1),
)
_fixed(
    "T4.6b", "theorem", Cond(), 2,
    SumSpec(C3, Fr(-8), W_INV_K1_CU, HALF),
    Split(-1 - 48 * y2(F4), -1 + 6 * P + 12 * R1),
)
_fixed(
    "T4.7a", "theorem", Cond(above=3), 2,
    SumSpec(C2B31, Fr(-192), W_INV_K1_SQ, FULL_MINUS_1),
    Split(Fr(1, 4) * x2(F27) - 2 * P, 13 * B3_SQ + Fr(3, 2) * P),
)
_fixed(
    "T4.7b", "theorem", Cond(above=3), 2,
    SumSpec(C2B31, Fr(-192), W_INV_K1_CU, FULL_MINUS_1),
    Split(-16 + Fr(51, 8) * x2(F27) - 9 * P, -16 + Fr(115, 2) * B3_SQ - Fr(15, 4) * P),
)
_fixed(
    "T4.8a", "theorem", Cond(above=3), 2,
    SumSpec(C2B42, Fr(-144), W_INV_K1_SQ, FULL_MINUS_1),
    Split(-Fr(40, 3) * y2(F3) + Fr(2, 3) * P, Fr(88, 9) * R3 + Fr(14, 9) * P),
)
_fixed(
    "T4.8b", "theorem", Cond(above=3), 2,
    SumSpec(C2B42, Fr(-144), W_INV_K1_CU, FULL_MINUS_1),
    Split(-6 - Fr(376, 9) * y2(F3) + Fr(56, 9) * P, -6 + Fr(1360, 27) * R3 + Fr(20, 27) * P),
)
_fixed(
    "T4.9a", "theorem", Cond(above=3), 2,
    SumSpec(C2B42, Fr(648), W_INV_K1_SQ, FULL_MINUS_1),
    Split(Fr(112, 9) * x2(F4) - Fr(55, 9) * P, -11 * R1 - Fr(1, 9) * P),
)
_fixed(
    "T4.9b", "theorem", Cond(above=3), 2,
    SumSpec(C2B42, Fr(648), W_INV_K1_CU, FULL_MINUS_1),
    Split(27 - Fr(740, 27) * x2(F4) + Fr(248, 27) * P, 27 - Fr(170, 3) * R1 + Fr(122, 27) * P),
)
_fixed(
    "CJ-R4.1-1", "conjecture", Cond(7, (1, 2, 4)), 3,
    SumSpec(C3, Fr(1), W_INV_K1_SQ, HALF),
    -68 * y2(F7) + P - Fr(1, 4) * p2_y2(F7),
)
_fixed(
    "CJ-R4.1-2", "conjecture", Cond(7, (1, 2, 4)), 3,
    SumSpec(C3, Fr(1), W_INV_K1_CU, HALF),
    Fr(1, 8) - Fr(201, 2) * y2(F7) - Fr(9, 4) * P - Fr(39, 32) * p2_y2(F7),
)
_fixed(
    "CJ-R4.1-3", "conjecture", Cond(7, (1, 2, 4)), 3,
    SumSpec(C3, Fr(4096), W_INV_K1_SQ, HALF, SIGN_HALF),
    -1136 * y2(F7) + 64 * P + 2 * p2_y2(F7),
)
_fixed(
    "CJ-R4.1-4", "conjecture", Cond(7, (1, 2, 4)), 3,
    SumSpec(C3, Fr(4096), W_INV_K1_CU, HALF, SIGN_HALF),
    512 * SIGN2 + 6432 * y2(F7) - 648 * P - 6 * p2_y2(F7),
)

# ==============================================================================
# Full-range sums weighted by 1/(2k-1) and 1/(2k-1)^2
# ==============================================================================

_fixed(
    "T5.3a", "theorem", Cond(7, (1, 2, 4)), 2,
    SumSpec(C3, Fr(1), W_INV_2K1, FULL),
    -36 * y2(F7) + 14 * P,
)
_fixed(
    "T5.3b", "theorem", Cond(7, (1, 2, 4)), 2,
    SumSpec(C3, Fr(1), W_INV_2K1_SQ, FULL),
    -284 * y2(F7) + 34 * P,
)
_fixed(
    "T5.3c", "theorem", Cond(7, (1, 2, 4)), 2,
    SumSpec(C3, Fr(4096), W_INV_2K1, FULL, SIGN_HALF),
    22 * y2(F7) - Fr(7, 4) * P,
)
_fixed(
    "T5.3d", "theorem", Cond(7, (1, 2, 4)), 2,
    SumSpec(C3, Fr(4096), W_INV_2K1_SQ, FULL, SIGN_HALF),
    -17 * y2(F7) + Fr(97, 64) * P,
)
_fixed(
    "T5.4a", "theorem", Cond(3, (1,)), 2,
    SumSpec(C3, Fr(16), W_INV_2K1, FULL),
    4 * y2(F3),
)
_fixed(
    "T5.4b", "theorem", Cond(3, (1,)), 2,
    SumSpec(C3, Fr(16), W_INV_2K1_SQ, FULL),
    -12 * y2(F3) + 2 * P,
)
_fixed(
    "T5.4c", "theorem", Cond(3, (1,)), 2,
    SumSpec(C3, Fr(256), W_INV_2K1, FULL, SIGN_HALF),
    8 * y2(F3) - Fr(3, 2) * P,
)
_fixed(
    "T5.4d", "theorem", Cond(3, (1,)), 2,
    SumSpec(C3, Fr(256), W_INV_2K1_SQ, FULL, SIGN_HALF),
    -6 * y2(F3) + Fr(5, 4) * P,
)
_fixed(
    "T5.5a", "theorem", Cond(8, (1, 3)), 2,
    SumSpec(C3, Fr(-64), W_INV_2K1, FULL, SIGN_HALF),
    P - 3 * x2(F2),
)
_fixed(
    "T5.5b", "theorem", Cond(8, (1, 3)), 2,
    SumSpec(C3, Fr(-64), W_INV_2K1_SQ, FULL, SIGN_HALF),
    x2(F2),
)
_fixed(
    "T5.6a", "theorem", Cond(4, (1,)), 2,
    SumSpec(C3, Fr(-512), W_INV_2K1, FULL, SIGN_QUARTER),
    -3 * x2(F4) + Fr(5, 4) * P,
)
_fixed(
    "T5.6b", "theorem", Cond(4, (1,)), 2,
    SumSpec(C3, Fr(-512), W_INV_2K1_SQ, FULL, SIGN_QUARTER),
    2 * x2(F4) - Fr(5, 8) * P,
)
_fixed(
    "T5.7a", "theorem", Cond(), 2,
    SumSpec(C3, Fr(-8), W_INV_2K1, FULL),
    Split(-4 * x2(F4), 2 * P - 2 * R1),
)
_fixed(
    "T5.7b", "theorem", Cond(), 2,
    SumSpec(C3, Fr(-8), W_INV_2K1_SQ, FULL),
    Split(-4 * x2(F4) + 2 * P, 6 * R1),
)
_fixed(
    "T5.8", "theorem", Cond(above=3), 2,
    SumSpec(C2B31, Fr(-192), W_INV_2K1, FULL),
    Split(-Fr(3, 4) * x2(F27) + Fr(9, 8) * P, -Fr(1, 2) * B3_SQ + Fr(3, 8) * P),
)
_fixed(
    "T5.9", "theorem", Cond(above=3), 2,
    SumSpec(C2B42, Fr(-144), W_INV_2K1, FULL),
    Split(-Fr(28, 9) * x2(F3) + Fr(8, 9) * P, -Fr(8, 9) * R3 + Fr(2, 3) * P),
)
_fixed(
    "T5.10", "theorem", Cond(above=3), 2,
    SumSpec(C2B42, Fr(648), W_INV_2K1, FULL),
    Split(-Fr(76, 27) * x2(F4) + Fr(104, 81) * P, -Fr(2, 9) * R1 + Fr(10, 81) * P),
)

# ==============================================================================
# Sums weighted by 1/(k+2) and 1/(k+3)
# ==============================================================================

_fixed(
    "T6.2a", "theorem", Cond(7, (1, 2, 4)), 2,
    SumSpec(C3, Fr(1), W_INV_K2, HALF),
    -Fr(466, 27) * y2(F7) + Fr(29, 27) * P,
)
_fixed(
    "T6.2b", "theorem", Cond(7, (1, 2, 4)), 2,
    SumSpec(C3, Fr(4096), W_INV_K2, HALF, SIGN_HALF),
    Fr(52616, 27) * y2(F7) - Fr(34, 27) * P,
)
_fixed(
    "T6.3a", "theorem", Cond(3, (1,)), 2,
    SumSpec(C3, Fr(16), W_INV_K2, HALF),
    Fr(64, 27) * x2(F3) - Fr(4, 3) * P,
)
_fixed(
    "T6.3b", "theorem", Cond(3, (1,)), 2,
    SumSpec(C3, Fr(256), W_INV_K2, HALF, SIGN_HALF),
    -Fr(8, 27) * x2(F3) + Fr(10, 9) * P,
)
_fixed(
    "T6.4", "theorem", Cond(8, (1, 3), above=3), 2,
    SumSpec(C3, Fr(-64), W_INV_K2, HALF, SIGN_HALF),
    2 * x2(F2) - Fr(8, 9) * P,
)
_fixed(
    "T6.5", "theorem", Cond(4, (1,)), 2,
    SumSpec(C3, Fr(-512), W_INV_K2, HALF, SIGN_QUARTER),
    -Fr(152, 27) * x2(F4) + Fr(190, 27) * P,
)
_fixed(
    "T6.6", "theorem", Cond(above=3), 2,
    SumSpec(C3, Fr(-8), W_INV_K2, HALF),
    Split(Fr(64, 27) * x2(F4) - Fr(35, 27) * P, Fr(1, 9) * P),
)
_fixed(
    "T6.7", "theorem", Cond(above=5), 2,
    SumSpec(C2B31, Fr(-192), W_INV_K2, FULL_MINUS_2),
    Split(Fr(2, 5) * x2(F27) - Fr(7, 15) * P, -B3_SQ - Fr(1, 3) * P),
)
_fixed(
    "T6.8", "theorem", Cond(above=7), 2,
    SumSpec(C2B42, Fr(-144), W_INV_K2, FULL_MINUS_2),
    Split(-Fr(32, 5) * y2(F3) + Fr(16, 15) * P, -Fr(4, 21) * R3),
)
_fixed(
    "T6.9", "theorem", Cond(above=7), 2,
    SumSpec(C2B42, Fr(648), W_INV_K2, FULL_MINUS_2),
    Split(Fr(8, 7) * x2(F4) - Fr(5, 21) * P, -Fr(6, 5) * R1 - Fr(1, 3) * P),
)
_fixed(
    "CJ-R6.1-1", "conjecture", Cond(7, (1, 2, 4)), 3,
    SumSpec(C3, Fr(1), W_INV_K2, HALF),
    -Fr(466, 27) * y2(F7) + Fr(29, 27) * P + Fr(17, 864) * p2_y2(F7),
)
_fixed(
    "CJ-R6.1-2", "conjecture", Cond(7, (1, 2, 4)), 3,
    SumSpec(C3, Fr(1), W_INV_K3, HALF),
    -Fr(36052, 3375) * y2(F7) + Fr(2378, 3375) * P + Fr(1421, 108000) * p2_y2(F7),
)
_fixed(
    "CJ-R6.1-3", "conjecture", Cond(7, (1, 2, 4)), 3,
    SumSpec(C3, Fr(4096), W_INV_K2, HALF, SIGN_HALF),
    Fr(52616, 27) * y2(F7) - Fr(34, 27) * P - Fr(20, 27) * p2_y2(F7),
)
_fixed(
    "CJ-R6.1-4", "conjecture", Cond(7, (1, 2, 4)), 3,
    SumSpec(C3, Fr(4096), W_INV_K3, HALF, SIGN_HALF),
    Fr(217125848, 3375) * y2(F7) - Fr(250882, 3375) * P - Fr(83972, 3375) * p2_y2(F7),
)

# ==============================================================================
# Parametric families over sampled p-adic parameters
# ==============================================================================
#
# A relation (``Rel``) is a list of equations between Lins in one sample's
# named sums.  Each term is a rational times a monomial atom, whose ``key``
# is sorted (symbol, exponent) pairs: a symbol is a named sum or a factor
# (u, v, w, x), u a(a+1) + v x + w with x the sampled t or m.  A corollary
# is its theorem's relation at a fixed a: ``Rel.at`` substitutes a(a+1),
# makes each factor left in x primitive and collects like terms.


@cache
def _factor_text(u: int, v: int, w: int, x: str) -> str:
    lin = Lin(tuple((c, Atom(t, None)) for c, t in ((u, "a(a+1)"), (v, x), (w, "")) if c))
    return lin.body() if len(lin.terms) == 1 and not w else f"({lin.body()})"


def _order(item: tuple) -> tuple:
    # factors first, those in a(a+1) alone before those in x, then sums by name
    return (True, item[0]) if isinstance(item[0], str) else (False, item[0][::-1])


@cache
def _mono(pairs: tuple) -> Atom:
    """The monomial of (symbol, exponent) pairs, like powers merged: its text
    is the factors with positive exponents over the rest; ``_exact`` values it."""
    exps: dict = {}
    for sym, e in pairs:
        exps[sym] = exps.get(sym, 0) + e
    key = tuple(sorted(((s, e) for s, e in exps.items() if e), key=_order))
    up, down = [], []
    for sym, e in key:
        text = sym if isinstance(sym, str) else _factor_text(*sym)
        (up if e > 0 else down).append(text + (f"^{abs(e)}" if abs(e) > 1 else ""))
    text = " ".join(up)
    if down:
        den = " ".join(down)
        single = len(down) == 1 and (den[0] == "(" or "(" not in den)
        text = f"{text or '1'}/{den if single else f'({den})'}"
    # the sampled t or m alone, the factor (0, 1, 0, text), prints like p: 2m
    return Atom(text, None, word=key != (((0, 1, 0, text), 1),), key=key)


def _sym(sym: str | tuple) -> Lin:
    return Lin(((1, _mono(((sym, 1),))),))


A = _sym((1, 0, 0, ""))


def F(lin: Lin) -> Lin:
    """A linear form in a(a+1) and x as one factor: F(X + 1) prints (t + 1)."""
    u, v, w, x = 0, 0, 0, ""
    for c, atom in lin.terms:
        f = atom.key[0][0] if atom.key else (0, 0, 1, "")
        u, v, w, x = u + c * f[0], v + c * f[1], w + c * f[2], x or f[3]
    return _sym((u, v, w, x))


def _primitive(v: Fraction, w: Fraction, x: str) -> tuple[Fraction, tuple]:
    """(c, f) with v x + w = c f, f = (0, v', w', x) primitive and v' > 0."""
    d = math.lcm(v.denominator, w.denominator)
    g = math.gcd(int(v * d), int(w * d)) * (1 if v > 0 else -1)
    return Fr(g, d), (0, int(v * d / g), int(w * d / g), x)


def _at_aa(lin: Lin, aa: Fraction) -> Lin:
    """lin with a(a+1) = aa, collected: a factor left in x alone is made
    primitive with a positive x coefficient, its content moving into the
    term's rational, and the terms whose monomials differ only by one factor
    of exponent 1, or by its absence, become one, as m T_0 + 8 T_0 is (m + 8) T_0."""
    out: dict = {}  # the rest of a monomial -> (v, w, x): its factor v x + w
    for c, atom in lin.terms:
        pairs = []
        for sym, e in atom.key:
            if not isinstance(sym, str) and sym[0]:
                u, v, w, x = sym
                w = Fr(w + u * aa)
                if not v:
                    c *= w**e
                    continue
                g, sym = _primitive(Fr(v), w, x)
                c *= g**e
            pairs.append((sym, e))
        key = _mono(tuple(pairs)).key
        ones = [sym for sym, e in key if not isinstance(sym, str) and e == 1]
        f = ones[0] if len(ones) == 1 else (0, 0, 1, "")
        rest = tuple(i for i in key if i != (f, 1))
        v, w, x = out.get(rest, (0, 0, ""))
        out[rest] = (v + c * f[1], w + c * f[2], x or f[3])
    terms = []
    for rest, (v, w, x) in out.items():
        c, f = _primitive(Fr(v), Fr(w), x) if v else (w, None)
        if c:
            terms.append((c, _mono(rest + (((f, 1),) if f else ()))))
    return Lin(tuple(terms))


# family -> (central, the multiplier z at x, its text with a fixed a's base as
# d = "/16" or b = "16"): C(2k,k) or not, then z = -x, -x(x+1) or 1/x
_FAMILIES = {
    "S": (False, lambda x: -x, "(-{x}{d})^k"),
    "D": (True, lambda x: -x * (x + 1), "(-{x}({x}+1){d})^k"),
    "T": (True, lambda x: Fr(1, x), "/ ({b}{x})^k"),
}
_HALF = Fr(-1, 2)


def _limit(half: bool, weight: Weight, limit: str) -> str:
    """At a = -1/2, C(a,k) = C(2k,k)/(-4)^k, which p divides for (p-1)/2 < k < p: every
    sum stops at (p-1)/2 but the 1/(2k-1)^e ones, whose pole at 2k - 1 = p keeps p-1."""
    return (FULL if weight.tag in POLE_TAGS else HALF) if half else limit


# Each named sum is one Jacobi sum, evaluated once per sample in the legend's
# order.  At p = 101 a sample's sums take 29 to 59 us and its relation
# arithmetic (exact ints over one denominator per side, one _fr each) 6 to
# 20 us, P-T3.1 the most (shared 2-core x86, Python 3.11).
def _jacobi_sums(ctx: PrimeContext, a: Fraction | int, x: int, sums: dict, unit: str):
    """name -> sum_k w(k) C(a,k) C(-1-a,k) [C(2k,k)] z^k mod P for one sample's
    named sums, or None when the sum named ``unit`` is not a p-unit."""
    vals = {}
    half = a == _HALF
    for name, (fam, weight, limit) in sums.items():
        central, z, _ = _FAMILIES[fam]
        vals[name] = evaluate_jacobi_sum(
            a, ctx.p, ctx.workexp, weight=weight, limit=_limit(half, weight, limit), z=z(x),
            central=central, ctx=ctx,
        ).value
        if name == unit and vals[name] % ctx.p == 0:
            return None
    return vals


def _exact(lin: Lin, vals: dict) -> tuple[int, int]:
    """(numerator, denominator) of a side's exact value at one sample, vals
    holding each named sum and factor: its terms over one common denominator."""
    num, den = 0, 1
    for c, atom in lin.terms:
        n, d = c.numerator, c.denominator
        for sym, e in atom.key:
            n, d = (n * vals[sym] ** e, d) if e > 0 else (n, d * vals[sym] ** -e)
        num, den = num * d + n * den, den * d
    return num, den


@cache
def _sum_text(a: Fraction | None, x: str, fam: str, weight: Weight, limit: str) -> str:
    """A named sum as a legend prints it, at a fixed a over the product it is."""
    central, _, mult = _FAMILIES[fam]
    kinds, base, jacobi = (B22,) * central, "", "C(a,k) C(-1-a,k)"
    if a is not None:
        kinds, base, jacobi = kinds + PRODUCT_FORMS[a][0], str(PRODUCT_FORMS[a][1]), ""
    head = str(SumSpec(kinds, Fr(1), weight, _limit(a == _HALF, weight, limit))).rstrip()
    tail = mult.format(x=x, d=base and f"/{base}", b=base)
    return " ".join(filter(None, (head, jacobi, tail)))


class Rel:
    """Equations lhs == rhs between Lins in one sample's named sums, each checked
    where x != its guard g, if any, over sampled (a, x) or sampled x at a fixed a.
    str() is the claim; ``pairs`` is the check, one sample's (lhs, rhs) residues."""

    __slots__ = ("x", "a", "modexp", "sums", "eqs", "factors")

    def __init__(self, x: str, a: Fraction | None, modexp: int, sums: dict, eqs: tuple):
        self.x, self.a, self.modexp, self.sums, self.eqs = x, a, modexp, sums, eqs
        terms = [t for lhs, rhs, _ in eqs for t in lhs.terms + rhs.terms]
        self.factors = {s for _, atom in terms for s, _ in atom.key if not isinstance(s, str)}

    def at(self, a: Fraction) -> Rel:
        """This relation at a fixed a, each equation whose lhs is one rational
        times named sums divided through by that rational."""
        eqs = []
        for lhs, rhs, g in self.eqs:
            lhs, rhs = _at_aa(lhs, a * (a + 1)), _at_aa(rhs, a * (a + 1))
            (c, atom), *more = lhs.terms
            if not more and all(isinstance(sym, str) for sym, _ in atom.key):
                lhs, rhs = Fr(1, c) * lhs, Fr(1, c) * rhs
            eqs.append((lhs, rhs, g))
        return Rel(self.x, a, self.modexp, self.sums, tuple(eqs))

    def pairs(self, ctx: PrimeContext, ps: tuple[int, ...], unit: str = ""):
        a, x = (ps[0] if self.a is None else self.a), ps[-1]
        vals = _jacobi_sums(ctx, a, x, self.sums, unit)
        if vals is None:
            return None
        aa = a * (a + 1) if self.a is None else 0
        for f in self.factors:
            vals[f] = f[0] * aa + f[1] * x + f[2]
        return [
            (_fr(ctx, *_exact(lhs, vals)), _fr(ctx, *_exact(rhs, vals)))
            for lhs, rhs, g in self.eqs
            if g is None or (x - g) % ctx.p
        ]

    def __str__(self) -> str:
        eqs = "; ".join(
            f"{lhs} == {rhs}" + ("" if g is None else f" for {self.x} != {g}")
            for lhs, rhs, g in self.eqs
        )
        legend = "; ".join(f"{n} = {_sum_text(self.a, self.x, *d)}" for n, d in self.sums.items())
        return f"{eqs} (mod {mod_text(self.modexp)}), where {legend}"


# id -> the relation its check evaluates, which a corollary reads at its a
_RELATIONS: dict[str, Rel] = {}


def _param(sid: str, status: str, applies: Cond, hyp: Hyp, rel: Rel) -> None:
    """Register rel: its claim is str(rel), its check rel.pairs, skipping a
    sample whose ``hyp.unit`` sum is not a unit."""
    _RELATIONS[sid] = rel
    check = partial(rel.pairs, unit=hyp.unit)
    _add(Parametric(sid, status, str(rel), applies, rel.modexp, hyp, check))


def _theorem(
    sid: str, status: str, applies: Cond, hyp: Hyp, x: str, modexp: int, sums: dict,
    build: Callable[..., list], a: Fraction | None = None,
) -> None:
    """Register build(X, **sums), X being x, over sampled (a, x) or sampled x at a
    fixed a: each sum is (family, weight[, limit]), each equation (lhs, rhs[, guard])."""
    sums = {name: (*spec, FULL)[:3] for name, spec in sums.items()}
    eqs = build(_sym((0, 1, 0, x)), **{name: _sym(name) for name in sums})
    _param(sid, status, applies, hyp, Rel(x, a, modexp, sums, tuple((*e, None)[:3] for e in eqs)))


def _corollary(sid: str, of: str, a: Fraction, applies: Cond) -> None:
    """Register theorem ``of`` at a fixed a: its relation at a, with its
    hypothesis less a, on the primes ``applies`` admits."""
    _param(sid, "corollary", applies, REGISTRY[of].admissible.without("a"), _RELATIONS[of].at(a))


_theorem(
    "P-L2.2", "lemma", Cond(), Hyp(a=(), t=()), "t", 2, dict(S_0=("S", W_ONE), D=("D", W_ONE)),
    lambda X, S_0, D: [(S_0 * S_0, D)],
)
_theorem(
    "P-T2.1", "theorem", Cond(), Hyp(a=(0, -1), t=(0, -1)), "t", 2,
    dict(V_1=("D", W_INV_K1, FULL_MINUS_1), S_0=("S", W_ONE), S_1=("S", W_K)),
    lambda X, V_1, S_0, S_1: [(V_1, S_0 * S_0 - F(X + 1) / (A * X) * S_1 * S_1)],
)
_theorem(
    "P-eq2.2", "lemma", Cond(), Hyp(a=(), t=(0, -1)), "t", 2,
    dict(S_0=("S", W_ONE), S_1=("S", W_K), N=("D", W_K)),
    lambda X, S_0, S_1, N: [(2 * S_0 * S_1, F(2 * X + 1) / F(X + 1) * N)],
)
_theorem(
    "P-T2.2", "theorem", Cond(), Hyp("D", a=(0, -1), t=(0, -1)), "t", 2,
    dict(D=("D", W_ONE), N=("D", W_K), V_1=("D", W_INV_K1, FULL_MINUS_1)),
    lambda X, D, N, V_1: [
        (V_1, D - Fr(1, 4) * F(2 * X + 1) * F(2 * X + 1) * N * N / (A * X * F(X + 1) * D))
    ],
)
_corollary("P-C2.1", "P-T2.1", Fr(-1, 2), Cond())
_corollary("P-C2.2", "P-T2.1", Fr(-1, 3), Cond(above=3))
_corollary("P-C2.3", "P-T2.1", Fr(-1, 4), Cond(above=3))
_corollary("P-C2.4", "P-T2.1", Fr(-1, 6), Cond(above=5))
_corollary("P-C2.5", "P-T2.2", Fr(-1, 2), Cond())
_corollary("P-C2.6", "P-T2.2", Fr(-1, 3), Cond(above=3))
_corollary("P-C2.7", "P-T2.2", Fr(-1, 4), Cond(above=3))
_corollary("P-C2.8", "P-T2.2", Fr(-1, 6), Cond(above=5))

# The m-families: T_i and V_e weigh C(2k,k) C(a,k) C(-1-a,k) / m^k by k^i
# and 1/(k+1)^e, W_e by 1/(2k-1)^e and U by 1/(k+2).
_T = dict(T_0=("T", W_ONE), T_1=("T", W_K))
_V = dict(V_1=("T", W_INV_K1, FULL_MINUS_1))
_theorem(
    "P-T3.1", "theorem", Cond(), Hyp(a=(0, -1), m=(0,)), "m", 3,
    dict(**_T, T_2=("T", W_K2), **_V, T_3=("T", W_K3)),
    lambda X, T_0, T_1, T_2, V_1, T_3: [
        (Fr(1, 2) * F(X - 4) * T_2, T_1 - 2 * A * T_0 + A * V_1),
        (Fr(1, 2) * F(X - 4) * T_3, 3 * T_2 - F(2 * A - 1) * T_1 - A * T_0),
        (
            T_3,
            -2 * F(2 * A - 1) * T_1 / F(X - 4)
            + (12 * T_1 - 2 * A * F(X + 8) * T_0 + 12 * A * V_1) / (F(X - 4) * F(X - 4)),
            4,
        ),
    ],
)
_corollary("P-C3.1", "P-T3.1", Fr(-1, 2), Cond())
_theorem(
    "P-T4.1", "theorem", Cond(), Hyp(a=(0, -1), m=(0,)), "m", 3,
    dict(**_T, **_V, V_2=("T", W_INV_K1_SQ, FULL_MINUS_1), V_3=("T", W_INV_K1_CU, FULL_MINUS_1)),
    lambda X, T_0, T_1, V_1, V_2, V_3: [
        (2 * A * V_2, F(X - 4) * T_1 + 2 * T_0 + 2 * F(2 * A - 1) * V_1),
        (
            2 * A * V_3,
            -X + 2 * F(X - 4) * T_1 + X * T_0 + 2 * F(4 * A - 1) * V_1
            + (-F(X - 4) * T_1 - 2 * T_0 + 2 * V_1) / A,
        ),
    ],
)
_corollary("P-C4.1", "P-T4.1", Fr(-1, 2), Cond())
_theorem(
    "P-T5.1", "theorem", Cond(), Hyp(a=(0, -1), m=(0,)), "m", 3,
    dict(W_1=("T", W_INV_2K1), **_T, **_V),
    lambda X, W_1, T_0, T_1, V_1: [(W_1, -2 * T_1 - T_0 + (8 * T_1 - 8 * A * V_1) / X)],
)
_corollary("P-C5.1", "P-T5.1", Fr(-1, 2), Cond())
# P-T5.2 is stated at a = -1/2 only.
_theorem(
    "P-T5.2", "theorem", Cond(), Hyp(m=(0,)), "m", 3,
    dict(W_2=("T", W_INV_2K1_SQ), T_1=("T", W_K), T_0=("T", W_ONE), V_1=("T", W_INV_K1)),
    lambda X, W_2, T_1, T_0, V_1: [(W_2, 4 * T_1 + T_0 + (-16 * T_1 + 4 * T_0 - 6 * V_1) / X)],
    a=Fr(-1, 2),
)
_theorem(
    "P-T6.1", "theorem", Cond(above=3), Hyp(a=(0, -1, 1, -2), m=(0,)), "m", 3,
    dict(U=("T", W_INV_K2, FULL_MINUS_2), **_T, **_V),
    lambda X, U, T_0, T_1, V_1: [
        (U, (-F(X - 4) * T_1 + F(X - 6) * T_0 + F(2 * A - X) * V_1) / (6 * F(A - 2)))
    ],
)
_corollary("P-C6.1", "P-T6.1", Fr(-1, 2), Cond(above=3))


def statement_modexp(stmt: Statement, p: int) -> int:
    """The working modulus exponent for a statement at prime p."""
    if callable(stmt.modexp):
        return stmt.modexp(p)
    return stmt.modexp
