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
(x|3) (2x - p/(2x)).

Every statement runs on a context at its own modulus exponent t, so
``ctx.P`` = p^t is its modulus.  A closed form's value is exact, a
Fraction or an int, e.g. (3/5)p - (1/5)x^2.  Its leaves are exact
integers or residues mod ``ctx.P`` (2^(p-1), binomials, Fermat
quotients, Euler and U numbers), or R1/R3, which are known mod p^2 only
and raise ModulusTooHigh above it.  ``_fixed`` reduces it once, mod
``ctx.P``, with ``_fr``, which is also the one place that raises
DenominatorNotUnit.  The unit invariant that keeps this exact: a closed
form divides only by exact integers (such as x) or by ``ctx.binom``
values, and ``ctx.binom`` raises DenominatorNotUnit when p divides the
binomial, so no division by a residue can cancel a factor p unseen.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Union

from . import quadform
from .binomials import B22, B31, B42, B63
from .context import PrimeContext
from .padic import residue_from_fraction
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
    states that form.  A coefficient prints before the text, after a space
    when the text is word-like; a coefficient 1/d prints as ``over`` with d
    filled in, when given.  Atoms multiply: a product prints its factors
    side by side."""

    __slots__ = ("text", "value", "form", "where", "word", "over")

    def __init__(
        self, text: str, value: Value, form: str | None = None, word: bool = False,
        over: str = "", where: str = "",
    ):
        self.text, self.value, self.form, self.word, self.over = text, value, form, word, over
        self.where = where or (quadform.TEXT[form] if form else "")

    def __mul__(self, other: Atom) -> Atom:
        if not other.text:
            return self
        if not self.text:
            return other
        return Atom(
            f"{self.text} {other.text}", lambda ctx: self.value(ctx) * other.value(ctx),
            self.form or other.form, word=True, where=self.where or other.where,
        )

    def term(self, n: int, d: int) -> str:
        """The text of n/d times this atom, for n > 0."""
        c = f"{n}/{d}" if d > 1 else str(n)
        if not self.text:
            return c
        if self.over and n == 1 and d > 1:
            return self.over.format(d)
        coef = "" if c == "1" else c if d == 1 else f"({c})"
        return coef + (" " if coef and self.word else "") + self.text


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


_ONE = Atom("", lambda ctx: 1)
ZERO = Lin()
P = _atom("p", lambda ctx: ctx.p, over="p/{}")
R1 = _atom("R1(p)", lambda ctx: ctx.r1(), word=True)
R3 = _atom("R3(p)", lambda ctx: ctx.r3(), word=True)
SIGN2 = _sign("((p-1)/2)", lambda p: (p - 1) // 2)
SIGN4 = _sign("((p-1)/4)", lambda p: (p - 1) // 4)
# p = 3 (mod 4)
SIGN4_PLUS = _sign("((p+1)/4)", lambda p: (p + 1) // 4)
SIGN4_MINUS = _sign("((p-3)/4)", lambda p: (p - 3) // 4)
SIGN_FLOOR4 = _sign("floor(p/4)", lambda p: p // 4)
LEG3 = _atom("(p|3)", lambda ctx: 1 if ctx.p % 3 == 1 else -1, word=True)
LEG6 = _atom("(6|p)", lambda ctx: ctx.legendre(6), word=True)
# (x|3) with p = x^2 + 3y^2, where 3 does not divide x
X_LEG3 = _atom("(x|3)", lambda ctx: 1 if ctx.xy(F3)[0] % 3 == 1 else -1, form=F3, word=True)
Q2 = _atom("q_2(p)", lambda ctx: ctx.fermat_quotient(2), word=True)
POW2 = _atom("2^(p-1)", lambda ctx: pow(2, ctx.p - 1, ctx.P), word=True)
POW2_1 = _atom("(2^(p-1)-1)", lambda ctx: pow(2, ctx.p - 1, ctx.P) - 1, word=True)
POW3_1 = _atom("(3^(p-1)-1)", lambda ctx: pow(3, ctx.p - 1, ctx.P) - 1, word=True)
P3_U = _atom("p^3 U(p-3)", lambda ctx: ctx.p**3 * ctx.u_number(ctx.p - 3), word=True)
P3_E = _atom("p^3 E(p-3)", lambda ctx: ctx.p**3 * ctx.euler_number(ctx.p - 3), word=True)
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
    return ctx.x_one_mod_4() if form == F4 else ctx.xy(form)[0]


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


def _fr(ctx: PrimeContext, q: Fraction | int) -> int:
    """Exact rational constant mod P; DenominatorNotUnit if p divides its denominator."""
    return residue_from_fraction(q, ctx.p, ctx.workexp).value


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
# Every check is a relation of aa = a(a+1), of one sampled x and of the
# Jacobi sums at a: _theorem(rel) draws a with x, _at(rel, a) fixes a to
# -1/2, -1/3, -1/4 or -1/6, and a corollary is its theorem at such an a,
# with the theorem's hypothesis less a.  Unlike the fixed closed forms,
# relations stay in modular arithmetic: they run once per sample, where a
# Fraction expression costs about twice as much.

# S(mult=, base=, central=) -> T(weight, limit=FULL): one sample's sums at a
Sums = Callable[..., Callable[..., int]]
# (ctx, aa, x, S) -> the pairs a Check returns
Relation = Callable[
    [PrimeContext, Union[Fraction, int], int, Sums], "list[tuple[int, int]] | None"
]


def _jacobi_sums(
    ctx: PrimeContext, a: Fraction | int, *, mult: int = 1, base: int | None = None,
    central: bool = False,
) -> Callable[..., int]:
    """T(weight, limit=FULL): the sums of one sample at a sampled int a or a
    fixed rational a over one stream, sum_k w(k) C(a,k) C(-1-a,k) [C(2k,k)]
    mult^k / base^k mod P.  At a = -1/2 both binomials are C(2k,k)/(-4)^k,
    which p divides for (p-1)/2 < k < p, so every sum stops at (p-1)/2
    except the 1/(2k-1)^e sums, whose pole term at 2k - 1 = p keeps them
    at p-1."""
    half = a == Fr(-1, 2)

    def T(weight: Weight, limit: str = FULL) -> int:
        if half:
            limit = FULL if weight.tag in POLE_TAGS else HALF
        return evaluate_jacobi_sum(
            a, ctx.p, ctx.workexp, weight=weight, limit=limit, mult=mult, base=base,
            central=central, ctx=ctx,
        ).value

    return T


def _theorem(rel: Relation) -> Check:
    """The check of a relation over sampled (a, x)."""

    def check(ctx: PrimeContext, ps: tuple[int, ...]):
        a, x = ps
        return rel(ctx, a * (a + 1), x, partial(_jacobi_sums, ctx, a))

    return check


def _at(rel: Relation, a: Fraction) -> Check:
    """The check of a relation over sampled x at a fixed a."""
    aa = a * (a + 1)
    return lambda ctx, ps: rel(ctx, aa, ps[0], partial(_jacobi_sums, ctx, a))


# id -> the relation its check evaluates, which a corollary reads at its a
_RELATIONS: dict[str, Relation] = {}


def _param(
    sid: str, status: str, applies: Cond, modexp: int, hyp: Hyp, rel: Relation, claim: str,
    a: Fraction | None = None,
) -> None:
    """Register rel over sampled (a, x), or over sampled x at a fixed a:
    P-T5.2 is stated at a = -1/2 only."""
    _RELATIONS[sid] = rel
    check = _theorem(rel) if a is None else _at(rel, a)
    _add(Parametric(sid, status, claim, applies, modexp, hyp, check))


def _corollary(sid: str, of: str, a: Fraction, applies: Cond, claim: str) -> None:
    """Register theorem ``of`` at a fixed a: its relation, modulus exponent
    and hypothesis less a, on the primes ``applies`` admits."""
    thm = REGISTRY[of]
    hyp = thm.admissible.without("a")
    _param(sid, "corollary", applies, thm.modexp, hyp, _RELATIONS[of], claim, a)


def _rel_l22(ctx: PrimeContext, aa: Fraction | int, tt: int, S: Sums):
    s0 = S(mult=-tt)(W_ONE)
    return [(s0 * s0 % ctx.P, S(mult=-tt * (tt + 1), central=True)(W_ONE))]


_param(
    "P-L2.2", "lemma", Cond(), 2, Hyp(a=(), t=()), _rel_l22,
    "(sum_{k=0..p-1} C(a,k) C(-1-a,k) (-t)^k)^2 == "
    "sum_{k=0..p-1} C(2k,k) C(a,k) C(-1-a,k) (-t(t+1))^k (mod p^2)",
)


def _rel_t21(ctx: PrimeContext, aa: Fraction | int, tt: int, S: Sums):
    m = ctx.P
    lhs = S(mult=-tt * (tt + 1), central=True)(W_INV_K1, FULL_MINUS_1)
    T = S(mult=-tt)
    s0, s1 = T(W_ONE), T(W_K)
    c = _fr(ctx, Fr(tt + 1, tt * aa))
    return [(lhs, (s0 * s0 - c * s1 % m * s1) % m)]


_param(
    "P-T2.1", "theorem", Cond(), 2, Hyp(a=(0, -1), t=(0, -1)), _rel_t21,
    "sum_{k=0..p-2} C(2k,k) C(a,k) C(-1-a,k) (-t(t+1))^k / (k+1) == "
    "S0^2 - (t+1)/(a(a+1)t) S1^2 (mod p^2), "
    "S_i = sum_{k=0..p-1} k^i C(a,k) C(-1-a,k) (-t)^k",
)


def _rel_eq22(ctx: PrimeContext, aa: Fraction | int, tt: int, S: Sums):
    m = ctx.P
    T = S(mult=-tt)
    s0, s1 = T(W_ONE), T(W_K)
    n1 = S(mult=-tt * (tt + 1), central=True)(W_K)
    c = _fr(ctx, Fr(2 * tt + 1, tt + 1))
    return [(2 * s0 * s1 % m, c * n1 % m)]


_param(
    "P-eq2.2", "lemma", Cond(), 2, Hyp(a=(), t=(0, -1)), _rel_eq22,
    "2 S0 S1 == (2t+1)/(t+1) sum_{k=0..p-1} k C(2k,k) C(a,k) C(-1-a,k) "
    "(-t(t+1))^k (mod p^2), S_i = sum_{k=0..p-1} k^i C(a,k) C(-1-a,k) (-t)^k",
)


def _rel_t22(ctx: PrimeContext, aa: Fraction | int, tt: int, S: Sums):
    p, m = ctx.p, ctx.P
    T = S(mult=-tt * (tt + 1), central=True)
    d = T(W_ONE)
    if d % p == 0:
        return None
    n = T(W_K)
    lhs = T(W_INV_K1, FULL_MINUS_1)
    c = _fr(ctx, Fr((2 * tt + 1) ** 2, 4 * tt * (tt + 1) * aa))
    return [(lhs, (d - c * n % m * n % m * pow(d, -1, m)) % m)]


_param(
    "P-T2.2", "theorem", Cond(), 2, Hyp("D", a=(0, -1), t=(0, -1)), _rel_t22,
    "sum_{k=0..p-2} C(2k,k) C(a,k) C(-1-a,k) (-t(t+1))^k / (k+1) == "
    "D - (2t+1)^2/(4a(a+1)t(t+1)) N^2/D (mod p^2), D and N the plain and "
    "k-weighted sums of C(2k,k) C(a,k) C(-1-a,k) (-t(t+1))^k over k=0..p-1",
)

_corollary(
    "P-C2.1", "P-T2.1", Fr(-1, 2), Cond(),
    "sum_{k=0..(p-1)/2} C(2k,k)^3 (-t(t+1)/16)^k / (k+1) == "
    "S0^2 + 4(t+1)/t S1^2 (mod p^2), "
    "S_i = sum_{k=0..(p-1)/2} k^i C(2k,k)^2 (-t/16)^k",
)
_corollary(
    "P-C2.2", "P-T2.1", Fr(-1, 3), Cond(above=3),
    "sum_{k=0..p-2} C(2k,k)^2 C(3k,k) (-t(t+1)/27)^k / (k+1) == "
    "S0^2 + 9(t+1)/(2t) S1^2 (mod p^2), "
    "S_i = sum_{k=0..p-1} k^i C(2k,k) C(3k,k) (-t/27)^k",
)
_corollary(
    "P-C2.3", "P-T2.1", Fr(-1, 4), Cond(above=3),
    "sum_{k=0..p-2} C(2k,k)^2 C(4k,2k) (-t(t+1)/64)^k / (k+1) == "
    "S0^2 + 16(t+1)/(3t) S1^2 (mod p^2), "
    "S_i = sum_{k=0..p-1} k^i C(2k,k) C(4k,2k) (-t/64)^k",
)
_corollary(
    "P-C2.4", "P-T2.1", Fr(-1, 6), Cond(above=5),
    "sum_{k=0..p-2} C(2k,k) C(3k,k) C(6k,3k) (-t(t+1)/432)^k / (k+1) == "
    "S0^2 + 36(t+1)/(5t) S1^2 (mod p^2), "
    "S_i = sum_{k=0..p-1} k^i C(3k,k) C(6k,3k) (-t/432)^k",
)
_corollary(
    "P-C2.5", "P-T2.2", Fr(-1, 2), Cond(),
    "sum_{k=0..(p-1)/2} C(2k,k)^3 (-t(t+1)/16)^k / (k+1) == "
    "D + (2t+1)^2/(t(t+1)) N^2/D (mod p^2), D and N the plain and k-weighted "
    "half-range sums of C(2k,k)^3 (-t(t+1)/16)^k",
)
_corollary(
    "P-C2.6", "P-T2.2", Fr(-1, 3), Cond(above=3),
    "sum_{k=0..p-2} C(2k,k)^2 C(3k,k) (-t(t+1)/27)^k / (k+1) == "
    "D + 9(2t+1)^2/(8t(t+1)) N^2/D (mod p^2), D and N the plain and "
    "k-weighted full-range sums of C(2k,k)^2 C(3k,k) (-t(t+1)/27)^k",
)
_corollary(
    "P-C2.7", "P-T2.2", Fr(-1, 4), Cond(above=3),
    "sum_{k=0..p-2} C(2k,k)^2 C(4k,2k) (-t(t+1)/64)^k / (k+1) == "
    "D + 4(2t+1)^2/(3t(t+1)) N^2/D (mod p^2), D and N the plain and "
    "k-weighted full-range sums of C(2k,k)^2 C(4k,2k) (-t(t+1)/64)^k",
)
_corollary(
    "P-C2.8", "P-T2.2", Fr(-1, 6), Cond(above=5),
    "sum_{k=0..p-2} C(2k,k) C(3k,k) C(6k,3k) (-t(t+1)/432)^k / (k+1) == "
    "D + 9(2t+1)^2/(5t(t+1)) N^2/D (mod p^2), D and N the plain and "
    "k-weighted full-range sums of C(2k,k) C(3k,k) C(6k,3k) (-t(t+1)/432)^k",
)


def _rel_t31(ctx: PrimeContext, aa: Fraction | int, mm: int, S: Sums):
    p, m = ctx.p, ctx.P
    T = S(base=mm, central=True)
    s, sk, sk2, sinv, sk3 = T(W_ONE), T(W_K), T(W_K2), T(W_INV_K1, FULL_MINUS_1), T(W_K3)
    A, half = _fr(ctx, aa), _fr(ctx, Fr(mm - 4, 2))
    pairs = [
        (half * sk2 % m, (sk - 2 * A * s + A * sinv) % m),
        (half * sk3 % m, (3 * sk2 - (2 * A - 1) * sk - A * s) % m),
    ]
    if (mm - 4) % p:
        rhs = ((2 - 4 * A) * (mm - 4) + 12) * sk - 2 * A * (mm + 8) * s + 12 * A * sinv
        pairs.append((sk3, rhs % m * _fr(ctx, Fr(1, (mm - 4) ** 2)) % m))
    return pairs


_param(
    "P-T3.1", "theorem", Cond(), 3, Hyp(a=(0, -1), m=(0,)), _rel_t31,
    "with T_i = sum k^i C(2k,k) C(a,k) C(-1-a,k) / m^k (full range) and "
    "V = sum_{k=0..p-2} C(2k,k) C(a,k) C(-1-a,k) / (m^k (k+1)): "
    "(m-4)/2 T_2 == T_1 - 2a(a+1) T_0 + a(a+1) V, "
    "(m-4)/2 T_3 == 3 T_2 - (2a(a+1)-1) T_1 - a(a+1) T_0, and for m != 4: "
    "T_3 == ((2-4a(a+1))(m-4)+12)/(m-4)^2 T_1 - 2a(a+1)(m+8)/(m-4)^2 T_0 "
    "+ 12a(a+1)/(m-4)^2 V (mod p^3)",
)
_corollary(
    "P-C3.1", "P-T3.1", Fr(-1, 2), Cond(),
    "with T_i = sum_{k=0..(p-1)/2} k^i C(2k,k)^3 / (16m)^k and "
    "V the 1/(k+1)-weighted half-range sum: "
    "(m-4)/2 T_2 == T_1 + T_0/2 - V/4, (m-4)/2 T_3 == 3 T_2 + (3/2) T_1 + T_0/4, "
    "and for m != 4: "
    "T_3 == 3m/(m-4)^2 T_1 + (m+8)/(2(m-4)^2) T_0 - 3/(m-4)^2 V (mod p^3)",
)


def _rel_t41(ctx: PrimeContext, aa: Fraction | int, mm: int, S: Sums):
    m = ctx.P
    T = S(base=mm, central=True)
    s, sk = T(W_ONE), T(W_K)
    sinv, sinv2, sinv3 = (T(w, FULL_MINUS_1) for w in (W_INV_K1, W_INV_K1_SQ, W_INV_K1_CU))
    A, B = _fr(ctx, aa), _fr(ctx, Fr(1, aa))
    rhs1 = (mm - 4) * sk + 2 * s + (4 * A - 2) * sinv
    rhs2 = -mm + (2 * mm - 8 - (mm - 4) * B) * sk + (mm - 2 * B) * s + (8 * A - 2 + 2 * B) * sinv
    return [(2 * A * sinv2 % m, rhs1 % m), (2 * A * sinv3 % m, rhs2 % m)]


_param(
    "P-T4.1", "theorem", Cond(), 3, Hyp(a=(0, -1), m=(0,)), _rel_t41,
    "with T_i and V_e = sum_{k=0..p-2} C(2k,k) C(a,k) C(-1-a,k)/(m^k (k+1)^e): "
    "2a(a+1) V_2 == (m-4) T_1 + 2 T_0 + (4a(a+1)-2) V_1 and "
    "2a(a+1) V_3 == -m + (2m-8-(m-4)/(a(a+1))) T_1 + (m-2/(a(a+1))) T_0 "
    "+ (8a(a+1)-2+2/(a(a+1))) V_1 (mod p^3)",
)
_corollary(
    "P-C4.1", "P-T4.1", Fr(-1, 2), Cond(),
    "with half-range T_i and V_e = sum C(2k,k)^3/((16m)^k (k+1)^e): "
    "V_2 == (8-2m) T_1 - 4 T_0 + 6 V_1 and "
    "V_3 == 2m - 12(m-4) T_1 - 2(m+8) T_0 + 24 V_1 (mod p^3)",
)


def _rel_t51(ctx: PrimeContext, aa: Fraction | int, mm: int, S: Sums):
    T = S(base=mm, central=True)
    lhs, s, sk, sinv = T(W_INV_2K1), T(W_ONE), T(W_K), T(W_INV_K1, FULL_MINUS_1)
    inv = _fr(ctx, Fr(1, mm))
    return [(lhs, ((8 * inv - 2) * sk - s - 8 * _fr(ctx, aa) * inv * sinv) % ctx.P)]


_param(
    "P-T5.1", "theorem", Cond(), 3, Hyp(a=(0, -1), m=(0,)), _rel_t51,
    "sum_{k=0..p-1} C(2k,k) C(a,k) C(-1-a,k)/(m^k (2k-1)) == "
    "(8/m - 2) T_1 - T_0 - 8a(a+1)/m V_1 (mod p^3), with T_i the k^i-weighted "
    "full-range sums and V_1 the 1/(k+1)-weighted sum over k=0..p-2",
)
_corollary(
    "P-C5.1", "P-T5.1", Fr(-1, 2), Cond(),
    "sum_{k=0..p-1} C(2k,k)^3/((16m)^k (2k-1)) == (8/m - 2) T_1 - T_0 "
    "+ (2/m) V_1 (mod p^3), with T_i, V_1 the half-range k^i- and "
    "1/(k+1)-weighted sums of C(2k,k)^3/(16m)^k",
)


def _rel_t52(ctx: PrimeContext, aa: Fraction | int, mm: int, S: Sums):
    T = S(base=mm, central=True)
    lhs = T(W_INV_2K1_SQ)
    c1 = _fr(ctx, 4 - Fr(16, mm))
    c2 = _fr(ctx, 1 + Fr(4, mm))
    c3 = _fr(ctx, Fr(6, mm))
    return [(lhs, (c1 * T(W_K) + c2 * T(W_ONE) - c3 * T(W_INV_K1)) % ctx.P)]


_param(
    "P-T5.2", "theorem", Cond(), 3, Hyp(m=(0,)), _rel_t52,
    "sum_{k=0..p-1} C(2k,k)^3/((16m)^k (2k-1)^2) == (4 - 16/m) T_1 "
    "+ (1 + 4/m) T_0 - (6/m) V_1 (mod p^3), with T_i, V_1 the half-range "
    "k^i- and 1/(k+1)-weighted sums of C(2k,k)^3/(16m)^k",
    a=Fr(-1, 2),
)


def _rel_t61(ctx: PrimeContext, aa: Fraction | int, mm: int, S: Sums):
    m = ctx.P
    T = S(base=mm, central=True)
    lhs, s, sk, sinv = T(W_INV_K2, FULL_MINUS_2), T(W_ONE), T(W_K), T(W_INV_K1, FULL_MINUS_1)
    rhs = (4 - mm) * sk + (mm - 6) * s + (2 * _fr(ctx, aa) - mm) * sinv
    # all over 6(a-1)(a+2) = 6(aa-2)
    return [(lhs, rhs % m * _fr(ctx, Fr(1, 6 * (aa - 2))) % m)]


_param(
    "P-T6.1", "theorem", Cond(above=3), 3, Hyp(a=(0, -1, 1, -2), m=(0,)), _rel_t61,
    "sum_{k=0..p-3} C(2k,k) C(a,k) C(-1-a,k)/(m^k (k+2)) == "
    "(4-m)/(6(a-1)(a+2)) T_1 + (m-6)/(6(a-1)(a+2)) T_0 "
    "+ (2a(a+1)-m)/(6(a-1)(a+2)) V_1 (mod p^3)",
)
_corollary(
    "P-C6.1", "P-T6.1", Fr(-1, 2), Cond(above=3),
    "sum_{k=0..(p-1)/2} C(2k,k)^3/((16m)^k (k+2)) == (2m-8)/27 T_1 "
    "- (2m-12)/27 T_0 + (2m+1)/27 V_1 (mod p^3), with T_i, V_1 the "
    "half-range k^i- and 1/(k+1)-weighted sums of C(2k,k)^3/(16m)^k",
)


def statement_modexp(stmt: Statement, p: int) -> int:
    """The working modulus exponent for a statement at prime p."""
    if callable(stmt.modexp):
        return stmt.modexp(p)
    return stmt.modexp
