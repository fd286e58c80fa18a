"""Claim texts read back: every fixed condition and every fixed claim, as
printed, means what the engine checks."""

import hashlib
import math
import re
from fractions import Fraction
from itertools import product

import pytest
from oracles import euler_numbers_exact, u_numbers_exact

from supercong.cli import main
from supercong.context import PrimeContext
from supercong.padic import residue_from_fraction
from supercong.quadform import F2, F3, F4, F7, F27, applicable, is_prime, represent
from supercong.registry import REGISTRY, SUM_SPECS, Fixed, Parametric, statement_modexp
from supercong.special import r1, r3

FIXED = {sid: s for sid, s in REGISTRY.items() if isinstance(s, Fixed)}
PARAMETRIC = {sid: s for sid, s in REGISTRY.items() if isinstance(s, Parametric)}
PRIMES = [p for p in range(5, 5001) if is_prime(p)]


# -- conditions ------------------------------------------------------------------


def _read_condition(text: str):
    """The predicate a condition text states, read with regexes alone."""
    tests = []
    for part in text.split(" and "):
        if part == "p odd":
            tests.append(lambda p: p % 2 == 1)
        elif m := re.fullmatch(r"p > (\d+)", part):
            tests.append(lambda p, c=int(m[1]): p > c)
        elif m := re.fullmatch(r"p != ([\d, ]+)", part):
            tests.append(lambda p, ex={int(a) for a in m[1].split(", ")}: p not in ex)
        elif m := re.fullmatch(r"p == ([\d, ]+) \(mod (\d+)\)", part):
            rs, n = {int(r) for r in m[1].split(", ")}, int(m[2])
            tests.append(lambda p, rs=rs, n=n: p % n in rs)
        else:
            raise ValueError(f"unreadable condition part {part!r}")
    return lambda p: all(t(p) for t in tests)


def test_fixed_condition_text_reads_as_its_predicate():
    for sid, stmt in FIXED.items():
        reading = _read_condition(stmt.condition)
        wrong = [p for p in PRIMES if reading(p) != stmt.applies(p)]
        assert not wrong, (sid, stmt.condition, wrong[:5])


def _read_hypothesis(text: str, params: tuple[str, ...]):
    """The predicate on (p, params) a parametric condition text states, read
    with regexes alone; "; requires D a unit" is checked by the relation."""
    text = text.split("; ", 1)[0]
    if text == "none":
        return lambda p, ps: True
    tests = []
    for part in re.fullmatch(r"(.+) \(mod p\)", text)[1].split(" and "):
        if m := re.fullmatch(r"(\w) != ([-\d, ]+)", part):
            i, cs = params.index(m[1]), [int(c) for c in m[2].split(", ")]
            tests.append(lambda p, ps, i=i, cs=cs: all((ps[i] - c) % p for c in cs))
        elif m := re.fullmatch(r"(\w)\(\1\+1\) != ([-\d, ]+)", part):
            i, cs = params.index(m[1]), [int(c) for c in m[2].split(", ")]
            tests.append(
                lambda p, ps, i=i, cs=cs: all((ps[i] * (ps[i] + 1) - c) % p for c in cs)
            )
        else:
            raise ValueError(f"unreadable hypothesis part {part!r}")
    return lambda p, ps: all(t(p, ps) for t in tests)


def test_parametric_condition_text_reads_as_its_predicate():
    """Every tuple mod p at p = 7, 11, 13, and each shifted by p and -p."""
    assert len(PARAMETRIC) == 21
    for sid, stmt in PARAMETRIC.items():
        reading = _read_hypothesis(stmt.condition, stmt.params)
        for p in (7, 11, 13):
            residues = list(product(range(p), repeat=len(stmt.params)))
            for shift in (0, p, -p):
                tuples = [tuple(x + shift for x in ps) for ps in residues]
                wrong = [ps for ps in tuples if reading(p, ps) != stmt.admissible(p, ps)]
                assert not wrong, (sid, p, stmt.condition, wrong[:5])


# -- right-hand sides ------------------------------------------------------------

_FORMS = {
    "p = x^2 + 4y^2": F4,
    "p = x^2 + 2y^2": F2,
    "p = x^2 + 3y^2": F3,
    "p = x^2 + 7y^2": F7,
    "4p = x^2 + 27y^2": F27,
}
_X_ONE_MOD_4 = ", x == 1 (mod 4)"
_BOUND = r"floor\(\d*p/\d+\)|\(\d*p[+-]\d+\)/\d+"


def _bound(text: str, p: int) -> int:
    """floor(ap/d), or (ap+c)/d, which must be an integer at p."""
    m = re.fullmatch(r"floor\((\d*)p/(\d+)\)|\((\d*)p([+-]\d+)\)/(\d+)", text)
    if m[2]:
        return int(m[1] or 1) * p // int(m[2])
    n, d = int(m[3] or 1) * p + int(m[4]), int(m[5])
    assert n % d == 0, (text, p)
    return n // d


def _power(text: str | None) -> int:
    return int(text[1:]) if text else 1


def _binomial(m: re.Match, p: int) -> Fraction:
    """C(n, k)^e, or p^d / C(n, k)^e, with exact binomials."""
    c = Fraction(math.comb(_bound(m[3], p), _bound(m[4], p))) ** _power(m[5])
    return p ** _power(m[1]) / c if m[2] else c


def _sign(e: int) -> int:
    return -1 if e % 2 else 1


def _legendre(a: int, p: int) -> int:
    """(a|p) by Euler's criterion, for p not dividing a."""
    assert a % p, (a, p)
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


# (pattern, value(match, p, xy)) of each printed atom, tried in order: x and
# y come from represent, binomials from math.comb, powers and Legendre
# symbols from exact integer powers, R1 and R3 from special, and the Euler
# and U numbers from the exact oracles.
_ATOMS = [
    (rf"\(-1\)\^(?:\(({_BOUND})\)|({_BOUND}))", lambda m, p, xy: _sign(_bound(m[1] or m[2], p))),
    (r"\(p\|3\)", lambda m, p, xy: 1 if p % 3 == 1 else -1),
    (r"\((\d+)\|p\)", lambda m, p, xy: _legendre(int(m[1]), p)),
    (r"\(x\|3\)", lambda m, p, xy: 1 if xy["x"] % 3 == 1 else -1),
    (r"\((\d)\^\(p-1\)-1\)", lambda m, p, xy: int(m[1]) ** (p - 1) - 1),
    (r"(\d)\^\(p-1\)", lambda m, p, xy: int(m[1]) ** (p - 1)),
    (r"q_2\(p\)", lambda m, p, xy: Fraction(2 ** (p - 1) - 1, p)),
    (r"\(2p\+1\)", lambda m, p, xy: 2 * p + 1),
    (rf"(?:p(\^\d+)? (/) )?C\(({_BOUND}), ({_BOUND})\)(\^\d+)?", lambda m, p, xy: _binomial(m, p)),
    (r"p\^3 U\(p-3\)", lambda m, p, xy: p**3 * u_numbers_exact(p - 3)[p - 3]),
    (r"p\^3 E\(p-3\)", lambda m, p, xy: p**3 * euler_numbers_exact(p - 3)[p - 3]),
    (r"R1\(p\)", lambda m, p, xy: r1(p).value),
    (r"R3\(p\)", lambda m, p, xy: r3(p).value),
    (r"p\^2/\((\d+)([xy])\^2\)", lambda m, p, xy: Fraction(p * p, int(m[1]) * xy[m[2]] ** 2)),
    (r"p\^2/([xy])\^2", lambda m, p, xy: Fraction(p * p, xy[m[1]] ** 2)),
    (r"p/\((\d+)x\)", lambda m, p, xy: Fraction(p, int(m[1]) * xy["x"])),
    (r"p/x", lambda m, p, xy: Fraction(p, xy["x"])),
    (r"p/(\d+)", lambda m, p, xy: Fraction(p, int(m[1]))),
    (r"x/(\d+)", lambda m, p, xy: Fraction(xy["x"], int(m[1]))),
    (r"([xy])\^2", lambda m, p, xy: xy[m[1]] ** 2),
    (r"x", lambda m, p, xy: xy["x"]),
    (r"p", lambda m, p, xy: p),
]
_ATOM_RES = [(re.compile(pattern), value) for pattern, value in _ATOMS]
_COEF = re.compile(r"\((\d+/\d+)\)|(\d+(?:/\d+)?)(?![\d^])")
_ENDS = (" + ", " - ", ")", " if ", " else ", " with ")


class _Reader:
    """The exact value at p of a printed form: terms joined by + and -, each
    an optional coefficient times factors side by side, where a factor is an
    atom or a parenthesised form.  x and y are p's representation by form,
    with x == 1 (mod 4) when the text says so."""

    def __init__(self, text: str, p: int, form: str | None, x_one_mod_4: bool = False):
        self.text, self.p, self.i = text, p, 0
        self.xy = {}
        if form:
            rep = represent(p, form)
            x = -rep.x if x_one_mod_4 and rep.x % 4 != 1 else rep.x
            self.xy = {"x": x, "y": rep.y}

    def read(self) -> Fraction:
        value = self.form()
        assert self.i == len(self.text), (self.text, self.text[self.i:])
        return value

    def at_end(self) -> bool:
        return self.i == len(self.text) or self.text.startswith(_ENDS, self.i)

    def form(self) -> Fraction:
        sign = 1
        if self.text.startswith("-", self.i):
            sign, self.i = -1, self.i + 1
        total = sign * self.term()
        while self.text.startswith((" + ", " - "), self.i):
            sign = -1 if self.text[self.i + 1] == "-" else 1
            self.i += 3
            total += sign * self.term()
        return total

    def term(self) -> Fraction:
        value = Fraction(1)
        if m := _COEF.match(self.text, self.i):
            value, self.i = Fraction(m[1] or m[2]), m.end()
            if self.at_end():
                return value
            self.i += self.text[self.i] == " "
        value *= self.factor()
        while not self.at_end():
            assert self.text[self.i] == " ", (self.text, self.text[self.i:])
            self.i += 1
            value *= self.factor()
        return value

    def factor(self) -> Fraction:
        for pattern, atom in _ATOM_RES:
            if m := pattern.match(self.text, self.i):
                self.i = m.end()
                return Fraction(atom(m, self.p, self.xy))
        assert self.text.startswith("(", self.i), (self.text, self.text[self.i:])
        self.i += 1
        value = self.form()
        assert self.text.startswith(")", self.i), (self.text, self.text[self.i:])
        self.i += 1
        return value


def _read_side(text: str, p: int) -> Fraction:
    """The value at p of a printed side: a form, read over the quadratic
    form after ``with``, or a split ``main if <form> else other``."""
    if " if " in text:
        main, rest = text.split(" if ")
        form_text, other = rest.split(" else ")
        form = _FORMS[form_text]
        if applicable(p, form):
            return _Reader(main, p, form).read()
        return _Reader(other, p, None).read()
    body, _, where = text.partition(" with ")
    normalised = where.endswith(_X_ONE_MOD_4)
    form = _FORMS[where.removesuffix(_X_ONE_MOD_4)] if where else None
    return _Reader(body, p, form, normalised).read()


def _sides(claim: str) -> tuple[str, str]:
    lhs, rhs = claim.split(" == ", 1)
    return lhs, rhs.rsplit(" (mod ", 1)[0]


def _classes(rhs: str, stmt: Fixed) -> list[list[int]]:
    """Three applicable primes from each class the claim distinguishes."""
    applies = [p for p in PRIMES[:60] if stmt.applies(p)]
    m = re.fullmatch(r"(.+) if (.+) else (.+)", rhs)
    if not m:
        return [applies[:3]]
    form = _FORMS[m[2]]
    return [[p for p in applies if applicable(p, form) is on][:3] for on in (True, False)]


def _engine(side, stmt: Fixed, p: int) -> int:
    return side(PrimeContext(p, statement_modexp(stmt, p)))


def _reduced(value: Fraction, stmt: Fixed, p: int) -> int:
    return residue_from_fraction(value, p, statement_modexp(stmt, p)).value


# The fixed statements whose left-hand side is a closed form, not a sum.
CLOSED_LHS = sorted(set(FIXED) - set(SUM_SPECS))


def test_every_fixed_claim_is_read_back():
    """The readers below cover every fixed right-hand side and every
    left-hand side that is not a registered sum."""
    assert len(FIXED) == 152
    assert CLOSED_LHS == ["S-2.18"]


@pytest.mark.parametrize("sid", sorted(FIXED))
def test_linear_claim_reads_as_its_rhs(sid):
    stmt = FIXED[sid]
    rhs = _sides(stmt.claim)[1]
    for primes in _classes(rhs, stmt):
        assert len(primes) == 3, (sid, primes)
        for p in primes:
            want = _reduced(_read_side(rhs, p), stmt, p)
            assert _engine(stmt.rhs, stmt, p) == want, (sid, p, rhs)


@pytest.mark.parametrize("sid", CLOSED_LHS)
def test_closed_lhs_reads_as_its_value(sid):
    stmt = FIXED[sid]
    lhs = _sides(stmt.claim)[0]
    for p in [p for p in PRIMES[:60] if stmt.applies(p)][:6]:
        assert _engine(stmt.lhs, stmt, p) == _reduced(_read_side(lhs, p), stmt, p), (sid, p)


def test_claim_reader_rejects_a_wrong_coefficient():
    """The reader sees a changed figure: T2.3a's -44y^2 read as -43y^2."""
    stmt = FIXED["T2.3a"]
    wrong = _sides(stmt.claim)[1].replace("-44y^2", "-43y^2")
    p = 11
    assert _reduced(_read_side(wrong, p), stmt, p) != _engine(stmt.rhs, stmt, p)


def test_claim_reader_rejects_a_wrong_factor():
    """A changed figure inside a factored product shows as well: S-L2.5b's
    (2/9) (2^(p-1)-1), which p divides, read as (1/9) (2^(p-1)-1)."""
    stmt = FIXED["S-L2.5b"]
    rhs = _sides(stmt.claim)[1]
    wrong = rhs.replace("(2/9)", "(1/9)")
    assert wrong != rhs
    for p in (5, 11, 17):
        assert _reduced(_read_side(rhs, p), stmt, p) == _engine(stmt.rhs, stmt, p)
        assert _reduced(_read_side(wrong, p), stmt, p) != _engine(stmt.rhs, stmt, p), p


# -- the listing ---------------------------------------------------------------------

LIST_SHA256 = "f0d45da7e8c3a9d9959911a6e07ed87ea497d3e477a77a3a7b2d4c7eafc8fb7e"
CLAIMS_SHA256 = "37063feb3d0e0e0149f7dcb6b719b9a89a1f75fcaed92361477d0490d9221cb4"


def _listing(capsys, *extra: str) -> str:
    assert main(["list", "--status", "all", *extra]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_listing_is_pinned(capsys):
    """`list` and `list --claims` print fixed bytes: a change to any
    statement's condition or claim text has to re-pin these."""
    assert _listing(capsys) == LIST_SHA256
    assert _listing(capsys, "--claims") == CLAIMS_SHA256
