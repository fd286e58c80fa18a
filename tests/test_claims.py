"""Claim texts read back: every fixed condition and every linear right-hand
side, as printed, means what the engine checks."""

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
from supercong.registry import REGISTRY, Fixed, Parametric, statement_modexp
from supercong.special import legendre, r1, r3

FIXED = {sid: s for sid, s in REGISTRY.items() if isinstance(s, Fixed)}
PARAMETRIC = {sid: s for sid, s in REGISTRY.items() if isinstance(s, Parametric)}
PRIMES = [p for p in range(5, 5001) if is_prime(p)]

# The right-hand sides that are not linear in the atoms: each keeps a
# hand-written text next to its closed form.
CLOSED = {
    "S-RV3", "S-L2.3a", "S-L2.3b", "S-L2.4a", "S-L2.4b", "S-L2.5a", "S-L2.5b",
    "S-L2.6a", "S-L2.6b", "S-2.16", "S-2.17", "S-2.18", "CJ-R2.2-2",
}


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
        elif m := re.fullmatch(r"(\w)\(\1\+1\) != 0", part):
            i = params.index(m[1])
            tests.append(lambda p, ps, i=i: ps[i] * (ps[i] + 1) % p != 0)
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


# -- linear right-hand sides -------------------------------------------------------

_FORMS = {
    "p = x^2 + 4y^2": F4,
    "p = x^2 + 2y^2": F2,
    "p = x^2 + 3y^2": F3,
    "p = x^2 + 7y^2": F7,
    "4p = x^2 + 27y^2": F27,
}
_BOUNDS = {
    "floor(2p/3)": lambda p: 2 * p // 3,
    "floor(p/3)": lambda p: p // 3,
    "floor(3p/7)": lambda p: 3 * p // 7,
    "floor(p/7)": lambda p: p // 7,
    "(p-1)/2": lambda p: (p - 1) // 2,
    "(p-5)/6": lambda p: (p - 5) // 6,
    "(p-3)/2": lambda p: (p - 3) // 2,
    "(p-3)/4": lambda p: (p - 3) // 4,
}


_ATOMS = {
    "p": lambda p: p,
    "R1(p)": lambda p: r1(p).value,
    "R3(p)": lambda p: r3(p).value,
    "(-1)^((p-1)/2)": lambda p: (-1) ** ((p - 1) // 2),
    "(-1)^((p-1)/4)": lambda p: (-1) ** ((p - 1) // 4),
    "(-1)^((p-1)/2) p": lambda p: (-1) ** ((p - 1) // 2) * p,
    "(-1)^((p-1)/4) p": lambda p: (-1) ** ((p - 1) // 4) * p,
    "(p|3) p": lambda p: legendre(p, 3) * p,
    "p^3 U(p-3)": lambda p: p**3 * u_numbers_exact(p - 3)[p - 3],
    "p^3 E(p-3)": lambda p: p**3 * euler_numbers_exact(p - 3)[p - 3],
}


def _atom(text: str, p: int, form: str | None) -> Fraction:
    """The exact value of one printed atom, computed without the registry:
    represent for x and y, special.r1/r3, exact binomials, and the exact
    Euler and U numbers."""
    if m := re.fullmatch(r"(p\^2/)?([xy])\^2", text):
        rep = represent(p, form)
        s = (rep.x if m[2] == "x" else rep.y) ** 2
        return Fraction(p * p, s) if m[1] else Fraction(s)
    if m := re.fullmatch(r"(p\^2 / |\(2p\+1\) )?C\((.+), (.+)\)\^2", text):
        c = Fraction(math.comb(_BOUNDS[m[2]](p), _BOUNDS[m[3]](p)) ** 2)
        if m[1] == "p^2 / ":
            return p * p / c
        return (2 * p + 1) * c if m[1] else c
    return Fraction(_ATOMS[text](p))


def _term(text: str, p: int, form: str | None) -> Fraction:
    """One printed term: a constant, p/d, p^2/(d x^2), or a coefficient and an atom."""
    if re.fullmatch(r"\d+(/\d+)?", text):
        return Fraction(text)
    if m := re.fullmatch(r"p/(\d+)", text):
        return Fraction(p, int(m[1]))
    if m := re.fullmatch(r"p\^2/\((\d+)([xy])\^2\)", text):
        return _atom(f"p^2/{m[2]}^2", p, form) / int(m[1])
    m = re.fullmatch(r"(\d+|\(\d+/\d+\))? ?(.+)", text)
    return Fraction(m[1].strip("()") if m[1] else 1) * _atom(m[2], p, form)


def _read_linear(body: str, p: int, form: str | None) -> Fraction:
    """The value of a printed sum of terms such as -(40/3)y^2 + 2p."""
    first, *rest = re.split(r" ([+-]) ", body)
    signed = [("-", first[1:]) if first.startswith("-") else ("+", first)]
    signed += zip(rest[::2], rest[1::2])
    return sum((_term(t, p, form) * (-1 if s == "-" else 1) for s, t in signed), Fraction(0))


def _rhs_of(claim: str) -> str:
    return claim.split(" == ", 1)[1].rsplit(" (mod ", 1)[0]


def _read_rhs(text: str, p: int) -> Fraction:
    if m := re.fullmatch(r"(.+) if (.+) else (.+)", text):
        form = _FORMS[m[2]]
        return _read_linear(m[1], p, form) if applicable(p, form) else _read_linear(m[3], p, None)
    body, _, form_text = text.partition(" with ")
    return _read_linear(body, p, _FORMS[form_text] if form_text else None)


def _classes(rhs: str, stmt: Fixed) -> list[list[int]]:
    """Three applicable primes from each class the claim distinguishes."""
    applies = [p for p in PRIMES[:60] if stmt.applies(p)]
    m = re.fullmatch(r"(.+) if (.+) else (.+)", rhs)
    if not m:
        return [applies[:3]]
    form = _FORMS[m[2]]
    return [[p for p in applies if applicable(p, form) is on][:3] for on in (True, False)]


LINEAR = sorted(set(FIXED) - CLOSED)


def test_every_fixed_rhs_is_linear_or_listed_as_closed():
    assert CLOSED <= set(FIXED)
    assert len(LINEAR) == 139


@pytest.mark.parametrize("sid", LINEAR)
def test_linear_claim_reads_as_its_rhs(sid):
    stmt = FIXED[sid]
    rhs = _rhs_of(stmt.claim)
    for primes in _classes(rhs, stmt):
        assert len(primes) == 3, (sid, primes)
        for p in primes:
            t = statement_modexp(stmt, p)
            want = residue_from_fraction(_read_rhs(rhs, p), p, t).value
            assert stmt.rhs(PrimeContext(p, t)) == want, (sid, p, rhs)


def test_claim_reader_rejects_a_wrong_coefficient():
    """The reader sees a changed figure: T2.3a's -44y^2 read as -43y^2."""
    stmt = FIXED["T2.3a"]
    wrong = _rhs_of(stmt.claim).replace("-44y^2", "-43y^2")
    p = 11
    assert residue_from_fraction(_read_rhs(wrong, p), p, 2).value != stmt.rhs(PrimeContext(p, 2))


# -- the listing ---------------------------------------------------------------------

LIST_SHA256 = "32b24f9e0016e146be1a887133e76ccba91c277768a421b7990548b2387edea8"
CLAIMS_SHA256 = "6149ddb94643a2fef49385574ac46f4879823031f097724300b13e87a8ae1d26"


def _listing(capsys, *extra: str) -> str:
    assert main(["list", "--status", "all", *extra]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_listing_is_pinned(capsys):
    """`list` and `list --claims` print fixed bytes: a change to any
    statement's condition or claim text has to re-pin these."""
    assert _listing(capsys) == LIST_SHA256
    assert _listing(capsys, "--claims") == CLAIMS_SHA256
