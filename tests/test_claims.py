"""Claim texts read back: every fixed condition and every fixed claim, as
printed, means what the engine checks."""

import hashlib
import math
import re
from fractions import Fraction
from itertools import product

import pytest
from oracles import EXACT, evaluate_jacobi_sum_exact, euler_numbers_exact, u_numbers_exact

from supercong.cli import main
from supercong.context import PrimeContext
from supercong.padic import residue_from_fraction
from supercong.quadform import F2, F3, F4, F7, F27, applicable, is_prime, represent
from supercong.binomials import TEXT
from supercong.registry import REGISTRY, SUM_SPECS, Fixed, Parametric, statement_modexp
from supercong.special import r1, r3
from supercong.statements import draw_params
from supercong.sums import FULL, FULL_MINUS_1, FULL_MINUS_2, HALF, limit_bound

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


# -- parametric claims -----------------------------------------------------------------

_LIMIT_TAGS = {"(p-1)/2": HALF, "p-1": FULL, "p-2": FULL_MINUS_1, "p-3": FULL_MINUS_2}
_KINDS = {text: kind for kind, text in TEXT.items()}
_LEGEND = re.compile(
    r"(\w+) = sum_\{k=0\.\.(\S+)\} (?:(k(?:\^(\d))?|1/\((\d?)k([+-]\d)\)(?:\^(\d))?) \* )?"
    r"((?:C\(\dk,\d?k\)(?:\^\d)? ?)*?) ?(C\(a,k\) C\(-1-a,k\) )?"
    r"(?:\(-([tm])(\(\10\+1\))?(?:/(\d+))?\)\^k|/ \((\d*)([tm])\)\^k)"
)


class _Shape:
    """A weight as oracles.weight_value reads it: (a0, a1, exp, inverted)."""

    def __init__(self, m: re.Match):
        if m[3] is None:
            self.shape = (1, 0, 1, False)
        elif m[3].startswith("k"):
            self.shape = (0, 1, int(m[4] or 1), False)
        else:
            self.shape = (int(m[6]), int(m[5] or 1), int(m[7] or 1), True)


def _legend_sum(text: str, p: int, a, x: int) -> Fraction:
    """The exact value of one printed named sum: a Jacobi sum at a sampled
    a, or at a fixed a the printed product of exact binomials."""
    m = _LEGEND.fullmatch(text)
    assert m, text
    weight, bound = _Shape(m), limit_bound(_LIMIT_TAGS[m[2]], p)
    scale = int(m[12] or m[13] or 1)
    mult = Fraction(-x * (x + 1) if m[11] else -x, scale) if m[10] else Fraction(1, scale * x)
    if m[9]:  # sampled a: C(2k,k) or not, then C(a,k) C(-1-a,k)
        central = m[8].strip() == "C(2k,k)"
        assert central or not m[8], text
        return evaluate_jacobi_sum_exact(
            a, p, weight=weight, limit=_LIMIT_TAGS[m[2]], mult=mult.numerator,
            base=mult.denominator, central=central,
        )
    kinds = [re.fullmatch(r"(C\(\dk,\d?k\))(?:\^(\d))?", f) for f in m[8].split()]
    total = Fraction(0)
    for k in range(bound + 1):
        term = Fraction(math.prod(EXACT[_KINDS[f[1]]](k) ** int(f[2] or 1) for f in kinds))
        a0, a1, exp, inverted = weight.shape
        w = Fraction(a0 + a1 * k) ** (-exp if inverted else exp)
        total += w * term * mult**k
    return total


class _RelReader(_Reader):
    """A printed equation side: terms of a coefficient times factors side by
    side, each an a(a+1), t or m, a named sum or a parenthesised form, with
    an optional power and an optional /factor."""

    def __init__(self, text: str, values: dict):
        self.text, self.i, self.values = text, 0, values

    def at_end(self) -> bool:
        return self.i == len(self.text) or self.text.startswith((" + ", " - ", ")"), self.i)

    def factor(self) -> Fraction:
        if m := re.compile(r"a\(a\+1\)|[tm](?![\w(])|[A-Z](?:_\d)?").match(self.text, self.i):
            self.i, value = m.end(), Fraction(self.values[m[0]])
        else:
            assert self.text.startswith("(", self.i), (self.text, self.text[self.i:])
            self.i += 1
            value = self.form()
            assert self.text.startswith(")", self.i), (self.text, self.text[self.i:])
            self.i += 1
        if m := re.compile(r"\^(\d+)").match(self.text, self.i):
            self.i, value = m.end(), value ** int(m[1])
        if self.text.startswith("/", self.i):
            self.i += 1
            value /= self.factor()
        return value


def _read_relation(claim: str, p: int, a, x: int, xname: str) -> list:
    """The residues of each equation a parametric claim prints, at (a, x):
    its legend's sums valued exactly, each side read, equations guarded by
    "for x != g" dropped where x == g (mod p)."""
    eqs, legend = claim.split(" (mod ", 1)
    t = int(m[1]) if (m := re.match(r"p\^(\d)\), where ", legend)) else 1
    values = {xname: x} if a is None else {"a(a+1)": a * (a + 1), xname: x}
    for entry in legend.split(", where ", 1)[1].split("; "):
        name, _ = entry.split(" = ", 1)
        values[name] = _legend_sum(entry, p, a, x)
    pairs = []
    for eq in eqs.split("; "):
        eq, _, guard = eq.partition(f" for {xname} != ")
        if guard and (x - int(guard)) % p == 0:
            continue
        pairs.append(
            tuple(
                residue_from_fraction(_RelReader(side, values).read(), p, t).value
                for side in eq.split(" == ")
            )
        )
    return pairs


def _samples(stmt: Parametric):
    """Two admissible tuples at each prime 7, 11, 13 the statement applies to,
    with the sampled a, or None at a fixed a, whose legend prints products."""
    for p in (p for p in (7, 11, 13) if stmt.applies(p)):
        for i in range(2):
            ps = draw_params(stmt, p, 0, i)
            a = ps[0] if stmt.params[0] == "a" else None
            yield p, ps, a


def _check_pairs(stmt: Parametric, p: int, ps) -> list:
    return stmt.check(PrimeContext(p, statement_modexp(stmt, p)), ps)


@pytest.mark.parametrize("sid", sorted(PARAMETRIC))
def test_parametric_claim_reads_as_its_check(sid):
    """Each equation of the claim, read from its text alone at two sampled
    tuples per prime, gives the residues of the check's pair in its place."""
    stmt = PARAMETRIC[sid]
    seen = 0
    for p, ps, a in _samples(stmt):
        pairs = _check_pairs(stmt, p, ps)
        if pairs is None:  # P-T2.2's unit hypothesis fails
            continue
        read = _read_relation(stmt.claim, p, a, ps[-1], stmt.params[-1])
        assert read == pairs, (sid, p, ps)
        seen += 1
    assert seen >= 3, sid


@pytest.mark.parametrize(
    "sid, old, new",
    [("P-C2.4", "(36/5)", "(35/5)"), ("P-T3.1", "12 a(a+1) V_1", "11 a(a+1) V_1")],
)
def test_relation_reader_rejects_a_wrong_coefficient(sid, old, new):
    """A changed figure shows: P-C2.4's 36, and a coefficient of P-T3.1's
    third congruence, the one guarded by m != 4."""
    stmt = PARAMETRIC[sid]
    assert old in stmt.claim
    wrong = stmt.claim.replace(old, new)
    differs = 0
    for p, ps, a in _samples(stmt):
        if (ps[-1] - 4) % p == 0:
            continue
        pairs = _check_pairs(stmt, p, ps)
        assert _read_relation(stmt.claim, p, a, ps[-1], stmt.params[-1]) == pairs
        differs += _read_relation(wrong, p, a, ps[-1], stmt.params[-1]) != pairs
    assert differs >= 2, sid


# -- the listing ---------------------------------------------------------------------

LIST_SHA256 = "f0d45da7e8c3a9d9959911a6e07ed87ea497d3e477a77a3a7b2d4c7eafc8fb7e"
CLAIMS_SHA256 = "0393eac53bccbb4ae2d61f0c359348b56c342f01c1090a56c0d6a8be0b3d14b1"


def _listing(capsys, *extra: str) -> str:
    assert main(["list", "--status", "all", *extra]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_listing_is_pinned(capsys):
    """`list` and `list --claims` print fixed bytes: a change to any
    statement's condition or claim text has to re-pin these."""
    assert _listing(capsys) == LIST_SHA256
    assert _listing(capsys, "--claims") == CLAIMS_SHA256
