"""Prime representations by binary quadratic forms against exhaustive search."""

import math

import pytest

from supercong.context import PrimeContext
from supercong.errors import NotRepresentable
from supercong.quadform import F2, F3, F4, F7, F27, FORMS, applicable, is_prime, represent

# Independent shape table: (coefficient D, multiplier on p) per form tag,
# for target = multiplier * p = x^2 + D * y^2.
SHAPES = {F4: (4, 1), F2: (2, 1), F3: (3, 1), F7: (7, 1), F27: (27, 4)}


def search(p: int, form: str):
    """All (x, y) with x, y >= 1 and x^2 + D y^2 = target, brute force."""
    d, mult = SHAPES[form]
    target = mult * p
    out = []
    y = 1
    while d * y * y < target:
        rest = target - d * y * y
        x = math.isqrt(rest)
        if x * x == rest and x >= 1:
            out.append((x, y))
        y += 1
    return out


def odd_primes_up_to(n: int):
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [i for i in range(3, n + 1) if sieve[i]]


PRIMES_5000 = odd_primes_up_to(5000)


@pytest.mark.parametrize("form", FORMS)
def test_representation_matches_exhaustive_search(form):
    """represent() agrees with brute force on every representable prime
    <= 5000 and raises NotRepresentable exactly on the rest."""
    for p in PRIMES_5000:
        found = search(p, form)
        if applicable(p, form):
            rep = represent(p, form)
            assert rep.check()
            assert rep.form == form and rep.p == p
            assert len(found) == 1, (form, p, found)
            assert (abs(rep.x), rep.y) == found[0]
        else:
            assert found == [], (form, p, found)
            with pytest.raises(NotRepresentable):
                represent(p, form)


@pytest.mark.parametrize("form", FORMS)
def test_applicability_is_the_documented_congruence_class(form):
    classes = {
        F4: lambda p: p % 4 == 1,
        F2: lambda p: p % 8 in (1, 3),
        F3: lambda p: p % 3 == 1,
        F7: lambda p: p % 7 in (1, 2, 4) and p != 7,
        F27: lambda p: p % 3 == 1,
    }
    for p in PRIMES_5000:
        assert applicable(p, form) == classes[form](p), (form, p)


def test_known_small_representations():
    assert (represent(29, F7).x, represent(29, F7).y) == (1, 2)
    r = represent(13, F4)
    assert (r.x, r.y) == (3, 1) and 13 == r.x**2 + 4 * r.y**2
    r = represent(11, F2)
    assert r.x**2 + 2 * r.y**2 == 11
    r = represent(7, F3)
    assert r.x**2 + 3 * r.y**2 == 7
    r = represent(31, F27)
    assert r.x**2 + 27 * r.y**2 == 4 * 31


def test_normalize_x_one_mod_4():
    """The context's x over p = x^2 + 4y^2 is the represented x, signed so
    that x = 1 (mod 4)."""
    for p in (13, 17, 29, 37, 41, 53):
        rep = represent(p, F4)
        x = PrimeContext(p, 2).x_one_mod_4()
        assert x % 4 == 1
        assert x**2 + 4 * rep.y**2 == p
        assert abs(x) == rep.x
    with pytest.raises(NotRepresentable):
        PrimeContext(11, 2).x_one_mod_4()


# Far above the primes the registry reads: 999983 is in no form's classes,
# 1000003 in all but F4's, 1000000009 in all five.
LARGE = {999_983: set(), 1_000_003: {F2, F3, F7, F27}, 1_000_000_009: set(FORMS)}


@pytest.mark.parametrize("p", sorted(LARGE))
def test_represent_above_the_gate(p):
    for form in FORMS:
        if form in LARGE[p]:
            rep = represent(p, form)
            d, mult = SHAPES[form]
            assert rep.x > 0 and rep.y > 0
            assert rep.x**2 + d * rep.y**2 == mult * p, (form, rep)
        else:
            with pytest.raises(NotRepresentable):
                represent(p, form)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 101, 997, 2_147_483_647}
    for n in sorted(primes):
        assert is_prime(n)
    for n in (0, 1, 4, 9, 561, 1105, 25326001, 3215031751):  # strong pseudoprimes
        assert not is_prime(n)


def test_represent_requires_prime_input():
    with pytest.raises(Exception):
        represent(15, F4)


def test_applicable_exactly_where_represent_succeeds():
    """For every prime below 400, 2 included, and every form, the residue
    classes admit p exactly when the search finds a representation."""
    for p in [2] + odd_primes_up_to(400):
        for form in FORMS:
            try:
                represent(p, form)
                found = True
            except NotRepresentable:
                found = False
            assert applicable(p, form) is found, (p, form)
