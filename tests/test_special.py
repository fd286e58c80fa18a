"""Auxiliary right-hand-side constants against exact rational references."""

import math
import random
from fractions import Fraction

import pytest
from oracles import euler_numbers_exact, u_numbers_exact

from supercong.context import PrimeContext
from supercong.errors import ModulusTooHigh, NotCoprime, WrongClass
from supercong.special import (
    euler_numbers_mod,
    fermat_quotient,
    legendre,
    r1,
    r3,
    u_numbers_mod,
)


def reduce_fraction(q: Fraction, p: int, t: int) -> int:
    m = p**t
    assert q.denominator % p != 0
    return q.numerator * pow(q.denominator, -1, m) % m


def primes_between(lo: int, hi: int):
    return [n for n in range(lo, hi + 1) if n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))]


def test_r1_golden_values():
    assert r1(7).value == 9 and r1(7).modulus == 49
    assert r1(11).value == 67


def test_r3_golden_value():
    assert r3(5).value == 11 and r3(5).modulus == 25


def test_r1_matches_exact_rational_oracle():
    """(2p + 2 - 2^(p-1)) * C((p-1)/2, floor(p/4))^2 mod p^2, fully exact."""
    for p in primes_between(3, 200):
        if p % 4 != 3:
            continue
        exact = (2 * p + 2 - 2 ** (p - 1)) * math.comb((p - 1) // 2, p // 4) ** 2
        assert r1(p).value == exact % p**2, p


def test_r3_matches_exact_rational_oracle():
    """(1 + 2p + (4/3)(2^(p-1)-1) - (3/2)(3^(p-1)-1)) * C((p-1)/2, floor(p/6))^2."""
    for p in primes_between(5, 200):
        if p % 3 != 2:
            continue
        coeff = (
            1
            + 2 * p
            + Fraction(4, 3) * (2 ** (p - 1) - 1)
            - Fraction(3, 2) * (3 ** (p - 1) - 1)
        )
        exact = coeff * math.comb((p - 1) // 2, p // 6) ** 2
        assert r3(p).value == reduce_fraction(exact, p, 2), p


def test_r1_r3_wrong_class_rejected():
    with pytest.raises(WrongClass):
        r1(5)
    with pytest.raises(WrongClass):
        r3(7)


def test_fermat_quotient_examples():
    q = fermat_quotient(2, 7, 2)
    assert (q.value, q.p, q.t) == (2, 7, 1)  # (2^6 - 1)/7 = 9 = 2 mod 7
    q = fermat_quotient(3, 11, 3)
    assert q.modulus == 121
    assert q.value == (3**10 - 1) // 11 % 121


def test_fermat_quotient_consistency():
    """p * q_p(b) + 1 = b^(p-1) (mod p^t)."""
    rng = random.Random(7)
    for _ in range(200):
        p = rng.choice(primes_between(3, 300))
        b = rng.randrange(2, 50)
        if b % p == 0:
            continue
        t = rng.randrange(2, 5)
        q = fermat_quotient(b, p, t)
        assert (p * q.value + 1) % p**t == pow(b, p - 1, p**t)


def test_context_constants_are_known_at_the_context_exponent():
    """A context's Fermat quotients and binomials are residues mod its own
    P = p^t; R1 and R3, known mod p^2 only, raise ModulusTooHigh above it."""
    p = 11  # 3 (mod 4) and 2 (mod 3): both R1 and R3 exist
    for t in (1, 2, 3, 4):
        ctx = PrimeContext(p, t)
        assert ctx.fermat_quotient(2) == (2 ** (p - 1) - 1) // p % p**t
        assert ctx.binom(20, 7) == math.comb(20, 7) % p**t
        if t <= 2:
            assert (ctx.r1(), ctx.r3()) == (r1(p).value, r3(p).value)
        else:
            with pytest.raises(ModulusTooHigh):
                ctx.r1()
            with pytest.raises(ModulusTooHigh):
                ctx.r3()


def test_fermat_quotient_input_validation():
    with pytest.raises(NotCoprime):
        fermat_quotient(14, 7, 2)
    with pytest.raises(ValueError):
        fermat_quotient(2, 7, 1)


def test_legendre_multiplicativity():
    rng = random.Random(11)
    for p in (5, 13, 101, 499):
        for _ in range(200):
            a = rng.randrange(1, 10**6)
            b = rng.randrange(1, 10**6)
            if a % p == 0 or b % p == 0:
                continue
            assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_legendre_euler_criterion_and_errors():
    assert legendre(2, 7) == 1 and legendre(3, 7) == -1
    with pytest.raises(NotCoprime):
        legendre(21, 7)


def test_euler_numbers_exact_prefix():
    # E_0..E_10 at even indices: 1, -1, 5, -61, 1385, -50521
    es = euler_numbers_exact(10)
    assert es[0::2] == [1, -1, 5, -61, 1385, -50521]
    assert all(e == 0 for e in es[1::2])


def test_u_numbers_exact_prefix():
    # U_0..U_8 at even indices: 1, -2, 22, -602, 30742
    us = u_numbers_exact(8)
    assert us[0::2] == [1, -2, 22, -602, 30742]
    assert all(u == 0 for u in us[1::2])


def _even_index_sequence(n_max: int, p: int, factor: int) -> list[int]:
    """x_0..x_n_max mod p by x_0 = 1, x_odd = 0 and the O(n_max^2) recurrence
    x_2n = factor * -(sum_{k>=1} C(2n,2k) x_{2n-2k}): E_n for factor 1, U_n
    for factor 2.  Pascal rows are walked with inverses of 1..2n, so
    n_max < p."""
    assert n_max < p
    out = [0] * (n_max + 1)
    out[0] = 1 % p
    inv = [0, 1] + [0] * max(0, p - 2)
    for i in range(2, min(p, n_max + 2)):
        inv[i] = -(p // i) * inv[p % i] % p
    for n2 in range(2, n_max + 1, 2):
        c = 1  # C(n2, 0)
        acc = 0
        for j2 in range(2, n2 + 1, 2):
            # advance C(n2, j2-2) -> C(n2, j2) in two multiplicative steps
            c = c * (n2 - j2 + 2) % p * inv[j2 - 1] % p
            c = c * (n2 - j2 + 1) % p * inv[j2] % p
            acc = (acc + c * out[n2 - j2]) % p
        out[n2] = factor * -acc % p
    return out


def test_single_index_numbers_match_recurrence_oracle():
    """Every n <= p-3 at every prime 5 <= p <= 400."""
    for p in primes_between(5, 400):
        es = _even_index_sequence(p - 3, p, 1)
        us = _even_index_sequence(p - 3, p, 2)
        assert [euler_numbers_mod(n, p) for n in range(p - 2)] == es, p
        assert [u_numbers_mod(n, p) for n in range(p - 2)] == us, p


@pytest.mark.parametrize("p", primes_between(5, 61) + [101])
def test_sequences_mod_match_exact_then_reduce(p):
    """E_n, U_n mod p for n <= 120, so also n >= p, where the recurrence
    oracle has no inverses."""
    es, us = euler_numbers_exact(120), u_numbers_exact(120)
    assert [euler_numbers_mod(n, p) for n in range(121)] == [e % p for e in es]
    assert [u_numbers_mod(n, p) for n in range(121)] == [u % p for u in us]


@pytest.mark.parametrize("p", (1997, 2011, 4999))
def test_lehmer_type_congruences_at_p_minus_3(p):
    """sum_{k<=p/4} k^-2 == 4(-1)^((p-1)/2) E_{p-3} and
    sum_{k<=p/3} k^-2 == 3 (p/3) U_{p-3} (mod p)."""
    def inv_square_sum(top):
        return sum(pow(k * k, -1, p) for k in range(1, top + 1)) % p

    sign = -1 if (p - 1) // 2 % 2 else 1
    assert inv_square_sum(p // 4) == 4 * sign * euler_numbers_mod(p - 3, p) % p
    assert inv_square_sum(p // 3) == 3 * legendre(p, 3) * u_numbers_mod(p - 3, p) % p


def test_single_index_numbers_reject_negative_index():
    with pytest.raises(ValueError):
        euler_numbers_mod(-1, 7)
    with pytest.raises(ValueError):
        u_numbers_mod(-2, 7)
