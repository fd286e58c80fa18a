"""Auxiliary constants for right-hand sides: Legendre symbols, Fermat
quotients, the binomial-square products R1(p)/R3(p), and the E_n/U_n
recurrence sequences mod p."""

from __future__ import annotations

from fractions import Fraction

from .binomials import binomial_mod
from .errors import NotCoprime, WrongClass
from .padic import Residue, residue_from_fraction


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {+1, -1} via the Euler criterion; p must not divide a."""
    if a % p == 0:
        raise NotCoprime(f"{p} divides {a}")
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def fermat_quotient(b: int, p: int, t: int) -> Residue:
    """(b^(p-1) - 1)/p as a Residue mod p^(t-1), for p not dividing b, t >= 2."""
    if b % p == 0:
        raise NotCoprime(f"{p} divides {b}")
    if t < 2:
        raise ValueError("t must be >= 2")
    q = (pow(b, p - 1, p**t) - 1) // p
    return Residue(p, t - 1, q)


def _half_binomial_sq(p: int, low_div: int) -> int:
    """C((p-1)/2, floor(p/low_div))^2 mod p^2 (always a p-unit: top < p)."""
    b = binomial_mod((p - 1) // 2, p // low_div, p, 2)
    return b * b % p**2


def r1(p: int) -> Residue:
    """R1(p) = (2p + 2 - 2^(p-1)) * C((p-1)/2, floor(p/4))^2 mod p^2 (p = 3 mod 4)."""
    if p % 4 != 3:
        raise WrongClass(f"R1 needs p = 3 mod 4, got p = {p}")
    m = p**2
    return Residue(p, 2, (2 * p + 2 - pow(2, p - 1, m)) * _half_binomial_sq(p, 4))


def r3(p: int) -> Residue:
    """R3(p) = (1 + 2p + (4/3)(2^(p-1)-1) - (3/2)(3^(p-1)-1)) * C((p-1)/2, floor(p/6))^2
    mod p^2 (p = 2 mod 3, p > 3 so 1/3 and 1/2 exist)."""
    if p % 3 != 2:
        raise WrongClass(f"R3 needs p = 2 mod 3, got p = {p}")
    m = p**2
    coeff = (
        1
        + 2 * p
        + residue_from_fraction(Fraction(4, 3), p, 2).value * (pow(2, p - 1, m) - 1)
        - residue_from_fraction(Fraction(3, 2), p, 2).value * (pow(3, p - 1, m) - 1)
    )
    return Residue(p, 2, coeff * _half_binomial_sq(p, 6))


def _even_index_sequence(n_max: int, p: int, factor: int) -> list[int]:
    """Shared recurrence x_{2n} = factor * -(sum_k C(2n,2k) x_{2n-2k}) mod p."""
    out = [0] * (n_max + 1)
    out[0] = 1 % p
    # Walk Pascal rows incrementally: row[j] = C(2n, j) mod p needs inverses
    # of 1..2n, which stay units because callers keep n_max <= p - 1.
    if n_max >= p:
        raise ValueError("recurrence indices must stay below p")
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


def euler_numbers_mod(n_max: int, p: int) -> list[int]:
    """E_0..E_n_max mod p: E_0 = 1, odd E vanish, E_2n = -sum C(2n,2k) E_{2n-2k}."""
    return _even_index_sequence(n_max, p, 1)


def u_numbers_mod(n_max: int, p: int) -> list[int]:
    """U_0..U_n_max mod p: U_0 = 1, odd U vanish, U_2n = -2 sum C(2n,2k) U_{2n-2k}."""
    return _even_index_sequence(n_max, p, 2)


def euler_numbers_exact(n_max: int) -> list[int]:
    """Exact integer E_0..E_n_max (oracle for the modular recurrence)."""
    from math import comb

    out = [0] * (n_max + 1)
    out[0] = 1
    for n2 in range(2, n_max + 1, 2):
        out[n2] = -sum(comb(n2, k2) * out[n2 - k2] for k2 in range(2, n2 + 1, 2))
    return out


def u_numbers_exact(n_max: int) -> list[int]:
    """Exact integer U_0..U_n_max (oracle for the modular recurrence)."""
    from math import comb

    out = [0] * (n_max + 1)
    out[0] = 1
    for n2 in range(2, n_max + 1, 2):
        out[n2] = -2 * sum(comb(n2, k2) * out[n2 - k2] for k2 in range(2, n2 + 1, 2))
    return out
