"""Auxiliary constants for right-hand sides: Legendre symbols, Fermat
quotients, the binomial-square products R1(p)/R3(p), and single Euler and
U numbers E_n, U_n mod p, each an O(p) alternating power sum.  The exact
integer sequences, the tests' oracles, are in ``tests/oracles.py``."""

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


def euler_numbers_mod(n: int, p: int) -> int:
    """E_n mod p for an odd prime p and any n >= 0, in O(p) modular powers:

        E_n == sum_{k=0}^{p-1} (-1)^k (2k+1)^n  (mod p).

    Proof from the Euler polynomials E_n(x) (Abramowitz and Stegun, 23.1):
    E_n(x+1) + E_n(x) = 2x^n telescopes over an odd number p of terms to
    sum_{k<p} (-1)^k (x+k)^n = (E_n(x) + E_n(x+p))/2.  E_n(X) = sum_k C(n,k)
    E_k 2^-k (X - 1/2)^(n-k) has powers of 2 as denominators, so
    E_n(x+p) == E_n(x) (mod p) for p-integral x.  At x = 1/2 the sum above
    is 2^n sum_{k<p} (-1)^k (k + 1/2)^n == 2^n E_n(1/2) = E_n.
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    # 2k+1 runs through 1, 5, 9, ... for even k and 3, 7, 11, ... for odd k
    plus = sum(pow(x, n, p) for x in range(1, 2 * p, 4))
    minus = sum(pow(x, n, p) for x in range(3, 2 * p, 4))
    return (plus - minus) % p


def u_numbers_mod(n: int, p: int) -> int:
    """U_n mod p for a prime p > 3 and any n >= 0, in O(p) modular powers:

        U_n == (1/2) sum_{k=0}^{p-1} (-1)^k ((3k+1)^n + (3k+2)^n)  (mod p).

    U(t) = 1/(2 cosh t - 1) = (e^t + e^2t)/(1 + e^3t), and E_n(x) has
    generating function 2e^(xt)/(e^t + 1), so U_n = (3^n/2)(E_n(1/3) +
    E_n(2/3)).  The sum is (3^n/2) sum_{k<p} (-1)^k ((k + 1/3)^n +
    (k + 2/3)^n), so the proof of ``euler_numbers_mod`` at the p-integral
    points x = 1/3 and x = 2/3 gives the congruence.
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    # 3k+1, 3k+2 are 1, 2 (mod 6) for even k and 4, 5 (mod 6) for odd k
    plus = sum(pow(x, n, p) for r in (1, 2) for x in range(r, 3 * p, 6))
    minus = sum(pow(x, n, p) for r in (4, 5) for x in range(r, 3 * p, 6))
    return (plus - minus) * ((p + 1) // 2) % p
