"""Exact residues in Z/p^t.

Every value the engine computes is a Python int reduced mod p^t; terms
with p in the denominator are split by ``strip_p`` into a power of p and
a unit before they are reduced.  ``Residue`` is the form every congruence
is checked in.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DenominatorNotUnit


def strip_p(n: int, p: int) -> tuple[int, int]:
    """Split n != 0 into (v, unit) with n = unit * p^v and p not dividing unit."""
    if n == 0:
        raise ValueError("strip_p expects a nonzero integer")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


@dataclass(frozen=True)
class Residue:
    """An element of Z/p^t."""

    p: int
    t: int
    value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value % self.p**self.t)

    @property
    def modulus(self) -> int:
        return self.p**self.t

    def __repr__(self) -> str:
        return f"{self.value} mod {self.p}^{self.t}"


def residue_from_rational(num: int, den: int, p: int, t: int) -> Residue:
    """num/den reduced mod p^t; den must be a p-unit."""
    if den % p == 0:
        raise DenominatorNotUnit(f"denominator {den} is divisible by {p}")
    m = p**t
    return Residue(p, t, num * pow(den, -1, m) % m)


def residue_from_fraction(q: Fraction | int, p: int, t: int) -> Residue:
    """Reduce an exact rational with p-unit denominator mod p^t."""
    q = Fraction(q)
    return residue_from_rational(q.numerator, q.denominator, p, t)
