"""Exact residues in Z/p^t.

Every value the engine computes is a Python int reduced mod p^t; terms
with p in the denominator are split by ``strip_p`` into a power of p and
a unit before they are reduced.  ``Residue`` is the form every congruence
is checked in.
"""

from __future__ import annotations

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


class Residue:
    """An element of Z/p^t: immutable, equal and hashed by (p, t, value)."""

    __slots__ = ("p", "t", "value")

    def __init__(self, p: int, t: int, value: int) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "value", value % p**t)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not Residue:
            return NotImplemented
        return self.p == other.p and self.t == other.t and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.p, self.t, self.value))

    def __reduce__(self) -> tuple:
        return Residue, (self.p, self.t, self.value)

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
