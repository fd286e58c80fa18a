"""Binary quadratic form representations of primes.

Five forms cover every right-hand side in the registry:

    F4:  p = x^2 +  4 y^2   (p = 1 mod 4)
    F2:  p = x^2 +  2 y^2   (p = 1, 3 mod 8)
    F3:  p = x^2 +  3 y^2   (p = 1 mod 3)
    F7:  p = x^2 +  7 y^2   (p = 1, 2, 4 mod 7)
    F27: 4p = x^2 + 27 y^2  (p = 1 mod 3)

These all have class number one, so (|x|, y) is unique, and ``represent``
returns it with x > 0, y > 0, found by a search over y up to sqrt(mp/D).
That is at most about 30 steps at the p ~ 2000 where the registry reads x
and y, beside the O(p) terms each statement sums there.  The search grows
as sqrt(p): about 3 ms at p ~ 10^9 and 0.1 s at p ~ 10^12, where a
Cornacchia descent takes well under a millisecond; no caller goes that
far.  ``is_prime`` is trial division, with the same sqrt(p) reach.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import NotRepresentable

F4 = "F4"
F2 = "F2"
F3 = "F3"
F7 = "F7"
F27 = "F27"

#: form -> (D, m, modulus, residues): m p = x^2 + D y^2 is solvable exactly
#: for the primes p with p mod modulus in residues.
_TABLE = {
    F4: (4, 1, 4, (1,)),
    F2: (2, 1, 8, (1, 3)),
    F3: (3, 1, 3, (1,)),
    F7: (7, 1, 7, (1, 2, 4)),
    F27: (27, 4, 3, (1,)),
}

FORMS = tuple(_TABLE)

#: form -> the equation it states, as claims print it: "4p = x^2 + 27y^2".
TEXT = {
    form: f"{m if m > 1 else ''}p = x^2 + {d}y^2" for form, (d, m, _, _) in _TABLE.items()
}


def is_prime(n: int) -> bool:
    """Trial division by 2 and the odd numbers up to sqrt(n)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % q for q in range(3, math.isqrt(n) + 1, 2))


class QuadRep(NamedTuple):
    """One representation of p by a form: m p = x^2 + D y^2."""

    form: str
    x: int
    y: int
    p: int

    def target(self) -> int:
        return _TABLE[self.form][1] * self.p

    def check(self) -> bool:
        return self.x * self.x + _TABLE[self.form][0] * self.y * self.y == self.target()


def applicable(p: int, form: str) -> bool:
    """Does the representability dictionary admit (p, form)?  Never at p = 2,
    which no form represents with x, y > 0."""
    _, _, mod, residues = _TABLE[form]
    return p > 2 and p % mod in residues


def represent(p: int, form: str) -> QuadRep:
    """The representation of p by the form with x > 0, y > 0, by a search
    over y that takes sqrt(mp/D) steps at most."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not applicable(p, form):
        raise NotRepresentable(f"p={p} is not in the residue classes of {form}")
    d, m, _, _ = _TABLE[form]
    target = m * p
    # y stops short of x = 0
    for y in range(1, math.isqrt((target - 1) // d) + 1):
        x2 = target - d * y * y
        x = math.isqrt(x2)
        if x * x == x2:
            return QuadRep(form, x, y, p)
    raise NotRepresentable(f"no {TEXT[form]} for p={p}")
