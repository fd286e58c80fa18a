"""Binary quadratic form representations of primes.

Five forms cover every right-hand side in the registry:

    F4:  p = x^2 +  4 y^2   (p = 1 mod 4)
    F2:  p = x^2 +  2 y^2   (p = 1, 3 mod 8)
    F3:  p = x^2 +  3 y^2   (p = 1 mod 3)
    F7:  p = x^2 +  7 y^2   (p = 1, 2, 4 mod 7)
    F27: 4p = x^2 + 27 y^2  (p = 1 mod 3)

These all have class number one, so (|x|, y) is unique; ``represent``
returns the canonical orientation x > 0, y > 0 and ``normalize_x`` applies
the one convention (x = 1 mod 4 for F4) that any statement needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonResidue, NotRepresentable, WrongForm

F4 = "F4"
F2 = "F2"
F3 = "F3"
F7 = "F7"
F27 = "F27"

FORMS = (F4, F2, F3, F7, F27)

#: form -> coefficient D in x^2 + D y^2.
_D = {F4: 4, F2: 2, F3: 3, F7: 7, F27: 27}

#: form -> (modulus, admissible residue classes of p).
_CLASSES = {
    F4: (4, {1}),
    F2: (8, {1, 3}),
    F3: (3, {1}),
    F7: (7, {1, 2, 4}),
    F27: (3, {1}),
}


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit-scale n."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sqrt_mod(a: int, p: int) -> int:
    """The smaller square root of a mod p (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise NonResidue(f"{a} is not a square mod {p}")
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i = 0
        t2 = t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(r, p - r)


@dataclass(frozen=True)
class QuadRep:
    """One representation of p by a form; x may be sign-normalized."""

    form: str
    x: int
    y: int
    p: int

    def target(self) -> int:
        return 4 * self.p if self.form == F27 else self.p

    def check(self) -> bool:
        return self.x * self.x + _D[self.form] * self.y * self.y == self.target()


def applicable(p: int, form: str) -> bool:
    """Does the representability dictionary admit (p, form)?"""
    mod, classes = _CLASSES[form]
    return p % mod in classes


def _cornacchia(p: int, d: int) -> tuple[int, int]:
    """Solve x^2 + d y^2 = p for prime p with (-d|p) = 1, by Euclid descent."""
    r0 = sqrt_mod(p - d % p, p)
    bound = math.isqrt(p)
    # The root in (p/2, p) is the one that descends to a solution; try both
    # rather than rely on the orientation.
    for r in (max(r0, p - r0), min(r0, p - r0)):
        a, b = p, r
        while b > bound:
            a, b = b, a % b
        if b == 0:
            continue
        y2, rem = divmod(p - b * b, d)
        if rem != 0:
            continue
        y = math.isqrt(y2)
        if y * y == y2 and y > 0:
            return b, y
    raise NotRepresentable(f"{p} has no x^2+{d}y^2 representation")


def represent(p: int, form: str) -> QuadRep:
    """Canonical representation (x > 0, y > 0) of p by the form."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    d = _D[form]
    if p == 2:
        raise NotRepresentable("p = 2 is not an odd prime")
    if not applicable(p, form):
        raise NotRepresentable(f"p={p} is not in the residue classes of {form}")
    if form == F27:
        # Exhaustive search: y <= sqrt(4p/27), tiny at desk scale.
        for y in range(1, math.isqrt(4 * p // 27) + 1):
            x2 = 4 * p - 27 * y * y
            x = math.isqrt(x2)
            if x * x == x2:
                return QuadRep(F27, x, y, p)
        raise NotRepresentable(f"no 4p = x^2 + 27 y^2 for p={p}")
    x, y = _cornacchia(p, d)
    return QuadRep(form, x, y, p)


def normalize_x(rep: QuadRep) -> QuadRep:
    """The F4 rep with x = 1 mod 4, always possible because x is odd there."""
    if rep.form != F4:
        raise WrongForm("x = 1 mod 4 applies to p = x^2 + 4y^2 only")
    return rep if rep.x % 4 == 1 else QuadRep(rep.form, -rep.x, rep.y, rep.p)
