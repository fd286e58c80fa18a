"""Per-prime evaluation context.

Everything expensive that more than one statement needs at the same prime
lives here and is computed once: binomial stream arrays, products of
streams, inverse tables, term and weight arrays for the sum evaluator, and
quadratic form representations.  A context is confined to one task; the
registry itself stays read-only and shareable.

A stream is a pair (vs, us) of valuations and units, term_k = us[k] *
p^vs[k] for k = 0..p-1, with us[k] == 0 marking an exact zero.  A sum
over a stream with geometric multiplier z = p^zv * zu is evaluated in two
stages (see ``supercong.sums``):

* ``terms(source, zv, zu)`` is the term array t_k = u_k zu^k p^(v_k + k zv)
  mod P.  ``source`` names the stream: a tuple of stream kinds (a product,
  taken in sorted order) or ``(a, central)`` for the Jacobi stream
  C(a,k)C(-1-a,k), times C(2k,k) when ``central``.  The cache key is the
  source with zv and zu, i.e. every input of the array.
* ``weight(a0, a1, exp, inverted)`` is the weight array w_k = (a0 + a1 k)^exp
  (plain ints) or its inverse mod P, built from the ``inv`` table.  At a pole
  of an inverse weight (p divides a0 + a1 k, e.g. 2k - 1 = p) the array holds
  0 and the pole is listed separately as (k, d, unit) with w_k = p^-d unit;
  the evaluator adds that term exactly from the stream.

Root and views.  A verification run builds one *root* context per prime,
at the largest modulus exponent any statement needs.  ``at(t)`` narrows it
to exponent t: it returns a *view*, a context at p^t that is cached on the
root.  Every statement runs on the view at its own exponent, so ``ctx.P``
is its modulus.  A view reduces the root's streams mod p^t, so the four
binomial streams are built once per prime, and shares the root's quadratic
form representations, which do not depend on t.  It holds those two dicts,
never the root, so no context is in a reference cycle and each is freed
as soon as its prime is done.  Everything else a view keeps on its own,
mod p^t: inverse table, weights, products, Jacobi streams and term arrays.
A residue mod p^2 fits in one 30-bit CPython digit for p < 32768 where one
mod p^4 needs two, so most statements run on the smaller integers.

Stream kinds, products and weight arrays are finite per prime and kept for
the life of the context.  Jacobi streams and term arrays depend on sampled
parameters, so they live in small LRU caches: a sampled a is used by one
checker call, and ``JACOBI_CACHE`` streams cover all of its reuse.  The
fixed statements at one exponent use at most 17 (product, base) groups
and a sample fewer arrays, so ``TERM_CACHE`` is 17.  A run takes a prime's
fixed ids before its parametric ones, so a sample's arrays evict only
groups that no later id uses, and no array is built twice on one context.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

from . import quadform, special
from .binomials import batch_invert, binomial_mod, jacobi_stream_arrays, stream_arrays
from .errors import DenominatorNotUnit, ModulusTooHigh, NotRepresentable

#: Entries kept by the bounded per-sample caches.
JACOBI_CACHE = 4
TERM_CACHE = 17

Stream = tuple[list[int], list[int]]
#: A product of stream kinds, or (a, central) for a Jacobi stream.
Source = tuple
#: A weight array and its poles (k, d, unit): the weight at k is p^-d * unit.
Weights = tuple[list[int], tuple[tuple[int, int, int], ...]]

V = TypeVar("V")


class BoundedCache(OrderedDict):
    """Least-recently-used mapping holding at most ``size`` entries."""

    def __init__(self, size: int):
        super().__init__()
        self.size = size

    def get_or_build(self, key: Hashable, build: Callable[[], V]) -> V:
        if key in self:
            self.move_to_end(key)
            return self[key]
        value = self[key] = build()
        if len(self) > self.size:
            self.popitem(last=False)
        return value


class PrimeContext:
    """Shared per-prime caches at a fixed working exponent."""

    def __init__(self, p: int, workexp: int):
        self.p = p
        self.workexp = workexp
        self.P = p**workexp
        self.pow_p = [p**i for i in range(workexp + 1)]
        self._streams: dict[str, Stream] = {}
        # Where streams are built: at workexp for a root; a view (see
        # ``at``) reduces the streams of its root.
        self._root_streams, self._root_exp = self._streams, workexp
        self._views: dict[int, PrimeContext] = {}
        self._products: dict[tuple[str, ...], Stream] = {}
        self._jacobi = BoundedCache(JACOBI_CACHE)
        self._jacobi_central = BoundedCache(JACOBI_CACHE)
        self._terms = BoundedCache(TERM_CACHE)
        self._weights: dict[tuple[int, int, int, bool], Weights] = {}
        self._inv: list[int] | None = None
        self._inv_sq: list[int] | None = None
        self._reps: dict[str, quadform.QuadRep | None] = {}

    # -- streams ---------------------------------------------------------

    def at(self, t: int) -> PrimeContext:
        """This context at exponent t <= workexp: itself at t == workexp, else
        a view cached here that shares the root's streams and representations."""
        if t == self.workexp:
            return self
        if not 1 <= t < self.workexp:
            raise ValueError(f"context exponent {self.workexp} cannot narrow to {t}")
        view = self._views.get(t)
        if view is None:
            view = self._views[t] = PrimeContext(self.p, t)
            view._root_streams, view._root_exp = self._root_streams, self._root_exp
            view._reps = self._reps
        return view

    def stream(self, kind: str) -> Stream:
        if kind not in self._streams:
            root = self._root_streams
            if kind not in root:
                root[kind] = stream_arrays(kind, self.p, self._root_exp)
            if root is not self._streams:
                vs, us = root[kind]
                P = self.P
                self._streams[kind] = (vs, [u % P for u in us])
        return self._streams[kind]

    def product(self, kinds: tuple[str, ...]) -> Stream:
        """Elementwise product of one to three stream families."""
        key = tuple(sorted(kinds))
        if key not in self._products:
            P = self.P
            vs, us = self.stream(key[0])
            vs, us = list(vs), list(us)
            for kind in key[1:]:
                v2, u2 = self.stream(kind)
                for k in range(self.p):
                    vs[k] += v2[k]
                    us[k] = us[k] * u2[k] % P
            self._products[key] = (vs, us)
        return self._products[key]

    def jacobi(self, a: int) -> Stream:
        """C(a,k)C(-1-a,k) arrays for an exact integer a."""
        return self._jacobi.get_or_build(
            a, lambda: jacobi_stream_arrays(a, self.p, self.workexp, self.inv_sq())
        )

    def jacobi_central(self, a: int) -> Stream:
        """C(a,k)C(-1-a,k)C(2k,k) arrays for an exact integer a."""

        def build() -> Stream:
            vs, us = self.jacobi(a)
            cv, cu = self.stream("B22")
            P = self.P
            return (
                [v + c for v, c in zip(vs, cv)],
                [u * c % P for u, c in zip(us, cu)],
            )

        return self._jacobi_central.get_or_build(a, build)

    def arrays(self, source: Source) -> Stream:
        """The stream a term array is built from (see the module docstring)."""
        if isinstance(source[0], str):
            return self.product(source)
        a, central = source
        return self.jacobi_central(a) if central else self.jacobi(a)

    # -- sum stages --------------------------------------------------------

    def terms(self, source: Source, zv: int, zu: int) -> list[int]:
        """t_k = u_k * zu^k * p^(v_k + k*zv) mod P for k = 0..p-1."""
        if isinstance(source[0], str):
            source = tuple(sorted(source))

        def build() -> list[int]:
            vs, us = self.arrays(source)
            P, T, pow_p = self.P, self.workexp, self.pow_p
            out = [0] * self.p
            z = 1
            for k in range(self.p):
                v = vs[k] + k * zv
                if v < T:
                    out[k] = us[k] * z % P * pow_p[v] % P
                elif k * zv >= T:
                    break  # every later term has valuation >= T as well
                z = z * zu % P
            return out

        return self._terms.get_or_build((source, zv, zu), build)

    def weight(self, a0: int, a1: int, exp: int, inverted: bool) -> Weights:
        """w_k = (a0 + a1*k)^exp, or its inverse mod P, for k = 0..p-1.

        Zero bases give weight 0.  An inverse weight holds 0 at each pole
        (p divides a0 + a1*k), and the poles come back as (k, d, unit)
        with w_k = p^-d * unit.
        """
        key = (a0, a1, exp, inverted)
        if key not in self._weights:
            p, P = self.p, self.P
            ws = [0] * p
            poles = []
            for k in range(p):
                b = a0 + a1 * k
                if not b:
                    continue
                if not inverted:
                    ws[k] = b**exp
                    continue
                d = 0
                while b % p == 0:
                    b //= p
                    d += 1
                unit = pow(self.inv(abs(b)), exp, P)
                if b < 0 and exp % 2:
                    unit = P - unit
                if d:
                    poles.append((k, d * exp, unit))
                else:
                    ws[k] = unit
            self._weights[key] = (ws, tuple(poles))
        return self._weights[key]

    # -- inverses --------------------------------------------------------

    def inv(self, n: int) -> int:
        """Inverse mod p^workexp of a p-free 0 < n <= 2p + 4."""
        if self._inv is None:
            top = 2 * self.p + 4
            units = [i for i in range(1, top + 1) if i % self.p]
            invs = batch_invert(units, self.P)
            table = [0] * (top + 1)
            for i, val in zip(units, invs):
                table[i] = val
            self._inv = table
        return self._inv[n]

    def inv_sq(self) -> list[int]:
        """(k+1)^-2 mod p^workexp for k = 0..p-2."""
        if self._inv_sq is None:
            P = self.P
            self._inv_sq = [self.inv(k) ** 2 % P for k in range(1, self.p)]
        return self._inv_sq

    # -- quadratic forms and specials -------------------------------------

    def rep(self, form: str) -> quadform.QuadRep:
        """Canonical (x > 0, y > 0) representation; raises NotRepresentable."""
        if form not in self._reps:
            try:
                self._reps[form] = quadform.represent(self.p, form)
            except NotRepresentable:
                self._reps[form] = None
        got = self._reps[form]
        if got is None:
            raise NotRepresentable(f"p={self.p} not represented by {form}")
        return got

    def xy(self, form: str) -> tuple[int, int]:
        r = self.rep(form)
        return r.x, r.y

    def x_one_mod_4(self) -> int:
        """x with p = x^2 + 4y^2 and x = 1 (mod 4)."""
        return quadform.normalize_x(self.rep(quadform.F4)).x

    def legendre(self, a: int) -> int:
        return special.legendre(a, self.p)

    def r1(self) -> int:
        """R1(p) mod p^2; ModulusTooHigh above p^2, the only modulus it is known to."""
        if self.workexp > 2:
            raise ModulusTooHigh(f"R1 is known mod p^2 only, not mod p^{self.workexp}")
        return special.r1(self.p).value

    def r3(self) -> int:
        """R3(p) mod p^2; ModulusTooHigh above p^2, the only modulus it is known to."""
        if self.workexp > 2:
            raise ModulusTooHigh(f"R3 is known mod p^2 only, not mod p^{self.workexp}")
        return special.r3(self.p).value

    def fermat_quotient(self, b: int) -> int:
        """q_b = (b^(p-1) - 1)/p mod P."""
        return special.fermat_quotient(b, self.p, self.workexp + 1).value

    def binom(self, n: int, k: int) -> int:
        """C(n,k) mod P for the p-unit binomials in right-hand sides.

        Raises DenominatorNotUnit when p divides C(n,k): a closed form may
        divide by this residue, and dividing by a non-unit residue would
        cancel p silently.
        """
        b = binomial_mod(n, k, self.p, self.workexp)
        if b % self.p == 0:
            raise DenominatorNotUnit(f"C({n},{k}) is divisible by {self.p}")
        return b

    def euler_number(self, n: int) -> int:
        return special.euler_numbers_mod(n, self.p)

    def u_number(self, n: int) -> int:
        return special.u_numbers_mod(n, self.p)


def context_for(ctx: PrimeContext | None, p: int, t: int) -> PrimeContext:
    """ctx, checked to be for p and to reach exponent t; a new context at
    exponent t when ctx is None."""
    if t < 1:
        raise ValueError(f"modulus exponent t must be >= 1, got {t}")
    if ctx is None:
        return PrimeContext(p, t)
    if ctx.p != p:
        raise ValueError(f"context is for p={ctx.p}, not p={p}")
    if ctx.workexp < t:
        raise ValueError(f"context exponent {ctx.workexp} below target {t}")
    return ctx
