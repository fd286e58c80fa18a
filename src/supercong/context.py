"""Per-prime evaluation context.

Everything expensive that more than one statement needs at the same prime
lives here and is computed once: binomial stream arrays, their products
and Jacobi streams, term and weight arrays for the sum evaluator, inverse
tables, the views at lower exponents, and two right-hand-side memos, each
form's (x, y) and the p-unit binomials.  A context is confined to one
task; the registry itself stays read-only and shareable.

A stream is a pair (vs, us) of valuations and units, term_k = us[k] *
p^vs[k] for k = 0..p-1, with us[k] == 0 marking an exact zero.  A sum
over a stream with geometric multiplier z = p^zv * zu is evaluated in two
stages (see ``supercong.sums``):

* ``terms(source, zv, zu)`` is the term array t_k = u_k zu^k p^(v_k + k zv)
  mod P.  ``source`` names the stream: a tuple of stream kinds (a product,
  taken in sorted order) or ``(a, central)`` for the Jacobi stream
  C(a,k)C(-1-a,k) at a p-integral a, times C(2k,k) when ``central``.  The
  cache key is the source with zv and zu, i.e. every input of the array.
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
binomial streams are built once per prime, and shares the root's (x, y)
of each form, which do not depend on t.  It holds those two dicts,
never the root, so no context is in a reference cycle and each is freed
as soon as its prime is done.  Everything else a view keeps on its own,
mod p^t: inverse table, weights, products, Jacobi streams and term arrays.
A residue mod p^2 fits in one 30-bit CPython digit for p < 32768 where one
mod p^4 needs two, so most statements run on the smaller integers.

Caches are kept by lifetime.  What is finite per prime lives as long as
the context: stream kinds, products, weights, right-hand-side binomials,
product term arrays (each belongs to one of the fixed statements'
(product, base) groups) and Jacobi streams at a fixed rational a (the
corollaries' four points).  What belongs to one sample lives in LRU
caches of ``JACOBI_CACHE`` entries: streams at a sampled int a, and every
Jacobi term array, whose multiplier is sampled even at a fixed a.  A
sample reads at most two of each and evicts nothing a fixed statement
reads, so the order of the ids does not matter; only a draw that repeats
an earlier one (mod p^2, so at the smallest primes) may find that
sample's arrays evicted.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, TypeVar

from . import quadform
from .binomials import batch_invert, binomial_mod, jacobi_stream_arrays, stream_arrays
from .errors import DenominatorNotUnit

#: Entries kept by each per-sample LRU cache: twice what one sample reads.
JACOBI_CACHE = 4

Stream = tuple[list[int], list[int]]
#: A product of stream kinds, or (a, central) for a Jacobi stream.
Source = tuple
#: A weight array and its poles (k, d, unit): the weight at k is p^-d * unit.
Weights = tuple[list[int], tuple[tuple[int, int, int], ...]]

V = TypeVar("V")


class Cache(dict):
    """Values built on first use: kept for the life of the cache, or, given a
    size, least-recently-used with at most ``size`` entries."""

    def __init__(self, size: int | None = None):
        super().__init__()
        self.size = size

    def get_or_build(self, key: Hashable, build: Callable[[], V]) -> V:
        if key in self:
            value = self[key] = self.pop(key)  # now the most recent
            return value
        value = self[key] = build()
        if self.size is not None and len(self) > self.size:
            del self[next(iter(self))]
        return value


def _times(a: Stream, b: Stream, P: int) -> Stream:
    """The elementwise product of two streams mod P."""
    return [x + y for x, y in zip(a[0], b[0])], [x * y % P for x, y in zip(a[1], b[1])]


class PrimeContext:
    """Shared per-prime caches at a fixed working exponent for an odd prime p."""

    def __init__(self, p: int, workexp: int):
        if p == 2 or not quadform.is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        if workexp < 1:
            raise ValueError(f"working exponent must be >= 1, got {workexp}")
        self.p = p
        self.workexp = workexp
        self.P = p**workexp
        self.pow_p = [p**i for i in range(workexp + 1)]
        self._streams: dict[str, Stream] = {}
        # Where streams are built: at workexp for a root; a view (see
        # ``at``) reduces the streams of its root.
        self._root_streams, self._root_exp = self._streams, workexp
        self._views: dict[int, PrimeContext] = {}
        self._products = Cache()
        # Jacobi streams by (a, central), and term arrays by lifetime
        self._fixed_a, self._sampled_a = Cache(), Cache(JACOBI_CACHE)
        self._group_terms, self._sample_terms = Cache(), Cache(JACOBI_CACHE)
        self._weights = Cache()
        self._binoms = Cache()
        self._inv: list[int] | None = None
        self._inv_sq: list[int] | None = None
        self._reps = Cache()

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

        def build() -> Stream:
            out = self.stream(key[0])
            for kind in key[1:]:
                out = _times(out, self.stream(kind), self.P)
            return out

        return self._products.get_or_build(key, build)

    def _jacobi_cache(self, a: Fraction | int) -> Cache:
        return self._fixed_a if isinstance(a, Fraction) else self._sampled_a

    def jacobi(self, a: Fraction | int) -> Stream:
        """C(a,k)C(-1-a,k) arrays for a p-integral a."""
        return self._jacobi_cache(a).get_or_build(
            (a, False), lambda: jacobi_stream_arrays(a, self.p, self.workexp, self.inv_sq())
        )

    def jacobi_central(self, a: Fraction | int) -> Stream:
        """C(a,k)C(-1-a,k)C(2k,k) arrays for a p-integral a."""

        return self._jacobi_cache(a).get_or_build(
            (a, True), lambda: _times(self.jacobi(a), self.stream("B22"), self.P)
        )

    def arrays(self, source: Source) -> Stream:
        """The stream a term array is built from (see the module docstring)."""
        if isinstance(source[0], str):
            return self.product(source)
        a, central = source
        return self.jacobi_central(a) if central else self.jacobi(a)

    # -- sum stages --------------------------------------------------------

    def terms(self, source: Source, zv: int, zu: int) -> list[int]:
        """t_k = u_k * zu^k * p^(v_k + k*zv) mod P for k = 0..p-1."""
        cache = self._sample_terms
        if isinstance(source[0], str):
            source, cache = tuple(sorted(source)), self._group_terms

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

        return cache.get_or_build((source, zv, zu), build)

    def weight(self, a0: int, a1: int, exp: int, inverted: bool) -> Weights:
        """w_k = (a0 + a1*k)^exp, or its inverse mod P, for k = 0..p-1.

        Zero bases give weight 0.  An inverse weight holds 0 at each pole
        (p divides a0 + a1*k), and the poles come back as (k, d, unit)
        with w_k = p^-d * unit.
        """

        def build() -> Weights:
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
            return ws, tuple(poles)

        return self._weights.get_or_build((a0, a1, exp, inverted), build)

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

    # -- right-hand sides --------------------------------------------------

    def xy(self, form: str) -> tuple[int, int]:
        """(x, y), both > 0, of p's representation by the form; raises
        NotRepresentable."""
        rep = self._reps.get_or_build(form, lambda: quadform.represent(self.p, form))
        return rep.x, rep.y

    def binom(self, n: int, k: int) -> int:
        """C(n,k) mod P for the p-unit binomials in right-hand sides.

        Built once per context and raises DenominatorNotUnit on every read
        when p divides C(n,k): a closed form may divide by this residue, and
        dividing by a non-unit residue would cancel p silently.
        """
        b = self._binoms.get_or_build((n, k), lambda: binomial_mod(n, k, self.p, self.workexp))
        if b % self.p == 0:
            raise DenominatorNotUnit(f"C({n},{k}) is divisible by {self.p}")
        return b


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
