"""Per-layer tracing of supercong from outside the package.

A :class:`Tracer` wraps the public functions of each module, records one
span (name, start, end, parent) per call in memory, and derives exact
counts from the call arguments.  Nothing under ``src/`` is edited: the
wrappers are bound into every ``supercong`` module that imported the
original by name, methods are patched on their class, and the registry's
statement callables are swapped for wrapped copies.  ``uninstall``
restores every original.

Per-term callees (``PrimeContext.inv``, ``padic.strip_p``) are not
wrapped: a span per term would cost more than the term itself.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
import weakref
from collections import defaultdict
from typing import Any, Callable

PKG = "supercong"

#: Span name -> (module, attribute, modules that must receive the rebinding).
FUNCTIONS = {
    "cli.main": ("cli", "main", ()),
    "statements.run_range": ("statements", "run_range", ("cli",)),
    "statements.evaluate_statement": ("statements", "evaluate_statement", ()),
    "statements.draw_params": ("statements", "draw_params", ()),
    "sums.evaluate_sum": ("sums", "evaluate_sum", ("registry",)),
    "sums.evaluate_jacobi_sum": ("sums", "evaluate_jacobi_sum", ("registry",)),
    "binomials.stream_arrays": ("binomials", "stream_arrays", ("context",)),
    "binomials.jacobi_stream_arrays": ("binomials", "jacobi_stream_arrays", ("context",)),
    "binomials.batch_invert": ("binomials", "batch_invert", ("context",)),
    "binomials.binomial_mod": ("binomials", "binomial_mod", ("special",)),
    "special.euler_numbers_mod": ("special", "euler_numbers_mod", ()),
    "special.u_numbers_mod": ("special", "u_numbers_mod", ()),
    "quadform.represent": ("quadform", "represent", ()),
    "identities.convolution": ("identities", "check_convolution_identity", ()),
    "identities.recurrence": ("identities", "check_convolution_recurrence", ()),
    "identities.products": ("identities", "check_product_identities", ()),
    "identities.series_square": ("identities", "check_series_square", ()),
    "identities.shift": ("identities", "check_shift_identity", ()),
}

#: Span name -> (module, class, method).
METHODS = {
    "context.init": ("context", "PrimeContext", "__init__"),
    "context.stream": ("context", "PrimeContext", "stream"),
    "context.product": ("context", "PrimeContext", "product"),
    "context.jacobi": ("context", "PrimeContext", "jacobi"),
    "context.jacobi_central": ("context", "PrimeContext", "jacobi_central"),
    "report.to_json": ("report", "VerificationReport", "to_json"),
}


class Tracer:
    """In-memory spans and argument-derived counts for one traced run."""

    def __init__(self) -> None:
        #: One [name, start, end, parent index or -1] list per call.
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []
        # Keys already requested from each live PrimeContext, per cache.
        self._seen: dict[str, weakref.WeakKeyDictionary] = defaultdict(
            weakref.WeakKeyDictionary
        )

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn: Callable, count=None) -> Callable:
        """fn recording a span per call; `count`, if given, is called after
        each call with the bound arguments (defaults applied) and the
        result."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sig = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(bound.arguments, result)
            return result

        return traced

    def install(self, pkg) -> "Tracer":
        """Patch every traced entry point of the imported package `pkg`.

        A function is rebound under every name that holds it in any
        module of the package, so that calls through ``from x import f``
        are traced too.
        """
        try:
            self._install(pkg)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install(self, pkg) -> None:
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == PKG or name.startswith(PKG + ".")
        }
        sub = {name.rpartition(".")[2]: mod for name, mod in mods.items()}
        hooks = self._hooks(sub)
        for span, (modname, attr, must) in FUNCTIONS.items():
            original = getattr(sub[modname], attr)
            wrapper = self.wrap(span, original, hooks.get(span))
            holders = [
                (name, mod, key)
                for name, mod in mods.items()
                for key, val in list(vars(mod).items())
                if val is original
            ]
            missing = {f"{PKG}.{m}" for m in must} - {name for name, _, _ in holders}
            if missing:
                raise RuntimeError(f"{attr} is not imported by name in {sorted(missing)}")
            for _, mod, key in holders:
                self._set(mod, key, wrapper)
        for span, (modname, clsname, attr) in METHODS.items():
            cls = getattr(sub[modname], clsname)
            self._set(cls, attr, self.wrap(span, vars(cls)[attr], hooks.get(span)))
        self._wrap_registry(sub["registry"], pkg)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _set(self, owner, attr: str, value) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _wrap_registry(self, registry, pkg) -> None:
        """Swap each statement for a copy whose callables record spans."""
        table = registry.REGISTRY
        originals = dict(table)
        for sid, stmt in originals.items():
            if isinstance(stmt, pkg.Parametric):
                table[sid] = dataclasses.replace(
                    stmt, check=self.wrap("registry.param", stmt.check)
                )
            else:
                table[sid] = dataclasses.replace(
                    stmt,
                    lhs=self.wrap("registry.fixed", stmt.lhs),
                    rhs=self.wrap("registry.fixed", stmt.rhs),
                )
        self._undo.append(lambda: table.update(originals))

    # -- counts from call arguments ----------------------------------------

    def _distinct(self, cache: str, ctx, key) -> None:
        seen = self._seen[cache].setdefault(ctx, set())
        if key not in seen:
            seen.add(key)
            self.counts[f"{cache}.distinct"] += 1

    def _hooks(self, sub) -> dict[str, Callable]:
        limit_bound = sub["sums"].limit_bound
        c = self.counts

        def sum_terms(a, _):
            c["sums.evaluate_sum.terms"] += limit_bound(a["spec"].limit, a["p"]) + 1

        def jacobi_terms(a, _):
            c["sums.evaluate_jacobi_sum.terms"] += limit_bound(a["limit"], a["p"]) + 1

        def items(a, _):
            c["binomials.batch_invert.items"] += len(a["xs"])

        def report_bytes(a, text):
            # less the digits of `elapsed`, so that the size is exact
            c["report.bytes"] += len(text.encode()) - len(json.dumps(a["self"].elapsed))

        return {
            "sums.evaluate_sum": sum_terms,
            "sums.evaluate_jacobi_sum": jacobi_terms,
            "binomials.batch_invert": items,
            "context.stream": lambda a, _: self._distinct("context.stream", a["self"], a["kind"]),
            "context.product": lambda a, _: self._distinct(
                "context.product", a["self"], tuple(sorted(a["kinds"]))
            ),
            "context.jacobi": lambda a, _: self._distinct("context.jacobi", a["self"], a["a"]),
            "report.to_json": report_bytes,
        }

    # -- derived numbers ----------------------------------------------------

    def totals(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """(calls, inclusive seconds, self seconds) per span name.

        A span's self time is its duration minus the durations of the
        spans whose parent it is.
        """
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            own[name] += end - start - child[i]
        return calls, incl, own
