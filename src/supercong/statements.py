"""Statement evaluation and prime-range verification runs."""

from __future__ import annotations

import fnmatch
import hashlib
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, Sequence

from .context import PrimeContext, context_for
from .errors import SupercongError, UnknownStatement
from .registry import REGISTRY, STATUSES, Fixed, Parametric, Statement, statement_modexp
from .report import ReportRow, VerificationReport, gates

HOLDS = "Holds"
FAILS = "Fails"
NOT_APPLICABLE = "NotApplicable"
SKIPPED = "Skipped"

SAMPLES_PER_PRIME = 10
MAX_REDRAWS = 64

# Largest modulus exponent any registered statement uses; a context at this
# exponent covers every statement for a prime.
MAX_MODEXP = 4


@dataclass(frozen=True)
class Verdict:
    """Outcome of one statement at one prime."""

    outcome: str
    lhs: int | None = None
    rhs: int | None = None
    modulus: int | None = None
    detail: str = ""


def primes_in(p_lo: int, p_hi: int) -> list[int]:
    """All primes p with p_lo <= p <= p_hi."""
    if p_hi < 2 or p_hi < p_lo:
        return []
    sieve = bytearray([1]) * (p_hi + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(p_hi**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [n for n in range(max(p_lo, 2), p_hi + 1) if sieve[n]]


def select_ids(
    patterns: Sequence[str] | None = None,
    statuses: Iterable[str] | None = None,
) -> list[str]:
    """Statement ids matching the given glob patterns and statuses.

    Patterns match against the full registry (a pattern matching nothing at
    all raises UnknownStatement); the status filter is applied afterwards,
    so a valid id excluded by status yields an empty selection, not an
    error.  Without patterns, all ids passing the status filter are
    returned in registry order.
    """
    if statuses is not None:
        statuses = set(statuses)
        unknown = statuses - set(STATUSES)
        if unknown:
            raise UnknownStatement(f"unknown status: {', '.join(sorted(unknown))}")
    if patterns is None:
        matched = list(REGISTRY)
    else:
        matched = []
        seen: set[str] = set()
        for pat in patterns:
            hits = [sid for sid in REGISTRY if fnmatch.fnmatchcase(sid, pat)]
            if not hits:
                raise UnknownStatement(f"no statement matches {pat!r}")
            for sid in hits:
                if sid not in seen:
                    seen.add(sid)
                    matched.append(sid)
    if statuses is None:
        return matched
    return [sid for sid in matched if REGISTRY[sid].status in statuses]


def draw_params(stmt: Parametric, p: int, seed: int, index: int) -> tuple[int, ...] | None:
    """Deterministic parameter tuple for sample `index`, or None.

    Parameters are drawn mod p^2 from a generator keyed on (seed, p, id,
    index); inadmissible tuples are redrawn a bounded number of times.
    """
    key = hashlib.sha256(f"{seed}|{p}|{stmt.sid}|{index}".encode()).digest()
    rng = random.Random(int.from_bytes(key[:8], "big"))
    for _ in range(MAX_REDRAWS):
        cand = tuple(rng.randrange(p * p) for _ in stmt.params)
        if stmt.admissible(p, cand):
            return cand
    return None


def _check_fixed(stmt: Fixed, ctx: PrimeContext) -> Verdict:
    lhs = stmt.lhs(ctx)
    rhs = stmt.rhs(ctx)
    return Verdict(HOLDS if lhs == rhs else FAILS, lhs, rhs, ctx.P)


def _check_parametric(stmt: Parametric, ctx: PrimeContext, seed: int) -> Verdict:
    p, modulus = ctx.p, ctx.P
    checked = 0
    skipped = 0
    for i in range(SAMPLES_PER_PRIME):
        params = draw_params(stmt, p, seed, i)
        if params is None:
            skipped += 1
            continue
        pairs = stmt.check(ctx, params)
        if pairs is None:
            skipped += 1
            continue
        for lhs, rhs in pairs:
            if lhs != rhs:
                detail = f"sample {i} params={params}"
                return Verdict(FAILS, lhs, rhs, modulus, detail)
        checked += 1
    if checked == 0:
        return Verdict(
            SKIPPED,
            detail=f"all {SAMPLES_PER_PRIME} samples failed a unit hypothesis",
        )
    detail = f"{checked} samples"
    if skipped:
        detail += f" ({skipped} hypothesis-skipped)"
    return Verdict(HOLDS, None, None, modulus, detail)


def evaluate_statement(
    sid: str,
    p: int,
    *,
    seed: int = 0,
    ctx: PrimeContext | None = None,
) -> Verdict:
    """Check one registered statement at one prime.

    A shared PrimeContext for p may be passed in to reuse cached streams;
    it must reach the statement's modulus exponent t.  Without one, a
    context at t is built.  The statement runs on the context's view at t
    (``PrimeContext.at``), whose modulus is p^t.
    """
    stmt = REGISTRY.get(sid)
    if stmt is None:
        raise UnknownStatement(f"unknown statement id: {sid}")
    if not stmt.applies(p):
        return Verdict(NOT_APPLICABLE, detail=f"requires {stmt.condition}")
    t = statement_modexp(stmt, p)
    ctx = context_for(ctx, p, t).at(t)
    if isinstance(stmt, Parametric):
        return _check_parametric(stmt, ctx, seed)
    return _check_fixed(stmt, ctx)


def _verdict_row(p: int, sid: str, v: Verdict) -> ReportRow:
    return ReportRow(p, sid, v.outcome, v.lhs, v.rhs, v.modulus, v.detail)


def _run_prime(args: tuple[int, tuple[str, ...], int]) -> list[ReportRow]:
    p, sids, seed = args
    ctx = PrimeContext(p, MAX_MODEXP)
    rows = []
    for sid in sids:
        try:
            v = evaluate_statement(sid, p, seed=seed, ctx=ctx)
        except SupercongError as exc:
            v = Verdict(SKIPPED, detail=f"{type(exc).__name__}: {exc}")
        rows.append(_verdict_row(p, sid, v))
    return rows


def run_range(
    p_lo: int,
    p_hi: int,
    *,
    ids: Sequence[str] | None = None,
    statuses: Iterable[str] | None = None,
    seed: int = 0,
    jobs: int = 1,
    fail_fast: bool = False,
) -> VerificationReport:
    """Evaluate the selected statements at every prime in [p_lo, p_hi].

    Rows come back sorted by (p, id) and are identical for any jobs count.
    Per-cell engine errors become Skipped rows; they never abort the run.
    """
    if not 3 < p_lo <= p_hi:
        raise ValueError(f"prime range must satisfy 3 < A <= B, got {p_lo}..{p_hi}")
    sids = tuple(select_ids(ids, statuses))
    started = time.monotonic()
    rows: list[ReportRow] = []
    if sids:
        work = [(p, sids, seed) for p in primes_in(p_lo, p_hi)]
        pooled = jobs > 1 and len(work) > 1
        if pooled:
            # imported here: multiprocessing costs about 2 MiB of RSS
            from multiprocessing import Pool
        # leaving the with block terminates the pool, fail-fast included
        with Pool(min(jobs, len(work))) if pooled else nullcontext() as pool:
            for batch in pool.imap(_run_prime, work) if pooled else map(_run_prime, work):
                rows.extend(batch)
                if fail_fast and any(map(gates, batch)):
                    break
    rows.sort(key=lambda r: (r.p, r.sid))
    from . import __version__

    return VerificationReport(
        p_lo=p_lo,
        p_hi=p_hi,
        seed=seed,
        version=__version__,
        elapsed=time.monotonic() - started,
        rows=rows,
    )
