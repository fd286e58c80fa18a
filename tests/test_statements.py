"""Statement registry and verification engine behaviour."""

import io
import json
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import evaluate_jacobi_sum_exact

from supercong import context, quadform, registry, sums
from supercong.context import PrimeContext
from supercong.errors import DenominatorNotUnit, SupercongError, UnknownStatement
from supercong.padic import Residue, residue_from_fraction
from supercong.binomials import B22
from supercong.identities import PRODUCT_FORMS
from supercong.registry import (
    C2,
    REGISTRY,
    STATUSES,
    SUM_SPECS,
    Fixed,
    R1,
    Parametric,
    _fr,
    _sum_lhs,
    p_over_binom,
    statement_modexp,
)
from supercong.report import LEGACY_GUARD, ReportRow, VerificationReport
from supercong.sums import FULL, HALF, W_ONE, SumSpec, evaluate_jacobi_sum, evaluate_sum
from supercong.statements import (
    FAILS,
    HOLDS,
    NOT_APPLICABLE,
    SAMPLES_PER_PRIME,
    SKIPPED,
    Verdict,
    draw_params,
    evaluate_statement,
    primes_in,
    run_range,
    select_ids,
)


def top_modexp(p: int) -> int:
    """The largest modulus exponent of any registered statement at p."""
    return max(statement_modexp(stmt, p) for stmt in REGISTRY.values())


@pytest.mark.parametrize("p", [1, 2, 9, 15])
def test_entry_points_reject_a_p_that_is_not_an_odd_prime(p):
    """A context, a statement and both sum evaluators raise ValueError at p
    = 1, 2, 9 and 15, before any applicability test or sum runs."""
    with pytest.raises(ValueError, match="p must be an odd prime"):
        PrimeContext(p, 2)
    for sid in ("T2.7", "T2.4a", "P-L2.2"):
        with pytest.raises(ValueError, match="p must be an odd prime"):
            evaluate_statement(sid, p)
    with pytest.raises(ValueError, match="p must be an odd prime"):
        evaluate_sum(SUM_SPECS["T2.7"], p, 2)
    with pytest.raises(ValueError, match="p must be an odd prime"):
        evaluate_jacobi_sum(3, p, 2)


def test_registry_shape():
    assert len(REGISTRY) == 173
    by_status = {}
    for stmt in REGISTRY.values():
        by_status[stmt.status] = by_status.get(stmt.status, 0) + 1
    assert by_status == {
        "theorem": 87,
        "lemma": 10,
        "corollary": 12,
        "cited": 29,
        "conjecture": 35,
    }
    assert sum(isinstance(s, Parametric) for s in REGISTRY.values()) == 21
    assert sum(isinstance(s, Fixed) for s in REGISTRY.values()) == 152
    assert len(SUM_SPECS) == 151
    assert set(SUM_SPECS) <= set(REGISTRY)


def test_every_statement_is_well_formed():
    for sid, stmt in REGISTRY.items():
        assert stmt.sid == sid
        assert stmt.status in STATUSES
        assert stmt.claim and stmt.condition
        t = statement_modexp(stmt, 11)
        assert 1 <= t <= 4
        if isinstance(stmt, Parametric):
            assert stmt.params and isinstance(stmt.modexp, int)


def test_statement_modexp_resolves_class_dependent_exponents():
    stmt = REGISTRY["CJ-R2.2-2"]
    assert callable(stmt.modexp)
    exps = {statement_modexp(stmt, p) for p in (5, 13, 17)}  # p = 1 (mod 4)
    assert exps == {3}
    exps = {statement_modexp(stmt, p) for p in (7, 11, 31)}  # p = 3 (mod 4)
    assert exps == {2}


def test_primes_in():
    assert primes_in(5, 30) == [5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_in(14, 16) == []


class TestSelectIds:
    def test_plain_ids_and_globs(self):
        assert select_ids(["T2.7"]) == ["T2.7"]
        got = select_ids(["T5.3*"])
        assert got == ["T5.3a", "T5.3b", "T5.3c", "T5.3d"]

    def test_duplicates_collapse_in_order(self):
        assert select_ids(["T2.7", "T2.7", "T5.3a"]) == ["T2.7", "T5.3a"]

    def test_unmatched_pattern_raises(self):
        with pytest.raises(UnknownStatement):
            select_ids(["NOPE-*"])

    def test_unknown_status_raises(self):
        with pytest.raises(UnknownStatement):
            select_ids(None, {"axiom"})

    def test_status_filter_applies_after_matching(self):
        # valid id, filtered out by status: empty selection, not an error
        assert select_ids(["T2.7"], {"conjecture"}) == []

    def test_no_patterns_returns_status_slice(self):
        lemmas = select_ids(None, {"lemma"})
        assert lemmas and all(REGISTRY[s].status == "lemma" for s in lemmas)


class TestDrawParams:
    def test_deterministic(self):
        stmt = next(s for s in REGISTRY.values() if isinstance(s, Parametric))
        a = draw_params(stmt, 13, 0, 3)
        b = draw_params(stmt, 13, 0, 3)
        assert a == b and a is not None
        assert all(0 <= v < 13 * 13 for v in a)

    def test_seed_and_index_vary_the_draw(self):
        stmt = next(s for s in REGISTRY.values() if isinstance(s, Parametric))
        draws = {draw_params(stmt, 101, seed, i) for seed in (0, 1) for i in range(5)}
        assert len(draws) == 10

    def test_draws_are_admissible(self):
        for stmt in REGISTRY.values():
            if not isinstance(stmt, Parametric):
                continue
            params = draw_params(stmt, 11, 0, 0)
            if params is not None:
                assert stmt.admissible(11, params)


class TestEvaluateStatement:
    def test_golden_holds(self):
        v = evaluate_statement("T2.3a", 11)
        assert (v.outcome, v.lhs, v.rhs, v.modulus) == (HOLDS, 99, 99, 121)
        with pytest.raises(AttributeError):
            v.outcome = FAILS

    def test_not_applicable_names_the_condition(self):
        v = evaluate_statement("T2.3a", 5)
        assert v.outcome == NOT_APPLICABLE
        assert v.detail == f"requires {REGISTRY['T2.3a'].condition}"

    def test_unknown_id(self):
        with pytest.raises(UnknownStatement):
            evaluate_statement("T99.99", 11)

    def test_excluded_prime_is_not_applicable(self):
        assert evaluate_statement("CJ-2.23", 149).outcome == NOT_APPLICABLE

    def test_parametric_verdict_reports_sample_count(self):
        v = evaluate_statement("P-L2.2", 13)
        assert v.outcome == HOLDS
        assert v.detail.startswith(f"{SAMPLES_PER_PRIME} samples")

    def test_context_for_another_prime_is_rejected(self):
        with pytest.raises(ValueError):
            evaluate_statement("T2.7", 7, ctx=PrimeContext(11, 8))
        with pytest.raises(ValueError):
            evaluate_statement("T2.7", 7, ctx=PrimeContext(7, 1))
        v = evaluate_statement("T2.7", 7, ctx=PrimeContext(7, 2))
        assert (v.outcome, v.lhs, v.rhs, v.modulus) == (HOLDS, 36, 36, 49)

    @pytest.mark.parametrize("order", list(permutations(("P-T2.1", "P-T3.1", "S-L1"))))
    def test_one_root_context_serves_every_exponent(self, order):
        """A root at p^4 gives the verdicts of fresh contexts, through its
        views, to a mod-p^2 and a mod-p^3 parametric statement and to fixed
        statements mod p, p^2, p^3 and p^4, in any order."""
        p = 73  # 1 (mod 12) and 3 (mod 7): every id below applies
        fixed = ["CJ-S9-intro-b", "T2.7", "CJ-R2.2-1"]  # mod p, p^2, p^3, in registry order
        for sids in ([*fixed, *order], [*order, *reversed(fixed)]):
            root = PrimeContext(p, top_modexp(p))
            for sid in sids:
                got = evaluate_statement(sid, p, ctx=root)
                assert got == evaluate_statement(sid, p), sid
                assert got.outcome == HOLDS, sid
                assert got.modulus == p ** statement_modexp(REGISTRY[sid], p), sid
            assert sorted(root._views) == [1, 2, 3]

    @pytest.mark.parametrize("p", [89, 97, 101, 103, 107])
    def test_shared_root_gives_fresh_context_verdicts(self, p):
        """Every registered statement, run in registry order on one root
        context, gives the verdict (or the typed error) it gives on a
        context of its own."""

        def outcome(sid, ctx=None):
            try:
                return evaluate_statement(sid, p, ctx=ctx)
            except SupercongError as exc:
                return type(exc), str(exc)

        root = PrimeContext(p, top_modexp(p))
        for sid in REGISTRY:
            assert outcome(sid, root) == outcome(sid), sid


class TestRunRange:
    def test_rejects_bad_ranges(self):
        for lo, hi in ((2, 10), (3, 10), (11, 7), (0, 0)):
            with pytest.raises(ValueError):
                run_range(lo, hi)

    def test_rows_sorted_and_counted(self):
        r = run_range(5, 20, ids=["T2.7", "T2.3a"])
        assert [(row.p, row.sid) for row in r.rows] == sorted(
            (row.p, row.sid) for row in r.rows
        )
        counts = r.counts()
        assert sum(counts.values()) == len(r.rows) == 2 * len(primes_in(5, 20))
        with pytest.raises(AttributeError):
            r.rows[0].outcome = FAILS

    def test_deterministic_across_job_counts(self):
        runs = [run_range(5, 60, ids=["P-*"], jobs=j) for j in (1, 4, 16)]
        assert runs[0].rows == runs[1].rows == runs[2].rows
        assert runs[0].to_csv() == runs[1].to_csv() == runs[2].to_csv()
        assert runs[0].to_text() == runs[1].to_text() == runs[2].to_text()

    def test_json_round_trip(self):
        r = run_range(5, 40, ids=["T2.*"])
        assert VerificationReport.from_json(r.to_json()) == r

    def test_json_is_the_json_module_dump(self):
        """to_json writes the rows itself; the text equals json.dump of the
        whole document for a full sweep, an empty report, and rows with
        null fields and with quotes, escapes and non-ASCII in strings."""

        def dumped(r: VerificationReport) -> str:
            doc = {
                "p_lo": r.p_lo,
                "p_hi": r.p_hi,
                "seed": r.seed,
                "guard": LEGACY_GUARD,
                "version": r.version,
                "elapsed": r.elapsed,
                "rows": [
                    {
                        "p": row.p,
                        "id": row.sid,
                        "outcome": row.outcome,
                        "lhs": row.lhs,
                        "rhs": row.rhs,
                        "modulus": row.modulus,
                        "detail": row.detail,
                    }
                    for row in r.rows
                ],
                "summary": r.summary(),
                "counts": r.counts(),
            }
            buf = io.StringIO()
            json.dump(doc, buf, indent=2)
            return buf.getvalue()

        odd = 'say "x" \\ y\n\t\u00e9\u2603\U0001d11e\x7f'
        reports = [
            run_range(5, 150),
            VerificationReport(5, 7, 0, "0.1", 0.5),
            VerificationReport(
                5, 11, 3, odd, 1e-7,
                [
                    ReportRow(5, "T2.1", SKIPPED, detail=odd),
                    ReportRow(7, 'X"\\', FAILS, -3, 10**40, 49, ""),
                    ReportRow(11, "P-T2.1", HOLDS, None, None, 121, "10 samples"),
                ],
            ),
        ]
        for r in reports:
            assert r.to_json() == dumped(r)

    def test_summary_counts_match_rows(self):
        r = run_range(5, 40, statuses={"lemma"})
        total = sum(n for per in r.summary().values() for n in per.values())
        assert total == len(r.rows)

    def test_injected_failure_gates_and_fail_fast_stops(self):
        sid = "X-FALSE"
        REGISTRY[sid] = Fixed(
            sid, "theorem", "0 == 1 (mod p^2)", "p > 3",
            lambda p: p > 3, 2, lambda ctx: 0, lambda ctx: 1,
        )
        try:
            r = run_range(5, 30, ids=[sid, "T2.7"])
            fails = r.failures()
            assert fails and all(row.sid == sid for row in fails)
            assert {row.outcome for row in fails} == {FAILS}
            fast = run_range(5, 30, ids=[sid, "T2.7"], fail_fast=True)
            assert {row.p for row in fast.rows} == {5}
            pooled = run_range(5, 30, ids=[sid, "T2.7"], fail_fast=True, jobs=2)
            assert pooled.rows == fast.rows
        finally:
            del REGISTRY[sid]

    def test_engine_errors_stay_in_their_cell(self):
        """A right-hand-side constant whose denominator p divides, a
        right-hand side divided by the non-unit C(p,1) and an R1 right-hand
        side asked for mod p^3 each become Skipped rows naming the error
        type; every other cell of the sweep still runs."""

        def seventh(ctx):
            return _fr(ctx, Fraction(1, 7))

        REGISTRY["X-FR"] = Fixed(
            "X-FR", "theorem", "1/7 == 1/7 (mod p^2)", "p > 3", lambda p: p > 3, 2, seventh, seventh,
        )
        REGISTRY["X-R1"] = Fixed(
            "X-R1", "theorem", "0 == R1 (mod p^3)", "p = 3 mod 4",
            lambda p: p % 4 == 3, 3, lambda ctx: 0, R1.value,
        )
        REGISTRY["X-BIN"] = Fixed(
            "X-BIN", "theorem", "0 == p^2 / C(p,1)^2 (mod p^2)", "p > 3",
            lambda p: p > 3, 2, lambda ctx: 0, p_over_binom("p", "1", lambda p: (p, 1), 2).value,
        )
        try:
            r = run_range(5, 30, ids=["X-FR", "X-R1", "X-BIN", "T2.7"])
        finally:
            del REGISTRY["X-FR"], REGISTRY["X-R1"], REGISTRY["X-BIN"]
        skipped = {(row.p, row.sid): row.detail for row in r.rows if row.outcome == SKIPPED}
        primes = primes_in(5, 30)
        assert set(skipped) == {(7, "X-FR")} | {
            (p, "X-R1") for p in (7, 11, 19, 23)
        } | {(p, "X-BIN") for p in primes}
        assert skipped[7, "X-FR"].startswith("DenominatorNotUnit: ")
        assert skipped[11, "X-R1"].startswith("ModulusTooHigh: ")
        for p in primes:
            assert skipped[p, "X-BIN"].startswith("DenominatorNotUnit: ")
        assert len(r.rows) == 4 * len(primes)
        assert {row.outcome for row in r.rows if row.sid == "T2.7"} == {HOLDS}
        assert {row.outcome for row in r.rows if row.sid == "X-FR" and row.p != 7} == {HOLDS}

    def test_a_statement_above_every_registered_exponent_runs(self):
        """A statement mod p^5, above every registered one, holds in a sweep
        beside a mod-p^2 one: each prime's root context reaches the largest
        exponent among its selected ids."""
        lhs = _sum_lhs(SumSpec(C2, Fraction(16), W_ONE, HALF))
        REGISTRY["X-P5"] = Fixed(
            "X-P5", "theorem", "S == S (mod p^5)", "p odd", lambda p: True, 5, lhs, lhs,
        )
        try:
            assert evaluate_statement("X-P5", 7).outcome == HOLDS
            r = run_range(5, 7, ids=["X-P5", "T2.7"])
        finally:
            del REGISTRY["X-P5"]
        assert [(row.p, row.sid, row.outcome, row.modulus) for row in r.rows] == [
            (5, "T2.7", HOLDS, 25), (5, "X-P5", HOLDS, 5**5),
            (7, "T2.7", HOLDS, 49), (7, "X-P5", HOLDS, 7**5),
        ]

    def test_conjecture_failures_gate_only_in_strict_mode(self):
        sid = "XJ-FALSE"
        REGISTRY[sid] = Fixed(
            sid, "conjecture", "0 == 1 (mod p^2)", "p > 3",
            lambda p: p > 3, 2, lambda ctx: 0, lambda ctx: 1,
        )
        try:
            r = run_range(5, 10, ids=[sid])
            assert r.failures() == []
            assert [row.sid for row in r.failures(strict_conjectures=True)] == [sid, sid]
        finally:
            del REGISTRY[sid]


# Sample 0 of seed 0 at p = 101, except where adding 1 to a sum makes the
# tuple fail its unit hypothesis: at P-C2.5's sample 0, D + 1 = 0 (mod 101).
_PERTURBED_SAMPLE = {"P-C2.5": 1}


@pytest.mark.parametrize("sid", [s for s, st in REGISTRY.items() if isinstance(st, Parametric)])
def test_parametric_check_depends_on_every_sum(sid, monkeypatch):
    """A parametric check returns pairs that hold, and adding 1 to any one
    of the sums it requests makes some pair differ, so no check compares a
    sum with itself or drops one it evaluates.  Every sum is a Jacobi sum;
    at a corollary's fixed a it is over the product of PRODUCT_FORMS[a]
    (times C(2k,k) when central), which its claim names, and at a = -1/2
    (over C(2k,k)^2 or C(2k,k)^3) it stops at (p-1)/2 unless its weight
    is 1/(2k-1)^e, whose pole term keeps it at p-1."""
    stmt, p = REGISTRY[sid], 101
    params = draw_params(stmt, p, 0, _PERTURBED_SAMPLE.get(sid, 0))
    t = statement_modexp(stmt, p)
    ctx = PrimeContext(p, t)
    calls = []

    def perturbed(off):
        def wrapped(*args, **kwargs):
            r = sums.evaluate_jacobi_sum(*args, **kwargs)
            calls.append((args[0], kwargs))
            return Residue(r.p, r.t, r.value + 1) if len(calls) - 1 == off else r

        return wrapped

    def check(off):
        calls.clear()
        monkeypatch.setattr(registry, "evaluate_jacobi_sum", perturbed(off))
        return stmt.check(ctx, params)

    pairs = check(None)
    assert calls and pairs and all(lhs == rhs for lhs, rhs in pairs)
    requests = [(a, sorted((k, repr(v)) for k, v in kw.items() if k != "ctx")) for a, kw in calls]
    assert len({repr(r) for r in requests}) == len(calls), "a sum was requested twice"
    for a, kw in calls:
        if isinstance(a, Fraction):  # "sum_{k=0..(p-1)/2} C(2k,k)^3" -> "C(2k,k)^3"
            kinds, _ = PRODUCT_FORMS[a]
            product = (B22, *kinds) if kw["central"] else kinds
            assert str(SumSpec(product, Fraction(1))).split(" ", 1)[1] in stmt.claim
            if a == Fraction(-1, 2):
                pole = kw["weight"].tag in ("inv_2k1", "inv_2k1_sq")
                assert kw["limit"] == (FULL if pole else HALF), kw
    for off in range(len(calls)):
        pairs = check(off)
        assert pairs is not None and any(lhs != rhs for lhs, rhs in pairs), off


def test_applicability_never_requests_missing_representations():
    """Statements tied to a quadratic form never apply to a prime the form
    cannot represent; spot-check the clean one-form statements."""
    form_backed = {
        "T2.3a": quadform.F7,
        "T2.6": quadform.F4,
        "T2.4a": quadform.F3,
        "T2.5": quadform.F2,
    }
    for sid, form in form_backed.items():
        stmt = REGISTRY[sid]
        for p in primes_in(5, 500):
            if stmt.applies(p):
                assert quadform.applicable(p, form), (sid, p)
    # two-branch statements apply on both sides of the class split and
    # must evaluate cleanly on the non-representable branch too
    for p in (11, 17, 23):  # p = 2 (mod 3): 4p = x^2 + 27y^2 has no solution
        assert evaluate_statement("S-2.19", p).outcome == HOLDS


def test_not_applicable_exactly_off_the_applicability_class():
    for sid in ("T2.3a", "T2.4a", "T6.4"):
        stmt = REGISTRY[sid]
        for p in primes_in(5, 60):
            v = evaluate_statement(sid, p)
            assert (v.outcome == NOT_APPLICABLE) == (not stmt.applies(p)), (sid, p)


@settings(max_examples=25, deadline=None)
@given(
    sid=st.sampled_from(sorted(REGISTRY)),
    p=st.sampled_from(primes_in(5, 10**4)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_cell_gives_verdict_or_typed_error(sid, p, seed):
    """Any registered statement at any prime up to 10^4, on a fresh context,
    gives a Verdict or raises a SupercongError subclass, never another
    exception."""
    try:
        v = evaluate_statement(sid, p, seed=seed)
    except SupercongError:
        return
    assert isinstance(v, Verdict)
    assert v.outcome in {HOLDS, FAILS, NOT_APPLICABLE, SKIPPED}


def _admissible(stmt, p: int):
    """Every admissible tuple of residues mod p, in order."""
    return [ps for ps in product(range(p), repeat=len(stmt.params)) if stmt.admissible(p, ps)]


@pytest.mark.parametrize("sid", ["P-T2.2", "P-C2.5", "P-C2.6", "P-C2.7", "P-C2.8"])
def test_non_unit_d_skips_the_sample(sid):
    """P-T2.2 and its corollaries divide by D: a tuple whose D, summed
    exactly, is 0 (mod p) gives None, and any other gives pairs that hold."""
    stmt, p = REGISTRY[sid], 11
    ctx = PrimeContext(p, statement_modexp(stmt, p))
    a = None if stmt.params[0] == "a" else {"5": -2, "6": -3, "7": -4, "8": -6}[sid[-1]]
    skipped = 0
    for ps in _admissible(stmt, p):
        t = ps[-1]
        at = ps[0] if a is None else Fraction(1, a)
        d = evaluate_jacobi_sum_exact(
            at, p, limit=HALF if at == Fraction(-1, 2) else FULL, mult=-t * (t + 1), central=True
        )
        pairs = stmt.check(ctx, ps)
        if residue_from_fraction(d, p, 1).value == 0:
            assert pairs is None, ps
            skipped += 1
        else:
            assert pairs and all(lhs == rhs for lhs, rhs in pairs), ps
    assert skipped, sid


@pytest.mark.parametrize("sid", ["P-T3.1", "P-C3.1"])
def test_third_congruence_is_guarded_by_m_not_4(sid):
    """P-T3.1 and P-C3.1 check two congruences where m == 4 (mod p) and
    three elsewhere."""
    stmt, p = REGISTRY[sid], 11
    ctx = PrimeContext(p, statement_modexp(stmt, p))
    for ps in _admissible(stmt, p)[:40] + [(3, 4), (3, 4 + p), (4,), (4 + 2 * p,)]:
        if len(ps) != len(stmt.params):
            continue
        pairs = stmt.check(ctx, ps)
        assert len(pairs) == (2 if (ps[-1] - 4) % p == 0 else 3), ps
        assert all(lhs == rhs for lhs, rhs in pairs), ps


def test_context_builds_each_binomial_once(monkeypatch):
    """A right-hand side that reads C(n,k) and p / C(n,k) builds C(n,k) once
    per context view: 187 builds for the fixed ids over 5..150, not 528, and
    9 for every id at p = 1997 and 2011, not 29.  A binomial that p divides
    still raises on every read."""
    calls = []
    build = context.binomial_mod
    monkeypatch.setattr(context, "binomial_mod", lambda *args: calls.append(args) or build(*args))
    fixed = [sid for sid, s in REGISTRY.items() if not isinstance(s, Parametric)]
    run_range(5, 150, ids=fixed)
    assert len(calls) == len(set(calls)) == 187
    calls.clear()
    for p in (1997, 2011):
        for ids in (fixed, ["P-*"]):
            run_range(p, p, ids=ids)
    assert len(calls) == len(set(calls)) == 9
    calls.clear()
    ctx = PrimeContext(7, 2)
    for _ in range(2):
        with pytest.raises(DenominatorNotUnit):
            ctx.binom(7, 3)
    assert calls == [(7, 3, 7, 2)]
