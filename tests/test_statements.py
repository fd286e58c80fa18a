"""Statement registry and verification engine behaviour."""

from fractions import Fraction

import pytest

from supercong import quadform
from supercong.errors import InsufficientPrecision, UnknownStatement
from supercong.registry import (
    C2,
    REGISTRY,
    STATUSES,
    SUM_SPECS,
    Fixed,
    Parametric,
    _fr,
    _rmix,
    _sum_lhs,
    statement_modexp,
)
from supercong.report import VerificationReport
from supercong.sums import HALF, SumSpec, linear_weight
from supercong.statements import (
    FAILS,
    HOLDS,
    NOT_APPLICABLE,
    SAMPLES_PER_PRIME,
    SKIPPED,
    draw_params,
    evaluate_statement,
    primes_in,
    run_range,
    select_ids,
    statement_status,
)


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

    def test_precision_retry_ladder(self):
        sid = "X-RETRY"
        calls = []

        def flaky_lhs(ctx, t):
            calls.append(ctx.workexp)
            if len(calls) == 1:
                raise InsufficientPrecision("synthetic")
            return 0

        REGISTRY[sid] = Fixed(
            sid, "theorem", "0 == 0 (mod p^2)", "p > 3",
            lambda p: p > 3, 2, flaky_lhs, lambda ctx, t: 0,
        )
        try:
            v = evaluate_statement(sid, 11)
            assert v.outcome == HOLDS
            assert len(calls) == 2 and calls[1] > calls[0]
        finally:
            del REGISTRY[sid]


def test_statement_status():
    assert statement_status("T2.7") == "theorem"
    assert statement_status("CJ-2.23") == "conjecture"
    assert statement_status("nope") == "unknown"


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

    def test_deterministic_across_job_counts(self):
        runs = [run_range(5, 60, ids=["P-*"], jobs=j) for j in (1, 4, 16)]
        assert runs[0].rows == runs[1].rows == runs[2].rows
        assert runs[0].to_csv() == runs[1].to_csv() == runs[2].to_csv()
        assert runs[0].to_text() == runs[1].to_text() == runs[2].to_text()

    def test_json_round_trip(self):
        r = run_range(5, 40, ids=["T2.*"])
        assert VerificationReport.from_json(r.to_json()) == r

    def test_summary_counts_match_rows(self):
        r = run_range(5, 40, statuses={"lemma"})
        total = sum(n for per in r.summary().values() for n in per.values())
        assert total == len(r.rows)

    def test_injected_failure_gates_and_fail_fast_stops(self):
        sid = "X-FALSE"
        REGISTRY[sid] = Fixed(
            sid, "theorem", "0 == 1 (mod p^2)", "p > 3",
            lambda p: p > 3, 2, lambda ctx, t: 0, lambda ctx, t: 1,
        )
        try:
            r = run_range(5, 30, ids=[sid, "T2.7"])
            fails = r.failures()
            assert fails and all(row.sid == sid for row in fails)
            assert {row.outcome for row in fails} == {FAILS}
            fast = run_range(5, 30, ids=[sid, "T2.7"], fail_fast=True)
            assert {row.p for row in fast.rows} == {5}
        finally:
            del REGISTRY[sid]

    def test_engine_errors_stay_in_their_cell(self):
        """A linear weight whose denominator p divides, a right-hand-side
        constant whose denominator p divides and an R1 right-hand side asked
        for mod p^3 each become Skipped rows naming the error type; every
        other cell of the sweep still runs."""
        lhs = _sum_lhs(SumSpec(C2, Fraction(16), linear_weight(Fraction(1, 7), 1), HALF))
        REGISTRY["X-DEN"] = Fixed(
            "X-DEN", "theorem", "S == S (mod p^2)", "p > 3", lambda p: p > 3, 2, lhs, lhs,
        )

        def seventh(ctx, t):
            return _fr(ctx, Fraction(1, 7), t)

        REGISTRY["X-FR"] = Fixed(
            "X-FR", "theorem", "1/7 == 1/7 (mod p^2)", "p > 3", lambda p: p > 3, 2, seventh, seventh,
        )
        REGISTRY["X-R1"] = Fixed(
            "X-R1", "theorem", "0 == R1 (mod p^3)", "p = 3 mod 4",
            lambda p: p % 4 == 3, 3, lambda ctx, t: 0, _rmix("r1", 1),
        )
        try:
            r = run_range(5, 30, ids=["X-DEN", "X-FR", "X-R1", "T2.7"])
        finally:
            del REGISTRY["X-DEN"], REGISTRY["X-FR"], REGISTRY["X-R1"]
        skipped = {(row.p, row.sid): row.detail for row in r.rows if row.outcome == SKIPPED}
        assert set(skipped) == {(7, "X-DEN"), (7, "X-FR")} | {
            (p, "X-R1") for p in (7, 11, 19, 23)
        }
        assert skipped[7, "X-DEN"].startswith("DenominatorNotUnit: ")
        assert skipped[7, "X-FR"].startswith("DenominatorNotUnit: ")
        assert skipped[11, "X-R1"].startswith("ModulusTooHigh: ")
        assert len(r.rows) == 4 * len(primes_in(5, 30))
        assert {row.outcome for row in r.rows if row.sid == "T2.7"} == {HOLDS}
        for sid in ("X-DEN", "X-FR"):
            assert {row.outcome for row in r.rows if row.sid == sid and row.p != 7} == {HOLDS}

    def test_conjecture_failures_gate_only_in_strict_mode(self):
        sid = "XJ-FALSE"
        REGISTRY[sid] = Fixed(
            sid, "conjecture", "0 == 1 (mod p^2)", "p > 3",
            lambda p: p > 3, 2, lambda ctx, t: 0, lambda ctx, t: 1,
        )
        try:
            r = run_range(5, 10, ids=[sid])
            assert r.failures() == []
            assert [row.sid for row in r.failures(strict_conjectures=True)] == [sid, sid]
        finally:
            del REGISTRY[sid]


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
