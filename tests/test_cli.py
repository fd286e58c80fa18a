"""Command-line interface: formats, exit codes, golden outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import supercong
from supercong.cli import main
from supercong.registry import REGISTRY, Fixed
from supercong.report import VerificationReport
from supercong.statements import run_range

CSV_HEADER = "p,id,outcome,lhs,rhs,modulus,detail"


def test_verify_csv_golden(capsys):
    assert main(["verify", "--primes", "7..7", "--ids", "T2.7", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out == f"{CSV_HEADER}\n7,T2.7,Holds,36,36,49\n"


def test_verify_single_prime_shorthand(capsys):
    assert main(["verify", "--primes", "7", "--ids", "T2.7", "--format", "csv"]) == 0
    assert "7,T2.7,Holds,36,36,49" in capsys.readouterr().out


def test_verify_not_applicable_row_exits_zero(capsys):
    assert main(["verify", "--primes", "5..5", "--ids", "T2.3a"]) == 0
    out = capsys.readouterr().out
    assert "T2.3a" in out and "NotApplicable" in out
    assert out.count("\np=") == 1


def test_verify_json_matches_library_run(capsys):
    assert main(["verify", "--primes", "5..40", "--ids", "T2.*", "--format", "json"]) == 0
    parsed = VerificationReport.from_json(capsys.readouterr().out)
    direct = run_range(5, 40, ids=["T2.*"])
    assert parsed.rows == direct.rows
    assert (parsed.p_lo, parsed.p_hi, parsed.seed) == (5, 40, 0)
    assert parsed.version == direct.version


def test_verify_json_has_documented_fields(capsys):
    main(["verify", "--primes", "7..7", "--ids", "T2.7", "--format", "json"])
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2) + "\n"  # the layout digests pin
    assert set(doc) >= {
        "p_lo", "p_hi", "seed", "guard", "version", "elapsed",
        "rows", "summary", "counts",
    }
    assert doc["guard"] == 4  # fixed legacy key
    row = doc["rows"][0]
    assert set(row) == {"p", "id", "outcome", "lhs", "rhs", "modulus", "detail"}


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "report.csv"
    code = main(
        ["verify", "--primes", "7..7", "--ids", "T2.7", "--format", "csv",
         "--out", str(path)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert path.read_text() == f"{CSV_HEADER}\n7,T2.7,Holds,36,36,49\n"


def test_verify_unwritable_out_is_a_usage_error(tmp_path, capsys):
    """An --out in a missing directory exits 2, the usage-error code, with
    one error line: exit 1 would report a failed statement."""
    path = tmp_path / "missing" / "report.txt"
    assert main(["verify", "--primes", "5..7", "--ids", "T2.7", "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err, err
    assert "Traceback" not in err and err.count("\n") == 1


def test_verify_jobs_do_not_change_output(capsys):
    main(["verify", "--primes", "5..40", "--ids", "T2.*", "--format", "csv"])
    one = capsys.readouterr().out
    main(["verify", "--primes", "5..40", "--ids", "T2.*", "--format", "csv",
          "--jobs", "3"])
    assert capsys.readouterr().out == one


def test_verify_status_filter(capsys):
    assert main(["verify", "--primes", "5..20", "--status", "lemma"]) == 0
    out = capsys.readouterr().out
    assert "L2." in out and "T2.7" not in out


def test_verify_usage_errors(capsys):
    for argv in (
        ["verify", "--primes", "7..5"],
        ["verify", "--primes", "3..3"],
        ["verify", "--primes", "abc"],
        ["verify", "--primes", "5..20", "--ids", "NOPE-*"],
    ):
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err


def test_verify_empty_prime_range_is_not_an_error(capsys):
    # 4..4 satisfies 3 < A <= B; it just contains no primes
    assert main(["verify", "--primes", "4..4", "--ids", "T2.7", "--format", "csv"]) == 0
    assert capsys.readouterr().out == f"{CSV_HEADER}\n"


def test_verify_rejects_unknown_status_choice(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--primes", "5..20", "--status", "axiom"])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["0", "-4"])
def test_verify_rejects_fewer_than_one_job(capsys, value):
    """--jobs 0 and --jobs -4 are usage errors, not a quiet run on one job."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--primes", "5..20", "--ids", "T2.7", "--jobs", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument --jobs: must be >= 1, got {value}" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("value", ["", ","])
def test_verify_rejects_ids_that_name_no_id(capsys, value):
    """--ids "" would run every statement and --ids , none: both are usage
    errors, not a sweep that exits 0."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--primes", "5..7", "--ids", value, "--jobs", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "argument --ids: " in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def injected(sid: str, status: str) -> Fixed:
    return Fixed(
        sid, status, "0 == 1 (mod p^2)", "p > 3",
        lambda p: p > 3, 2, lambda ctx: 0, lambda ctx: 1,
    )


def test_verify_exit_one_on_gating_failure(capsys):
    REGISTRY["X-FALSE"] = injected("X-FALSE", "theorem")
    try:
        code = main(["verify", "--primes", "5..10", "--ids", "X-FALSE"])
    finally:
        del REGISTRY["X-FALSE"]
    assert code == 1
    captured = capsys.readouterr()
    assert "Fails" in captured.out
    assert "FAIL p=5 X-FALSE" in captured.err


def test_verify_conjecture_failure_needs_strict_flag(capsys):
    REGISTRY["XJ-FALSE"] = injected("XJ-FALSE", "conjecture")
    try:
        relaxed = main(
            ["verify", "--primes", "5..10", "--ids", "XJ-FALSE", "--status", "all"]
        )
        strict = main(
            ["verify", "--primes", "5..10", "--ids", "XJ-FALSE", "--status", "all",
             "--strict-conjectures"]
        )
        # under the default status filter the conjecture is not even selected
        filtered = main(["verify", "--primes", "5..10", "--ids", "XJ-FALSE"])
    finally:
        del REGISTRY["XJ-FALSE"]
    capsys.readouterr()
    assert relaxed == 0 and strict == 1 and filtered == 0


def test_verify_fail_fast_truncates(capsys):
    REGISTRY["X-FALSE"] = injected("X-FALSE", "theorem")
    try:
        code = main(
            ["verify", "--primes", "5..30", "--ids", "X-FALSE,T2.7",
             "--format", "csv", "--fail-fast"]
        )
    finally:
        del REGISTRY["X-FALSE"]
    assert code == 1
    out = capsys.readouterr().out
    assert "5,X-FALSE,Fails" in out
    assert all(line.startswith("5,") for line in out.splitlines()[1:])


def test_eval_golden(capsys):
    assert main(["eval", "T2.3a", "11", "2"]) == 0
    assert capsys.readouterr().out == "lhs=99 rhs=99 mod 121\n"


def test_eval_defaults_to_statement_modulus(capsys):
    assert main(["eval", "T2.7", "7"]) == 0
    assert capsys.readouterr().out == "lhs=36 rhs=36 mod 49\n"


def test_eval_outside_applicability_prints_lhs_only(capsys):
    assert main(["eval", "T2.3a", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("lhs=") and "rhs" not in out
    assert "statement requires" in out


def test_eval_errors(capsys):
    assert main(["eval", "T99.99", "11"]) == 2
    assert main(["eval", "P-T2.1", "11"]) == 2  # parametric: needs verify
    assert main(["eval", "T2.7", "9"]) == 2  # composite
    err = capsys.readouterr().err
    assert err.count("error:") == 3


def test_eval_above_p2_of_an_r1_form_names_the_error(capsys):
    """CJ-R2.2-2 at p = 3 (mod 4) is -4 R1(p) - 2p up to sign, and R1 is
    known mod p^2 only: asked for mod p^3 it fails loudly instead of
    printing a residue of the wrong modulus."""
    assert main(["eval", "CJ-R2.2-2", "7", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ModulusTooHigh: "), captured.err
    assert main(["eval", "CJ-R2.2-2", "7"]) == 0
    assert capsys.readouterr().out == "lhs=1 rhs=1 mod 49\n"


def test_eval_rejects_modulus_exponent_below_one(capsys):
    fixed = [sid for sid, stmt in REGISTRY.items() if isinstance(stmt, Fixed)]
    for sid in fixed:
        for t in ("0", "-1"):
            assert main(["eval", sid, "5", t]) == 2, (sid, t)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: modulus exponent t must be >= 1"), (sid, t)


def test_represent_golden(capsys):
    assert main(["represent", "29", "F7"]) == 0
    assert capsys.readouterr().out == "x=1 y=2\n"


def test_represent_errors(capsys):
    assert main(["represent", "13", "F9"]) == 2  # no such form
    assert capsys.readouterr().err.startswith("error: unknown form 'F9'")
    assert main(["represent", "15", "F4"]) == 2  # composite
    assert capsys.readouterr().err == "error: 15 is not prime\n"
    assert main(["represent", "11", "F4"]) == 2  # 11 = 3 (mod 4): not representable
    assert capsys.readouterr().err.startswith("error: NotRepresentable: ")


IDENTITY_SUITES = ("convolution", "recurrence", "products", "series-square", "shift")


def test_identities_subcommand(capsys):
    code = main(["identities", "--nmax", "6", "--kmax", "20", "--order", "6"])
    assert code == 0
    out = capsys.readouterr().out
    for name in IDENTITY_SUITES:
        assert f"{name}: pass" in out


def test_identities_proves_every_suite_at_its_defaults(capsys):
    """nmax 40, kmax 200 and order 30: every suite at its degree-bound points."""
    assert main(["identities"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{s}: pass" for s in IDENTITY_SUITES]


def test_identities_has_no_seed(capsys):
    """The suites check fixed points, so there is nothing to seed."""
    with pytest.raises(SystemExit) as exc:
        main(["identities", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--nmax", "1"), ("--kmax", "0"), ("--order", "1"), ("--nmax", "-3")],
)
def test_identities_rejects_sizes_that_check_nothing(capsys, flag, value):
    """--nmax 1 has no recurrence n, --kmax 0 no shift k, and at --order 1
    both series are 0 through t^1: each would print ``pass`` unchecked."""
    with pytest.raises(SystemExit) as exc:
        main(["identities", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be >= " in err and "Traceback" not in err


def test_list_conjectures(capsys):
    assert main(["list", "--status", "conjecture"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) >= 20
    cj223 = [ln for ln in lines if ln.startswith("CJ-2.23\t")]
    assert len(cj223) == 1 and "149" in cj223[0]


def test_list_claims_renders_formulas(capsys):
    assert main(["list", "--status", "theorem", "--claims"]) == 0
    out = capsys.readouterr().out
    assert "sum_{k=0.." in out and "(mod p^2)" in out


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "supercong", "verify", "--primes", "7..7",
         "--ids", "T2.7", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == f"{CSV_HEADER}\n7,T2.7,Holds,36,36,49\n"


def test_closed_stdout_ends_quietly():
    """A reader that takes one line and closes the pipe, as `supercong list
    --claims | head -1` does, ends the listing with exit code 1 and nothing
    on stderr, not a BrokenPipeError traceback."""
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe capacity cannot be set here")
    src = str(Path(supercong.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    read_fd, write_fd = os.pipe()
    # one page, far less than the listing: most of it is written after the close
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "supercong", "list", "--claims"],
        stdout=write_fd,
        stderr=subprocess.PIPE,
        env=env,
    )
    os.close(write_fd)
    with open(read_fd, encoding="utf-8") as reader:
        first = reader.readline()
    _, err = proc.communicate(timeout=120)
    assert first.endswith("\n") and "\t" in first
    assert err == b""
    assert proc.returncode == 1


def test_sweep_under_python_O_matches_the_plain_run():
    """A whole verify sweep gives the same report when python -O strips
    assertions, so no verdict rests on an assert."""
    src = str(Path(supercong.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv = ["-m", "supercong", "verify", "--primes", "5..40", "--status", "all", "--format", "json"]
    docs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, *argv], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        del doc["elapsed"]
        docs.append(doc)
    assert docs[0]["rows"] and docs[0] == docs[1]
