"""End-to-end and per-layer benchmark for supercong.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--smoke] [--seconds S]

A run imports the package from ``src/`` of the checkout the script sits
in, repeats one unit of the workload at one job for ``--seconds``
seconds, checks every report, and prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` half
the time runs untraced and half traced (see tracing.py), and the metrics are
the per-layer ones, each for one repetition of the unit of work.

End-to-end metrics: ``setup_s``, the time to import supercong (which
builds the registry) in a fresh interpreter; ``wall_s``, the time of one
unit of work at one job; and ``peak_rss_mb``, the peak resident size of
the benchmark process plus its largest child.  Times are interquartile
means over the samples of a run (see ``central``).

Workloads (the unit of work each repeats):
  engine      the sweep, ``verify --primes 5..150 --status all --format
              json`` through ``cli.main`` at one job (one more sweep at
              nproc jobs must give a byte-identical report), then the big
              primes: two ``run_range`` calls at each of p = 1997 (1 mod 4,
              2 mod 3) and p = 2011 (3 mod 4, 1 mod 3), one with the fixed
              statement ids and one with ids ``P-*``.
  identities  the five ``identities.check_*`` suites at nmax 20, kmax 200,
              order 30, with rationals drawn from the seed as ``supercong
              identities`` draws them.

The sweep and the big primes share one workload, and each run is long,
because the shared machines this was sized on change speed by up to a
third from minute to minute: only long runs gave steady figures.

``--seed`` is the parametric sampling seed and seeds the identity
rationals.  Every report is digested (SHA-256 with ``elapsed`` removed);
at the default seed the digest must equal the pinned one, and at any seed
it is printed so two commits can be compared.  A Fails row, a digest that
changes between repetitions, or differing 1-job and nproc-job reports
make the run incorrect.

``--workload all`` runs every workload untraced and traced in child
processes, checks that each prints exactly the metric names and units of
BENCHMARK.json, checks that a tampered report fails the digest check, and
prints one JSON document with every result (the committed BENCH_*.json
files are its output).  ``--smoke`` shrinks every workload to a few
primes for a quick self-test of the harness.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 0
NPROC = len(os.sched_getaffinity(0))  # what `nproc` prints
SETUP_RUNS = 15
MIN_REPS = 3


@dataclass(frozen=True)
class Sizes:
    name: str
    sweep_hi: int
    primes: tuple[int, int]
    nmax: int
    kmax: int
    order: int


FULL = Sizes("full", 150, (1997, 2011), 20, 200, 30)
SMOKE = Sizes("smoke", 30, (101, 103), 4, 10, 4)

#: Report digests at DEFAULT_SEED, per size and workload.
PINNED = {
    ("full", "engine"): "ad4c5a64afd0eabc9d35b22030127fa17d51064a9e41a68609c087120f3904b4",
    ("full", "identities"): "006bfcc12f361b4f0df4214f9a76d368350e005d051f524f3a76701b061f19f1",
    ("smoke", "engine"): "bab3397b8adccc1c2325753376321994e498e910e8d915a317675a945e8123f8",
    ("smoke", "identities"): "b6a6e35889876aee3a1eded2954f2535203b3765a3f484517e0cc17bd7b03397",
}

#: Spans each workload must record at least once in a traced run; a
#: missing one means a wrapper was bypassed and its layer would read 0 s.
REQUIRED = {
    "engine": (
        "cli.main", "statements.run_range", "statements.evaluate_statement",
        "statements.draw_params", "registry.fixed", "registry.param",
        "sums.evaluate_sum", "sums.evaluate_jacobi_sum", "context.init",
        "context.stream", "context.product", "context.jacobi",
        "context.jacobi_central", "binomials.stream_arrays",
        "binomials.jacobi_stream_arrays", "binomials.batch_invert",
        "binomials.binomial_mod", "special.euler_numbers_mod",
        "special.u_numbers_mod", "quadform.represent", "report.to_json",
    ),
    "identities": (
        "identities.convolution", "identities.recurrence", "identities.products",
        "identities.series_square", "identities.shift",
    ),
}


def fail_setup(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def require_source() -> None:
    if not (SRC / "supercong" / "__init__.py").is_file():
        fail_setup(f"no package source at {SRC / 'supercong'}")


def import_package():
    require_source()
    sys.path.insert(0, str(SRC))
    import supercong
    import supercong.cli

    if Path(supercong.__file__).resolve().parent != (SRC / "supercong").resolve():
        fail_setup(f"imported supercong from {supercong.__file__}, not from {SRC}")
    return supercong


# -- reports and their checks ------------------------------------------------

_ELAPSED = re.compile(r'\n[ \t]*"elapsed": [^\n]*')


def strip_elapsed(report_json: str) -> str:
    """The JSON report without its `elapsed` line, the one field that varies."""
    return _ELAPSED.sub("", report_json)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Rep:
    """One repetition of a workload's unit of work."""

    #: Seconds of each timed call, in the same order in every repetition.
    items: list[float]
    text: str  # canonical report, elapsed removed
    cells: int
    fails: int
    skipped: int

    @property
    def wall(self) -> float:
        return sum(self.items)


def _count_rows(report_json: str) -> tuple[int, int, int]:
    counts = json.loads(report_json)["counts"]
    return sum(counts.values()), counts.get("Fails", 0), counts.get("Skipped", 0)


def rep_sweep(sc, sizes: Sizes, seed: int, jobs: int) -> Rep:
    OUT.mkdir(exist_ok=True)
    out = OUT / f"sweep-jobs{jobs}.json"
    argv = [
        "verify", "--primes", f"5..{sizes.sweep_hi}", "--status", "all",
        "--format", "json", "--out", str(out), "--jobs", str(jobs), "--seed", str(seed),
    ]
    t0 = time.perf_counter()
    code = sc.cli.main(argv)
    wall = time.perf_counter() - t0
    raw = out.read_text(encoding="utf-8")
    cells, fails, skipped = _count_rows(raw)
    if code != 0 and not fails:
        raise RuntimeError(f"verify exited {code} without a Fails row")
    return Rep([wall], strip_elapsed(raw), cells, fails, skipped)


def rep_engine(sc, sizes: Sizes, seed: int, jobs: int) -> Rep:
    """The sweep, then a fixed and a parametric call per big prime; the
    items are [sweep, fixed p1, param p1, fixed p2, param p2]."""
    sweep = rep_sweep(sc, sizes, seed, jobs)
    fixed = [sid for sid, s in sc.REGISTRY.items() if not isinstance(s, sc.Parametric)]
    items = list(sweep.items)
    texts = [sweep.text]
    cells, fails, skipped = sweep.cells, sweep.fails, sweep.skipped
    for p in sizes.primes:
        for ids in (fixed, ["P-*"]):
            t0 = time.perf_counter()
            report = sc.run_range(p, p, ids=ids, seed=seed, jobs=1)
            items.append(time.perf_counter() - t0)
            raw = report.to_json()
            texts.append(strip_elapsed(raw))
            c, f, s = _count_rows(raw)
            cells, fails, skipped = cells + c, fails + f, skipped + s
    return Rep(items, "\n".join(texts), cells, fails, skipped)


def rep_identities(sc, sizes: Sizes, seed: int, jobs: int) -> Rep:
    ident = sc.identities
    rng = random.Random(seed)

    def rational() -> Fraction:
        return Fraction(rng.randrange(-60, 61), rng.randrange(1, 13))

    # the same draws, in the same order, as `supercong identities`
    recur_as = [rational() for _ in range(5)]
    square_as = [rational() for _ in range(20)]
    shift_pairs = [(rational(), rng.randrange(0, 200)) for _ in range(sizes.kmax)]
    calls = (
        [("convolution", ident.check_convolution_identity, (n,)) for n in range(sizes.nmax + 1)]
        + [
            ("recurrence", ident.check_convolution_recurrence, (n, a))
            for a in recur_as
            for n in range(2, sizes.nmax + 1)
        ]
        + [("products", ident.check_product_identities, (sizes.kmax,))]
        + [("series-square", ident.check_series_square, (a, sizes.order)) for a in square_as]
        + [("shift", ident.check_shift_identity, (a, k)) for a, k in shift_pairs]
    )
    items = []
    results = []
    for _, fn, args in calls:
        t0 = time.perf_counter()
        results.append(fn(*args))
        items.append(time.perf_counter() - t0)
    rows = [
        {"suite": suite, "args": [str(x) for x in args], "pass": ok}
        for (suite, _, args), ok in zip(calls, results)
    ]
    text = json.dumps(rows, indent=1)
    return Rep(items, text, len(rows), results.count(False), 0)


WORKLOADS = {
    "engine": rep_engine,
    "identities": rep_identities,
}


# -- measurement ---------------------------------------------------------------


#: Seconds to import supercong, which builds the registry.
_IMPORT_TIME = """
import time
t0 = time.perf_counter()
import supercong
t1 = time.perf_counter()
assert supercong.REGISTRY
print(repr(t1 - t0))
"""

#: Runs _IMPORT_TIME in a fresh interpreter for each line read.
_SAMPLER = """
import subprocess, sys
for _ in sys.stdin:
    out = subprocess.run([sys.executable, "-c", sys.argv[1]], capture_output=True,
                         text=True, timeout=60, check=True)
    print(out.stdout.split()[-1], flush=True)
"""


class SetupSampler:
    """Measures set-up time in fresh interpreters started by a small helper.

    A child forked from a large process reports that process's resident
    size as its own peak, so starting the interpreters from the benchmark
    process, once it holds a workload, would inflate peak_rss_mb.  The
    helper is started before the package is imported and stays small.
    """

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _SAMPLER, _IMPORT_TIME],
            env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def sample(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("set-up sampler exited early")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


def repeat(fn, seconds: float, between=None) -> list[Rep]:
    """At least MIN_REPS repetitions, then more while the next one is
    expected to end within `seconds` of the start; `between` runs after
    each repetition, inside the same time budget."""
    reps: list[Rep] = []
    laps: list[float] = []
    t0 = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - t0 + statistics.median(laps) <= seconds:
        lap = time.perf_counter()
        reps.append(fn())
        if between is not None:
            between()
        laps.append(time.perf_counter() - lap)
    return reps


def central(values) -> float:
    """Interquartile mean: the mean of the values left after dropping the
    lowest and the highest quarter.

    The machines this runs on switch between a fast and a slow state for
    seconds at a time.  Like a median it ignores outliers, but where a
    median jumps from one state to the other as their mix in a run passes
    one half, this moves in proportion to the mix.
    """
    xs = sorted(values)
    cut = len(xs) // 4
    return statistics.fmean(xs[cut : len(xs) - cut])


def per_call(reps: list[Rep]) -> list[float]:
    """Central time of each timed call across repetitions."""
    return [central(col) for col in zip(*(r.items for r in reps))]


def typical_wall(reps: list[Rep]) -> float:
    return sum(per_call(reps))


def peak_rss_mb() -> float:
    """Peak resident size of this process plus that of its largest child
    (the sweep's pool workers or a set-up interpreter).

    This process's own peak comes from VmHWM, which starts afresh at exec;
    its ru_maxrss would also count the process that started it, as it was
    before the exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # both in KiB


def layer_metrics(tr) -> tuple[dict[str, float], dict[str, int]]:
    calls, incl, own = tr.totals()
    c = tr.counts
    terms = c["sums.evaluate_sum.terms"] + c["sums.evaluate_jacobi_sum.terms"]
    sums_self = own["sums.evaluate_sum"] + own["sums.evaluate_jacobi_sum"]

    def reuse(cache: str) -> float:
        return 1.0 - c[f"{cache}.distinct"] / calls[cache] if calls[cache] else 0.0

    return {
        "sums.evaluate_sum.calls": calls["sums.evaluate_sum"],
        "sums.evaluate_sum.self_s": own["sums.evaluate_sum"],
        "sums.evaluate_sum.terms": c["sums.evaluate_sum.terms"],
        "sums.evaluate_jacobi_sum.calls": calls["sums.evaluate_jacobi_sum"],
        "sums.evaluate_jacobi_sum.self_s": own["sums.evaluate_jacobi_sum"],
        "sums.evaluate_jacobi_sum.terms": c["sums.evaluate_jacobi_sum.terms"],
        "sums.ns_per_term": sums_self / terms * 1e9 if terms else 0.0,
        "special.euler_numbers_mod.s": incl["special.euler_numbers_mod"],
        "special.u_numbers_mod.s": incl["special.u_numbers_mod"],
        "binomials.jacobi_stream_arrays.calls": calls["binomials.jacobi_stream_arrays"],
        "binomials.jacobi_stream_arrays.self_s": own["binomials.jacobi_stream_arrays"],
        "binomials.batch_invert.calls": calls["binomials.batch_invert"],
        "binomials.batch_invert.items": c["binomials.batch_invert.items"],
        "binomials.batch_invert.s": incl["binomials.batch_invert"],
        "binomials.stream_arrays.calls": calls["binomials.stream_arrays"],
        "binomials.stream_arrays.s": incl["binomials.stream_arrays"],
        "binomials.binomial_mod.calls": calls["binomials.binomial_mod"],
        "binomials.binomial_mod.s": incl["binomials.binomial_mod"],
        "context.instances": calls["context.init"],
        "context.stream.reuse": reuse("context.stream"),
        "context.product.calls": calls["context.product"],
        "context.product.distinct": c["context.product.distinct"],
        "context.product.self_s": own["context.product"],
        "context.jacobi.calls": calls["context.jacobi"],
        "context.jacobi.reuse": reuse("context.jacobi"),
        "context.jacobi_central.self_s": own["context.jacobi_central"],
        "statements.draw_params.calls": calls["statements.draw_params"],
        "statements.draw_params.s": incl["statements.draw_params"],
        "statements.evaluate_statement.calls": calls["statements.evaluate_statement"],
        "statements.evaluate_statement.self_s": own["statements.evaluate_statement"],
        "registry.fixed.s": incl["registry.fixed"],
        "registry.param.s": incl["registry.param"],
        "quadform.represent.calls": calls["quadform.represent"],
        "quadform.represent.s": incl["quadform.represent"],
        "report.to_json.s": incl["report.to_json"],
        "report.bytes": c["report.bytes"],
        "identities.convolution.s": incl["identities.convolution"],
        "identities.recurrence.s": incl["identities.recurrence"],
        "identities.products.s": incl["identities.products"],
        "identities.series_square.s": incl["identities.series_square"],
        "identities.shift.s": incl["identities.shift"],
    }, calls


def _is_count(name: str) -> bool:
    """Per-layer metrics that are exact counts, equal in every traced repetition."""
    return name.endswith((".calls", ".terms", ".items", ".distinct", ".instances", ".reuse", ".bytes"))


def run(workload: str, sizes: Sizes, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and human-readable lines."""
    fn = WORKLOADS[workload]
    problems: list[str] = []
    info: list[str] = []
    setup: list[float] = []
    traced_reps: list[Rep] = []
    tracers = []
    parallel = None
    sampler = None if trace else SetupSampler()
    try:
        sc = import_package()
        unit = lambda: fn(sc, sizes, seed, 1)  # noqa: E731
        if trace:
            reps = repeat(unit, seconds / 2)
        else:
            # set-up is sampled between repetitions, so that its samples
            # and the workload's span the same stretch of time
            reps = repeat(unit, seconds, lambda: setup.extend(sampler.sample() for _ in range(2)))
            while len(setup) < SETUP_RUNS:
                setup.append(sampler.sample())
        if workload == "engine":
            parallel = rep_sweep(sc, sizes, seed, NPROC)
            if not reps[0].text.startswith(parallel.text + "\n"):
                problems.append("1-job and nproc-job sweep reports differ")
        if trace:
            from tracing import Tracer

            def traced_unit() -> Rep:
                tr = Tracer().install(sc)
                try:
                    return unit()
                finally:
                    tr.uninstall()
                    tracers.append(tr)

            traced_reps = repeat(traced_unit, seconds / 2)
            write_spans(workload, seed, tracers[-1])
    finally:
        if sampler is not None:
            sampler.close()

    all_reps = reps + traced_reps + ([parallel] if parallel else [])
    digests = {digest(r.text) for r in reps + traced_reps}
    if len(digests) != 1:
        problems.append(f"report digest changed between repetitions: {sorted(digests)}")
    got = digest(reps[0].text)
    info.append(f"digest {workload} size={sizes.name} seed={seed} sha256={got}")
    pinned = PINNED[(sizes.name, workload)]
    if seed == DEFAULT_SEED and got != pinned:
        problems.append(f"digest {got} differs from pinned {pinned}")
    fails = sum(r.fails for r in all_reps)
    if fails:
        problems.append(f"{fails} Fails rows or failed identity checks")

    calls_s = per_call(reps)
    wall = sum(calls_s)
    info.append(f"reps untraced={len(reps)} traced={len(traced_reps)} "
                f"walls={[round(r.wall, 3) for r in reps]}")
    if setup:
        info.append(f"setup samples {sorted(round(s, 4) for s in setup)}")
    # the figures the issue names, derived from this workload's numbers
    if workload == "engine":
        n = len(sizes.primes)
        derived = {
            "cells_per_s": parallel.cells / calls_s[0],
            "fixed_s_per_prime": sum(calls_s[1::2]) / n,
            "param_s_per_prime": sum(calls_s[2::2]) / n,
            "cells_per_s_parallel": parallel.cells / parallel.wall,
            "skipped_frac": reps[0].skipped / reps[0].cells,
        }
    else:
        derived = {"identities_s": wall}
    for name, value in derived.items():
        info.append(f"derived {name} {value:.6g}")

    if trace:
        layers = []
        for tr in tracers:
            per, calls = layer_metrics(tr)
            layers.append(per)
            missing = [s for s in REQUIRED[workload] if not calls[s]]
            if missing:
                problems.append(f"traced run recorded no call to {', '.join(missing)}")
        metrics = {}
        for name, unit_, _ in PER_LAYER:
            if name == "trace_overhead":
                value = typical_wall(traced_reps) / wall
            elif name == "statements.pool_efficiency":
                value = calls_s[0] / (NPROC * parallel.wall) if parallel else 0.0
            else:
                values = [per[name] for per in layers]
                if not _is_count(name):
                    value = central(values)
                elif len(set(values)) == 1:
                    value = values[0]
                else:
                    problems.append(f"count {name} differs between traced repetitions: {values}")
                    value = central(values)
            metrics[name] = {"value": value, "unit": unit_}
    else:
        values = {"setup_s": central(setup), "wall_s": wall, "peak_rss_mb": peak_rss_mb()}
        metrics = {name: {"value": values[name], "unit": u} for name, u, _, _ in END_TO_END}

    for p in problems:
        info.append(f"PROBLEM {p}")
    attempted = sum(r.cells for r in all_reps)
    result = {"correct": not problems, "attempted": attempted, "failed": fails, "metrics": metrics}
    return result, info


def write_spans(workload: str, seed: int, tr) -> None:
    """Write the last traced repetition's spans as [name, start, end, parent]."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": tr.spans}, fh)


# -- metric catalogue (mirrors BENCHMARK.json) ---------------------------------

#: (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
]

#: (name, unit, better)
PER_LAYER = [
    ("sums.evaluate_sum.calls", "count", "lower"),
    ("sums.evaluate_sum.self_s", "s", "lower"),
    ("sums.evaluate_sum.terms", "count", "lower"),
    ("sums.evaluate_jacobi_sum.calls", "count", "lower"),
    ("sums.evaluate_jacobi_sum.self_s", "s", "lower"),
    ("sums.evaluate_jacobi_sum.terms", "count", "lower"),
    ("sums.ns_per_term", "ns", "lower"),
    ("special.euler_numbers_mod.s", "s", "lower"),
    ("special.u_numbers_mod.s", "s", "lower"),
    ("binomials.jacobi_stream_arrays.calls", "count", "lower"),
    ("binomials.jacobi_stream_arrays.self_s", "s", "lower"),
    ("binomials.batch_invert.calls", "count", "lower"),
    ("binomials.batch_invert.items", "count", "lower"),
    ("binomials.batch_invert.s", "s", "lower"),
    ("binomials.stream_arrays.calls", "count", "lower"),
    ("binomials.stream_arrays.s", "s", "lower"),
    ("binomials.binomial_mod.calls", "count", "lower"),
    ("binomials.binomial_mod.s", "s", "lower"),
    ("context.instances", "count", "lower"),
    ("context.stream.reuse", "ratio", "higher"),
    ("context.product.calls", "count", "lower"),
    ("context.product.distinct", "count", "lower"),
    ("context.product.self_s", "s", "lower"),
    ("context.jacobi.calls", "count", "lower"),
    ("context.jacobi.reuse", "ratio", "higher"),
    ("context.jacobi_central.self_s", "s", "lower"),
    ("statements.draw_params.calls", "count", "lower"),
    ("statements.draw_params.s", "s", "lower"),
    ("statements.evaluate_statement.calls", "count", "lower"),
    ("statements.evaluate_statement.self_s", "s", "lower"),
    ("statements.pool_efficiency", "ratio", "higher"),
    ("registry.fixed.s", "s", "lower"),
    ("registry.param.s", "s", "lower"),
    ("quadform.represent.calls", "count", "lower"),
    ("quadform.represent.s", "s", "lower"),
    ("report.to_json.s", "s", "lower"),
    ("report.bytes", "bytes", "lower"),
    ("identities.convolution.s", "s", "lower"),
    ("identities.recurrence.s", "s", "lower"),
    ("identities.products.s", "s", "lower"),
    ("identities.series_square.s", "s", "lower"),
    ("identities.shift.s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
]


# -- whole-suite mode ----------------------------------------------------------


def check_catalogue() -> list[str]:
    """Differences between the metric lists above and BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    want_e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    if want_e2e != END_TO_END:
        problems.append(f"end_to_end in BENCHMARK.json {want_e2e} != {END_TO_END}")
    want_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if want_layer != PER_LAYER:
        problems.append("per_layer in BENCHMARK.json differs from PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("workloads in BENCHMARK.json differ from WORKLOADS")
    return problems


def check_tamper(sizes: Sizes) -> list[str]:
    """A report with one changed digit must fail the digest comparison."""
    sc = import_package()
    rep = rep_engine(sc, sizes, DEFAULT_SEED, 1)
    problems = []
    if digest(rep.text) != PINNED[(sizes.name, "engine")]:
        problems.append("untampered report does not match its pinned digest")
    m = re.search(r'"lhs": (\d)', rep.text)
    tampered = rep.text[: m.start(1)] + str((int(m.group(1)) + 1) % 10) + rep.text[m.end(1):]
    if digest(tampered) == PINNED[(sizes.name, "engine")]:
        problems.append("tampered report passed the digest check")
    return problems


def run_all(smoke: bool, seed: int, seconds: float) -> int:
    sizes = SMOKE if smoke else FULL
    problems = check_catalogue() + check_tamper(sizes)
    doc: dict = {"sizes": sizes.__dict__, "seed": seed, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        entry = doc["workloads"][workload] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [
                sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            ] + (["--smoke"] if smoke else [])
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            catalogue = END_TO_END if trace == 0 else PER_LAYER
            want = {m[0]: m[1] for m in catalogue}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace} metric names or units differ: {got}")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace} incorrect: {lines[:-1]}")
            entry[key] = {k: v["value"] for k, v in result["metrics"].items()}
            entry.setdefault("notes", []).extend(lines[:-1])
            for name, v in result["metrics"].items():
                print(f"{workload:16s} {name:40s} {v['value']:.6g} {v['unit']}", file=sys.stderr)
    doc["problems"] = problems
    print(json.dumps(doc, indent=1))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for testing the harness")
    args = ap.parse_args(argv)
    require_source()
    if args.workload == "all":
        return run_all(args.smoke, args.seed, args.seconds)
    result, info = run(args.workload, SMOKE if args.smoke else FULL, args.seed,
                       args.seconds, bool(args.trace))
    for line in info:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
