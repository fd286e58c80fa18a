"""The package's public surface, and the names the benchmark tracer binds."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import supercong
import supercong.cli  # binds supercong.cli and supercong.identities, as the bench does
from supercong import special
from supercong.context import PrimeContext

BENCH = Path(__file__).resolve().parents[1] / "bench"
PACKAGE = Path(supercong.__file__).resolve().parent


def _load_bench(name):
    """bench/<name>.py as a module, loaded without writing bytecode there
    (its dataclasses need it in sys.modules while it executes)."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


def _load_tracing():
    return _load_bench("tracing")


def test_every_public_name_resolves():
    missing = [name for name in supercong.__all__ if not hasattr(supercong, name)]
    assert missing == []
    assert len(set(supercong.__all__)) == len(supercong.__all__)


def test_src_defines_only_what_src_uses():
    """Every top-level function, class and assigned name of the package's
    modules is read by one of them: as a name, an attribute, or a
    from-import.  ``__init__`` only re-exports, so it counts neither way;
    what only tests call lives in ``tests/oracles.py``."""
    defined, read = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    defined += [(path.stem, n.id) for n in ast.walk(target) if isinstance(n, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    assert [f"{mod}.{name}" for mod, name in defined if name not in read] == []


def test_import_leaves_hashlib_and_json_unloaded():
    """``import supercong`` builds the registry, the set-up every process pays;
    hashlib (libcrypto) and json load only in the sampling and JSON-output
    functions that use them."""
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, supercong; print(sorted({'hashlib', 'json'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_only_the_traced_statement_types_are_dataclasses():
    """Each class is defined at import, and a dataclass costs about a
    millisecond to define where a NamedTuple or slotted class costs
    microseconds.  The two statement types stay dataclasses because
    bench/tracing.py rebuilds each statement with dataclasses.replace."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            for dec in node.decorator_list:
                dec = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(dec, "attr", getattr(dec, "id", None)) == "dataclass":
                    found.append(f"{path.stem}.{node.name}")
    assert found == ["registry.Fixed", "registry.Parametric"], (
        "only registry.Fixed and registry.Parametric may be dataclasses, for the "
        "dataclasses.replace in bench/tracing.py; make the others NamedTuples or "
        "slotted classes"
    )


def test_every_traced_name_resolves():
    """Each function the tracer wraps exists and is held by name in every
    module it must rebind there; each traced method is defined on its class.
    A rename then fails here rather than in a traced benchmark run."""
    tracing = _load_tracing()
    for span, (modname, attr, must) in tracing.FUNCTIONS.items():
        original = getattr(importlib.import_module(f"supercong.{modname}"), attr)
        for holder in must:
            held = vars(importlib.import_module(f"supercong.{holder}"))
            assert any(val is original for val in held.values()), (span, holder)
    for span, (modname, clsname, attr) in tracing.METHODS.items():
        cls = getattr(importlib.import_module(f"supercong.{modname}"), clsname)
        assert attr in vars(cls), span


def test_traced_engine_unit_records_every_required_span(tmp_path):
    """The tracer installed over a smoke-size engine unit (the 5..30 sweep
    through cli.main at one job, then fixed and P-* run_range at 101 and
    103) records
    a call to every span the benchmark requires of the engine.  Its count
    hooks read the wrapped functions' parameters by name, so a renamed
    parameter fails here rather than in a traced benchmark run."""
    tracer = _load_tracing().Tracer()
    required = _load_bench("run").REQUIRED["engine"]
    fixed = [sid for sid, s in supercong.REGISTRY.items() if not isinstance(s, supercong.Parametric)]
    argv = ["verify", "--primes", "5..30", "--status", "all", "--format", "json", "--jobs", "1"]
    tracer.install(supercong)
    try:
        supercong.cli.main(argv + ["--out", str(tmp_path / "sweep.json")])
        for p in (101, 103):
            for ids in (fixed, ["P-*"]):
                supercong.run_range(p, p, ids=ids)
    finally:
        tracer.uninstall()
    calls, _, _ = tracer.totals()
    assert [span for span in required if not calls[span]] == []
    assert tracer.counts["sums.evaluate_jacobi_sum.terms"] > 0
    assert tracer.counts["context.jacobi.distinct"] > 0


def test_euler_and_u_numbers_go_through_traced_functions(monkeypatch):
    """The right-hand sides read E_{p-3} and U_{p-3} through the two special
    functions the tracer wraps, one call each."""
    calls = []
    for name in ("euler_numbers_mod", "u_numbers_mod"):
        original = getattr(special, name)

        def counted(n, p, _name=name, _original=original):
            calls.append((_name, n, p))
            return _original(n, p)

        monkeypatch.setattr(special, name, counted)
    p = 1997
    ctx = PrimeContext(p, 4)
    assert ctx.euler_number(p - 3) == 1131
    assert ctx.u_number(p - 3) == 1531
    assert calls == [("euler_numbers_mod", p - 3, p), ("u_numbers_mod", p - 3, p)]


def test_bench_reports_keep_their_pinned_digests(monkeypatch, tmp_path):
    """At the benchmark's default seed, the identities report at its full
    size and the engine report at its smoke size hash to the digests the
    benchmark pins, so a change that alters a report fails here first."""
    run = _load_bench("run")
    monkeypatch.setattr(run, "OUT", tmp_path)
    for rep_fn, sizes, workload in (
        (run.rep_identities, run.FULL, "identities"),
        (run.rep_engine, run.SMOKE, "engine"),
    ):
        rep = rep_fn(supercong, sizes, run.DEFAULT_SEED, 1)
        assert rep.fails == 0, workload
        assert run.digest(rep.text) == run.PINNED[(sizes.name, workload)], workload
