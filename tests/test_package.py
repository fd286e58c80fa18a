"""The package's public surface, and the names the benchmark tracer binds."""

import importlib
import importlib.util
from pathlib import Path

import supercong
from supercong import special
from supercong.context import PrimeContext

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_public_name_resolves():
    missing = [name for name in supercong.__all__ if not hasattr(supercong, name)]
    assert missing == []
    assert len(set(supercong.__all__)) == len(supercong.__all__)


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
