"""The benchmark's traced run wraps program names that must keep existing."""
from __future__ import annotations

import importlib
import types
from pathlib import Path

from dpweights.cli import main
from dpweights.core import Quintuple

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    """perfbench/tracing.py as a module, read without writing a bytecode cache."""
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_lookup_resolves():
    tracing = load_tracing()
    for module_name, attr, _, _ in tracing.SPANS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (module_name, attr)
    for module_name in tracing.QUINTUPLE_LOOKUPS:
        assert importlib.import_module(module_name).Quintuple is Quintuple, module_name


def test_traced_verify_counts_oracle_work(capsys):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        tracer.begin_pass()
        code = main(["verify", "--index", "2", "--bound", "30"])
        tracer.end_pass()
    finally:
        restore()
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and lines[0] == "OK"
    lo, hi, counters = tracer.passes[0]
    metrics = tracing.layer_metrics(*tracer.summarize(lo, hi), counters)
    assert metrics["oracle.candidates"][0] > 0
    assert metrics["oracle.hits"][0] == int(lines[1].split()[0])
