"""The package API that ``bench/tracing.py`` patches by name.

The benchmark's traced mode wraps functions by module attribute and counts
``sim.Nonlinearity.__call__``.  Deleting or renaming one of them breaks that
mode, so this test installs the tracer over the package and runs a check
and a one-trial network sweep through ``cli.main``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import lurestab.cli

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_attributes_resolve(tracing):
    targets = [target for _, group, _, _ in tracing.LAYERS for target in group]
    missing = [f"{mod}.{attr}" for mod, attr in targets if not hasattr(sys.modules[mod], attr)]
    assert missing == []
    assert callable(sys.modules["lurestab.sim"].Nonlinearity.__call__)


def test_traced_run_counts_every_layer(tracing, capsys, tmp_path):
    tracer = tracing.Tracer()
    try:
        tracer.install()
        first = tracer.mark()
        assert lurestab.cli.main(["check", "--problem", "example_b.json"]) == 0
        code = lurestab.cli.main([
            "sweep", "--problem", "example_b.json", "--trials", "1", "--dt", "0.05",
            "--horizon", "2", "--out", str(tmp_path / "sweep.csv"),
        ])
        assert code == 0
        metrics = tracer.layer_metrics(first, tracer.mark())
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert metrics["cli.main_calls"] == 2
    assert metrics["radius.certify_calls"] > 0
    assert metrics["sim.simulate_calls"] > 0
    assert metrics["sim.rk4_steps"] > 0
    assert metrics["sim.phi_calls"] > 0
