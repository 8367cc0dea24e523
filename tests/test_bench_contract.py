"""The package API that ``bench/tracing.py`` patches by name.

The benchmark's traced mode wraps functions by module attribute and counts
``sim.Nonlinearity.__call__``.  Deleting or renaming one of them breaks that
mode, so this test installs the tracer over the package and runs a check,
a one-trial network sweep, a given-delta refine and the two plant radii
through ``cli.main``, and counts the stages of a stepping block.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import lurestab.cli
from lurestab import sim

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


def test_traced_refine_reaches_its_layers(tracing, capsys):
    tracer = tracing.Tracer()
    try:
        tracer.install()
        first = tracer.mark()
        argv = ["refine", "--problem", "example_b.json", "--delta-crit", "3.15"]
        assert lurestab.cli.main(argv) == 0
        metrics = tracer.layer_metrics(first, tracer.mark())
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert metrics["radius.refine_upper_sector_s"] > 0
    assert metrics["ffnn.empirical_check_calls"] == 2


@pytest.mark.parametrize("problem", ["linear.json", "schur.json"])
def test_traced_radius_counts_one_formula(tracing, capsys, problem):
    # Problem.radius reaches each plant formula through its traced public name
    tracer = tracing.Tracer()
    try:
        tracer.install()
        first = tracer.mark()
        path = Path(__file__).resolve().parent / "problems" / problem
        assert lurestab.cli.main(["radius", "--problem", str(path)]) == 0
        metrics = tracer.layer_metrics(first, tracer.mark())
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert metrics["radius.formula_calls"] == 1


def test_traced_run_counts_network_loops_built_before_install(tracing, example_b):
    # the benchmark builds its loops at set-up, before the tracer installs,
    # so a loop must reach the network evaluation through the traced name
    phi = example_b.loop_nonlinearity()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        first = tracer.mark()
        sim.sweep(
            example_b.system, phi, example_b.pert, [1.0],
            cfg=sim.SimConfig(dt=0.05, horizon=2.0), trials=1,
        )
        metrics = tracer.layer_metrics(first, tracer.mark())
    finally:
        tracer.uninstall()
    assert metrics["ffnn.eval_calls"] > 0
    assert metrics["sim.phi_calls"] > 0


def test_traced_stepping_block_counts_every_stage(tracing, example_a):
    # each RK4 stage of a stepping block runs through Nonlinearity.__call__,
    # which the tracer counts: the shape check's call and four a step
    steps = 50
    phi = sim.BUILTIN_NONLINEARITIES["cubic_sine"].phi
    tracer = tracing.Tracer()
    try:
        tracer.install()
        first = tracer.mark()
        block = sim.simulate_lure(
            example_a.system, phi, example_a.pert, [[0.2]],
            sim.SimConfig(dt=0.02, horizon=steps * 0.02), [0.5, 0.5, 0.5],
        )
        metrics = tracer.layer_metrics(first, tracer.mark())
    finally:
        tracer.uninstall()
    assert block.last == steps and block.columns[0].blowup_time is None
    assert metrics["sim.phi_calls"] == 1 + 4 * steps
    assert metrics["sim.rk4_steps"] == steps
