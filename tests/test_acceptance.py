"""Acceptance suite: ten numbered criteria, each printed as one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Criteria 1, 2, 4, 5 drive the installed CLI end to end via
subprocesses; the rest exercise the library at the stated scale.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from lurestab import ffnn, linalg, sim
from lurestab.linalg import NormKind
from lurestab.radius import (
    PerturbationStructure,
    stability_radius_linear,
    stability_radius_lure,
)
from lurestab.sim import Nonlinearity, SimConfig

from generators import (
    bisect_destabilizing_delta,
    monotonicity_gap,
    ordered_metzler_pair,
    random_metzler_hurwitz,
    random_zero_bias_net,
)


def _report(number, name, ok, detail, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(
        f"criterion {number:2d} ({name}): {status} - {detail} [{elapsed:.2f}s / {limit:.0f}s]"
    )
    assert ok, f"criterion {number} ({name}): {detail}"
    assert elapsed < limit, f"criterion {number} exceeded its runtime budget: {elapsed:.2f}s"


def run_cli(*args):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "lurestab", *args, "--format", "json"],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    data = json.loads(proc.stdout) if proc.stdout.strip().startswith("{") else None
    return proc.returncode, data, elapsed


def test_criterion_01_example_a_radius():
    code, data, elapsed = run_cli(
        "radius", "--problem", "example_a.json", "--override-gates", "--norm", "two"
    )
    radius = data["results"]["radius"] if data else float("nan")
    ok = code == 0 and abs(radius - 0.26) <= 0.01
    _report(1, "example A radius", ok, f"radius = {radius:.6f}, target 0.26 +/- 0.01", elapsed, 1.0)


def test_criterion_02_example_a_gate_truthing():
    code, data, elapsed = run_cli("check", "--problem", "example_a.json")
    results = data["results"] if data else {}
    ok = (
        code == 2
        and results.get("metzler_at_upper") is True
        and results.get("gate_hurwitz_at_upper") is True
        and results.get("gate_metzler_at_lower") is False
    )
    _report(
        2,
        "example A gate truthing",
        ok,
        "upper loop Metzler+Hurwitz, lower-gate failure reported truthfully",
        elapsed,
        1.0,
    )


def test_criterion_03_example_a_criticality_crosscheck(example_a):
    start = time.perf_counter()
    sector = example_a.analysis_sector()
    upper_loop = example_a.system.a + example_a.system.b @ sector.upper @ example_a.system.c
    structure = example_a.pert.d @ example_a.pert.e

    def abscissa(delta):
        return linalg.spectral_abscissa(upper_loop + delta * structure)

    lo, hi = abscissa(0.24), abscissa(0.28)
    elapsed = time.perf_counter() - start
    ok = lo < 0.0 < hi
    _report(
        3,
        "example A criticality cross-check",
        ok,
        f"abscissa(0.24) = {lo:.4f} < 0 < abscissa(0.28) = {hi:.4f}",
        elapsed,
        1.0,
    )


def test_criterion_04_example_b_radius_chain():
    code_nn, data_nn, t_nn = run_cli("nn-bound", "--problem", "example_b.json")
    gamma2 = data_nn["results"]["gamma2"][0][0] if data_nn else float("nan")
    code_r, data_r, t_r = run_cli("radius", "--problem", "example_b.json")
    radius = data_r["results"]["radius"] if data_r else float("nan")
    ok = (
        code_nn == 0
        and abs(gamma2 - 0.91) <= 1e-12
        and code_r == 0
        and abs(radius - 2.04) <= 0.02
    )
    _report(
        4,
        "example B radius chain",
        ok,
        f"gamma2 = {gamma2!r} (0.91 +/- 1e-12), radius = {radius:.6f} (2.04 +/- 0.02)",
        max(t_nn, t_r),
        1.0,
    )


def test_criterion_05_refinement_formula():
    code, data, elapsed = run_cli(
        "refine", "--problem", "example_b.json", "--delta-crit", "3.15"
    )
    magnitude = data["results"]["magnitude"] if data else float("nan")
    ok = code == 0 and abs(magnitude - 0.25) <= 0.01
    _report(
        5,
        "refinement formula",
        ok,
        f"magnitude = {magnitude:.6f}, target 0.25 +/- 0.01",
        elapsed,
        1.0,
    )


def test_criterion_06_monotonicity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 7))
        p, q = ordered_metzler_pair(rng, n)
        for norm in (NormKind.ONE, NormKind.TWO, NormKind.INF):
            pert = PerturbationStructure(d=np.eye(n), e=np.eye(n), norm=norm)
            pair = monotonicity_gap(p, q, pert)
            worst_gap = max(worst_gap, pair.r_p - pair.r_q)
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-9
    _report(
        6,
        "monotonicity suite",
        ok,
        f"200 ordered pairs, norms one/two/inf, worst r_P - r_Q = {worst_gap:.2e}",
        elapsed,
        10.0,
    )


def test_criterion_07_formula_vs_bisection_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_rel = 0.0
    for _ in range(50):
        a = random_metzler_hurwitz(rng, 3)
        d = rng.uniform(0.1, 1.0, size=(3, 1))
        e = rng.uniform(0.1, 1.0, size=(1, 3))
        pert = PerturbationStructure(d=d, e=e, norm=NormKind.TWO)
        formula = stability_radius_linear(a, pert).radius
        structure = d @ e

        def abscissa(delta):
            return linalg.spectral_abscissa(a + delta * structure)

        star = bisect_destabilizing_delta(abscissa, 0.0, 10.0 * formula, 1e-7 * formula)
        worst_rel = max(worst_rel, abs(star - formula) / formula)
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-6
    _report(
        7,
        "formula vs brute force",
        ok,
        f"50 systems, worst relative gap {worst_rel:.2e} (tolerance 1e-6)",
        elapsed,
        30.0,
    )


def test_criterion_08_sector_bound_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    total_violations = 0
    for _ in range(100):
        net = random_zero_bias_net(rng, max_q=3, max_width=8)
        bound = ffnn.sector_bound_ffnn(net)
        check = ffnn.empirical_sector_check(
            net, bound, samples=1000, seed=int(rng.integers(0, 2**31))
        )
        total_violations += check.count
    elapsed = time.perf_counter() - start
    ok = total_violations == 0
    _report(
        8,
        "sector bound soundness",
        ok,
        f"100 networks x 1000 samples, {total_violations} violations",
        elapsed,
        60.0,
    )


def test_criterion_09_simulation_analysis_consistency(example_a):
    start = time.perf_counter()
    sector = example_a.analysis_sector()
    formula = stability_radius_lure(
        example_a.system, sector, example_a.pert, override_gates=True
    ).radius

    linear_cfg = SimConfig(dt=0.01, horizon=150.0)
    linear = sim.find_critical_delta(
        example_a.system,
        Nonlinearity.gain(sector.upper),
        example_a.pert,
        delta_max=1.0,
        tol=0.005,
        cfg=linear_cfg,
        trials=10,
        seed=42,
    )

    builtin = sim.BUILTIN_NONLINEARITIES["cubic_sine"].phi
    nonlinear_cfg = SimConfig(dt=0.01, horizon=60.0)
    nonlinear = sim.find_critical_delta(
        example_a.system,
        builtin,
        example_a.pert,
        delta_max=2.0,
        tol=0.02,
        cfg=nonlinear_cfg,
        trials=6,
        seed=42,
    )
    elapsed = time.perf_counter() - start
    ok = abs(linear.delta_star - formula) <= 0.005 and nonlinear.delta_star >= 0.26 - 0.02
    _report(
        9,
        "simulation/analysis consistency",
        ok,
        f"linear worst case delta* = {linear.delta_star:.4f} (formula {formula:.4f} "
        f"+/- 0.005); nonlinear delta* = {nonlinear.delta_star:.4f} >= 0.24",
        elapsed,
        60.0,
    )


def test_criterion_10_rk4_order():
    start = time.perf_counter()
    import scipy.linalg

    a = np.array([[-1.0, 2.0], [0.0, -3.0]])
    from lurestab.radius import LtiSystem

    sys_2 = LtiSystem(a=a, b=[[0.0], [0.0]], c=[[1.0, 0.0]])
    pert = PerturbationStructure(d=np.eye(2), e=np.eye(2), norm=NormKind.TWO)
    x0 = np.array([1.0, 1.0])
    zero_phi = Nonlinearity.scalar(lambda y: 0.0)

    def max_error(dt):
        cfg = SimConfig(dt=dt, horizon=2.0)
        traj = sim.simulate_lure(sys_2, zero_phi, pert, np.zeros((2, 2)), cfg, x0)
        exact = np.stack([scipy.linalg.expm(a * t) @ x0 for t in traj.times])
        return np.abs(traj.states - exact).max()

    factor = max_error(1e-2) / max_error(5e-3)
    elapsed = time.perf_counter() - start
    ok = factor >= 8.0
    _report(
        10,
        "integrator order",
        ok,
        f"halving dt shrank the error by x{factor:.1f} (need >= 8)",
        elapsed,
        5.0,
    )
