import numpy as np
import pytest
import scipy.linalg

from lurestab import sim
from lurestab.errors import (
    DimensionMismatchError,
    NoInstabilityError,
    NonFiniteStateError,
    UnstableAtZeroError,
    ZeroInitialStateError,
)
from lurestab.linalg import NormKind, spectral_abscissa
from lurestab.radius import LtiSystem, PerturbationStructure, stability_radius_lure
from lurestab.sim import Nonlinearity, SimConfig, Trajectory

from generators import bisect_destabilizing_delta


def two_state_system(a=None):
    a = a if a is not None else [[-1.0, 2.0], [0.0, -3.0]]
    return LtiSystem(a=a, b=[[0.0], [0.0]], c=[[1.0, 0.0]])


def identity_pert(n, norm=NormKind.TWO):
    return PerturbationStructure(d=np.eye(n), e=np.eye(n), norm=norm)


def scalar_pert(n):
    return PerturbationStructure(d=np.ones((n, 1)), e=np.ones((1, n)), norm=NormKind.TWO)


ZERO_PHI = Nonlinearity.scalar(lambda y: 0.0, name="zero")


class TestNonlinearity:
    def test_scalar_must_fix_origin(self):
        with pytest.raises(ValueError):
            Nonlinearity.scalar(lambda y: y + 1.0)

    def test_gain_applies_matrix(self):
        phi = Nonlinearity.gain([[2.0, 0.0]])
        assert phi(np.array([3.0, 5.0])) == pytest.approx([6.0])

    def test_scalar_applies_elementwise(self):
        phi = Nonlinearity.scalar(lambda y: -y)
        assert phi(np.array([1.0, -2.0])) == pytest.approx([-1.0, 2.0])

    def test_builtin_registry(self):
        builtin = sim.BUILTIN_NONLINEARITIES["cubic_sine"]
        assert builtin.sector_lower == -2.0 and builtin.sector_upper == -0.48
        phi = builtin.make()
        assert phi(np.array([0.0])) == pytest.approx([0.0])
        y = 1.3
        assert phi(np.array([y]))[0] == pytest.approx(-1.5 * y + 0.01 * y**3 + np.sin(2 * y))


class TestSimulate:
    def test_stable_linear_decay(self):
        sys = two_state_system()
        cfg = SimConfig(dt=0.01, horizon=15.0, x0=np.array([1.0, 1.0]))
        traj = sim.simulate_lure(sys, ZERO_PHI, identity_pert(2), np.zeros((2, 2)), cfg)
        verdict = sim.classify_stability(traj)
        assert verdict.label == "Stable"
        assert verdict.decay_ratio < 1e-3

    def test_blowup_halts_early(self):
        sys = two_state_system([[2.0, 0.0], [0.0, 2.0]])
        cfg = SimConfig(dt=0.01, horizon=60.0, x0=np.array([1.0, 1.0]))
        traj = sim.simulate_lure(sys, ZERO_PHI, identity_pert(2), np.zeros((2, 2)), cfg)
        assert traj.blowup_time is not None
        assert traj.times[-1] < 60.0
        assert sim.classify_stability(traj).label == "Unstable"

    def test_nan_from_nonlinearity_is_reported_distinctly(self):
        bad = Nonlinearity.scalar(lambda y: float("nan") if y > 0.5 else 0.0)
        sys = LtiSystem(a=[[0.0]], b=[[1.0]], c=[[1.0]])
        cfg = SimConfig(dt=0.1, horizon=5.0, x0=np.array([1.0]))
        with pytest.raises(NonFiniteStateError):
            sim.simulate_lure(sys, bad, scalar_pert(1), [[0.0]], cfg)

    def test_linear_fast_path_matches_staged_integration(self):
        # same loop expressed as a gain and as a scalar function
        sys = LtiSystem(a=[[-2.0, 1.0], [1.0, -3.0]], b=[[1.0], [0.5]], c=[[1.0, 1.0]])
        pert = scalar_pert(2)
        cfg = SimConfig(dt=0.01, horizon=5.0, x0=np.array([1.0, 0.5]))
        delta = np.array([[0.1]])
        gain_traj = sim.simulate_lure(sys, Nonlinearity.gain([[-0.4]]), pert, delta, cfg)
        fn_traj = sim.simulate_lure(
            sys, Nonlinearity.scalar(lambda y: -0.4 * y), pert, delta, cfg
        )
        assert np.abs(gain_traj.states - fn_traj.states).max() < 1e-9

    def test_delta_shape_validated(self):
        sys = two_state_system()
        cfg = SimConfig(x0=np.array([1.0, 1.0]))
        with pytest.raises(DimensionMismatchError):
            sim.simulate_lure(sys, ZERO_PHI, identity_pert(2), np.zeros((1, 1)), cfg)

    def test_outputs_follow_c(self):
        sys = LtiSystem(a=[[-1.0, 0.0], [0.0, -1.0]], b=[[0.0], [0.0]], c=[[2.0, 1.0]])
        cfg = SimConfig(dt=0.1, horizon=1.0, x0=np.array([1.0, 2.0]))
        traj = sim.simulate_lure(sys, ZERO_PHI, identity_pert(2), np.zeros((2, 2)), cfg)
        assert traj.outputs[:, 0] == pytest.approx(traj.states @ np.array([2.0, 1.0]))

    def test_positivity_preserved_for_certified_loop(self, example_b):
        phi = example_b.loop_nonlinearity()
        cfg = SimConfig(dt=0.005, horizon=10.0, x0=np.array([0.3, 0.8, 0.1]))
        traj = sim.simulate_lure(example_b.system, phi, example_b.pert, [[1.0]], cfg)
        assert traj.states.min() >= -1e-6


class TestClassify:
    def _synthetic(self, factor, T=10.0, n=50):
        times = np.linspace(0.0, T, n)
        states = np.exp(factor * times)[:, None] * np.ones((n, 2))
        return Trajectory(times=times, states=states, outputs=states[:, :1])

    def test_decaying(self):
        assert sim.classify_stability(self._synthetic(-1.0)).label == "Stable"

    def test_growing(self):
        assert sim.classify_stability(self._synthetic(1.0)).label == "Unstable"

    def test_constant_is_inconclusive(self):
        verdict = sim.classify_stability(self._synthetic(0.0))
        assert verdict.label == "Inconclusive"
        assert verdict.decay_ratio == pytest.approx(1.0)

    def test_zero_initial_state_rejected(self):
        times = np.array([0.0, 1.0])
        states = np.zeros((2, 2))
        traj = Trajectory(times=times, states=states, outputs=states)
        with pytest.raises(ZeroInitialStateError):
            sim.classify_stability(traj)


class TestRk4Order:
    def test_error_drops_at_fourth_order(self):
        a = np.array([[-1.0, 2.0], [0.0, -3.0]])
        sys = two_state_system(a)
        x0 = np.array([1.0, 1.0])
        horizon = 2.0

        def max_error(dt):
            cfg = SimConfig(dt=dt, horizon=horizon, x0=x0)
            traj = sim.simulate_lure(sys, ZERO_PHI, identity_pert(2), np.zeros((2, 2)), cfg)
            exact = np.stack([scipy.linalg.expm(a * t) @ x0 for t in traj.times])
            return np.abs(traj.states - exact).max()

        coarse = max_error(1e-2)
        fine = max_error(5e-3)
        assert coarse / fine >= 8.0


class TestFindCriticalDelta:
    def test_linear_gain_matches_analytic_radius(self, example_a):
        sector = example_a.analysis_sector()
        report = stability_radius_lure(
            example_a.system, sector, example_a.pert, override_gates=True
        )
        phi = Nonlinearity.gain(sector.upper)
        cfg = SimConfig(dt=0.01, horizon=150.0)
        found = sim.find_critical_delta(
            example_a.system, phi, example_a.pert,
            delta_max=1.0, tol=0.01, cfg=cfg, trials=5, seed=42,
        )
        assert found.bracket[0] <= found.delta_star <= found.bracket[1]
        # the simulated threshold sits at or just above the formula value
        assert found.delta_star >= report.radius - 0.01
        assert found.delta_star == pytest.approx(report.radius, abs=0.03)

    def test_unstable_at_zero_rejected(self):
        sys = two_state_system([[1.0, 0.0], [0.0, 1.0]])
        cfg = SimConfig(dt=0.01, horizon=40.0)
        with pytest.raises(UnstableAtZeroError):
            sim.find_critical_delta(
                sys, ZERO_PHI, identity_pert(2), delta_max=0.5, cfg=cfg, trials=3
            )

    def test_no_instability_reported_with_largest_delta(self):
        sys = two_state_system([[-5.0, 0.0], [0.0, -5.0]])
        cfg = SimConfig(dt=0.01, horizon=20.0)
        with pytest.raises(NoInstabilityError) as exc_info:
            sim.find_critical_delta(
                sys, ZERO_PHI, identity_pert(2), delta_max=0.1, cfg=cfg, trials=3
            )
        assert exc_info.value.largest_delta == pytest.approx(0.1)


class TestSweep:
    def test_zero_delta_all_stable(self):
        sys = two_state_system()
        cfg = SimConfig(dt=0.01, horizon=15.0)
        rows = sim.sweep(sys, ZERO_PHI, identity_pert(2), [0.0], cfg=cfg, trials=4)
        assert len(rows) == 4
        assert all(r.verdict == "Stable" for r in rows)

    def test_empty_delta_list(self):
        sys = two_state_system()
        rows = sim.sweep(sys, ZERO_PHI, identity_pert(2), [], trials=3)
        assert rows == []

    def test_deterministic_with_same_seed(self):
        sys = two_state_system()
        cfg = SimConfig(dt=0.05, horizon=5.0)
        rows_a = sim.sweep(sys, ZERO_PHI, identity_pert(2), [0.0, 0.2], cfg=cfg, trials=3, seed=9)
        rows_b = sim.sweep(sys, ZERO_PHI, identity_pert(2), [0.0, 0.2], cfg=cfg, trials=3, seed=9)
        assert rows_a == rows_b

    def test_rows_sorted_by_delta_then_trial(self):
        sys = two_state_system()
        cfg = SimConfig(dt=0.05, horizon=5.0)
        rows = sim.sweep(sys, ZERO_PHI, identity_pert(2), [0.1, 0.2], cfg=cfg, trials=2)
        assert [(r.delta, r.trial) for r in rows] == [(0.1, 0), (0.1, 1), (0.2, 0), (0.2, 1)]

    def test_csv_writers(self, tmp_path):
        sys = two_state_system()
        cfg = SimConfig(dt=0.05, horizon=5.0, x0=np.array([1.0, 1.0]))
        rows = sim.sweep(sys, ZERO_PHI, identity_pert(2), [0.0], cfg=cfg, trials=2)
        sweep_path = tmp_path / "sweep.csv"
        sim.write_sweep_csv(rows, sweep_path)
        header = sweep_path.read_text().splitlines()[0]
        assert header == "delta,trial,seed,verdict,decay_ratio,blowup_time"


class TestWorkedExampleLoop:
    def test_linear_worst_case_transition_pattern(self, example_a):
        # with the constant upper gain in the loop, the classic stable /
        # borderline / unstable pattern appears across the delta grid
        sector = example_a.analysis_sector()
        phi = Nonlinearity.gain(sector.upper)
        cfg = SimConfig(dt=0.01, horizon=40.0)
        rows = sim.sweep(
            example_a.system, phi, example_a.pert, [0.2, 0.26, 0.4],
            cfg=cfg, trials=3, seed=42,
        )
        by_delta = {d: [r.verdict for r in rows if r.delta == d] for d in (0.2, 0.26, 0.4)}
        assert set(by_delta[0.2]) == {"Stable"}
        assert "Unstable" not in by_delta[0.26]
        assert set(by_delta[0.4]) == {"Unstable"}

    def test_builtin_nonlinearity_stays_bounded_below_threshold(self, example_a):
        # the bundled feedback holds trajectories in a bounded band rather
        # than driving them to zero, so "not unstable" is the honest claim
        phi = sim.BUILTIN_NONLINEARITIES["cubic_sine"].make()
        cfg = SimConfig(dt=0.01, horizon=30.0)
        rows = sim.sweep(
            example_a.system, phi, example_a.pert, [0.2], cfg=cfg, trials=3, seed=42
        )
        assert all(r.verdict != "Unstable" for r in rows)
        assert all(r.decay_ratio < 10.0 for r in rows)

    def test_builtin_nonlinearity_blows_up_at_large_delta(self, example_a):
        phi = sim.BUILTIN_NONLINEARITIES["cubic_sine"].make()
        cfg = SimConfig(dt=0.01, horizon=30.0)
        rows = sim.sweep(
            example_a.system, phi, example_a.pert, [2.0], cfg=cfg, trials=3, seed=42
        )
        assert any(r.verdict == "Unstable" for r in rows)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0)
        with pytest.raises(ValueError):
            SimConfig(dt=2.0, horizon=1.0)


class TestFormulaConsistency:
    def test_simulated_threshold_tracks_formula_for_linear_worst_case(self, rng):
        # cross-check on a random certified system: simulate the upper-gain
        # loop and compare the instability onset with the radius formula
        from generators import random_metzler_hurwitz
        from lurestab.radius import SectorBound

        a = random_metzler_hurwitz(rng, 3)
        sys = LtiSystem(a=a, b=np.ones((3, 1)), c=np.ones((1, 3)))
        pert = scalar_pert(3)
        sector = SectorBound.scalar(-0.05, 0.0)
        report = stability_radius_lure(sys, sector, pert)
        phi = Nonlinearity.gain(sector.upper)
        cfg = SimConfig(dt=0.01, horizon=220.0)
        found = sim.find_critical_delta(
            sys, phi, pert, delta_max=4.0 * report.radius,
            tol=max(0.01, 0.01 * report.radius), cfg=cfg, trials=4, seed=3,
        )
        assert found.delta_star == pytest.approx(report.radius, rel=0.05, abs=0.05)
