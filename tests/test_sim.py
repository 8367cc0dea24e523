import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg

from lurestab import sim
from lurestab.errors import (
    DimensionMismatchError,
    InputError,
    NoInstabilityError,
    NonFiniteEntriesError,
    NonFiniteStateError,
    UnstableAtZeroError,
    ZeroInitialStateError,
)
from lurestab.ffnn import RELU, TANH, Ffnn, Layer
from lurestab.linalg import NormKind, operator_norm, spectral_abscissa
from lurestab.radius import LtiSystem, PerturbationStructure, stability_radius_lure
from lurestab.sim import Nonlinearity, SimConfig

from generators import bisect_destabilizing_delta, random_metzler_hurwitz


def two_state_system(a=None):
    a = a if a is not None else [[-1.0, 2.0], [0.0, -3.0]]
    return LtiSystem(a=a, b=[[0.0], [0.0]], c=[[1.0, 0.0]])


def identity_pert(n, norm=NormKind.TWO):
    return PerturbationStructure(d=np.eye(n), e=np.eye(n), norm=norm)


def scalar_pert(n):
    return PerturbationStructure(d=np.ones((n, 1)), e=np.ones((1, n)), norm=NormKind.TWO)


ZERO_PHI = Nonlinearity.scalar(lambda y: 0.0, name="zero")


def reference_run(sys, phi, pert, delta, cfg, x0):
    """One column stepped alone, as the engine steps a ``(1, n, 1)`` stack:
    by ``sim._taylor4`` of a gain loop's ``h``, else by the telescoped
    stages of ``sim._stage_matrices``, each product and sum in the engine's
    order.  It halts where an entry passes the blow-up bound, or where the
    state is NaN and some stage output of the step infinite, which is a
    blow-up with the final peak inf; it raises at any other NaN state, and
    never jumps or stops at a settled state.  Returns the states, one row
    per step, and the ColumnPeaks a block keeps."""
    dt, steps = cfg.dt, round(cfg.horizon / cfg.dt)
    drift = sys.a + pert.d @ np.asarray(delta, dtype=float) @ pert.e
    x = np.asarray(x0, dtype=float).reshape(1, -1, 1)
    states, blowup = [x], None
    p, m = sys.p, sys.m
    u = np.zeros((1, 4 * m, 1))  # the last step's stage outputs; a gain step has none
    with np.errstate(over="ignore", invalid="ignore"):
        if phi.mat is not None:
            p_stack = np.array([sim._taylor4(dt * (drift + sys.b @ phi.mat @ sys.c))])

            def step(x):
                return p_stack @ x
        else:
            w, g2, g3, g4, q = (np.array([mat]) for mat in sim._stage_matrices(dt * drift, sys.b, sys.c, dt))

            def step(x):
                z = w @ x
                u[:, :m] = phi(z[:, :p])
                for j, g in enumerate((g2, g3, g4), 1):
                    u[:, j * m : (j + 1) * m] = phi(g @ u[:, : j * m] + z[:, j * p : (j + 1) * p])
                return q @ u + z[:, 4 * p :]
        for k in range(1, steps + 1):
            x = step(x)
            states.append(x)
            peak = np.abs(x).max()
            if np.isnan(peak) and not np.isinf(u).any():
                raise NonFiniteStateError(f"state became NaN at t = {k * dt:g}")
            if not peak <= sim.BLOWUP_BOUND:
                blowup = k * dt
                break
    states = np.concatenate(states)[:, :, 0]
    peaks = np.abs(states).max(axis=1).tolist()
    if blowup is not None and math.isnan(peaks[-1]):
        peaks[-1] = math.inf
    midway = steps // 2
    rate = sim._growth_rate(peaks[0], peaks[min(midway, len(peaks) - 1)], peaks[-1],
                            midway * dt, steps * dt, blowup)
    return states, sim.ColumnPeaks(peaks[0], peaks[-1], rate, blowup)


# a loop with two plant inputs and two outputs, closed by a biased tanh network
MIMO_SYSTEM = LtiSystem(
    a=[[-2.0, 0.5, 0.3], [0.4, -1.5, 0.2], [0.1, 0.3, -1.8]],
    b=[[1.0, -0.2], [0.3, 1.0], [0.5, 0.4]],
    c=[[1.0, 0.0, 0.5], [-0.2, 1.0, 0.3]],
)
MIMO_NET = Ffnn(
    (Layer([[0.8, -0.5], [0.3, 0.9], [-0.7, 0.4]], [0.1, -0.2, 0.05]),),
    Layer([[0.6, -0.4, 0.5], [-0.3, 0.7, 0.2]], [0.02, -0.01]),
    TANH,
)
# networks of each shape that a loop steps with, each closing MIMO_SYSTEM
_wide = np.random.default_rng(7)
STEPPING_NETS = {
    "deep_relu": Ffnn(
        (Layer([[0.5, -0.3], [0.2, 0.8], [-0.6, 0.4]], [0.0, 0.0, 0.0]),
         Layer([[0.7, -0.2, 0.3], [0.1, 0.5, -0.4]], [0.0, 0.0])),
        Layer([[0.9, -0.3], [0.4, 0.6]], [0.0, 0.0]),
        RELU,
    ),
    "tanh": Ffnn(
        (Layer([[0.8, 0.1], [-0.4, 0.6], [0.3, -0.9]], [0.0, 0.0, 0.0]),),
        Layer([[0.5, -0.2, 0.7], [-0.6, 0.4, 0.1]], [0.0, 0.0]),
        TANH,
    ),
    "biased": Ffnn(
        (Layer([[0.6, -0.4], [0.3, 0.7], [-0.5, 0.2]], [0.1, -0.3, 0.2]),
         Layer([[0.4, 0.2, -0.6], [-0.3, 0.5, 0.4]], [-0.1, 0.25])),
        Layer([[0.7, -0.5], [0.2, 0.8]], [0.05, -0.15]),
        RELU,
    ),
    "no_hidden": Ffnn((), Layer([[0.6, -0.3], [0.4, 0.5]], [0.1, -0.2]), RELU),
    "mimo_network": MIMO_NET,
    # a 16-unit hidden layer
    "wide": Ffnn(
        (Layer(_wide.uniform(-0.5, 0.5, size=(16, 2)), _wide.uniform(-0.1, 0.1, size=16)),),
        Layer(_wide.uniform(-0.1, 0.1, size=(2, 16)), [0.0, 0.0]),
        TANH,
    ),
}


class TestNonlinearity:
    def test_only_network_attaches_a_network(self):
        # the network and the orthant matrix derived from it come from
        # Nonlinearity.network alone; no constructor takes either
        for kwarg in ("orthant", "net"):
            with pytest.raises(TypeError):
                Nonlinearity(lambda y: y, **{kwarg: np.eye(1)})
        assert Nonlinearity(lambda y: y).net is None
        assert Nonlinearity(lambda y: y).orthant is None
        assert Nonlinearity.network(MIMO_NET).net is MIMO_NET

    def test_scalar_must_fix_origin(self):
        with pytest.raises(ValueError):
            Nonlinearity.scalar(lambda y: y + 1.0)

    def test_scalar_nan_at_origin_is_input_error(self):
        with pytest.raises(InputError, match=r"must fix the origin; f\(0\) = nan"):
            Nonlinearity.scalar(lambda y: float("nan"))

    def test_scalar_raising_at_origin_is_input_error(self):
        with pytest.raises(InputError, match=r"must fix the origin; f\(0\) raised ValueError"):
            Nonlinearity.scalar(math.log)

    def test_gain_applies_matrix(self):
        phi = Nonlinearity.gain([[2.0, 0.0]])
        assert phi(np.array([[[3.0], [5.0]]])) == pytest.approx(np.array([[[6.0]]]))

    def test_scalar_applies_elementwise(self):
        phi = Nonlinearity.scalar(lambda y: -y)
        assert phi(np.array([[[1.0], [-2.0]]])) == pytest.approx(np.array([[[-1.0], [2.0]]]))

    def test_undefined_value_at_an_overflowed_input_is_nan(self):
        # an input that overflowed to +-inf gives NaN, for the NaN and blow-up
        # rules of stepping; a finite input outside the domain stays an input
        # error (test_undefined_value_in_a_stack_is_input_error)
        phi = sim.BUILTIN_NONLINEARITIES["cubic_sine"].phi
        out = phi(np.array([[[np.inf]], [[-np.inf]], [[1.0]]]))
        assert np.isnan(out[:2]).all() and out[2, 0, 0] == sim._cubic_sine(1.0)
        root = Nonlinearity.scalar(math.sqrt, name="sqrt")
        assert np.isnan(root(np.array([[[-np.inf]], [[4.0]]]))[0, 0, 0])

    def test_scalar_maps_every_entry_of_a_stack(self):
        phi = Nonlinearity.scalar(math.sinh, name="sinh")
        y = np.array([[1000.0, -1000.0, 0.5], [-0.25, 2.0, -800.0]])[..., None]
        out = phi(y)
        assert out.shape == (2, 3, 1)
        out = out[..., 0]
        assert out[0, 0] == math.inf and out[0, 1] == -math.inf and out[1, 2] == -math.inf
        assert [out[0, 2], out[1, 0], out[1, 1]] == [math.sinh(0.5), math.sinh(-0.25), math.sinh(2.0)]

    def test_undefined_value_in_a_stack_is_input_error(self):
        phi = Nonlinearity.scalar(math.sqrt, name="sqrt")
        with pytest.raises(InputError, match=r"'sqrt' is undefined at y = -2 "):
            phi(np.array([[[4.0], [1.0]], [[-2.0], [9.0]]]))

    @pytest.mark.parametrize("phi", [
        sim.BUILTIN_NONLINEARITIES["cubic_sine"].phi,
        Nonlinearity.gain([[0.3, -1.7], [2.1, 0.4]]),
        Nonlinearity.network(MIMO_NET),
    ], ids=["scalar", "gain", "network"])
    def test_stack_entries_match_their_evaluation_alone(self, phi):
        # the engine passes (K, p, 1) stacks; a block column must equal its run alone
        y = np.random.default_rng(5).uniform(-3.0, 3.0, size=(7, 2, 1))
        stack = phi(y)
        assert stack.shape == (7, 2, 1)
        for k in range(7):
            assert np.array_equal(stack[k : k + 1], phi(y[k : k + 1]))

    def test_builtin_registry(self):
        builtin = sim.BUILTIN_NONLINEARITIES["cubic_sine"]
        assert builtin.sector_lower == -2.0 and builtin.sector_upper == -0.48
        phi = builtin.phi
        assert phi(np.zeros((1, 1, 1))) == pytest.approx(np.zeros((1, 1, 1)))
        y = 1.3
        assert phi(np.array([[[y]]]))[0, 0, 0] == pytest.approx(-1.5 * y + 0.01 * y**3 + np.sin(2 * y))


class TestSimulate:
    def test_stable_linear_decay(self):
        sys = two_state_system()
        cfg = SimConfig(dt=0.01, horizon=15.0)
        x0 = np.array([1.0, 1.0])
        block = sim.simulate_lure(sys, ZERO_PHI, identity_pert(2), np.zeros((2, 2)), cfg, x0)
        verdict = sim.classify_stability(block.columns[0])
        assert verdict.label == "Stable"
        assert verdict.decay_ratio < 1e-3

    def test_blowup_halts_early(self):
        sys = two_state_system([[2.0, 0.0], [0.0, 2.0]])
        cfg = SimConfig(dt=0.01, horizon=60.0)
        x0 = np.array([1.0, 1.0])
        block = sim.simulate_lure(sys, ZERO_PHI, identity_pert(2), np.zeros((2, 2)), cfg, x0)
        assert block.columns[0].blowup_time is not None
        assert block.times[-1] < 60.0
        assert sim.classify_stability(block.columns[0]).label == "Unstable"

    def test_nan_from_nonlinearity_is_reported_distinctly(self):
        bad = Nonlinearity.scalar(lambda y: float("nan") if y > 0.5 else 0.0)
        sys = LtiSystem(a=[[0.0]], b=[[1.0]], c=[[1.0]])
        cfg = SimConfig(dt=0.1, horizon=5.0)
        with pytest.raises(NonFiniteStateError):
            sim.simulate_lure(sys, bad, scalar_pert(1), [[0.0]], cfg, np.array([1.0]))

    def test_linear_fast_path_matches_staged_integration(self):
        # same loop expressed as a gain and as a scalar function
        sys = LtiSystem(a=[[-2.0, 1.0], [1.0, -3.0]], b=[[1.0], [0.5]], c=[[1.0, 1.0]])
        pert = scalar_pert(2)
        cfg = SimConfig(dt=0.01, horizon=5.0)
        x0 = np.array([1.0, 0.5])
        delta = np.array([[0.1]])
        gain, scalar = Nonlinearity.gain([[-0.4]]), Nonlinearity.scalar(lambda y: -0.4 * y)
        gain_states = reference_run(sys, gain, pert, delta, cfg, x0)[0]
        fn_states = reference_run(sys, scalar, pert, delta, cfg, x0)[0]
        assert np.abs(gain_states - fn_states).max() < 1e-9
        # the gain block jumps and the scalar one steps
        (jumped,) = sim.simulate_lure(sys, gain, pert, delta, cfg, x0).columns
        (stepped,) = sim.simulate_lure(sys, scalar, pert, delta, cfg, x0).columns
        assert jumped.final_peak == pytest.approx(stepped.final_peak, rel=1e-9)

    def test_delta_shape_validated(self):
        sys = two_state_system()
        with pytest.raises(DimensionMismatchError):
            sim.simulate_lure(
                sys, ZERO_PHI, identity_pert(2), np.zeros((1, 1)), SimConfig(), np.array([1.0, 1.0])
            )

    def test_positivity_preserved_for_certified_loop(self, example_b):
        phi = example_b.loop_nonlinearity()
        cfg = SimConfig(dt=0.005, horizon=10.0)
        x0 = np.array([0.3, 0.8, 0.1])
        states = reference_run(example_b.system, phi, example_b.pert, [[1.0]], cfg, x0)[0]
        assert states.min() >= -1e-6

    def test_one_delta_and_one_state_make_a_one_column_block(self, example_a):
        phi = sim.BUILTIN_NONLINEARITIES["cubic_sine"].phi
        args = (example_a.system, phi, example_a.pert)
        cfg = SimConfig(dt=0.02, horizon=5.0)
        x0 = np.array([0.3, 0.8, 0.1])
        block = sim.simulate_lure(*args, [[0.4]], cfg, x0)
        assert isinstance(block, sim.TrajectoryBlock) and len(block.columns) == 1
        assert block == sim.simulate_lure(*args, np.array([[[0.4]]]), cfg, x0[None])

    def test_initial_state_needs_n_finite_entries(self):
        sys = two_state_system()
        args = (sys, ZERO_PHI, identity_pert(2), np.zeros((2, 2)), SimConfig())
        with pytest.raises(DimensionMismatchError):
            sim.simulate_lure(*args, np.array([1.0]))
        with pytest.raises(InputError, match="x0 must be finite"):
            sim.simulate_lure(*args, np.array([1.0, np.inf]))


# one-state loops whose first step overflows: with A = 1e200 the gain loop's
# step matrix is inf, with A = -1e200 its Taylor terms add to inf - inf = NaN.
# The same plants closed by phi = 0 take the RK4 stages, whose stage matrices
# overflow the same way: A = 1e200 blows up at the first step as the gain loop
# does, and A = -1e200 raises at it as the gain loop does.
GAIN_INF = (LtiSystem(a=[[1e200]], b=[[0.0]], c=[[1.0]]), Nonlinearity.gain([[0.0]]))
GAIN_NAN = (LtiSystem(a=[[-1e200]], b=[[0.0]], c=[[1.0]]), Nonlinearity.gain([[0.0]]))
STAGES_OVERFLOW_INF = (GAIN_INF[0], ZERO_PHI)
STAGES_OVERFLOW_NAN = (GAIN_NAN[0], ZERO_PHI)
STAGES_INF = (
    LtiSystem(a=[[1.0]], b=[[1.0]], c=[[1.0]]),
    Nonlinearity.scalar(lambda y: np.inf if y > 0.5 else 0.0),
)


class TestBlowupRule:
    """The gain loop's step matrix and the RK4 stages share one halting rule."""

    def test_growing_gain_loop_halts_at_the_bound(self):
        sys = LtiSystem(a=[[0.5]], b=[[1.0]], c=[[1.0]])
        cfg = SimConfig(dt=0.01, horizon=100.0)
        phi = Nonlinearity.gain([[1.0]])
        block = sim.simulate_lure(sys, phi, scalar_pert(1), [[0.0]], cfg, np.array([1.0]))
        (column,) = block.columns
        states, stepped = reference_run(sys, phi, scalar_pert(1), [[0.0]], cfg, [1.0])
        # x = exp(1.5 t) crosses 1e9 near t = 13.8
        assert column.blowup_time == stepped.blowup_time == pytest.approx(block.times[-1])
        assert 13.0 < column.blowup_time < 15.0
        assert column.final_peak == pytest.approx(stepped.final_peak, rel=1e-9)
        assert np.abs(states[-1]).max() > sim.BLOWUP_BOUND
        assert np.abs(states[-2]).max() <= sim.BLOWUP_BOUND
        verdict = sim.classify_stability(column)
        assert verdict.label == "Unstable"
        assert verdict.blowup_time == column.blowup_time

    @pytest.mark.parametrize("phi", [Nonlinearity.gain([[0.0]]), ZERO_PHI], ids=["gain", "stages"])
    def test_halting_looks_at_entries_not_at_the_state_norm(self, phi):
        # the state's 2-norm exceeds the bound and no entry does; from the
        # bound on, an entry halts its column at the step it crosses
        sys = LtiSystem(a=[[0.0, 0.0], [0.0, 1e-4]], b=[[0.0], [0.0]], c=[[1.0, 0.0]])
        cfg = SimConfig(dt=0.5, horizon=4.0)
        x0 = [[8e8, 8e8], [8e8, 0.99995e9]]
        block = sim.simulate_lure(sys, phi, identity_pert(2), np.zeros((1, 2, 2)), cfg, x0)
        assert block.columns[0].blowup_time is None
        assert block.columns[0].final_peak == pytest.approx(8e8 * math.exp(4e-4))
        assert block.columns[1].blowup_time == 1.0

    @pytest.mark.parametrize("loop", [GAIN_INF, STAGES_INF, STAGES_OVERFLOW_INF],
                             ids=["gain", "stages", "stages_overflow"])
    def test_infinite_state_is_a_blowup(self, loop):
        sys, phi = loop
        cfg = SimConfig(dt=0.01, horizon=1.0)
        (column,) = sim.simulate_lure(sys, phi, scalar_pert(1), [[0.0]], cfg, np.array([1.0])).columns
        assert column.blowup_time == pytest.approx(0.01)
        assert column.final_peak == math.inf
        assert sim.classify_stability(column).label == "Unstable"

    def test_nan_state_raises_on_the_gain_path(self):
        # the staged path's case is TestSimulate::test_nan_from_nonlinearity_is_reported_distinctly
        sys, phi = GAIN_NAN
        cfg = SimConfig(dt=0.01, horizon=1.0)
        with pytest.raises(NonFiniteStateError, match="NaN"):
            sim.simulate_lure(sys, phi, scalar_pert(1), [[0.0]], cfg, np.array([1.0]))

    def test_overflowing_stage_matrices_raise_as_the_gain_loop_does(self):
        cfg = SimConfig(dt=0.01, horizon=1.0)
        messages = []
        for sys, phi in (GAIN_NAN, STAGES_OVERFLOW_NAN):
            with pytest.raises(NonFiniteStateError) as exc:
                sim.simulate_lure(sys, phi, scalar_pert(1), [[0.0]], cfg, np.array([1.0]))
            messages.append(str(exc.value))
        assert messages == ["state became NaN at t = 0.01"] * 2

    @pytest.mark.parametrize("delta", [1e308, -1e308])
    @pytest.mark.parametrize("phi", [Nonlinearity.gain([[0.0]]), ZERO_PHI], ids=["gain", "stages"])
    def test_overflowing_drift_blows_up_at_the_first_step(self, phi, delta):
        # A + D delta E = -1 + 4 delta overflows to +-inf; at -inf the step's
        # Taylor terms meet as inf - inf = NaN, so the drift, not the state, decides
        sys = LtiSystem(a=[[-1.0]], b=[[1.0]], c=[[1.0]])
        pert = PerturbationStructure(d=[[2.0]], e=[[2.0]])
        cfg = SimConfig(dt=0.1, horizon=1.0)
        deltas, x0s = np.array([[[0.5]], [[delta]]]), np.array([[1.0], [2.0]])
        block = sim.simulate_lure(sys, phi, pert, deltas, cfg, x0s)
        finite, overflowed = block.columns[:2], block.columns[2:]
        assert [(c.blowup_time, c.final_peak) for c in overflowed] == [(0.1, math.inf)] * 2
        assert [sim.classify_stability(c).label for c in overflowed] == ["Unstable"] * 2
        alone = sim.simulate_lure(sys, phi, pert, deltas[:1], cfg, x0s).columns
        assert finite == alone
        assert block.last == 10

    @pytest.mark.parametrize("w_1, w_out", [(-1.0, 1e200), (-1e200, 1.0)],
                             ids=["output_weight", "first_weight"])
    def test_huge_weights_around_a_zero_activation_stay_finite(self, w_1, w_out):
        # B W_out, or W_1 C B W_out, would overflow, but relu(W_1 y) stays 0
        # on this decaying state, so the loop runs as its linear part alone;
        # the block jumps by the gain loop of the network's orthant matrix 0
        net = Ffnn((Layer([[w_1]], [0.0]),), Layer([[w_out]], [0.0]), RELU)
        sys = LtiSystem(a=[[-1.0]], b=[[1e200]], c=[[1.0]])
        cfg = SimConfig(dt=0.01, horizon=1.0)
        phi = Nonlinearity.network(net)
        states, stepped = reference_run(sys, phi, scalar_pert(1), [[0.0]], cfg, [1.0])
        linear = reference_run(sys, ZERO_PHI, scalar_pert(1), [[0.0]], cfg, [1.0])[0]
        assert stepped.blowup_time is None
        assert np.isfinite(states).all()
        assert np.array_equal(states, linear)
        (column,) = sim.simulate_lure(sys, phi, scalar_pert(1), [[0.0]], cfg, np.array([1.0])).columns
        assert column.blowup_time is None
        assert column.final_peak == pytest.approx(stepped.final_peak, rel=1e-9)

    @pytest.mark.parametrize("loop", [GAIN_INF, GAIN_NAN, STAGES_OVERFLOW_INF, STAGES_OVERFLOW_NAN],
                             ids=["gain_inf", "gain_nan", "stages_inf", "stages_nan"])
    def test_overflowing_matrices_do_not_warn(self, loop):
        # the overflow shows in the state at the first step, and only there
        sys, phi = loop
        cfg = SimConfig(dt=0.01, horizon=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                sim.simulate_lure(sys, phi, scalar_pert(1), [[0.0]], cfg, np.array([1.0]))
            except NonFiniteStateError:
                pass


class TestClassify:
    def _column(self, factor, x0=(1.0, 1.0)):
        """The one column of ``x' = factor x`` from ``x0`` over 10 time units."""
        sys = LtiSystem(a=factor * np.eye(2), b=[[0.0], [0.0]], c=[[1.0, 0.0]])
        block = sim.simulate_lure(sys, Nonlinearity.gain([[0.0]]), identity_pert(2), np.zeros((2, 2)),
                                  SimConfig(dt=0.2, horizon=10.0), np.array(x0))
        return block.columns[0]

    def test_decaying(self):
        assert sim.classify_stability(self._column(-1.0)).label == "Stable"

    def test_growing(self):
        assert sim.classify_stability(self._column(1.0)).label == "Unstable"

    def test_constant_is_inconclusive(self):
        verdict = sim.classify_stability(self._column(0.0))
        assert verdict.label == "Inconclusive"
        assert verdict.decay_ratio == pytest.approx(1.0)

    def test_rate_of_a_state_that_underflowed_or_blew_up_to_inf(self):
        # x' = -100 x decays to exactly 0 within the horizon: Stable at rate
        # -inf, not a log of 0; a state that blew up to inf is Unstable at
        # rate +inf, not NaN
        decaying = (LtiSystem(a=[[-100.0]], b=[[0.0]], c=[[1.0]]), Nonlinearity.gain([[0.0]]))
        cases = [(decaying, 20.0, "Stable", -math.inf), (GAIN_INF, 1.0, "Unstable", math.inf)]
        for (sys, phi), horizon, label, rate in cases:
            cfg = SimConfig(dt=0.01, horizon=horizon)
            (column,) = sim.simulate_lure(sys, phi, scalar_pert(1), [[0.0]], cfg, np.array([1.0])).columns
            assert column.final_peak in (0.0, math.inf)
            verdict = sim.classify_stability(column)
            assert (verdict.label, verdict.rate) == (label, rate)

    def test_zero_initial_state_rejected(self):
        with pytest.raises(ZeroInitialStateError):
            sim.classify_stability(self._column(-1.0, x0=(0.0, 0.0)))


class TestRk4Order:
    def test_error_drops_at_fourth_order(self):
        a = np.array([[-1.0, 2.0], [0.0, -3.0]])
        sys = two_state_system(a)
        x0 = np.array([1.0, 1.0])
        horizon = 2.0

        def max_error(dt):
            cfg = SimConfig(dt=dt, horizon=horizon)
            states = reference_run(sys, ZERO_PHI, identity_pert(2), np.zeros((2, 2)), cfg, x0)[0]
            exact = np.stack([scipy.linalg.expm(a * k * dt) @ x0 for k in range(len(states))])
            return np.abs(states - exact).max()

        coarse = max_error(1e-2)
        fine = max_error(5e-3)
        assert coarse / fine >= 8.0


class TestRk4Positivity:
    """RK4's step matrix ``P = _taylor4(dt M)`` of a Metzler M is ``>= 0``,
    with spectral radius ``p(alpha(dt M))`` for RK4's stability polynomial
    p, whenever ``dt s <= DT_S_BOUND`` for ``s = max(0, -min_i M_ii)``.  P is
    a polynomial q in ``N = dt M + dt s I >= 0`` whose coefficients, the
    Taylor polynomials of exp of degrees 4 to 0 at ``-dt s``, are ``>= 0``
    there, so ``rho(P) = q(rho(N))`` (ROADMAP item 14)."""

    DT_S_BOUND = 1.0

    @staticmethod
    def rk4_polynomial(x):
        return 1.0 + x + x**2 / 2.0 + x**3 / 6.0 + x**4 / 24.0

    def test_random_metzler_steps(self):
        # Metzler loops with their abscissa within 0.05 of 0, dt s uniform in (0.05, DT_S_BOUND]
        from generators import random_metzler

        rng = np.random.default_rng(14)
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            m = random_metzler(rng, n)
            m -= (spectral_abscissa(m) - rng.uniform(-0.05, 0.05)) * np.eye(n)
            s = max(0.0, -m.diagonal().min())
            dt = (self.DT_S_BOUND - rng.uniform(0.0, self.DT_S_BOUND - 0.05)) / s
            p = sim._taylor4(dt * m)
            assert (p >= 0).all()
            rho = np.abs(np.linalg.eigvals(p)).max()
            assert rho == pytest.approx(self.rk4_polynomial(dt * spectral_abscissa(m)), rel=1e-12)

    @pytest.mark.parametrize("dt", [0.5, 1.0, 1.5, 2.0])
    def test_bound_is_tight_on_a_chain(self, dt):
        # M = -I plus ones on the superdiagonal, so s = 1 and P = q(dt J) for
        # the shift J: P[0, 3] is q's cubic coefficient (1 - dt) / 6 times
        # dt^3, 0 at dt = 1 and -0.28125 at dt = 1.5
        m = np.eye(4, k=1) - np.eye(4)
        p = sim._taylor4(dt * m)
        assert p[0, 3] == pytest.approx((1.0 - dt) * dt**3 / 6.0, rel=1e-15, abs=0.0)
        assert (p >= 0).all() == (dt <= self.DT_S_BOUND)

    def test_positive_dt_of_the_fixtures(self, example_a, example_b):
        # example_a's worst diagonal entry is A's -7 plus B (-2) C's -2, less
        # D E's 1.25 delta at the smallest delta; example_b's is A's -8.7 plus
        # 0.4 of the lower edge -0.91
        loops = [
            (example_a, [0.0, 2.0], 1.0 / 9.0),
            (example_a, [0.26, 0.2, 0.4], 1.0 / 8.75),
            (example_b, [1.0, 2.24], 1.0 / 9.064),
        ]
        for problem, deltas, bound in loops:
            sys, pert, sector = problem.system, problem.pert, problem.analysis_sector
            dt = sim.rk4_positive_dt(sys, pert, (sector.lower, sector.upper), deltas)
            assert dt == pytest.approx(bound, rel=1e-12)
        # example_b's four loops are Metzler, so each steps by a matrix >= 0 at the bound
        sys, pert, sector = example_b.system, example_b.pert, example_b.analysis_sector
        for k in (sector.lower, sector.upper):
            for delta in (1.0, 2.24):
                m = sys.a + delta * pert.d @ pert.e + sys.b @ k @ sys.c
                assert (sim._taylor4(dt * m) >= 0).all()

    def test_positive_dt_without_a_negative_diagonal_or_a_delta(self, example_b):
        sys, pert, sector = example_b.system, example_b.pert, example_b.analysis_sector
        edges = (sector.lower, sector.upper)
        assert sim.rk4_positive_dt(sys, pert, edges, []) == math.inf
        # delta 20 lifts A[0, 0] to 15, but A[2, 2] still bounds dt
        dt = sim.rk4_positive_dt(sys, pert, edges, [0.0, 20.0])
        assert dt == pytest.approx(1.0 / 9.064, rel=1e-12)
        growing = LtiSystem(a=[[1.0]], b=[[1.0]], c=[[1.0]])
        assert sim.rk4_positive_dt(growing, scalar_pert(1), [np.eye(1)], [0.0, 1.0]) == math.inf


class TestFindCriticalDelta:
    def test_linear_gain_matches_analytic_radius(self, example_a):
        sector = example_a.analysis_sector
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


    @pytest.mark.parametrize("tol", [np.nan, 0.0, -0.1])
    def test_tol_must_be_positive(self, tol):
        with pytest.raises(InputError, match="tol must be positive"):
            sim.find_critical_delta(two_state_system(), ZERO_PHI, identity_pert(2), tol=tol)

    @pytest.mark.parametrize("delta_max", [np.nan, np.inf, 0.0, -1.0])
    def test_delta_max_must_be_positive_and_finite(self, delta_max):
        with pytest.raises(InputError, match="delta_max must be positive and finite"):
            sim.find_critical_delta(
                two_state_system(), ZERO_PHI, identity_pert(2), delta_max=delta_max
            )

    def test_zero_trials_is_input_error(self):
        # no trial can go unstable, so a search without one finds nothing to report
        cfg = SimConfig(dt=0.05, horizon=1.0)
        with mock.patch.object(sim, "simulate_lure") as simulate:
            with pytest.raises(InputError, match="needs at least one trial; got trials=0"):
                sim.find_critical_delta(
                    two_state_system(), ZERO_PHI, identity_pert(2), cfg=cfg, trials=0
                )
        assert not simulate.called


def any_unstable_alone(sys, phi, pert, delta, cfg, trials, seed):
    """Whether the one-column run of some trial is Unstable at ``delta``."""
    x0s = np.random.default_rng(seed).uniform(0.0, 1.0, size=(trials, sys.n))
    ones = np.ones((pert.k1, pert.k2))
    direction = ones / operator_norm(ones, pert.norm)
    return any(
        sim.classify_stability(
            sim.simulate_lure(sys, phi, pert, delta * direction, cfg, x0).columns[0]
        ).label == "Unstable"
        for x0 in x0s
    )


def reference_search(sys, phi, pert, delta_max, tol, cfg, trials, seed):
    """Plain sequential bisection, one one-column run per (delta, trial)."""

    def any_unstable(delta):
        return any_unstable_alone(sys, phi, pert, delta, cfg, trials, seed)

    assert not any_unstable(0.0)
    lo, hi = 0.0, None
    for j in range(sim.GEOMETRIC_LEVELS, -1, -1):
        if any_unstable(delta_max * 2.0**-j):
            hi = delta_max * 2.0**-j
            break
        lo = delta_max * 2.0**-j
    assert hi is not None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if any_unstable(mid):
            hi = mid
        else:
            lo = mid
    return sim.CriticalDelta(delta_star=0.5 * (lo + hi), bracket=(lo, hi))


def random_gain_loop():
    """TestFormulaConsistency's seeded loop, closed by its upper gain."""
    from generators import random_metzler_hurwitz

    a = random_metzler_hurwitz(np.random.default_rng(42), 3)
    sys = LtiSystem(a=a, b=np.ones((3, 1)), c=np.ones((1, 3)))
    return sys, Nonlinearity.gain([[0.0]]), scalar_pert(3)


class TestSpeculativeBisection:
    """A search that bisects reproduces plain bisection exactly; a predicted
    search keeps the bracket's meaning."""

    @pytest.mark.parametrize(
        "case", ["network", "cubic_sine", "cubic_sine, one trial", "random_gain"]
    )
    def test_same_result_as_sequential_bisection(self, case, example_a, example_b):
        cfg, trials, seed = SimConfig(dt=0.02, horizon=10.0), 2, 7
        if case == "network":
            loop = (example_b.system, example_b.loop_nonlinearity(), example_b.pert)
            delta_max, tol = 4.0, 0.01
        elif case == "cubic_sine":
            phi = sim.BUILTIN_NONLINEARITIES["cubic_sine"].phi
            loop = (example_a.system, phi, example_a.pert)
            delta_max, tol = 2.0, 0.005
        elif case == "cubic_sine, one trial":  # the benchmark's search
            phi = sim.BUILTIN_NONLINEARITIES["cubic_sine"].phi
            loop = (example_a.system, phi, example_a.pert)
            delta_max, tol = 2.0, 0.01
            cfg, trials, seed = SimConfig(dt=0.02, horizon=20.0), 1, sim.DEFAULT_SEED
        else:
            loop = random_gain_loop()
            delta_max, tol = 2.0, 0.003
        found = sim.find_critical_delta(
            *loop, delta_max=delta_max, tol=tol, cfg=cfg, trials=trials, seed=seed
        )
        if case.startswith("cubic_sine"):
            # its level rates do not rise, so the search bisects
            assert found == reference_search(*loop, delta_max, tol, cfg, trials, seed)
            if trials == 1:
                assert found.bracket == (1.125, 1.1328125)
            return
        # the search predicted the crossing; one-column runs confirm the bracket
        lo, hi = found.bracket
        assert type(lo) is float and type(hi) is float
        assert 0.0 < hi - lo <= tol and lo <= found.delta_star <= hi
        assert not any_unstable_alone(*loop, lo, cfg, trials, seed)
        assert any_unstable_alone(*loop, hi, cfg, trials, seed)

    def test_midpoints_are_the_bisection_tree(self):
        assert sim._midpoints(0.0, 8.0, 0.5, 3) == [4.0, 2.0, 1.0, 3.0, 6.0, 5.0, 7.0]
        assert sim._midpoints(0.0, 8.0, 3.0, 3) == [4.0, 2.0, 6.0]
        assert sim._midpoints(0.0, 8.0, 8.0, 3) == []

    def test_stops_once_the_bracket_ends_are_adjacent_floats(self):
        # below the bracket's float spacing no midpoint lies strictly inside
        # it, also for the smallest subnormal tol, whose step count must not
        # overflow; the search runs in a subprocess so that a regression
        # fails within the timeout instead of hanging the suite
        script = textwrap.dedent("""
            import numpy as np
            from lurestab import sim
            from lurestab.radius import LtiSystem, PerturbationStructure
            sys = LtiSystem(a=[[-1.0]], b=[[1.0]], c=[[1.0]])
            pert = PerturbationStructure(d=[[1.0]], e=[[1.0]])
            cfg = sim.SimConfig(dt=0.1, horizon=5.0)
            phi = sim.Nonlinearity.gain([[0.0]])
            for tol in (1e-17, 5e-324):
                lo, hi = sim.find_critical_delta(
                    sys, phi, pert, delta_max=4.0, tol=tol, cfg=cfg, trials=1
                ).bracket
                print(lo < hi == np.nextafter(lo, np.inf))
        """)
        src = str(Path(sim.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert done.stdout == "True\nTrue\n", done.stderr

    @pytest.mark.parametrize(
        "case, deltas",
        [
            ("network, one trial", [10, 5]),
            ("network, two trials", [10, 5]),
            ("gain, one trial", [10, 5]),
            ("cubic_sine, one trial", [10, 7, 3, 3]),
        ],
    )
    def test_search_block_widths(self, case, deltas, example_a, example_b, monkeypatch):
        # delta 0 and the 9 levels, then five probes around the predicted
        # crossing, which bracket it within tol.  cubic_sine's level rates
        # do not rise, so it bisects its 7 steps in blocks of depth 3, 2, 2
        if case.startswith("network"):
            loop = (example_b.system, example_b.loop_nonlinearity(), example_b.pert)
            delta_max, tol = 4.0, 0.01
        elif case.startswith("cubic_sine"):
            loop = (example_a.system, sim.BUILTIN_NONLINEARITIES["cubic_sine"].phi,
                    example_a.pert)
            delta_max, tol = 2.0, 0.01
        else:
            loop = (example_a.system, Nonlinearity.gain(example_a.analysis_sector.upper),
                    example_a.pert)
            delta_max, tol = 1.0, 0.001
        trials = 2 if case.endswith("two trials") else 1
        widths = []
        simulate = sim.simulate_lure

        def counted(sys, phi, pert, delta, cfg, x0):
            widths.append(len(delta))
            return simulate(sys, phi, pert, delta, cfg, x0)

        monkeypatch.setattr(sim, "simulate_lure", counted)
        sim.find_critical_delta(
            *loop, delta_max=delta_max, tol=tol, cfg=SimConfig(dt=0.02, horizon=20.0),
            trials=trials,
        )
        assert widths == deltas

    def test_block_depth_splits_the_steps_left_evenly(self):
        # 8 steps 3 + 3 + 2; 7: 3, then 2 + 2 (a fixed depth 3 took 3 + 3 + 1);
        # 4: 2 + 2; a subnormal tol's 1076 steps: 359 blocks of at most 3
        assert sim._block_depth(2.0, 4.0, 0.01) == 3
        assert sim._block_depth(0.0, 128.0, 1.0) == 3
        assert sim._block_depth(0.0, 16.0, 1.0) == 2
        assert sim._block_depth(0.0, 4.0, 5e-324) == 3


def assert_columns_match_reference(sys, phi, pert, deltas, cfg, x0s, jumps=None):
    """Every block column matches its ``reference_run``.

    A column that steps equals the reference bit for bit.  A column that
    jumps by powers of a step matrix (a gain loop, or a network loop whose
    stages stay in the orthant) equals its run as a one-column block bit
    for bit, and the reference in its blow-up time and verdict, with its
    final peak to 1e-9 relative and its rate to 1e-12.  ``jumps``, where
    given, is whether some column must jump, checked last.
    """
    with mock.patch.object(sim, "_powered_block", wraps=sim._powered_block) as powered:
        block = sim.simulate_lure(sys, phi, pert, np.array(deltas, dtype=float), cfg, x0s)
    # (delta, state) pairs that jumped: _powered_block takes the deltas' step
    # matrices and the grid of their jumping columns i * T + t
    jumped = {divmod(col, len(x0s)) for call in powered.call_args_list
              for col in call.args[1].ravel().tolist()}
    assert len(block.columns) == len(deltas) * len(x0s)
    for i, delta in enumerate(deltas):
        for t, x0 in enumerate(x0s):
            reference = reference_run(sys, phi, pert, delta, cfg, x0)[1]
            column = block.columns[i * len(x0s) + t]
            if (i, t) not in jumped:
                assert column == reference
                continue
            alone = sim.simulate_lure(
                sys, phi, pert, np.array([delta], dtype=float), cfg, x0[None]
            ).columns
            assert alone == (column,)
            verdict, stepped = sim.classify_stability(column), sim.classify_stability(reference)
            assert column.initial_peak == reference.initial_peak
            assert column.blowup_time == reference.blowup_time
            assert column.final_peak == pytest.approx(reference.final_peak, rel=1e-9, abs=0.0)
            assert (verdict.label, verdict.blowup_time) == (stepped.label, stepped.blowup_time)
            if math.isfinite(reference.rate):
                assert abs(column.rate - reference.rate) <= 1e-12
            else:
                assert column.rate == reference.rate
    if jumps is not None:
        assert bool(jumped) == jumps
    return block


def count_phi_calls(monkeypatch) -> list:
    """Count every ``Nonlinearity.__call__``, as the benchmark's tracer does;
    returns the list that each call appends its input's shape to."""
    calls, call = [], Nonlinearity.__call__
    monkeypatch.setattr(
        Nonlinearity, "__call__", lambda phi, y: calls.append(y.shape) or call(phi, y)
    )
    return calls


def count_state_products(monkeypatch) -> list:
    """Count every ``np.matmul`` of jumping states, a ``(rows, states, n,
    1)`` stack or one column's ``(n, 1)`` state; returns the list that each
    product appends the states' shape to."""
    products, matmul = [], np.matmul

    def counted(a, b, *args, **kwargs):
        if np.ndim(b) in (2, 4) and np.shape(b)[-1] == 1:
            products.append(np.shape(b))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    return products


# x' = (1 + delta) x: at delta = 0 the state crosses the blowup bound near
# t = 20.7, and at delta = -3 it decays
GROWING_GAIN = (LtiSystem(a=[[-1.0]], b=[[1.0]], c=[[1.0]]), Nonlinearity.gain([[2.0]]))
GROWING_STAGES = (
    LtiSystem(a=[[-1.0]], b=[[1.0]], c=[[1.0]]),
    Nonlinearity.scalar(lambda y: 2.0 * y, name="double"),
)


class TestBlockEngine:
    """One RK4 block for many (delta, initial state) columns."""

    def test_gain_loop_columns(self, example_a):
        # a gain loop's columns jump from any state, one with a negative entry too
        phi = Nonlinearity.gain(example_a.analysis_sector.upper)
        x0s = np.random.default_rng(1).uniform(0.0, 1.0, size=(3, 3))
        signed = x0s.copy()
        signed[1, 0] = -0.6
        cfg = SimConfig(dt=0.01, horizon=40.0)
        for states in (x0s, signed):
            block = assert_columns_match_reference(
                example_a.system, phi, example_a.pert, [[[0.2]], [[0.26]], [[0.4]]], cfg, states,
                jumps=True,
            )
            assert [c.blowup_time is None for c in block.columns] == [True] * 6 + [False] * 3

    @pytest.mark.parametrize("case", ["orthant", "negative_state", "coarse_dt", "mixed_dt"])
    def test_network_columns(self, case, example_b):
        # from nonnegative states example_b's stages stay in the orthant and
        # its columns jump; a column from a state with a negative entry steps
        # beside its delta's jumping ones, and at a dt whose W = [R; P] has a
        # negative entry for every delta, every column steps; at dt 0.195, W
        # is nonnegative for delta 4 alone, so delta 4 jumps and delta 0 steps
        x0s = np.random.default_rng(2).uniform(0.0, 1.0, size=(2, 3))
        dt = {"coarse_dt": 0.5, "mixed_dt": 0.195}.get(case, 0.02)
        deltas = [[[0.0]], [[4.0]]] if case == "mixed_dt" else [[[1.0]], [[2.04]], [[3.0]]]
        if case == "negative_state":
            x0s[1, 1] = -0.8
        assert_columns_match_reference(
            example_b.system, example_b.loop_nonlinearity(), example_b.pert,
            deltas, SimConfig(dt=dt, horizon=20.0), x0s, jumps=case != "coarse_dt",
        )

    def test_mixed_sweep_rows_are_their_deltas_swept_alone(self, example_b):
        cfg = SimConfig(dt=0.195)
        args = (example_b.system, example_b.loop_nonlinearity(), example_b.pert)
        rows = sim.sweep(*args, [0.0, 4.0], cfg, trials=2, seed=42)
        alone = [row for delta in (0.0, 4.0) for row in sim.sweep(*args, [delta], cfg, trials=2, seed=42)]
        assert rows == alone

    @pytest.mark.parametrize("net", sorted(STEPPING_NETS))
    def test_stepping_network_columns(self, net):
        x0s = np.random.default_rng(4).uniform(-1.0, 1.0, size=(2, 3))
        cfg = SimConfig(dt=0.05, horizon=10.0)
        assert_columns_match_reference(
            MIMO_SYSTEM, Nonlinearity.network(STEPPING_NETS[net]), identity_pert(3),
            [np.full((3, 3), d) for d in (0.0, 0.3, 1.0)], cfg, x0s,
        )

    @pytest.mark.parametrize("net", sorted(STEPPING_NETS))
    def test_network_block_evaluates_the_network_four_times_a_step(self, net, monkeypatch):
        # the shape check evaluates the network once, and each RK4 stage
        # once over all the block's columns, each through Nonlinearity.__call__
        evals = []
        evaluate = sim.ffnn_eval
        monkeypatch.setattr(sim, "ffnn_eval", lambda n, y: evals.append(y.shape) or evaluate(n, y))
        calls = count_phi_calls(monkeypatch)
        phi = Nonlinearity.network(STEPPING_NETS[net])
        cfg = SimConfig(dt=0.05, horizon=1.0)
        sim.simulate_lure(MIMO_SYSTEM, phi, identity_pert(3), np.zeros((2, 3, 3)), cfg, np.ones((3, 3)))
        assert evals == [(1, 2, 1)] + [(6, 2, 1)] * 4 * 20
        assert len(calls) == 81

    @pytest.mark.parametrize("deltas", [[0.2], [0.2, 0.4, 1.0]])
    def test_scalar_block_calls_phi_four_times_a_step(self, deltas, example_a, monkeypatch):
        # 50 steps, none of which settles or blows up a column: the shape
        # check's call and one call per stage over all the block's columns
        calls = count_phi_calls(monkeypatch)
        phi = sim.BUILTIN_NONLINEARITIES["cubic_sine"].phi
        block = sim.simulate_lure(
            example_a.system, phi, example_a.pert, np.array(deltas)[:, None, None],
            SimConfig(dt=0.02, horizon=1.0), np.full(3, 0.5),
        )
        assert block.last == 50 and all(c.blowup_time is None for c in block.columns)
        assert len(calls) == 1 + 4 * 50

    def test_cubic_sine_columns(self, example_a):
        phi = sim.BUILTIN_NONLINEARITIES["cubic_sine"].phi
        x0s = np.random.default_rng(3).uniform(0.0, 1.0, size=(3, 3))
        cfg = SimConfig(dt=0.02, horizon=20.0)
        assert_columns_match_reference(
            example_a.system, phi, example_a.pert, [[[0.2]], [[0.4]], [[2.0]]], cfg, x0s
        )

    def test_gain_loop_rate_is_the_step_matrix_growth(self, example_a):
        # the second half of a gain loop's run grows by the step matrix's
        # spectral radius per step
        k = example_a.analysis_sector.upper
        phi = Nonlinearity.gain(k)
        sys, pert = example_a.system, example_a.pert
        cfg = SimConfig(dt=0.01, horizon=40.0)
        deltas = [0.0, 0.2, 0.2596, 0.3]
        x0s = np.random.default_rng(4).uniform(0.0, 1.0, size=(2, 3))
        block = sim.simulate_lure(sys, phi, pert, np.array(deltas)[:, None, None], cfg, x0s)
        for i, delta in enumerate(deltas):
            h = cfg.dt * (sys.a + sys.b @ k @ sys.c + delta * pert.d @ pert.e)
            step = np.eye(3) + h + h @ h / 2 + h @ h @ h / 6 + h @ h @ h @ h / 24
            growth = math.log(np.abs(np.linalg.eigvals(step)).max()) / cfg.dt
            for column in block.columns[2 * i : 2 * i + 2]:
                assert column.blowup_time is None
                assert column.rate == pytest.approx(growth, abs=sim.RES)

    @pytest.mark.parametrize("loop", [GROWING_GAIN, GROWING_STAGES], ids=["gain", "stages"])
    def test_column_blows_up_mid_run_beside_stable_columns(self, loop):
        sys, phi = loop
        cfg = SimConfig(dt=0.02, horizon=30.0)
        x0s = np.array([[1.0], [0.5]])
        block = assert_columns_match_reference(
            sys, phi, scalar_pert(1), [[[-3.0]], [[0.0]], [[-2.5]]], cfg, x0s
        )
        blowups = [c.blowup_time for c in block.columns]
        assert blowups[0] is None and blowups[1] is None and blowups[4:] == [None, None]
        assert 20.0 < blowups[2] < blowups[3] < 22.0
        assert block.times[-1] == pytest.approx(30.0)

    @pytest.mark.parametrize("loop", [GROWING_GAIN, GROWING_STAGES], ids=["gain", "stages"])
    def test_block_ends_when_every_column_blew_up(self, loop):
        sys, phi = loop
        cfg = SimConfig(dt=0.01, horizon=30.0)
        block = sim.simulate_lure(
            sys, phi, scalar_pert(1), np.array([[[0.0]], [[0.5]]]), cfg, np.array([[1.0]])
        )
        last = max(c.blowup_time for c in block.columns)
        assert last < 30.0
        assert block.times[-1] == pytest.approx(last)

    @pytest.mark.parametrize("dt", [0.02, 0.01, 0.005])
    def test_gain_crossing_inside_a_jump_is_found_by_single_steps(self, dt):
        # from t = 15 the powers would jump past t = 20.7, where x' = x
        # crosses the bound; the jump rule steps singly there instead
        sys, phi = GROWING_GAIN
        cfg = SimConfig(dt=dt, horizon=30.0)
        x0s = np.array([[1.0], [0.5], [0.3]])
        block = assert_columns_match_reference(sys, phi, scalar_pert(1), [[[0.0]]], cfg, x0s)
        blowups = [c.blowup_time for c in block.columns]
        assert all(20.0 < t < 22.0 for t in blowups)
        assert all(type(t) is float for t in blowups)

    def test_gain_transient_peak_inside_a_jump(self):
        # x_1 = 100 t e^-t x_2(0) peaks near 36.8 x_2(0) at t = 1 and decays
        # after: a jump whose end state lies far below the bound would pass
        # over the peak, so the bound covers every power up to the jump's
        sys = LtiSystem(a=[[-1.0, 100.0], [0.0, -1.0]], b=[[0.0], [0.0]], c=[[1.0, 0.0]])
        cfg = SimConfig(dt=0.01, horizon=20.0)
        x0s = np.array([[0.0, 3e7], [0.0, 2e7]])
        block = assert_columns_match_reference(
            sys, Nonlinearity.gain([[0.0]]), scalar_pert(2), [[[0.0]]], cfg, x0s
        )
        assert block.columns[0].blowup_time is not None and block.columns[0].blowup_time < 1.0
        assert block.columns[1].blowup_time is None

    def test_infinite_step_matrix_blows_up_or_raises_as_stepping_does(self):
        # GAIN_INF's step matrix is inf, so stepping blows up at the first
        # step; GAIN_NAN's is NaN, so stepping raises there
        cfg = SimConfig(dt=0.01, horizon=1.0)
        sys, phi = GAIN_INF
        stepped = reference_run(sys, phi, scalar_pert(1), [[0.0]], cfg, [1.0])[1]
        block = assert_columns_match_reference(
            sys, phi, scalar_pert(1), [[[0.0]]], cfg, np.array([[1.0], [2.0]])
        )
        assert [c.blowup_time for c in block.columns] == [stepped.blowup_time] * 2 == [0.01] * 2
        sys, phi = GAIN_NAN
        with pytest.raises(NonFiniteStateError) as stepped:
            reference_run(sys, phi, scalar_pert(1), [[0.0]], cfg, [1.0])
        with pytest.raises(NonFiniteStateError) as jumped:
            sim.simulate_lure(sys, phi, scalar_pert(1), np.zeros((1, 1, 1)), cfg, [[1.0]])
        assert str(jumped.value) == str(stepped.value) == "state became NaN at t = 0.01"

    def test_infinite_step_matrix_beside_a_finite_one(self):
        # delta 1e200 overflows its step matrix to inf: that column blows up
        # at the first step, while delta -0.5's columns decay to the horizon
        sys = LtiSystem(a=[[0.0]], b=[[0.0]], c=[[1.0]])
        cfg = SimConfig(dt=0.01, horizon=10.0)
        block = assert_columns_match_reference(
            sys, Nonlinearity.gain([[0.0]]), scalar_pert(1), [[[-0.5]], [[1e200]]], cfg,
            np.array([[1.0], [3.0]]),
        )
        assert [c.blowup_time for c in block.columns] == [None, None, 0.01, 0.01]
        assert block.times[-1] == pytest.approx(10.0)

    def test_random_metzler_gain_loops(self):
        from generators import random_metzler_hurwitz

        rng = np.random.default_rng(18)
        blown = 0
        for _ in range(30):
            n = int(rng.integers(2, 6))
            sys = LtiSystem(a=random_metzler_hurwitz(rng, n), b=rng.uniform(0.0, 1.0, (n, 1)),
                            c=rng.uniform(0.0, 1.0, (1, n)))
            pert = PerturbationStructure(d=rng.uniform(0.0, 1.0, (n, 1)),
                                         e=rng.uniform(0.0, 1.0, (1, n)))
            phi = Nonlinearity.gain([[rng.uniform(0.0, 0.5)]])
            deltas = rng.uniform(0.0, 8.0, size=(3, 1, 1))
            cfg = SimConfig(dt=float(rng.choice([0.01, 0.02, 0.05])), horizon=20.0)
            x0s = rng.uniform(0.0, 1.0, size=(2, n))
            block = assert_columns_match_reference(sys, phi, pert, deltas, cfg, x0s)
            blown += sum(c.blowup_time is not None for c in block.columns)
        assert blown > 0

    def test_gain_column_jumps_logarithmically(self, example_a, monkeypatch):
        # a stable column of 4,000 steps takes a power of P per set bit of
        # its 2,000 steps to midway and of its 2,000 steps on, and no single step
        phi = Nonlinearity.gain(example_a.analysis_sector.upper)
        cfg = SimConfig(dt=0.005, horizon=20.0)
        steps = 4000
        matmul = np.matmul
        jumps = []

        def counted(a, b, *args, **kwargs):
            if np.shape(b)[-2:] == (3, 1):  # a product with the states
                jumps.append(b)
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        block = sim.simulate_lure(
            example_a.system, phi, example_a.pert, np.array([[[0.2]]]), cfg, [[0.5, 0.2, 0.9]]
        )
        assert block.columns[0].blowup_time is None and block.columns[0].rate < -sim.RES
        assert len(jumps) <= 2 * steps.bit_length()
        assert len(jumps) == 2 * bin(steps // 2).count("1")

    def test_gain_block_jumps_its_columns_together(self, example_a, monkeypatch):
        # 10 stable deltas x 2 trials of 4,000 steps: one stacked product per
        # jump of a column, 2 * popcount(2,000) = 12, not one per column and
        # jump (240)
        phi = Nonlinearity.gain(example_a.analysis_sector.upper)
        x0s = np.random.default_rng(6).uniform(0.0, 1.0, size=(2, 3))
        products = count_state_products(monkeypatch)
        block = sim.simulate_lure(
            example_a.system, phi, example_a.pert, np.linspace(0.0, 0.2, 10)[:, None, None],
            SimConfig(dt=0.005, horizon=20.0), x0s,
        )
        assert all(c.blowup_time is None and c.rate < -sim.RES for c in block.columns)
        assert len(products) == 2 * bin(2000).count("1") == 12

    @pytest.mark.parametrize("loop", ["gain", "orthant"])
    def test_lockstep_block_of_mixed_columns(self, loop, example_b, monkeypatch):
        # columns that reach the horizon, that blow up before midway and
        # after it, and that near the bound take shorter jumps from different
        # iterations on, so that some iteration moves columns by jumps of two
        # lengths: each column equals its one-column block bit for bit, and
        # the block runs to its largest column's last step
        if loop == "gain":
            (sys, phi), pert = GROWING_GAIN, scalar_pert(1)
            deltas, cfg = [-3.0, -0.95, 0.0, 0.5], SimConfig(dt=0.02, horizon=30.0)
            x0s = np.array([[1.0], [0.5], [2.5e8]])
        else:
            sys, phi, pert = example_b.system, example_b.loop_nonlinearity(), example_b.pert
            deltas, cfg = [1.0, 2.5, 4.0, 8.0], SimConfig(dt=0.02, horizon=20.0)
            x0s = np.random.default_rng(2).uniform(0.0, 1.0, size=(2, 3))
        stack = np.array(deltas)[:, None, None]
        products = count_state_products(monkeypatch)
        block = sim.simulate_lure(sys, phi, pert, stack, cfg, x0s)
        lockstep, alone = len(products), []
        for delta in stack:
            for x0 in x0s:
                products.clear()
                alone.append((sim.simulate_lure(sys, phi, pert, delta[None], cfg, x0[None]), len(products)))
        assert block.columns == tuple(run.columns[0] for run, _ in alone)
        assert block.last == max(run.last for run, _ in alone)
        assert lockstep > max(jumps for _, jumps in alone)
        blowups = [c.blowup_time for c in block.columns]
        midway = cfg.horizon / 2
        assert None in blowups
        assert any(t is not None and t < midway for t in blowups)
        assert any(t is not None and t > midway for t in blowups)

    def test_lockstep_nan_raises_at_the_earliest_column(self):
        # x_1 and x_2 both grow by delta a step and x_0 gains 1e308 (x_1 - x_2)
        # = 0, until 1e308 x_1 overflows and that is inf - inf; the step
        # matrix's norm is inf, so every column steps singly.  Delta 0.5 from
        # x_1 = 0.6 turns NaN first, at step 4, delta 0 never
        a = np.zeros((4, 4))
        a[0, 1], a[0, 2] = 1e308, -1e308
        sys = LtiSystem(a=a, b=np.zeros((4, 1)), c=np.ones((1, 4)))
        pert = PerturbationStructure(d=[[0.0], [1.0], [1.0], [0.0]], e=[[0.0, 0.0, 0.0, 1.0]])
        phi, cfg = Nonlinearity.gain([[0.0]]), SimConfig(dt=1.0, horizon=12.0)
        deltas = np.array([[[0.25]], [[0.0]], [[0.5]]])
        x0s = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.6, 0.6, 1.0]])
        steps = []
        for delta in deltas:
            for x0 in x0s:
                try:
                    sim.simulate_lure(sys, phi, pert, delta[None], cfg, x0[None])
                except NonFiniteStateError as exc:
                    steps.append(float(re.fullmatch(r"state became NaN at t = (\S+)", str(exc))[1]))
        assert sorted(steps) == [4.0, 5.0, 6.0, 9.0]
        with pytest.raises(NonFiniteStateError, match=r"^state became NaN at t = 4$"):
            sim.simulate_lure(sys, phi, pert, deltas, cfg, x0s)

    def test_jumping_memory_grows_with_trials_by_their_states_alone(self):
        # a 30-state gain block of 10 deltas holds its ladder, levels * D *
        # n^2 floats, and a few stacks of its deltas' matrices; 40 more trials
        # add a few states per column, not a matrix per column
        rng = np.random.default_rng(30)
        n, levels = 30, 11  # 4,000 steps: the bit length of 2,000
        sys = LtiSystem(a=random_metzler_hurwitz(rng, n), b=rng.uniform(0.0, 1.0, (n, 1)),
                        c=rng.uniform(0.0, 1.0, (1, n)))
        pert = PerturbationStructure(d=rng.uniform(0.0, 0.1, (n, 1)), e=rng.uniform(0.0, 0.1, (1, n)))
        deltas = np.linspace(-1.0, 1.0, 10)[:, None, None]
        cfg = SimConfig(dt=0.005, horizon=20.0)
        peaks = {}
        for trials in (1, 41):
            x0s = rng.uniform(0.0, 1.0, (trials, n))
            tracemalloc.start()
            try:
                block = sim.simulate_lure(sys, Nonlinearity.gain([[0.0]]), pert, deltas, cfg, x0s)
                peaks[trials] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert all(c.blowup_time is None for c in block.columns)
        mats = len(deltas) * n * n * 8  # bytes of one stack of the deltas' matrices
        assert peaks[1] <= (levels + 6) * mats
        assert peaks[41] - peaks[1] <= 8 * len(deltas) * 40 * n * 8

    def test_no_state_history_for_a_block(self):
        sys, phi = GROWING_GAIN
        block = sim.simulate_lure(
            sys, phi, scalar_pert(1), np.array([[[-3.0]]]), SimConfig(0.1, 1.0), np.array([[1.0]])
        )
        assert isinstance(block, sim.TrajectoryBlock)
        assert not hasattr(block, "states")

    def test_nan_reports_the_earliest_column(self):
        # x' = x until phi turns NaN at x > 0.5: a larger start gets there first
        sys = LtiSystem(a=[[1.0]], b=[[1.0]], c=[[1.0]])
        bad = Nonlinearity.scalar(lambda y: float("nan") if y > 0.5 else 0.0)
        cfg = SimConfig(dt=0.1, horizon=10.0)
        with pytest.raises(NonFiniteStateError) as first:
            sim.simulate_lure(sys, bad, scalar_pert(1), [[0.0]], cfg, np.array([0.1]))
        with pytest.raises(NonFiniteStateError) as block:
            sim.simulate_lure(sys, bad, scalar_pert(1), [[0.0]], cfg, np.array([[0.01], [0.1]]))
        assert str(block.value) == str(first.value)


# example_a's cubic_sine loop crosses near delta 1.1289: at dt 0.02 the
# columns below 1.1 reach a fixed point of the step between steps 410 and
# 476, those at 1.1 near step 680, and those at 1.125 never within 1,000
SETTLING_DELTAS = [0.2, 0.26, 0.4, 1.1, 1.125]
SETTLING_CFG = SimConfig(dt=0.02, horizon=20.0)
SETTLING_STATES = np.random.default_rng(5).uniform(0.0, 1.0, size=(2, 3))


class TestSettledColumns:
    """A stepping column whose step leaves its state bit for bit as it was
    stays there, and leaves the block as if it had reached the horizon."""

    @pytest.fixture(scope="class")
    def loop(self, example_a):
        return example_a.system, sim.BUILTIN_NONLINEARITIES["cubic_sine"].phi, example_a.pert

    @pytest.fixture(scope="class")
    def references(self, loop):
        return {(delta, t): reference_run(*loop, [[delta]], SETTLING_CFG, x0)
                for delta in SETTLING_DELTAS for t, x0 in enumerate(SETTLING_STATES)}

    def test_references_settle_below_the_crossing(self, references):
        steps = round(SETTLING_CFG.horizon / SETTLING_CFG.dt)
        for (delta, _), (states, column) in references.items():
            assert len(states) == steps + 1 and column.blowup_time is None
            assert (states[-1] == states[-2]).all() == (delta < 1.125)

    @pytest.mark.parametrize("deltas", [SETTLING_DELTAS, SETTLING_DELTAS[:4], SETTLING_DELTAS[:3]],
                             ids=["with_crossing", "settling", "settled_by_midway"])
    def test_columns_equal_the_reference(self, deltas, loop, references):
        block = sim.simulate_lure(*loop, np.array(deltas)[:, None, None], SETTLING_CFG,
                                  SETTLING_STATES)
        assert block.last == 1000 and len(block.times) == 1001
        assert block.columns == tuple(references[delta, t][1] for delta in deltas for t in range(2))

    def test_settled_columns_stop_stepping(self, loop, monkeypatch):
        # the shape check calls phi once, then each step four times over the
        # live columns: fewer than 1 + 4 * 500 calls show that the block
        # stopped stepping before step 500 of 1,000, its columns one group at
        # a time
        calls, call = [], Nonlinearity.__call__
        monkeypatch.setattr(Nonlinearity, "__call__", lambda phi, y: calls.append(len(y)) or call(phi, y))
        block = sim.simulate_lure(*loop, np.array(SETTLING_DELTAS[:3])[:, None, None], SETTLING_CFG,
                                  SETTLING_STATES)
        assert calls[1] == 6 and len(calls) < 1 + 4 * 500
        assert calls[1:] == sorted(calls[1:], reverse=True) and calls[-1] < 6
        assert block.last == 1000


def one_input_net(hidden=(0.7, 0.7), out=(0.65, 0.65), bias=(0.0, 0.0), activation=RELU):
    """A 1 -> 2 -> 1 network; the defaults are example_b's weights."""
    return Ffnn((Layer([[w] for w in hidden], bias),), Layer([out], [0.0]), activation)


# MIMO_SYSTEM made positive (its A is Metzler), closed by a zero-bias ReLU
# network with nonnegative weights, two inputs and two outputs
POSITIVE_MIMO_SYSTEM = LtiSystem(a=MIMO_SYSTEM.a, b=np.abs(MIMO_SYSTEM.b), c=np.abs(MIMO_SYSTEM.c))
NONNEGATIVE_NET = Ffnn(
    (Layer([[0.5, 0.2], [0.1, 0.3], [0.4, 0.0]], [0.0, 0.0, 0.0]),),
    Layer([[0.3, 0.2, 0.1], [0.0, 0.6, 0.2]], [0.0, 0.0]),
    RELU,
)
# networks without an orthant matrix K, and the loops they close
NO_ORTHANT = {
    "signed_mimo": (MIMO_SYSTEM, STEPPING_NETS["deep_relu"]),
    "biased": ("example_b", one_input_net(bias=(0.1, 0.0))),
    "tanh": ("example_b", one_input_net(activation=TANH)),
}
# pi(1) = 2e400 overflows, so this network has no K either
OVERFLOWING_NET = one_input_net(hidden=(1e200, 1e200), out=(1e200, 1e200))


class TestOrthantNetwork:
    """A network loop whose RK4 stages stay in the orthant, where the network
    is the matrix K, jumps as the gain loop of K; any other network loop steps."""

    def test_orthant_matrix(self, example_b):
        # example_b's file declares relu's slopes, which makes a new
        # activation with relu's callable
        assert example_b.network.activation is not RELU
        pi_1 = sim.ffnn_eval(example_b.network, np.ones((1, 1, 1)))
        assert example_b.loop_nonlinearity().orthant.tolist() == pi_1[0].tolist()
        assert pi_1[0, 0, 0] == pytest.approx(0.91, rel=1e-15)
        # one input: pi(y) = y pi(1) whatever the weights' signs
        signed = Nonlinearity.network(one_input_net(hidden=(0.7, -0.4), out=(0.65, -0.5)))
        assert signed.orthant == pytest.approx(np.array([[0.455]]), rel=1e-15)
        # nonnegative weights: each ReLU is the identity on the orthant
        phi = Nonlinearity.network(NONNEGATIVE_NET)
        assert phi.orthant == pytest.approx(NONNEGATIVE_NET.output.w @ NONNEGATIVE_NET.hidden[0].w)
        y = np.random.default_rng(6).uniform(0.0, 5.0, size=(20, 2, 1))
        assert np.allclose(phi(y), np.matmul(phi.orthant, y), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("net", [*sorted(NO_ORTHANT), "overflowing"])
    def test_no_orthant_matrix(self, net):
        # building the overflowing network's K warns of nothing
        ffnn = OVERFLOWING_NET if net == "overflowing" else NO_ORTHANT[net][1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Nonlinearity.network(ffnn).orthant is None

    @pytest.mark.parametrize("net", sorted(NO_ORTHANT))
    def test_network_without_orthant_matrix_steps(self, net, example_b):
        sys, ffnn = NO_ORTHANT[net]
        sys, pert = (example_b.system, example_b.pert) if sys == "example_b" else (sys, identity_pert(3))
        x0s = np.random.default_rng(8).uniform(0.0, 1.0, size=(2, 3))
        deltas = [np.full((pert.k1, pert.k2), d) for d in (0.0, 1.0)]
        assert_columns_match_reference(
            sys, Nonlinearity.network(ffnn), pert, deltas, SimConfig(dt=0.02, horizon=10.0), x0s,
            jumps=False,
        )

    def test_overflowing_network_blows_up_as_stepping_does(self, example_b):
        # pi(C x0) overflows at the first stage, and a later stage's signed
        # coupling meets it as inf - inf: the state is NaN where a stage
        # output is infinite, which is a blow-up at that step
        sys, pert, phi = example_b.system, example_b.pert, Nonlinearity.network(OVERFLOWING_NET)
        cfg = SimConfig(dt=0.02, horizon=10.0)
        assert np.isnan(reference_run(sys, phi, pert, [[1.0]], cfg, np.full(3, 0.5))[0][-1]).all()
        block = assert_columns_match_reference(
            sys, phi, pert, [[[1.0]]], cfg, np.full((2, 3), 0.5), jumps=False,
        )
        assert block.columns == (sim.ColumnPeaks(0.5, math.inf, math.inf, 0.02),) * 2

    @pytest.mark.parametrize("case", ["signed_one_input", "nonnegative_mimo"])
    def test_orthant_columns(self, case, example_b):
        if case == "signed_one_input":
            sys, pert = example_b.system, example_b.pert
            phi = Nonlinearity.network(one_input_net(hidden=(0.7, -0.4), out=(0.65, -0.5)))
            deltas = [[[1.0]], [[3.0]], [[5.0]]]
        else:
            sys, pert, phi = POSITIVE_MIMO_SYSTEM, identity_pert(3), Nonlinearity.network(NONNEGATIVE_NET)
            deltas = [np.full((3, 3), d) for d in (0.0, 0.3, 1.0)]
        x0s = np.random.default_rng(9).uniform(0.0, 1.0, size=(2, 3))
        block = assert_columns_match_reference(
            sys, phi, pert, deltas, SimConfig(dt=0.02, horizon=20.0), x0s, jumps=True,
        )
        assert any(c.blowup_time is not None for c in block.columns)

    def test_orthant_block_calls_no_network_per_step(self, example_b, monkeypatch):
        # the shape check evaluates the network, and K takes one more
        # evaluation, on the (1, 1, 1) stack of e_1, when the block first
        # asks for it, not when phi is built; the 1,000 steps call neither
        evals, calls = [], []
        evaluate, call = sim.ffnn_eval, Nonlinearity.__call__
        monkeypatch.setattr(sim, "ffnn_eval", lambda n, y: evals.append(y.shape) or evaluate(n, y))
        monkeypatch.setattr(Nonlinearity, "__call__", lambda phi, y: calls.append(phi) or call(phi, y))
        phi = Nonlinearity.network(example_b.network)
        assert evals == []
        cfg = SimConfig(dt=0.02, horizon=20.0)
        block = sim.simulate_lure(example_b.system, phi, example_b.pert,
                                  np.array([[[1.0]], [[2.04]]]), cfg, np.full((3, 3), 0.5))
        assert len(block.times) == 1001
        assert evals == [(1, 1, 1)] * 2
        assert calls == [phi]

    def test_orthant_sweep_builds_no_stage_matrices(self, example_b, monkeypatch):
        # every column of example_b's sweep jumps, so the orthant test needs R
        # and P of the gain loop of K, not the other stage matrices
        calls = []
        stage_matrices = sim._stage_matrices
        monkeypatch.setattr(sim, "_stage_matrices", lambda *a: calls.append(a) or stage_matrices(*a))
        rows = sim.sweep(example_b.system, example_b.loop_nonlinearity(), example_b.pert,
                         example_b.sweep_deltas, example_b.simulation, trials=2, seed=42)
        assert len(rows) == 2 * len(example_b.sweep_deltas)
        assert calls == []


def staged_rk4(sys, phi, pert, delta, cfg, x0):
    """Reference: classical RK4 stage by stage, ``k_j = M x_j + B phi(C x_j)``,
    with phi on a ``(1, p, 1)`` stack.  The engine telescopes the same step
    into precomputed stage matrices."""
    m = sys.a + pert.d @ np.asarray(delta, dtype=float) @ pert.e
    dt = cfg.dt

    def field(x):
        return m @ x + sys.b @ phi((sys.c @ x)[None])[0]

    x = np.asarray(x0, dtype=float)[:, None]
    states = [x[:, 0]]
    for _ in range(int(round(cfg.horizon / dt))):
        k1 = field(x)
        k2 = field(x + dt / 2.0 * k1)
        k3 = field(x + dt / 2.0 * k2)
        k4 = field(x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x[:, 0])
    return np.array(states)


class TestTelescopedStages:
    """The engine's stage matrices, stepped by ``reference_run``, which every
    stepping column equals bit for bit, reproduce stage-by-stage RK4."""

    @pytest.mark.parametrize("loop", [*STEPPING_NETS, "mimo_cubic_sine", "example_b", "cubic_sine"])
    def test_matches_stage_by_stage_rk4(self, loop, example_a, example_b):
        cfg = SimConfig(dt=0.02, horizon=2.0)
        if loop in STEPPING_NETS or loop == "mimo_cubic_sine":
            sys, pert, delta = MIMO_SYSTEM, identity_pert(3), np.full((3, 3), 0.1)
            phi = (Nonlinearity.network(STEPPING_NETS[loop]) if loop in STEPPING_NETS
                   else sim.BUILTIN_NONLINEARITIES["cubic_sine"].phi)
            x0 = [0.5, -0.3, 0.8]
        else:
            problem = example_b if loop == "example_b" else example_a
            sys, pert, phi = problem.system, problem.pert, problem.loop_nonlinearity()
            delta, x0 = [[2.04 if loop == "example_b" else 0.4]], [0.3, 0.8, 0.1]
        states = reference_run(sys, phi, pert, delta, cfg, x0)[0]
        reference = staged_rk4(sys, phi, pert, delta, cfg, x0)
        assert states.shape == reference.shape
        assert np.abs(states - reference).max() <= 1e-12 * np.abs(reference).max()


class TestStepWorkspace:
    """A stepping block reuses its buffers from step to step, and phi writes
    each stage's output into its own slot of them, through a copy of phi
    bound to that slot, so no stage output aliases a later stage input."""

    @pytest.mark.parametrize("aliasing", ["input", "view"])
    def test_phi_that_returns_its_input_or_a_view_of_it(self, aliasing):
        # the identity, and the swap of the two outputs, which returns a view
        phi = Nonlinearity((lambda y: y) if aliasing == "input" else (lambda y: y[:, ::-1]))
        copying = Nonlinearity(lambda y: phi(y).copy())
        deltas = [np.full((3, 3), d) for d in (-0.5, 0.0, 1.0)]
        x0s = np.random.default_rng(6).uniform(-1.0, 1.0, size=(2, 3))
        cfg = SimConfig(dt=0.05, horizon=10.0)
        block = assert_columns_match_reference(
            MIMO_SYSTEM, phi, identity_pert(3), deltas, cfg, x0s, jumps=False,
        )
        assert {c.blowup_time is None for c in block.columns} == {True, False}
        assert block == sim.simulate_lure(
            MIMO_SYSTEM, copying, identity_pert(3), np.array(deltas), cfg, x0s,
        )

    @pytest.mark.parametrize("x0", [(1.0,), (-1.0,)])
    def test_scalar_overflow_writes_an_infinity_and_blows_up(self, x0):
        # x' = x / 2 + sinh(x) runs away from x0 = +-1 until a stage input
        # passes 710, where sinh overflows and its slot takes +-inf; every
        # stage coefficient is positive, so the state is +-inf, not NaN
        phi = Nonlinearity.scalar(math.sinh, name="sinh")
        sys = LtiSystem(a=[[0.5]], b=[[1.0]], c=[[1.0]])
        cfg = SimConfig(dt=0.05, horizon=20.0)
        block = assert_columns_match_reference(sys, phi, scalar_pert(1), [[[0.0]]], cfg, [x0])
        column = block.columns[0]
        assert column.final_peak == math.inf and 0 < column.blowup_time < 20.0
        out = np.zeros((2, 1, 1))
        assert phi._into(out)(np.array([[[800.0]], [[-800.0]]])) is out
        assert out.ravel().tolist() == [math.inf, -math.inf]

    def test_scalar_undefined_inside_a_block_is_input_error(self):
        # x1 swings negative, where the square root of the feedback is undefined
        phi = Nonlinearity.scalar(math.sqrt, name="sqrt")
        sys = LtiSystem(a=[[-0.1, -2.0], [2.0, -0.1]], b=[[0.0], [0.1]], c=[[1.0, 0.0]])
        with pytest.raises(InputError, match=r"^nonlinearity 'sqrt' is undefined at y = -\d"):
            sim.simulate_lure(
                sys, phi, scalar_pert(2), [[0.0]], SimConfig(dt=0.05, horizon=5.0), [1.0, 0.0]
            )

    # blocks of 1 to 12 columns; where deltas above 1 blow up, at different
    # steps, the block narrows
    @pytest.mark.parametrize("deltas,trials", [
        ([1.5], 1), ([0.0, 1.25, 1.5], 1), ([-0.5, 0.0, 0.3], 2), ([-0.5, 0.25, 1.25, 1.5], 3),
    ], ids=["1", "3", "6", "12"])
    def test_two_output_scalar_loop_matches_the_reference(self, deltas, trials):
        # m = p = 2: each stage's two entries per column go through the slot's
        # flat view, and stages 2 to 4 read their addends by ravel
        phi = sim.BUILTIN_NONLINEARITIES["cubic_sine"].phi
        x0s = np.random.default_rng(8).uniform(-1.0, 1.0, size=(trials, 3))
        block = assert_columns_match_reference(
            MIMO_SYSTEM, phi, identity_pert(3), [np.full((3, 3), d) for d in deltas],
            SimConfig(dt=0.05, horizon=10.0), x0s, jumps=False,
        )
        assert block.last > 1
        blown = {delta > 1 for delta, column in zip(np.repeat(deltas, trials), block.columns)
                 if column.blowup_time is not None}
        assert blown == ({True} if max(deltas) > 1 else set())

    def test_overflow_that_turns_the_state_nan_is_a_blow_up(self):
        # x' = -x + sinh(x) runs away from x0 = 1; stage 1's +inf meets G_3's
        # negative (dt/4) C h B, so the state is NaN at the step it blows up
        phi = Nonlinearity.scalar(math.sinh, name="sinh")
        sys, pert = LtiSystem(a=[[-1.0]], b=[[1.0]], c=[[1.0]]), scalar_pert(1)
        cfg = SimConfig(dt=0.05, horizon=20.0)
        block = assert_columns_match_reference(sys, phi, pert, [[[0.0]]], cfg, [[1.0]])
        assert block.columns[0] == sim.ColumnPeaks(1.0, math.inf, math.inf, 51 * 0.05)
        assert block.last == 51
        assert np.isnan(reference_run(sys, phi, pert, [[0.0]], cfg, [1.0])[0][-1]).all()
        rows = sim.sweep(sys, phi, pert, [0.0, 0.5], cfg, trials=2, seed=1)
        assert [(r.verdict, r.blowup_time) for r in rows[:2]] == [("Unstable", 10.8), ("Unstable", 2.85)]
        assert {r.verdict for r in rows} == {"Unstable"}


def _strided(rng, k, rows, start, width):
    """A ``(k, width, 1)`` view at rows ``start`` to ``start + width`` of a
    random ``(k, rows, 1)`` stack, as the engine's stage slots are, with
    entries over many decades so that every addition rounds."""
    scale = 10.0 ** rng.integers(-6, 7, size=(k, rows, 1))
    return (rng.uniform(-3.0, 3.0, size=(k, rows, 1)) * scale)[:, start : start + width]


class TestBoundFeedback:
    """``Nonlinearity._into(out, add)`` writes ``phi(y + add)`` into ``out``,
    bit for bit what ``phi(np.add(y, add))`` returns."""

    @pytest.mark.parametrize("phi,width", [
        (sim.BUILTIN_NONLINEARITIES["cubic_sine"].phi, 1),
        (sim.BUILTIN_NONLINEARITIES["cubic_sine"].phi, 2),
        (Nonlinearity(lambda y: y), 2),
        (Nonlinearity(lambda y: y[:, ::-1]), 2),
        (Nonlinearity.network(MIMO_NET), 2),
    ], ids=["scalar_m1", "scalar_m2", "returns_input", "returns_view", "network"])
    def test_matches_phi_of_the_sum(self, phi, width):
        # the scalar slot and addend at m = p = 1 are 1-D views; at 2, out.flat and ravel
        rng = np.random.default_rng(11)
        y = np.ascontiguousarray(_strided(rng, 6, 2, 0, width))
        add = _strided(rng, 6, 4 * width + 3, width, width)
        out = _strided(rng, 6, 4 * width, 2 * width, width)
        expected = phi(np.add(y, add))
        assert phi._into(out, add)(y) is out
        assert out.tobytes() == expected.tobytes()

    def test_scalar_overflow_fallback_runs_on_the_sums(self):
        # neither 700 nor 20 overflows sinh, but their sum does
        phi = Nonlinearity.scalar(math.sinh, name="sinh")
        y = np.array([[[700.0]], [[-700.0]], [[1.0]]])
        add = _strided(np.random.default_rng(12), 3, 4, 1, 1)
        add[:, 0, 0] = [20.0, -20.0, 0.5]
        out = np.zeros((3, 1, 1))
        assert phi._into(out, add)(y) is out
        assert out.tobytes() == phi(np.add(y, add)).tobytes()
        assert out.ravel().tolist() == [math.inf, -math.inf, math.sinh(1.5)]
        sqrt = Nonlinearity.scalar(math.sqrt, name="sqrt")
        with pytest.raises(InputError, match=r"^nonlinearity 'sqrt' is undefined at y = -2 "):
            sqrt._into(out, add)(np.array([[[4.0]], [[18.0]], [[-2.5]]]))


class TestBlockInputChecks:
    """simulate_lure refuses malformed inputs before it integrates."""

    def test_stacked_delta_shape(self):
        with pytest.raises(DimensionMismatchError, match="delta must be 2x2"):
            sim.simulate_lure(
                two_state_system(), ZERO_PHI, identity_pert(2), np.zeros((3, 1, 1)),
                SimConfig(), np.ones((2, 2)),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_stacked_delta_finite(self, bad):
        with pytest.raises(NonFiniteEntriesError, match="delta: contains NaN or infinite"):
            sim.simulate_lure(
                two_state_system(), ZERO_PHI, scalar_pert(2), np.array([[[0.1]], [[bad]]]),
                SimConfig(), np.ones((2, 2)),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_sweep_delta_finite(self, bad):
        cfg = SimConfig(dt=0.05, horizon=1.0)
        with pytest.raises(NonFiniteEntriesError, match="delta: contains NaN or infinite"):
            sim.sweep(two_state_system(), ZERO_PHI, identity_pert(2), [0.1, bad], cfg=cfg, trials=2)

    def test_block_initial_states_need_n_finite_entries(self):
        args = (two_state_system(), ZERO_PHI, identity_pert(2), np.zeros((1, 2, 2)), SimConfig())
        with pytest.raises(DimensionMismatchError, match="x0 must hold states of 2 entries"):
            sim.simulate_lure(*args, np.ones((3, 1)))
        with pytest.raises(InputError, match="x0 must be finite"):
            sim.simulate_lure(*args, np.array([[1.0, 1.0], [1.0, np.nan]]))

    @pytest.mark.parametrize("phi, maps", [
        (Nonlinearity.gain([[1.0, 2.0]]), "2 -> 1"),
        (Nonlinearity.network(Ffnn((), Layer.linear([[1.0], [1.0]]), RELU)), "1 -> 2"),
    ], ids=["gain_1x2", "network_1_to_2"])
    def test_phi_must_map_plant_outputs_to_plant_inputs(self, phi, maps):
        with pytest.raises(DimensionMismatchError, match=f"phi maps {maps}, the plant needs 1 -> 1"):
            sim.simulate_lure(
                two_state_system(), phi, scalar_pert(2), [[0.1]], SimConfig(), np.ones(2)
            )

    def test_gain_loop_is_checked_without_calling_phi(self):
        def uncalled(y):
            raise AssertionError("a gain loop called its block")

        phi = Nonlinearity(uncalled, np.array([[0.5]]))
        cfg = SimConfig(dt=0.1, horizon=1.0)
        sim.simulate_lure(two_state_system(), phi, scalar_pert(2), [[0.1]], cfg, np.ones(2))

    def test_scalar_nonlinearity_needs_square_io_on_a_block(self):
        sys = LtiSystem(a=-np.eye(2), b=[[1.0], [0.0]], c=np.eye(2))
        with pytest.raises(DimensionMismatchError, match="matching input/output counts"):
            sim.simulate_lure(
                sys, ZERO_PHI, identity_pert(2), np.zeros((2, 2, 2)), SimConfig(), np.ones((2, 2))
            )

    @pytest.mark.parametrize("deltas, x0s", [((0, 2, 2), (3, 2)), ((2, 2, 2), (0, 2))],
                             ids=["no_deltas", "no_states"])
    def test_empty_block(self, deltas, x0s):
        cfg = SimConfig(dt=0.05, horizon=1.0)
        block = sim.simulate_lure(
            two_state_system(), ZERO_PHI, identity_pert(2), np.zeros(deltas), cfg, np.ones(x0s)
        )
        assert block.columns == ()
        assert block.times.tolist() == [0.0]

    @pytest.mark.parametrize("deltas, x0s", [((0, 2, 2), (3, 2)), ((2, 2, 2), (0, 2))],
                             ids=["no_deltas", "no_states"])
    def test_empty_gain_block(self, deltas, x0s):
        cfg = SimConfig(dt=0.05, horizon=1.0)
        phi = Nonlinearity.gain([[0.5]])
        block = sim.simulate_lure(
            two_state_system(), phi, identity_pert(2), np.zeros(deltas), cfg, np.ones(x0s)
        )
        assert block.columns == ()
        assert block.times.tolist() == [0.0]

    def test_sweep_without_trials(self):
        cfg = SimConfig(dt=0.05, horizon=1.0)
        assert sim.sweep(two_state_system(), ZERO_PHI, identity_pert(2), [0.1], cfg=cfg, trials=0) == []


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

    @pytest.mark.parametrize("kwargs", [{"seed": -1}, {"trials": -1}], ids=["seed", "trials"])
    def test_negative_seed_or_trials_is_input_error(self, kwargs):
        sys = two_state_system()
        with pytest.raises(InputError, match="must be nonnegative"):
            sim.sweep(sys, ZERO_PHI, identity_pert(2), [0.0], **kwargs)
        with pytest.raises(InputError, match="must be nonnegative"):
            sim.find_critical_delta(sys, ZERO_PHI, identity_pert(2), **kwargs)

    def test_csv_writers(self, tmp_path):
        sys = two_state_system()
        cfg = SimConfig(dt=0.05, horizon=5.0)
        rows = sim.sweep(sys, ZERO_PHI, identity_pert(2), [0.0], cfg=cfg, trials=2)
        sweep_path = tmp_path / "sweep.csv"
        sim.write_sweep_csv(rows, sweep_path)
        header = sweep_path.read_text().splitlines()[0]
        assert header == "delta,trial,seed,verdict,decay_ratio,blowup_time"


class TestWorkedExampleLoop:
    def test_linear_worst_case_transition_pattern(self, example_a):
        # with the constant upper gain in the loop, the classic stable /
        # borderline / unstable pattern appears across the delta grid
        sector = example_a.analysis_sector
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
        phi = sim.BUILTIN_NONLINEARITIES["cubic_sine"].phi
        cfg = SimConfig(dt=0.01, horizon=30.0)
        rows = sim.sweep(
            example_a.system, phi, example_a.pert, [0.2], cfg=cfg, trials=3, seed=42
        )
        assert all(r.verdict != "Unstable" for r in rows)
        assert all(r.decay_ratio < 10.0 for r in rows)

    def test_builtin_nonlinearity_blows_up_at_large_delta(self, example_a):
        phi = sim.BUILTIN_NONLINEARITIES["cubic_sine"].phi
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
        for value in (np.inf, np.nan):
            with pytest.raises(InputError, match="horizon < inf"):
                SimConfig(horizon=value)
            with pytest.raises(InputError):
                SimConfig(dt=value)

    @pytest.mark.parametrize("dt", [1e-300, 1e-20, 1e-14, 3.6e-14])
    @pytest.mark.parametrize("engine", ["one_column", "stepping_block", "gain_block"])
    def test_dt_that_rounds_the_diagonal_away_is_input_error(self, dt, engine):
        # rounding 1 - dt moves a step by up to 2**-53, a rate of 2**-53 / dt
        # > RES per unit time; at 1e-20, 1 - dt rounds to 1, so a step would
        # keep A's off-diagonal 2 and lose its diagonal -1 and -3.  The
        # refusal comes before any step (2e301 of them at 1e-300)
        phi = Nonlinearity.gain([[0.5]]) if engine == "gain_block" else ZERO_PHI
        one = engine == "one_column"
        delta, x0 = (np.zeros((2, 2)), np.ones(2)) if one else (np.zeros((2, 2, 2)), np.ones((2, 2)))
        message = f"dt={dt!r} is too small for this loop"
        with pytest.raises(InputError, match=re.escape(message)):
            sim.simulate_lure(two_state_system(), phi, identity_pert(2), delta, SimConfig(dt=dt), x0)

    def test_diagonal_entry_lost_within_the_rate_resolution_runs(self):
        # 1 + 1e-3 * 1e-17 rounds to 1, but losing M_11 = 1e-17 moves a rate
        # by 1e-17 per unit time, far inside RES
        sys = two_state_system(a=[[1e-17, 2.0], [0.0, -3.0]])
        block = sim.simulate_lure(sys, ZERO_PHI, identity_pert(2), np.zeros((2, 2)),
                                  SimConfig(dt=1e-3, horizon=1e-2), np.ones(2))
        assert block.last == 10 and block.columns[0].blowup_time is None

    def test_tiny_dt_with_a_zero_diagonal_runs(self):
        # a zero diagonal entry loses nothing in 1 + h_ii: this nilpotent
        # gain loop's 1e20 steps jump to the horizon
        sys = two_state_system(a=[[0.0, 2.0], [0.0, 0.0]])
        block = sim.simulate_lure(sys, Nonlinearity.gain([[0.0]]), identity_pert(2), np.zeros((1, 2, 2)),
                                  SimConfig(dt=1e-20, horizon=1.0), np.ones((1, 2)))
        assert block.last == 10**20 and block.columns[0].blowup_time is None


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
