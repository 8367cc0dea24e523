"""Fixed-step integration of perturbed feedback loops and threshold search.

The loop is ``x' = (A + D delta E) x + B phi(C x)`` with a static
nonlinearity ``phi``.  Classification of finite trajectories uses the
ratio of final to initial state magnitude; the critical-perturbation
search brackets the smallest delta at which any trial trajectory is
classified unstable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteStateError,
    UnstableAtZeroError,
    NoInstabilityError,
    ZeroInitialStateError,
)
from .ffnn import Ffnn, ffnn_eval
from .linalg import as_matrix, operator_norm
from .radius import LtiSystem, PerturbationStructure

DECAY_THRESHOLD = 1e-3
GROWTH_THRESHOLD = 1e3
BLOWUP_BOUND = 1e9
DEFAULT_TRIALS = 10
DEFAULT_SEED = 42
GEOMETRIC_LEVELS = 8


class Nonlinearity:
    """Static feedback ``u = phi(y)`` in one of three flavors.

    * ``scalar``: a real function applied elementwise (needs m == p);
    * ``network``: a feedforward network;
    * ``gain``: a constant matrix (the linear special case).
    """

    def __init__(self, kind: str, *, fn=None, net=None, mat=None, name: str | None = None):
        self.kind = kind
        self.fn = fn
        self.net = net
        self.mat = mat
        self.name = name or kind

    @classmethod
    def scalar(cls, fn: Callable[[float], float], name: str | None = None) -> "Nonlinearity":
        at_zero = float(fn(0.0))
        if abs(at_zero) > 1e-12:
            raise ValueError(f"scalar nonlinearity must fix the origin; f(0) = {at_zero:g}")
        return cls("scalar", fn=fn, name=name)

    @classmethod
    def network(cls, net: Ffnn, name: str | None = None) -> "Nonlinearity":
        return cls("network", net=net, name=name)

    @classmethod
    def gain(cls, mat, name: str | None = None) -> "Nonlinearity":
        return cls("gain", mat=as_matrix(mat, "gain"), name=name)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        if self.kind == "gain":
            return self.mat @ y
        if self.kind == "network":
            return ffnn_eval(self.net, y)
        out = np.empty_like(y)
        for i, yi in enumerate(y):
            try:
                out[i] = self.fn(float(yi))
            except OverflowError:
                out[i] = math.copysign(math.inf, yi)
        return out


def _cubic_sine(y: float) -> float:
    return -1.5 * y + 0.01 * y**3 + math.sin(2.0 * y)


@dataclass(frozen=True)
class BuiltinNonlinearity:
    """A named scalar feedback with its declared design sector."""

    name: str
    fn: Callable[[float], float]
    sector_lower: float
    sector_upper: float

    def make(self) -> Nonlinearity:
        return Nonlinearity.scalar(self.fn, name=self.name)


BUILTIN_NONLINEARITIES = {
    "cubic_sine": BuiltinNonlinearity("cubic_sine", _cubic_sine, -2.0, -0.48),
}


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step integrator settings; ``x0`` may be filled in per trial."""

    dt: float = 1e-3
    horizon: float = 20.0
    x0: np.ndarray | None = None

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.dt > self.horizon:
            raise ValueError("dt must not exceed the horizon")
        if self.x0 is not None:
            x0 = np.asarray(self.x0, dtype=float).reshape(-1)
            if not np.isfinite(x0).all():
                raise ValueError("x0 must be finite")
            object.__setattr__(self, "x0", x0)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled solution; truncated early if the state blew up."""

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray
    blowup_time: float | None = None


@dataclass(frozen=True)
class StabilityVerdict:
    label: str  # "Stable" | "Unstable" | "Inconclusive"
    decay_ratio: float
    blowup_time: float | None = None


def simulate_lure(
    sys: LtiSystem,
    phi: Nonlinearity,
    pert: PerturbationStructure,
    delta,
    cfg: SimConfig,
) -> Trajectory:
    """Integrate ``x' = (A + D delta E) x + B phi(C x)`` with classical RK4.

    Integration halts early once the state magnitude exceeds the blowup
    bound; a NaN state before that bound raises NonFiniteStateError.
    """
    pert.check_dims(sys.n)
    delta = as_matrix(delta, "delta")
    if delta.shape != (pert.k1, pert.k2):
        raise DimensionMismatchError(
            f"delta must be {pert.k1}x{pert.k2}, got {delta.shape}"
        )
    if cfg.x0 is None:
        raise ValueError("cfg.x0 must be set for a single simulation")
    x0 = cfg.x0
    if x0.shape[0] != sys.n:
        raise DimensionMismatchError(f"x0 must have {sys.n} entries, got {x0.shape[0]}")
    if phi.kind == "scalar" and sys.m != sys.p:
        raise DimensionMismatchError(
            "an elementwise scalar nonlinearity needs matching input/output counts"
        )

    drift = sys.a + pert.d @ delta @ pert.e
    steps = int(round(cfg.horizon / cfg.dt))
    if phi.kind == "gain":
        return _simulate_linear(sys, drift + sys.b @ phi.mat @ sys.c, x0, cfg.dt, steps)
    return _simulate_stages(sys, drift, phi, x0, cfg.dt, steps)


def _record(sys: LtiSystem, times, states, k, blowup_time) -> Trajectory:
    times = np.asarray(times[: k + 1])
    states = np.asarray(states[: k + 1])
    outputs = states @ sys.c.T
    return Trajectory(times=times, states=states, outputs=outputs, blowup_time=blowup_time)


def _simulate_linear(sys, m, x0, dt, steps) -> Trajectory:
    # For a linear field the four RK4 stages telescope into one constant
    # step matrix: the degree-4 Taylor polynomial of expm(dt * m).
    h = dt * m
    step = np.eye(m.shape[0]) + h + h @ h / 2.0 + h @ h @ h / 6.0 + h @ h @ h @ h / 24.0
    times = np.arange(steps + 1) * dt
    states = np.empty((steps + 1, m.shape[0]))
    states[0] = x0
    x = x0.copy()
    for k in range(1, steps + 1):
        x = step @ x
        states[k] = x
        peak = np.abs(x).max()
        if not np.isfinite(peak):
            raise NonFiniteStateError(f"state became non-finite at t = {k * dt:g}")
        if peak > BLOWUP_BOUND:
            return _record(sys, times, states, k, blowup_time=k * dt)
    return _record(sys, times, states, steps, blowup_time=None)


def _simulate_stages(sys, drift, phi, x0, dt, steps) -> Trajectory:
    b = sys.b
    c = sys.c

    def deriv(x):
        return drift @ x + b @ phi(c @ x)

    times = np.arange(steps + 1) * dt
    states = np.empty((steps + 1, drift.shape[0]))
    states[0] = x0
    x = x0.copy()
    for k in range(1, steps + 1):
        k1 = deriv(x)
        k2 = deriv(x + 0.5 * dt * k1)
        k3 = deriv(x + 0.5 * dt * k2)
        k4 = deriv(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[k] = x
        peak = np.abs(x).max()
        if np.isnan(peak):
            raise NonFiniteStateError(f"state became NaN at t = {k * dt:g}")
        if peak > BLOWUP_BOUND:
            return _record(sys, times, states, k, blowup_time=k * dt)
    return _record(sys, times, states, steps, blowup_time=None)


def classify_stability(
    traj: Trajectory,
    decay_threshold: float = DECAY_THRESHOLD,
    growth_threshold: float = GROWTH_THRESHOLD,
) -> StabilityVerdict:
    """Label a finite trajectory by its final-to-initial magnitude ratio.

    Blowup or a ratio above ``growth_threshold`` is Unstable; a ratio below
    ``decay_threshold`` is Stable; anything between is Inconclusive (the
    horizon was too short to tell).
    """
    x0 = traj.states[0]
    initial = float(np.abs(x0).max())
    if initial == 0.0:
        raise ZeroInitialStateError("cannot classify a trajectory started at the origin")
    final = float(np.abs(traj.states[-1]).max())
    ratio = final / initial
    if traj.blowup_time is not None or ratio >= growth_threshold:
        return StabilityVerdict("Unstable", ratio, traj.blowup_time)
    if ratio <= decay_threshold:
        return StabilityVerdict("Stable", ratio, None)
    return StabilityVerdict("Inconclusive", ratio, None)


def default_direction(pert: PerturbationStructure) -> np.ndarray:
    """Worst-case-oriented unit perturbation direction.

    Nonnegative directions are extremal for positive structures; the
    scalar case uses +1, larger blocks the all-ones matrix normalized in
    the structure's norm.
    """
    ones = np.ones((pert.k1, pert.k2))
    return ones / operator_norm(ones, pert.norm)


def _draw_initial_states(n: int, trials: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(trials, n))


@dataclass(frozen=True)
class CriticalDelta:
    delta_star: float
    bracket: tuple[float, float]


def find_critical_delta(
    sys: LtiSystem,
    phi: Nonlinearity,
    pert: PerturbationStructure,
    direction: np.ndarray | None = None,
    delta_max: float = 1.0,
    tol: float = 0.01,
    cfg: SimConfig | None = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> CriticalDelta:
    """Smallest perturbation magnitude at which some trial goes unstable.

    Phase 1 sweeps ``delta_max * 2**-j`` ascending until a trial is
    classified Unstable; phase 2 bisects the bracket down to ``tol``.
    Inconclusive verdicts count as not-unstable, so the result
    upper-bounds the true threshold.  The same seeded batch of nonnegative
    initial states is reused at every delta.
    """
    if delta_max <= 0:
        raise ValueError("delta_max must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    cfg = cfg or SimConfig()
    if direction is None:
        direction = default_direction(pert)
    x0s = _draw_initial_states(sys.n, trials, seed)

    def any_unstable(delta: float) -> bool:
        for x0 in x0s:
            traj = simulate_lure(sys, phi, pert, delta * direction, replace(cfg, x0=x0))
            if classify_stability(traj).label == "Unstable":
                return True
        return False

    if any_unstable(0.0):
        raise UnstableAtZeroError("a trial trajectory is unstable at delta = 0")
    lo = 0.0
    hi = None
    for j in range(GEOMETRIC_LEVELS, -1, -1):
        delta = delta_max * 2.0**-j
        if any_unstable(delta):
            hi = delta
            break
        lo = delta
    if hi is None:
        raise NoInstabilityError(largest_delta=delta_max)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if any_unstable(mid):
            hi = mid
        else:
            lo = mid
    return CriticalDelta(delta_star=0.5 * (lo + hi), bracket=(lo, hi))


@dataclass(frozen=True)
class SweepRow:
    delta: float
    trial: int
    seed: int
    verdict: str
    decay_ratio: float
    blowup_time: float | None


def sweep(
    sys: LtiSystem,
    phi: Nonlinearity,
    pert: PerturbationStructure,
    deltas,
    direction: np.ndarray | None = None,
    cfg: SimConfig | None = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> list[SweepRow]:
    """Classify a seeded batch of trajectories at each perturbation size.

    Rows come out sorted by delta then trial index, ready for the CSV
    writer; identical seeds and configs reproduce them exactly.
    """
    cfg = cfg or SimConfig()
    if direction is None:
        direction = default_direction(pert)
    x0s = _draw_initial_states(sys.n, trials, seed)
    rows = []
    for delta in deltas:
        for trial, x0 in enumerate(x0s):
            traj = simulate_lure(sys, phi, pert, float(delta) * direction, replace(cfg, x0=x0))
            verdict = classify_stability(traj)
            rows.append(
                SweepRow(
                    delta=float(delta),
                    trial=trial,
                    seed=seed,
                    verdict=verdict.label,
                    decay_ratio=verdict.decay_ratio,
                    blowup_time=verdict.blowup_time,
                )
            )
    return rows


def write_sweep_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta", "trial", "seed", "verdict", "decay_ratio", "blowup_time"])
        for row in rows:
            writer.writerow(
                [
                    repr(row.delta),
                    row.trial,
                    row.seed,
                    row.verdict,
                    repr(row.decay_ratio),
                    "" if row.blowup_time is None else repr(row.blowup_time),
                ]
            )
