"""Fixed-step integration of perturbed feedback loops and threshold search.

The loop is ``x' = (A + D delta E) x + B phi(C x)`` with a static
nonlinearity ``phi``.  One RK4 engine integrates a single trajectory, with
its state history, or a block of columns, one per (delta, initial state)
pair, keeping each column's initial and final magnitude and blow-up time.
A sweep integrates all its (delta, trial) columns as one block; the
critical-perturbation search integrates its geometric levels as one block,
then splits the bisection steps left evenly into the fewest blocks of at
most ``SPECULATIVE_DEPTH`` steps (``NARROW_SPECULATIVE_DEPTH`` for a
single-trial nonlinear search), each holding every midpoint its steps can
visit.
Classification uses the ratio of final to initial state magnitude; the
search brackets the smallest delta at which any trial trajectory is
classified unstable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    InputError,
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
SPECULATIVE_DEPTH = 3  # most bisection steps that one search block resolves
NARROW_SPECULATIVE_DEPTH = 4  # the same for a single-trial nonlinear search


@dataclass(frozen=True, eq=False)
class Nonlinearity:
    """Static feedback ``u = phi(y)``: ``block`` maps a ``(p, K)`` block to an
    ``(m, K)`` block.  ``mat`` is a linear feedback's gain matrix, else None."""

    block: Callable[[np.ndarray], np.ndarray]
    mat: np.ndarray | None = None

    @classmethod
    def scalar(cls, fn: Callable[[float], float], name: str = "scalar") -> "Nonlinearity":
        try:
            at_zero = float(fn(0.0))
        except (ArithmeticError, ValueError) as exc:
            raise InputError(
                f"scalar nonlinearity must fix the origin; f(0) raised {type(exc).__name__} ({exc})"
            ) from None
        if not abs(at_zero) <= 1e-12:  # a NaN fails too
            raise InputError(f"scalar nonlinearity must fix the origin; f(0) = {at_zero:g}")

        def at(y: float) -> float:
            try:
                return fn(y)
            except OverflowError:
                return math.copysign(math.inf, y)
            except ValueError as exc:
                raise InputError(f"nonlinearity {name!r} is undefined at y = {y:g} ({exc})") from None

        def block(y: np.ndarray) -> np.ndarray:
            entries = y.ravel().tolist()
            # guard each call only once some entry raises: the guard costs a
            # fifth of a cubic_sine search
            try:
                out = [fn(yi) for yi in entries]
            except (OverflowError, ValueError):
                out = [at(yi) for yi in entries]
            return np.array(out, dtype=float).reshape(y.shape)

        return cls(block)

    @classmethod
    def network(cls, net: Ffnn) -> "Nonlinearity":
        # ffnn_eval is looked up at call time, so a wrapper installed on this
        # module after the loop was built still sees every evaluation
        return cls(lambda y: ffnn_eval(net, y))

    @classmethod
    def gain(cls, mat) -> "Nonlinearity":
        mat = as_matrix(mat, "gain")
        return cls(lambda y: mat @ y, mat)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return self.block(y)


def _cubic_sine(y: float) -> float:
    return -1.5 * y + 0.01 * y**3 + math.sin(2.0 * y)


@dataclass(frozen=True)
class BuiltinNonlinearity:
    """A scalar feedback with its declared design sector."""

    phi: Nonlinearity
    sector_lower: float
    sector_upper: float


BUILTIN_NONLINEARITIES = {
    "cubic_sine": BuiltinNonlinearity(Nonlinearity.scalar(_cubic_sine, "cubic_sine"), -2.0, -0.48),
}


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step integrator settings."""

    dt: float = 1e-3
    horizon: float = 20.0

    def __post_init__(self):
        if not 0 < self.dt <= self.horizon < math.inf:
            raise InputError(
                "dt and horizon must satisfy 0 < dt <= horizon < inf; "
                f"got dt={self.dt!r}, horizon={self.horizon!r}"
            )


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled solution; truncated early if the state blew up."""

    times: np.ndarray
    states: np.ndarray
    blowup_time: float | None = None

    @property
    def initial_peak(self) -> float:
        return float(np.abs(self.states[0]).max())

    @property
    def final_peak(self) -> float:
        return float(np.abs(self.states[-1]).max())


@dataclass(frozen=True)
class ColumnPeaks:
    """What classification reads of one block column: the largest state
    entry magnitude at the start and at the last step, and the blow-up time."""

    initial_peak: float
    final_peak: float
    blowup_time: float | None = None


@dataclass(frozen=True)
class TrajectoryBlock:
    """Columns integrated together, kept without state histories.

    Column ``i * T + t`` starts from the t-th of T initial states under the
    i-th delta.  ``times`` runs to the horizon, or to the step at which the
    last live column blew up.
    """

    times: np.ndarray
    columns: tuple[ColumnPeaks, ...]


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
    x0,
) -> Trajectory | TrajectoryBlock:
    """Integrate ``x' = (A + D delta E) x + B phi(C x)`` from ``x0`` with classical RK4.

    ``delta`` is one ``k1 x k2`` matrix or an array of shape ``(D, k1, k2)``,
    and ``x0`` is one state or an array of shape ``(T, n)``.  One matrix and
    one state give a Trajectory with its full state history.  Otherwise each
    (delta, state) pair is a column of one block, integrated together, and
    the result is a TrajectoryBlock, whose columns are each bit-identical to
    that delta and state run alone.

    A column halts, and leaves the block, once its state magnitude is
    infinite or exceeds the blowup bound.  A NaN state in any live column
    raises NonFiniteStateError at the earliest time it appears, even where
    a run of the block's other columns alone would not have reached it.
    """
    pert.check_dims(sys.n)
    stacked = isinstance(delta, np.ndarray) and delta.ndim == 3
    deltas = [as_matrix(d, "delta") for d in delta] if stacked else [as_matrix(delta, "delta")]
    shape = delta.shape[1:] if stacked else deltas[0].shape
    if shape != (pert.k1, pert.k2):
        raise DimensionMismatchError(f"delta must be {pert.k1}x{pert.k2}, got {shape}")
    single = not stacked and np.ndim(x0) < 2
    x0s = np.atleast_2d(np.asarray(x0, dtype=float))
    if x0s.ndim != 2 or x0s.shape[1] != sys.n:
        raise DimensionMismatchError(
            f"x0 must hold states of {sys.n} entries, got shape {np.shape(x0)}"
        )
    if not np.isfinite(x0s).all():
        raise InputError("x0 must be finite")
    # phi maps p outputs to m inputs; a gain shows it by its matrix, with no call
    maps = phi.mat.shape[::-1] if phi.mat is not None else (sys.p, len(phi(np.zeros((sys.p, 1)))))
    if maps != (sys.p, sys.m):
        raise DimensionMismatchError(
            "the nonlinearity and the plant need matching input/output counts: "
            f"phi maps {maps[0]} -> {maps[1]}, the plant needs {sys.p} -> {sys.m}"
        )

    dt = cfg.dt
    steps = int(round(cfg.horizon / dt))
    drifts = [sys.a + pert.d @ d @ pert.e for d in deltas]
    if phi.mat is not None:
        # For a linear field the four RK4 stages telescope into one constant
        # step matrix: the degree-4 Taylor polynomial of expm(h).
        mats = []
        for drift in drifts:
            h = dt * (drift + sys.b @ phi.mat @ sys.c)
            mats.append(np.eye(sys.n) + h + h @ h / 2.0 + h @ h @ h / 6.0 + h @ h @ h @ h / 24.0)
        advance = np.matmul  # (m, x) -> the state one step on
    else:
        mats = drifts
        b = sys.b
        c = sys.c
        half, sixth = 0.5 * dt, dt / 6.0

        def deriv(x, m):
            u = phi(np.matmul(c, x)[..., 0].T)
            return np.matmul(m, x) + np.matmul(b, u.T[..., None])

        def advance(m, x):
            k1 = deriv(x, m)
            k2 = deriv(x + half * k1, m)
            k3 = deriv(x + half * k2, m)
            k4 = deriv(x + dt * k3, m)
            return x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    # Column i * T + t runs delta i from state t, held as a (K, n, 1) stack.
    # The products are stacked matrix-vector products, ``np.matmul(m, x)``:
    # one (n, K) matrix product would differ from a column's run alone in the
    # last bits.
    x = np.tile(x0s, (len(mats), 1))
    initial = np.abs(x).max(axis=1)
    x = x.reshape(-1, sys.n, 1)
    m = np.repeat(np.array(mats).reshape(-1, sys.n, sys.n), len(x0s), axis=0)
    live = np.arange(len(x))
    final = np.empty(len(x))
    blowup = [None] * len(x)
    if single:
        states = np.empty((steps + 1, sys.n))
        states[0] = x[0, :, 0]
    bound_sq = BLOWUP_BOUND**2  # 1e18, exact
    last = 0
    while live.size and last < steps:
        last += 1
        x = advance(m, x)
        if single:
            states[last] = x[0, :, 0]
        # one call instead of abs and max: a sum of squares within the
        # bound's square leaves every entry within the bound; a NaN, an
        # infinity, an overflow, or columns whose squares add past the
        # bound's square without any entry past the bound, take the exact
        # check below
        if np.vdot(x, x) <= bound_sq:
            continue
        peaks = np.abs(x).max(axis=(1, 2))
        if np.isnan(peaks).any():
            raise NonFiniteStateError(f"state became NaN at t = {last * dt:g}")
        out = peaks > BLOWUP_BOUND
        if not out.any():
            continue
        final[live[out]] = peaks[out]
        for col in live[out]:
            blowup[col] = last * dt
        live, x, m = live[~out], x[~out], m[~out]
    final[live] = np.abs(x).max(axis=(1, 2))
    times = np.arange(last + 1) * dt
    if single:
        return Trajectory(times, states[: last + 1], blowup_time=blowup[0])
    return TrajectoryBlock(times, tuple(map(ColumnPeaks, initial.tolist(), final.tolist(), blowup)))


def classify_stability(traj: Trajectory | ColumnPeaks) -> StabilityVerdict:
    """Label a trajectory, or a block column, by its final-to-initial magnitude ratio.

    Blowup or a ratio above ``GROWTH_THRESHOLD`` is Unstable; a ratio below
    ``DECAY_THRESHOLD`` is Stable; anything between is Inconclusive (the
    horizon was too short to tell).
    """
    initial = traj.initial_peak
    if initial == 0.0:
        raise ZeroInitialStateError("cannot classify a trajectory started at the origin")
    ratio = traj.final_peak / initial
    if traj.blowup_time is not None or ratio >= GROWTH_THRESHOLD:
        return StabilityVerdict("Unstable", ratio, traj.blowup_time)
    if ratio <= DECAY_THRESHOLD:
        return StabilityVerdict("Stable", ratio, None)
    return StabilityVerdict("Inconclusive", ratio, None)


def _trial_batch(sys, phi, pert, cfg, trials: int, seed: int):
    """Per-trial verdicts of one seeded batch of initial states, by perturbation size.

    The batch is ``trials`` states drawn uniformly from the unit box, and
    the perturbation runs along the all-ones pattern normalized in the
    structure's norm (nonnegative directions are extremal for positive
    structures).  The returned function integrates every (delta, trial)
    pair of a list of deltas as one block and yields, per delta, the list
    of its trials' verdicts.
    """
    if seed < 0 or trials < 0:
        raise InputError(f"seed and trials must be nonnegative; got seed={seed}, trials={trials}")
    x0s = np.random.default_rng(seed).uniform(0.0, 1.0, size=(trials, sys.n))
    ones = np.ones((pert.k1, pert.k2))
    direction = ones / operator_norm(ones, pert.norm)
    cfg = cfg or SimConfig()

    def verdicts(deltas: list[float]) -> list[list[StabilityVerdict]]:
        stack = np.multiply.outer(np.array(deltas, dtype=float), direction)
        block = simulate_lure(sys, phi, pert, stack, cfg, x0s)
        labels = [classify_stability(column) for column in block.columns]
        return [labels[i * trials : (i + 1) * trials] for i in range(len(deltas))]

    return verdicts


def _midpoints(lo: float, hi: float, tol: float, depth: int) -> list[float]:
    """Every midpoint that the next ``depth`` bisection steps of ``[lo, hi]`` can visit."""
    mid = 0.5 * (lo + hi)
    if depth == 0 or not (hi - lo > tol and lo < mid < hi):
        return []
    return [mid] + _midpoints(lo, mid, tol, depth - 1) + _midpoints(mid, hi, tol, depth - 1)


def _block_depth(lo: float, hi: float, tol: float, cap: int) -> int:
    """Bisection steps for the next search block: the steps left until the
    bracket is within ``tol``, split evenly into the fewest blocks of at
    most ``cap`` steps."""
    steps, width = 0, hi - lo
    while width > tol:  # halving, not log2(width / tol), which overflows for a subnormal tol
        steps += 1
        width *= 0.5
    blocks = -(-steps // cap)
    return -(-steps // blocks)


@dataclass(frozen=True)
class CriticalDelta:
    delta_star: float
    bracket: tuple[float, float]


def find_critical_delta(
    sys: LtiSystem,
    phi: Nonlinearity,
    pert: PerturbationStructure,
    delta_max: float = 1.0,
    tol: float = 0.01,
    cfg: SimConfig | None = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> CriticalDelta:
    """Smallest perturbation magnitude at which some trial goes unstable.

    Phase 1 probes delta = 0 and ``delta_max * 2**-j``, j = 8, ..., 0, as one
    block and takes the first level at which a trial is classified Unstable;
    phase 2 bisects the bracket down to ``tol``, or to adjacent floats.  When
    a bisection step needs a midpoint not yet integrated, one block integrates
    every midpoint that the next ``depth`` steps can visit, so the bracket is
    the one plain bisection finds.  With S steps left until the bracket is
    within ``tol`` and a cap of ``SPECULATIVE_DEPTH`` steps per block,
    ``blocks = ceil(S / cap)`` and ``depth = ceil(S / blocks)``: 8 steps take
    blocks of depth 3, 3 and 2.  A single-trial search of a nonlinear loop
    has the cap ``NARROW_SPECULATIVE_DEPTH``, so 8 steps take two blocks of
    depth 4 (15 deltas each).  Inconclusive verdicts count as not-unstable,
    so the result upper-bounds the true threshold.  The same seeded batch of
    nonnegative initial states is reused at every delta.
    """
    if not 0 < delta_max < math.inf:
        raise InputError(f"delta_max must be positive and finite; got {delta_max!r}")
    if not tol > 0:
        raise InputError(f"tol must be positive; got {tol!r}")
    verdicts = _trial_batch(sys, phi, pert, cfg, trials, seed)

    def unstable(deltas: list[float]) -> list[bool]:
        return [any(v.label == "Unstable" for v in batch) for batch in verdicts(deltas)]

    levels = [delta_max * 2.0**-j for j in range(GEOMETRIC_LEVELS, -1, -1)]
    at_zero, *rising = unstable([0.0] + levels)
    if at_zero:
        raise UnstableAtZeroError("a trial trajectory is unstable at delta = 0")
    lo = 0.0
    hi = None
    for delta, is_unstable in zip(levels, rising):
        if is_unstable:
            hi = delta
            break
        lo = delta
    if hi is None:
        raise NoInstabilityError(largest_delta=delta_max)
    # A block step costs a fixed overhead plus a share per column.  A fourth
    # step per block saves blocks for 8 more deltas each, which pays only
    # where the overhead, the phi calls of a nonlinear loop, outweighs one
    # trial's columns: a gain loop's step and a wide block's grow with width.
    cap = NARROW_SPECULATIVE_DEPTH if trials == 1 and phi.mat is None else SPECULATIVE_DEPTH
    outcome = {}
    # adjacent floats end the bisection too: no midpoint lies strictly between them
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if mid not in outcome:
            mids = _midpoints(lo, hi, tol, _block_depth(lo, hi, tol, cap))
            outcome = dict(zip(mids, unstable(mids)))
        if outcome[mid]:
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
    cfg: SimConfig | None = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> list[SweepRow]:
    """Classify a seeded batch of trajectories at each perturbation size.

    Rows come out sorted by delta then trial index, ready for the CSV
    writer; identical seeds and configs reproduce them exactly.
    """
    verdicts = _trial_batch(sys, phi, pert, cfg, trials, seed)
    deltas = [float(delta) for delta in deltas]
    return [
        SweepRow(delta, trial, seed, verdict.label, verdict.decay_ratio, verdict.blowup_time)
        for delta, batch in zip(deltas, verdicts(deltas))
        for trial, verdict in enumerate(batch)
    ]


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
