"""Fixed-step integration of perturbed feedback loops and threshold search.

The loop is ``x' = (A + D delta E) x + B phi(C x)`` with a static
nonlinearity ``phi``.  One RK4 engine integrates a single trajectory, with
its state history, or a block of columns, one per (delta, initial state)
pair, keeping each column's initial, halfway and final magnitude and its
blow-up time.  Classification reads a column's growth rate: the log of its
final over its halfway magnitude per unit time, or of its blow-up magnitude
over its initial one per unit time up to the blow-up.  A blow-up or a rate
above ``RES`` is Unstable, a rate below ``-RES`` Stable, anything between
Inconclusive.

Each RK4 step is telescoped into matrices computed once per delta, so that
a step costs a few stacked products rather than a dozen small numpy calls
per stage.  A gain loop's step is one matrix, ``P = _taylor4(h)`` for ``h =
dt (A + D delta E + B K C)``, so its state after k steps is ``P^k x0``.  A
single trajectory steps by ``P`` to keep its history.  A block builds, for
one delta at a time, the ladder ``P^(2^j)`` by repeated squaring, with the
bounds ``N_0 = ||P||``, ``N_{j+1} = N_j max(1, ||P^(2^j)||)`` (inf-norms),
so that ``N_j >= ||P^k||`` for every ``k <= 2^j``.  Each jumping column
then jumps greedily toward the halfway step and then toward the end: by the
largest ``2^j`` steps that fit, provided ``N_j ||x|| <= JUMP_BOUND``, just
under ``BLOWUP_BOUND``.  No step inside such a jump can pass the bound.
Where no jump qualifies, the column takes one step of ``P`` under the
blow-up and NaN rules of stepping, so it blows up, or raises, at the step
stepping does.  A column of 4,000 steps that stays well under the bound
takes 14 products, two per set bit of 2,000, instead of 4,000.

A nonlinear loop steps ``x' = M x + B phi(C x)``, with the drift ``M = A +
D delta E``.  A step makes four calls of ``phi``; for ``h = dt M``, stage
j's input to it is ``R_j x + G_j [u_1; ...; u_{j-1}]`` and the step is ``P x
+ Q [u_1; ...; u_4]``, where

    R = [C; C + Ch/2; C + Ch/2 + Ch^2/4; C + Ch + Ch^2/2 + Ch^3/4],
    G_2 = (dt/2) CB,  G_3 = [(dt/4) ChB, (dt/2) CB],
    G_4 = [(dt/4) Ch^2B, (dt/2) ChB, dt CB],  P = _taylor4(h),
    Q = (dt/6) [B + hB + h^2B/2 + h^3B/4, 2B + hB + h^2B/2, 2B + hB, B]

(``_stage_matrices``).  That is five stacked products per step, ``[R; P]
x``, ``G_2``, ``G_3``, ``G_4`` and ``Q``, against twelve stage by stage, and
``phi`` takes the engine's ``(K, p, 1)`` stack with no transposes.  It
agrees with stage-by-stage RK4 up to rounding in the last bits.

Some network loops are gain loops in the nonnegative orthant.  A zero-bias
ReLU network with one input, or with nonnegative weights, is one matrix K
there: ``pi(y) = K y`` for every ``y >= 0`` (``Nonlinearity.orthant``).
Take ``W = [R; P]`` of the gain loop of K, for ``h = dt (A + D delta E + B
K C)``, finite and ``>= 0``.  For one step from ``x >= 0``, by induction
over the stages: where stages 1 to j-1 of the network loop equal those of
the gain loop, stage j's input is the gain loop's, ``R_j x >= 0``, where
``pi`` is K, so stage j equals the gain loop's too.  The step is then ``P x
>= 0``, and the next starts in the orthant again: the RK4 recursion is the
gain loop's.

The column contract: column (delta i, state t) of a block jumps by powers
of delta i's P where ``phi`` is a gain, or where ``phi.orthant`` is K,
state t is ``>= 0`` and delta i's W is finite and ``>= 0``; every other
column steps.  Its engine thus depends on its own delta and state alone, so
it is bit-identical to its run as a one-column block.  A stepping column
equals its single trajectory bit for bit; a jumping one agrees with it in
its blow-up time and verdict, and in its peaks, rate and ``decay_ratio`` up
to rounding in the last bits.

A stepping column settles once a step leaves its state bit for bit as it
was (compared as integers, so a zero that flips its sign has not).  Its step
is a fixed function of its own state and its delta's matrices, so every
later state is that one: it leaves the block as having reached the horizon,
its current peak its final one, and its halfway one if step ``steps // 2``
is still ahead.  The check is gated on the sum of squares of the block's
states that the blow-up rule computes anyway: each live column is compared
with its previous state only at a step that leaves that sum as it was.  So
a column that never stands still, near the crossing, keeps the others of
its block stepping, and a stepping block costs up to its last settle,
blow-up or horizon.

A sweep integrates all its (delta, trial) columns as one block, and the
critical-perturbation search integrates each of its probe sets as one block
(``find_critical_delta`` describes the search).
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
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
from .ffnn import RELU, Ffnn, ffnn_eval
from .linalg import as_matrix, operator_norm
from .radius import LtiSystem, PerturbationStructure

RES = 0.003  # growth rates within +-RES per unit time are Inconclusive
BLOWUP_BOUND = 1e9
# a gain-loop jump needs its norm bound times the state's peak within this;
# the margin under BLOWUP_BOUND covers the rounding gap between jumped and
# stepped states
JUMP_BOUND = BLOWUP_BOUND * (1.0 - 1e-9)
DEFAULT_TRIALS = 10
DEFAULT_SEED = 42
GEOMETRIC_LEVELS = 8
SPECULATIVE_DEPTH = 3  # most bisection steps that one search block resolves
NARROW_SPECULATIVE_DEPTH = 4  # the same for a single-trial nonlinear search
PREDICTION_PROBES = 5  # deltas integrated around a predicted crossing


@dataclass(frozen=True, eq=False)
class Nonlinearity:
    """Static feedback ``u = phi(y)``.

    ``block`` maps a ``(K, p, 1)`` stack, the form the RK4 engine holds its
    stage outputs in, to a ``(K, m, 1)`` stack; entry k of the result depends
    only on entry k of ``y``.  ``mat`` is a linear feedback's gain matrix,
    else None.  ``net`` is None, or, set by ``network`` alone, the network
    that ``phi`` evaluates, from which ``orthant`` derives its matrix.
    """

    block: Callable[[np.ndarray], np.ndarray]
    mat: np.ndarray | None = None
    net: Ffnn | None = field(default=None, init=False)

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
        """The network ``pi`` as feedback, with the network itself, for ``orthant``."""
        # ffnn_eval is looked up at call time, so a wrapper installed on this
        # module after the loop was built still sees every evaluation
        phi = cls(lambda y: ffnn_eval(net, y))
        object.__setattr__(phi, "net", net)
        return phi

    @classmethod
    def gain(cls, mat) -> "Nonlinearity":
        mat = as_matrix(mat, "gain")
        return cls(lambda y: mat @ y, mat)

    @functools.cached_property
    def orthant(self) -> np.ndarray | None:
        """The ``m x p`` matrix K with ``phi(y) = K y`` for every ``y >= 0``,
        where positivity shows one, else None.  A block column from a state
        ``>= 0`` whose delta's gain loop of K has a finite ``W >= 0`` jumps
        as that gain loop (the column contract in the module docstring).

        A zero-bias ReLU network is positively homogeneous, so with one
        input ``pi(y) = y pi(1)``; with nonnegative weights, every
        pre-activation of a nonnegative input is nonnegative, so each ReLU
        is the identity and ``pi`` is linear there.  K's columns are
        ``pi(e_j)``; a K that is not finite is None.  Only a block asks for
        K, so loading a network problem does not compute it.
        """
        net = self.net
        if net is None:
            return None
        layers = (*net.hidden, net.output)
        if (net.activation.fn is not RELU.fn or any(layer.b.any() for layer in layers)
                or not (net.input_dim == 1 or all((layer.w >= 0).all() for layer in layers))):
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            k = ffnn_eval(net, np.eye(net.input_dim)[:, :, None])[:, :, 0].T
        return k if np.isfinite(k).all() else None

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
        # a dt so small that horizon / dt overflows leaves no step count
        if not (0 < self.dt <= self.horizon < math.inf and self.horizon / self.dt < math.inf):
            raise InputError(
                "dt and horizon must satisfy 0 < dt <= horizon < inf and horizon / dt < inf; "
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

    @property
    def rate(self) -> float:
        """Growth rate, read from the history as a block column reads it."""
        half = (len(self.times) - 1) // 2
        return _growth_rate(
            self.initial_peak, float(np.abs(self.states[half]).max()), self.final_peak,
            float(self.times[half]), float(self.times[-1]), self.blowup_time,
        )


def _growth_rate(initial, mid, final, t_mid, t_end, blowup_time) -> float:
    """``ln(final / mid) / (t_end - t_mid)``, or ``ln(final / initial) /
    blowup_time`` for a blown-up state.  A state that underflowed to the
    origin has the rate ``-inf``; one that blew up to ``inf``, ``+inf``."""
    start, span = (initial, blowup_time) if blowup_time is not None else (mid, t_end - t_mid)
    if final == 0.0:
        return -math.inf
    if start == 0.0:
        return math.inf
    return (math.log(final) - math.log(start)) / span


@dataclass(frozen=True)
class ColumnPeaks:
    """What classification reads of one block column: the largest state
    entry magnitude at the start and at the last step, the growth rate, and
    the blow-up time."""

    initial_peak: float
    final_peak: float
    rate: float
    blowup_time: float | None = None


@dataclass(frozen=True)
class TrajectoryBlock:
    """Columns integrated together, kept without state histories.

    Column ``i * T + t`` starts from the t-th of T initial states under the
    i-th delta.  The block ran to step ``last``: the horizon's, where some
    column reached it or settled (the module docstring), or else the one at
    which the last live column blew up.  ``times`` is built only when read,
    so a block of many steps allocates no grid.
    """

    columns: tuple[ColumnPeaks, ...]
    last: int
    dt: float

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.last + 1) * self.dt


@dataclass(frozen=True)
class StabilityVerdict:
    label: str  # "Stable" | "Unstable" | "Inconclusive"
    decay_ratio: float
    rate: float
    blowup_time: float | None = None


def _taylor4(h: np.ndarray) -> np.ndarray:
    """``I + h + h^2/2 + h^3/6 + h^4/24``, the degree-4 Taylor polynomial of
    ``expm(h)``: the RK4 step matrix of ``x' = (h / dt) x``."""
    return np.eye(len(h)) + h + h @ h / 2.0 + h @ h @ h / 6.0 + h @ h @ h @ h / 24.0


def _stage_matrices(h, b, c, dt: float) -> tuple[np.ndarray, ...]:
    """``(W, G_2, G_3, G_4, Q)`` of one telescoped RK4 step of ``x' = M x + b
    phi(c x)``, for ``h = dt M`` (see the module docstring); ``W`` stacks
    ``R`` over ``P``, so that one product gives both."""
    hb = h @ b
    h2b = h @ hb
    ch = c @ h
    ch2 = ch @ h
    cb, chb = c @ b, ch @ b
    w = np.vstack([
        c, c + ch / 2.0, c + ch / 2.0 + ch2 / 4.0, c + ch + ch2 / 2.0 + ch2 @ h / 4.0, _taylor4(h),
    ])
    g2 = dt / 2.0 * cb
    g3 = np.hstack([dt / 4.0 * chb, dt / 2.0 * cb])
    g4 = np.hstack([dt / 4.0 * (ch2 @ b), dt / 2.0 * chb, dt * cb])
    q = dt / 6.0 * np.hstack([
        b + hb + h2b / 2.0 + h @ h2b / 4.0, 2.0 * b + hb + h2b / 2.0, 2.0 * b + hb, b,
    ])
    return w, g2, g3, g4, q


# An overflow in the step matrices or in a step shows in the state, where the
# blow-up and NaN rules take it; it need not warn too.
@np.errstate(over="ignore", invalid="ignore")
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
    one state give a Trajectory with its full state history, which steps:
    by ``P`` for a gain loop, by its stages otherwise.  Otherwise each
    (delta, state) pair is a column of one block, and the result is a
    TrajectoryBlock whose columns keep the module docstring's column
    contract: each jumps or steps by its own delta and state.

    A column halts, and leaves the block, once its state magnitude is
    infinite or exceeds the blowup bound.  A stepping column that settles
    leaves it too, as having reached the horizon, and a single trajectory
    that settles keeps its settled state to the horizon.  A NaN state in any
    live column raises NonFiniteStateError at the earliest time it appears,
    even where a run of the block's other columns alone would not have
    reached it.  A ``dt`` too small for the loop's diagonal raises
    InputError (``_step_arguments``).
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
    if phi.mat is not None:
        maps = phi.mat.shape[::-1]
    else:
        maps = (sys.p, phi(np.zeros((1, sys.p, 1))).shape[1])
    if maps != (sys.p, sys.m):
        raise DimensionMismatchError(
            "the nonlinearity and the plant need matching input/output counts: "
            f"phi maps {maps[0]} -> {maps[1]}, the plant needs {sys.p} -> {sys.m}"
        )

    dt = cfg.dt
    steps = int(round(cfg.horizon / dt))
    trials = len(x0s)
    drifts = [sys.a + pert.d @ d @ pert.e for d in deltas]
    # column i * T + t, delta i from state t, jumps if i is in powers and t in jumping
    powers, jumping = {}, range(trials)
    if phi.mat is not None:
        # a linear field's four RK4 stages telescope into one step matrix
        bkc = sys.b @ phi.mat @ sys.c
        gain_steps = [_taylor4(h) for h in _step_arguments([m + bkc for m in drifts], dt)]
        if not single:
            powers = dict(enumerate(gain_steps))
    elif not single and phi.orthant is not None:
        jumping = set(np.flatnonzero((x0s >= 0).all(axis=1)).tolist())
        if jumping:
            # where the gain loop of K has a finite W = [R; P] >= 0, a column
            # from a state >= 0 stays where phi is K (see the module docstring)
            bkc = sys.b @ phi.orthant @ sys.c
            for i, h in enumerate(_step_arguments([m + bkc for m in drifts], dt)):
                w = _stage_matrices(h, sys.b, sys.c, dt)[0]
                if (w >= 0).all() and np.isfinite(w).all():
                    powers[i] = w[4 * sys.p:]
    initial = np.tile(np.abs(x0s).max(axis=1), len(deltas))
    midway = steps // 2
    # each column's peaks at step ``midway`` and at its last step, and its blow-up time
    mid, final, blowup = initial.copy(), np.empty(len(initial)), [None] * len(initial)
    # a gain block has no stepping column and a network loop's jumping one
    # stays >= 0, so a NaN that _powered_block raises for is the earliest
    last = _powered_block(powers, x0s, jumping, initial, mid, final, blowup, steps, dt) if powers else 0
    live = np.array([i * trials + t for i in range(len(deltas)) for t in range(trials)
                     if i not in powers or t not in jumping], dtype=int)
    if live.size:  # an all-jumping block builds no stepping matrices
        if phi.mat is not None:
            stacks = (np.array(gain_steps),)
            advance = np.matmul  # (P, x) -> the state one step on
        else:
            # each of W, G_2, G_3, G_4 and Q over the deltas
            stacks = [np.array(group) for group in zip(*(
                _stage_matrices(h, sys.b, sys.c, dt) for h in _step_arguments(drifts, dt)))]
            p, m = sys.p, sys.m
            s1, s2, s3, s4 = (slice(j * p, (j + 1) * p) for j in range(4))
            s5 = slice(4 * p, None)
            o1, o2, o3, o4 = (slice(j * m, (j + 1) * m) for j in range(4))
            # each column's buffer for [u_1; ...; u_4], the phi outputs of its
            # stages, which leaves the block with the column as its matrices do
            stacks.append(np.empty((len(deltas), 4 * m, 1)))

            def advance(w, g2, g3, g4, q, u, x):
                # the sums add the couplings' products to the stage inputs in
                # place; IEEE addition commutes, so each is z + G u bit for bit
                z = np.matmul(w, x)  # R x, the stage inputs before the couplings, over P x
                u[:, o1] = phi(z[:, s1])
                v = np.matmul(g2, u[:, o1])
                v += z[:, s2]
                u[:, o2] = phi(v)
                v = np.matmul(g3, u[:, :2 * m])
                v += z[:, s3]
                u[:, o3] = phi(v)
                v = np.matmul(g4, u[:, :3 * m])
                v += z[:, s4]
                u[:, o4] = phi(v)
                x = np.matmul(q, u)
                x += z[:, s5]
                return x

        # The stepping columns are a (K, n, 1) stack, each with a copy of its
        # delta's matrices, for stacked matrix-vector products: one (n, K)
        # product would differ from a column's run alone in the last bits.
        x = x0s[live % trials][:, :, None]
        mats = tuple(stack[live // trials] for stack in stacks)
        if single:
            try:
                states = np.empty((steps + 1, sys.n))
            except (ValueError, MemoryError):  # past numpy's largest array, or the memory
                raise InputError(
                    f"dt={dt!r} and horizon={cfg.horizon!r} take {steps:.3g} steps, too many "
                    "to keep a trajectory's state history"
                ) from None
            states[0] = x[0, :, 0]
        bound_sq = BLOWUP_BOUND**2  # 1e18, exact
        done, prev_sq = 0, math.nan
        # the matrices are bound once, not unpacked at every step
        step = functools.partial(advance, *mats)
        while live.size and done < steps:
            done += 1
            prev, x = x, step(x)
            if single:
                states[done] = x[0, :, 0]
            if done == midway:
                mid[live] = np.abs(x).max(axis=(1, 2))
            # one call instead of abs and max: a sum of squares within the
            # bound's square leaves every entry within the bound; a NaN, an
            # overflow, or squares that add past it, take the exact check below
            sq = np.vdot(x, x)
            if sq <= bound_sq:
                # a sum of squares that did not move gates the check for
                # settled columns, whose step left every bit of the state as
                # it was (the column contract in the module docstring)
                if sq != prev_sq:
                    prev_sq = sq
                    continue
                gone = (x.view(np.int64) == prev.view(np.int64)).all(axis=(1, 2))
                if not gone.any():
                    continue
                peaks = np.abs(x[gone]).max(axis=(1, 2))
                if done < midway:
                    mid[live[gone]] = peaks
                last = steps
            else:
                peaks = np.abs(x).max(axis=(1, 2))
                if np.isnan(peaks).any():
                    raise NonFiniteStateError(f"state became NaN at t = {done * dt:g}")
                gone = peaks > BLOWUP_BOUND
                if not gone.any():
                    continue
                peaks = peaks[gone]
                for col in live[gone]:
                    blowup[col] = done * dt
            final[live[gone]] = peaks
            live, x = live[~gone], x[~gone]
            mats = tuple(mat[~gone] for mat in mats)
            step = functools.partial(advance, *mats)
        final[live] = np.abs(x).max(axis=(1, 2))
        last = max(last, done)
        if single:
            states[done + 1 : last + 1] = states[done]  # a settled trajectory stays where it settled
    if single:
        return Trajectory(np.arange(last + 1) * dt, states[: last + 1], blowup_time=blowup[0])
    t_mid, t_end = midway * dt, steps * dt
    return TrajectoryBlock(tuple(
        ColumnPeaks(i, f, _growth_rate(i, h, f, t_mid, t_end, b), b)
        for i, h, f, b in zip(initial.tolist(), mid.tolist(), final.tolist(), blowup)
    ), last, dt)


def _step_arguments(ms, dt: float) -> list[np.ndarray]:
    """``h = dt M`` for each M of ``ms``, as ``_taylor4`` and ``_stage_matrices``
    take it.  A step adds ``h`` to the identity, and rounding ``1 + h_ii``
    moves it by up to ``2**-53``, a growth rate of up to ``2**-53 / dt`` per
    unit time.  So where some M has a nonzero diagonal entry, a ``dt`` at which
    that exceeds ``RES`` is an InputError.  Its extreme case is a diagonal lost
    outright in ``1 + h_ii``, whose step matrix's powers then grow without
    bound where the loop decays.  An entry lost at a larger ``dt`` has
    ``|M_ii| <= 2**-53 / dt <= RES``, so losing it moves a rate by at most
    ``RES`` and is not refused."""
    if 2.0**-53 / dt > RES and any(m_ii for m in ms for m_ii in m.diagonal().tolist()):
        raise InputError(
            f"dt={dt!r} is too small for this loop: rounding 1 + dt * M_ii for a nonzero "
            f"diagonal entry M_ii of its matrix M, or losing it outright, can move a growth "
            f"rate by 2**-53 / dt = {2.0**-53 / dt:.3g} per unit time, more than the resolution {RES}"
        )
    return [dt * m for m in ms]


def _powered_block(powers: dict[int, np.ndarray], x0s: np.ndarray, jumping, initial: np.ndarray,
                   mid: np.ndarray, final: np.ndarray, blowup: list, steps: int, dt: float) -> int:
    """Jump each column ``i * T + t``, for delta i in ``powers`` and state t in
    ``jumping``, by powers of ``powers[i]`` (see the module docstring), into
    its entries of ``mid``, ``final`` and ``blowup``; ``initial`` holds every
    column's initial peak.  Returns the last step that a column reached."""
    trials, n = x0s.shape
    midway = steps // 2
    levels = max(midway, steps - midway).bit_length()
    ladder = np.empty((levels, n, n))  # P^(2^j) of one delta, reused for the next
    last, nan_step = 0, math.inf
    for i, p in powers.items():
        ladder[0] = p
        for j in range(1, levels):
            np.matmul(ladder[j - 1], ladder[j - 1], out=ladder[j])
        norms = np.abs(ladder).sum(axis=2).max(axis=1)
        # N_0 = ||P||, N_{j+1} = N_j max(1, ||P^(2^j)||) bounds ||P^k|| for
        # 1 <= k <= 2^j, since P^(2^j + r) = P^(2^j) P^r; the maximum with
        # ||P^(2^j)|| never takes a level whose own matrix overflowed
        bounds = norms[0] * np.cumprod(np.concatenate(([1.0], np.maximum(1.0, norms[:-1]))))
        reach = np.maximum(norms, bounds).tolist()
        for t in jumping:
            col = i * trials + t
            x, peak, done = x0s[t, :, None], initial[col], 0
            while done < steps:
                # the largest jump that fits the steps left to midway or to
                # the end and cannot pass the bound, else one step of P
                j = ((midway if done < midway else steps) - done).bit_length() - 1
                while j and not reach[j] * peak <= JUMP_BOUND:
                    j -= 1
                x = np.matmul(ladder[j], x)
                done += 1 << j
                peak = float(np.abs(x).max())
                if done == midway:
                    mid[col] = peak
                if not peak <= BLOWUP_BOUND:
                    if math.isnan(peak):
                        nan_step = min(nan_step, done)
                    else:
                        blowup[col] = done * dt
                    break
            final[col] = peak
            last = max(last, done)
    if nan_step < math.inf:
        raise NonFiniteStateError(f"state became NaN at t = {nan_step * dt:g}")
    return last


def classify_stability(traj: Trajectory | ColumnPeaks) -> StabilityVerdict:
    """Label a trajectory, or a block column, by its growth rate.

    The rate is ``ln(final / halfway peak)`` per unit time over the second
    half of the horizon, or ``ln(final / initial peak) / blowup_time`` for a
    state that blew up.  A blow-up or a rate above ``RES`` is Unstable; a
    rate below ``-RES`` is Stable; anything between is Inconclusive (the
    loop sits too close to the stability boundary to tell at this
    resolution).  The verdict also carries the final-to-initial magnitude
    ratio as ``decay_ratio``.
    """
    initial = traj.initial_peak
    if initial == 0.0:
        raise ZeroInitialStateError("cannot classify a trajectory started at the origin")
    ratio = traj.final_peak / initial
    rate = traj.rate
    if traj.blowup_time is not None or rate > RES:
        return StabilityVerdict("Unstable", ratio, rate, traj.blowup_time)
    if rate < -RES:
        return StabilityVerdict("Stable", ratio, rate, None)
    return StabilityVerdict("Inconclusive", ratio, rate, None)


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


def _rate_crossing(deltas, rates, lo: float, hi: float) -> float | None:
    """Where the quadratic through three (delta, rate) points reaches ``RES``
    inside ``(lo, hi)``.  None unless the rates are finite and each rises by
    more than ``RES``, the resolution of a rate, over the one before: a loop
    that settles to a nonzero equilibrium has rates of about 0 until it
    blows up, and no fit of them says where."""
    if not (all(map(math.isfinite, rates))
            and rates[0] + RES < rates[1] and rates[1] + RES < rates[2]):
        return None
    coef = np.polyfit(deltas, rates, 2)
    coef[-1] -= RES
    roots = [float(z.real) for z in np.roots(coef) if z.imag == 0 and lo < z.real < hi]
    return min(roots, default=None)


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

    The result is a bracket ``(lo, hi)`` with ``hi - lo <= tol`` (or ``lo``
    and ``hi`` adjacent floats), no trial Unstable at ``lo`` and some trial
    Unstable at ``hi``; ``delta_star`` is its midpoint.  Inconclusive
    verdicts count as not-unstable, so the bracket sits where the largest
    trial growth rate passes ``RES``, just above the true threshold.

    Phase 1 probes delta = 0 and ``delta_max * 2**-j``, j = 8, ..., 0, as one
    block and takes the first level at which a trial is Unstable.  Phase 2
    predicts: when the largest trial rates at the three points that end at
    that level are finite and each rises by more than ``RES``, the quadratic
    through them reaches ``RES`` at some delta inside the bracket, and one
    block integrates ``PREDICTION_PROBES`` deltas just under ``tol`` apart
    centred on it.  The bracket narrows to the smallest unstable probe and the probe
    (or bracket end) just below it, which is within ``tol`` whenever the
    probes straddle the crossing.  Phase 3 bisects whatever bracket is still
    wider than ``tol``, down to ``tol`` or to adjacent floats.  When a
    bisection step needs a midpoint not yet integrated, one block integrates
    every midpoint that the next ``depth`` steps can visit, so the bracket is
    the one plain bisection of the phase 3 bracket finds.  With S steps left
    and a cap of ``SPECULATIVE_DEPTH`` steps per block,
    ``blocks = ceil(S / cap)`` and ``depth = ceil(S / blocks)``: 8 steps take
    blocks of depth 3, 3 and 2.  A single-trial search of a nonlinear loop
    has the cap ``NARROW_SPECULATIVE_DEPTH``, so 8 steps take two blocks of
    depth 4 (15 deltas each).  The same seeded batch of nonnegative initial
    states is reused at every delta.
    """
    if not 0 < delta_max < math.inf:
        raise InputError(f"delta_max must be positive and finite; got {delta_max!r}")
    if not tol > 0:
        raise InputError(f"tol must be positive; got {tol!r}")
    verdicts = _trial_batch(sys, phi, pert, cfg, trials, seed)

    def probe(deltas: list[float]) -> tuple[list[bool], list[float]]:
        """Per delta: whether any trial is Unstable, and the largest trial rate."""
        batches = verdicts(deltas)
        return ([any(v.label == "Unstable" for v in batch) for batch in batches],
                [max((v.rate for v in batch), default=-math.inf) for batch in batches])

    levels = [0.0] + [delta_max * 2.0**-j for j in range(GEOMETRIC_LEVELS, -1, -1)]
    unstable, rates = probe(levels)
    if unstable[0]:
        raise UnstableAtZeroError("a trial trajectory is unstable at delta = 0")
    if True not in unstable:
        raise NoInstabilityError(largest_delta=delta_max)
    first = unstable.index(True)
    lo, hi = levels[first - 1], levels[first]
    # Probes ``step`` apart differ by at most ``step`` plus an ulp of ``hi``
    # once rounded, so any two neighbours bracket within ``tol``.
    step = tol - 2.0 * math.ulp(hi)
    guess = None if first < 2 or step <= 0 else _rate_crossing(
        levels[first - 2 : first + 1], rates[first - 2 : first + 1], lo, hi
    )
    if guess is not None:
        offsets = range(-(PREDICTION_PROBES // 2), PREDICTION_PROBES // 2 + 1)
        probes = sorted({p for k in offsets if lo < (p := guess + k * step) < hi})
        for delta, is_unstable in zip(probes, probe(probes)[0]):
            if is_unstable:
                hi = delta
                break
            lo = delta
    # The cap of four for a single-trial nonlinear search was measured when
    # every nonlinear block stepped to the horizon: a stepping block's step
    # costs a fixed overhead, its phi calls, plus a share per column, and a
    # fourth step per block saves blocks for 8 more deltas each.  Now that a
    # block stops at its last settle, blow-up or horizon, caps 2, 3, 4, 5
    # and 7 took 50, 46, 47, 47 and 65 ms on the benchmark's cubic_sine
    # search, with the same bracket, so four stays.  A network loop's
    # columns jump where they stay in the orthant (example_b's single-trial
    # search among them), and a jumping block's cost, one ladder per delta
    # and a few products per column, grows with width.  The benchmark's two
    # gain searches end in the prediction phase, before any bisection block;
    # caps 1 to 4 gave the same brackets and times within noise there, so
    # gain loops keep three.
    cap = NARROW_SPECULATIVE_DEPTH if trials == 1 and phi.mat is None else SPECULATIVE_DEPTH
    outcome = {}
    # adjacent floats end the bisection too: no midpoint lies strictly between them
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if mid not in outcome:
            mids = _midpoints(lo, hi, tol, _block_depth(lo, hi, tol, cap))
            outcome = dict(zip(mids, probe(mids)[0]))
        if outcome[mid]:
            hi = mid
        else:
            lo = mid
    lo, hi = float(lo), float(hi)
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

    Rows come out in the order of ``deltas``, ``trials`` rows per delta in
    trial order, ready for the CSV writer; identical seeds and configs
    reproduce them exactly.
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
