"""Fixed-step integration of perturbed feedback loops and threshold search.

The loop is ``x' = (A + D delta E) x + B phi(C x)`` with a static
nonlinearity ``phi``.  One RK4 engine integrates a block of columns, one
per (delta, initial state) pair, keeping each column's initial, halfway
and final magnitude and its blow-up time, and no state history.
Classification reads a column's growth rate: the log of its final over
its halfway magnitude per unit time, or of its blow-up magnitude over its
initial one per unit time up to the blow-up.  A blow-up or a rate above
``RES`` is Unstable, a rate below ``-RES`` Stable, anything between
Inconclusive.

Each RK4 step is telescoped into matrices computed once per delta, so that
a step costs a few stacked products rather than a dozen small numpy calls
per stage.  A gain loop's step is one matrix, ``P = _taylor4(h)`` for ``h =
dt (A + D delta E + B K C)``, so its state after k steps is ``P^k x0``.  A
block builds the ladder ``P^(2^j)`` of all its deltas at once, one stacked
squaring per level, with the bounds ``N_0 = ||P||``, ``N_{j+1} = N_j max(1,
||P^(2^j)||)`` (inf-norms), so that ``N_j >= ||P^k||`` for every ``k <=
2^j``.  Each jumping column jumps greedily toward the halfway step and then
toward the end: by the largest ``2^j`` steps that fit, provided ``N_j ||x||
<= JUMP_BOUND``, just under ``BLOWUP_BOUND``.  No step inside such a jump
can pass the bound.  Where no jump qualifies, the column takes one step of
``P`` under the blow-up and NaN rules of stepping, so it blows up, or
raises, at the step stepping does.  The columns jump in lockstep, by
stacked products: any number of them, of 4,000 steps well under the bound,
take 12 products, two per set bit of 2,000.

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
agrees with stage-by-stage RK4 up to rounding in the last bits.  A stepping
block writes every step into one workspace, the buffers of ``[R; P] x``, of
a coupling's product and of ``[u_1; ...; u_4]`` with their stage views,
built with its live columns and rebuilt only when some of them leave it.
Each stage calls a copy of ``phi`` bound to its slot of ``u`` and, past
stage 1, to its ``R_j x``, which it adds to its coupling's product
(``Nonlinearity._into``).  Every stage still runs through
``Nonlinearity.__call__``, and a scalar ``phi`` adds with Python's float
``+``, the same IEEE addition, entry by entry as it writes into the slot.
A step is seven numpy calls: five products, ``Q u + P x`` and the blow-up
rule's ``vdot``.

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
it is bit-identical to its run as a one-column block.  A jumping column
agrees with stepping in its blow-up time and verdict, and in its peaks,
rate and ``decay_ratio`` up to rounding in the last bits.

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
    NonFiniteEntriesError,
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
    # set by ``scalar`` alone: phi's entries of a stack, or of its sum with an addend, in C order
    _entries: Callable[..., list] | None = field(default=None, init=False, repr=False)

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
                if not math.isfinite(y):  # an overflowed input: NaN, for the NaN and blow-up rules
                    return math.nan
                raise InputError(f"nonlinearity {name!r} is undefined at y = {y:g} ({exc})") from None

        def entries(y: np.ndarray, add: np.ndarray | None = None) -> list:
            values = y.ravel().tolist()
            # guard each call only once some entry raises: guarding every
            # entry made a cubic_sine search and sweep 1-3 % slower
            try:
                if add is None:
                    return [fn(yi) for yi in values]
                # Python's float + is numpy's addition, and gives inf rather than raise
                addend = (add if add.ndim == 1 else add.ravel()).tolist()
                return [fn(a + b) for a, b in zip(values, addend)]
            except (OverflowError, ValueError):
                if add is not None:
                    values = [a + b for a, b in zip(values, addend)]
                return [at(yi) for yi in values]

        phi = cls(lambda y: np.array(entries(y), dtype=float).reshape(y.shape))
        object.__setattr__(phi, "_entries", entries)
        return phi

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

    def _into(self, out: np.ndarray, add: np.ndarray | None = None) -> "Nonlinearity":
        """This feedback bound to the ``(K, m, 1)`` view ``out``: a
        Nonlinearity whose block writes ``phi(y)``, or ``phi(y + add)`` for a
        ``(K, p, 1)`` view ``add``, into ``out`` and returns ``out``.  A
        stepping block calls one per stage slot, so each stage still runs
        through ``__call__``.  A scalar ``phi`` adds and assigns entry by
        entry, through the 1-D view of ``out`` where m is 1 and of ``add``
        where p is 1; any other adds ``add`` into ``y`` in place and copies
        its block's result into ``out``, so a block that returns its input,
        or a view of it, is safe."""
        entries = self._entries
        if entries is None:
            block = self.block

            def write(y: np.ndarray) -> np.ndarray:
                out[...] = block(y if add is None else np.add(y, add, out=y))
                return out
        else:
            flat = out[:, 0, 0] if out.shape[1] == 1 else out.flat
            addend = add[:, 0, 0] if add is not None and add.shape[1] == 1 else add

            def write(y: np.ndarray) -> np.ndarray:
                flat[:] = entries(y, addend)
                return out

        return Nonlinearity(write)


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
    ``expm(h)``: the RK4 step matrix of ``x' = (h / dt) x``, for one ``h`` or a stack."""
    h2 = h @ h
    h3 = h2 @ h
    return np.eye(h.shape[-1]) + h + h2 / 2.0 + h3 / 6.0 + h3 @ h / 24.0


def _stage_inputs(h, c) -> np.ndarray:
    """``R`` of the module docstring for ``h = dt M``, or their stack for a stack of ``h``."""
    c = np.broadcast_to(c, (*h.shape[:-2], *c.shape))
    ch = c @ h
    ch2 = ch @ h
    half = c + ch / 2.0
    return np.concatenate([c, half, half + ch2 / 4.0, c + ch + ch2 / 2.0 + ch2 @ h / 4.0], axis=-2)


def _stage_matrices(h, b, c, dt: float) -> tuple[np.ndarray, ...]:
    """``(W, G_2, G_3, G_4, Q)`` of one telescoped RK4 step of ``x' = M x + b
    phi(c x)``, for ``h = dt M`` (see the module docstring); ``W`` stacks
    ``R`` over ``P``, so that one product gives both.  For a stack of ``h``,
    each is the stack of its matrices."""
    w = np.concatenate([_stage_inputs(h, c), _taylor4(h)], axis=-2)
    b, c = (np.broadcast_to(m, (*h.shape[:-2], *m.shape)) for m in (b, c))
    hb = h @ b
    h2b = h @ hb
    ch = c @ h
    ch2 = ch @ h
    cb, chb = c @ b, ch @ b
    g2 = dt / 2.0 * cb
    g3 = np.concatenate([dt / 4.0 * chb, dt / 2.0 * cb], axis=-1)
    g4 = np.concatenate([dt / 4.0 * (ch2 @ b), dt / 2.0 * chb, dt * cb], axis=-1)
    q = dt / 6.0 * np.concatenate([
        b + hb + h2b / 2.0 + h @ h2b / 4.0, 2.0 * b + hb + h2b / 2.0, 2.0 * b + hb, b,
    ], axis=-1)
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
) -> TrajectoryBlock:
    """Integrate ``x' = (A + D delta E) x + B phi(C x)`` from ``x0`` with classical RK4.

    ``delta`` is one ``k1 x k2`` matrix or an array of shape ``(D, k1, k2)``,
    and ``x0`` is one state or an array of shape ``(T, n)``; one matrix is a
    stack of one, and one state a batch of one.  Each (delta, state) pair
    is a column of the returned TrajectoryBlock, and the columns keep the
    module docstring's column contract: each jumps or steps by its own
    delta and state.

    A column blows up, and leaves the block, once its state magnitude is
    infinite or exceeds the blowup bound, or is NaN where a stage output of
    its step is infinite.  A stepping column that settles leaves it too, as
    having reached the horizon.  Any other NaN state in a live column raises
    NonFiniteStateError at the earliest time it appears, even where a run of
    the block's other columns alone would not have reached it.  A ``dt`` too
    small for the loop's diagonal raises InputError (``_step_arguments``).
    """
    pert.check_dims(sys.n)
    stacked = isinstance(delta, np.ndarray) and delta.ndim == 3
    deltas = np.asarray(delta, dtype=float) if stacked else as_matrix(delta, "delta")[None]
    if not np.isfinite(deltas).all():  # as_matrix's test, once over a whole stack
        raise NonFiniteEntriesError("delta: contains NaN or infinite entries")
    if deltas.shape[1:] != (pert.k1, pert.k2):
        raise DimensionMismatchError(f"delta must be {pert.k1}x{pert.k2}, got {deltas.shape[1:]}")
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
    drifts = sys.a + pert.d @ deltas @ pert.e
    # column i * T + t, delta i from state t, jumps if i is in ``which`` and t in ``jumping``
    which, powers, gain = np.arange(0), None, phi.orthant if phi.mat is None else phi.mat
    jumping = np.arange(trials) if phi.mat is not None else np.flatnonzero((x0s >= 0).all(axis=1))
    if gain is not None and jumping.size:
        # a linear field's four RK4 stages telescope into one step matrix
        h = _step_arguments(drifts + sys.b @ gain @ sys.c, dt)
        powers, which = _taylor4(h), np.arange(len(deltas))
        if phi.mat is None:
            # where the gain loop of K has a finite W = [R; P] >= 0, a column
            # from a state >= 0 stays where phi is K (see the module docstring)
            w = np.concatenate([_stage_inputs(h, sys.c), powers], axis=-2)
            which = np.flatnonzero(((w >= 0) & np.isfinite(w)).all(axis=(1, 2)))
            powers = powers[which]
    initial = np.tile(np.abs(x0s).max(axis=1), len(deltas))
    midway = steps // 2
    # each column's peaks at step ``midway`` and at its last step, and its blow-up time
    mid, final, blowup = initial.copy(), np.empty(len(initial)), [None] * len(initial)
    grid = which[:, None] * trials + jumping  # the jumping columns, a row per delta
    # a gain block has no stepping column and a network loop's jumping one
    # stays >= 0, so a NaN that _powered_block raises for is the earliest
    last = grid.size and _powered_block(powers, grid, x0s, initial, mid, final, blowup, steps, dt)
    live = np.delete(np.arange(len(initial)), grid.ravel())
    if live.size:  # a block whose columns all jump builds no stepping matrices
        # each of W, G_2, G_3, G_4 and Q over the deltas
        stacks = _stage_matrices(_step_arguments(drifts, dt), sys.b, sys.c, dt)
        p, m = sys.p, sys.m

        def stepper(w, g2, g3, g4, q):
            # the step of one live set and its workspace: the buffers of the
            # stage inputs before the couplings over P x, of a coupling's
            # product G_j u and of [u_1; ...; u_4], with their views, and phi
            # bound to each stage's slot of u and past stage 1 to its z_j
            z, v, u = (np.empty((len(w), rows, 1)) for rows in (4 * p + sys.n, p, 4 * m))
            z1, z5 = z[:, :p], z[:, 4 * p :]
            u1, u12, u123 = u[:, :m], u[:, : 2 * m], u[:, : 3 * m]
            phi1 = phi._into(u1)
            phi2, phi3, phi4 = (phi._into(u[:, j * m : (j + 1) * m], z[:, j * p : (j + 1) * p])
                                for j in range(1, 4))

            def advance(x, out):
                np.matmul(w, x, out=z)
                phi1(z1)
                phi2(np.matmul(g2, u1, out=v))
                phi3(np.matmul(g3, u12, out=v))
                phi4(np.matmul(g4, u123, out=v))
                np.matmul(q, u, out=out)
                return np.add(out, z5, out=out)

            return advance, u

        # The stepping columns are a (K, n, 1) stack, each with a copy of its
        # delta's matrices, for stacked matrix-vector products: one (n, K)
        # product would differ from a column's run alone in the last bits.
        x = x0s[live % trials][:, :, None]
        mats = tuple(stack[live // trials] for stack in stacks)
        bound_sq = BLOWUP_BOUND**2  # 1e18, exact
        done, prev_sq = 0, math.nan
        # a step writes the next state into prev's buffer, which then holds
        # the state before it
        (step, stages), prev = stepper(*mats), np.empty_like(x)
        while live.size and done < steps:
            done += 1
            x, prev = step(x, prev), x
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
                nan = np.isnan(peaks)
                if nan.any():
                    # a stage output of +-inf that meets one of the other
                    # sign turns a column NaN as it blows up; any other raises
                    if not np.isinf(stages[nan]).any(axis=(1, 2)).all():
                        raise NonFiniteStateError(f"state became NaN at t = {done * dt:g}")
                    peaks[nan] = math.inf
                gone = peaks > BLOWUP_BOUND
                if not gone.any():
                    continue
                peaks = peaks[gone]
                for col in live[gone]:
                    blowup[col] = done * dt
            final[live[gone]] = peaks
            live, x = live[~gone], x[~gone]
            mats = tuple(mat[~gone] for mat in mats)
            (step, stages), prev = stepper(*mats), np.empty_like(x)
        final[live] = np.abs(x).max(axis=(1, 2))
        last = max(last, done)
    t_mid, t_end = midway * dt, steps * dt
    return TrajectoryBlock(tuple(
        ColumnPeaks(i, f, _growth_rate(i, h, f, t_mid, t_end, b), b)
        for i, h, f, b in zip(initial.tolist(), mid.tolist(), final.tolist(), blowup)
    ), last, dt)


def _step_arguments(ms: np.ndarray, dt: float) -> np.ndarray:
    """``h = dt M`` for a matrix, or a stack, ``ms``, as ``_taylor4`` and ``_stage_matrices``
    take it.  A step adds ``h`` to the identity, and rounding ``1 + h_ii``
    moves it by up to ``2**-53``, a growth rate of up to ``2**-53 / dt`` per
    unit time.  So where some M has a nonzero diagonal entry, a ``dt`` at which
    that exceeds ``RES`` is an InputError.  Its extreme case is a diagonal lost
    outright in ``1 + h_ii``, whose step matrix's powers then grow without
    bound where the loop decays.  An entry lost at a larger ``dt`` has
    ``|M_ii| <= 2**-53 / dt <= RES``, so losing it moves a rate by at most
    ``RES`` and is not refused."""
    if 2.0**-53 / dt > RES and np.diagonal(ms, axis1=-2, axis2=-1).any():
        raise InputError(
            f"dt={dt!r} is too small for this loop: rounding 1 + dt * M_ii for a nonzero "
            f"diagonal entry M_ii of its matrix M, or losing it outright, can move a growth "
            f"rate by 2**-53 / dt = {2.0**-53 / dt:.3g} per unit time, more than the resolution {RES}"
        )
    return dt * ms


def _powered_block(powers: np.ndarray, grid: np.ndarray, x0s: np.ndarray, initial: np.ndarray,
                   mid: np.ndarray, final: np.ndarray, blowup: list, steps: int, dt: float) -> int:
    """Jump each column ``grid[k, s] = i * T + t`` by powers of ``powers[k]``,
    delta i's step matrix, in lockstep (see the module docstring), into its
    entries of ``mid``, ``final`` and ``blowup``; ``initial`` holds every
    column's initial peak.  Returns the last step that a column reached.
    Besides its ladder of ``len(powers) * levels * n^2`` floats, it holds a
    few stacks of ``grid.size`` states: it grows with the trials by their
    states alone."""
    trials, n = x0s.shape
    midway = steps // 2
    levels = max(midway, steps - midway).bit_length()
    ladder = np.empty((levels, len(powers), n, n))  # P^(2^j) of each delta
    ladder[0] = powers
    for j in range(1, levels):
        np.matmul(ladder[j - 1], ladder[j - 1], out=ladder[j])
    # level by level, with no copy of |ladder|
    norms = np.array([np.abs(level).sum(axis=2).max(axis=1) for level in ladder]).T
    # N_0 = ||P||, N_{j+1} = N_j max(1, ||P^(2^j)||) bounds ||P^k|| for
    # 1 <= k <= 2^j, since P^(2^j + r) = P^(2^j) P^r; the maximum with
    # ||P^(2^j)|| never takes a level whose own matrix overflowed
    bounds = norms[:, :1] * np.cumprod(np.concatenate(
        (np.ones((len(powers), 1)), np.maximum(1.0, norms[:, :-1])), axis=1), axis=1)
    reach = np.maximum(norms, bounds).tolist()
    # the states of row r are ladder row r's; a live column is [r, its
    # place s in the row, its column, the steps it took, its peak]
    x = np.repeat(x0s[None, grid[0] % trials, :, None], len(powers), axis=0)
    cols = [[r, s, col, 0, initial[col]] for (r, s), col in np.ndenumerate(grid)]
    last, nan_step = 0, math.inf
    while cols:
        # each column's largest jump that fits its steps left to midway or
        # to the end and cannot pass the bound, else one step of P
        picks = []
        for r, _, _, done, peak in cols:
            j = ((midway if done < midway else steps) - done).bit_length() - 1
            while j and not reach[r][j] * peak <= JUMP_BOUND:
                j -= 1
            picks.append(j)
        # one stacked product by the jump most columns picked, one alone for each other column
        most = max(set(picks), key=picks.count)
        moved = np.matmul(ladder[most, :, None], x)
        for (r, s, *_), j in zip(cols, picks):
            if j != most:
                moved[r, s] = np.matmul(ladder[j, r], x[r, s])
        x = moved
        peaks = np.abs(x).max(axis=(2, 3)).tolist()
        kept = []
        for c, j in zip(cols, picks):
            c[3] += 1 << j
            r, s, col, done, _ = c
            c[4] = peak = peaks[r][s]
            if done == midway:
                mid[col] = peak
            if math.isnan(peak):
                nan_step = min(nan_step, done)
            elif peak > BLOWUP_BOUND:
                blowup[col] = done * dt
            elif done < steps:
                kept.append(c)
                continue
            final[col] = peak
            last = max(last, done)
        cols = kept
    if nan_step < math.inf:
        raise NonFiniteStateError(f"state became NaN at t = {nan_step * dt:g}")
    return last


def classify_stability(column: ColumnPeaks) -> StabilityVerdict:
    """Label a block column by its growth rate.

    The rate is ``ln(final / halfway peak)`` per unit time over the second
    half of the horizon, or ``ln(final / initial peak) / blowup_time`` for a
    state that blew up.  A blow-up or a rate above ``RES`` is Unstable; a
    rate below ``-RES`` is Stable; anything between is Inconclusive (the
    loop sits too close to the stability boundary to tell at this
    resolution).  The verdict also carries the final-to-initial magnitude
    ratio as ``decay_ratio``.
    """
    initial = column.initial_peak
    if initial == 0.0:
        raise ZeroInitialStateError("cannot classify a trajectory started at the origin")
    ratio = column.final_peak / initial
    rate = column.rate
    if column.blowup_time is not None or rate > RES:
        return StabilityVerdict("Unstable", ratio, rate, column.blowup_time)
    if rate < -RES:
        return StabilityVerdict("Stable", ratio, rate, None)
    return StabilityVerdict("Inconclusive", ratio, rate, None)


def _direction(pert: PerturbationStructure) -> np.ndarray:
    """The perturbation of magnitude 1 that a sweep and a search scale: the
    all-ones pattern normalized in the structure's norm."""
    ones = np.ones((pert.k1, pert.k2))
    return ones / operator_norm(ones, pert.norm)


@np.errstate(over="ignore", invalid="ignore")
def rk4_positive_dt(sys: LtiSystem, pert: PerturbationStructure, gains, deltas) -> float:
    """The ``dt`` up to which RK4 provably keeps positive every loop ``x' = (A
    + D delta E + B K C) x`` that a sweep or a search of ``deltas`` simulates,
    with K each of ``gains``: ``1 / max_i(-M_ii)`` over those loops'
    matrices M, or inf where no ``M_ii`` is negative.  At such a ``dt`` the
    step matrix ``_taylor4(dt M)`` of a Metzler M is ``>= 0``, and its
    spectral radius is below 1 exactly when M is Hurwitz: a positive loop
    reads its true verdict.  ``M_ii`` is affine in delta, so the smallest
    and the largest of ``deltas`` stand for all of them."""
    if not len(deltas):
        return math.inf
    direction = _direction(pert)
    worst = np.max([
        -(sys.a + pert.d @ (delta * direction) @ pert.e + sys.b @ k @ sys.c).diagonal()
        for k in gains for delta in (min(deltas), max(deltas))
    ])
    return 1.0 / float(worst) if worst > 0 else math.inf


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
    direction = _direction(pert)
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


def _block_depth(lo: float, hi: float, tol: float) -> int:
    """Bisection steps for the next search block: the steps left until the
    bracket is within ``tol``, split evenly into the fewest blocks of at
    most ``SPECULATIVE_DEPTH`` steps."""
    steps, width = 0, hi - lo
    while width > tol:  # halving, not log2(width / tol), which overflows for a subnormal tol
        steps += 1
        width *= 0.5
    blocks = -(-steps // SPECULATIVE_DEPTH)
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
    the one plain bisection of the phase 3 bracket finds.  ``_block_depth``
    splits the steps left evenly into blocks of at most ``SPECULATIVE_DEPTH``
    steps: 8 steps take depths 3, 3 and 2.  The same seeded batch of
    nonnegative initial states, of at least one trial, is reused at every
    delta.
    """
    if not 0 < delta_max < math.inf:
        raise InputError(f"delta_max must be positive and finite; got {delta_max!r}")
    if not tol > 0:
        raise InputError(f"tol must be positive; got {tol!r}")
    verdicts = _trial_batch(sys, phi, pert, cfg, trials, seed)
    if trials < 1:  # no trial can be Unstable, so no level would bracket a threshold
        raise InputError(f"a threshold search needs at least one trial; got trials={trials}")

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
    # depth d integrates 2**d - 1 midpoints to save d - 1 blocks; deeper blocks measured no faster
    outcome = {}
    # adjacent floats end the bisection too: no midpoint lies strictly between them
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if mid not in outcome:
            mids = _midpoints(lo, hi, tol, _block_depth(lo, hi, tol))
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
        writer.writerows(
            [repr(row.delta), row.trial, row.seed, row.verdict, repr(row.decay_ratio),
             "" if row.blowup_time is None else repr(row.blowup_time)] for row in rows
        )
