"""Seeded random-instance generators and helpers shared by the property and acceptance tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lurestab.errors import DimensionMismatchError, OrderViolationError
from lurestab.ffnn import RELU, TANH, Ffnn, Layer
from lurestab.linalg import as_matrix, spectral_radius
from lurestab.radius import PerturbationStructure, stability_radius_linear


def random_metzler_hurwitz(rng, n: int, margin_lo: float = 0.2, margin_hi: float = 2.0) -> np.ndarray:
    """Metzler Hurwitz matrix: nonnegative random part shifted left of its
    Perron root."""
    r = rng.uniform(0.0, 1.0, size=(n, n))
    shift = spectral_radius(r) + rng.uniform(margin_lo, margin_hi)
    return r - shift * np.eye(n)


def random_metzler(rng, n: int) -> np.ndarray:
    """Metzler matrix with a diagonal that makes either stability outcome likely."""
    m = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(m, rng.uniform(-3.0, 0.5, size=n))
    return m


def ordered_metzler_pair(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair P >= Q, both Metzler and Hurwitz (Q inherits stability from P)."""
    p = random_metzler_hurwitz(rng, n)
    q = p.copy()
    off = ~np.eye(n, dtype=bool)
    q[off] = q[off] * rng.uniform(0.0, 1.0, size=n * n - n)
    q[np.eye(n, dtype=bool)] -= rng.uniform(0.0, 2.0, size=n)
    return p, q


@dataclass(frozen=True)
class RadiusPair:
    r_p: float
    r_q: float


def monotonicity_gap(p, q, pert: PerturbationStructure) -> RadiusPair:
    """Radii of an ordered pair ``p >= q`` of Metzler Hurwitz matrices.

    Larger matrices sit closer to instability, so callers should observe
    ``r_p <= r_q``; this function just computes both sides.
    """
    p = as_matrix(p, "P")
    q = as_matrix(q, "Q")
    if p.shape != q.shape:
        raise DimensionMismatchError(f"shape mismatch: {p.shape} vs {q.shape}")
    if not (p >= q).all():
        raise OrderViolationError("P >= Q must hold elementwise")
    r_p = stability_radius_linear(p, pert).radius
    r_q = stability_radius_linear(q, pert).radius
    return RadiusPair(r_p=r_p, r_q=r_q)


def random_zero_bias_net(rng, max_q: int = 3, max_width: int = 8) -> Ffnn:
    """Random fully connected network with zero biases and one activation."""
    q = int(rng.integers(1, max_q + 1))
    p = int(rng.integers(1, 5))
    m = int(rng.integers(1, 4))
    dims = [p] + [int(rng.integers(1, max_width + 1)) for _ in range(q)] + [m]
    layers = [
        Layer.linear(rng.normal(0.0, 1.0, size=(dims[i + 1], dims[i])))
        for i in range(len(dims) - 1)
    ]
    activation = RELU if rng.random() < 0.5 else TANH
    return Ffnn(hidden=tuple(layers[:-1]), output=layers[-1], activation=activation)


def bisect_destabilizing_delta(loop_abscissa, lo: float, hi: float, tol: float) -> float:
    """Plain bisection for the zero crossing of a scalar abscissa function.

    ``loop_abscissa(lo)`` must be negative and ``loop_abscissa(hi)`` positive.
    """
    f_lo = loop_abscissa(lo)
    f_hi = loop_abscissa(hi)
    if not (f_lo < 0.0 < f_hi):
        raise ValueError(f"bracket does not straddle the crossing: f({lo})={f_lo}, f({hi})={f_hi}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if loop_abscissa(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
