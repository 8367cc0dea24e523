"""Feedforward networks: evaluation, sector bounds, and empirical checks.

A network with ``q`` hidden layers, one shared activation inside a slope
sector ``[a1, a2]``, and zero biases is sector bounded on nonnegative
inputs by ``[-G, G]`` with ``G = c^q |W_out| |W_q| ... |W_1|`` and
``c = max(|a1|, |a2|)``.  The empirical routines sample that claim and
drive the sign selection for refined bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    InputError,
    NonFiniteEntriesError,
    NonzeroBiasError,
    NotSisoError,
)
from .linalg import as_matrix
from .radius import SectorBound


def _relu(x):
    return np.maximum(x, 0.0)


@dataclass(frozen=True)
class ActivationSpec:
    """Scalar activation with declared slope sector ``[a1, a2]``, a1 < a2."""

    name: str
    a1: float
    a2: float
    fn: Callable | None = None

    def __post_init__(self):
        if not self.a1 < self.a2:
            raise InputError(f"activation sector needs a1 < a2, got [{self.a1}, {self.a2}]")

    @property
    def slope_gain(self) -> float:
        """The constant c = max(|a1|, |a2|) entering the sector product."""
        return max(abs(self.a1), abs(self.a2))


RELU = ActivationSpec("relu", 0.0, 1.0, _relu)
TANH = ActivationSpec("tanh", 0.0, 1.0, np.tanh)

_BUILTIN_ACTIVATIONS = {"relu": RELU, "tanh": TANH}


def activation_from_name(name: str, a1: float | None = None, a2: float | None = None) -> ActivationSpec:
    """Resolve a built-in activation, or build a custom one from explicit slopes."""
    key = str(name).strip().lower()
    spec = _BUILTIN_ACTIVATIONS.get(key)
    if spec is not None and a1 is None and a2 is None:
        return spec
    if a1 is None or a2 is None:
        fault = "only one of a1/a2 given" if spec else "not built in"
        raise InputError(f"activation {name!r}: {fault}; explicit a1 and a2 required")
    return ActivationSpec(key, float(a1), float(a2), spec and spec.fn)


@dataclass(frozen=True)
class Layer:
    """One affine layer ``w @ x + b`` with ``b`` stored as a ``(rows, 1)``
    column, the shape that a stacked product adds."""

    w: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        w = as_matrix(self.w, "layer weight")
        try:
            b = np.asarray(self.b, dtype=float).reshape(-1, 1)
        except (TypeError, ValueError, OverflowError):  # as in as_matrix
            raise DimensionMismatchError("layer bias: not a numeric vector") from None
        if b.shape[0] != w.shape[0]:
            raise DimensionMismatchError(
                f"bias length {b.shape[0]} does not match {w.shape[0]} layer outputs"
            )
        if not np.isfinite(b).all():
            raise NonFiniteEntriesError("layer bias: contains NaN or infinite entries")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", b)

    @classmethod
    def linear(cls, w) -> "Layer":
        return cls(w, np.zeros(np.shape(w)[:1]))


@dataclass(frozen=True)
class Ffnn:
    """Fully connected network: ``q`` activated hidden layers, affine output.

    ``activation`` is shared by all hidden layers.
    """

    hidden: tuple[Layer, ...]
    output: Layer
    activation: ActivationSpec

    def __post_init__(self):
        hidden = tuple(self.hidden)
        object.__setattr__(self, "hidden", hidden)
        dims = [layer.w.shape for layer in hidden] + [self.output.w.shape]
        for prev, nxt in zip(dims, dims[1:]):
            if nxt[1] != prev[0]:
                raise DimensionMismatchError(
                    f"layer dimensions do not chain: {prev} feeds {nxt}"
                )

    @property
    def q(self) -> int:
        return len(self.hidden)

    @property
    def input_dim(self) -> int:
        first = self.hidden[0] if self.hidden else self.output
        return first.w.shape[1]

    @property
    def output_dim(self) -> int:
        return self.output.w.shape[0]


def ffnn_eval(net: Ffnn, z) -> np.ndarray:
    """Forward pass of a ``(K, p, 1)`` stack of inputs to a ``(K, m, 1)`` stack.

    Each layer is K stacked matrix-vector products, so each stack entry is
    bit-identical to that entry evaluated alone.  Each layer adds its bias
    even when it is zero: the ``+ 0.0`` turns a ``-0.0`` sum into ``+0.0``.
    """
    x = np.asarray(z, dtype=float)
    if x.ndim != 3 or x.shape[1:] != (net.input_dim, 1):
        raise DimensionMismatchError(
            f"network input must be a (K, {net.input_dim}, 1) stack, got shape {x.shape}"
        )
    act = net.activation
    if net.hidden and act.fn is None:
        raise InputError(f"activation {act.name!r} has no callable for evaluation")
    for layer in net.hidden:
        x = act.fn(np.matmul(layer.w, x) + layer.b)
    return np.matmul(net.output.w, x) + net.output.b


def sector_bound_ffnn(net: Ffnn) -> SectorBound:
    """Symmetric sector from the activation gain and the |weight| product.

    Requires zero biases; the bound is ``c^q |W_out| |W_q| ... |W_1]``
    with ``c = max(|a1|, |a2|)``, valid for nonnegative inputs.
    """
    bad = [
        i + 1
        for i, layer in enumerate(list(net.hidden) + [net.output])
        if np.any(layer.b != 0.0)
    ]
    if bad:
        raise NonzeroBiasError(bad)
    with np.errstate(over="ignore", invalid="ignore"):  # the test below names an overflow
        upper = (net.activation.slope_gain ** net.q) * weight_products(net)[-1]
    if not np.isfinite(upper).all():
        raise NonFiniteEntriesError("the network's weight product overflows")
    return SectorBound(-upper, upper)


def weight_products(net: Ffnn) -> list[np.ndarray]:
    """The partial products ``|W_out|``, ``|W_out| |W_q|``, ..., ``|W_out| |W_q| ... |W_1|``."""
    products = [np.abs(net.output.w)]
    for layer in reversed(net.hidden):
        products.append(products[-1] @ np.abs(layer.w))
    return products


@dataclass(frozen=True)
class SectorCheck:
    """Sampled sector-membership report.

    ``count`` is the number of sampled inputs whose output escaped the
    sector; ``max_ratio`` is the largest output-to-upper-bound ratio seen
    where the upper bound was positive.
    """

    samples: int
    count: int
    max_ratio: float


def empirical_sector_check(
    net: Ffnn,
    sector: SectorBound,
    samples: int = 1000,
    seed: int = 42,
) -> SectorCheck:
    """Sample inputs on ``[0, 10]^p`` and test ``S1 z <= pi(z) <= S2 z`` componentwise.

    A small relative slack absorbs float rounding so that exact-equality
    cases (e.g. identity relu chains) do not count as violations.  An output
    that overflowed, to inf or NaN, counts as one, without a warning.
    """
    if samples < 1:
        raise InputError("samples must be >= 1")
    if seed < 0:
        raise InputError(f"seed must be nonnegative; got {seed}")
    p = net.input_dim
    if sector.lower.shape[1] != p:
        raise DimensionMismatchError(
            f"sector has {sector.lower.shape[1]} input columns, network expects {p}"
        )
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.0, 10.0, size=(samples, p, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        out = ffnn_eval(net, z)
        lower = np.matmul(sector.lower, z)
        upper = np.matmul(sector.upper, z)
        slack = 1e-9 * np.maximum(1.0, np.abs(upper))
        bad = (out > upper + slack) | (out < lower - slack) | ~np.isfinite(out)
        positive = upper > 0
        # fmax passes over the NaN of an overflowed ratio, and warns of none
        max_ratio = float(np.fmax.reduce(out[positive] / upper[positive])) if positive.any() else 0.0
    count = int(bad.any(axis=(1, 2)).sum())
    return SectorCheck(samples=samples, count=count, max_ratio=max_ratio)


def select_refined_sign(
    net: Ffnn,
    magnitude: float,
    lower: np.ndarray,
    samples: int = 1000,
    seed: int = 42,
) -> tuple[SectorBound, SectorCheck]:
    """Pick the sign of a refined scalar upper bound by sampling the network.

    Candidates ``+magnitude`` and ``-magnitude`` are each paired with
    ``lower``, the lower edge of the network's base sector, and the candidate
    with fewer sampled violations wins.  A violation-free tie means the
    output sits below ``-magnitude * z`` everywhere sampled, so the tighter
    negative candidate carries more information; any other tie keeps the
    conservative positive sign.  Returns the chosen sector with its check.
    """
    if magnitude <= 0:
        raise InputError("magnitude must be positive")
    if net.output_dim != 1 or net.input_dim != 1:
        raise NotSisoError("sign selection needs a scalar network (one input, one output)")
    plus = SectorBound(np.minimum(lower, magnitude), np.array([[magnitude]]))
    minus = SectorBound(np.minimum(lower, -magnitude), np.array([[-magnitude]]))
    plus_check = empirical_sector_check(net, plus, samples, seed)
    minus_check = empirical_sector_check(net, minus, samples, seed)
    if plus_check.count != minus_check.count:
        pick_plus = plus_check.count < minus_check.count
    else:
        pick_plus = plus_check.count != 0
    return (plus, plus_check) if pick_plus else (minus, minus_check)
