"""Feedforward networks: evaluation, sector bounds, and empirical checks.

A network with ``q`` hidden layers, one shared activation inside a slope
sector ``[a1, a2]``, and zero biases is sector bounded on nonnegative
inputs by ``[-G, G]`` with ``G = c^q |W_out| |W_q| ... |W_1|`` and
``c = max(|a1|, |a2|)``.  The empirical routines sample that claim and
drive the sign selection for refined bounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    InputError,
    NonFiniteEntriesError,
    NonzeroBiasError,
    NotSisoError,
    ProblemFormatError,
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
    if key in _BUILTIN_ACTIVATIONS:
        spec = _BUILTIN_ACTIVATIONS[key]
        if a1 is not None or a2 is not None:
            spec = ActivationSpec(spec.name, float(a1), float(a2), spec.fn)
        return spec
    if a1 is None or a2 is None:
        raise InputError(f"activation {name!r} is not built in; explicit a1/a2 required")
    return ActivationSpec(key, float(a1), float(a2), None)


@dataclass(frozen=True)
class Layer:
    """One affine layer ``w @ x + b`` with ``b`` stored as a 1-D vector."""

    w: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        w = as_matrix(self.w, "layer weight")
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if b.shape[0] != w.shape[0]:
            raise DimensionMismatchError(
                f"bias length {b.shape[0]} does not match {w.shape[0]} layer outputs"
            )
        if not np.isfinite(b).all():
            raise ProblemFormatError("layer bias contains non-finite entries")
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
    """Forward pass.  ``z`` may be a single input (p,), a batch (p, k), or a
    stack (k, p, 1), which gives a stack (k, m, 1).

    A batch or a stack is evaluated as a stack of k matrix-vector products
    per layer, so each of its inputs is bit-identical to that input evaluated
    alone.  Each layer adds its bias even when it is zero: the ``+ 0.0``
    turns a ``-0.0`` sum into ``+0.0``.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim == 3:
        x = z
    else:
        x = (z.reshape(-1, 1) if z.ndim == 1 else z).T[..., None]
    if x.shape[1] != net.input_dim:
        raise DimensionMismatchError(
            f"input dimension {x.shape[1]} does not match network input {net.input_dim}"
        )
    act = net.activation
    if net.hidden and act.fn is None:
        raise InputError(f"activation {act.name!r} has no callable for evaluation")
    for layer in net.hidden:
        x = act.fn(np.matmul(layer.w, x) + layer.b[:, None])
    x = np.matmul(net.output.w, x) + net.output.b[:, None]
    if z.ndim == 3:
        return x
    return x[0, :, 0] if z.ndim == 1 else x[..., 0].T


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
    cases (e.g. identity relu chains) do not count as violations.
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
    z = rng.uniform(0.0, 10.0, size=(p, samples))
    out = ffnn_eval(net, z)
    lower = sector.lower @ z
    upper = sector.upper @ z
    slack = 1e-9 * np.maximum(1.0, np.abs(upper))
    bad = (out > upper + slack) | (out < lower - slack)
    count = int(bad.any(axis=0).sum())
    positive = upper > 0
    max_ratio = float((out[positive] / upper[positive]).max()) if positive.any() else 0.0
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


def load_ffnn(path) -> Ffnn:
    """Load a network from its JSON file (see ``ffnn_from_dict`` for the schema)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON: {exc.msg}", path=path, line=exc.lineno) from None
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL byte in the path
        raise ProblemFormatError(f"cannot read network file ({exc})", path=path) from None
    try:
        return ffnn_from_dict(data)
    except ProblemFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, DimensionMismatchError,
            NonFiniteEntriesError) as exc:
        raise ProblemFormatError(f"invalid network description: {exc}", path=path) from None


def ffnn_from_dict(data: dict) -> Ffnn:
    """Build a network from the JSON schema.

    Expected fields: ``activation: {name, a1, a2}`` and ``layers``, a list
    of ``{rows, cols, weights, bias}`` with row-major flat weights; the
    final entry is the affine output layer.
    """
    act_spec = data["activation"]
    activation = activation_from_name(
        act_spec["name"], act_spec.get("a1"), act_spec.get("a2")
    )
    raw_layers = data["layers"]
    if not raw_layers:
        raise InputError("a network needs at least an output layer")
    layers = []
    for i, entry in enumerate(raw_layers):
        rows, cols = int(entry["rows"]), int(entry["cols"])
        weights = np.asarray(entry["weights"], dtype=float)
        if weights.size != rows * cols:
            raise InputError(
                f"layer {i + 1}: {weights.size} weights for declared {rows}x{cols}"
            )
        w = weights.reshape(rows, cols)
        b = np.asarray(entry.get("bias", np.zeros(rows)), dtype=float)
        layers.append(Layer(w, b))
    return Ffnn(hidden=tuple(layers[:-1]), output=layers[-1], activation=activation)
