"""Problem files: one JSON document describing a system to analyze.

Schema (matrix literals are nested row-major arrays)::

    {
      "system": {"A": [[...]], "B": [[...]], "C": [[...]]},
      "perturbation": {"D": [[...]], "E": [[...]], "norm": "two", "S": [[...]]},
      "sector": {"Sigma1": [[...]], "Sigma2": [[...]]},      # at most one of
      "network": "relative/path.json",                        # these three
      "builtin_nonlinearity": "cubic_sine",
      "simulation": {"dt": 0.001, "horizon": 20.0},   # optional
      "sweep": {"deltas": [0.1, 0.2]}                 # optional
    }

A problem with none of sector/network/builtin describes a purely linear
perturbation analysis.  Bundled problems (the two worked examples) are
resolved by bare filename when the given path does not exist.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import InputError, LureStabError, ProblemFormatError
from .ffnn import Ffnn, Layer, activation_from_name, sector_bound_ffnn
from .linalg import NormKind
from .radius import (
    LtiSystem,
    PerturbationStructure,
    RadiusReport,
    SectorBound,
    nn_stability_radius,
    stability_radius_linear,
    stability_radius_lure,
    stability_radius_schur,
)
from .sim import BUILTIN_NONLINEARITIES, Nonlinearity, SimConfig, rk4_positive_dt

FIXTURE_PACKAGE = "lurestab.fixtures"


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled fixture file."""
    return Path(resources.files(FIXTURE_PACKAGE) / name)


def resolve_problem_path(path) -> Path:
    """Resolve a problem path, falling back to the bundled fixtures."""
    p = Path(path)
    if p.exists():
        return p
    if not p.is_absolute() and len(p.parts) == 1:
        bundled = fixture_path(p.name)
        if bundled.exists():
            return bundled
    raise ProblemFormatError("problem file not found", path=path)


@dataclass(frozen=True)
class Problem:
    """A parsed problem file plus the digest of its raw bytes, followed by
    those of its network file if it names one.

    The loader resolves the problem kind once, and every choice that depends
    on it is made here.  ``feedback`` is what a simulation feeds back: a
    sector's upper gain (the worst case), the network, or the builtin
    function; or, for a network that cannot be evaluated, the error that
    names its file.  ``sector`` holds a sector problem's sector or a
    builtin's declared design sector.
    """

    system: LtiSystem
    pert: PerturbationStructure
    sector: SectorBound | None
    network: Ffnn | None
    feedback: Nonlinearity | ProblemFormatError | None
    simulation: SimConfig
    sweep_deltas: list[float] | None
    path: Path
    digest: str

    @property
    def analysis_sector(self) -> SectorBound | None:
        """The sector driving radius/certification: a network's weight-product
        bound, else ``sector``.  The bound is computed once: a network that has
        none (a bias, an overflow) raises the same error on every read."""
        if isinstance(self._sector, LureStabError):
            raise self._sector.with_traceback(None)
        return self._sector

    @functools.cached_property
    def _sector(self) -> SectorBound | LureStabError | None:
        try:
            return sector_bound_ffnn(self.network) if self.network is not None else self.sector
        except LureStabError as exc:
            return exc

    def loop_nonlinearity(self) -> Nonlinearity | None:
        """The feedback used in simulations, or None for a linear problem.  A
        network whose activation is not built in raises, naming its file."""
        if isinstance(self.feedback, ProblemFormatError):
            raise self.feedback.with_traceback(None)
        return self.feedback

    def radius(self, override_gates: bool = False) -> RadiusReport:
        """The stability radius by the formula that fits this problem.

        A purely linear problem takes the Schur-scaled radius when the
        perturbation carries a scale pattern and the linear radius
        otherwise; a network problem takes the weight-product sector; a
        sector or builtin problem takes the sector-loop radius.
        ``override_gates`` only applies to the loop formulas.
        """
        sector = self.analysis_sector
        if sector is None:
            if self.pert.schur_scale is not None:
                return stability_radius_schur(self.system.a, self.pert)
            return stability_radius_linear(self.system.a, self.pert)
        compute = nn_stability_radius if self.network is not None else stability_radius_lure
        return compute(self.system, sector, self.pert, override_gates=override_gates)

    def step_bound(self, deltas) -> tuple[float, str]:
        """RK4's positivity bound on ``dt`` (``sim.rk4_positive_dt``) over the
        loops a simulation at ``deltas`` runs through, and the gains those
        loops close, in words: the feedback's gain, else both edges of the
        analysis sector, else, where a network's sector cannot be computed,
        the plant alone at zero gain."""
        feedback = self.loop_nonlinearity()
        if feedback.mat is not None:
            gains, edges = [feedback.mat], "the gain"
        else:
            try:
                sector = self.analysis_sector
                gains, edges = [sector.lower, sector.upper], "both sector edges"
            except LureStabError:  # a biased or overflowing network has no sector
                gains = [np.zeros((self.system.m, self.system.p))]
                edges = "the plant alone at zero gain"
        return rk4_positive_dt(self.system, self.pert, gains, deltas), edges

    def sim_config(self, dt=None, horizon=None) -> SimConfig:
        """The file's simulation settings with the given ones replacing them."""
        changes = {}
        if dt is not None:
            changes["dt"] = dt
        if horizon is not None:
            changes["horizon"] = horizon
        return replace(self.simulation, **changes)


class _Section:
    """Build one section of a problem or network file: a ProblemFormatError passes
    untouched, and any other package error becomes one that names ``context``.

    A class, not a ``contextlib`` generator: an entry costs half as much."""

    __slots__ = ("context", "path")

    def __init__(self, context: str, path):
        self.context, self.path = context, path

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, LureStabError) and not isinstance(exc, ProblemFormatError):
            raise ProblemFormatError(f"{self.context}: {exc}", path=self.path) from None


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise InputError("must be an object")
    return value


def _get(data: dict, key: str) -> object:
    if key not in data:
        raise InputError(f"missing required field {key!r}")
    return data[key]


def _number(value, key: str) -> float:
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not numeric or not abs(value) <= sys.float_info.max:  # NaN, inf or an int past float
        raise InputError(f"{key}: expected a finite number, got {value!r}")
    return float(value)


def _numbers(value, key: str) -> None:
    """Refuse an entry of ``value``, at any depth of nested lists, that is not
    a JSON number: numpy would read "-5" or true as a number and null as NaN."""
    level = [value]
    while level:  # one depth at a time; a bool's type is not int
        kinds = set(map(type, level))
        if not kinds <= {int, float, list}:
            bad = next(x for x in level if type(x) not in (int, float, list))
            raise InputError(f"{key}: expected numbers, got {'null' if bad is None else repr(bad)}")
        level = [y for x in level if type(x) is list for y in x] if list in kinds else []


def _matrix(data: dict, key: str) -> object:
    """A matrix field's raw value, for its typed constructor to check.

    Named here: ragged rows, which the gate would only call an inhomogeneous
    shape, null, which a constructor reads as an absent optional matrix, and
    an entry that is not a JSON number.
    """
    raw = _get(data, key)
    if raw is None:
        raise InputError(f"{key}: expected a 2-D matrix, got null")
    if isinstance(raw, list) and raw and all(isinstance(r, list) for r in raw):
        lengths = {len(r) for r in raw}
        if len(lengths) > 1:
            raise InputError(f"{key}: ragged rows (lengths {sorted(lengths)})")
    _numbers(raw, key)
    return raw


def _read_json(path, kind: str) -> tuple[dict, bytes]:
    """Read and decode a ``kind`` file whose top level is an object; returns
    the document and the raw bytes it came from."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ProblemFormatError(f"cannot read {kind} file ({exc})", path=path) from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON: {exc.msg}", path=path, line=exc.lineno) from None
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(f"not UTF-8 text ({exc.reason})", path=path) from None
    except RecursionError:
        raise ProblemFormatError("invalid JSON: nested too deeply", path=path) from None
    except ValueError:  # the rest: Python caps an integer literal at 4300 digits
        raise ProblemFormatError("invalid JSON: an integer over 4300 digits", path=path) from None
    if not isinstance(data, dict):
        raise ProblemFormatError("top level must be a JSON object", path=path)
    return data, raw


def load_problem(path, norm_override: str | None = None) -> Problem:
    """Parse and validate a problem file.

    ``norm_override`` replaces the file's perturbation norm (the CLI's
    ``--norm`` flag).  A fault in a section reads ``<path>: <section>: ...``.
    """
    resolved = resolve_problem_path(path)
    data, raw = _read_json(resolved, "problem")

    with _Section("problem", resolved):
        sys_data, pert_data = _get(data, "system"), _get(data, "perturbation")
    with _Section("system", resolved):
        sys_data = _object(sys_data)
        system = LtiSystem(_matrix(sys_data, "A"), _matrix(sys_data, "B"), _matrix(sys_data, "C"))
    with _Section("perturbation", resolved):
        pert = _build_perturbation(_object(pert_data), norm_override)
        pert.check_dims(system.n)

    present = [k for k in ("sector", "network", "builtin_nonlinearity") if k in data]
    if len(present) > 1:
        raise ProblemFormatError(
            "at most one of sector/network/builtin_nonlinearity may be present; got "
            + ", ".join(present),
            path=resolved,
        )

    sector = network = feedback = None
    if "sector" in data:
        with _Section("sector", resolved):
            sec = _object(data["sector"])
            sector = SectorBound(_matrix(sec, "Sigma1"), _matrix(sec, "Sigma2"))
            if not sector.ordered:
                raise InputError("sector lower bound must be <= upper bound elementwise")
            if sector.lower.shape != (system.m, system.p):
                raise InputError(f"must be {system.m}x{system.p}, got {sector.lower.shape}")
        feedback = Nonlinearity.gain(sector.upper)
    elif "network" in data:
        with _Section("network", resolved):  # the network file's own faults name that file
            if not isinstance(data["network"], str):
                raise InputError(f"expected a file path, got {data['network']!r}")
            network_path = resolved.parent / data["network"]
            network, network_raw = _read_ffnn(network_path)
            raw += network_raw  # the digest covers the network's weights too
            if network.input_dim != system.p or network.output_dim != system.m:
                raise InputError(
                    f"maps {network.input_dim} -> {network.output_dim}, "
                    f"but the plant needs {system.p} -> {system.m}"
                )
        feedback = Nonlinearity.network(network)
        if network.hidden and network.activation.fn is None:  # its slopes serve check and radius
            feedback = ProblemFormatError(
                f"activation: {network.activation.name!r} is not built in, so the network "
                "cannot be evaluated", path=network_path)
    elif "builtin_nonlinearity" in data:
        with _Section("builtin_nonlinearity", resolved):
            builtin = str(data["builtin_nonlinearity"])
            if builtin not in BUILTIN_NONLINEARITIES:
                raise InputError(
                    f"unknown {builtin!r}; available: " + ", ".join(sorted(BUILTIN_NONLINEARITIES))
                )
            if system.m != system.p:
                raise InputError(
                    f"{builtin!r} acts elementwise, so the plant needs as many inputs as "
                    f"outputs; got {system.m} inputs and {system.p} outputs"
                )
        spec = BUILTIN_NONLINEARITIES[builtin]
        eye = np.eye(system.m)
        sector = SectorBound(spec.sector_lower * eye, spec.sector_upper * eye)
        feedback = spec.phi

    with _Section("simulation", resolved):
        sim = _object(data.get("simulation", {}))
        unknown = set(sim) - {"dt", "horizon"}
        if unknown:
            raise InputError(f"unknown field(s) {sorted(unknown)}")
        sim_config = SimConfig(**{key: _number(value, key) for key, value in sim.items()})

    sweep_deltas = None
    if "sweep" in data:
        with _Section("sweep", resolved):
            sw = data["sweep"]
            if not isinstance(sw, dict) or not isinstance(sw.get("deltas"), list):
                raise InputError("must be an object with a 'deltas' list")
            sweep_deltas = [_number(d, "deltas") for d in sw["deltas"]]

    return Problem(
        system=system,
        pert=pert,
        sector=sector,
        network=network,
        feedback=feedback,
        simulation=sim_config,
        sweep_deltas=sweep_deltas,
        path=resolved,
        digest=hashlib.sha256(raw).hexdigest(),
    )


def _build_perturbation(data: dict, norm_override) -> PerturbationStructure:
    d, e = _matrix(data, "D"), _matrix(data, "E")
    norm = NormKind.from_name(norm_override or data.get("norm", "two"))
    schur = None
    if "S" in data:
        schur = _matrix(data, "S")
        norm = NormKind.MAX_ABS if norm_override is None else norm
    elif norm is NormKind.MAX_ABS:
        raise InputError("the maxabs norm needs a scale pattern S")
    return PerturbationStructure(d=d, e=e, norm=norm, schur_scale=schur)


def load_ffnn(path) -> Ffnn:
    """Parse and validate a network file: ``activation: {name, a1, a2}`` (a
    built-in may omit the slopes) and ``layers``, a list of ``{rows, cols,
    weights, bias}`` with flat row-major weights and an optional bias; the
    last is the affine output layer.  A fault reads ``<path>: <section>: ...``
    with section ``network``, ``activation`` or ``layer <i>`` (from 1)."""
    return _read_ffnn(path)[0]


def _read_ffnn(path) -> tuple[Ffnn, bytes]:
    """``load_ffnn``'s network and the raw bytes it came from, by one read."""
    data, raw = _read_json(path, "network")
    with _Section("network", path):
        act, raw_layers = _get(data, "activation"), _get(data, "layers")
        if not isinstance(raw_layers, list) or not raw_layers:
            raise InputError("layers: expected a nonempty list (the last is the output layer)")
    with _Section("activation", path):
        act = _object(act)
        a1, a2 = (None if act.get(k) is None else _number(act[k], k) for k in ("a1", "a2"))
        name = _get(act, "name")
        if not isinstance(name, str):
            raise InputError(f"name: expected a string, got {name!r}")
        activation = activation_from_name(name, a1, a2)
    layers = []
    for i, entry in enumerate(raw_layers, 1):
        with _Section(f"layer {i}", path):
            entry = _object(entry)
            rows, cols = _get(entry, "rows"), _get(entry, "cols")
            if type(rows) is not int or type(cols) is not int or min(rows, cols) < 1:
                raise InputError(f"rows, cols: expected positive integers, got {rows!r}, {cols!r}")
            weights = _get(entry, "weights")
            _numbers(weights, "weights")
            _numbers(entry.get("bias", []), "bias")
            try:  # Layer checks that the entries are finite
                w = np.asarray(weights, dtype=float).reshape(rows, cols)
            except (ValueError, OverflowError):  # not rows x cols, or an int past float
                raise InputError(f"weights: expected {rows}x{cols} numbers") from None
            layers.append(Layer(w, entry.get("bias", np.zeros(rows))))
    with _Section("network", path):
        return Ffnn(hidden=tuple(layers[:-1]), output=layers[-1], activation=activation), raw
