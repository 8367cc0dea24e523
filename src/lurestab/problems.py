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

import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import InputError, LureStabError, ProblemFormatError
from .ffnn import Ffnn, load_ffnn, sector_bound_ffnn
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
from .sim import BUILTIN_NONLINEARITIES, Nonlinearity, SimConfig

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
    """A parsed problem file plus the digest of its raw bytes.

    The loader resolves the problem kind once.  ``feedback`` is what a
    simulation feeds back: a sector's upper gain (the worst case), the
    network, or the builtin function; ``sector`` holds a sector problem's
    sector or a builtin's declared design sector.
    """

    system: LtiSystem
    pert: PerturbationStructure
    sector: SectorBound | None
    network: Ffnn | None
    feedback: Nonlinearity | None
    simulation: SimConfig
    sweep_deltas: list[float] | None
    path: Path
    digest: str

    def analysis_sector(self) -> SectorBound | None:
        """The sector driving radius/certification: a network's weight-product
        bound (computed on each call; a biased network raises), else ``sector``."""
        return sector_bound_ffnn(self.network) if self.network is not None else self.sector

    def loop_nonlinearity(self) -> Nonlinearity | None:
        """The feedback used in simulations, or None for a linear problem."""
        return self.feedback

    def radius(self, override_gates: bool = False) -> RadiusReport:
        """The stability radius by the formula that fits this problem.

        A purely linear problem takes the Schur-scaled radius when the
        perturbation carries a scale pattern and the linear radius
        otherwise; a network problem takes the weight-product sector; a
        sector or builtin problem takes the sector-loop radius.
        ``override_gates`` only applies to the loop formulas.
        """
        sector = self.analysis_sector()
        if sector is None:
            if self.pert.schur_scale is not None:
                return stability_radius_schur(self.system.a, self.pert)
            return stability_radius_linear(self.system.a, self.pert)
        compute = nn_stability_radius if self.network is not None else stability_radius_lure
        return compute(self.system, sector, self.pert, override_gates=override_gates)

    def sim_config(self, dt=None, horizon=None) -> SimConfig:
        """The file's simulation settings with the given ones replacing them."""
        changes = {}
        if dt is not None:
            changes["dt"] = dt
        if horizon is not None:
            changes["horizon"] = horizon
        return replace(self.simulation, **changes)


@contextmanager
def _section(context: str, path):
    """Build one section of a problem file: a ProblemFormatError passes
    untouched, and any other package error becomes one that names ``context``."""
    try:
        yield
    except ProblemFormatError:
        raise
    except LureStabError as exc:
        raise ProblemFormatError(f"{context}: {exc}", path=path) from None


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


def _matrix(data: dict, key: str) -> object:
    """A matrix field's raw value, for its typed constructor to check.

    Two faults are named here: ragged rows, which the gate would only call
    an inhomogeneous shape, and null, which a constructor reads as an absent
    optional matrix.
    """
    raw = _get(data, key)
    if raw is None:
        raise InputError(f"{key}: expected a 2-D matrix, got null")
    if isinstance(raw, list) and raw and all(isinstance(r, list) for r in raw):
        lengths = {len(r) for r in raw}
        if len(lengths) > 1:
            raise InputError(f"{key}: ragged rows (lengths {sorted(lengths)})")
    return raw


def load_problem(path, norm_override: str | None = None) -> Problem:
    """Parse and validate a problem file.

    ``norm_override`` replaces the file's perturbation norm (the CLI's
    ``--norm`` flag).  A fault in a section reads ``<path>: <section>: ...``.
    """
    resolved = resolve_problem_path(path)
    try:
        raw = resolved.read_bytes()
    except OSError as exc:
        raise ProblemFormatError(f"cannot read problem file ({exc})", path=resolved) from None
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON: {exc.msg}", path=resolved, line=exc.lineno) from None
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(f"not UTF-8 text ({exc.reason})", path=resolved) from None
    if not isinstance(data, dict):
        raise ProblemFormatError("top level must be a JSON object", path=resolved)

    with _section("problem", resolved):
        sys_data, pert_data = _get(data, "system"), _get(data, "perturbation")
    with _section("system", resolved):
        sys_data = _object(sys_data)
        system = LtiSystem(_matrix(sys_data, "A"), _matrix(sys_data, "B"), _matrix(sys_data, "C"))
    with _section("perturbation", resolved):
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
        with _section("sector", resolved):
            sec = _object(data["sector"])
            sector = SectorBound(_matrix(sec, "Sigma1"), _matrix(sec, "Sigma2"))
            if not sector.ordered:
                raise InputError("sector lower bound must be <= upper bound elementwise")
            if sector.lower.shape != (system.m, system.p):
                raise InputError(f"must be {system.m}x{system.p}, got {sector.lower.shape}")
        feedback = Nonlinearity.gain(sector.upper)
    elif "network" in data:
        net_file = Path(str(data["network"]))
        if not net_file.is_absolute():
            net_file = resolved.parent / net_file
        network = load_ffnn(net_file)
        if network.input_dim != system.p or network.output_dim != system.m:
            raise ProblemFormatError(
                f"network maps {network.input_dim} -> {network.output_dim}, "
                f"but the plant needs {system.p} -> {system.m}",
                path=resolved,
            )
        feedback = Nonlinearity.network(network)
    elif "builtin_nonlinearity" in data:
        builtin = str(data["builtin_nonlinearity"])
        if builtin not in BUILTIN_NONLINEARITIES:
            raise ProblemFormatError(
                f"unknown builtin nonlinearity {builtin!r}; available: "
                + ", ".join(sorted(BUILTIN_NONLINEARITIES)),
                path=resolved,
            )
        if system.m != system.p:
            raise ProblemFormatError(
                f"builtin_nonlinearity: {builtin!r} acts elementwise, so the plant needs as many "
                f"inputs as outputs; got {system.m} inputs and {system.p} outputs",
                path=resolved,
            )
        spec = BUILTIN_NONLINEARITIES[builtin]
        eye = np.eye(system.m)
        sector = SectorBound(spec.sector_lower * eye, spec.sector_upper * eye)
        feedback = spec.phi

    with _section("simulation", resolved):
        sim = _object(data.get("simulation", {}))
        unknown = set(sim) - {"dt", "horizon"}
        if unknown:
            raise InputError(f"unknown field(s) {sorted(unknown)}")
        sim_config = SimConfig(**{key: _number(value, key) for key, value in sim.items()})

    sweep_deltas = None
    if "sweep" in data:
        with _section("sweep", resolved):
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
        digest=digest,
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
