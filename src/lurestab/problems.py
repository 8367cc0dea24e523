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
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, InputError, NonFiniteEntriesError, ProblemFormatError
from .ffnn import Ffnn, load_ffnn, sector_bound_ffnn
from .linalg import NormKind, as_matrix
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


def _get(data: dict, key: str, context: str, path) -> object:
    if key not in data:
        raise ProblemFormatError(f"{context}: missing required field {key!r}", path=path)
    return data[key]


def _number(value, context: str, path) -> float:
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not numeric or not math.isfinite(value):
        raise ProblemFormatError(f"{context}: expected a finite number, got {value!r}", path=path)
    return float(value)


def _matrix(data: dict, key: str, context: str, path) -> np.ndarray:
    raw = _get(data, key, context, path)
    rows = raw if isinstance(raw, list) else None
    if rows is not None and rows and all(isinstance(r, list) for r in rows):
        lengths = {len(r) for r in rows}
        if len(lengths) > 1:
            raise ProblemFormatError(
                f"{context}.{key}: ragged rows (lengths {sorted(lengths)})", path=path
            )
    try:
        return as_matrix(raw, f"{context}.{key}")
    except (DimensionMismatchError, NonFiniteEntriesError) as exc:
        raise ProblemFormatError(str(exc), path=path) from None


def load_problem(path, norm_override: str | None = None) -> Problem:
    """Parse and validate a problem file.

    ``norm_override`` replaces the file's perturbation norm (the CLI's
    ``--norm`` flag).
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

    sys_data = _get(data, "system", "problem", resolved)
    system = _build_system(sys_data, resolved)
    pert = _build_perturbation(
        _get(data, "perturbation", "problem", resolved), resolved, norm_override
    )
    try:
        pert.check_dims(system.n)
    except DimensionMismatchError as exc:
        raise ProblemFormatError(str(exc), path=resolved) from None

    present = [k for k in ("sector", "network", "builtin_nonlinearity") if k in data]
    if len(present) > 1:
        raise ProblemFormatError(
            "at most one of sector/network/builtin_nonlinearity may be present; got "
            + ", ".join(present),
            path=resolved,
        )

    sector = network = feedback = None
    if "sector" in data:
        sec = data["sector"]
        if not isinstance(sec, dict):
            raise ProblemFormatError("sector: must be an object", path=resolved)
        lower = _matrix(sec, "Sigma1", "sector", resolved)
        upper = _matrix(sec, "Sigma2", "sector", resolved)
        try:
            sector = SectorBound(lower, upper)
        except Exception as exc:
            raise ProblemFormatError(f"sector: {exc}", path=resolved) from None
        if not (sector.lower <= sector.upper).all():
            raise ProblemFormatError(
                "sector: sector lower bound must be <= upper bound elementwise", path=resolved
            )
        if sector.lower.shape != (system.m, system.p):
            raise ProblemFormatError(
                f"sector: must be {system.m}x{system.p}, got {sector.lower.shape}",
                path=resolved,
            )
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

    sim = data.get("simulation", {})
    if not isinstance(sim, dict):
        raise ProblemFormatError("simulation: must be an object", path=resolved)
    unknown = set(sim) - {"dt", "horizon"}
    if unknown:
        raise ProblemFormatError(
            f"simulation: unknown field(s) {sorted(unknown)}", path=resolved
        )
    try:
        sim_config = SimConfig(
            **{key: _number(value, f"simulation.{key}", resolved) for key, value in sim.items()}
        )
    except InputError as exc:
        raise ProblemFormatError(f"simulation: {exc}", path=resolved) from None

    sweep_deltas = None
    if "sweep" in data:
        sw = data["sweep"]
        if not isinstance(sw, dict) or not isinstance(sw.get("deltas"), list):
            raise ProblemFormatError("sweep: must be an object with a 'deltas' list", path=resolved)
        sweep_deltas = [_number(d, "sweep.deltas", resolved) for d in sw["deltas"]]

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


def _build_system(data, path) -> LtiSystem:
    if not isinstance(data, dict):
        raise ProblemFormatError("system: must be an object", path=path)
    a = _matrix(data, "A", "system", path)
    b = _matrix(data, "B", "system", path)
    c = _matrix(data, "C", "system", path)
    try:
        return LtiSystem(a, b, c)
    except DimensionMismatchError as exc:
        raise ProblemFormatError(f"system: {exc}", path=path) from None


def _build_perturbation(data, path, norm_override) -> PerturbationStructure:
    if not isinstance(data, dict):
        raise ProblemFormatError("perturbation: must be an object", path=path)
    d = _matrix(data, "D", "perturbation", path)
    e = _matrix(data, "E", "perturbation", path)
    norm_name = norm_override or data.get("norm", "two")
    try:
        norm = NormKind.from_name(norm_name)
    except InputError as exc:
        raise ProblemFormatError(f"perturbation: {exc}", path=path) from None
    schur = None
    if "S" in data:
        schur = _matrix(data, "S", "perturbation", path)
        norm = NormKind.MAX_ABS if norm_override is None else norm
    elif norm is NormKind.MAX_ABS:
        raise ProblemFormatError("perturbation: the maxabs norm needs a scale pattern S", path=path)
    try:
        return PerturbationStructure(d=d, e=e, norm=norm, schur_scale=schur)
    except (InputError, DimensionMismatchError) as exc:
        raise ProblemFormatError(f"perturbation: {exc}", path=path) from None
