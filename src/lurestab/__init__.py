"""Stability radii and sector-bound certification for positive feedback loops."""

from .errors import LureStabError
from .linalg import (
    NormKind,
    is_hurwitz,
    is_metzler,
    is_nonnegative,
    operator_norm,
    spectral_abscissa,
    spectral_radius,
)
from .radius import (
    AizermanCertificate,
    LtiSystem,
    PerturbationStructure,
    RadiusReport,
    SectorBound,
    certify_positive_lure,
    nn_stability_radius,
    refine_upper_sector,
    stability_radius_linear,
    stability_radius_lure,
    stability_radius_schur,
)
from .ffnn import (
    ActivationSpec,
    Ffnn,
    Layer,
    empirical_sector_check,
    ffnn_eval,
    sector_bound_ffnn,
    select_refined_sign,
)
from .sim import (
    BUILTIN_NONLINEARITIES,
    Nonlinearity,
    SimConfig,
    StabilityVerdict,
    TrajectoryBlock,
    classify_stability,
    find_critical_delta,
    simulate_lure,
    sweep,
)
from .problems import load_ffnn

__version__ = "0.1.0"

__all__ = [
    "ActivationSpec",
    "AizermanCertificate",
    "BUILTIN_NONLINEARITIES",
    "Ffnn",
    "Layer",
    "LtiSystem",
    "LureStabError",
    "NormKind",
    "Nonlinearity",
    "PerturbationStructure",
    "RadiusReport",
    "SectorBound",
    "SimConfig",
    "StabilityVerdict",
    "TrajectoryBlock",
    "certify_positive_lure",
    "classify_stability",
    "empirical_sector_check",
    "ffnn_eval",
    "find_critical_delta",
    "is_hurwitz",
    "is_metzler",
    "is_nonnegative",
    "load_ffnn",
    "nn_stability_radius",
    "operator_norm",
    "refine_upper_sector",
    "sector_bound_ffnn",
    "select_refined_sign",
    "simulate_lure",
    "spectral_abscissa",
    "spectral_radius",
    "stability_radius_linear",
    "stability_radius_lure",
    "stability_radius_schur",
    "sweep",
]
