"""Closed-loop assembly, positivity/stability certification, and stability radii.

The central objects are a linear block (A, B, C), an elementwise sector
``[lower, upper]`` enclosing the feedback nonlinearity, and a structured
perturbation ``A + D @ delta @ E``.  When the lower-sector closed loop is
Metzler and the upper-sector closed loop is Hurwitz, every sector
nonlinearity yields a globally exponentially stable loop, and the exact
radius of destabilizing perturbations is ``1 / ||E (A + B S2 C)^{-1} D||``
in any norm monotone on nonnegative matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    CertificationError,
    DimensionMismatchError,
    MissingSchurScaleError,
    NotHurwitzError,
    NotMetzlerError,
    OrderViolationError,
    UpperNotMetzlerError,
    ZeroSpectralRadiusError,
)
from .linalg import NormKind, as_matrix


@dataclass(frozen=True)
class LtiSystem:
    """Linear block ``x' = A x + B u``, ``y = C x`` with consistent dimensions."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.a, "A")
        b = as_matrix(self.b, "B")
        c = as_matrix(self.c, "C")
        if a.shape[0] != a.shape[1]:
            raise DimensionMismatchError(f"A must be square, got {a.shape}")
        n = a.shape[0]
        if b.shape[0] != n:
            raise DimensionMismatchError(f"B must have {n} rows, got {b.shape}")
        if c.shape[1] != n:
            raise DimensionMismatchError(f"C must have {n} columns, got {c.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]

    @property
    def p(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class SectorBound:
    """Elementwise pair of gain matrices sandwiching a nonlinearity."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = as_matrix(self.lower, "sector lower")
        upper = as_matrix(self.upper, "sector upper")
        if lower.shape != upper.shape:
            raise DimensionMismatchError(
                f"sector bounds must share a shape: {lower.shape} vs {upper.shape}"
            )
        if not (lower <= upper).all():
            raise OrderViolationError("sector lower bound must be <= upper bound elementwise")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def scalar(cls, lower: float, upper: float) -> "SectorBound":
        return cls(np.array([[float(lower)]]), np.array([[float(upper)]]))

    @classmethod
    def symmetric(cls, upper) -> "SectorBound":
        upper = as_matrix(upper, "sector upper")
        return cls(-upper, upper)


@dataclass(frozen=True)
class PerturbationStructure:
    """Structured perturbation ``D @ delta @ E`` with a norm on delta.

    ``schur_scale`` holds the nonnegative pattern S for entrywise-scaled
    perturbations; it is only meaningful together with the MAX_ABS norm.
    """

    d: np.ndarray
    e: np.ndarray
    norm: NormKind = NormKind.TWO
    schur_scale: np.ndarray | None = None

    def __post_init__(self):
        d = as_matrix(self.d, "D")
        e = as_matrix(self.e, "E")
        if not linalg.is_nonnegative(d):
            raise ValueError("D must be elementwise nonnegative")
        if not linalg.is_nonnegative(e):
            raise ValueError("E must be elementwise nonnegative")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "e", e)
        if self.schur_scale is not None:
            s = as_matrix(self.schur_scale, "S")
            if not linalg.is_nonnegative(s):
                raise ValueError("schur scale S must be elementwise nonnegative")
            if s.shape != (self.k1, self.k2):
                raise DimensionMismatchError(
                    f"S must be {self.k1}x{self.k2} to scale delta, got {s.shape}"
                )
            if self.norm is not NormKind.MAX_ABS:
                raise ValueError("a Schur scale pattern requires the maxabs norm")
            object.__setattr__(self, "schur_scale", s)

    @property
    def k1(self) -> int:
        """Number of delta rows (columns of D)."""
        return self.d.shape[1]

    @property
    def k2(self) -> int:
        """Number of delta columns (rows of E)."""
        return self.e.shape[0]

    def check_dims(self, n: int) -> None:
        if self.d.shape[0] != n:
            raise DimensionMismatchError(f"D must have {n} rows, got {self.d.shape}")
        if self.e.shape[1] != n:
            raise DimensionMismatchError(f"E must have {n} columns, got {self.e.shape}")


@dataclass(frozen=True)
class AizermanCertificate:
    """Gate-by-gate outcome of the positivity/stability certification.

    ``verdict`` is the conjunction of the five named gates.
    ``metzler_at_upper`` is informational: it always holds when the lower
    gate passes, and it controls whether ``positive_vector`` (the witness
    ``v > 0`` with ``(A + B S2 C) v < 0``) could be constructed.
    """

    b_nonneg: bool
    c_nonneg: bool
    sector_ordered: bool
    metzler_at_lower: bool
    hurwitz_at_upper: bool
    metzler_at_upper: bool
    positive_vector: np.ndarray | None
    verdict: bool

    def gates(self) -> dict:
        return {
            "b_nonneg": self.b_nonneg,
            "c_nonneg": self.c_nonneg,
            "sector_ordered": self.sector_ordered,
            "metzler_at_lower": self.metzler_at_lower,
            "hurwitz_at_upper": self.hurwitz_at_upper,
        }

    def failed_gates(self) -> list[str]:
        return [name for name, ok in self.gates().items() if not ok]


@dataclass(frozen=True)
class RadiusReport:
    """A computed stability radius together with its provenance.

    ``closed_loop`` is the matrix whose inverse the formula took, and
    ``formula`` is one of ``linear_norm``, ``schur_spectral``,
    ``lure_upper_sector``, ``nn_upper_sector``.
    """

    radius: float
    norm: NormKind
    formula: str
    closed_loop: np.ndarray
    certificate: AizermanCertificate | None = None
    gates: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RefinedSector:
    """Magnitude of a data-driven upper sector bound and its signed candidates."""

    magnitude: float
    candidates: tuple[np.ndarray, np.ndarray]


def closed_loop_matrix(sys: LtiSystem, gain) -> np.ndarray:
    """``A + B @ gain @ C`` for a constant feedback gain (m x p)."""
    gain = as_matrix(gain, "gain")
    if gain.shape != (sys.m, sys.p):
        raise DimensionMismatchError(
            f"gain must be {sys.m}x{sys.p}, got {gain.shape}"
        )
    return sys.a + sys.b @ gain @ sys.c


def certify_positive_lure(sys: LtiSystem, sector: SectorBound) -> AizermanCertificate:
    """Evaluate every gate required for sector-wide exponential stability.

    A true verdict means each nonlinearity inside the sector yields a
    positive, globally exponentially stable closed loop.  Gate checks on
    computed closed-loop matrices carry a small floating-point slack; the
    sign checks on the user-supplied B and C are exact.
    """
    if sector.lower.shape != (sys.m, sys.p):
        raise DimensionMismatchError(
            f"sector must be {sys.m}x{sys.p}, got {sector.lower.shape}"
        )
    b_nonneg = linalg.is_nonnegative(sys.b)
    c_nonneg = linalg.is_nonnegative(sys.c)
    sector_ordered = linalg.elementwise_leq(sector.lower, sector.upper)
    lower_loop = closed_loop_matrix(sys, sector.lower)
    upper_loop = closed_loop_matrix(sys, sector.upper)
    metzler_at_lower = linalg.is_metzler(lower_loop, tol=linalg.FLOAT_SLACK)
    metzler_at_upper = linalg.is_metzler(upper_loop, tol=linalg.FLOAT_SLACK)
    hurwitz_at_upper = linalg.is_hurwitz(upper_loop)
    positive_vector = None
    if hurwitz_at_upper and metzler_at_upper:
        try:
            positive_vector = linalg.metzler_hurwitz_certificate(upper_loop)
        except (NotMetzlerError, NotHurwitzError):
            positive_vector = None
    verdict = bool(
        b_nonneg and c_nonneg and sector_ordered and metzler_at_lower and hurwitz_at_upper
    )
    return AizermanCertificate(
        b_nonneg=b_nonneg,
        c_nonneg=c_nonneg,
        sector_ordered=sector_ordered,
        metzler_at_lower=metzler_at_lower,
        hurwitz_at_upper=hurwitz_at_upper,
        metzler_at_upper=metzler_at_upper,
        positive_vector=positive_vector,
        verdict=verdict,
    )


def _require_monotone_norm(norm: NormKind) -> None:
    if norm is NormKind.MAX_ABS:
        raise ValueError(
            "the maxabs norm is reserved for the Schur-scaled radius; "
            "use norm one/two/inf here"
        )


def stability_radius_linear(a, pert: PerturbationStructure) -> RadiusReport:
    """Exact radius of destabilizing ``D @ delta @ E`` for a stable positive flow.

    For Metzler Hurwitz ``a`` and nonnegative D, E the real and complex
    radii coincide and equal ``1 / ||E a^{-1} D||`` in any operator norm.
    """
    a = as_matrix(a, "A")
    pert.check_dims(a.shape[0])
    _require_monotone_norm(pert.norm)
    if not linalg.is_metzler(a, tol=linalg.FLOAT_SLACK):
        raise NotMetzlerError("stability radius formula requires a Metzler matrix")
    if not linalg.is_hurwitz(a):
        raise NotHurwitzError("stability radius formula requires a Hurwitz matrix")
    transfer = pert.e @ linalg.inverse(a) @ pert.d
    radius = 1.0 / linalg.operator_norm(transfer, pert.norm)
    return RadiusReport(
        radius=radius,
        norm=pert.norm,
        formula="linear_norm",
        closed_loop=a,
        gates={"metzler": True, "hurwitz": True},
    )


def stability_radius_schur(a, pert: PerturbationStructure) -> RadiusReport:
    """Radius for entrywise-scaled perturbations ``S (.) delta`` under the
    max-entry norm: ``1 / rho(E (-a)^{-1} D S)``."""
    a = as_matrix(a, "A")
    pert.check_dims(a.shape[0])
    if pert.schur_scale is None:
        raise MissingSchurScaleError("the Schur-scaled radius needs a scale pattern S")
    if not linalg.is_metzler(a, tol=linalg.FLOAT_SLACK):
        raise NotMetzlerError("stability radius formula requires a Metzler matrix")
    if not linalg.is_hurwitz(a):
        raise NotHurwitzError("stability radius formula requires a Hurwitz matrix")
    product = pert.e @ linalg.inverse(-a) @ pert.d @ pert.schur_scale
    rho = linalg.spectral_radius(product)
    if rho <= 0.0:
        raise ZeroSpectralRadiusError(
            "spectral radius of the scaled transfer is zero; "
            "this structure cannot destabilize the system"
        )
    return RadiusReport(
        radius=1.0 / rho,
        norm=NormKind.MAX_ABS,
        formula="schur_spectral",
        closed_loop=a,
        gates={"metzler": True, "hurwitz": True},
    )


def stability_radius_lure(
    sys: LtiSystem,
    sector: SectorBound,
    pert: PerturbationStructure,
    override_gates: bool = False,
) -> RadiusReport:
    """Radius of the sector-bounded loop: ``1 / ||E (A + B S2 C)^{-1} D||``.

    The worst case over the sector is its upper edge, so the formula
    evaluates the upper closed loop.  Gate failures raise unless
    ``override_gates`` asks for the formula anyway (callers should then
    treat the result as outside the certified regime).
    """
    pert.check_dims(sys.n)
    _require_monotone_norm(pert.norm)
    certificate = certify_positive_lure(sys, sector)
    if not certificate.verdict and not override_gates:
        raise CertificationError(
            "closed loop failed gate(s): " + ", ".join(certificate.failed_gates()),
            certificate=certificate,
        )
    if not certificate.metzler_at_upper and not override_gates:
        raise UpperNotMetzlerError(
            "upper-sector closed loop is not Metzler; the radius formula "
            "is not certified for this system"
        )
    upper_loop = closed_loop_matrix(sys, sector.upper)
    transfer = pert.e @ linalg.inverse(upper_loop) @ pert.d
    radius = 1.0 / linalg.operator_norm(transfer, pert.norm)
    return RadiusReport(
        radius=radius,
        norm=pert.norm,
        formula="lure_upper_sector",
        closed_loop=upper_loop,
        certificate=certificate,
    )


def nn_stability_radius(
    sys: LtiSystem,
    nn_sector: SectorBound,
    pert: PerturbationStructure,
    override_gates: bool = False,
) -> RadiusReport:
    """Radius of a network-in-the-loop system via its symmetric sector.

    ``nn_sector`` must satisfy ``lower == -upper`` (as produced by the
    weight-product bound); the computation then coincides with the
    sector-loop radius at the upper edge.
    """
    if not np.allclose(nn_sector.lower, -nn_sector.upper, rtol=0.0, atol=1e-12):
        raise ValueError("network sector must be symmetric (lower == -upper)")
    report = stability_radius_lure(sys, nn_sector, pert, override_gates=override_gates)
    return RadiusReport(
        radius=report.radius,
        norm=report.norm,
        formula="nn_upper_sector",
        closed_loop=report.closed_loop,
        certificate=report.certificate,
    )


def refine_upper_sector(
    sys: LtiSystem,
    pert: PerturbationStructure,
    delta_crit: float,
    direction: np.ndarray | None = None,
) -> RefinedSector:
    """Upper sector magnitude implied by an observed critical perturbation.

    Given the perturbation size ``delta_crit`` at which the loop was seen
    to destabilize, the tightest consistent sector magnitude is
    ``1 / ||C (A + delta_crit * D @ direction @ E)^{-1} B||``.  ``direction``
    defaults to the scalar 1 (identity pattern for larger blocks).  For a
    scalar loop the sign is undetermined, so both signed candidates are
    returned; sign selection is done empirically against the network.
    """
    if delta_crit < 0:
        raise ValueError("delta_crit must be nonnegative")
    pert.check_dims(sys.n)
    if direction is None:
        direction = np.eye(pert.k1, pert.k2)
    direction = as_matrix(direction, "direction")
    if direction.shape != (pert.k1, pert.k2):
        raise DimensionMismatchError(
            f"direction must be {pert.k1}x{pert.k2}, got {direction.shape}"
        )
    perturbed = sys.a + delta_crit * (pert.d @ direction @ pert.e)
    transfer = sys.c @ linalg.inverse(perturbed) @ sys.b
    magnitude = 1.0 / linalg.operator_norm(transfer, pert.norm)
    candidates = (np.array([[magnitude]]), np.array([[-magnitude]]))
    return RefinedSector(magnitude=magnitude, candidates=candidates)
