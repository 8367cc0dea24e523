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

from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import (
    CertificationError,
    DimensionMismatchError,
    InputError,
    MissingSchurScaleError,
    NotHurwitzError,
    NotMetzlerError,
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
    """Elementwise pair of gain matrices, ``lower`` (Sigma1) and ``upper``
    (Sigma2), sandwiching a nonlinearity; whether ``lower <= upper`` holds
    (``ordered``) is the certificate's ``sector_ordered`` gate."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = as_matrix(self.lower, "Sigma1")
        upper = as_matrix(self.upper, "Sigma2")
        if lower.shape != upper.shape:
            raise DimensionMismatchError(
                f"sector bounds must share a shape: {lower.shape} vs {upper.shape}"
            )
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def ordered(self) -> bool:
        """Whether ``lower <= upper`` holds elementwise."""
        return bool((self.lower <= self.upper).all())

    @classmethod
    def scalar(cls, lower: float, upper: float) -> "SectorBound":
        return cls(np.array([[float(lower)]]), np.array([[float(upper)]]))


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
            raise InputError("D must be elementwise nonnegative")
        if not linalg.is_nonnegative(e):
            raise InputError("E must be elementwise nonnegative")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "e", e)
        if self.schur_scale is not None:
            s = as_matrix(self.schur_scale, "S")
            if not linalg.is_nonnegative(s):
                raise InputError("schur scale S must be elementwise nonnegative")
            if s.shape != (self.k1, self.k2):
                raise DimensionMismatchError(
                    f"S must be {self.k1}x{self.k2} to scale delta, got {s.shape}"
                )
            if self.norm is not NormKind.MAX_ABS:
                raise InputError("a Schur scale pattern requires the maxabs norm")
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
    ``metzler_at_upper`` is informational: B, C >= 0, S1 <= S2 and a Metzler
    lower loop imply it.  Then ``hurwitz_at_upper`` is decided by the
    witness ``positive_vector`` (``v > 0`` with ``(A + B S2 C) v < 0``);
    only a non-Metzler upper loop is gated by its eigenvalues.
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

    ``closed_loop`` is the matrix the formula solved with, and
    ``formula`` is one of ``linear_norm``, ``schur_spectral``,
    ``lure_upper_sector``, ``nn_upper_sector``.  The loop formulas also
    record the ``sector`` whose upper edge they evaluated.
    """

    radius: float
    norm: NormKind
    formula: str
    closed_loop: np.ndarray
    certificate: AizermanCertificate | None = None
    sector: SectorBound | None = None


def closed_loop_matrix(sys: LtiSystem, gain) -> np.ndarray:
    """``A + B @ gain @ C`` for a constant feedback gain (m x p), through the
    gate once: a loop that overflows raises, naming the loop, and does not warn."""
    if np.shape(gain) != (sys.m, sys.p):
        raise DimensionMismatchError(f"gain must be {sys.m}x{sys.p}, got {np.shape(gain)}")
    with np.errstate(over="ignore", invalid="ignore"):
        return as_matrix(sys.a + sys.b @ gain @ sys.c, "the closed loop A + B K C")


def certify_positive_lure(sys: LtiSystem, sector: SectorBound) -> AizermanCertificate:
    """Evaluate every gate required for sector-wide exponential stability.

    A true verdict means each nonlinearity inside the sector yields a
    positive, globally exponentially stable closed loop.  Gate checks on
    computed closed-loop matrices carry a small floating-point slack; the
    sign checks on the user-supplied B and C are exact.
    """
    return _certify(sys, sector)[0]


def _certify(sys: LtiSystem, sector: SectorBound, rhs=None) -> tuple:
    """The certificate, the upper loop ``M`` and ``(-M)^{-1} rhs`` (or None), by one LU."""
    b_nonneg = linalg.is_nonnegative(sys.b)
    c_nonneg = linalg.is_nonnegative(sys.c)
    sector_ordered = sector.ordered
    lower_loop = closed_loop_matrix(sys, sector.lower)
    upper_loop = closed_loop_matrix(sys, sector.upper)
    metzler_at_lower = linalg.is_metzler(lower_loop, tol=linalg.FLOAT_SLACK)
    metzler_at_upper = linalg.is_metzler(upper_loop, tol=linalg.FLOAT_SLACK)
    positive_vector = solution = None
    if metzler_at_upper:
        positive_vector, solution = linalg.metzler_solve(upper_loop, rhs)
        hurwitz_at_upper = positive_vector is not None
    else:
        hurwitz_at_upper = linalg.is_hurwitz(upper_loop)
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
    ), upper_loop, solution


def _require_monotone_norm(norm: NormKind) -> None:
    if norm is NormKind.MAX_ABS:
        raise InputError(
            "the maxabs norm is reserved for the Schur-scaled radius; "
            "use norm one/two/inf here"
        )


def _metzler_hurwitz_solve(
    a: np.ndarray, rhs: np.ndarray, what: str = "stability radius formula requires a {} matrix"
) -> np.ndarray:
    """``(-a)^{-1} rhs`` for the linear formulas and refine, gated by the
    witness of the same LU.  ``what`` words the refusal, with ``{}`` for
    the property that ``a`` lacks."""
    if not linalg.is_metzler(a, tol=linalg.FLOAT_SLACK):
        raise NotMetzlerError(what.format("Metzler"))
    v, solution = linalg.metzler_solve(a, rhs)
    if v is None:
        raise NotHurwitzError(what.format("Hurwitz"))
    return solution


def _reciprocal(size: float, what: str) -> float:
    """``1 / size`` for the radius formulas; a zero ``size`` raises."""
    if size <= 0.0:
        raise ZeroSpectralRadiusError(
            f"{what} is zero; this structure cannot destabilize the system"
        )
    return 1.0 / size


def stability_radius_linear(a, pert: PerturbationStructure) -> RadiusReport:
    """Exact radius of destabilizing ``D @ delta @ E`` for a stable positive flow.

    For Metzler Hurwitz ``a`` and nonnegative D, E the real and complex
    radii coincide and equal ``1 / ||E a^{-1} D||`` in any operator norm.
    """
    a = as_matrix(a, "A")
    pert.check_dims(a.shape[0])
    _require_monotone_norm(pert.norm)
    what = "the transfer E A^-1 D"
    with np.errstate(over="ignore", invalid="ignore"):  # as_matrix names an overflow
        transfer = as_matrix(pert.e @ _metzler_hurwitz_solve(a, pert.d), what)
    return RadiusReport(
        radius=_reciprocal(linalg.operator_norm(transfer, pert.norm), what),
        norm=pert.norm,
        formula="linear_norm",
        closed_loop=a,
    )


def stability_radius_schur(a, pert: PerturbationStructure) -> RadiusReport:
    """Radius for entrywise-scaled perturbations ``S (.) delta`` under the
    max-entry norm: ``1 / rho(E (-a)^{-1} D S)``."""
    a = as_matrix(a, "A")
    pert.check_dims(a.shape[0])
    if pert.schur_scale is None:
        raise MissingSchurScaleError("the Schur-scaled radius needs a scale pattern S")
    with np.errstate(over="ignore", invalid="ignore"):  # as_matrix names an overflow
        product = as_matrix(
            pert.e @ _metzler_hurwitz_solve(a, pert.d) @ pert.schur_scale,
            "the scaled transfer E A^-1 D S",
        )
    return RadiusReport(
        radius=_reciprocal(
            linalg.spectral_radius(product), "spectral radius of the scaled transfer"
        ),
        norm=NormKind.MAX_ABS,
        formula="schur_spectral",
        closed_loop=a,
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
    certificate, upper_loop, solution = _certify(sys, sector, pert.d)
    if not certificate.verdict and not override_gates:
        raise CertificationError(
            "closed loop failed gate(s): " + ", ".join(certificate.failed_gates()),
            certificate=certificate,
        )
    if solution is None:
        # reached by override only: a non-Metzler upper loop, or a singular one (this raises)
        solution = linalg.inverse(-upper_loop, pert.d)
    what = "the transfer E (A + B S2 C)^-1 D"
    with np.errstate(over="ignore", invalid="ignore"):  # as_matrix names an overflow
        transfer = as_matrix(pert.e @ solution, what)
    return RadiusReport(
        radius=_reciprocal(linalg.operator_norm(transfer, pert.norm), what),
        norm=pert.norm,
        formula="lure_upper_sector",
        closed_loop=upper_loop,
        certificate=certificate,
        sector=sector,
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
        raise InputError("network sector must be symmetric (lower == -upper)")
    report = stability_radius_lure(sys, nn_sector, pert, override_gates=override_gates)
    return replace(report, formula="nn_upper_sector")


def refine_upper_sector(
    sys: LtiSystem,
    pert: PerturbationStructure,
    delta_crit: float,
) -> float:
    """Upper sector magnitude implied by an observed critical perturbation.

    Given the perturbation size ``delta_crit`` at which the loop was seen
    to destabilize, the tightest consistent sector magnitude is
    ``1 / ||C (A + delta_crit * D @ I @ E)^{-1} B||``, with ``I`` the
    identity pattern (the scalar 1 for a scalar structure).  The perturbed
    plant must be Metzler and Hurwitz, else no nonnegative sector exists and
    this raises.  For a scalar loop the sign of ``+-magnitude`` is selected
    empirically against the network.
    """
    if not 0 <= delta_crit < np.inf:  # a NaN fails too
        raise InputError(f"delta_crit must be nonnegative and finite; got {delta_crit!r}")
    pert.check_dims(sys.n)
    what = "the transfer C (A + delta_crit D E)^-1 B"
    with np.errstate(over="ignore", invalid="ignore"):  # as_matrix names an overflow
        perturbed = as_matrix(
            sys.a + delta_crit * (pert.d @ np.eye(pert.k1, pert.k2) @ pert.e), "A + delta_crit D E"
        )
        solution = _metzler_hurwitz_solve(
            perturbed, sys.b, "refine requires a {} A + delta_crit D E"
        )
        transfer = as_matrix(sys.c @ solution, what)
    return _reciprocal(linalg.operator_norm(transfer, pert.norm), what)
