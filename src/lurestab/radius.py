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
from functools import reduce

import numpy as np

from . import linalg
from .errors import (
    CertificationError,
    DimensionMismatchError,
    InputError,
    MissingSchurScaleError,
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


# The certificate and the report compare by identity: a field-wise == over
# their arrays has no single truth value.
@dataclass(frozen=True, eq=False)
class AizermanCertificate:
    """Gate-by-gate outcome of the positivity/stability certification.

    ``verdict``, derived, is the conjunction of the five named gates.
    ``metzler_at_upper`` is informational: B, C >= 0, S1 <= S2 and a Metzler
    lower loop imply it.  Then ``hurwitz_at_upper`` is decided by the
    witness ``positive_vector`` (``v > 0`` with ``(A + B S2 C) v < 0``);
    only a non-Metzler upper loop is gated by its eigenvalues.  ``closed_loop`` is
    that loop M; ``transfer`` is ``(-M)^{-1} D`` from the witness's solve, or None.
    """

    b_nonneg: bool
    c_nonneg: bool
    sector_ordered: bool
    metzler_at_lower: bool
    hurwitz_at_upper: bool
    metzler_at_upper: bool
    positive_vector: np.ndarray | None
    closed_loop: np.ndarray
    transfer: np.ndarray | None

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

    @property
    def verdict(self) -> bool:
        return not self.failed_gates()


@dataclass(frozen=True, eq=False)
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


LOOP = "the closed loop A + B K C"


def _loop_pass(sys: LtiSystem, gain, out=None) -> bool:
    """Whether ``A + B @ gain @ C`` (gain m x p) is Metzler within ``FLOAT_SLACK``, the
    loop made a row block at a time, ``(B gain)[rows] @ C + A[rows]``, into ``out[rows]``
    when given.  Every block passes the gate, which raises on an overflow, naming the
    loop, without a warning; the Metzler test stops at the first block that fails."""
    if np.shape(gain) != (sys.m, sys.p):
        raise DimensionMismatchError(f"gain must be {sys.m}x{sys.p}, got {np.shape(gain)}")
    metzler = True
    with np.errstate(over="ignore", invalid="ignore"):
        feedback = sys.b @ gain
        for i, j in linalg.row_blocks(sys.n):
            block = np.matmul(feedback[i:j], sys.c, out=None if out is None else out[i:j])
            block += sys.a[i:j]
            as_matrix(block, LOOP)
            metzler = metzler and linalg._is_metzler_rows(block, i, linalg.FLOAT_SLACK)
    return metzler


def certify_positive_lure(sys: LtiSystem, sector: SectorBound,
                          pert: PerturbationStructure | None = None) -> AizermanCertificate:
    """Evaluate every gate required for sector-wide exponential stability.

    A true verdict means each nonlinearity inside the sector yields a
    positive, globally exponentially stable closed loop.  Gate checks on
    computed closed-loop matrices carry a small floating-point slack; the
    sign checks on the user-supplied B and C are exact.  A given ``pert`` adds ``transfer``.
    """
    if pert is not None:
        pert.check_dims(sys.n)
    b_nonneg = linalg.is_nonnegative(sys.b)
    c_nonneg = linalg.is_nonnegative(sys.c)
    sector_ordered = sector.ordered
    metzler_at_lower = _loop_pass(sys, sector.lower)  # gated before the upper loop
    upper = np.empty((sys.n, sys.n))
    metzler_at_upper = _loop_pass(sys, sector.upper, upper)
    positive_vector = transfer = None
    if metzler_at_upper:
        positive_vector, transfer = linalg.metzler_solve(upper, None if pert is None else pert.d)
        hurwitz_at_upper = positive_vector is not None
    else:
        hurwitz_at_upper = linalg.is_hurwitz(upper)
    return AizermanCertificate(
        b_nonneg=b_nonneg,
        c_nonneg=c_nonneg,
        sector_ordered=sector_ordered,
        metzler_at_lower=metzler_at_lower,
        hurwitz_at_upper=hurwitz_at_upper,
        metzler_at_upper=metzler_at_upper,
        positive_vector=positive_vector,
        closed_loop=upper,
        transfer=transfer,
    )


def _require_monotone_norm(norm: NormKind) -> None:
    if norm is NormKind.MAX_ABS:
        raise InputError(
            "the maxabs norm is reserved for the Schur-scaled radius; "
            "use norm one/two/inf here"
        )


def _radius(what: str, norm: NormKind | None, *factors: np.ndarray) -> float:
    """``1 / size`` of the transfer, the product of ``factors`` from the left,
    gated once under its name ``what``.  Its size is its operator ``norm``, or
    its spectral radius where ``norm`` is None.  A zero size raises."""
    with np.errstate(over="ignore", invalid="ignore"):  # as_matrix names an overflow
        transfer = as_matrix(reduce(np.matmul, factors), what)
    size = linalg.operator_norm(transfer, norm) if norm else linalg.spectral_radius(transfer)
    if size <= 0.0:
        raise ZeroSpectralRadiusError(
            f"the {'norm' if norm else 'spectral radius'} of {what} is zero; "
            "this structure cannot destabilize the system"
        )
    return 1.0 / size


def _plant_radius(a, pert: PerturbationStructure, formula: str, what: str, norm, *scale):
    """The report of the positive flow ``a``'s radius; ``norm`` as for ``_radius``."""
    a = as_matrix(a, "A")
    pert.check_dims(a.shape[0])
    _, solution = linalg._metzler_hurwitz_solve(
        a, pert.d, "stability radius formula requires a {} matrix"
    )
    return RadiusReport(
        radius=_radius(what, norm, pert.e, solution, *scale),
        norm=pert.norm,
        formula=formula,
        closed_loop=a,
    )


def stability_radius_linear(a, pert: PerturbationStructure) -> RadiusReport:
    """Exact radius of destabilizing ``D @ delta @ E`` for a stable positive flow.

    For Metzler Hurwitz ``a`` and nonnegative D, E the real and complex
    radii coincide and equal ``1 / ||E a^{-1} D||`` in any operator norm.
    """
    _require_monotone_norm(pert.norm)
    return _plant_radius(a, pert, "linear_norm", "the transfer E A^-1 D", pert.norm)


def stability_radius_schur(a, pert: PerturbationStructure) -> RadiusReport:
    """Radius for entrywise-scaled perturbations ``S (.) delta`` under the
    max-entry norm: ``1 / rho(E (-a)^{-1} D S)``."""
    if pert.schur_scale is None:
        raise MissingSchurScaleError("the Schur-scaled radius needs a scale pattern S")
    what = "the scaled transfer E A^-1 D S"
    return _plant_radius(a, pert, "schur_spectral", what, None, pert.schur_scale)


def stability_radius_lure(
    sys: LtiSystem,
    sector: SectorBound,
    pert: PerturbationStructure,
    override_gates: bool = False,
) -> RadiusReport:
    """Radius of the sector-bounded loop: ``1 / ||E (A + B S2 C)^{-1} D||``.

    The worst case over the sector is its upper edge, so the formula
    evaluates the upper closed loop, on the certificate's transfer.  Gate
    failures raise unless ``override_gates`` asks for the formula anyway
    (callers should then treat the result as outside the certified regime),
    and they always raise where the upper loop has no Metzler solve.
    """
    _require_monotone_norm(pert.norm)
    certificate = certify_positive_lure(sys, sector, pert)
    if not certificate.verdict and not (override_gates and certificate.transfer is not None):
        reason = "" if certificate.transfer is not None else "; the upper loop has no Metzler solve"
        raise CertificationError(
            "closed loop failed gate(s): " + ", ".join(certificate.failed_gates()) + reason,
            certificate=certificate,
        )
    return RadiusReport(
        radius=_radius("the transfer E (A + B S2 C)^-1 D", pert.norm, pert.e, certificate.transfer),
        norm=pert.norm,
        formula="lure_upper_sector",
        closed_loop=certificate.closed_loop,
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
    with np.errstate(over="ignore", invalid="ignore"):  # as_matrix names an overflow
        perturbed = as_matrix(
            sys.a + delta_crit * (pert.d @ np.eye(pert.k1, pert.k2) @ pert.e), "A + delta_crit D E"
        )
    what = "refine requires a {} A + delta_crit D E"
    _, solution = linalg._metzler_hurwitz_solve(perturbed, sys.b, what)
    return _radius("the transfer C (A + delta_crit D E)^-1 B", pert.norm, sys.c, solution)
