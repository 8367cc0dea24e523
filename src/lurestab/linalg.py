"""Dense real-matrix predicates, norms, inverses, and spectral quantities.

Everything here works on plain 2-D numpy arrays at desk scale (n up to a
few hundred).  Vectors are carried as (n, 1) or (1, n) matrices by the
analysis layer; helper routines return 1-D arrays where that is the
natural numpy shape.
"""

from __future__ import annotations

import warnings
from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteEntriesError,
    NonSquareError,
    NotHurwitzError,
    NotMetzlerError,
    SingularMatrixError,
)

# Strict stability margin: a matrix counts as Hurwitz only if its spectral
# abscissa is below -HURWITZ_TOL.
HURWITZ_TOL = 1e-9

# A pivot below this fraction of the largest entry magnitude is treated as zero.
PIVOT_RTOL = 1e-12

# Residual tolerance for inverse round trips, and the slack used when checking
# sign conditions on *computed* (as opposed to user-supplied) matrices.
FLOAT_SLACK = 1e-9


class NormKind(Enum):
    """Matrix norms used to measure perturbations.

    ONE, TWO and INF are operator norms, all monotone on the cone of
    nonnegative matrices.  MAX_ABS (largest entry magnitude) is reserved
    for the Schur-scaled radius variant and is excluded from the
    monotone-norm radius formulas.
    """

    ONE = "one"
    TWO = "two"
    INF = "inf"
    MAX_ABS = "maxabs"

    @classmethod
    def from_name(cls, name: str) -> "NormKind":
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown norm {name!r}; expected one of: {valid}") from None


def as_matrix(obj, name: str = "matrix") -> np.ndarray:
    """Coerce ``obj`` to a validated 2-D float array.

    Rejects ragged nestings, non-2-D shapes, empty axes, and non-finite
    entries.  This is the single construction gate for matrix data.
    """
    try:
        m = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatchError(f"{name}: not a rectangular numeric array ({exc})") from None
    if m.ndim != 2:
        raise DimensionMismatchError(f"{name}: expected a 2-D matrix, got shape {m.shape}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise DimensionMismatchError(f"{name}: empty matrix of shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteEntriesError(f"{name}: contains NaN or infinite entries")
    return m


def _require_square(m: np.ndarray, name: str = "matrix") -> None:
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"{name}: expected square matrix, got shape {m.shape}")


def is_nonnegative(m, tol: float = 0.0) -> bool:
    """True iff every entry is >= -tol (exact sign test by default)."""
    m = as_matrix(m)
    return bool((m >= -tol).all())


def is_metzler(m, tol: float = 0.0) -> bool:
    """True iff every off-diagonal entry is >= -tol; the diagonal is free."""
    m = as_matrix(m)
    _require_square(m)
    off = m - np.diag(np.diag(m))
    return bool((off >= -tol).all())


def spectral_abscissa(m) -> float:
    """Largest real part over the eigenvalues, by the dense QR method."""
    m = as_matrix(m)
    _require_square(m)
    eigs = np.linalg.eigvals(m)
    return float(np.max(eigs.real))


def is_hurwitz(m, tol: float = HURWITZ_TOL) -> bool:
    """True iff the spectral abscissa is strictly below ``-tol``."""
    return spectral_abscissa(m) < -tol


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus, by the dense QR method."""
    m = as_matrix(m)
    _require_square(m)
    eigs = np.linalg.eigvals(m)
    return float(np.max(np.abs(eigs)))


def operator_norm(m, kind: NormKind = NormKind.TWO) -> float:
    """Matrix norm of the requested kind.

    ONE is the maximum column abs-sum, INF the maximum row abs-sum, TWO the
    largest singular value, MAX_ABS the largest entry magnitude.
    """
    m = as_matrix(m)
    if kind is NormKind.ONE:
        return float(np.abs(m).sum(axis=0).max())
    if kind is NormKind.INF:
        return float(np.abs(m).sum(axis=1).max())
    if kind is NormKind.TWO:
        return float(np.linalg.norm(m, 2))
    if kind is NormKind.MAX_ABS:
        return float(np.abs(m).max())
    raise ValueError(f"unknown norm kind {kind!r}")


def inverse(m) -> np.ndarray:
    """Matrix inverse via LU with a scale-relative pivot threshold.

    Raises SingularMatrixError when any pivot magnitude falls below
    ``PIVOT_RTOL`` times the largest entry magnitude.
    """
    import scipy.linalg  # deferred: keeps CLI start-up light

    m = as_matrix(m)
    _require_square(m)
    scale = float(np.abs(m).max())
    if scale == 0.0:
        raise SingularMatrixError("cannot invert the zero matrix")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(m)
    if np.abs(np.diag(lu)).min() < PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"pivot below {PIVOT_RTOL:g} * max|entry|; matrix is numerically singular"
        )
    return scipy.linalg.lu_solve((lu, piv), np.eye(m.shape[0]))


def metzler_hurwitz_certificate(m) -> np.ndarray:
    """Positive vector ``v`` with ``m @ v < 0``, certifying Hurwitz stability.

    For a Metzler matrix, ``v = (-m)^{-1} @ ones`` works exactly when ``-m``
    is a nonsingular M-matrix, i.e. when ``m`` is Hurwitz.  Returns ``v`` as
    a 1-D array; raises NotHurwitzError when no certificate exists.
    """
    m = as_matrix(m)
    _require_square(m)
    # slack admits float noise in computed closed loops; the returned
    # certificate is still verified exactly below
    if not is_metzler(m, tol=FLOAT_SLACK):
        raise NotMetzlerError("certificate construction requires a Metzler matrix")
    try:
        v = inverse(-m) @ np.ones(m.shape[0])
    except SingularMatrixError:
        raise NotHurwitzError("matrix is singular, hence not Hurwitz") from None
    if not (v > 0).all() or not ((m @ v) < 0).all():
        raise NotHurwitzError("no positive vector v with m @ v < 0 exists")
    return v


def elementwise_leq(a, b) -> bool:
    """True iff ``a[i, j] <= b[i, j]`` for all entries."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    return bool((a <= b).all())
