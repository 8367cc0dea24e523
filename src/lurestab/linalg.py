"""Dense real-matrix predicates, norms, LAPACK solves, and spectral quantities.

Everything here works on plain dense 2-D numpy arrays (n up to about a
thousand).  Vectors are carried as (n, 1) or (1, n) matrices by the
analysis layer; helper routines return 1-D arrays where that is the
natural numpy shape.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatchError,
    InputError,
    NonFiniteEntriesError,
    NonSquareError,
    NotHurwitzError,
    NotMetzlerError,
    SingularMatrixError,
)

# Strict stability margin of the eigenvalue test, used for non-Metzler matrices:
# a matrix counts as Hurwitz only if its spectral abscissa is below -HURWITZ_TOL.
HURWITZ_TOL = 1e-9

# A solve whose condition number exceeds this bound is refused as numerically singular.
COND_MAX = 1e12

# Slack used when checking sign conditions on *computed* (as opposed to
# user-supplied) matrices.
FLOAT_SLACK = 1e-9

# Rows per block of a whole-matrix pass over a dense loop (400 KB at n = 800).
ROW_BLOCK = 64


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
            raise InputError(f"unknown norm {name!r}; expected one of: {valid}") from None


def as_matrix(obj, name: str = "matrix") -> np.ndarray:
    """Coerce ``obj`` to a validated 2-D float array.

    Rejects ragged nestings, non-2-D shapes, empty axes, and non-finite
    entries.  This is the single construction gate for matrix data.
    """
    try:
        m = np.asarray(obj, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past float
        raise DimensionMismatchError(f"{name}: not a rectangular numeric array ({exc})") from None
    if m.ndim != 2:
        raise DimensionMismatchError(f"{name}: expected a 2-D matrix, got shape {m.shape}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise DimensionMismatchError(f"{name}: empty matrix of shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteEntriesError(f"{name}: contains NaN or infinite entries")
    return m


def _require_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"{name}: expected square matrix, got shape {m.shape}")
    return m


def is_nonnegative(m) -> bool:
    """True iff every entry is >= 0 (an exact sign test; NaN fails).

    Like ``is_metzler`` it does not validate ``m``: its callers pass
    matrices already checked, by a typed constructor or where computed.
    """
    return bool((np.asarray(m) >= 0).all())


def row_blocks(n: int):
    """The ``(start, stop)`` row ranges of an n-row pass, ``ROW_BLOCK`` rows
    each.  A one-row tail joins the block before it: a one-row product takes
    numpy's vector path, whose last bit can differ from a block's."""
    for start in range(0, n - 1 or 1, ROW_BLOCK):
        stop = start + ROW_BLOCK
        yield start, stop if stop < n - 1 else n


def _is_metzler_rows(rows: np.ndarray, first: int, tol: float) -> bool:
    """Whether every off-diagonal entry of ``rows``, a square matrix's rows from its row
    ``first`` on, is >= -tol; the diagonal ``rows[i, first + i]`` is free (a NaN fails)."""
    ok = rows >= -tol
    ok.flat[first :: rows.shape[1] + 1] = True
    return bool(ok.all())


def is_metzler(m, tol: float = 0.0) -> bool:
    """True iff every off-diagonal entry of the square ``m`` is >= -tol, the diagonal
    free (a NaN entry fails), tested a row block at a time up to the first that
    fails.  ``m`` is not validated, as for ``is_nonnegative``."""
    m = _require_square(np.asarray(m, dtype=float))
    for i, j in row_blocks(len(m)):
        if not _is_metzler_rows(m[i:j], i, tol):
            return False
    return True


def spectral_abscissa(m) -> float:
    """Largest real part over the eigenvalues, by the dense QR method."""
    m = _require_square(as_matrix(m))
    eigs = np.linalg.eigvals(m)
    return float(np.max(eigs.real))


def is_hurwitz(m) -> bool:
    """True iff the spectral abscissa is strictly below ``-HURWITZ_TOL``."""
    return spectral_abscissa(m) < -HURWITZ_TOL


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus, by the dense QR method."""
    m = _require_square(as_matrix(m))
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
    raise InputError(f"unknown norm kind {kind!r}")


def inverse(m, rhs) -> np.ndarray:
    """``m^{-1} @ rhs`` (a vector or a block of columns) from one explicit inverse.

    It serves only the non-Metzler override path, of small n, so one LAPACK
    inverse gives both the product and the 1-norm condition number
    ``||m||_1 ||m^{-1}||_1``.  Raises SingularMatrixError when ``m`` is
    exactly singular or that number exceeds ``COND_MAX``.
    """
    m = _require_square(as_matrix(m))
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:  # an exact zero pivot
        inv = None
    # not <=: an inverse that overflowed to inf - inf has a NaN norm
    with np.errstate(over="ignore"):  # an overflowing product fails the bound
        if inv is None or not np.linalg.norm(m, 1) * np.linalg.norm(inv, 1) <= COND_MAX:
            raise SingularMatrixError(
                f"condition number above {COND_MAX:g}; matrix is numerically singular"
            )
    return inv @ rhs


def metzler_solve(m, rhs=None) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Hurwitz witness of a Metzler ``m`` and ``(-m)^{-1} @ rhs``, from one ``gesv`` of ``-m``.

    One ``np.linalg.solve`` takes the block ``[ones | rhs]``, ``rhs`` a block
    of columns (the column ``ones`` alone without ``rhs``).  The witness
    ``v = (-m)^{-1} @ ones`` is kept when ``v > 0`` and the Metzler majorant
    of ``m`` maps it below zero, i.e. exactly when ``m`` is Hurwitz.  Then
    ``(-m)^{-1} >= 0``, so its inf-norm is ``max(v)`` and
    ``kappa_inf(m) = ||m||_inf * ||v||_inf`` exactly; for any other ``m``
    that product is a lower bound.  A loop that is exactly singular, or
    whose product exceeds ``COND_MAX``, gives no witness and no solve.

    Precondition, unchecked: ``m`` is finite, square and float, and its caller tested it
    with ``is_metzler``'s row-block test within ``FLOAT_SLACK``, a slack for float noise in
    computed loops; the witness is checked on the Metzler majorant, which bounds m's abscissa.
    """
    ones = np.ones((m.shape[0], 1))
    try:
        # m against the negated block gives the bits of -m against the block
        # (IEEE rounding is odd), without an n x n negated copy of m
        x = np.linalg.solve(m, -(ones if rhs is None else np.hstack((ones, rhs))))
    except np.linalg.LinAlgError:  # an exactly zero pivot
        return None, None
    v = x[:, 0]
    # the majorant, |m| with m's diagonal, one row block at a time: the largest
    # row sum of |m| gives kappa, and every row must map v below zero
    n, diagonal = len(m), m.diagonal()
    norm, maps_below = 0.0, True
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the bound, as NaN does
        for i, j in row_blocks(n):
            majorant = np.abs(m[i:j])
            norm = max(norm, majorant.sum(axis=1).max())  # sums >= 0, never NaN
            majorant.flat[i :: n + 1] = diagonal[i:j]
            maps_below = maps_below and bool((majorant @ v < 0).all())
        kappa = norm * np.abs(v).max()
    if not kappa <= COND_MAX:
        return None, None
    if not (v > 0).all() or not maps_below:
        v = None
    return v, None if rhs is None else x[:, 1:]


def _metzler_hurwitz_solve(m: np.ndarray, rhs, what: str) -> tuple:
    """``metzler_solve(m, rhs)`` for a gated ``m`` that must be Metzler within
    ``FLOAT_SLACK`` and Hurwitz: else NotMetzlerError or NotHurwitzError, worded
    by the caller's ``what`` with ``{}`` for the property that ``m`` lacks."""
    if not is_metzler(m, tol=FLOAT_SLACK):
        raise NotMetzlerError(what.format("Metzler"))
    v, solution = metzler_solve(m, rhs)
    if v is None:
        raise NotHurwitzError(what.format("Hurwitz"))
    return v, solution


def metzler_hurwitz_certificate(m) -> np.ndarray:
    """Positive ``v`` with ``m @ v < 0`` for a Metzler ``m``; NotHurwitzError if none exists."""
    what = "certificate construction requires a {} matrix"
    return _metzler_hurwitz_solve(as_matrix(m), None, what)[0]
