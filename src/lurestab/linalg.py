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

# Most sweeps of the equilibration behind a refused solve's retry; each sweep halves
# the binary exponents that separate the rows and columns, so 1e300 to 1 takes ten.
RUIZ_SWEEPS = 32


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
    largest singular value, MAX_ABS the largest entry magnitude.  Each of them
    reads a 1x1 matrix as its entry's magnitude, without LAPACK's SVD, which
    gives the same bits for magnitudes in about [1e-138, 1e138] and can miss
    by an ulp outside them, where it rescales.
    """
    m = as_matrix(m)
    if m.size == 1 and isinstance(kind, NormKind):
        return float(abs(m[0, 0]))
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

    No command calls it: every radius reads the transfer of ``metzler_solve``.
    It is kept for the benchmark's tracer, which times a ``linalg.inverse``
    layer.  One LAPACK inverse gives both the product and the 1-norm condition
    number ``||m||_1 ||m^{-1}||_1``.  Raises SingularMatrixError when ``m`` is
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
    whose product exceeds ``COND_MAX``, is solved once more as ``L m R``,
    ``_equilibrate``'s power-of-two scales, against ``[ones | L rhs]``: the
    scaled loop is Metzler and Hurwitz exactly when ``m`` is, its solve ``X``
    gives ``(-m)^{-1} rhs = R X[:, 1:]`` and the witness ``R X[:, 0]``, which
    ``m`` maps to ``-L^{-1} ones < 0``.  A loop refused there too gives no
    witness and no solve.

    Precondition, unchecked: ``m`` is finite, square and float, and its caller tested it
    with ``is_metzler``'s row-block test within ``FLOAT_SLACK``, a slack for float noise in
    computed loops; the witness is checked on the Metzler majorant, which bounds m's abscissa.
    """
    ones = np.ones((m.shape[0], 1))
    x, witness = _gated_solve(m, ones if rhs is None else np.hstack((ones, rhs)))
    if x is None:  # refused: retry once where the refusal is only the loop's scale
        left, right = _equilibrate(m)
        block = ones if rhs is None else np.hstack((ones, left[:, None] * rhs))
        x, witness = _gated_solve(left[:, None] * m * right, block)
        if x is None:
            return None, None
        with np.errstate(over="ignore"):  # an overflow of R X refuses the loop
            x = right[:, None] * x
        if not np.isfinite(x).all():
            return None, None
    return x[:, 0] if witness else None, None if rhs is None else x[:, 1:]


def _gated_solve(m: np.ndarray, block: np.ndarray) -> tuple[np.ndarray | None, bool]:
    """``(-m)^{-1} @ block`` and whether its first column is a Hurwitz witness of ``m``,
    as ``metzler_solve`` reads them; ``(None, False)`` where the solve is refused."""
    try:
        # m against the negated block gives the bits of -m against the block
        # (IEEE rounding is odd), without an n x n negated copy of m
        x = np.linalg.solve(m, -block)
    except np.linalg.LinAlgError:  # an exactly zero pivot
        return None, False
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
        return None, False
    return x, bool((v > 0).all()) and maps_below


def _equilibrate(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Power-of-two row and column scales ``(l, r)`` under which every row and column of
    ``diag(l) |m| diag(r)`` has its largest entry near 1 (D. Ruiz, RAL-TR-2001-034, 2001).

    Each sweep divides every row and every column by the power of two nearest the square
    root of its largest entry, until a sweep changes nothing or after ``RUIZ_SWEEPS``.  A
    power of two scales a float exactly, so the scaled loop holds m's bits, moved in
    exponent.  A zero row or column keeps the scale 1."""
    scaled = np.abs(m)
    left, right = np.ones(len(m)), np.ones(len(m))
    for _ in range(RUIZ_SWEEPS):
        # frexp gives x = f 2^e with f in [0.5, 1), so 2^-(e // 2) is near 1 / sqrt(x),
        # and the exponent of 0 is 0
        row = np.ldexp(1.0, -(np.frexp(scaled.max(axis=1))[1] // 2))
        col = np.ldexp(1.0, -(np.frexp(scaled.max(axis=0))[1] // 2))
        if (row == 1.0).all() and (col == 1.0).all():
            break
        scaled *= row[:, None]
        scaled *= col
        left *= row
        right *= col
    return left, right


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
