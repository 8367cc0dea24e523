"""Exception hierarchy shared across the analysis, network, and simulation layers."""

from __future__ import annotations


class LureStabError(Exception):
    """Base class for every error raised by this package.

    ``exit_code`` is the CLI exit status for the error: 2 (analysis
    negative) unless a subclass marks it as an input error.
    """

    exit_code = 2


class InputError(LureStabError, ValueError):
    """The input does not fit what the requested operation needs (also a ValueError)."""

    exit_code = 1


class NonSquareError(LureStabError):
    """A square matrix was required."""


class DimensionMismatchError(LureStabError):
    """Operand dimensions are inconsistent."""


class NonFiniteEntriesError(LureStabError):
    """A matrix contains NaN or infinite entries."""


class SingularMatrixError(LureStabError):
    """A solve met an exactly singular matrix or a condition number above ``linalg.COND_MAX``."""


class NotMetzlerError(LureStabError):
    """An operation requires a Metzler matrix (nonnegative off-diagonal)."""


class NotHurwitzError(LureStabError):
    """An operation requires a Hurwitz-stable matrix."""


class MissingSchurScaleError(LureStabError):
    """The Schur-scaled radius needs a nonnegative scale pattern S."""


class ZeroSpectralRadiusError(LureStabError):
    """A radius formula's denominator is zero: a transfer norm or the Schur
    spectral radius vanishes, so the structure cannot destabilize the loop."""


class CertificationError(LureStabError):
    """The closed loop failed one or more positivity/stability gates.

    Carries the full gate breakdown so callers can report which
    hypothesis failed.
    """

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class NonzeroBiasError(LureStabError):
    """Sector bounds require all network biases to be exactly zero."""

    def __init__(self, layers):
        self.layers = list(layers)
        super().__init__(
            "sector bound requires zero biases; nonzero bias in layer(s) "
            + ", ".join(str(i) for i in self.layers)
        )


class NotSisoError(InputError):
    """Sign selection among refined sector candidates needs a scalar loop."""


class NonFiniteStateError(LureStabError):
    """Integration produced NaN before the blowup bound was reached."""


class ZeroInitialStateError(LureStabError):
    """Trajectory classification needs a nonzero initial state."""


class NoInstabilityError(LureStabError):
    """No tested perturbation destabilized the loop."""

    def __init__(self, largest_delta: float):
        self.largest_delta = largest_delta
        super().__init__(
            f"no instability found for any tested delta up to {largest_delta:g}"
        )


class UnstableAtZeroError(LureStabError):
    """The unperturbed loop is already unstable, so there is no threshold to find."""


class ProblemFormatError(InputError):
    """A problem or network file failed to parse or validate."""

    def __init__(self, message: str, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}: "
            if line is not None:
                where = f"{path}:{line}: "
        super().__init__(where + message)
