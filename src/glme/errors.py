"""Exception types shared across the engine."""


class GlmeError(Exception):
    """Base class for all engine errors."""


class StructuralError(GlmeError):
    """Malformed input: wrong shape, inconsistent dimensions, bad tokens.

    May carry ``max_abs``, the largest entry of a matrix too large to read.
    """

    def __init__(self, message: str, max_abs: float | None = None):
        super().__init__(message)
        self.max_abs = max_abs


class ParseError(GlmeError):
    """A file or serialized payload could not be decoded."""


class PositivityError(GlmeError):
    """A matrix required to be Hermitian positive semidefinite is not."""


class StabilityError(GlmeError):
    """The drift matrix is not Hurwitz; carries the spectral abscissa."""

    def __init__(self, message: str, spectral_abscissa: float):
        super().__init__(message)
        self.spectral_abscissa = spectral_abscissa


class NumericalError(GlmeError):
    """A numerical procedure failed to converge; may carry the residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class DomainError(GlmeError):
    """Input lies outside the physical domain of the operation."""


class BoundaryError(DomainError):
    """Input sits on a boundary where the requested map diverges."""


class EvaluationError(GlmeError):
    """A spectral function could not be evaluated where it was needed."""


class TruncationError(GlmeError):
    """Dense Fock-space truncation is too aggressive for the requested run."""
