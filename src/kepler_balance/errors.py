"""Exception and warning types shared across the package."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class CapabilityError(ValueError):
    """Requested feature is outside what the object/operation supports."""


class DivergenceError(ValueError):
    """A divergent integral/moment was requested.

    Carries ``k_min``, the smallest index with a finite moment, when known.
    """

    def __init__(self, message, k_min=None):
        super().__init__(message)
        self.k_min = k_min


class TruncationError(ValueError):
    """Series data too short to produce the requested order."""


class NormalizationError(ValueError):
    """Input series/profile not in the required normalization."""


class ConvergenceBudgetError(RuntimeError):
    """An iteration/term cap was exhausted before reaching tolerance."""


class EstimationError(RuntimeError):
    """A numerical estimation (extrapolation, fit) failed to converge."""


class AccuracyError(RuntimeError):
    """A result failed its own accuracy self-check (residual above threshold)."""


class SignedDensityWarning(UserWarning):
    """Density changes sign: the associated volume element is not nonnegative."""
