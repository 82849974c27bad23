"""Exception types shared across the package."""


class GlottisimError(Exception):
    """Base class for all package-specific failures."""


class ModelDomainError(GlottisimError, ValueError):
    """Input lies outside the physical or mathematical domain of an operation."""


class ElementOpenError(ModelDomainError):
    """Nonzero current was demanded through an element whose effective
    coefficient is zero (an open branch sustains no current)."""


class FeedbackSettleError(GlottisimError, RuntimeError):
    """The gate-bias feedback loop did not settle within its step budget."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class SolverError(GlottisimError, RuntimeError):
    """The series-network current solve failed to converge.

    This cannot happen for valid inputs (Newton on a convex, increasing
    residual from an upper bound converges monotonically); treat it as a bug
    signal.
    """

    def __init__(self, message: str, residual: float | None = None,
                 index: int | None = None, time_s: float | None = None,
                 failed: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.index = index
        self.time_s = time_s
        self.failed = failed


class InsufficientPulsesError(GlottisimError, ValueError):
    """Fewer than two pulses were available for rate estimation."""


class ConfigError(GlottisimError, ValueError):
    """Invalid or malformed run configuration."""
