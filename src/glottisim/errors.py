"""Exception types shared across the package."""


class GlottisimError(Exception):
    """Base class for all package-specific failures."""


class ModelDomainError(GlottisimError, ValueError):
    """Input lies outside the physical or mathematical domain of an operation."""


class ElementOpenError(ModelDomainError):
    """Nonzero current was demanded through an element of gain 0 (an open
    branch sustains no current)."""


class FeedbackSettleError(GlottisimError, RuntimeError):
    """The gate-bias feedback loop did not settle within its step budget."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class InsufficientPulsesError(GlottisimError, ValueError):
    """Fewer than two pulses were available for rate estimation."""


class ConfigError(GlottisimError, ValueError):
    """Invalid or malformed run configuration."""
