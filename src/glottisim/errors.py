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


class SolverError(GlottisimError, RuntimeError):
    """The series-network current solve failed to converge.

    This cannot happen for valid inputs; treat it as a bug signal.  A flow
    solve starts its Halley steps from a per-drive root table,
    solve_series_current from an upper bound on the root, and the step's
    denominator is proved positive, so every step is finite and moves toward
    the root.  The step count is backed by tests, not proved: from the table
    0 from 6 to 100 cmH2O and at the gain corners, from the upper bound at
    most 3 over the domain's corners and every accepted input drawn, far
    inside the 200-step cap (see the network module docstring).

    A flow solve names the earliest failing sample in index and time_s;
    failed counts the failing entries of the batch that failed: the
    samples of a block of samples, the distinct bias pairs of a block of
    pairs where simulate_many solves two or more drives, or the nodes of a
    root table, whose failure names no sample.
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
