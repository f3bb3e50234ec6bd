"""Exception types shared across the package."""


class TodaHessError(Exception):
    """Base class for computational failures in this package."""


class DomainError(TodaHessError, ValueError):
    """Input outside the mathematical domain of an operation."""


class UnsupportedRangeError(DomainError):
    """Parameter range the theory deliberately excludes (e.g. p <= 0)."""


class BranchAmbiguityError(TodaHessError):
    """Inverse-branch evaluation requested on or beyond the branch cut."""


class IterationError(TodaHessError):
    """Newton or fixed-point iteration failed to converge."""


class DivergenceError(TodaHessError):
    """A series was requested at or beyond its divergence threshold."""


class PathError(TodaHessError):
    """Continuation path passes through (or ends on) a singular point."""


class ConditioningError(TodaHessError):
    """Fit or evaluation too ill-conditioned to meet its tolerance."""


class AccuracyError(TodaHessError):
    """A computed residual exceeded the requested tolerance."""


class PositivityError(TodaHessError):
    """A Hankel minor or recurrence coefficient lost positivity."""


class FitError(TodaHessError):
    """Not enough data points (or degenerate data) for a requested fit."""
