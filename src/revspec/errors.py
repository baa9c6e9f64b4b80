"""Semantic exception hierarchy.

Public functions raise these instead of bare ValueError so callers (and the
CLI exit-code mapping) can tell usage mistakes from numerical failures.
"""


class RevspecError(Exception):
    """Base class for all errors raised by this package."""


class ProfileError(RevspecError, ValueError):
    """A profile specification is malformed (bad kind, non-finite or
    inconsistent parameters, non-monotone sample grid)."""


class DomainError(RevspecError, ValueError):
    """An argument lies outside the documented domain of an operation
    (x outside [-1, 1], k = 0 where a nonzero mode is required, ...)."""


class QuadratureAccuracyError(RevspecError, ArithmeticError):
    """A quadrature rule exhausted its node-doubling budget before reaching
    the requested tolerance. Carries the best estimate found and, where the
    rule has one, its error estimate."""

    def __init__(self, message, best_estimate, error_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class AssemblyError(RevspecError, RuntimeError):
    """Global spectrum assembly failed (solver could not deliver the needed
    accuracy for some mode, or the ceiling never became complete)."""


class InapplicabilityError(RevspecError, ValueError):
    """A bound's hypothesis does not hold for this profile, so the bound is
    undefined rather than merely loose."""
