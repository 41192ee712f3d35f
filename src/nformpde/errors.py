"""Exception types shared across the toolkit.

Argument-shape and range problems raise plain ValueError; the classes here
mark structural failures a caller may want to catch and report separately.
"""

from __future__ import annotations


class NFormError(Exception):
    """Base class for toolkit-specific failures."""


class ConeViolationError(NFormError):
    """An eigenvalue tuple left the admissible cone.

    The message names the failing cone functional value and the flat index
    of the first offending tuple.
    """


class DegeneratePointError(NFormError):
    """Gradient requested on (or numerically at) the cone boundary."""


class MetricDegeneracyError(NFormError):
    """A matrix that must be Hermitian positive definite is not."""


class UnsupportedDimensionError(NFormError):
    """Operation undefined for this complex dimension (e.g. n = 1)."""


class InconsistentInputError(NFormError):
    """Supplied fields fail a consistency precondition."""


class ChartFailureError(NFormError):
    """No admissible chart radius exists at this grid resolution."""


class InfeasibleStartError(NFormError):
    """Initial iterate violates the cone constraint somewhere."""


class NonConvergenceError(NFormError):
    """Iteration stalled before reaching tolerance.

    The residual history up to the failure is attached for diagnostics.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class DegeneracyError(NFormError):
    """Positivity safeguard exhausted in the auxiliary solver."""
