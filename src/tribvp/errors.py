"""Exception types shared across the package."""

from __future__ import annotations


class BvpError(Exception):
    """Base class for every error raised by this package."""


class RangeViolation(BvpError):
    """A value fell outside the open range (-a, a) of the flux nonlinearity.

    During a solve this usually means an iterate left the admissible set,
    i.e. an a priori bound was violated or the start was outside the basin.
    """

    def __init__(self, message: str, *, worst: float | None = None,
                 node: int | None = None):
        super().__init__(message)
        self.worst = worst
        self.node = node


class NonFinite(BvpError):
    """The right-hand side (or a derived quantity) produced NaN or infinity."""

    def __init__(self, message: str, *, node: int | None = None):
        super().__init__(message)
        self.node = node


class PreconditionViolated(BvpError):
    """An operation was called outside its stated domain of validity."""


class EmptyDomain(BvpError):
    """The planar domain for a degree computation is empty or degenerate."""


class ZeroOnBoundary(BvpError):
    """The planar map vanishes (numerically) at a boundary sample point."""

    def __init__(self, message: str, *, point: tuple[float, float] | None = None,
                 norm: float | None = None):
        super().__init__(message)
        self.point = point
        self.norm = norm


class RefinementExhausted(BvpError):
    """Adaptive boundary refinement hit its depth limit.

    The winding-angle step on a boundary segment refused to fall below pi/2:
    the map has a zero there, or jumps across it.  `norm` is the smaller |g|
    at the ends of that segment.
    """

    def __init__(self, message: str, *, point: tuple[float, float] | None = None,
                 norm: float | None = None):
        super().__init__(message)
        self.point = point
        self.norm = norm


class NoConvergence(BvpError):
    """Iteration budget exhausted before the residual target was met."""

    def __init__(self, message: str, *, best_residual: float = float("nan"),
                 iterations: int = 0):
        super().__init__(message)
        self.best_residual = best_residual
        self.iterations = iterations


class NoRoot(BvpError):
    """A root scan found no root: no sign change, or none its refiner could
    narrow (the message says which).  `iterations` counts the sweeps a
    shooting solve took before giving up."""

    def __init__(self, message: str, *, iterations: int = 0):
        super().__init__(message)
        self.iterations = iterations


class StepRejected(BvpError):
    """An initial-value integration left the admissible slope range."""

    def __init__(self, message: str, *, time: float | None = None):
        super().__init__(message)
        self.time = time


class HypothesisFailed(BvpError):
    """A solvability hypothesis failed, or data needed to check one is missing."""


class InvalidThresholds(BvpError):
    """Slope thresholds passed to the sign-condition check are inconsistent."""


class ProblemFileError(BvpError):
    """A problem definition file could not be parsed or validated."""


class ExpressionSyntaxError(BvpError):
    """Malformed expression text; carries the byte offset of the failure."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class UnknownIdentifier(ExpressionSyntaxError):
    """An expression used a name that is not a variable, constant or function."""
