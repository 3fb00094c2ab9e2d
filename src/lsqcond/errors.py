"""Exception types raised by the library.

The class names double as diagnostic identifiers: the CLI prints
``type(exc).__name__`` on stderr before exiting with a nonzero status.
"""


class LsqCondError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(LsqCondError):
    """Array shapes are inconsistent with each other or with the problem."""


class InvalidGeometry(LsqCondError):
    """Computed geometry violates kappa >= 1, theta in (0, pi/2] or
    1 <= vds <= kappa, or a computed value is not representable: a
    numerical failure, e.g. under- or overflow."""


class NonFullRank(LsqCondError):
    """Matrix has (numerically) deficient column rank."""


class ZeroResidual(LsqCondError):
    """Residual is zero to working precision; condition numbers undefined."""


class ZeroSolution(LsqCondError):
    """Least squares solution is zero; condition numbers undefined."""


class ParamOutOfRange(LsqCondError):
    """Generator parameter outside its documented domain."""


class DegenerateDirection(LsqCondError):
    """Direction with zero objective value; no attaining perturbation exists."""


class ZeroColumn(LsqCondError):
    """Matrix has a zero column and cannot be equilibrated."""
