"""Exception types raised by the library.

The class names double as diagnostic identifiers: the CLI prints
``type(exc).__name__`` on stderr and exits with the error's exit_code:
2 for the input errors ParamOutOfRange and DimensionMismatch, 3 for the
rest. Unreadable input (OSError, ValueError) and input too large for
memory (MemoryError) are not library errors: `error: <message>`, exit 2.
"""


class LsqCondError(Exception):
    """Base class for all library errors. exit_code is the CLI's exit
    status: 3, a failed numerical precondition or invariant, unless a
    subclass says otherwise."""

    exit_code = 3


class DimensionMismatch(LsqCondError):
    """Array shapes are inconsistent with each other or with the problem.
    On the CLI only input files have shapes, so this is an input error,
    exit code 2."""

    exit_code = 2


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
    """Generator or command parameter outside its documented domain: a
    usage error, exit code 2."""

    exit_code = 2

