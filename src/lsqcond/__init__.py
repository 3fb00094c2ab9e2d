"""Condition numbers of full rank least squares residuals and orthogonal
projections: tight two-sided estimates, the exact value with an attaining
perturbation, the Jacobian machinery behind them, and comparisons against
the classical textbook bounds.
"""

import os

# cap BLAS parallelism before numpy loads; results do not depend on it
if "LSQCOND_THREADS" in os.environ:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["LSQCOND_THREADS"])

from .conditioning import (
    ConditionEstimates,
    ScaleFactors,
    error_bound_rhs,
    exact_value,
    projection_condition_bounds,
    residual_condition_bounds,
    worst_case_direction,
)
from .core import (
    Geometry,
    LsCache,
    LsProblem,
    geometry,
    nuclear_norm,
    projector_difference_norm,
    solve_least_squares,
)
from .errors import (
    DegenerateDirection,
    DimensionMismatch,
    InvalidGeometry,
    LsqCondError,
    NonFullRank,
    ParamOutOfRange,
    ZeroColumn,
    ZeroResidual,
    ZeroSolution,
)
from .jacobian import (
    adjoint_rank2,
    apply_residual_jacobian,
    attaining_perturbation,
)
from .prior_bounds import (
    PriorBoundRow,
    compare_table,
)

__version__ = "0.1.0"
