"""Condition numbers of the residual and the projection: the closed form.

The condition number with respect to the matrix is computed exactly.
ConditionEstimates, as it is built, derives a sandwich between
upper/sqrt(2) and upper and refuses an exact value outside it, where

    upper = (scale_A / scale_r) * sqrt((||r|| / sigma_min)^2 + ||x||^2).

When m >= n + 2 the exact value is upper itself. When m = n + 1 it is the
largest singular value of the n x (n + 1) matrix [V^t x | ||r|| Sigma^{-1}],
scaled the same way. worst_case_perturbation certifies it: a unit-norm
matrix perturbation, in closed form from the cached SVD, whose first-order
residual change has that norm.

The condition number with respect to the right-hand side is exactly
scale_b / scale_r. Scale factors are free; ScaleFactors.presets builds the
three conventions found in the literature, in report order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .core import RESID_TOL, LsCache, geometry, vector_norm
from .errors import InvalidGeometry, ZeroSolution

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ScaleFactors:
    """Positive denominators making perturbation norms relative to the problem.

    scale_A divides ||dA||_2, scale_b divides ||db||_2, scale_r divides
    ||dr||_2, and scale_p divides changes to the projection ||d(Ax)||_2.
    Each field defaults to 1, the unscaled norm; presets builds the three
    named conventions of a solved problem.
    """

    scale_A: float = 1.0
    scale_b: float = 1.0
    scale_r: float = 1.0
    scale_p: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{f.name} must be positive and finite, got {value}")

    @classmethod
    def presets(cls, cache: LsCache) -> dict[str, "ScaleFactors"]:
        """The three named scale conventions, in report order: "relative"
        (||A||, ||b||, ||r||, ||Ax||), "b-relative" (residual changes
        measured against ||b|| instead of ||r||) and "absolute" (unscaled
        norms, the convention of the older perturbation bounds)."""
        norm_A = float(cache.s[0])
        return {
            "relative": cls(norm_A, cache.norm_b, cache.norm_r, cache.norm_Ax),
            "b-relative": cls(norm_A, cache.norm_b, cache.norm_b, cache.norm_Ax),
            "absolute": cls(),
        }


@dataclass(frozen=True)
class ConditionEstimates:
    """Condition numbers of the residual or of the projection, in report
    order: chi_A is exact wrt the matrix and chi_b wrt the right-hand side.

    The record derives chi_A_lower = chi_A_upper / sqrt(2) and raises
    InvalidGeometry unless each value is a positive finite double and
    chi_A lies in the paper's sandwich [chi_A_lower, chi_A_upper], the upper
    end to 1e-8 relative: chi_A equals chi_A_upper when m >= n + 2, and at
    m = n + 1 is a singular value of the bordered matrix, computed apart.
    """

    chi_A_lower: float = field(init=False)
    chi_A: float
    chi_A_upper: float
    chi_b: float

    def __post_init__(self):
        object.__setattr__(self, "chi_A_lower", self.chi_A_upper / SQRT2)
        for name in ("chi_b", "chi_A", "chi_A_upper", "chi_A_lower"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidGeometry(f"{name} = {value} is not a positive finite double")
        if not self.chi_A_lower <= self.chi_A <= self.chi_A_upper * (1.0 + 1e-8):
            raise InvalidGeometry(f"exact value {self.chi_A} outside [{self.chi_A_lower}, {self.chi_A_upper}]")


def _upper_value(cache: LsCache) -> float:
    return math.hypot(cache.norm_r / float(cache.s[-1]), cache.norm_x)


def exact_value(cache: LsCache) -> float:
    """The unscaled exact condition number wrt the matrix: the maximum of
    the dual-norm objective g, and the norm of the first-order residual
    change of worst_case_perturbation.

    It is the upper value when m >= n + 2 and sigma_max(M) when m = n + 1;
    M is factorized once per cache (LsCache.bordered_svd).
    """
    if cache.problem.m >= cache.problem.n + 2:
        return _upper_value(cache)
    return float(cache.bordered_svd[1][0])


def _estimates(cache: LsCache, scales: ScaleFactors, scale_out: float) -> ConditionEstimates:
    """Scale the unscaled upper and exact values by scale_A / scale_out."""
    chi_A = scales.scale_A / scale_out * exact_value(cache)
    chi_A_upper = scales.scale_A / scale_out * _upper_value(cache)
    return ConditionEstimates(chi_A, chi_A_upper, scales.scale_b / scale_out)


def residual_condition_bounds(cache: LsCache, scales: ScaleFactors) -> ConditionEstimates:
    """chi_r(A), its sandwich, and chi_r(b) = scale_b / scale_r.

    With fully relative scales the upper value equals
    kappa * sqrt(1 + (cot(theta) / vds)^2) and chi_b equals csc(theta).
    Under absolute scales chi_A is exact_value(cache).
    """
    return _estimates(cache, scales, scales.scale_r)


def projection_condition_bounds(cache: LsCache, scales: ScaleFactors) -> ConditionEstimates:
    """chi_Ax(A), its sandwich, and chi_Ax(b) = scale_b / scale_p.

    With scale_p = ||Ax|| the upper value equals
    kappa * sqrt(tan(theta)^2 + 1/vds^2) and chi_b equals sec(theta).
    The Jacobian of Ax wrt the matrix is the negative of the residual's,
    so only the codomain scale changes. Raises ZeroSolution when
    ||Ax|| <= RESID_TOL ||b||, the guard geometry puts on ||r||.
    """
    if cache.norm_Ax <= RESID_TOL * cache.norm_b:
        raise ZeroSolution(f"||Ax|| = {cache.norm_Ax:.3e} within residual tolerance of zero")
    return _estimates(cache, scales, scales.scale_p)


def _complement_direction(cache: LsCache, rhat: np.ndarray) -> np.ndarray:
    """Unit vector orthogonal to col(A) and to r, for m >= n + 2.

    Starts from the coordinate vector whose row of [U | rhat] is shortest.
    The squared row norms sum to n + 1, so its rejection has squared norm
    at least 1 - (n + 1) / m > 0; a second pass restores orthogonality to
    rounding.
    """
    U = cache.U
    w = np.zeros(cache.problem.m)
    w[int(np.argmin(np.einsum("ij,ij->i", U, U) + rhat * rhat))] = 1.0
    for _ in range(2):
        w -= U @ (U.T @ w) + (rhat @ w) * rhat
    return w / np.linalg.norm(w)


def worst_case_perturbation(cache: LsCache) -> np.ndarray:
    """Unit-spectral-norm matrix perturbation dA whose first-order residual
    change dr has norm exact_value(cache); dr / ||dr|| is the unit
    direction at which g attains its maximum.

    Split a unit direction into u orthogonal to col(A) and p inside it.
    Then a = ||x|| ||u|| and b = ||r|| ||Sigma^{-1} U^t p|| <= ||r|| ||p|| / sigma_min,
    so g <= a + b <= sqrt((||r|| / sigma_min)^2 + ||x||^2). With
    rhat = r / ||r|| and v_min, u_min the last right and left singular
    vectors, dA is a partial isometry whose factors depend on the dimension
    m - n of the complement of col(A):

    * m >= n + 2: dA = -(rhat v_min^t + w y^t), with w a unit vector
      orthogonal to r and col(A) and y = V[:, :-1] z / ||z||,
      z = (V^t x)[:-1]; the second term is dropped when z = 0, as it always
      is when n = 1. Then dr = ||x|| (c rhat + s w) + (||r|| / sigma_min) u_min,
      c and s the cosine and sine between x and v_min, whose norm is the
      upper value. z is the rejection of x from v_min in V's coordinates,
      so y is orthogonal to v_min to rounding even when x is nearly
      parallel to v_min, where x - (v_min^t x) v_min would cancel.
    * m = n + 1: the complement is spanned by rhat, and dA = -rhat (V y)^t
      with y the top left singular vector of the n x (n + 1) matrix
      M = [V^t x | ||r|| Sigma^{-1}]. Then dr = [rhat | U] M^t y, whose
      norm is sigma_max(M).

    Raises what geometry raises: ZeroResidual when r is zero to the
    residual tolerance and ZeroSolution when x = 0.
    """
    geometry(cache)  # for its ZeroResidual and ZeroSolution checks
    rhat = cache.r / cache.norm_r
    V = cache.V
    if cache.problem.m == cache.problem.n + 1:
        return -np.outer(rhat, V @ cache.bordered_svd[0][:, 0])
    dA = -np.outer(rhat, V[:, -1])
    z = (V.T @ cache.x)[:-1]
    if z.any():
        dA -= np.outer(_complement_direction(cache, rhat), V[:, :-1] @ (z / vector_norm(z, "z")))
    return dA
