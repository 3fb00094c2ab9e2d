"""Condition numbers of the residual and the projection: the closed form.

The condition number with respect to the matrix is computed exactly. It
lies in a sandwich between upper/sqrt(2) and upper, where

    upper = (scale_A / scale_r) * sqrt((||r|| / sigma_min)^2 + ||x||^2).

When m >= n + 2 the exact value is upper itself. When m = n + 1 it is the
largest singular value of the n x (n + 1) matrix [V^t x | ||r|| Sigma^{-1}],
scaled the same way. worst_case_direction returns the residual-space
direction that attains it; jacobian.attaining_perturbation turns that
direction into a matrix perturbation.

The condition number with respect to the right-hand side is exactly
scale_b / scale_r. Scale factors are free; ScaleFactors.presets builds the
three conventions found in the literature, in report order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import LsCache, geometry, vector_norm
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
        for field in fields(self):
            value = getattr(self, field.name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{field.name} must be positive and finite, got {value}")

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
    """Condition numbers of the residual or of the projection, whichever
    function built them.

    chi_A is the exact condition number with respect to the matrix, and
    chi_A_lower and chi_A_upper the ends of the paper's sqrt(2)-wide
    sandwich around it; chi_A equals chi_A_upper when m >= n + 2. chi_b is
    the exact condition number with respect to the right-hand side. The
    fields are in report order.
    """

    chi_A_lower: float
    chi_A: float
    chi_A_upper: float
    chi_b: float

    def __post_init__(self):
        # chi_A_lower is derived from chi_A_upper, so it is checked last
        for name in ("chi_b", "chi_A", "chi_A_upper", "chi_A_lower"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidGeometry(f"{name} = {value} is not a positive finite double")

    def sandwich_holds(self) -> bool:
        """chi_A_lower <= chi_A <= chi_A_upper, the upper end to 1e-8
        relative: at m = n + 1 chi_A is a singular value of the bordered
        matrix, computed apart from chi_A_upper."""
        return self.chi_A_lower <= self.chi_A <= self.chi_A_upper * (1.0 + 1e-8)


def _upper_value(cache: LsCache) -> float:
    return math.hypot(cache.norm_r / float(cache.s[-1]), cache.norm_x)


def exact_value(cache: LsCache) -> float:
    """The unscaled exact condition number wrt the matrix, the maximum of g
    that worst_case_direction attains.

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
    return ConditionEstimates(chi_A_upper / SQRT2, chi_A, chi_A_upper, scales.scale_b / scale_out)


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
    so only the codomain scale changes.
    """
    if cache.norm_Ax == 0.0:
        raise ZeroSolution("projection Ax is exactly zero")
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


def worst_case_direction(cache: LsCache) -> np.ndarray:
    """Unit residual-space direction at which the dual-norm objective g
    attains its maximum, the unscaled exact value chi_A.

    Split a unit direction into u orthogonal to col(A) and p inside it.
    Then a = ||x|| ||u|| and b = ||r|| ||Sigma^{-1} U^t p|| <= ||r|| ||p|| / sigma_min,
    so g <= a + b <= sqrt((||r|| / sigma_min)^2 + ||x||^2). The maximizer
    depends on the dimension m - n of the complement of col(A):

    * m >= n + 2: with a = ||x||, b = ||r|| / sigma_min,
      c = v_min^t x / ||x||, s = sqrt(1 - c^2) and a unit w orthogonal to
      r and col(A), the direction d = (a (c rhat + s w) + b a'') / hypot(a, b)
      gives theta_u = theta_v = arccos(c) and maximal a + b, so the upper
      estimate is attained.
    * m = n + 1: the complement is spanned by rhat, so d = alpha rhat + U c
      and the adjoint collapses to rhat (alpha x + ||r|| V Sigma^{-1} c)^t.
      Its nuclear norm is ||M (alpha, c)|| with M = [V^t x | ||r|| Sigma^{-1}],
      maximized by the top right singular vector of the n x (n + 1) matrix M.

    Raises what geometry raises: ZeroResidual when r is zero to the
    residual tolerance and ZeroSolution when x = 0.
    """
    smin = geometry(cache).sigma_min
    rhat = cache.r / cache.norm_r
    if cache.problem.m >= cache.problem.n + 2:
        a = cache.norm_x
        b = cache.norm_r / smin
        vmin = cache.V[:, -1]
        xv = float(vmin @ cache.x)
        c = xv / a
        # rejection-based sine, accurate when x is nearly parallel to v_min
        s = vector_norm(cache.x - xv * vmin, "x - (v_min^t x) v_min") / a
        u = c * rhat + s * _complement_direction(cache, rhat)
        return (a * u + b * cache.U[:, -1]) / math.hypot(a, b)
    Wt = cache.bordered_svd[2]
    return Wt[0, 0] * rhat + cache.U @ Wt[0, 1:]

