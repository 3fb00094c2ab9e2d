"""Condition numbers and tight two-sided estimates for residual and projection.

The estimate for the condition number with respect to the matrix is a
sandwich: the true value lies between upper/sqrt(2) and upper, where

    upper = (scale_A / scale_r) * sqrt((||r|| / sigma_min)^2 + ||x||^2).

The true value is attained at upper when m >= n + 2; the jacobian module
computes it exactly in both cases.

The condition number with respect to the right-hand side is exactly
scale_b / scale_r. Scale factors are free; three named presets cover the
conventions found in the literature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import LsCache
from .errors import ZeroSolution

SQRT2 = math.sqrt(2.0)

SCALE_PRESETS = ("relative", "b-relative", "absolute")


@dataclass(frozen=True)
class ScaleFactors:
    """Positive denominators making perturbation norms relative to the problem.

    scale_A divides ||dA||_2, scale_b divides ||db||_2, scale_r divides
    ||dr||_2, and scale_p divides changes to the projection ||d(Ax)||_2.
    """

    scale_A: float = 1.0
    scale_b: float = 1.0
    scale_r: float = 1.0
    scale_p: float = 1.0

    def __post_init__(self):
        for name in ("scale_A", "scale_b", "scale_r", "scale_p"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")

    @classmethod
    def relative(cls, cache: LsCache) -> "ScaleFactors":
        """Fully relative scaling: ||A||, ||b||, ||r||, ||Ax||."""
        return cls(cache.svd.sigma_max, cache.norm_b, cache.norm_r, cache.norm_Ax)

    @classmethod
    def b_relative(cls, cache: LsCache) -> "ScaleFactors":
        """Residual changes measured against ||b|| instead of ||r||."""
        return cls(cache.svd.sigma_max, cache.norm_b, cache.norm_b, cache.norm_Ax)

    @classmethod
    def absolute(cls) -> "ScaleFactors":
        """Unscaled norms (the convention of the older perturbation bounds)."""
        return cls(1.0, 1.0, 1.0, 1.0)


def scale_preset(name: str, cache: LsCache) -> ScaleFactors:
    if name == "relative":
        return ScaleFactors.relative(cache)
    if name == "b-relative":
        return ScaleFactors.b_relative(cache)
    if name == "absolute":
        return ScaleFactors.absolute()
    raise ValueError(f"unknown scale preset {name!r}; choose from {SCALE_PRESETS}")


@dataclass(frozen=True)
class ConditionEstimates:
    """Two-sided condition estimate with respect to the matrix, plus the
    exact condition number with respect to the right-hand side.

    The interval is the paper's sqrt(2)-wide sandwich, so only its upper
    end is stored. The exact value
    inside it is (scale_A / scale_r) * jacobian.worst_case_direction(cache)
    .g_value: it equals chi_A_upper when m >= n + 2, and for m = n + 1 it is
    the largest singular value of [V^t x | ||r|| Sigma^{-1}], scaled.
    """

    chi_b: float
    chi_A_upper: float
    target: str  # "residual" or "projection"

    def __post_init__(self):
        for name in ("chi_b", "chi_A_upper"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.target not in ("residual", "projection"):
            raise ValueError(f"unknown target {self.target!r}")

    @property
    def chi_A_lower(self) -> float:
        return self.chi_A_upper / SQRT2


def _tight_numerator(cache: LsCache) -> float:
    return math.hypot(cache.norm_r / cache.svd.sigma_min, cache.norm_x)


def residual_condition_bounds(cache: LsCache, scales: ScaleFactors) -> ConditionEstimates:
    """Sandwich for chi_r(A) plus chi_r(b) = scale_b / scale_r.

    With fully relative scales the upper value equals
    kappa * sqrt(1 + (cot(theta) / vds)^2) and chi_b equals csc(theta).
    """
    upper = scales.scale_A / scales.scale_r * _tight_numerator(cache)
    return ConditionEstimates(
        chi_b=scales.scale_b / scales.scale_r,
        chi_A_upper=upper,
        target="residual",
    )


def projection_condition_bounds(cache: LsCache, scales: ScaleFactors) -> ConditionEstimates:
    """Sandwich for chi_Ax(A) plus chi_Ax(b) = scale_b / scale_p.

    With scale_p = ||Ax|| the upper value equals
    kappa * sqrt(tan(theta)^2 + 1/vds^2) and chi_b equals sec(theta).
    The Jacobian of Ax wrt the matrix is the negative of the residual's,
    so only the codomain scale changes.
    """
    if cache.norm_Ax == 0.0:
        raise ZeroSolution("projection Ax is exactly zero")
    upper = scales.scale_A / scales.scale_p * _tight_numerator(cache)
    return ConditionEstimates(
        chi_b=scales.scale_b / scales.scale_p,
        chi_A_upper=upper,
        target="projection",
    )


@dataclass(frozen=True)
class Table2Row:
    """One residual-scaling variant: the tight upper estimate and chi_b."""

    scale_choice: str
    tight_estimate: float
    chi_b: float


def table2_variants(cache: LsCache) -> list[Table2Row]:
    """The two standard residual scalings side by side.

    Measuring changes to r against ||r|| gives (kappa sqrt(1 + (cot/vds)^2),
    csc theta); measuring against ||b|| masks theta and gives
    (kappa sqrt(sin^2 + (cos/vds)^2), 1). The second row equals the first
    times sin(theta).
    """
    rows = []
    for name, scales in (
        ("r-relative", ScaleFactors.relative(cache)),
        ("b-relative", ScaleFactors.b_relative(cache)),
    ):
        est = residual_condition_bounds(cache, scales)
        rows.append(Table2Row(name, est.chi_A_upper, est.chi_b))
    return rows


def error_bound_rhs(
    est: ConditionEstimates, dA_norm: float, db_norm: float, scales: ScaleFactors
) -> float:
    """First-order perturbation bound on the scaled output change.

    Returns chi_A_upper * (dA_norm / scale_A) + chi_b * (db_norm / scale_b),
    excluding the higher-order remainder.
    """
    if dA_norm < 0.0 or db_norm < 0.0:
        raise ValueError("perturbation norms must be nonnegative")
    return est.chi_A_upper * (dA_norm / scales.scale_A) + est.chi_b * (db_norm / scales.scale_b)
