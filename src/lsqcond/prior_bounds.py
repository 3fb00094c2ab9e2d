"""Classical textbook condition estimates and their overestimation ratios.

Three published values are compared against the tight estimate, each under
the scale convention its source assumes. Each row's max_ratio is a proven
upper bound on its ratio_to_tight, stated here and nowhere else:

* Wedin (1973; also Bjorck 1996): ||r|| / sigma_min + ||x||, unscaled
  norms, db = 0. Exceeds the tight value by at most sqrt(2), the
  supremum, attained when the two terms are equal.
* Stewart (1977; Stewart & Sun 1990): ||b|| / sigma_min, unscaled norms,
  db = 0. The ratio is at most the van der Sluis ratio, itself at most
  kappa, so its supremum is kappa; the stated max_ratio, sqrt(2) kappa,
  is a valid but looser bound.
* Golub & Van Loan / Higham: 2 kappa + 1 against the sum of both condition
  numbers under scale_A = ||A||, scale_b = scale_r = ||b||. That sum never
  exceeds the sharper kappa + 1. It is at least 2: chi_b = 1, and
  chi_A_upper = hypot(kappa ||r||, ||A|| ||x||) / ||b|| is at least
  hypot(||r||, ||Ax||) / ||b|| = 1. So the ratio is at most
  (2 kappa + 1) / 2 = kappa + 1/2, with equality at kappa = 1, and it can
  come near kappa at large kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .conditioning import SQRT2, ScaleFactors, residual_condition_bounds
from .core import LsCache, geometry
from .errors import InvalidGeometry


@dataclass(frozen=True)
class PriorBoundRow:
    """One published estimate with its own convention and overestimation
    ratio. A value or ratio that is not a positive finite double, e.g. an
    overflowing ||b|| / sigma_min, raises InvalidGeometry naming the row."""

    source: str  # "wedin" | "stewart" | "gvlh"
    value: float
    scale_convention: str
    ratio_to_tight: float
    max_ratio: float  # proven upper bound on ratio_to_tight

    def __post_init__(self):
        for name in ("value", "ratio_to_tight", "max_ratio"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidGeometry(f"{self.source} {name} = {value} is not a positive finite double")


def compare_table(cache: LsCache) -> list[PriorBoundRow]:
    """All three published estimates with per-row overestimation ratios.

    Each ratio divides the published value by the tight upper estimate
    evaluated under that row's own scale convention, so conventions are
    never mixed.
    """
    geom = geometry(cache)
    presets = ScaleFactors.presets(cache)
    absolute = residual_condition_bounds(cache, presets["absolute"])
    b_rel = residual_condition_bounds(cache, presets["b-relative"])
    tight_abs = absolute.chi_A_upper
    tight_sum = b_rel.chi_A_upper + b_rel.chi_b

    wedin = cache.norm_r / geom.sigma_min + cache.norm_x
    # identically sqrt((||r|| / sigma_min)^2 + vds^2 ||x||^2): the tight
    # value with the solution term inflated by the van der Sluis ratio
    stewart = cache.norm_b / geom.sigma_min
    stated = 2.0 * geom.kappa + 1.0
    return [
        PriorBoundRow(
            source="wedin",
            value=wedin,
            scale_convention="scale_A = scale_r = 1, db = 0",
            ratio_to_tight=wedin / tight_abs,
            max_ratio=SQRT2,
        ),
        PriorBoundRow(
            source="stewart",
            value=stewart,
            scale_convention="scale_A = scale_r = 1, db = 0",
            ratio_to_tight=stewart / tight_abs,
            max_ratio=SQRT2 * geom.kappa,
        ),
        PriorBoundRow(
            source="gvlh",
            value=stated,
            scale_convention="scale_A = ||A||, scale_b = scale_r = ||b||, joint eps",
            ratio_to_tight=stated / tight_sum,
            max_ratio=geom.kappa + 0.5,
        ),
    ]
