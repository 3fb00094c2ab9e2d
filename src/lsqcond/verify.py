"""Verification suites: the paper's identities checked on seeded problems.

Each suite is a function (seed, count) -> (ok, detail). The seed starts
the suite's own random stream, which draws its problems and any directions
or perturbations; count is the number of problems (of block pairs for
block_norm_band). `lsqcond verify` runs the ten suites with seeds offset
from --seed, and the acceptance criteria run them with their own seeds and
counts, so each check has one implementation. SUITES lists the ten as
(function, count) pairs; `lsqcond verify` names a suite after its function
and offsets its seed by its position, and a suite that raises fails.
Each ensemble suite loops over _solved(specs), which solves the problems
of one random_problems call (Haar blocks stacked per exact shape, bitwise
as spec by spec) one at a time and yields each spec, cache and geometry.

The kernels the suites check (the dual-norm objective g, its bounds and
the sign canonicalization) live in the jacobian module.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .conditioning import (
    ScaleFactors,
    exact_value,
    projection_condition_bounds,
    residual_condition_bounds,
    worst_case_direction,
)
from .core import LsProblem, geometry, nuclear_norm, solve_least_squares
from .generators import EnsembleSpec, block_norm_cases, ensemble_specs, random_problems
from .jacobian import adjoint_rank2, apply_residual_jacobian, attaining_perturbation, canonicalize_direction
from .prior_bounds import compare_table


def _solved(specs: list[EnsembleSpec]):
    """(spec, cache, geometry) of each spec in order, solving one problem
    of one random_problems call at a time."""
    for spec, problem in zip(specs, random_problems(specs)):
        cache = solve_least_squares(problem)
        yield spec, cache, geometry(cache)


def _unit_columns(draws: np.ndarray) -> np.ndarray:
    """The rows of draws, each scaled to unit 2-norm, as the columns of a
    block; bitwise what dividing each row by np.linalg.norm gives."""
    return (draws / np.sqrt(np.vecdot(draws, draws))[:, None]).T


def solve_invariants(seed: int, count: int) -> tuple[bool, str]:
    """Solve postconditions to 1e-12; Geometry raises if vds leaves [1, kappa]."""
    # the 1e-12 orthogonality/Pythagoras budget needs eps * kappa below it,
    # so this suite caps kappa at 1e3; the sandwich suite still goes to 1e6
    worst = 0.0
    for _, cache, _ in _solved(ensemble_specs(count, seed, max_kappa_exp=3.0)):
        worst = max(worst, *cache.self_check().values())
    return worst <= 1e-12, f"worst solve defect {worst:.2e} (tol 1e-12)"


def sandwich_containment(seed: int, count: int) -> tuple[bool, str]:
    """The exact value lies in [upper / sqrt(2), upper], and its attaining
    perturbation has unit norm and attains it to first order."""
    lo, hi, worst_norm, worst_cert = math.inf, 0.0, 0.0, 0.0
    for spec, cache, _ in _solved(ensemble_specs(count, seed)):
        est = residual_condition_bounds(cache, ScaleFactors.presets(cache)["relative"])
        ratio = est.chi_A / est.chi_A_upper
        lo, hi = min(lo, ratio), max(hi, ratio)
        if not est.sandwich_holds():
            return False, f"exact value {est.chi_A} outside sandwich for seed {spec.seed}"
        # the first-order change attains the unscaled value
        g = exact_value(cache)
        dA = attaining_perturbation(cache, worst_case_direction(cache))
        dr = apply_residual_jacobian(cache, dA)
        worst_norm = max(worst_norm, abs(float(np.linalg.norm(dA, 2)) - 1.0))
        worst_cert = max(worst_cert, abs(float(np.linalg.norm(dr)) - g) / g)
    ok = worst_norm <= 1e-12 and worst_cert <= 1e-10
    return ok, (
        f"exact/upper in [{lo:.6f}, {hi:.6f}], worst | ||dA||_2 - 1 | {worst_norm:.2e} (tol 1e-12), "
        f"worst certificate defect {worst_cert:.2e} (tol 1e-10)"
    )


def adjoint_identity(seed: int, count: int) -> tuple[bool, str]:
    """<dr(dA), d> = -<dA, u1 v1^t + u2 v2^t>_F for 20 random (d, dA) pairs
    per problem."""
    # lhs sums two terms that can cancel, so defects are measured against
    # the magnitudes of those terms, the scale at which rounding occurs
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _, cache, _ in _solved(ensemble_specs(count, seed, max_kappa_exp=3.0)):
        m, n = cache.problem.m, cache.problem.n
        # row k: the k-th direction, then the k-th perturbation row by row
        draws = rng.standard_normal((20, m + m * n))
        D = _unit_columns(draws[:, :m])
        dA = draws[:, m:].reshape(20, m, n)
        dr = apply_residual_jacobian(cache, dA)
        adj = adjoint_rank2(cache, D)
        lhs = np.einsum("ik,ik->k", dr, D)
        rhs = -np.einsum("kij,kij->k", dA, adj.matrix())
        scale = np.abs(np.einsum("ik,kij,j->k", adj.u1, dA, adj.v1)) + np.abs(
            np.einsum("i,kij,jk->k", adj.u2, dA, adj.v2)
        )
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.maximum(scale, 1e-30))))
    return worst <= 1e-12, f"worst adjoint-identity defect {worst:.2e} (tol 1e-12)"


def dual_norm_identity(seed: int, count: int) -> tuple[bool, str]:
    """g equals the nuclear norm of the rank-2 adjoint to 1e-10, and
    L <= g <= U at the canonical form of 25 random unit directions per
    problem."""
    rng = np.random.default_rng(seed)
    worst_eq = 0.0
    for _, cache, _ in _solved(ensemble_specs(count, seed)):
        D = _unit_columns(rng.standard_normal((25, cache.problem.m)))
        adj = adjoint_rank2(cache, D)
        g, nn = adj.objective(), nuclear_norm(adj.matrix())
        worst_eq = max(worst_eq, float(np.max(np.abs(g - nn) / np.maximum(nn, 1e-30))))
        canonical = adjoint_rank2(cache, canonicalize_direction(cache, D, adj))
        L, U = canonical.bounds()
        gc = canonical.objective()
        outside = np.flatnonzero(~((L - 1e-10 <= gc) & (gc <= U + 1e-10)))
        if outside.size:
            k = outside[0]
            return False, f"canonical sandwich violated: L={float(L[k])} g={float(gc[k])} U={float(U[k])}"
    return worst_eq <= 1e-10, f"worst |g - nuclear|/nuclear = {worst_eq:.2e} (tol 1e-10)"


def jacobian_remainder(seed: int, count: int) -> tuple[bool, str]:
    """The first-order residual change leaves a quadratic remainder:
    halving the step divides it by 3.5 to 4.5."""
    rng = np.random.default_rng(seed)
    ratios = []
    for _, cache, geom in _solved(ensemble_specs(count, seed, max_kappa_exp=3.0, theta_range=(0.1, 1.4))):
        E = rng.standard_normal(cache.problem.A.shape)
        E /= np.linalg.svd(E, compute_uv=False)[0]
        d0 = 1e-3 * geom.sigma_min
        rems = []
        for d in (d0, d0 / 2.0):
            perturbed = solve_least_squares(LsProblem(cache.problem.A + d * E, cache.problem.b))
            dr = apply_residual_jacobian(cache, d * E)
            rems.append(float(np.linalg.norm(perturbed.r - cache.r - dr)))
        if not math.isfinite(rems[0] / d0**2):
            return False, f"remainder {rems[0]} over step^2 = {d0**2} is not finite"
        ratios.append(rems[0] / rems[1])
    ok = all(3.5 <= q <= 4.5 for q in ratios)
    return ok, f"remainder halving ratios in [{min(ratios):.3f}, {max(ratios):.3f}] (band 3.5-4.5)"


def chi_b_attainment(seed: int, count: int) -> tuple[bool, str]:
    """Perturbing b along r changes the residual by csc(theta) times the
    relative step, to 1e-10."""
    worst = 0.0
    for _, cache, geom in _solved(ensemble_specs(count, seed, max_kappa_exp=3.0, theta_range=(0.1, 1.4))):
        delta = 1e-2 * cache.norm_b
        db = delta * cache.r / cache.norm_r
        perturbed = solve_least_squares(LsProblem(cache.problem.A, cache.problem.b + db))
        ratio = (np.linalg.norm(perturbed.r - cache.r) / cache.norm_r) / (delta / cache.norm_b)
        worst = max(worst, abs(ratio - 1.0 / math.sin(geom.theta)) * math.sin(geom.theta))
    return worst <= 1e-10, f"worst csc(theta) attainment defect {worst:.2e} (tol 1e-10)"


def prior_dominance(seed: int, count: int) -> tuple[bool, str]:
    """Every published estimate lies between the tight value and its row's
    max_ratio times it."""
    # the gvlh stated value can exceed kappa times the tight sum at small
    # kappa; the provable pointwise bound is kappa + 1/2 (tight sum >= 2)
    for _, cache, _ in _solved(ensemble_specs(count, seed)):
        for row in compare_table(cache):
            cap = row.max_ratio + (0.5 if row.source == "gvlh" else 0.0)
            if not 1.0 - 1e-12 <= row.ratio_to_tight <= cap + 1e-9:
                return False, f"{row.source} ratio {row.ratio_to_tight} outside [1, {cap}]"
    return True, "all published-estimate ratios inside their provable bands"


def scaling_variants(seed: int, count: int) -> tuple[bool, str]:
    """The b-scaled tight estimate is the r-scaled one times sin(theta)."""
    worst = 0.0
    for _, cache, geom in _solved(ensemble_specs(count, seed, max_kappa_exp=3.0, theta_range=(0.1, 1.4))):
        presets = ScaleFactors.presets(cache)
        by_r = residual_condition_bounds(cache, presets["relative"]).chi_A_upper
        by_b = residual_condition_bounds(cache, presets["b-relative"]).chi_A_upper
        worst = max(worst, abs(by_b - by_r * math.sin(geom.theta)) / by_r)
    return worst <= 1e-12, f"worst scaling-identity defect {worst:.2e} (tol 1e-12)"


def projection_consistency(seed: int, count: int) -> tuple[bool, str]:
    """chi_Ax(A) ||Ax|| = chi_r(A) ||r|| for scale_A = 1 and ||A||, and
    chi_Ax(b) = ||b|| / ||Ax|| = sec(theta), each to 1e-12."""
    worst = 0.0
    for _, cache, geom in _solved(ensemble_specs(count, seed, max_kappa_exp=3.0, theta_range=(0.1, 1.3))):
        relative = ScaleFactors.presets(cache)["relative"]
        for scales in (dataclasses.replace(relative, scale_A=1.0), relative):
            res = residual_condition_bounds(cache, scales)
            proj = projection_condition_bounds(cache, scales)
            lhs = proj.chi_A_upper * cache.norm_Ax
            rhs = res.chi_A_upper * cache.norm_r
            worst = max(worst, abs(lhs - rhs) / rhs)
        for sec in (cache.norm_b / cache.norm_Ax, 1.0 / math.cos(geom.theta)):
            worst = max(worst, abs(proj.chi_b - sec) / sec)
    return worst <= 1e-12, f"worst projection-consistency defect {worst:.2e} (tol 1e-12)"


def block_norm_band(seed: int, count: int) -> tuple[bool, str]:
    """max(||A||, ||B||) <= ||[A B]|| <= ||A|| + ||B|| <= 2 ||[A B]|| on
    count random pairs of blocks."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        rows = int(rng.integers(1, 7))
        A = rng.standard_normal((rows, int(rng.integers(1, 5))))
        B = rng.standard_normal((rows, int(rng.integers(1, 5))))
        rng.integers(0, 2**31)  # discarded draw; it fixes which pairs each seed checks
        pairs.append((A, B))
    for case in block_norm_cases(pairs):
        hi = case.norm_A + case.norm_B
        lo = max(case.norm_A, case.norm_B)
        if not lo - 1e-6 <= case.norm_joint <= hi + 1e-6:
            return False, f"joint norm {case.norm_joint} outside [{lo}, {hi}]"
        if hi > 2.0 * case.norm_joint + 1e-6:
            return False, f"sum {hi} exceeds twice the joint norm {case.norm_joint}"
    return True, "joint norm inside the two-sided band on all cases"


# suite and its count; `lsqcond verify --seed s` runs the k-th with seed s + k
SUITES = [
    (solve_invariants, 100),
    (sandwich_containment, 200),
    (adjoint_identity, 20),
    (dual_norm_identity, 20),
    (jacobian_remainder, 25),
    (chi_b_attainment, 50),
    (prior_dominance, 100),
    (scaling_variants, 50),
    (projection_consistency, 50),
    (block_norm_band, 100),
]
