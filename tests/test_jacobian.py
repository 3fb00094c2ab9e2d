import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsqcond as lc
from lsqcond.generators import EnsembleSpec, gvl_example, random_problem
from conftest import (
    both_branches,
    dense_svd_perturbation,
    finite_difference_condition,
    sampled_condition_wrt_A,
    solved_ensemble,
    vec_index,
)
from lsqcond.conditioning import exact_value
from lsqcond.core import vector_norm
from lsqcond.jacobian import canonicalize_direction

SQRT2 = math.sqrt(2.0)


# --- apply_residual_jacobian -------------------------------------------------


def test_apply_e1_closed_form(e1_cache):
    delta = 1e-3
    dr = lc.apply_residual_jacobian(e1_cache, np.array([[0.0], [delta]]))
    np.testing.assert_allclose(dr, [-delta, -delta], atol=1e-18)


def test_apply_zero_perturbation(e1_cache):
    dr = lc.apply_residual_jacobian(e1_cache, np.zeros((2, 1)))
    assert np.all(dr == 0.0)


def test_apply_linearity():
    rng = np.random.default_rng(19)
    for cache, _ in solved_ensemble(10, 19, max_kappa_exp=2.0):
        shape = cache.problem.A.shape
        d1, d2 = rng.standard_normal(shape), rng.standard_normal(shape)
        c1, c2 = rng.standard_normal(2)
        dr_sum = lc.apply_residual_jacobian(cache, c1 * d1 + c2 * d2)
        dr1 = lc.apply_residual_jacobian(cache, d1)
        dr2 = lc.apply_residual_jacobian(cache, d2)
        scale = np.linalg.norm(dr_sum) + 1e-300
        assert np.linalg.norm(dr_sum - c1 * dr1 - c2 * dr2) <= 1e-12 * scale


def test_apply_rejects_wrong_shape(e1_cache):
    with pytest.raises(lc.DimensionMismatch):
        lc.apply_residual_jacobian(e1_cache, np.zeros((3, 1)))


def test_remainder_decays_quadratically():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((8, 3))
    b = rng.standard_normal(8)
    cache = lc.solve_least_squares(lc.LsProblem(A, b))
    E = rng.standard_normal((8, 3))
    E /= np.linalg.svd(E, compute_uv=False)[0]
    remainders = []
    for delta in (1e-3, 5e-4, 2.5e-4):
        perturbed = lc.solve_least_squares(lc.LsProblem(A + delta * E, b))
        dr = lc.apply_residual_jacobian(cache, delta * E)
        remainders.append(np.linalg.norm(perturbed.r - cache.r - dr))
    assert 3.5 <= remainders[0] / remainders[1] <= 4.5
    assert 3.5 <= remainders[1] / remainders[2] <= 4.5


def test_explicit_jacobian_matrix_round_trip(gvl_cache):
    # build J column by column with the column-stacking index, then check
    # both the forward application and the adjoint (including its sign)
    m, n = gvl_cache.problem.m, gvl_cache.problem.n
    J = np.zeros((m, m * n))
    for i in range(m):
        for j in range(n):
            E = np.zeros((m, n))
            E[i, j] = 1.0
            dr = lc.apply_residual_jacobian(gvl_cache, E)
            J[:, vec_index(i, j, m, n=n)] = dr
    rng = np.random.default_rng(131)
    for _ in range(5):
        dA = rng.standard_normal((m, n))
        dr = lc.apply_residual_jacobian(gvl_cache, dA)
        np.testing.assert_allclose(J @ dA.ravel(order="F"), dr, atol=1e-13)
    for _ in range(5):
        d = rng.standard_normal(m)
        adj = lc.adjoint_rank2(gvl_cache, d)
        np.testing.assert_allclose(
            J.T @ d, -adj.matrix().ravel(order="F"), atol=1e-13
        )


# --- adjoint -------------------------------------------------------------------


def test_adjoint_along_residual(e1_cache):
    rhat = e1_cache.r / e1_cache.norm_r
    adj = lc.adjoint_rank2(e1_cache, rhat)
    np.testing.assert_allclose(adj.u1, rhat, atol=1e-15)
    np.testing.assert_allclose(adj.v2, [0.0], atol=1e-15)
    # the adjoint image is minus the rank-2 matrix: <dr(dA), rhat> = -<dA, u1 x^t>
    dA = np.array([[0.0], [1.0]])
    dr = lc.apply_residual_jacobian(e1_cache, dA)
    assert dr @ rhat == pytest.approx(-np.sum(dA * adj.matrix()), rel=1e-14)


def test_adjoint_inside_column_space(e1_cache):
    adj = lc.adjoint_rank2(e1_cache, np.array([1.0, 0.0]))
    np.testing.assert_allclose(adj.u1, [0.0, 0.0], atol=1e-15)


def test_adjoint_identity_random_pairs():
    rng = np.random.default_rng(53)
    for cache, _ in solved_ensemble(5, 53, max_kappa_exp=3.0):
        m, n = cache.problem.m, cache.problem.n
        for _ in range(20):
            d = rng.standard_normal(m)
            d /= np.linalg.norm(d)
            dA = rng.standard_normal((m, n))
            dr = lc.apply_residual_jacobian(cache, dA)
            adj = lc.adjoint_rank2(cache, d)
            lhs = dr @ d
            rhs = -np.sum(dA * adj.matrix())
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)


def test_adjoint_factor_invariants():
    rng = np.random.default_rng(59)
    for cache, _ in solved_ensemble(10, 59, max_kappa_exp=3.0):
        d = rng.standard_normal(cache.problem.m)
        d /= np.linalg.norm(d)
        adj = lc.adjoint_rank2(cache, d)
        A = cache.problem.A
        scale = np.linalg.norm(A, 2)
        assert np.linalg.norm(A.T @ adj.u1) <= 1e-12 * scale
        assert np.linalg.norm(A.T @ adj.u2) <= 1e-12 * scale * cache.norm_b
        assert np.linalg.norm(adj.v2) <= 1.0 / cache.s[-1] + 1e-12


# --- g and the sandwich -----------------------------------------------------------


def test_g_e1_along_residual(e1_cache):
    assert lc.adjoint_rank2(e1_cache, np.array([0.0, 1.0])).objective() == pytest.approx(1.0, rel=1e-14)


def test_g_e1_diagonal_direction(e1_cache):
    d = np.array([1.0, 1.0]) / SQRT2
    assert lc.adjoint_rank2(e1_cache, d).objective() == pytest.approx(SQRT2, rel=1e-14)


def test_g_degenerate_u1(e1_cache):
    # direction inside col(A): u1 = 0 so g collapses to ||u2|| ||v2||
    adj = lc.adjoint_rank2(e1_cache, np.array([1.0, 0.0]))
    expected = np.linalg.norm(adj.u2) * np.linalg.norm(adj.v2)
    assert lc.adjoint_rank2(e1_cache, np.array([1.0, 0.0])).objective() == pytest.approx(expected, rel=1e-14)


def test_g_equals_nuclear_norm():
    rng = np.random.default_rng(61)
    for cache, _ in solved_ensemble(10, 61):
        for _ in range(20):
            d = rng.standard_normal(cache.problem.m)
            d /= np.linalg.norm(d)
            g = lc.adjoint_rank2(cache, d).objective()
            nn = lc.nuclear_norm(lc.adjoint_rank2(cache, d).matrix())
            assert g == pytest.approx(nn, rel=1e-10)


@pytest.mark.parametrize("t", [1e-6, 1e-8, 1e-10])
def test_g_does_not_cancel_near_a_zero_objective(e1_cache, t):
    # along (-1 + t, 1) the rank-1 terms u1 x^t and r v2^t nearly cancel:
    # g = t / ||d||, while a + b is about sqrt(2)
    d = np.array([-1.0 + t, 1.0])
    d /= np.linalg.norm(d)
    adj = lc.adjoint_rank2(e1_cache, d)
    nn = lc.nuclear_norm(adj.matrix())
    _, U = adj.bounds()
    assert abs(adj.objective() - nn) <= 4.0 * np.finfo(float).eps * U


@pytest.mark.parametrize(
    "direction,expected",
    [
        ([0.0, 1.0], (1.0, 1.0)),
        ([1.0, 0.0], (1.0, 1.0)),
        ([1.0 / SQRT2, 1.0 / SQRT2], (1.0, SQRT2)),
    ],
)
def test_sandwich_e1_values(e1_cache, direction, expected):
    L, U = lc.adjoint_rank2(e1_cache, np.array(direction)).bounds()
    assert L == pytest.approx(expected[0], rel=1e-14)
    assert U == pytest.approx(expected[1], rel=1e-14)


def test_sandwich_pointwise_on_canonical_directions():
    rng = np.random.default_rng(67)
    for cache, _ in solved_ensemble(10, 67):
        for _ in range(20):
            d = rng.standard_normal(cache.problem.m)
            d /= np.linalg.norm(d)
            dc = canonicalize_direction(cache, d, lc.adjoint_rank2(cache, d))
            assert np.linalg.norm(dc) == pytest.approx(1.0, abs=1e-12)
            canonical = lc.adjoint_rank2(cache, dc)
            g = canonical.objective()
            L, U = canonical.bounds()
            assert L - 1e-10 <= g <= U + 1e-10
            if L > 0.0:
                assert U <= SQRT2 * L * (1.0 + 1e-12)


def test_canonicalize_preserves_bounds():
    rng = np.random.default_rng(71)
    for cache, _ in solved_ensemble(5, 71):
        d = rng.standard_normal(cache.problem.m)
        d /= np.linalg.norm(d)
        adj = lc.adjoint_rank2(cache, d)
        canonical = lc.adjoint_rank2(cache, canonicalize_direction(cache, d, adj))
        assert adj.bounds() == pytest.approx(canonical.bounds())
        assert canonical.objective() >= adj.objective() - 1e-12


# --- worst-case direction (exact maximizer) -----------------------------------------------------------


def test_worst_case_e1(e1_cache):
    d = lc.worst_case_direction(e1_cache)
    _, U = lc.adjoint_rank2(e1_cache, d).bounds()
    assert U == pytest.approx(SQRT2, rel=1e-12)
    assert exact_value(e1_cache) == pytest.approx(SQRT2, rel=1e-12)  # upper bound attained here
    assert abs(np.abs(d) @ np.ones(2) - SQRT2) < 1e-12  # components +-1/sqrt(2)


def test_worst_case_parametric(gvl_cache):
    d = lc.worst_case_direction(gvl_cache)
    # ||r||/sigma_min = 2 and ||x|| = 2 give upper = 2 sqrt(2); m = n + 1, and
    # [V^t x | ||r|| Sigma^{-1}] = [[2, 1, 0], [0, 0, 2]] has sigma_max = sqrt(5)
    scales = lc.ScaleFactors()
    upper = lc.residual_condition_bounds(gvl_cache, scales).chi_A_upper
    assert upper == pytest.approx(2.0 * SQRT2, rel=1e-12)
    exact = exact_value(gvl_cache)
    assert exact == pytest.approx(math.sqrt(5.0), rel=1e-14)
    assert lc.adjoint_rank2(gvl_cache, d).objective() == pytest.approx(exact, rel=1e-12)


def test_worst_case_rejects_zero_residual():
    # b inside col(A)
    cache = lc.solve_least_squares(lc.LsProblem([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], [1.0, 2.0, 0.0]))
    with pytest.raises(lc.ZeroResidual):
        lc.worst_case_direction(cache)


def test_worst_case_rejects_zero_solution():
    # b orthogonal to col(A)
    cache = lc.solve_least_squares(lc.LsProblem([[1.0], [0.0], [0.0]], [0.0, 1.0, 1.0]))
    with pytest.raises(lc.ZeroSolution):
        lc.worst_case_direction(cache)


def test_worst_case_orthonormal_columns():
    spec = EnsembleSpec(7, 3, (1.0, 1.0, 1.0), 0.9, 0.5, 73)
    cache = lc.solve_least_squares(random_problem(spec))
    _, U = lc.adjoint_rank2(cache, lc.worst_case_direction(cache)).bounds()
    assert U == pytest.approx(math.hypot(cache.norm_r, cache.norm_x), rel=1e-12)


# --- exact value against the sampling oracle -------------------------------------------


def test_empirical_e1_attains_upper(e1_cache):
    chi_A = lc.residual_condition_bounds(e1_cache, lc.ScaleFactors.presets(e1_cache)["relative"]).chi_A
    assert chi_A == pytest.approx(SQRT2, rel=1e-14)
    assert sampled_condition_wrt_A(e1_cache, n_samples=100, seed=2) <= SQRT2 * (1.0 + 1e-10)


def test_empirical_parametric_inside_sandwich(gvl_cache):
    chi_A = lc.residual_condition_bounds(gvl_cache, lc.ScaleFactors.presets(gvl_cache)["relative"]).chi_A
    assert 2.0 - 1e-12 <= chi_A <= 2.0 * SQRT2 * (1.0 + 1e-12)


def test_empirical_constructed_only_reaches_lower_bound():
    for cache, _ in solved_ensemble(15, 79):
        scales = lc.ScaleFactors.presets(cache)["relative"]
        bounds = lc.residual_condition_bounds(cache, scales)
        constructed = scales.scale_A / scales.scale_r * sampled_condition_wrt_A(cache, n_samples=0)
        assert constructed >= bounds.chi_A_upper / SQRT2 * (1.0 - 1e-12)
        assert constructed <= bounds.chi_A * (1.0 + 1e-10)


def test_empirical_deterministic(gvl_cache):
    assert exact_value(gvl_cache) == exact_value(gvl_cache)
    np.testing.assert_array_equal(lc.worst_case_direction(gvl_cache), lc.worst_case_direction(gvl_cache))


def test_empirical_candidate_invariants(gvl_cache):
    d = lc.worst_case_direction(gvl_cache)
    assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)
    L, U = lc.adjoint_rank2(gvl_cache, d).bounds()
    assert L - 1e-10 <= exact_value(gvl_cache) <= U + 1e-10


def test_global_sandwich_of_sampled_maximum():
    # max sampled g lies within [U(worst)/sqrt(2), U(worst)]
    for cache, _ in solved_ensemble(10, 83):
        sampled = sampled_condition_wrt_A(cache, n_samples=500, seed=3)
        upper = math.hypot(cache.norm_r / cache.s[-1], cache.norm_x)
        assert upper / SQRT2 * (1 - 1e-12) <= sampled <= upper * (1 + 1e-12)


def test_oracle_never_exceeds_exact():
    for cache in both_branches(200, 113):
        exact = exact_value(cache)
        assert sampled_condition_wrt_A(cache, n_samples=1000, seed=cache.problem.m) <= exact * (1.0 + 1e-10)


def test_certificate_attains_exact():
    for cache in both_branches(200, 127):
        dA = lc.attaining_perturbation(cache, lc.worst_case_direction(cache))
        assert np.linalg.norm(dA, 2) == pytest.approx(1.0, abs=1e-12)
        dr = lc.apply_residual_jacobian(cache, dA)
        assert np.linalg.norm(dr) == pytest.approx(exact_value(cache), rel=1e-10)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 6),
    extra=st.integers(1, 4),
    kappa_exp=st.floats(0.0, 6.0),
    theta=st.floats(0.05, 1.52),
    mix=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_exact_value_property(n, extra, kappa_exp, theta, mix, seed):
    sv = tuple(np.geomspace(1.0, 10.0**-kappa_exp, n)) if n > 1 else (1.0,)
    cache = lc.solve_least_squares(random_problem(EnsembleSpec(n + extra, n, sv, theta, mix, seed)))
    exact = exact_value(cache)
    upper = math.hypot(cache.norm_r / cache.s[-1], cache.norm_x)
    assert upper / SQRT2 * (1.0 - 1e-12) <= exact <= upper * (1.0 + 1e-12)
    if extra >= 2:
        assert exact == upper  # a direction orthogonal to r and col(A) attains upper
    dA = lc.attaining_perturbation(cache, lc.worst_case_direction(cache))
    dr = lc.apply_residual_jacobian(cache, dA)
    assert np.linalg.norm(dr) == pytest.approx(exact, rel=1e-10)
    assert sampled_condition_wrt_A(cache, n_samples=200, seed=seed) <= exact * (1.0 + 1e-10)


def test_gvl_exact_matches_eigenvalue_closed_form():
    # A = diag(1, alpha) over a zero row and r = e3, so V = I and
    # sigma_max = ||r|| = 1; chi_A^2 is the top eigenvalue of
    # x x^t + diag(1, 1/alpha^2)
    for alpha in (0.5, 0.1, 0.01):
        for beta in (1.0, 10.0, 100.0):
            for phi in (0.0, math.pi / 4, math.pi / 2):
                cache = lc.solve_least_squares(gvl_example(alpha, beta, phi).problem)
                x1, x2 = beta * math.cos(phi), beta * math.sin(phi) / alpha
                p, q, r = x1 * x1 + 1.0, x2 * x2 + 1.0 / alpha**2, x1 * x2
                lam = (p + q) / 2.0 + math.hypot((p - q) / 2.0, r)
                chi_A = lc.residual_condition_bounds(cache, lc.ScaleFactors.presets(cache)["relative"]).chi_A
                assert chi_A == pytest.approx(math.sqrt(lam), rel=1e-14)


def _exhaustive_best(cache, directions):
    """Largest SVD-evaluated objective over the unit columns of directions,
    in blocks of 5,000: each block is one stack of dense rank-2 matrices."""
    return max(
        float(lc.nuclear_norm(lc.adjoint_rank2(cache, directions[:, k : k + 5000]).matrix()).max())
        for k in range(0, directions.shape[1], 5000)
    )


def test_exact_value_matches_exhaustive_circle_in_2d(e1_cache):
    # for m = 2 the unit sphere is a circle: brute-force the objective with
    # SVD-based nuclear norms (independent of the closed form) and compare
    angles = np.linspace(0.0, 2.0 * math.pi, 200_001)
    best = _exhaustive_best(e1_cache, np.vstack([np.cos(angles), np.sin(angles)]))
    exact = exact_value(e1_cache)
    assert best <= exact * (1.0 + 1e-12)
    assert exact == pytest.approx(best, rel=1e-8)


def test_exact_value_agrees_with_exhaustive_grid_in_3d():
    # independent oracle: a dense 3-d grid of SVD-evaluated objectives. The
    # maximizer need not lie in the span of rhat and a'' (m = n + 1 here), so
    # the grid lands between the upper estimate's lower end and the exact value
    ex = gvl_example(0.37, 1.7, 0.6)
    cache = lc.solve_least_squares(ex.problem)
    rng = np.random.default_rng(12)
    grid = rng.standard_normal((3, 40_000))
    grid /= np.linalg.norm(grid, axis=0)
    grid_best = _exhaustive_best(cache, grid)
    exact = exact_value(cache)
    upper = math.hypot(cache.norm_r / cache.s[-1], cache.norm_x)
    assert grid_best <= exact * (1.0 + 1e-12)
    assert exact == pytest.approx(grid_best, rel=1e-3)
    for value in (grid_best, exact):
        assert upper / SQRT2 * (1.0 - 1e-12) <= value <= upper * (1.0 + 1e-12)


# --- attaining perturbation --------------------------------------------------------------


def test_attaining_e1(e1_cache):
    dA = lc.attaining_perturbation(e1_cache, lc.worst_case_direction(e1_cache))
    assert np.linalg.norm(dA, 2) == pytest.approx(1.0, abs=1e-12)
    dr = lc.apply_residual_jacobian(e1_cache, dA)
    assert np.linalg.norm(dr) == pytest.approx(SQRT2, rel=1e-12)


def test_attaining_unit_norm_random_directions():
    rng = np.random.default_rng(89)
    for cache, _ in solved_ensemble(10, 89):
        d = rng.standard_normal(cache.problem.m)
        d /= np.linalg.norm(d)
        dA = lc.attaining_perturbation(cache, d)
        assert np.linalg.norm(dA, 2) == pytest.approx(1.0, abs=1e-12)
        dr = lc.apply_residual_jacobian(cache, dA)
        g = lc.adjoint_rank2(cache, d).objective()
        assert dr @ d == pytest.approx(g, rel=1e-11)
        assert np.linalg.norm(dr) >= g * (1.0 - 1e-12)


def test_attaining_first_order_check(e1_cache):
    dA = lc.attaining_perturbation(e1_cache, lc.worst_case_direction(e1_cache))
    dr = lc.apply_residual_jacobian(e1_cache, dA)
    eps = 1e-7
    perturbed = lc.solve_least_squares(
        lc.LsProblem(e1_cache.problem.A + eps * dA, e1_cache.problem.b)
    )
    measured = np.linalg.norm(perturbed.r - e1_cache.r) / eps
    assert measured == pytest.approx(np.linalg.norm(dr), rel=1e-5)


def test_attaining_matches_dense_svd_reference():
    # at m = n + 1, [u1 u2] has rank one and both constructions can keep a
    # rounding-level sigma_2 just above the keep threshold, so their polar
    # factors differ by up to eps sigma_1 / sigma_2; the attained value
    # does not depend on that choice
    rng = np.random.default_rng(131)
    for cache in both_branches(50, 131):
        D = rng.standard_normal((5, cache.problem.m))
        for d in (lc.worst_case_direction(cache), *(D / np.linalg.norm(D, axis=1)[:, None])):
            dA = lc.attaining_perturbation(cache, d)
            ref, sh = dense_svd_perturbation(cache, d)
            attained = lc.apply_residual_jacobian(cache, dA) @ d
            reference = lc.apply_residual_jacobian(cache, ref) @ d
            assert abs(attained - reference) <= 1e-12 * lc.adjoint_rank2(cache, d).objective()
            if sh.size == 2:
                assert np.linalg.norm(dA - ref, 2) <= 1e-13 * sh[0] / sh[1]


def test_attaining_on_a_tall_problem():
    # 2000x40, a shape the verify suites never reach
    sv = tuple(np.geomspace(1.0, 1e-4, 40))
    cache = lc.solve_least_squares(random_problem(EnsembleSpec(2000, 40, sv, 0.6, 0.5, 17)))
    dA = lc.attaining_perturbation(cache, lc.worst_case_direction(cache))
    assert np.linalg.norm(dA, 2) == pytest.approx(1.0, abs=1e-12)
    dr = lc.apply_residual_jacobian(cache, dA)
    assert np.linalg.norm(dr) == pytest.approx(exact_value(cache), rel=1e-10)


@pytest.mark.parametrize("m", [6, 4], ids=["m=n+3", "m=n+1"])
@pytest.mark.parametrize(
    "k, j", [(0, 0), (-532, 0), (-532, -532), (532, 532), (0, 532), (532, 0), (0, -532), (-1000, -1000)]
)
def test_certificate_across_the_double_range(m, k, j):
    # for (2^k A, 2^j b), ||x|| is about 2^(j - k) and a unit direction's
    # ||v2|| about 2^-k: at 2^532 and beyond their sums of squares overflow
    rng = np.random.default_rng(7)
    A, b = rng.standard_normal((m, 3)), rng.standard_normal(m)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cache = lc.solve_least_squares(lc.LsProblem(np.ldexp(A, k), np.ldexp(b, j)))
        d = lc.worst_case_direction(cache)
        assert np.isfinite(d).all()
        dA = lc.attaining_perturbation(cache, d)
        dr = lc.apply_residual_jacobian(cache, dA)
        assert vector_norm(dr, "dr") == pytest.approx(exact_value(cache), rel=1e-10)
        # the sign test and the sandwich on a block, where (u1^t r) (x^t v2) can overflow
        D = rng.standard_normal((m, 5))
        D /= np.linalg.norm(D, axis=0)
        canonical = lc.adjoint_rank2(cache, canonicalize_direction(cache, D, lc.adjoint_rank2(cache, D)))
        g = canonical.objective()
        L, U = canonical.bounds()
        assert np.all((L * (1.0 - 1e-12) <= g) & (g <= U * (1.0 + 1e-12)))


def test_attaining_degenerate_direction(e1_cache):
    # u1 v1^t and u2 v2^t cancel exactly along (-1, 1)/sqrt(2)
    d = np.array([-1.0, 1.0]) / SQRT2
    assert lc.adjoint_rank2(e1_cache, d).objective() == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(lc.DegenerateDirection):
        lc.attaining_perturbation(e1_cache, d)


# --- finite differences -----------------------------------------------------------------


def test_finite_difference_e1(e1_cache):
    scales = lc.ScaleFactors.presets(e1_cache)["relative"]
    value = finite_difference_condition(
        e1_cache.problem, scales, delta=1e-7, samples=200, seed=1
    )
    assert 1.0 <= value <= SQRT2 * (1.0 + 1e-4)


def test_finite_difference_deviation_first_order_in_step():
    # against a generic fixed perturbation the deviation from the Jacobian
    # prediction scales linearly with the step
    spec = EnsembleSpec(10, 4, (1.0, 0.5, 0.2, 0.05), 0.8, 0.4, 21)
    problem = random_problem(spec)
    cache = lc.solve_least_squares(problem)
    scales = lc.ScaleFactors.presets(cache)["relative"]
    rng = np.random.default_rng(101)
    E = rng.standard_normal((10, 4))
    E /= np.linalg.svd(E, compute_uv=False)[0]
    dr = lc.apply_residual_jacobian(cache, E)
    linear = (np.linalg.norm(dr) / scales.scale_r) / (1.0 / scales.scale_A)
    deviations = []
    for delta in (1e-4, 5e-5):
        perturbed = lc.solve_least_squares(lc.LsProblem(problem.A + delta * E, problem.b))
        value = (np.linalg.norm(perturbed.r - cache.r) / scales.scale_r) / (delta / scales.scale_A)
        deviations.append(abs(value - linear))
    assert 1.8 <= deviations[0] / deviations[1] <= 2.2


def test_finite_difference_gvl_displayed_perturbation():
    # the bundled dA of the parametric example: measured relative change
    # matches the predicted first-order coefficient times epsilon
    ex = gvl_example(0.5, 2.0, 0.0, epsilon=1e-6)
    cache = lc.solve_least_squares(ex.problem)
    perturbed = lc.solve_least_squares(lc.LsProblem(ex.problem.A + ex.delta_A, ex.problem.b))
    measured = np.linalg.norm(perturbed.r - cache.r) / cache.norm_r
    assert measured == pytest.approx(3.0e-6, abs=1e-11)


def test_finite_difference_stays_below_upper_bound():
    for cache, _ in solved_ensemble(5, 97, max_kappa_exp=2.0):
        scales = lc.ScaleFactors.presets(cache)["relative"]
        value = finite_difference_condition(cache.problem, scales, samples=40, seed=2)
        upper = lc.residual_condition_bounds(cache, scales).chi_A_upper
        assert value <= upper * (1.0 + 1e-4)


def test_finite_difference_rejects_rank_losing_step(e1_cache):
    scales = lc.ScaleFactors.presets(e1_cache)["relative"]
    with pytest.raises(lc.NonFullRank):
        finite_difference_condition(e1_cache.problem, scales, delta=2.0, samples=1, seed=0)


# --- blocks of directions ------------------------------------------------------------------------


def _close(block, single, scale, rtol=1e-14):
    assert np.linalg.norm(np.asarray(block) - np.asarray(single)) <= rtol * scale


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 6),
    extra=st.integers(1, 4),
    kappa_exp=st.floats(0.0, 6.0),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
)
def test_block_columns_match_single_directions(n, extra, kappa_exp, k, seed):
    # Each column of a block result equals the result for that column alone,
    # to 1e-14 of the quantity's scale over unit inputs: the two differ only
    # in how BLAS orders the sums. ||v2|| reaches 1 / sigma_min, so the
    # adjoint's scale is top = ||x|| + ||r|| / sigma_min.
    sv = tuple(np.geomspace(1.0, 10.0**-kappa_exp, n)) if n > 1 else (1.0,)
    cache = lc.solve_least_squares(random_problem(EnsembleSpec(n + extra, n, sv, 0.7, 0.5, seed)))
    m, smin = cache.problem.m, cache.s[-1]
    top = cache.norm_x + cache.norm_r / smin
    rng = np.random.default_rng([seed, 1])  # not the problem's own stream
    D = rng.standard_normal((m, k))
    D /= np.linalg.norm(D, axis=0)
    W = rng.standard_normal((n, k))
    dA = rng.standard_normal((k, m, n))

    blocks = (
        cache.apply_proj(D), cache.apply_pinv(D), cache.apply_pinv_transpose(W),
    )
    adj = lc.adjoint_rank2(cache, D)
    stack = adj.matrix()
    Qu, C, Qv = adj.core()
    g = adj.objective()
    L, U = adj.bounds()
    canon = canonicalize_direction(cache, D, adj)
    nuclear = lc.nuclear_norm(stack)
    dr = lc.apply_residual_jacobian(cache, dA)
    assert stack.shape == (k, m, n) and nuclear.shape == g.shape == L.shape == U.shape == (k,)
    assert adj.u1.shape == canon.shape == dr.shape == (m, k) and adj.v2.shape == (n, k)
    assert Qu.shape == (k, m, 2) and C.shape == (k, 2, min(n, 2)) and Qv.shape == (k, n, min(n, 2))

    for j in range(k):
        d, w = D[:, j].copy(), W[:, j].copy()
        singles = (cache.apply_proj(d), cache.apply_pinv(d), cache.apply_pinv_transpose(w))
        for block, single, scale in zip(blocks, singles, (1.0, 1.0 / smin, np.linalg.norm(w) / smin)):
            _close(block[:, j], single, scale)
        one = lc.adjoint_rank2(cache, d)
        L1, U1 = one.bounds()
        g1 = one.objective()
        assert all(isinstance(v, float) for v in (g1, L1, U1, lc.nuclear_norm(one.matrix())))
        _close(adj.u1[:, j], one.u1, 1.0)
        _close(adj.v2[:, j], one.v2, 1.0 / smin)
        _close(stack[j], one.matrix(), top)
        _close(nuclear[j], lc.nuclear_norm(one.matrix()), top)
        _close(L[j], L1, top)
        _close(U[j], U1, top)
        _close(g[j] ** 2, g1**2, top**2)
        _close(Qu[j] @ C[j] @ Qv[j].T, stack[j], top)
        for Q in (Qu[j], Qv[j]):
            _close(Q.T @ Q, np.eye(Q.shape[1]), 1.0)
        _close(np.linalg.svd(C[j], compute_uv=False), np.linalg.svd(one.core()[1], compute_uv=False), top)
        _close(canon[:, j], canonicalize_direction(cache, d, one), 1.0)
        dr1 = lc.apply_residual_jacobian(cache, dA[j])
        _close(dr[:, j], dr1, np.linalg.norm(dA[j], 2) * top)


def test_block_rejects_wrong_shapes(gvl_cache):
    with pytest.raises(lc.DimensionMismatch):
        lc.adjoint_rank2(gvl_cache, np.ones((4, 2)))
    with pytest.raises(lc.DimensionMismatch):
        lc.apply_residual_jacobian(gvl_cache, np.ones((2, 4, 2)))
    with pytest.raises(lc.DimensionMismatch):
        lc.attaining_perturbation(gvl_cache, np.eye(3)[:, :2])
