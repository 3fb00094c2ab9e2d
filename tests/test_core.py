import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lsqcond as lc
from lsqcond.generators import gvl_example
from lsqcond.core import vector_norm
from conftest import (
    dense_projector_difference, normal_equations_solve, reconstruct, solved_ensemble, vec_index, vec_unflatten,
)


# --- solve_least_squares ---------------------------------------------------


def test_solve_coordinate_aligned(e1_cache):
    np.testing.assert_allclose(e1_cache.x, [1.0], atol=1e-15)
    np.testing.assert_allclose(e1_cache.r, [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(e1_cache.problem.A @ e1_cache.x, [1.0, 0.0], atol=1e-15)


def test_solve_parametric_instance(gvl_cache):
    np.testing.assert_allclose(gvl_cache.x, [2.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(gvl_cache.r, [0.0, 0.0, 1.0], atol=1e-14)


def test_solve_matches_normal_equations_oracle():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((8, 3))
    b = rng.standard_normal(8)
    cache = lc.solve_least_squares(lc.LsProblem(A, b))
    x_oracle, r_oracle = normal_equations_solve(A, b)
    np.testing.assert_allclose(cache.x, x_oracle, rtol=1e-10)
    np.testing.assert_allclose(cache.r, r_oracle, rtol=0, atol=1e-12)
    assert np.linalg.norm(A.T @ cache.r) <= 1e-12 * np.linalg.norm(A, 2) * np.linalg.norm(b)
    nb2 = np.linalg.norm(b) ** 2
    assert abs(cache.norm_Ax**2 + cache.norm_r**2 - nb2) <= 1e-12 * nb2


def test_cached_norms_are_the_norms_of_the_stored_vectors():
    for cache, _ in solved_ensemble(10, 5):
        assert cache.norm_b == float(np.linalg.norm(cache.problem.b))
        assert cache.norm_r == float(np.linalg.norm(cache.r))
        assert cache.norm_Ax == float(np.linalg.norm(cache.problem.A @ cache.x))
        assert cache.norm_x == float(np.linalg.norm(cache.x))


def test_norms_scale_exactly_by_powers_of_two():
    # at 2^+-540 and beyond the plain sums of squares overflow or underflow
    rng = np.random.default_rng(61)
    for n in (1, 2, 7, 40):
        v = rng.standard_normal(n)
        v[0] = -50.0  # the largest entry is negative
        for scale in (2.0**-600, 2.0**-540, 1.0, 2.0**540, 2.0**600):
            assert vector_norm(scale * v, "v") == scale * float(np.linalg.norm(v))
    # the scaling follows the largest magnitude, not the largest value
    assert vector_norm(np.array([-(2.0**600), 1.0]), "v") == 2.0**600
    assert vector_norm(np.array([0.0, 0.0]), "v") == 0.0


def test_array_dataclasses_compare_and_hash_by_identity():
    # generated __eq__ and __hash__ would compare or hash the arrays
    example = gvl_example(0.5, 2.0, 0.0)
    problem = example.problem
    cache = lc.solve_least_squares(problem)
    adjoint = lc.adjoint_rank2(cache, cache.r)
    for obj in (problem, cache, adjoint, example, example.expected):
        assert obj == obj and len({obj, obj}) == 1 and hash(obj) == hash(obj)
    assert problem != lc.LsProblem(problem.A.copy(), problem.b.copy())


def test_appliers_take_blocks_of_columns():
    cache = next(solved_ensemble(1, 11))[0]
    m, n = cache.problem.m, cache.problem.n
    rng = np.random.default_rng(11)
    V, W = rng.standard_normal((m, 3)), rng.standard_normal((n, 3))
    for apply, X in ((cache.apply_proj, V), (cache.apply_pinv, V), (cache.apply_pinv_transpose, W)):
        block = apply(X)
        for j in range(3):
            single = apply(X[:, j].copy())
            assert block[:, j] == pytest.approx(single, rel=1e-12, abs=1e-12 * np.linalg.norm(single))


def test_solve_invariants_on_ensemble():
    for cache, _ in solved_ensemble(50, 3, max_kappa_exp=3.0):
        defects = cache.self_check()
        assert max(defects.values()) <= 1e-12, defects


@pytest.mark.parametrize("a_exp,b_exp", [(0, -570), (0, -1000), (0, 520), (600, 0), (-600, 0), (300, -300)])
def test_self_check_is_scale_free(a_exp, b_exp):
    # the defects are relative, so no scaling of A or b may overflow,
    # underflow or warn; scaling b alone by 2^e scales b, x and r exactly
    rng = np.random.default_rng(5)
    A, b = rng.standard_normal((6, 3)), rng.standard_normal(6)
    unscaled = lc.solve_least_squares(lc.LsProblem(A, b)).self_check()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        defects = lc.solve_least_squares(lc.LsProblem(np.ldexp(A, a_exp), np.ldexp(b, b_exp))).self_check()
    assert all(math.isfinite(v) and v <= 1e-12 for v in defects.values()), defects
    if a_exp == 0:
        assert defects == unscaled


@pytest.mark.parametrize(
    "A", [[[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]], [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]], ids=["multiple", "equal"]
)
def test_solve_rejects_rank_deficient(A):
    with pytest.raises(lc.NonFullRank):
        lc.solve_least_squares(lc.LsProblem(A, np.ones(3)))


def test_problem_rejects_bad_shapes():
    with pytest.raises(lc.DimensionMismatch):
        lc.LsProblem([[1.0], [0.0]], [1.0, 1.0, 1.0])
    with pytest.raises(lc.DimensionMismatch):
        lc.LsProblem([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])  # m == n
    with pytest.raises(ValueError):
        lc.LsProblem([[np.inf], [0.0]], [1.0, 1.0])


# --- the thin SVD held by the cache -------------------------------------------


def test_spectral_diagonal_matrix():
    cache = lc.solve_least_squares(lc.LsProblem([[1.0, 0.0], [0.0, 0.5], [0.0, 0.0]], np.ones(3)))
    np.testing.assert_allclose(cache.s, [1.0, 0.5], atol=1e-15)


def test_spectral_orthonormal_embedding():
    A = np.zeros((3, 2))
    A[0, 0] = A[1, 1] = 1.0
    np.testing.assert_allclose(lc.solve_least_squares(lc.LsProblem(A, np.ones(3))).s, [1.0, 1.0], atol=1e-15)


def test_spectral_reconstruction():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((10, 4))
    cache = lc.solve_least_squares(lc.LsProblem(A, np.ones(10)))
    err = np.linalg.norm(A - reconstruct(cache), 2)
    assert err <= 1e-13 * np.linalg.norm(A, 2)
    s = cache.s
    assert np.all(s[:-1] >= s[1:]) and s[-1] > 0.0


# --- geometry ----------------------------------------------------------------


def test_geometry_e1(e1_cache):
    geom = lc.geometry(e1_cache)
    assert geom.kappa == pytest.approx(1.0, abs=1e-15)
    assert geom.vds == pytest.approx(1.0, abs=1e-15)
    assert geom.cot_theta == pytest.approx(1.0, abs=1e-15)
    assert geom.theta == pytest.approx(math.pi / 4, abs=1e-15)


@pytest.mark.parametrize(
    "alpha,beta,phi",
    [(0.5, 2.0, 0.0), (0.1, 10.0, math.pi / 4), (0.01, 100.0, math.pi / 2)],
)
def test_geometry_parametric_closed_forms(alpha, beta, phi):
    cache = lc.solve_least_squares(gvl_example(alpha, beta, phi).problem)
    geom = lc.geometry(cache)
    assert geom.kappa == pytest.approx(1.0 / alpha, rel=1e-12)
    assert geom.cot_theta == pytest.approx(beta, rel=1e-12)
    vds = 1.0 / math.hypot(alpha * math.cos(phi), math.sin(phi))
    assert geom.vds == pytest.approx(vds, rel=1e-12)


def test_geometry_derived_instance(gvl_cache):
    geom = lc.geometry(gvl_cache)
    assert geom.kappa == pytest.approx(2.0, rel=1e-14)
    assert geom.vds == pytest.approx(2.0, rel=1e-14)
    assert geom.cot_theta == pytest.approx(2.0, rel=1e-14)


def test_geometry_zero_residual():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    cache = lc.solve_least_squares(lc.LsProblem(A, np.array([1.0, 2.0, 0.0])))
    with pytest.raises(lc.ZeroResidual):
        lc.geometry(cache)


def test_geometry_zero_solution():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    cache = lc.solve_least_squares(lc.LsProblem(A, np.array([0.0, 0.0, 1.0])))
    with pytest.raises(lc.ZeroSolution):
        lc.geometry(cache)


@pytest.mark.parametrize(
    "kappa, theta, vds",
    [(0.5, 0.7, 1.0), (2.0, 0.0, 1.5), (2.0, 2.0, 1.5), (2.0, 0.7, 0.0), (2.0, 0.7, 3.0)],
)
def test_geometry_out_of_range_raises_invalid_geometry(kappa, theta, vds):
    # a numerical failure, not a parameter error: LsqCondError, not ValueError
    with pytest.raises(lc.InvalidGeometry):
        lc.Geometry(kappa=kappa, theta=theta, cot_theta=math.inf, vds=vds, sigma_min=1.0)
    assert not issubclass(lc.InvalidGeometry, ValueError)


def test_vds_between_one_and_kappa():
    for _, geom in solved_ensemble(60, 9):
        assert 1.0 - 1e-12 <= geom.vds <= geom.kappa * (1.0 + 1e-12)


def test_geometry_invariant_under_orthogonal_rotation():
    rng = np.random.default_rng(13)
    for cache, geom in solved_ensemble(20, 13, max_kappa_exp=3.0):
        m = cache.problem.m
        Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        rotated = lc.solve_least_squares(lc.LsProblem(Q @ cache.problem.A, Q @ cache.problem.b))
        geom2 = lc.geometry(rotated)
        assert geom2.kappa == pytest.approx(geom.kappa, rel=1e-12)
        assert geom2.theta == pytest.approx(geom.theta, rel=1e-12)
        assert geom2.vds == pytest.approx(geom.vds, rel=1e-12)


# --- nuclear norm ------------------------------------------------------------


@pytest.mark.parametrize(
    "M,expected",
    [
        ([[1.0, 0.0], [0.0, 0.0]], 1.0),
        (np.eye(2), 2.0),
        ([[1.0, 1.0], [1.0, 1.0]], 2.0),
    ],
)
def test_nuclear_norm_values(M, expected):
    assert lc.nuclear_norm(M) == pytest.approx(expected, abs=1e-14)


def test_nuclear_norm_bounds_spectral():
    rng = np.random.default_rng(5)
    for _ in range(25):
        M = rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 9))))
        spectral = np.linalg.norm(M, 2)
        rank = np.linalg.matrix_rank(M)
        assert spectral - 1e-12 <= lc.nuclear_norm(M) <= rank * spectral + 1e-12


def test_nuclear_norm_of_a_stack():
    rng = np.random.default_rng(9)
    stack = rng.standard_normal((4, 5, 3))
    values = lc.nuclear_norm(stack)
    assert values.shape == (4,)
    for M, value in zip(stack, values):
        assert value == pytest.approx(lc.nuclear_norm(M), rel=1e-14)
    with pytest.raises(ValueError):
        lc.nuclear_norm(np.full((2, 2, 2), np.nan))


# --- projector difference ----------------------------------------------------


def test_projector_difference_bounds_residual_change():
    # r_A - r_B = (P_B - P_A) b for every size of the perturbation
    rng = np.random.default_rng(17)
    A = rng.standard_normal((9, 4))
    E = rng.standard_normal((9, 4))
    B = A + 1e-6 * E / np.linalg.norm(E, 2)
    b = rng.standard_normal(9)
    gap = dense_projector_difference(A, B)
    assert gap < 1e-4
    ra = lc.solve_least_squares(lc.LsProblem(A, b)).r
    rb = lc.solve_least_squares(lc.LsProblem(B, b)).r
    assert np.linalg.norm(ra - rb) <= gap * np.linalg.norm(b) * (1.0 + 1e-10)


# --- vec indexing ------------------------------------------------------------


def test_vec_index_values():
    assert vec_index(1, 0, 3) == 1
    assert vec_index(0, 1, 3) == 3


def test_vec_index_round_trip():
    for i in range(4):
        for j in range(3):
            assert vec_unflatten(vec_index(i, j, 4, n=3), 4) == (i, j)


@given(st.integers(1, 50), st.integers(1, 50), st.data())
def test_vec_index_bijection(m, n, data):
    i = data.draw(st.integers(0, m - 1))
    j = data.draw(st.integers(0, n - 1))
    k = vec_index(i, j, m, n=n)
    assert 0 <= k < m * n
    assert vec_unflatten(k, m) == (i, j)


def test_vec_index_out_of_range():
    with pytest.raises(IndexError):
        vec_index(3, 0, 3)
    with pytest.raises(IndexError):
        vec_index(0, 2, 3, n=2)
    with pytest.raises(IndexError):
        vec_unflatten(-1, 3)
