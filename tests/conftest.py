import dataclasses
import math

import numpy as np
import pytest

import lsqcond as lc
from lsqcond.generators import ensemble_specs, gvl_example, random_problems


@pytest.fixture
def e1_cache():
    """The smallest nontrivial problem: A = [[1], [0]], b = (1, 1).

    Solution x = (1), residual r = (0, 1); kappa = vds = 1, theta = pi/4.
    """
    return lc.solve_least_squares(lc.LsProblem([[1.0], [0.0]], [1.0, 1.0]))


@pytest.fixture
def gvl_cache():
    """The parametric 3x2 instance at alpha=0.5, beta=2, phi=0."""
    return lc.solve_least_squares(gvl_example(0.5, 2.0, 0.0).problem)


def normal_equations_solve(A, b):
    """Independent oracle: solve via the explicitly formed normal equations."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.linalg.solve(A.T @ A, A.T @ b)
    return x, b - A @ x


@pytest.fixture
def oracle_solve():
    return normal_equations_solve


def solved_ensemble(count, seed, **kwargs):
    """Stream of (cache, geometry) pairs over a seeded ensemble, its
    problems taken one at a time from one random_problems call."""
    for problem in random_problems(ensemble_specs(count, seed, **kwargs)):
        cache = lc.solve_least_squares(problem)
        yield cache, lc.geometry(cache)


def both_branches(count, seed, **kwargs):
    """Solved ensemble problems and, for each, the same recipe with m = n + 1,
    so both branches of the closed form are exercised; all taken from one
    random_problems call."""
    specs = ensemble_specs(count, seed, **kwargs)
    paired = [s for spec in specs for s in (spec, dataclasses.replace(spec, m=spec.n + 1))]
    for problem in random_problems(paired):
        yield lc.solve_least_squares(problem)


def one_spec_problem(spec, tol=1e-8):
    """Independent oracle for random_problems: the construction for one
    spec alone, each Haar factor from its own unstacked QR with the sign
    fix, then the complement draws from the same stream until one lies
    farther than tol times its norm from col(A)."""

    def haar(rng, rows, cols):
        Q, R = np.linalg.qr(rng.standard_normal((rows, cols)))
        return Q * np.where(np.diag(R) < 0.0, -1.0, 1.0)

    rng = np.random.default_rng(spec.seed)
    U, V = haar(rng, spec.m, spec.n), haar(rng, spec.n, spec.n)
    A = (U * np.sort(np.asarray(spec.singular_values, dtype=float))[::-1]) @ V.T
    t = spec.mix * math.pi / 2.0
    uhat = U[:, 0] if spec.n == 1 else math.cos(t) * U[:, 0] + math.sin(t) * U[:, -1]
    for _ in range(64):
        z = rng.standard_normal(spec.m)
        w = z - U @ (U.T @ z)
        nw = np.linalg.norm(w)
        if nw > tol * np.linalg.norm(z):
            return lc.LsProblem(A, math.cos(spec.theta) * uhat + math.sin(spec.theta) * (w / nw))
    raise AssertionError("no direction orthogonal to col(A) in 64 draws")


def reconstruct(cache):
    """U diag(s) V^t from the thin SVD a solved cache holds."""
    return (cache.U * cache.s) @ cache.V.T


def vec_index(i, j, m, n=None):
    """Column-stacking index of entry (i, j) of an m-row matrix: j*m + i.

    Indices are zero-based; pass n to also range-check the column index.
    """
    if not 0 <= i < m:
        raise IndexError(f"row index {i} outside [0, {m})")
    if j < 0 or (n is not None and j >= n):
        raise IndexError(f"column index {j} out of range")
    return j * m + i


def vec_unflatten(k, m):
    """Inverse of vec_index: linear index k of an m-row matrix back to (i, j)."""
    if k < 0 or m <= 0:
        raise IndexError(f"linear index {k} or row count {m} out of range")
    return k % m, k // m


def _batch_objective(cache, D):
    """Sign-optimal objective g over the unit columns of D, vectorized.

    For each column this is the better of the two r-component signs, which
    always has cos(theta_u - theta_v) >= 0.
    """
    nx, nr = cache.norm_x, cache.norm_r
    rhat = cache.r / nr
    xhat = cache.x / nx
    UtD = cache.U.T @ D
    U1 = D - cache.U @ UtD
    V2 = cache.V @ (UtD / cache.s[:, None])
    nu1 = np.linalg.norm(U1, axis=0)
    nv2 = np.linalg.norm(V2, axis=0)
    a = nu1 * nx
    b = nr * nv2
    # rejection-based sines stay accurate when an angle degenerates
    with np.errstate(invalid="ignore", divide="ignore"):
        U1h = np.where(nu1 > 0.0, U1 / nu1, 0.0)
        V2h = np.where(nv2 > 0.0, V2 / nv2, 0.0)
    cu = np.where(nu1 > 0.0, rhat @ U1h, 1.0)
    su = np.where(nu1 > 0.0, np.linalg.norm(U1h - rhat[:, None] * cu, axis=0), 0.0)
    cv = np.where(nv2 > 0.0, xhat @ V2h, 1.0)
    sv = np.where(nv2 > 0.0, np.linalg.norm(V2h - xhat[:, None] * cv, axis=0), 0.0)
    cos_best = np.abs(cu * cv) + su * sv
    return np.sqrt(np.maximum(a * a + b * b + 2.0 * a * b * cos_best, 0.0))


def sampled_condition_wrt_A(cache, n_samples=2000, seed=0):
    """Sampling oracle for the unscaled condition number wrt the matrix.

    The best objective over the constructed family cos(phi*) rhat +/-
    sin(phi*) a'' (tan(phi*) = (||r|| / sigma_min) / ||x||), +/- rhat,
    +/- a'', and n_samples seeded uniform sphere directions. It can only
    fall short of the exact value, never exceed it.
    """
    rhat = cache.r / cache.norm_r
    amin = cache.U[:, -1]
    phistar = math.atan2(cache.norm_r / cache.s[-1], cache.norm_x)
    c, s = math.cos(phistar), math.sin(phistar)
    columns = [c * rhat + s * amin, c * rhat - s * amin, rhat, amin]
    if n_samples > 0:
        Z = np.random.default_rng(seed).standard_normal((n_samples, cache.problem.m)).T
        columns.extend((Z / np.linalg.norm(Z, axis=0)).T)
    return float(_batch_objective(cache, np.column_stack(columns)).max())


def finite_difference_condition(problem, scales, delta=None, samples=200, seed=0):
    """Empirical condition estimate from exact perturbed solves.

    Maximizes (||dr|| / scale_r) / (delta / scale_A) over unit-spectral-norm
    perturbation shapes: alternating dense Gaussian and rank-1 samples
    (sample i drawn from a stream seeded with (seed, i)), plus the
    certificate worst_case_perturbation. The
    default step is sqrt(machine epsilon) * scale_A; the step must stay
    below sigma_min so every perturbed problem keeps full rank.
    """
    cache = lc.solve_least_squares(problem)
    if delta is None:
        delta = math.sqrt(np.finfo(float).eps) * scales.scale_A
    if not 0.0 < delta < cache.s[-1]:
        raise lc.NonFullRank(f"step {delta} not inside (0, sigma_min = {cache.s[-1]})")

    m, n = problem.m, problem.n
    shapes = []
    try:
        shapes.append(lc.worst_case_perturbation(cache))
    except (lc.ZeroResidual, lc.ZeroSolution):
        pass
    for i in range(samples):
        rng = np.random.default_rng((seed, i))
        if i % 2 == 0:
            E = rng.standard_normal((m, n))
        else:
            E = np.outer(rng.standard_normal(m), rng.standard_normal(n))
        shapes.append(E / np.linalg.svd(E, compute_uv=False)[0])

    best = 0.0
    for E in shapes:
        perturbed = lc.solve_least_squares(lc.LsProblem(problem.A + delta * E, problem.b))
        dr = np.linalg.norm(perturbed.r - cache.r)
        best = max(best, (dr / scales.scale_r) / (delta / scales.scale_A))
    return best


def sampled_block_norm(A, B, samples=500, seed=0):
    """Sampling oracle for max ||A u + B v||_2 over max(||u||, ||v||) = 1.

    Every codomain direction w yields the feasible pair (A^t w / ||A^t w||,
    B^t w / ||B^t w||). Candidates are the pairs from the top left singular
    vectors of A and B plus seeded random pairs; the best five are polished
    by alternating maximization, which is monotone in the objective. It can
    only fall short of the exact joint norm, never exceed it.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))

    def pair_from_codomain(w):
        au, bv = A.T @ w, B.T @ w
        nau, nbv = np.linalg.norm(au), np.linalg.norm(bv)
        return (au / nau if nau > 0.0 else np.zeros(A.shape[1])), (
            bv / nbv if nbv > 0.0 else np.zeros(B.shape[1])
        )

    candidates = []
    for M in (A, B):
        if np.linalg.norm(M, 2) > 0.0:
            candidates.append(pair_from_codomain(np.linalg.svd(M, full_matrices=False)[0][:, 0]))
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        u = rng.standard_normal(A.shape[1])
        v = rng.standard_normal(B.shape[1])
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        candidates.append((u / nu if nu > 0 else u, v / nv if nv > 0 else v))

    def objective(u, v):
        return float(np.linalg.norm(A @ u + B @ v))

    scored = sorted(candidates, key=lambda uv: objective(*uv), reverse=True)
    best = objective(*scored[0]) if scored else 0.0
    for u, v in scored[:5]:
        for _ in range(50):
            w = A @ u + B @ v
            nw = np.linalg.norm(w)
            if nw == 0.0:
                break
            u, v = pair_from_codomain(w / nw)
        best = max(best, objective(u, v))
    return best


def golden_section_block_norm(A, B):
    """One pair's golden-section search on the dual of the joint norm, one
    scalar eigvalsh per step: the search that block_norm_cases runs for
    every pair at once. For nonzero blocks only."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    scale = max(np.linalg.norm(A, 2), np.linalg.norm(B, 2))
    GA = (A / scale) @ (A / scale).T
    GB = (B / scale) @ (B / scale).T

    def dual(t):
        return float(np.linalg.eigvalsh(GA / t + GB / (1.0 - t))[-1])

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 1.0
    c, d = 1.0 - invphi, invphi
    fc, fd = dual(c), dual(d)
    while hi - lo > 1e-15:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = dual(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = dual(d)
    return scale * math.sqrt(min(fc, fd))


def dense_svd_perturbation(cache, d):
    """The perturbation attaining the objective g at a direction d, from a
    dense SVD of the m x n rank-2 adjoint matrix: -(Uh Vh^t) over the
    singular pairs it keeps, and the kept singular values. It has unit
    spectral norm and <dr(dA), d> = g(d), so ||dr(dA)|| >= g(d) (weak
    duality); at the maximizer it attains the exact value, as
    worst_case_perturbation does. For a direction with a nonzero
    objective only."""
    Uh, sh, Vht = np.linalg.svd(lc.adjoint_rank2(cache, d).matrix(), full_matrices=False)
    keep = sh > 1e-13 * sh[0]
    return -(Uh[:, keep] @ Vht[keep, :]), sh[keep]


def dense_projector_difference(A, B):
    """||P_A - P_B||_2 from the two m x m projectors and the SVD of their
    difference."""
    Qa = np.linalg.svd(np.asarray(A, dtype=float), full_matrices=False)[0]
    Qb = np.linalg.svd(np.asarray(B, dtype=float), full_matrices=False)[0]
    return float(np.linalg.norm(Qa @ Qa.T - Qb @ Qb.T, 2))
