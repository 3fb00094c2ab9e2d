"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the whole module finishes in well under two minutes.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import lsqcond as lc
from conftest import sampled_block_norm
from lsqcond.cli import main as cli_main

SQRT2 = math.sqrt(2.0)


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {description}")
        raise
    print(f"[PASS] criterion {num}: {description}")


def solved(spec):
    cache = lc.solve_least_squares(lc.random_problem(spec))
    return cache, lc.geometry(cache)


def test_criterion_01_parametric_grid_reproduction():
    with criterion(1, "parametric grid: geometry to 1e-10, perturbation to 1e-4, < 5 s"):
        start = time.perf_counter()
        for alpha in (0.5, 0.1, 0.01):
            for beta in (1.0, 10.0, 100.0):
                for phi in (0.0, math.pi / 4, math.pi / 2):
                    ex = lc.gvl_example(alpha, beta, phi, epsilon=1e-6)
                    cache = lc.solve_least_squares(ex.problem)
                    geom = lc.geometry(cache)
                    assert geom.kappa == pytest.approx(ex.expected.kappa, rel=1e-10)
                    assert geom.vds == pytest.approx(ex.expected.vds, rel=1e-10)
                    assert geom.cot_theta == pytest.approx(ex.expected.cot_theta, rel=1e-10)
                    perturbed = lc.solve_least_squares(
                        lc.LsProblem(ex.problem.A + ex.delta_A, ex.problem.b)
                    )
                    measured = np.linalg.norm(perturbed.r - cache.r) / cache.norm_r
                    assert measured == pytest.approx(ex.expected.dr_rel_first_order, rel=1e-4)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"grid took {elapsed:.2f} s"


def test_criterion_02_theorem_sandwich_containment():
    with criterion(2, "exact value inside [upper/sqrt(2), upper] on 200 problems, < 60 s"):
        start = time.perf_counter()
        for spec in lc.ensemble_specs(200, seed=2024, max_m=30, max_n=10, max_kappa_exp=6.0):
            cache, _ = solved(spec)
            scales = lc.ScaleFactors.relative(cache)
            est = lc.residual_condition_bounds(cache, scales)
            exact = scales.scale_A / scales.scale_r * lc.worst_case_direction(cache).g_value
            assert exact >= est.chi_A_upper / SQRT2 * (1.0 - 1e-12)
            assert exact <= est.chi_A_upper * (1.0 + 1e-8)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"ensemble took {elapsed:.2f} s"


def test_criterion_03_jacobian_quadratic_remainder():
    with criterion(3, "residual remainder is quadratic: halving ratio in [3.5, 4.5] on 50 pairs"):
        rng = np.random.default_rng(303)
        for spec in lc.ensemble_specs(50, seed=303, max_kappa_exp=3.0, theta_range=(0.1, 1.4)):
            cache, _ = solved(spec)
            problem = cache.problem
            E = rng.standard_normal(problem.A.shape)
            E /= np.linalg.svd(E, compute_uv=False)[0]
            delta0 = 1e-3 * cache.svd.sigma_min
            remainders = []
            for delta in (delta0, delta0 / 2.0):
                perturbed = lc.solve_least_squares(lc.LsProblem(problem.A + delta * E, problem.b))
                dr, _ = lc.apply_residual_jacobian(cache, delta * E)
                remainders.append(float(np.linalg.norm(perturbed.r - cache.r - dr)))
            assert np.isfinite(remainders[0] / delta0**2)
            ratio = remainders[0] / remainders[1]
            assert 3.5 <= ratio <= 4.5, f"ratio {ratio}"


def test_criterion_04_dual_norm_identity_and_pointwise_sandwich():
    with criterion(4, "g equals the rank-2 nuclear norm to 1e-10; L <= g <= U pointwise"):
        rng = np.random.default_rng(404)
        for spec in lc.ensemble_specs(20, seed=404):
            cache, _ = solved(spec)
            for _ in range(25):
                d = rng.standard_normal(cache.problem.m)
                d /= np.linalg.norm(d)
                g = lc.g_objective(cache, d)
                nn = lc.nuclear_norm(lc.adjoint_rank2(cache, d).matrix())
                assert g == pytest.approx(nn, rel=1e-10)
                dc = lc.canonicalize_direction(cache, d)
                gc = lc.g_objective(cache, dc)
                L, U = lc.sandwich_bounds(cache, dc)
                assert gc >= L * (1.0 - 1e-12) - 1e-10
                assert gc <= U * (1.0 + 1e-12) + 1e-10


def test_criterion_05_attainment_at_e1():
    with criterion(5, "E1: exact value equals sqrt(2) to 1e-9; attaining dA realizes it to 1e-5"):
        cache = lc.solve_least_squares(lc.LsProblem([[1.0], [0.0]], [1.0, 1.0]))
        scales = lc.ScaleFactors.relative(cache)
        exact = scales.scale_A / scales.scale_r * lc.worst_case_direction(cache).g_value
        assert exact == pytest.approx(SQRT2, rel=1e-9)
        dA = lc.attaining_perturbation(cache, lc.worst_case_direction(cache).delta_r)
        assert np.linalg.norm(dA, 2) == pytest.approx(1.0, abs=1e-12)
        eps = 1e-7
        perturbed = lc.solve_least_squares(lc.LsProblem(cache.problem.A + eps * dA, cache.problem.b))
        ratio = np.linalg.norm(perturbed.r - cache.r) / eps
        assert ratio == pytest.approx(SQRT2, rel=1e-5)


def test_criterion_06_chi_b_attained_along_residual():
    with criterion(6, "perturbing b along rhat attains csc(theta) to 1e-10 on 50 problems"):
        for spec in lc.ensemble_specs(50, seed=606, max_kappa_exp=3.0, theta_range=(0.1, 1.4)):
            cache, geom = solved(spec)
            delta = 1e-2 * cache.norm_b
            db = delta * cache.r / cache.norm_r
            perturbed = lc.solve_least_squares(lc.LsProblem(cache.problem.A, cache.problem.b + db))
            ratio = (np.linalg.norm(perturbed.r - cache.r) / cache.norm_r) / (delta / cache.norm_b)
            assert ratio == pytest.approx(1.0 / math.sin(geom.theta), rel=1e-10)


def test_criterion_07_prior_bound_dominance_and_worst_cases():
    with criterion(7, "wedin/tight in [1, sqrt(2)]; stewart and gvlh worst cases within 5% of kappa"):
        for spec in lc.ensemble_specs(100, seed=707):
            cache, _ = solved(spec)
            rows = {row.source: row for row in lc.compare_table(cache)}
            assert 1.0 - 1e-12 <= rows["wedin"].ratio_to_tight <= SQRT2 + 1e-9

        cache = lc.solve_least_squares(lc.gvl_example(0.01, 1000.0, 0.0).problem)
        geom = lc.geometry(cache)
        kappa = geom.kappa
        tight_abs = math.hypot(cache.norm_r / geom.sigma_min, cache.norm_x)
        stewart_ratio = lc.stewart_estimate(cache) / tight_abs
        assert abs(stewart_ratio - kappa) / kappa < 0.05
        stated, _ = lc.gvlh_estimate(geom)
        est = lc.residual_condition_bounds(cache, lc.ScaleFactors.b_relative(cache))
        gvlh_ratio = stated / (est.chi_A_upper + est.chi_b)
        assert abs(gvlh_ratio - kappa) / kappa < 0.05


def test_criterion_08_block_norm_band():
    with criterion(8, "joint norm satisfies both block-norm inequalities on 100 pairs, >= sampled"):
        rng = np.random.default_rng(808)
        for _ in range(100):
            rows = int(rng.integers(1, 7))
            A = rng.standard_normal((rows, int(rng.integers(1, 5))))
            B = rng.standard_normal((rows, int(rng.integers(1, 5))))
            sampled = sampled_block_norm(A, B, samples=200, seed=int(rng.integers(1 << 31)))
            case = lc.block_norm_case(A, B)
            low = max(case.norm_A, case.norm_B)
            high = case.norm_A + case.norm_B
            assert low - 1e-6 <= case.norm_joint <= high + 1e-6
            assert high <= 2.0 * case.norm_joint + 1e-6
            assert case.norm_joint >= sampled * (1.0 - 1e-12)


def test_criterion_09_projection_consistency():
    with criterion(9, "chi_Ax(A) ||Ax|| = chi_r(A) ||r|| and chi_Ax(b) = sec(theta) to 1e-12"):
        for spec in lc.ensemble_specs(50, seed=909, max_kappa_exp=3.0, theta_range=(0.1, 1.3)):
            cache, geom = solved(spec)
            for scale_A in (1.0, cache.svd.sigma_max):
                scales = lc.ScaleFactors(
                    scale_A=scale_A,
                    scale_b=cache.norm_b,
                    scale_r=cache.norm_r,
                    scale_p=cache.norm_Ax,
                )
                res = lc.residual_condition_bounds(cache, scales)
                proj = lc.projection_condition_bounds(cache, scales)
                assert proj.chi_A_upper * cache.norm_Ax == pytest.approx(
                    res.chi_A_upper * cache.norm_r, rel=1e-12
                )
            assert proj.chi_b == pytest.approx(1.0 / math.cos(geom.theta), rel=1e-12)


def test_criterion_10_byte_identical_reports(tmp_path):
    with criterion(10, "repeated analyze runs produce byte-identical reports"):
        case = tmp_path / "case"
        assert cli_main(
            ["generate", "gvl", "--alpha", "0.5", "--beta", "2", "--phi", "0",
             "--eps", "1e-6", "--out-dir", str(case)]
        ) == 0
        payloads = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert cli_main(
                ["analyze", "--matrix", str(case / "A.mtx"), "--rhs", str(case / "b.txt"),
                 "--scales", "relative", "--out", str(out)]
            ) == 0
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1]
        report = json.loads(payloads[0])
        assert report["schema"] == "lsq-cond/2"
