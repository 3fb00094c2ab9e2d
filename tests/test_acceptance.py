"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 2, 3, 4, 6 and 9, and parts of 7 and 8, run the suites of
lsqcond.verify, the same checks as `lsqcond verify`, with their own seeds
and counts. Run with ``pytest tests/test_acceptance.py -s`` to see the
per-criterion lines; the whole module finishes in well under two minutes.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import lsqcond as lc
from lsqcond.generators import block_norm_cases, gvl_example
from conftest import sampled_block_norm
from lsqcond import verify
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


def test_criterion_01_parametric_grid_reproduction():
    with criterion(1, "parametric grid: geometry to 1e-10, perturbation to 1e-4, < 5 s"):
        start = time.perf_counter()
        for alpha in (0.5, 0.1, 0.01):
            for beta in (1.0, 10.0, 100.0):
                for phi in (0.0, math.pi / 4, math.pi / 2):
                    ex = gvl_example(alpha, beta, phi, epsilon=1e-6)
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
    with criterion(2, "exact value inside [upper/sqrt(2), upper] and certified on 200 problems, < 60 s"):
        start = time.perf_counter()
        ok, detail = verify.sandwich_containment(2024, 200)
        assert ok, detail
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"ensemble took {elapsed:.2f} s"


def test_criterion_03_jacobian_quadratic_remainder():
    with criterion(3, "residual remainder is quadratic: halving ratio in [3.5, 4.5] on 50 pairs"):
        ok, detail = verify.jacobian_remainder(303, 50)
        assert ok, detail


def test_criterion_04_dual_norm_identity_and_pointwise_sandwich():
    with criterion(4, "g equals the rank-2 nuclear norm to 1e-10; L <= g <= U pointwise"):
        ok, detail = verify.dual_norm_identity(404, 20)
        assert ok, detail


def test_criterion_05_attainment_at_e1():
    with criterion(5, "E1: exact value equals sqrt(2) to 1e-9; attaining dA realizes it to 1e-5"):
        cache = lc.solve_least_squares(lc.LsProblem([[1.0], [0.0]], [1.0, 1.0]))
        exact = lc.residual_condition_bounds(cache, lc.ScaleFactors.presets(cache)["relative"]).chi_A
        assert exact == pytest.approx(SQRT2, rel=1e-9)
        dA = lc.worst_case_perturbation(cache)
        assert np.linalg.norm(dA, 2) == pytest.approx(1.0, abs=1e-12)
        eps = 1e-7
        perturbed = lc.solve_least_squares(lc.LsProblem(cache.problem.A + eps * dA, cache.problem.b))
        ratio = np.linalg.norm(perturbed.r - cache.r) / eps
        assert ratio == pytest.approx(SQRT2, rel=1e-5)


def test_criterion_06_chi_b_attained_along_residual():
    with criterion(6, "perturbing b along rhat attains csc(theta) to 1e-10 on 50 problems"):
        ok, detail = verify.chi_b_attainment(606, 50)
        assert ok, detail


def test_criterion_07_prior_bound_dominance_and_worst_cases():
    with criterion(7, "published ratios in their bands, wedin/tight in [1, sqrt(2)]; "
                      "stewart and gvlh worst cases within 5% of kappa"):
        ok, detail = verify.prior_dominance(707, 100)
        assert ok, detail

        cache = lc.solve_least_squares(gvl_example(0.01, 1000.0, 0.0).problem)
        rows = {row.source: row for row in lc.compare_table(cache)}
        # the suite's band for wedin is [1, max_ratio]
        assert rows["wedin"].max_ratio == SQRT2
        geom = lc.geometry(cache)
        kappa = geom.kappa
        tight_abs = math.hypot(cache.norm_r / geom.sigma_min, cache.norm_x)
        stewart_ratio = rows["stewart"].value / tight_abs
        assert abs(stewart_ratio - kappa) / kappa < 0.05
        stated = rows["gvlh"].value
        est = lc.residual_condition_bounds(cache, lc.ScaleFactors.presets(cache)["b-relative"])
        gvlh_ratio = stated / (est.chi_A_upper + est.chi_b)
        assert abs(gvlh_ratio - kappa) / kappa < 0.05


def test_criterion_08_block_norm_band():
    with criterion(8, "joint norm satisfies both block-norm inequalities on 100 pairs, >= sampled"):
        ok, detail = verify.block_norm_band(808, 100)
        assert ok, detail
        # the same pairs again; the suite discards the draw that seeds the oracle
        rng = np.random.default_rng(808)
        for _ in range(100):
            rows = int(rng.integers(1, 7))
            A = rng.standard_normal((rows, int(rng.integers(1, 5))))
            B = rng.standard_normal((rows, int(rng.integers(1, 5))))
            sampled = sampled_block_norm(A, B, samples=200, seed=int(rng.integers(1 << 31)))
            assert block_norm_cases([(A, B)])[0].norm_joint >= sampled * (1.0 - 1e-12)


def test_criterion_09_projection_consistency():
    with criterion(9, "chi_Ax(A) ||Ax|| = chi_r(A) ||r|| and chi_Ax(b) = sec(theta) to 1e-12"):
        ok, detail = verify.projection_consistency(909, 50)
        assert ok, detail


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
                ["analyze", "--matrix", str(case / "A.mtx"), "--rhs", str(case / "b.txt"), "--out", str(out)]
            ) == 0
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1]
        report = json.loads(payloads[0])
        assert report["schema"] == "lsq-cond/3"
