import math

import numpy as np
import pytest

import lsqcond as lc
from lsqcond.generators import gvl_example
from conftest import solved_ensemble

SQRT2 = math.sqrt(2.0)


def tight_absolute(cache):
    return math.hypot(cache.norm_r / cache.s[-1], cache.norm_x)


def published(cache, source):
    """The value compare_table publishes for one source."""
    return {row.source: row.value for row in lc.compare_table(cache)}[source]


def test_wedin_e1(e1_cache):
    value = published(e1_cache, "wedin")
    assert value == pytest.approx(2.0, rel=1e-14)
    assert value / tight_absolute(e1_cache) == pytest.approx(SQRT2, rel=1e-14)


def test_wedin_ratio_is_sqrt2_when_terms_match(e1_cache):
    # ||r||/sigma_min == ||x|| makes a + b exactly sqrt(2) sqrt(a^2 + b^2)
    assert e1_cache.norm_r / e1_cache.s[-1] == pytest.approx(e1_cache.norm_x)
    assert published(e1_cache, "wedin") == pytest.approx(SQRT2 * tight_absolute(e1_cache))


def test_wedin_parametric(gvl_cache):
    assert published(gvl_cache, "wedin") == pytest.approx(4.0, rel=1e-13)
    assert tight_absolute(gvl_cache) == pytest.approx(2.0 * SQRT2, rel=1e-13)


def test_stewart_e1(e1_cache):
    value = published(e1_cache, "stewart")
    assert value == pytest.approx(SQRT2, rel=1e-14)
    assert value / tight_absolute(e1_cache) == pytest.approx(1.0, rel=1e-14)


def test_stewart_identity():
    # ||b||/sigma_min inflates the solution term by the alignment ratio
    for cache, geom in solved_ensemble(40, 107, max_kappa_exp=3.0):
        via_vds = math.hypot(cache.norm_r / geom.sigma_min, geom.vds * cache.norm_x)
        assert published(cache, "stewart") == pytest.approx(via_vds, rel=1e-10)


def test_stewart_worst_case_ratio():
    alpha, beta = 0.01, 1000.0
    cache = lc.solve_least_squares(gvl_example(alpha, beta, 0.0).problem)
    ratio = published(cache, "stewart") / tight_absolute(cache)
    displayed = math.sqrt(1.0 + beta**2) / math.sqrt(1.0 + (alpha * beta) ** 2)
    assert ratio == pytest.approx(displayed, rel=1e-10)
    kappa = lc.geometry(cache).kappa
    assert abs(ratio - kappa) / kappa < 0.05


def test_gvlh_orthonormal(e1_cache):
    geom = lc.geometry(e1_cache)
    stated, sum_bound = published(e1_cache, "gvlh"), geom.kappa + 1.0
    assert stated == pytest.approx(3.0)
    assert sum_bound == pytest.approx(2.0)


def test_gvlh_parametric(gvl_cache):
    geom = lc.geometry(gvl_cache)
    stated, sum_bound = published(gvl_cache, "gvlh"), geom.kappa + 1.0
    assert stated == pytest.approx(5.0)
    est = lc.residual_condition_bounds(gvl_cache, lc.ScaleFactors.presets(gvl_cache)["b-relative"])
    actual_sum = est.chi_A_upper + est.chi_b
    assert actual_sum == pytest.approx(2.0 * SQRT2 / math.sqrt(5.0) + 1.0, rel=1e-12)
    assert actual_sum <= sum_bound <= stated


def test_gvlh_worst_case_ratio():
    cache = lc.solve_least_squares(gvl_example(0.01, 1000.0, 0.0).problem)
    geom = lc.geometry(cache)
    stated = published(cache, "gvlh")
    est = lc.residual_condition_bounds(cache, lc.ScaleFactors.presets(cache)["b-relative"])
    ratio = stated / (est.chi_A_upper + est.chi_b)
    assert abs(ratio - geom.kappa) / geom.kappa < 0.05


def test_gvlh_chain_on_ensemble():
    for cache, geom in solved_ensemble(40, 109):
        est = lc.residual_condition_bounds(cache, lc.ScaleFactors.presets(cache)["b-relative"])
        assert est.chi_A_upper + est.chi_b <= geom.kappa + 1.0 + 1e-9
        assert geom.kappa + 1.0 <= 2.0 * geom.kappa + 1.0


def test_compare_table_e1(e1_cache):
    rows = {row.source: row for row in lc.compare_table(e1_cache)}
    assert set(rows) == {"wedin", "stewart", "gvlh"}
    assert rows["wedin"].ratio_to_tight == pytest.approx(SQRT2, rel=1e-13)
    assert rows["stewart"].ratio_to_tight == pytest.approx(1.0, rel=1e-13)
    assert rows["wedin"].max_ratio == SQRT2
    assert rows["stewart"].max_ratio == pytest.approx(SQRT2)
    # kappa = 1 is where the gvlh row meets its bound kappa + 1/2
    assert rows["gvlh"].ratio_to_tight == pytest.approx(1.5, rel=1e-15)
    assert rows["gvlh"].max_ratio == pytest.approx(1.5, rel=1e-15)


def test_compare_table_ratios_on_ensemble():
    # every row lies in [1, max_ratio]; the ensemble holds an n = 1 problem,
    # where kappa = 1 and the gvlh row meets its bound
    single_columns = 0
    for cache, _ in solved_ensemble(100, 113):
        rows = {row.source: row for row in lc.compare_table(cache)}
        for row in rows.values():
            assert 1.0 - 1e-12 <= row.ratio_to_tight <= row.max_ratio + 1e-9
        if cache.problem.A.shape[1] == 1:
            single_columns += 1
            assert rows["gvlh"].ratio_to_tight == pytest.approx(rows["gvlh"].max_ratio, rel=1e-12)
    assert single_columns > 0


def test_stewart_dominates_wedin_over_sqrt2():
    for cache, _ in solved_ensemble(40, 127):
        assert published(cache, "stewart") >= published(cache, "wedin") / SQRT2 * (1.0 - 1e-12)


def test_prior_estimates_propagate_zero_residual():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    cache = lc.solve_least_squares(lc.LsProblem(A, np.array([1.0, 2.0, 0.0])))
    with pytest.raises(lc.ZeroResidual):
        lc.compare_table(cache)
