import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lsqcond as lc
from lsqcond.generators import EnsembleSpec, gvl_example, random_problem
from conftest import both_branches, solved_ensemble

SQRT2 = math.sqrt(2.0)


def bounds_for(cache, preset="relative"):
    geom = lc.geometry(cache)
    return lc.residual_condition_bounds(cache, lc.ScaleFactors.presets(cache)[preset]), geom


# --- residual bounds ---------------------------------------------------------


def test_residual_bounds_e1(e1_cache):
    est, _ = bounds_for(e1_cache)
    assert est.chi_A_upper == pytest.approx(SQRT2, rel=1e-14)
    assert est.chi_b == pytest.approx(SQRT2, rel=1e-14)
    assert est.chi_A_upper == pytest.approx(SQRT2 * est.chi_A_lower, rel=1e-14)


def test_residual_bounds_parametric_value(gvl_cache):
    est, _ = bounds_for(gvl_cache)
    assert est.chi_A_upper == pytest.approx(2.0 * SQRT2, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 0.1, 0.01])
@pytest.mark.parametrize("beta", [1.0, 10.0, 100.0])
@pytest.mark.parametrize("phi", [0.0, math.pi / 4, math.pi / 2])
def test_residual_bounds_parametric_closed_form(alpha, beta, phi):
    cache = lc.solve_least_squares(gvl_example(alpha, beta, phi).problem)
    est, _ = bounds_for(cache)
    expected = (1.0 / alpha) * math.sqrt(
        1.0 + (alpha * beta * math.cos(phi)) ** 2 + (beta * math.sin(phi)) ** 2
    )
    assert est.chi_A_upper == pytest.approx(expected, rel=1e-12)


def test_upper_agrees_with_geometry_form():
    # the two displayed forms of the estimate must coincide
    for cache, geom in solved_ensemble(40, 23, max_kappa_exp=4.0):
        est = lc.residual_condition_bounds(cache, lc.ScaleFactors.presets(cache)["relative"])
        alt = geom.kappa * math.sqrt(1.0 + (geom.cot_theta / geom.vds) ** 2)
        assert est.chi_A_upper == pytest.approx(alt, rel=1e-12)
        assert est.chi_b == pytest.approx(1.0 / math.sin(geom.theta), rel=1e-12)


def test_upper_invariant_under_rhs_scaling(gvl_cache):
    est, _ = bounds_for(gvl_cache)
    for c in (0.5, 3.0, 1e4):
        scaled = lc.solve_least_squares(
            lc.LsProblem(gvl_cache.problem.A, c * gvl_cache.problem.b)
        )
        est2, _ = bounds_for(scaled)
        assert est2.chi_A_upper == pytest.approx(est.chi_A_upper, rel=1e-12)


# --- chi wrt b ----------------------------------------------------------------


# chi_b = scale_b / scale_r whatever the problem; these use the E1 problem
_E1 = lc.solve_least_squares(lc.LsProblem([[1.0], [0.0]], [1.0, 1.0]))


def chi_b(scales, cache=_E1):
    return lc.residual_condition_bounds(cache, scales).chi_b


def test_chi_wrt_b_equal_scales():
    assert chi_b(lc.ScaleFactors(scale_b=2.0, scale_r=2.0)) == 1.0


def test_chi_wrt_b_is_cosecant(e1_cache):
    geom = lc.geometry(e1_cache)
    scales = lc.ScaleFactors.presets(e1_cache)["relative"]
    assert chi_b(scales, e1_cache) == pytest.approx(1.0 / math.sin(geom.theta), rel=1e-14)


def test_chi_wrt_b_plain_ratio():
    assert chi_b(lc.ScaleFactors(scale_b=3.0, scale_r=2.0)) == 1.5


@given(st.floats(0.01, 100.0), st.floats(0.01, 100.0))
def test_chi_wrt_b_ratio_property(sb, sr):
    scales = lc.ScaleFactors(scale_b=sb, scale_r=sr)
    assert chi_b(scales) == pytest.approx(sb / sr, rel=1e-14)


def test_chi_b_at_least_one_under_defaults():
    for cache, _ in solved_ensemble(40, 29):
        est = lc.residual_condition_bounds(cache, lc.ScaleFactors.presets(cache)["relative"])
        assert est.chi_b >= 1.0 - 1e-12


# --- projection ----------------------------------------------------------------


def test_projection_bounds_e1(e1_cache):
    est = lc.projection_condition_bounds(e1_cache, lc.ScaleFactors.presets(e1_cache)["relative"])
    assert est.chi_b == pytest.approx(SQRT2, rel=1e-14)
    assert est.chi_A_upper == pytest.approx(SQRT2, rel=1e-14)


def test_projection_bounds_parametric(gvl_cache):
    geom = lc.geometry(gvl_cache)
    est = lc.projection_condition_bounds(gvl_cache, lc.ScaleFactors.presets(gvl_cache)["relative"])
    # kappa sqrt(tan^2 + 1/vds^2) = 2 sqrt(1/4 + 1/4)
    assert est.chi_A_upper == pytest.approx(SQRT2, rel=1e-12)
    alt = geom.kappa * math.sqrt(math.tan(geom.theta) ** 2 + 1.0 / geom.vds**2)
    assert est.chi_A_upper == pytest.approx(alt, rel=1e-12)


def test_projection_residual_consistency():
    # chi_Ax(A) ||Ax|| = chi_r(A) ||r|| when each uses its natural codomain
    # scale, for the upper and the exact values, with m >= n + 2 and m = n + 1
    for cache in both_branches(50, 31, max_kappa_exp=3.0, theta_range=(0.1, 1.3)):
        scales = lc.ScaleFactors.presets(cache)["relative"]
        res = lc.residual_condition_bounds(cache, scales)
        proj = lc.projection_condition_bounds(cache, scales)
        assert proj.chi_A_upper * cache.norm_Ax == pytest.approx(
            res.chi_A_upper * cache.norm_r, rel=1e-12
        )
        assert proj.chi_A * cache.norm_Ax == pytest.approx(res.chi_A * cache.norm_r, rel=1e-12)
        assert proj.chi_b == pytest.approx(1.0 / math.cos(lc.geometry(cache).theta), rel=1e-12)


# --- scaling variants -----------------------------------------------------------


def _by_r_and_by_b(cache):
    """Residual estimates with changes measured against ||r||, then ||b||."""
    presets = lc.ScaleFactors.presets(cache)
    return (
        lc.residual_condition_bounds(cache, presets["relative"]),
        lc.residual_condition_bounds(cache, presets["b-relative"]),
    )


def test_table2_parametric_rows(gvl_cache):
    row_r, row_b = _by_r_and_by_b(gvl_cache)
    assert row_r.chi_A_upper == pytest.approx(2.0 * SQRT2, rel=1e-12)
    assert row_r.chi_b == pytest.approx(math.sqrt(5.0), rel=1e-12)
    assert row_b.chi_A_upper == pytest.approx(2.0 * SQRT2 / math.sqrt(5.0), rel=1e-12)
    assert row_b.chi_b == pytest.approx(1.0, rel=1e-14)


def test_table2_near_orthogonal_limit():
    # b almost orthogonal to col(A) with orthonormal columns: both rows -> (1, 1)
    spec = EnsembleSpec(6, 2, (1.0, 1.0), math.pi / 2 - 1e-6, 0.5, 41)
    cache = lc.solve_least_squares(random_problem(spec))
    for row in _by_r_and_by_b(cache):
        assert row.chi_A_upper == pytest.approx(1.0, abs=1e-5)
        assert row.chi_b == pytest.approx(1.0, abs=1e-5)


def test_table2_rows_differ_by_sin_theta():
    for cache, geom in solved_ensemble(50, 37, max_kappa_exp=3.0, theta_range=(0.1, 1.4)):
        row_r, row_b = _by_r_and_by_b(cache)
        assert row_b.chi_A_upper == pytest.approx(row_r.chi_A_upper * math.sin(geom.theta), rel=1e-12)


def test_sum_property_under_b_relative():
    for cache, geom in solved_ensemble(40, 43):
        est = lc.residual_condition_bounds(cache, lc.ScaleFactors.presets(cache)["b-relative"])
        assert est.chi_A_upper + est.chi_b <= geom.kappa + 1.0 + 1e-9


# --- first-order error bound -------------------------------------------------


def test_error_bound_dominates_measured_change(e1_cache):
    # exact perturbed solve stays below the first-order bound plus slack
    est, _ = bounds_for(e1_cache)
    scales = lc.ScaleFactors.presets(e1_cache)["relative"]
    rng = np.random.default_rng(3)
    for _ in range(10):
        E = rng.standard_normal((2, 1))
        E /= np.linalg.norm(E, 2)
        perturbed = lc.solve_least_squares(
            lc.LsProblem(e1_cache.problem.A + 1e-6 * E, e1_cache.problem.b)
        )
        measured = np.linalg.norm(perturbed.r - e1_cache.r) / scales.scale_r
        assert measured <= est.chi_A * (1e-6 / scales.scale_A) + 1e-10


def test_scale_presets_in_report_order(gvl_cache):
    presets = lc.ScaleFactors.presets(gvl_cache)
    assert list(presets) == ["relative", "b-relative", "absolute"]
    c = gvl_cache
    fields = {name: dataclasses.astuple(scales) for name, scales in presets.items()}
    assert fields["relative"] == (c.s[0], c.norm_b, c.norm_r, c.norm_Ax)
    assert fields["b-relative"] == (c.s[0], c.norm_b, c.norm_b, c.norm_Ax)
    assert fields["absolute"] == (1.0, 1.0, 1.0, 1.0)
    assert all(type(value) is float for values in fields.values() for value in values)


def test_estimates_lower_end_is_the_upper_over_sqrt2():
    # a field now, with the bits of the former property
    for cache in both_branches(20, 47):
        for scales in lc.ScaleFactors.presets(cache).values():
            est = lc.residual_condition_bounds(cache, scales)
            assert est.chi_A_lower == est.chi_A_upper / SQRT2


def _near_lower_end(count, seed):
    """m = n + 1 problems whose exact value nears the sandwich's lower end:
    x orthogonal to v_min and ||x|| = ||r|| / sigma_min, kappa up to 1e11."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        Q = np.linalg.qr(rng.standard_normal((n + 1, n + 1)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        US = Q[:, :n] * np.geomspace(1.0, 10.0 ** -rng.uniform(0.0, 11.0), n)
        y = np.append(rng.standard_normal(n - 1), 0.0)
        rho = 10.0 ** rng.uniform(-3.0, 3.0)
        x = V @ (y * (rho / np.linalg.norm(y) / np.linalg.norm(US[:, -1])))
        yield lc.LsProblem(US @ V.T, US @ (V.T @ x) + rho * Q[:, n])


def _records(cache):
    """Every record of both targets under each preset and unit scales."""
    for scales in [*lc.ScaleFactors.presets(cache).values(), lc.ScaleFactors()]:
        for bounds in (lc.residual_condition_bounds, lc.projection_condition_bounds):
            yield bounds(cache, scales)


def test_every_computed_record_is_built_inside_its_sandwich():
    # the record derives its lower end and refuses a chi_A outside the
    # sandwich; no computed problem is refused, down to the lower end
    near = [lc.solve_least_squares(p) for p in _near_lower_end(150, 211)]
    lowest = 1.0
    for cache in [*both_branches(100, 212, max_kappa_exp=11.0), *near]:
        for est in _records(cache):
            assert est.chi_A_lower == est.chi_A_upper / SQRT2
            lowest = min(lowest, est.chi_A / est.chi_A_upper)
    assert lowest < (1.0 + 1e-6) / SQRT2  # the family reaches the lower end


def test_a_record_outside_its_sandwich_raises(gvl_cache):
    # the lower end holds exactly, the upper one with 1e-8 relative slack
    for est in _records(gvl_cache):
        upper = est.chi_A_upper * (1.0 + 1e-8)
        for inside in (est.chi_A_lower, upper):
            assert dataclasses.replace(est, chi_A=inside).chi_A_lower == est.chi_A_lower
        for outside in (np.nextafter(est.chi_A_lower, 0.0), np.nextafter(upper, np.inf)):
            with pytest.raises(lc.InvalidGeometry, match=r"^exact value .* outside \[.*\]$"):
                dataclasses.replace(est, chi_A=float(outside))


def test_scale_factors_must_be_positive():
    with pytest.raises(ValueError):
        lc.ScaleFactors(scale_A=0.0)
