import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsqcond as lc
from lsqcond.generators import (
    EnsembleSpec,
    _geometric,
    block_norm_cases,
    ensemble_specs,
    gvl_example,
    lanczos_demo,
    random_problem,
    random_problems,
)
from lsqcond import generators, verify
from conftest import golden_section_block_norm, one_spec_problem, sampled_block_norm

SQRT2 = math.sqrt(2.0)


# --- parametric example -------------------------------------------------------


def test_gvl_expected_record():
    ex = gvl_example(0.5, 2.0, 0.0)
    np.testing.assert_allclose(ex.expected.x, [2.0, 0.0])
    np.testing.assert_allclose(ex.expected.r, [0.0, 0.0, 1.0])
    assert ex.expected.kappa == 2.0
    assert ex.expected.vds == pytest.approx(2.0)
    assert ex.expected.cot_theta == 2.0
    assert ex.expected.chi_A_upper == pytest.approx(2.0 * SQRT2)


def test_gvl_phi_right_angle_gives_unit_alignment():
    assert gvl_example(0.5, 2.0, math.pi / 2).expected.vds == pytest.approx(1.0)


def test_gvl_measured_perturbation_matches_first_order():
    ex = gvl_example(0.5, 2.0, 0.0, epsilon=1e-6)
    cache = lc.solve_least_squares(ex.problem)
    perturbed = lc.solve_least_squares(lc.LsProblem(ex.problem.A + ex.delta_A, ex.problem.b))
    measured = np.linalg.norm(perturbed.r - cache.r) / cache.norm_r
    assert measured == pytest.approx(ex.expected.dr_rel_first_order, abs=1e-11)
    assert ex.expected.dr_rel_first_order == pytest.approx(3.0e-6, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 0.1, 0.01])
@pytest.mark.parametrize("beta", [1.0, 10.0, 100.0])
@pytest.mark.parametrize("phi", [0.0, math.pi / 4, math.pi / 2])
def test_gvl_expected_matches_computed(alpha, beta, phi):
    ex = gvl_example(alpha, beta, phi)
    cache = lc.solve_least_squares(ex.problem)
    geom = lc.geometry(cache)
    np.testing.assert_allclose(cache.x, ex.expected.x, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(cache.r, ex.expected.r, rtol=0.0, atol=1e-12)
    assert geom.kappa == pytest.approx(ex.expected.kappa, rel=1e-12)
    assert geom.vds == pytest.approx(ex.expected.vds, rel=1e-12)
    assert geom.cot_theta == pytest.approx(ex.expected.cot_theta, rel=1e-12)
    est = lc.residual_condition_bounds(cache, lc.ScaleFactors.presets(cache)["relative"])
    assert est.chi_A_upper == pytest.approx(ex.expected.chi_A_upper, rel=1e-12)


def test_gvl_record_holds_x_whose_quotient_would_overflow():
    # beta / alpha = 1e310 overflows, but x[1] = beta sin(phi) / alpha = 1e10
    ex = gvl_example(1e-300, 1e10, 1e-300)
    assert ex.expected.x[1] == 1e10
    assert ex.expected.x[0] == 1e10


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha": 1.5, "beta": 1.0, "phi": 0.0},
        {"alpha": 0.5, "beta": -1.0, "phi": 0.0},
        {"alpha": 0.5, "beta": 1.0, "phi": 2.0},
        {"alpha": 0.5, "beta": 1.0, "phi": 0.0, "epsilon": 0.1},
        {"alpha": 0.5, "beta": 1.0, "phi": 0.0, "epsilon": -1e-6},
        {"alpha": 0.5, "beta": 1.0, "phi": 0.0, "epsilon": math.nan},
        {"alpha": 0.5, "beta": 1.0, "phi": 0.0, "epsilon": math.inf},
        {"alpha": 0.5, "beta": math.inf, "phi": 0.0},
        {"alpha": 1e-300, "beta": 1e300, "phi": 0.5},  # chi_A_upper overflows
        {"alpha": 1e-320, "beta": 1.0, "phi": 0.0},  # kappa = 1/alpha = inf
    ],
)
def test_gvl_rejects_bad_parameters(kwargs):
    with pytest.raises(lc.ParamOutOfRange):
        gvl_example(**kwargs)


# --- random problems ------------------------------------------------------------


def test_random_problem_orthonormal_columns():
    spec = EnsembleSpec(6, 3, (1.0, 1.0, 1.0), 0.8, 0.3, 2)
    geom = lc.geometry(lc.solve_least_squares(random_problem(spec)))
    assert geom.kappa == pytest.approx(1.0, rel=1e-12)
    assert geom.vds == pytest.approx(1.0, rel=1e-12)


def test_random_problem_prescribed_kappa_and_theta():
    spec = EnsembleSpec(8, 2, (1.0, 1e-3), math.pi / 4, 1.0, 5)
    cache = lc.solve_least_squares(random_problem(spec))
    geom = lc.geometry(cache)
    assert geom.kappa == pytest.approx(1000.0, rel=1e-10)
    assert geom.theta == pytest.approx(math.pi / 4, abs=1e-10)
    assert geom.vds == pytest.approx(1.0, rel=1e-9)  # mix = 1 aligns with sigma_min


def test_random_problem_mix_zero_aligns_with_kappa():
    spec = EnsembleSpec(8, 2, (1.0, 1e-3), math.pi / 4, 0.0, 5)
    geom = lc.geometry(lc.solve_least_squares(random_problem(spec)))
    assert geom.vds == pytest.approx(geom.kappa, rel=1e-9)


def test_random_problem_deterministic():
    spec = EnsembleSpec(9, 3, (1.0, 0.1, 0.01), 0.6, 0.5, 77)
    p1, p2 = random_problem(spec), random_problem(spec)
    np.testing.assert_array_equal(p1.A, p2.A)
    np.testing.assert_array_equal(p1.b, p2.b)


def test_random_problem_round_trip_ensemble():
    for spec in ensemble_specs(100, 211):
        cache = lc.solve_least_squares(random_problem(spec))
        prescribed = np.sort(np.asarray(spec.singular_values))[::-1]
        # small singular values are recoverable only to eps * sigma_max
        np.testing.assert_allclose(
            cache.s, prescribed, rtol=1e-12, atol=1e-12 * prescribed[0]
        )
        geom = lc.geometry(cache)
        assert geom.theta == pytest.approx(spec.theta, abs=1e-10)


def _assert_one_spec_problems(specs, problems, tol=1e-8):
    problems = list(problems)
    assert len(problems) == len(specs)
    for spec, problem in zip(specs, problems):
        expected = one_spec_problem(spec, tol)
        assert np.array_equal(problem.A, expected.A) and np.array_equal(problem.b, expected.b), spec


@pytest.mark.parametrize("seed", [1, 57])
def test_random_problems_match_one_spec_on_every_suite_stream(monkeypatch, seed):
    streams = []

    def recording(specs):
        streams.append((specs, list(random_problems(specs))))
        return streams[-1][1]

    monkeypatch.setattr(verify, "random_problems", recording)
    for offset, (suite, count) in enumerate(verify.SUITES):
        assert suite(seed + offset, count)[0]
    assert len(streams) == 9  # every suite but block_norm_band
    for specs, problems in streams:
        _assert_one_spec_problems(specs, problems)


def _spec(m, n, seed):
    return EnsembleSpec(m, n, _geometric(1e-3, n) if n > 1 else (1.0,), 0.7, 0.3, seed)


@pytest.mark.parametrize(
    "specs",
    [
        [_spec(12, 4, 1), _spec(7, 3, 2), _spec(12, 4, 3), _spec(7, 4, 4), _spec(12, 4, 5), _spec(7, 3, 6)],
        [_spec(2, 1, 7), _spec(5, 1, 8), _spec(5, 4, 9), _spec(11, 10, 10), _spec(2, 1, 11), _spec(30, 1, 12)],
        [_spec(9, 3, 13)],
    ],
    ids=["repeated-shapes", "n-1-and-m-n-plus-1", "one-spec"],
)
def test_random_problems_match_one_spec(specs):
    _assert_one_spec_problems(specs, random_problems(specs))
    _assert_one_spec_problems(specs, [random_problem(spec) for spec in specs])


def test_random_problems_factor_each_block_shape_once(monkeypatch):
    specs = ensemble_specs(200, 19)
    shapes = []
    qr = np.linalg.qr

    def counting(a, *args, **kwargs):
        shapes.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    list(random_problems(specs))
    assert len(shapes) == len({(s.m, s.n) for s in specs}) + len({s.n for s in specs}) < len(specs)


class _CountedRngs:
    """Stands in for np.random.default_rng: records the seed of each
    Generator it makes and the most that were alive at once."""

    def __init__(self):
        self.seeds, self.live, self.peak = [], 0, 0
        counter = self

        class Counted(np.random.Generator):
            def __del__(self):
                counter.live -= 1

        self._counted = Counted

    def __call__(self, seed):
        self.seeds.append(seed)
        self.live += 1
        self.peak = max(self.peak, self.live)
        return self._counted(np.random.PCG64(seed))


@pytest.fixture
def counted_rngs(monkeypatch):
    rngs = _CountedRngs()
    monkeypatch.setattr(np.random, "default_rng", rngs)
    return rngs


def test_random_problems_keep_at_most_one_generator_alive(counted_rngs):
    specs = ensemble_specs(200, 19)
    counted_rngs.seeds.clear()
    counted_rngs.peak = counted_rngs.live
    for _ in random_problems(specs):
        assert counted_rngs.live == 0
    assert counted_rngs.peak == 1
    assert counted_rngs.seeds == [spec.seed for spec in specs]


def test_random_problems_redraw_a_complement_draw_near_col_a(monkeypatch, counted_rngs):
    # at tolerance 0.5 about a third of the first draws at m = n + 1 are
    # rejected, and none at m = 30, n = 1, where ||w|| / ||z|| is near 1
    tol = 0.5
    monkeypatch.setattr(generators, "_REJECT_TOL", tol)
    specs = [_spec(m, n, seed) for seed, (m, n) in enumerate([(2, 1), (5, 4), (11, 10), (30, 1)] * 4, start=40)]
    problems = list(random_problems(specs))
    redrawn = {seed for seed in counted_rngs.seeds if counted_rngs.seeds.count(seed) == 2}
    assert redrawn and {s.seed for s in specs if s.m == 30}.isdisjoint(redrawn)
    assert len(counted_rngs.seeds) == len(specs) + len(redrawn)
    _assert_one_spec_problems(specs, problems, tol)


def test_ensemble_spec_validation():
    with pytest.raises(lc.ParamOutOfRange):
        EnsembleSpec(3, 3, (1.0, 1.0, 1.0), 0.5, 0.5, 1)  # m == n
    with pytest.raises(lc.ParamOutOfRange):
        EnsembleSpec(5, 2, (1.0, -1.0), 0.5, 0.5, 1)
    with pytest.raises(lc.ParamOutOfRange):
        EnsembleSpec(5, 2, (1.0, 0.5), 0.0, 0.5, 1)
    with pytest.raises(lc.ParamOutOfRange):
        EnsembleSpec(5, 2, (1.0, 0.5), 0.5, 1.5, 1)
    with pytest.raises(lc.ParamOutOfRange, match=r"^seed must be non-negative, got -1$"):
        EnsembleSpec(5, 2, (1.0, 0.5), 0.5, 0.5, -1)
    for sv in ((1.0,), (1.0, 0.5, 0.25), (1.0, math.nan), (1.0, math.inf), (1.0, 0.0), (1.0, "x"), 1.0):
        with pytest.raises(lc.ParamOutOfRange):
            EnsembleSpec(5, 2, sv, 0.5, 0.5, 1)
    spec = EnsembleSpec(5, 2, [np.float64(1.0), "0.5"], 0.5, 0.5, 1)
    assert spec.singular_values == (1.0, 0.5) and all(type(s) is float for s in spec.singular_values)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 12), exponent=st.floats(0.0, 12.0, exclude_min=True))
def test_geometric_spectrum_is_bitwise_geomspace(n, exponent):
    stop = 10.0**-exponent
    assert _geometric(stop, n) == tuple(np.geomspace(1.0, stop, n).tolist())


def test_ensemble_spectra_are_bitwise_geomspace():
    for seed in range(3):
        for spec in ensemble_specs(200, seed, max_kappa_exp=12.0):
            sv = spec.singular_values
            if spec.n > 1:
                assert sv == tuple(np.geomspace(1.0, sv[-1], spec.n).tolist())


# --- Lanczos demo -----------------------------------------------------------------


def _dense_angle_oracle(basis_cols, b):
    # independent path: explicit orthonormalization and projector
    Q, _ = np.linalg.qr(np.column_stack(basis_cols))
    proj = Q @ (Q.T @ b)
    return math.atan2(np.linalg.norm(b - proj), np.linalg.norm(proj))


def test_lanczos_angles_match_dense_oracle():
    T = np.diag([1.0, 2.0, 3.0])
    v1 = np.ones(3) / math.sqrt(3.0)
    records = lanczos_demo(T, 2)
    assert len(records) == 2 and not records[0].breakdown

    # replay the recurrence independently to rebuild the per-step bases
    v_prev, v, beta_prev = np.zeros(3), v1.copy(), 0.0
    for rec in records:
        u = T @ v
        alpha = v @ u
        w = u - alpha * v - beta_prev * v_prev
        local = [v] if rec.step == 1 else [v_prev, v]
        theta_oracle = _dense_angle_oracle(local, u)
        assert rec.theta == pytest.approx(theta_oracle, abs=1e-10)
        assert rec.predicted_chi == pytest.approx(1.0 / math.sin(theta_oracle), rel=1e-10)
        beta_prev = np.linalg.norm(w)
        v_prev, v = v, w / beta_prev


def test_lanczos_eigenvector_breaks_down_immediately():
    # equal row sums make the ones vector, the start vector, an eigenvector
    T = np.array([[2.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 2.0]])
    records = lanczos_demo(T, 4)
    assert len(records) == 1
    assert records[0].breakdown
    assert math.isnan(records[0].theta)


def test_lanczos_orthonormal_basis_collapses_to_cosecant():
    # with re-orthonormalized local bases kappa = vds = 1, so the tight
    # estimate reduces to csc(theta)
    rng = np.random.default_rng(31)
    T = rng.standard_normal((8, 8))
    T = (T + T.T) / 2.0
    v1 = np.ones(8) / math.sqrt(8.0)
    records = lanczos_demo(T, 4)

    v_prev, v, beta_prev = np.zeros(8), v1.copy(), 0.0
    for rec in records:
        if rec.breakdown:
            break
        u = T @ v
        alpha = v @ u
        w = u - alpha * v - beta_prev * v_prev
        cols = v[:, None] if rec.step == 1 else np.column_stack([v_prev, v])
        Q, _ = np.linalg.qr(cols)
        cache = lc.solve_least_squares(lc.LsProblem(Q, u))
        geom = lc.geometry(cache)
        assert geom.kappa == pytest.approx(1.0, rel=1e-12)
        assert geom.vds == pytest.approx(1.0, rel=1e-10)
        est = lc.residual_condition_bounds(cache, lc.ScaleFactors.presets(cache)["relative"])
        assert est.chi_A_upper == pytest.approx(1.0 / math.sin(geom.theta), rel=1e-10)
        beta_prev = np.linalg.norm(w)
        v_prev, v = v, w / beta_prev


def test_lanczos_orthogonality_defect_small_for_separated_spectrum():
    T = np.diag(np.arange(1.0, 51.0))
    records = lanczos_demo(T, 20)
    for rec in records:
        if rec.breakdown:
            break
        assert rec.orthogonality_defect <= 1e-8


def test_lanczos_rejects_asymmetric():
    with pytest.raises(lc.ParamOutOfRange):
        lanczos_demo(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


def test_lanczos_rejects_an_empty_matrix():
    with pytest.raises(lc.DimensionMismatch, match=r"non-empty, got shape \(0, 0\)"):
        lanczos_demo(np.zeros((0, 0)), 1)


# --- block norms ----------------------------------------------------------------------


def test_block_norm_scalar_blocks():
    case = block_norm_cases([(np.array([[1.0]]), np.array([[1.0]]))])[0]
    assert case.norm_joint == pytest.approx(2.0, rel=1e-12)
    assert (case.norm_A + case.norm_B) / case.norm_joint == pytest.approx(1.0, rel=1e-12)


def test_block_norm_zero_block():
    case = block_norm_cases([(np.array([[3.0, 0.0], [0.0, 1.0]]), np.zeros((2, 2)))])[0]
    assert case.norm_joint == pytest.approx(3.0, rel=1e-12)
    assert max(case.norm_A, case.norm_B) / case.norm_joint == pytest.approx(1.0, rel=1e-12)
    assert block_norm_cases([(np.zeros((2, 1)), np.array([[0.0], [2.0]]))])[0].norm_joint == 2.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("block", ["A", "B"])
def test_block_norm_rejects_non_finite(bad, block):
    blocks = {"A": np.array([[1.0], [2.0]]), "B": np.array([[0.5, 1.0], [3.0, -1.0]])}
    blocks[block][0, 0] = bad
    with pytest.raises(ValueError, match="must be finite"):
        block_norm_cases([(blocks["A"], blocks["B"])])


def test_block_norm_random_band():
    rng = np.random.default_rng(43)
    for _ in range(20):
        A = rng.standard_normal((4, 3))
        B = rng.standard_normal((4, 2))
        sampled = sampled_block_norm(A, B, samples=200, seed=int(rng.integers(1 << 31)))
        case = block_norm_cases([(A, B)])[0]
        low = max(case.norm_A, case.norm_B)
        high = case.norm_A + case.norm_B
        assert low - 1e-9 <= case.norm_joint <= high + 1e-9
        assert 1.0 - 1e-9 <= high / case.norm_joint <= 2.0 + 1e-9
        assert case.norm_joint >= sampled * (1.0 - 1e-12)


def test_block_norm_single_columns_closed_form():
    # for columns a, b the maximum over |u|, |v| <= 1 sits at a vertex: max ||a +- b||
    rng = np.random.default_rng(47)
    cases = []
    for _ in range(50):
        rows = int(rng.integers(1, 7))
        cases.append((rng.standard_normal(rows), 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(rows)))
    # a orthogonal to b with equal norms: the dual's top eigenvalue repeats at the optimum
    a = rng.standard_normal(5)
    b = rng.standard_normal(5)
    b -= (a @ b) / (a @ a) * a
    cases.append((a, b * np.linalg.norm(a) / np.linalg.norm(b)))
    for a, b in cases:
        expected = max(np.linalg.norm(a + b), np.linalg.norm(a - b))
        joint = block_norm_cases([(a[:, None], b[:, None])])[0].norm_joint
        assert joint == pytest.approx(expected, rel=1e-12)
    e1, e2 = np.eye(2)[:, :1], np.eye(2)[:, 1:]
    assert block_norm_cases([(e1, e2)])[0].norm_joint == pytest.approx(SQRT2, rel=1e-12)


def test_block_norm_rejects_mismatched_rows():
    with pytest.raises(lc.DimensionMismatch):
        block_norm_cases([(np.ones((2, 2)), np.ones((3, 2)))])
    with pytest.raises(lc.DimensionMismatch):
        block_norm_cases([(np.ones((2, 2)), np.ones((2, 1))), (np.ones((2, 2)), np.ones((3, 2)))])


def test_block_norm_cases_take_each_pair_through_its_own_search():
    # without padding (one row count) the lockstep search must reproduce
    # every pair's one-at-a-time search bit for bit, and so must a single pair
    rng = np.random.default_rng(59)
    pairs = [(rng.standard_normal((4, int(rng.integers(1, 5)))), rng.standard_normal((4, int(rng.integers(1, 5)))))
             for _ in range(60)]  # fmt: skip
    for (A, B), case in zip(pairs, block_norm_cases(pairs)):
        expected = golden_section_block_norm(A, B)
        assert case.norm_joint == expected
        assert block_norm_cases([(A, B)])[0].norm_joint == expected


def test_block_norm_cases_match_single_pairs():
    # the lockstep search pads the Gram matrices to the largest row count;
    # each pair must still get the value of its own search
    rng = np.random.default_rng(53)
    pairs = []
    for k in range(150):
        rows = int(rng.integers(1, 9))
        A = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal((rows, int(rng.integers(1, 5))))
        B = rng.standard_normal((rows, int(rng.integers(1, 5))))
        pairs.append((0.0 * A if k % 10 == 3 else A, 0.0 * B if k % 10 == 7 else B))
    pairs.append((np.zeros((3, 2)), np.zeros((3, 1))))
    cases = block_norm_cases(pairs)
    assert len(cases) == len(pairs)
    for (A, B), case in zip(pairs, cases):
        single = block_norm_cases([(A, B)])[0]
        assert (case.norm_A, case.norm_B) == (single.norm_A, single.norm_B)
        assert abs(case.norm_joint - single.norm_joint) <= 1e-15 * single.norm_joint
    assert cases[-1].norm_joint == 0.0
    assert block_norm_cases([]) == []
