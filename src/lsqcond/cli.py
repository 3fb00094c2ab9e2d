"""Command-line interface: analysis reports, verification suites, comparison
tables, problem generation, parameter sweeps, and the Lanczos demo.

Every command is deterministic. The condition number with respect to the
matrix is computed in closed form (jacobian.worst_case_direction), so a
seed only ever chooses generated problems.

Exit codes: 0 success, 1 verification failure, 2 I/O or parameter errors,
3 numerical preconditions (the error name goes to stderr).
"""

from __future__ import annotations

import os

# cap BLAS parallelism before numpy loads; results do not depend on it
if "LSQCOND_THREADS" in os.environ:
    _threads = os.environ["LSQCOND_THREADS"]
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import io
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import mmio
from .conditioning import (
    SCALE_PRESETS,
    SQRT2,
    ScaleFactors,
    projection_condition_bounds,
    residual_condition_bounds,
    scale_preset,
    table2_variants,
)
from .core import (
    LsCache,
    LsProblem,
    geometry,
    nuclear_norm,
    solve_least_squares,
)
from .errors import LsqCondError, OutOfRange, ParamOutOfRange
from .generators import (
    EnsembleSpec,
    block_norm_cases,
    ensemble_specs,
    gvl_example,
    lanczos_demo,
    random_problem,
)
from .jacobian import (
    adjoint_rank2,
    apply_residual_jacobian,
    attaining_perturbation,
    canonicalize_direction,
    g_objective,
    sandwich_bounds,
    worst_case_direction,
)
from .prior_bounds import compare_table
from .report import build_report, dump_json, write_csv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsqcond",
        description="Condition numbers of least squares residuals and orthogonal projections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full condition report for a problem, as JSON")
    p.add_argument("--matrix", required=True, help="Matrix Market file for A")
    p.add_argument("--rhs", required=True, help="vector file for b (Matrix Market or text)")
    p.add_argument("--scales", default="relative", choices=SCALE_PRESETS)
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--timings", action="store_true", help="include wall-clock timings (breaks byte-reproducibility)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="run the invariant suites; exit 0 iff all pass")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--problems", type=int, default=200)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("compare", help="published condition estimates vs. the tight one")
    p.add_argument("--matrix", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--format", default="text", choices=("text", "csv"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("generate", help="write test problems to files")
    gsub = p.add_subparsers(dest="kind", required=True)
    g = gsub.add_parser("gvl", help="the parametric 3x2 example with analytic record")
    g.add_argument("--alpha", type=float, required=True)
    g.add_argument("--beta", type=float, required=True)
    g.add_argument("--phi", type=float, required=True)
    g.add_argument("--eps", type=float, default=0.0)
    g.add_argument("--out-dir", required=True)
    g.set_defaults(func=_cmd_generate_gvl)
    g = gsub.add_parser("ensemble", help="seeded random problem with prescribed spectrum")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--sigmas", required=True, help="comma-separated singular values")
    g.add_argument("--theta", type=float, required=True)
    g.add_argument("--mix", type=float, default=0.5)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out-dir", required=True)
    g.set_defaults(func=_cmd_generate_ensemble)

    p = sub.add_parser("sweep", help="vary one parameter, emit CSV of geometry and bounds")
    ssub = p.add_subparsers(dest="kind", required=True)
    s = ssub.add_parser("gvl")
    s.add_argument("--param", required=True, choices=("alpha", "beta", "phi"))
    s.add_argument("--values", required=True, help="comma-separated values")
    s.add_argument("--alpha", type=float, default=0.5)
    s.add_argument("--beta", type=float, default=2.0)
    s.add_argument("--phi", type=float, default=0.0)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_sweep)
    s = ssub.add_parser("ensemble")
    s.add_argument("--param", required=True, choices=("theta", "mix"))
    s.add_argument("--values", required=True)
    s.add_argument("--m", type=int, default=12)
    s.add_argument("--n", type=int, default=4)
    s.add_argument("--sigmas", default="1,0.1,0.01,0.001")
    s.add_argument("--theta", type=float, default=math.pi / 4)
    s.add_argument("--mix", type=float, default=0.5)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("lanczos", help="per-step conditioning of the three-term recurrence")
    p.add_argument("--matrix", required=True, help="symmetric matrix (Matrix Market)")
    p.add_argument("--v1", help="start vector file (default: normalized ones)")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lanczos)

    return parser


def _load_problem(matrix_path: str, rhs_path: str) -> LsProblem:
    return LsProblem(mmio.read_matrix(matrix_path), mmio.read_vector(rhs_path))


def _write_text(out: str | None, text: str) -> None:
    if out:
        Path(out).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)


def _chi_A(cache: LsCache, scales: ScaleFactors) -> float:
    """Exact scaled condition number of the residual wrt the matrix."""
    return scales.scale_A / scales.scale_r * worst_case_direction(cache).g_value


def _cmd_analyze(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    problem = _load_problem(args.matrix, args.rhs)
    cache = solve_least_squares(problem)
    geom = geometry(cache)
    t1 = time.perf_counter()
    chi_A = _chi_A(cache, scale_preset(args.scales, cache))
    t2 = time.perf_counter()
    rows = compare_table(cache)
    timings = None
    if args.timings:
        timings = {"solve_s": t1 - t0, "empirical_s": t2 - t1, "total_s": time.perf_counter() - t0}
    rep = build_report(
        cache,
        geom,
        chi_A,
        args.scales,
        rows,
        matrix_file=args.matrix,
        rhs_file=args.rhs,
        timings=timings,
    )
    _write_text(args.out, dump_json(rep))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cache = solve_least_squares(_load_problem(args.matrix, args.rhs))
    rows = compare_table(cache)
    if args.format == "csv":
        buf = io.StringIO()
        write_csv(
            buf,
            ["source", "value", "scale_convention", "ratio_to_tight", "max_ratio"],
            [[r.source, r.value, r.scale_convention, r.ratio_to_tight, r.max_ratio] for r in rows],
        )
        _write_text(args.out, buf.getvalue())
        return 0
    lines = [
        f"{'source':<8} {'value':>14} {'ratio_to_tight':>15} {'max_ratio':>10}  scale convention",
    ]
    for r in rows:
        lines.append(
            f"{r.source:<8} {r.value:>14.6g} {r.ratio_to_tight:>15.6g} "
            f"{r.max_ratio:>10.6g}  {r.scale_convention}"
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _expected_block(ex) -> dict:
    return {
        "x": list(ex.expected.x),
        "r": list(ex.expected.r),
        "kappa": ex.expected.kappa,
        "vds": ex.expected.vds,
        "cot_theta": ex.expected.cot_theta,
        "chi_A_upper": ex.expected.chi_A_upper,
        "dr_rel_first_order": ex.expected.dr_rel_first_order,
    }


def _cmd_generate_gvl(args: argparse.Namespace) -> int:
    ex = gvl_example(args.alpha, args.beta, args.phi, args.eps)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mmio.write_matrix(out / "A.mtx", ex.problem.A)
    mmio.write_vector(out / "b.txt", ex.problem.b)
    files = {"matrix": "A.mtx", "rhs": "b.txt", "delta_matrix": None}
    if args.eps > 0.0:
        mmio.write_matrix(out / "dA.mtx", ex.delta_A)
        files["delta_matrix"] = "dA.mtx"
    record = {
        "schema": "lsq-cond/expected/1",
        "kind": "gvl",
        "parameters": {"alpha": args.alpha, "beta": args.beta, "phi": args.phi, "epsilon": args.eps},
        "expected": _expected_block(ex),
        "files": files,
    }
    (out / "expected.json").write_text(dump_json(record), encoding="ascii")
    return 0


def _cmd_generate_ensemble(args: argparse.Namespace) -> int:
    sigmas = tuple(float(v) for v in args.sigmas.split(","))
    spec = EnsembleSpec(args.m, args.n, sigmas, args.theta, args.mix, args.seed)
    problem = random_problem(spec)
    cache = solve_least_squares(problem)
    geom = geometry(cache)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mmio.write_matrix(out / "A.mtx", problem.A)
    mmio.write_vector(out / "b.txt", problem.b)
    record = {
        "schema": "lsq-cond/expected/1",
        "kind": "ensemble",
        "parameters": {
            "m": args.m,
            "n": args.n,
            "singular_values": list(sigmas),
            "theta": args.theta,
            "mix": args.mix,
            "seed": args.seed,
        },
        "realized": {
            "kappa": geom.kappa,
            "theta": geom.theta,
            "vds": geom.vds,
            "sigma_min": geom.sigma_min,
        },
        "files": {"matrix": "A.mtx", "rhs": "b.txt", "delta_matrix": None},
    }
    (out / "expected.json").write_text(dump_json(record), encoding="ascii")
    return 0


_SWEEP_HEADER = [
    "param",
    "value",
    "m",
    "n",
    "kappa",
    "theta",
    "vds",
    "sigma_min",
    "chi_b",
    "chi_A_lower",
    "chi_A_upper",
    "empirical",
]

# how each sweep kind builds its problem from the arguments, with the swept
# parameter already substituted
_SWEEP_PROBLEMS = {
    "gvl": lambda p: gvl_example(p["alpha"], p["beta"], p["phi"]).problem,
    "ensemble": lambda p: random_problem(
        EnsembleSpec(p["m"], p["n"], _parse_values(p["sigmas"]), p["theta"], p["mix"], p["seed"])
    ),
}


def _parse_values(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _cmd_sweep(args: argparse.Namespace) -> int:
    rows = []
    for value in _parse_values(args.values):
        problem = _SWEEP_PROBLEMS[args.kind]({**vars(args), args.param: value})
        cache = solve_least_squares(problem)
        geom = geometry(cache)
        scales = ScaleFactors.relative(cache)
        est = residual_condition_bounds(cache, scales)
        rows.append([
            args.param, value, problem.m, problem.n, geom.kappa, geom.theta, geom.vds, geom.sigma_min,
            est.chi_b, est.chi_A_lower, est.chi_A_upper, _chi_A(cache, scales),
        ])
    buf = io.StringIO()
    write_csv(buf, _SWEEP_HEADER, rows)
    _write_text(args.out, buf.getvalue())
    return 0


def _cmd_lanczos(args: argparse.Namespace) -> int:
    T = mmio.read_matrix(args.matrix)
    if args.v1:
        v1 = mmio.read_vector(args.v1)
    else:
        v1 = np.ones(T.shape[0]) / math.sqrt(T.shape[0])
    records = lanczos_demo(T, v1, args.steps)
    rows = [
        [
            rec.step,
            rec.alpha,
            rec.beta,
            rec.theta,
            rec.predicted_chi,
            rec.orthogonality_defect,
            rec.krylov_theta,
            rec.breakdown,
        ]
        for rec in records
    ]
    buf = io.StringIO()
    write_csv(
        buf,
        ["step", "alpha", "beta", "theta", "predicted_chi", "orthogonality_defect", "krylov_theta", "breakdown"],
        rows,
    )
    _write_text(args.out, buf.getvalue())
    return 0


# ---------------------------------------------------------------------------
# verification suites


def _solved(spec: EnsembleSpec):
    cache = solve_least_squares(random_problem(spec))
    return cache, geometry(cache)


def _suite_solve_invariants(seed: int, problems: int) -> tuple[bool, str]:
    # the 1e-12 orthogonality/Pythagoras budget needs eps * kappa below it,
    # so this suite caps kappa at 1e3; the sandwich suite still goes to 1e6
    worst = 0.0
    for spec in ensemble_specs(min(problems, 100), seed, max_kappa_exp=3.0):
        cache, geom = _solved(spec)
        worst = max(worst, *cache.self_check().values())
        if not (1.0 - 1e-9 <= geom.vds <= geom.kappa * (1.0 + 1e-9)):
            return False, f"vds = {geom.vds} outside [1, kappa = {geom.kappa}]"
    return worst <= 1e-12, f"worst solve defect {worst:.2e} (tol 1e-12)"


def _suite_sandwich(seed: int, problems: int) -> tuple[bool, str]:
    lo, hi, worst_norm, worst_cert = math.inf, 0.0, 0.0, 0.0
    for spec in ensemble_specs(problems, seed + 1):
        cache, _ = _solved(spec)
        scales = ScaleFactors.relative(cache)
        upper = residual_condition_bounds(cache, scales).chi_A_upper
        cand = worst_case_direction(cache)
        value = scales.scale_A / scales.scale_r * cand.g_value
        lo, hi = min(lo, value / upper), max(hi, value / upper)
        if not upper / SQRT2 * (1 - 1e-12) <= value <= upper * (1 + 1e-8):
            return False, f"exact value {value} outside sandwich for seed {spec.seed}"
        dA = attaining_perturbation(cache, cand.delta_r)
        dr, _ = apply_residual_jacobian(cache, dA)
        worst_norm = max(worst_norm, abs(float(np.linalg.norm(dA, 2)) - 1.0))
        worst_cert = max(worst_cert, abs(float(np.linalg.norm(dr)) - cand.g_value) / cand.g_value)
    ok = worst_norm <= 1e-12 and worst_cert <= 1e-10
    return ok, (
        f"exact/upper in [{lo:.6f}, {hi:.6f}], worst | ||dA||_2 - 1 | {worst_norm:.2e} (tol 1e-12), "
        f"worst certificate defect {worst_cert:.2e} (tol 1e-10)"
    )


def _unit_columns(draws: np.ndarray) -> np.ndarray:
    """The rows of draws, each scaled to unit 2-norm, as the columns of a
    block; bitwise what dividing each row by np.linalg.norm gives."""
    return (draws / np.sqrt(np.vecdot(draws, draws))[:, None]).T


def _suite_adjoint(seed: int, problems: int) -> tuple[bool, str]:
    # lhs sums two terms that can cancel, so defects are measured against
    # the magnitudes of those terms, the scale at which rounding occurs
    rng = np.random.default_rng(seed + 2)
    worst = 0.0
    for spec in ensemble_specs(20, seed + 2, max_kappa_exp=3.0):
        cache, _ = _solved(spec)
        m, n = cache.problem.m, cache.problem.n
        # row k: the k-th direction, then the k-th perturbation row by row
        draws = rng.standard_normal((20, m + m * n))
        D = _unit_columns(draws[:, :m])
        dA = draws[:, m:].reshape(20, m, n)
        dr, _ = apply_residual_jacobian(cache, dA)
        adj = adjoint_rank2(cache, D)
        lhs = np.einsum("ik,ik->k", dr, D)
        rhs = adj.sign * np.einsum("kij,kij->k", dA, adj.matrix())
        scale = np.abs(np.einsum("ik,kij,j->k", adj.u1, dA, adj.v1)) + np.abs(
            np.einsum("i,kij,jk->k", adj.u2, dA, adj.v2)
        )
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.maximum(scale, 1e-30))))
    return worst <= 1e-12, f"worst adjoint-identity defect {worst:.2e} (tol 1e-12)"


def _suite_dual_norm(seed: int, problems: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed + 3)
    worst_eq = 0.0
    for spec in ensemble_specs(20, seed + 3, max_kappa_exp=3.0):
        cache, _ = _solved(spec)
        D = _unit_columns(rng.standard_normal((25, cache.problem.m)))
        g = g_objective(cache, D)
        nn = nuclear_norm(adjoint_rank2(cache, D).matrix())
        worst_eq = max(worst_eq, float(np.max(np.abs(g - nn) / np.maximum(nn, 1e-30))))
        Dc = canonicalize_direction(cache, D)
        L, U = sandwich_bounds(cache, Dc)
        gc = g_objective(cache, Dc)
        outside = np.flatnonzero(~((L - 1e-10 <= gc) & (gc <= U + 1e-10)))
        if outside.size:
            k = outside[0]
            return False, f"canonical sandwich violated: L={float(L[k])} g={float(gc[k])} U={float(U[k])}"
    return worst_eq <= 1e-10, f"worst |g - nuclear|/nuclear = {worst_eq:.2e} (tol 1e-10)"


def _suite_jacobian_remainder(seed: int, problems: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed + 4)
    ratios = []
    for spec in ensemble_specs(25, seed + 4, max_kappa_exp=3.0, theta_range=(0.1, 1.4)):
        cache, _ = _solved(spec)
        problem = cache.problem
        E = rng.standard_normal(problem.A.shape)
        E /= np.linalg.svd(E, compute_uv=False)[0]
        d0 = 1e-3 * cache.svd.sigma_min
        rems = []
        for d in (d0, d0 / 2.0):
            perturbed = solve_least_squares(LsProblem(problem.A + d * E, problem.b))
            dr, _ = apply_residual_jacobian(cache, d * E)
            rems.append(float(np.linalg.norm(perturbed.r - cache.r - dr)))
        ratios.append(rems[0] / rems[1])
    ok = all(3.5 <= q <= 4.5 for q in ratios)
    return ok, f"remainder halving ratios in [{min(ratios):.3f}, {max(ratios):.3f}] (band 3.5-4.5)"


def _suite_chi_b_attainment(seed: int, problems: int) -> tuple[bool, str]:
    worst = 0.0
    for spec in ensemble_specs(50, seed + 5, max_kappa_exp=3.0, theta_range=(0.1, 1.4)):
        cache, geom = _solved(spec)
        delta = 1e-2 * cache.norm_b
        db = delta * cache.r / cache.norm_r
        perturbed = solve_least_squares(LsProblem(cache.problem.A, cache.problem.b + db))
        ratio = (np.linalg.norm(perturbed.r - cache.r) / cache.norm_r) / (delta / cache.norm_b)
        worst = max(worst, abs(ratio - 1.0 / math.sin(geom.theta)) * math.sin(geom.theta))
    return worst <= 1e-10, f"worst csc(theta) attainment defect {worst:.2e} (tol 1e-10)"


def _suite_prior_dominance(seed: int, problems: int) -> tuple[bool, str]:
    # the gvlh stated value can exceed kappa times the tight sum at small
    # kappa; the provable pointwise bound is kappa + 1/2 (tight sum >= 2)
    for spec in ensemble_specs(100, seed + 6):
        cache, _ = _solved(spec)
        for row in compare_table(cache):
            cap = row.max_ratio + (0.5 if row.source == "gvlh" else 0.0)
            if not 1.0 - 1e-12 <= row.ratio_to_tight <= cap + 1e-9:
                return False, f"{row.source} ratio {row.ratio_to_tight} outside [1, {cap}]"
    return True, "all published-estimate ratios inside their provable bands"


def _suite_table2(seed: int, problems: int) -> tuple[bool, str]:
    worst = 0.0
    for spec in ensemble_specs(50, seed + 7, max_kappa_exp=3.0, theta_range=(0.1, 1.4)):
        cache, geom = _solved(spec)
        row_r, row_b = table2_variants(cache)
        worst = max(
            worst,
            abs(row_b.tight_estimate - row_r.tight_estimate * math.sin(geom.theta))
            / row_r.tight_estimate,
        )
    return worst <= 1e-12, f"worst scaling-identity defect {worst:.2e} (tol 1e-12)"


def _suite_projection(seed: int, problems: int) -> tuple[bool, str]:
    worst = 0.0
    for spec in ensemble_specs(50, seed + 8, max_kappa_exp=3.0, theta_range=(0.1, 1.3)):
        cache, _ = _solved(spec)
        scales = ScaleFactors.relative(cache)
        res = residual_condition_bounds(cache, scales)
        proj = projection_condition_bounds(cache, scales)
        lhs = proj.chi_A_upper * cache.norm_Ax
        rhs = res.chi_A_upper * cache.norm_r
        worst = max(worst, abs(lhs - rhs) / rhs)
        sec = cache.norm_b / cache.norm_Ax
        worst = max(worst, abs(proj.chi_b - sec) / sec)
    return worst <= 1e-12, f"worst projection-consistency defect {worst:.2e} (tol 1e-12)"


def _suite_block_norm(seed: int, problems: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed + 9)
    pairs = []
    for _ in range(100):
        rows = int(rng.integers(1, 7))
        A = rng.standard_normal((rows, int(rng.integers(1, 5))))
        B = rng.standard_normal((rows, int(rng.integers(1, 5))))
        rng.integers(0, 2**31)  # discarded draw; it fixes which pairs each --seed checks
        pairs.append((A, B))
    for case in block_norm_cases(pairs):
        hi = case.norm_A + case.norm_B
        lo = max(case.norm_A, case.norm_B)
        if not lo - 1e-6 <= case.norm_joint <= hi + 1e-6:
            return False, f"joint norm {case.norm_joint} outside [{lo}, {hi}]"
        if hi > 2.0 * case.norm_joint + 1e-6:
            return False, f"sum {hi} exceeds twice the joint norm {case.norm_joint}"
    return True, "joint norm inside the two-sided band on all cases"


_SUITES = [
    ("solve-invariants", _suite_solve_invariants),
    ("sandwich-containment", _suite_sandwich),
    ("adjoint-identity", _suite_adjoint),
    ("dual-norm-identity", _suite_dual_norm),
    ("jacobian-remainder", _suite_jacobian_remainder),
    ("chi-b-attainment", _suite_chi_b_attainment),
    ("prior-dominance", _suite_prior_dominance),
    ("scaling-variants", _suite_table2),
    ("projection-consistency", _suite_projection),
    ("block-norm-band", _suite_block_norm),
]


def _cmd_verify(args: argparse.Namespace) -> int:
    failures = 0
    for name, suite in _SUITES:
        ok, detail = suite(args.seed, args.problems)
        status = " ok " if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParamOutOfRange, OutOfRange) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except LsqCondError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
