"""Command-line interface: analysis reports, the verification suites of
the verify module, comparison tables, problem generation, parameter
sweeps, and the Lanczos demo.

Every command is deterministic. The condition number with respect to the
matrix is computed in closed form (the chi_A field of
conditioning.ConditionEstimates), so a seed only ever chooses generated
problems. `analyze` reports it under every scale preset, and repeats the
relative one in its "empirical" block.

Loading this module loads only what `analyze` and `compare` use. The
commands `generate`, `sweep` and `lanczos` import the generators module,
and `verify` the verify module, inside the command, so that the analysis
commands never load either.

Exit codes: 0 success, 1 verification failure (a raising suite is one),
2 I/O or parameter errors and inputs too large for memory, 3 failed
numerical preconditions or invariants. A library error carries its own
code as exit_code (2 for ParamOutOfRange and DimensionMismatch, 3 for
the rest), and its name goes to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import mmio
from .conditioning import ScaleFactors, residual_condition_bounds
from .core import LsProblem, geometry, solve_least_squares
from .errors import LsqCondError, ParamOutOfRange
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
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--timings", action="store_true", help="include wall-clock timings (breaks byte-reproducibility)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="run the invariant suites; exit 0 iff all pass")
    p.add_argument("--seed", type=int, default=1)
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
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lanczos)

    return parser


def _write_text(out: str | None, text: str) -> None:
    """Write text to the file out, or else to stdout. Stdout's text layer is
    flushed and the encoded text goes to its file descriptor with os.write
    until every byte is taken, so no bytes are left in a buffer for the
    interpreter's last flush: a reader that has gone, or a full non-blocking
    pipe, raises here, buffered or not. A stdout with no file descriptor,
    such as io.StringIO, gets sys.stdout.write."""
    if out:
        Path(out).write_text(text, encoding="ascii")
        return
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, io.UnsupportedOperation):
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding))
    while data:
        data = data[os.write(fd, data):]


def _write_records(out: str | None, records: list) -> None:
    """CSV of dataclass records: the header from the fields of the first,
    one row per record in field order."""
    buf = io.StringIO()
    header = [field.name for field in dataclasses.fields(records[0])]
    write_csv(buf, header, [dataclasses.astuple(rec) for rec in records])
    _write_text(out, buf.getvalue())


def _parse_values(option: str, text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ParamOutOfRange(f"{option} must be comma-separated numbers, got {text!r}") from None


def _write_case(out_dir: str, problem: LsProblem, delta_A: np.ndarray | None, kind: str, **blocks) -> None:
    """A generated case: A.mtx, b.txt, dA.mtx when delta_A is given, and
    expected.json holding the schema, the kind, the given blocks in order,
    and the files written. The record is serialized first, so a value it
    cannot hold fails before anything is written."""
    files = {"matrix": "A.mtx", "rhs": "b.txt", "delta_matrix": None if delta_A is None else "dA.mtx"}
    text = dump_json({"schema": "lsq-cond/expected/1", "kind": kind, **blocks, "files": files})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mmio.write_matrix(out / "A.mtx", problem.A)
    mmio.write_vector(out / "b.txt", problem.b)
    if delta_A is not None:
        mmio.write_matrix(out / "dA.mtx", delta_A)
    (out / "expected.json").write_text(text, encoding="ascii")


def _cmd_analyze(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    (A, matrix_sha256), (b, rhs_sha256) = mmio.read_matrix(args.matrix), mmio.read_vector(args.rhs)
    t1 = time.perf_counter()
    cache = solve_least_squares(LsProblem(A, b))
    t2 = time.perf_counter()
    rep = build_report(cache, (args.matrix, matrix_sha256), (args.rhs, rhs_sha256))
    if args.timings:
        rep["timings"] = {"read_s": t1 - t0, "solve_s": t2 - t1, "total_s": time.perf_counter() - t0}
    _write_text(args.out, dump_json(rep))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cache = solve_least_squares(LsProblem(mmio.read_matrix(args.matrix)[0], mmio.read_vector(args.rhs)[0]))
    rows = compare_table(cache)
    if args.format == "csv":
        _write_records(args.out, rows)
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


def _cmd_generate_gvl(args: argparse.Namespace) -> int:
    from . import generators

    ex = generators.gvl_example(args.alpha, args.beta, args.phi, args.eps)
    parameters = {"alpha": args.alpha, "beta": args.beta, "phi": args.phi, "epsilon": args.eps}
    delta_A = ex.delta_A if args.eps > 0.0 else None
    _write_case(
        args.out_dir, ex.problem, delta_A, "gvl", parameters=parameters, expected=dataclasses.asdict(ex.expected)
    )
    return 0


def _cmd_generate_ensemble(args: argparse.Namespace) -> int:
    from . import generators

    sigmas = _parse_values("--sigmas", args.sigmas)
    spec = generators.EnsembleSpec(args.m, args.n, sigmas, args.theta, args.mix, args.seed)
    problem = generators.random_problem(spec)
    cache = solve_least_squares(problem)
    geom = geometry(cache)
    realized = {key: getattr(geom, key) for key in ("kappa", "theta", "vds", "sigma_min")}
    _write_case(args.out_dir, problem, None, "ensemble", parameters=dataclasses.asdict(spec), realized=realized)
    return 0


@dataclasses.dataclass(frozen=True)
class SweepRow:
    """One point of `sweep`: the swept parameter and its value, the
    problem's size and geometry, and its relative estimates."""

    param: str
    value: float
    m: int
    n: int
    kappa: float
    theta: float
    vds: float
    sigma_min: float
    chi_b: float
    chi_A_lower: float
    chi_A_upper: float
    empirical: float


def _cmd_sweep(args: argparse.Namespace) -> int:
    from . import generators

    rows = []
    for value in _parse_values("--values", args.values):
        p = {**vars(args), args.param: value}
        if args.kind == "gvl":
            problem = generators.gvl_example(p["alpha"], p["beta"], p["phi"]).problem
        else:
            sigmas = _parse_values("--sigmas", p["sigmas"])
            spec = generators.EnsembleSpec(p["m"], p["n"], sigmas, p["theta"], p["mix"], p["seed"])
            problem = generators.random_problem(spec)
        cache = solve_least_squares(problem)
        geom = geometry(cache)
        est = residual_condition_bounds(cache, ScaleFactors.presets(cache)["relative"])
        rows.append(SweepRow(
            args.param, value, problem.m, problem.n, geom.kappa, geom.theta, geom.vds, geom.sigma_min,
            est.chi_b, est.chi_A_lower, est.chi_A_upper, est.chi_A,
        ))
    _write_records(args.out, rows)
    return 0


def _cmd_lanczos(args: argparse.Namespace) -> int:
    from . import generators

    _write_records(args.out, generators.lanczos_demo(mmio.read_matrix(args.matrix)[0], args.steps))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    if args.seed < 0:
        raise ParamOutOfRange(f"--seed must be non-negative, got {args.seed}")
    failures = 0
    for offset, (suite, count) in enumerate(verify.SUITES):
        try:
            ok, detail = suite(args.seed + offset, count)
        except LsqCondError as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        status = " ok " if ok else "FAIL"
        _write_text(None, f"[{status}] {suite.__name__.replace('_', '-')}: {detail}\n")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LsqCondError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
