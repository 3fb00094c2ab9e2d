"""lsqcond benchmark: end-to-end CLI ops, plus a traced per-layer run.

    python3 perfbench/run.py --workload analyze-tall --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 50

With --trace 0 every op is `python -m lsqcond ...` in a fresh child
interpreter (PYTHONPATH=src), so start-up and imports count. One client
runs ops back to back (closed loop) until --seconds have passed. The
last stdout line is a JSON object with the end-to-end metrics; the op
time reported there is the fastest checked op of the run, which stays put
while the shared host slows down for minutes at a time. With
--trace 1 the same op runs in this process through lsqcond.cli.main,
alternately plain and with every layer boundary recorded (see spans.py),
and the last line carries the per-layer metrics. --all runs every
workload both ways in child processes and prints all metrics.

Inputs, outputs, span files and result records go to .bench_runs/ under
the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

# child BLAS threads; 1 <= nproc on every machine, and one thread keeps
# ops on small problems free of thread start-up and contention noise
THREADS = 1
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
OP_TIMEOUT_S = 60.0
IMPORT_REPS = 3

END_TO_END_UNITS = {"op_min_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
NO_TAIL_NOTE = (
    "no tail percentile: a run holds too few multi-second ops for any "
    "percentile above the median to have ten samples beyond it"
)


def pin_threads() -> None:
    """Pin BLAS threads for this process (before NumPy loads) and its children."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(THREADS)
    os.environ["LSQCOND_THREADS"] = str(THREADS)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["LSQCOND_THREADS"] = str(THREADS)
    env["PYTHONPATH"] = str(SRC)
    return env


class ChildOp(NamedTuple):
    """Outcome of one CLI op in a child interpreter."""

    wall_s: float
    returncode: int
    maxrss_kib: int
    stdout: str
    timed_out: bool


def run_child(argv: list[str], workdir: Path, timeout: float = OP_TIMEOUT_S) -> ChildOp:
    """Spawn `python -m <argv>`, wait for exit, and take its own rusage."""
    out_path, err_path = workdir / "op.stdout", workdir / "op.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                timed_out = not select.select([pidfd], [], [], timeout)[0]
            finally:
                os.close(pidfd)
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    # reaped by wait4 above, so Popen must not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildOp(wall, proc.returncode, usage.ru_maxrss, out_path.read_text(errors="replace"), timed_out)


def cli_op(workload, workdir: Path) -> ChildOp:
    workload.clear_output()
    return run_child(["-m", "lsqcond", *workload.argv()], workdir)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "lsqcond").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "child_blas_threads": THREADS,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _setup(workload, workdir: Path) -> float:
    """Write the seeded inputs and run one untimed warm-up op; seconds taken."""
    start = time.perf_counter()
    workload.write_inputs()
    op = cli_op(workload, workdir)
    elapsed = time.perf_counter() - start
    if op.returncode != 0:
        err = (workdir / "op.stderr").read_text(errors="replace").strip()
        raise SystemExit(f"perfbench: warm-up op failed with exit code {op.returncode}: {err[-2000:]}")
    return elapsed


def run_untraced(workload, workdir: Path, seconds: float) -> dict:
    setups = [_setup(workload, workdir) for _ in range(SETUP_REPS)]
    ref = workload.reference()
    walls, rss, failures = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        op = cli_op(workload, workdir)
        bad = ["timed out"] if op.timed_out else workload.check(op.returncode, workload.output(op.stdout), ref)
        walls.append(op.wall_s)
        rss.append(op.maxrss_kib)
        failures.append(bad)
        if time.perf_counter() >= deadline:
            break
    failed = sum(1 for bad in failures if bad)
    # an op that fails can end early, so only checked ops give the time
    passed = [wall for wall, bad in zip(walls, failures) if not bad] or walls
    metrics = {
        "op_min_s": min(passed),
        "peak_rss_mb": max(rss) * 1024 / 1e6,
        "setup_s": statistics.median(setups),
    }
    # printed, not gated: both follow the host's slow phases (see README)
    info = {
        "op_p50_s": statistics.median(walls),
        "problems_per_s": (len(walls) - failed) * workload.problems_per_op / sum(walls),
    }
    return {
        "metrics": metrics,
        "units": END_TO_END_UNITS,
        "info": info,
        "attempted": len(walls),
        "failed": failed,
        "samples": {"op_wall_s": walls, "maxrss_kib": rss, "setup_s": setups},
        "first_failures": [bad[:5] for bad in failures if bad][:3],
    }


def _import_seconds() -> float:
    """Fresh-interpreter time of `import lsqcond.cli`."""
    code = "import time; t = time.perf_counter(); import lsqcond.cli; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=OP_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: import lsqcond.cli failed: {proc.stderr[-2000:]}")
    return float(proc.stdout)


def run_traced(workload, workdir: Path, seconds: float, spans_path: Path) -> dict:
    import spans

    _setup(workload, workdir)
    ref = workload.reference()
    sys.path.insert(0, str(SRC))
    from lsqcond import cli

    def in_process(tracer=None):
        workload.clear_output()
        stdout = io.StringIO()
        start = time.perf_counter()
        main = cli.main if tracer is None else tracer.wrap("cli", cli.main)
        try:
            with contextlib.redirect_stdout(stdout), spans.installed(tracer) if tracer else contextlib.nullcontext():
                code = main(workload.argv())
        except (Exception, SystemExit) as exc:
            return time.perf_counter() - start, [f"raised {exc!r}"]
        wall = time.perf_counter() - start
        return wall, workload.check(code, workload.output(stdout.getvalue()), ref)

    in_process()  # warm caches of this interpreter; not counted
    plain_walls, traced_walls, tracers, failures = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        wall, bad = in_process()
        plain_walls.append(wall)
        failures.append(bad)
        tracer = spans.Tracer()
        wall, bad = in_process(tracer)
        traced_walls.append(wall)
        tracers.append(tracer)
        failures.append(bad)
        if time.perf_counter() >= deadline:
            break
    memory = spans.Tracer(track_memory=True)
    _, bad = in_process(memory)
    failures.append(bad)
    import_s = statistics.median(_import_seconds() for _ in range(IMPORT_REPS))

    with open(spans_path, "w", encoding="ascii") as fh:
        for op, tracer in enumerate(tracers):
            for record in tracer.records(op):
                fh.write(json.dumps(record) + "\n")

    metrics, units = per_layer_metrics(tracers, memory, import_s, plain_walls, traced_walls)
    failed = sum(1 for bad in failures if bad)
    return {
        "metrics": metrics,
        "units": units,
        "attempted": len(failures),
        "failed": failed,
        "samples": {"plain_wall_s": plain_walls, "traced_wall_s": traced_walls},
        "first_failures": [bad[:5] for bad in failures if bad][:3],
    }


def per_layer_metrics(tracers, memory, import_s, plain_walls, traced_walls):
    """Medians over traced ops of per-op layer totals and counters; errors summed."""
    import spans

    totals = [t.layer_totals() for t in tracers]

    def med(values):
        return statistics.median(list(values))

    metrics, units = {}, {}

    def put(name, value, unit):
        metrics[name] = value
        units[name] = unit

    for layer in spans.LAYERS:
        put(f"{layer}.calls", med(t[layer]["calls"] for t in totals), "count")
        put(f"{layer}.self_s", med(t[layer]["self_s"] for t in totals), "s")
        put(f"{layer}.errors", sum(t[layer]["errors"] for t in totals), "count")
    put("cli.import_s", import_s, "s")
    put("mmio.bytes_read", med(t.counters["mmio.bytes_read"] for t in tracers), "bytes")
    put("core.svd_elems", med(t.counters["core.svd_elems"] for t in tracers), "count")
    put("jacobian.directions", med(t.counters["jacobian.directions"] for t in tracers), "count")
    put(
        "jacobian.directions_per_s",
        med(
            t.counters["jacobian.directions"] / tot["jacobian"]["self_s"] if tot["jacobian"]["self_s"] > 0 else 0.0
            for t, tot in zip(tracers, totals)
        ),
        "1/s",
    )
    put("jacobian.peak_alloc_mb", memory.counters["jacobian.peak_alloc_mb"], "MB")
    calls = memory.counters["jacobian.empirical_calls"]
    put("jacobian.sampled_win_ratio", memory.counters["jacobian.sampled_wins"] / calls if calls else 0.0, "ratio")
    put("report.bytes_out", med(t.counters["report.bytes_out"] for t in tracers), "bytes")
    put("trace.overhead_ratio", med(traced_walls) / med(plain_walls), "ratio")
    return metrics, units


def run_one(workload_name: str, seed: int, seconds: int, trace: int) -> int:
    import workloads

    tag = f"{workload_name}-seed{seed}-trace{trace}"
    workdir = RUNS / "work" / tag
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[workload_name](seed, workdir)
    env = environment(seed)
    if trace:
        (RUNS / "spans").mkdir(parents=True, exist_ok=True)
        result = run_traced(workload, workdir, seconds, RUNS / "spans" / f"{tag}.jsonl")
    else:
        result = run_untraced(workload, workdir, seconds)
    record = {"workload": workload_name, "seconds": seconds, "trace": trace, "env": env, **result}
    (RUNS / "results").mkdir(parents=True, exist_ok=True)
    (RUNS / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for path in workdir.iterdir():
        path.unlink()
    workdir.rmdir()

    print(f"perfbench {workload_name} seed={seed} seconds={seconds} trace={trace}")
    print("env " + json.dumps(env))
    print(f"ops attempted={result['attempted']} failed={result['failed']} "
          f"fail_ratio={result['failed'] / result['attempted']:.6g}")  # fmt: skip
    for bad in result["first_failures"]:
        print(f"failure: {bad}")
    n = len(result["samples"]["op_wall_s"]) if not trace else len(result["samples"]["traced_wall_s"])
    for name, value in result["metrics"].items():
        print(f"{name:<30} {value:>16.6g} {result['units'][name]:<6} (n={n})")
    if not trace:
        print(f"{'op_p50_s (not gated)':<30} {result['info']['op_p50_s']:>16.6g} s      (n={n})")
        print(f"{'problems_per_s (not gated)':<30} {result['info']['problems_per_s']:>16.6g} 1/s    (n={n})")
        print(f"note: {NO_TAIL_NOTE}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": result["units"][k]} for k, v in result["metrics"].items()},
    }))  # fmt: skip
    return 0


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in its own process."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
            proc = subprocess.run(argv, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: failed (exit {proc.returncode}) {proc.stderr.strip()[-500:]}")
                status = 1
                continue
            result = json.loads(lines[-1])
            kind = "per-layer (traced)" if trace else "end-to-end"
            print(f"== {name} {kind}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} fail_ratio={result['failed'] / result['attempted']:.6g}")  # fmt: skip
            for metric, entry in result["metrics"].items():
                print(f"   {metric:<30} {entry['value']:>16.6g} {entry['unit']}")
            for line in lines:
                if "(not gated)" in line:
                    print(f"   {line}")
            status |= 0 if result["correct"] else 1
    print(f"note: {NO_TAIL_NOTE}")
    return status


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    args = parser.parse_args(argv)
    if not (SRC / "lsqcond" / "cli.py").is_file():
        print(f"perfbench: no lsqcond sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    pin_threads()
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
