"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import spans
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_one_op_smoke_run_reports_every_metric_with_its_unit(workload):
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in listed}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        if trace:
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            # the layers each workload bypasses
            if workload == "analyze-tall":
                assert metrics["generators.calls"] == 0
            else:
                assert metrics["mmio.calls"] == 0


def _fake_op(returncode: int, text: str):
    """Stand-in for run.cli_op that 'produces' a fixed output."""

    def op(wl, workdir):
        if wl.out is None:
            return run.ChildOp(0.5, returncode, 1000, text, False)
        wl.out.write_text(text, encoding="ascii")
        return run.ChildOp(0.5, returncode, 1000, "", False)

    return op


def test_checker_counts_a_perturbed_chi_A_upper_as_a_failed_op(tmp_path, monkeypatch):
    wl = workloads.AnalyzeTall(4, tmp_path)
    wl.write_inputs()
    op = run.cli_op(wl, tmp_path)
    assert op.returncode == 0
    report = json.loads(wl.output(op.stdout))
    assert wl.check(0, json.dumps(report), wl.reference()) == []

    report["estimates"]["relative"]["chi_A_upper"] *= 1.0 + 1e-6
    monkeypatch.setattr(run, "cli_op", _fake_op(0, json.dumps(report)))
    result = run.run_untraced(wl, tmp_path, seconds=0)
    assert result["attempted"] == 1 and result["failed"] == 1
    assert "chi_A_upper" in result["first_failures"][0][0]


def test_checker_counts_a_verify_transcript_with_one_FAIL_as_a_failed_op(tmp_path, monkeypatch):
    lines = [f"[ ok ] suite-{k}: fine" for k in range(10)]
    assert workloads.Verify.check(0, "\n".join(lines), {}) == []
    lines[6] = "[FAIL] prior-dominance: gvlh ratio 7 outside [1, 3]"
    wl = workloads.Verify(1, tmp_path)
    monkeypatch.setattr(run, "cli_op", _fake_op(0, "\n".join(lines) + "\n"))
    result = run.run_untraced(wl, tmp_path, seconds=0)
    assert result["attempted"] == 1 and result["failed"] == 1
    assert workloads.Verify.check(1, "\n".join(lines), {})[0] == "exit code 1"


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_times_partition_the_root_span_and_errors_are_counted():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.002)

    def failing():
        raise ValueError("boom")

    wrapped_leaf = tracer.wrap("core", leaf)
    wrapped_failing = tracer.wrap("mmio", failing)

    def root():
        time.sleep(0.001)
        wrapped_leaf()
        wrapped_leaf()
        with pytest.raises(ValueError):
            wrapped_failing()

    tracer.wrap("cli", root)()
    totals = tracer.layer_totals()
    assert totals["core"]["calls"] == 2 and totals["mmio"]["errors"] == 1 and totals["cli"]["errors"] == 0
    parent, _, _, start, end, _ = tracer.spans[0]
    assert parent == -1
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(end - start, rel=1e-9)
    assert totals["core"]["self_s"] >= 0.004
