import builtins
import collections
import contextlib
import dataclasses
import errno
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from lsqcond import cli, errors, mmio, report, verify
from lsqcond.cli import main
from lsqcond.conditioning import ScaleFactors, residual_condition_bounds
from lsqcond.core import LsProblem, solve_least_squares
from lsqcond.errors import InvalidGeometry, LsqCondError
from lsqcond.jacobian import Rank2Adjoint


def run_cli(*args):
    return main(list(args))


@pytest.fixture
def gvl_case(tmp_path):
    out = tmp_path / "case1"
    assert run_cli(
        "generate", "gvl", "--alpha", "0.5", "--beta", "2", "--phi", "0",
        "--eps", "1e-6", "--out-dir", str(out),
    ) == 0
    return out


def test_generate_gvl_files(gvl_case):
    assert {p.name for p in gvl_case.iterdir()} == {"A.mtx", "b.txt", "dA.mtx", "expected.json"}
    expected = json.loads((gvl_case / "expected.json").read_text())
    assert expected["expected"]["chi_A_upper"] == pytest.approx(2.0 * math.sqrt(2.0))


def test_generate_gvl_files_block(gvl_case, tmp_path):
    expected = json.loads((gvl_case / "expected.json").read_text())
    assert expected["files"] == {"matrix": "A.mtx", "rhs": "b.txt", "delta_matrix": "dA.mtx"}
    out = tmp_path / "no_eps"
    assert run_cli("generate", "gvl", "--alpha", "0.5", "--beta", "2", "--phi", "0", "--out-dir", str(out)) == 0
    assert {p.name for p in out.iterdir()} == {"A.mtx", "b.txt", "expected.json"}
    expected = json.loads((out / "expected.json").read_text())
    assert expected["files"] == {"matrix": "A.mtx", "rhs": "b.txt", "delta_matrix": None}


def test_generate_ensemble_record_keys(tmp_path):
    out = tmp_path / "ens"
    assert run_cli(
        "generate", "ensemble", "--m", "12", "--n", "4", "--sigmas", "1,0.1,0.01,0.001",
        "--theta", "0.7", "--mix", "0.3", "--seed", "9", "--out-dir", str(out),
    ) == 0
    record = json.loads((out / "expected.json").read_text())
    assert list(record) == ["schema", "kind", "parameters", "realized", "files"]
    assert record["schema"] == "lsq-cond/expected/1" and record["kind"] == "ensemble"
    assert list(record["parameters"]) == ["m", "n", "singular_values", "theta", "mix", "seed"]
    assert record["parameters"]["singular_values"] == [1.0, 0.1, 0.01, 0.001]
    assert list(record["realized"]) == ["kappa", "theta", "vds", "sigma_min"]
    assert record["files"] == {"matrix": "A.mtx", "rhs": "b.txt", "delta_matrix": None}


def test_analyze_round_trip(gvl_case, tmp_path):
    report_path = tmp_path / "report.json"
    code = run_cli(
        "analyze", "--matrix", str(gvl_case / "A.mtx"), "--rhs", str(gvl_case / "b.txt"),
        "--out", str(report_path),
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["estimates"]["relative"]["chi_A_upper"] == pytest.approx(
        2.8284271247, abs=1e-9
    )
    expected = json.loads((gvl_case / "expected.json").read_text())["expected"]
    assert list(report["geometry"]) == ["kappa", "theta", "cot_theta", "vds", "sigma_min"]
    assert report["geometry"]["kappa"] == pytest.approx(expected["kappa"], rel=1e-10)
    assert report["geometry"]["vds"] == pytest.approx(expected["vds"], rel=1e-10)
    assert report["estimates"]["relative"]["chi_A_upper"] == pytest.approx(
        expected["chi_A_upper"], rel=1e-10
    )


def test_analyze_keeps_the_keys_the_benchmark_reads(gvl_case, capsys):
    # perfbench's analyze checker reads these paths; renaming or dropping
    # one breaks the benchmark, not just this report
    assert run_cli("analyze", "--matrix", str(gvl_case / "A.mtx"), "--rhs", str(gvl_case / "b.txt")) == 0
    report = json.loads(capsys.readouterr().out)
    geom, relative = report["geometry"], report["estimates"]["relative"]
    values = [geom["kappa"], geom["theta"], relative["chi_A_lower"], relative["chi_A_upper"], relative["chi_b"]]
    assert all(type(value) is float for value in [*values, report["empirical"]["value"]])


def test_analyze_writes_every_float_as_a_json_float(gvl_case, capsys):
    # kappa = 2 exactly: a float that must not read back as a JSON integer
    assert run_cli("analyze", "--matrix", str(gvl_case / "A.mtx"), "--rhs", str(gvl_case / "b.txt")) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["geometry"]["kappa"] == 2.0

    def numbers(obj, path):
        if isinstance(obj, dict):
            for key, value in obj.items():
                yield from numbers(value, f"{path}.{key}")
        elif isinstance(obj, list):
            for k, value in enumerate(obj):
                yield from numbers(value, f"{path}[{k}]")
        elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
            yield path, obj

    found = dict(numbers(report, ""))
    assert {path: type(value) for path, value in found.items() if type(value) is not float} == {
        ".problem.m": int, ".problem.n": int,
    }


def test_analyze_deterministic_bytes(gvl_case, tmp_path):
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for path in paths:
        assert run_cli(
            "analyze", "--matrix", str(gvl_case / "A.mtx"), "--rhs", str(gvl_case / "b.txt"),
            "--out", str(path),
        ) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_small_run_passes(monkeypatch, capsys):
    # every suite at no more than 10 problems: a quick smoke run of all ten
    small = [(suite, min(count, 10)) for suite, count in verify.SUITES]
    monkeypatch.setattr(verify, "SUITES", small)
    assert run_cli("verify", "--seed", "1") == 0
    out = capsys.readouterr().out
    assert out.count("[ ok ]") == 10
    assert "[FAIL]" not in out


def test_verify_full_scale_within_budget(capsys):
    import time

    start = time.perf_counter()
    assert run_cli("verify", "--seed", "1") == 0
    assert time.perf_counter() - start < 60.0
    out = capsys.readouterr().out
    assert out.count("[ ok ]") == 10
    assert "[FAIL]" not in out


@pytest.mark.parametrize("seed", [57, 102])
def test_verify_adjoint_suite_passes_on_cancelling_seeds(seed):
    # on these seeds the two terms of the identity nearly cancel; the suite
    # measures the defect against their magnitudes, not against their sum.
    # verify --seed s runs this suite with seed s + 2 on 20 problems
    ok, detail = verify.adjoint_identity(seed + 2, 20)
    assert ok, detail


def _record_calls(monkeypatch, name):
    """Arguments of every call that the suites make to their function `name`."""
    calls = []
    real = getattr(verify, name)

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, name, recorded)
    return calls


def _record_objectives(monkeypatch):
    """Every adjoint whose objective the suites evaluate."""
    adjoints = []
    real = Rank2Adjoint.objective

    def recorded(adj):
        adjoints.append(adj)
        return real(adj)

    monkeypatch.setattr(Rank2Adjoint, "objective", recorded)
    return adjoints


def _unit(v):
    return v / np.linalg.norm(v)


def test_verify_block_draws_equal_per_iteration_draws(monkeypatch):
    # a block draw takes the same stream in the same order as one draw per
    # direction, so each --seed checks the directions, perturbations and
    # pairs that the one-at-a-time loops checked
    seed = 7
    adjoints = _record_calls(monkeypatch, "adjoint_rank2")
    jacobians = _record_calls(monkeypatch, "apply_residual_jacobian")
    assert verify.adjoint_identity(seed, 20)[0]
    assert len(adjoints) == len(jacobians) == 20
    rng = np.random.default_rng(seed)
    for (cache, D), (_, dA) in zip(adjoints, jacobians):
        m, n = cache.problem.m, cache.problem.n
        assert D.shape == (m, 20) and dA.shape == (20, m, n)
        for k in range(20):
            assert np.array_equal(D[:, k], _unit(rng.standard_normal(m)))
            assert np.array_equal(dA[k], rng.standard_normal((m, n)))

    builds = _record_calls(monkeypatch, "adjoint_rank2")
    objectives = _record_objectives(monkeypatch)
    assert verify.dual_norm_identity(seed, 20)[0]
    assert len(builds) == len(objectives) == 40  # each block, then its canonical form
    rng = np.random.default_rng(seed)
    for (cache, D), adj in zip(builds[::2], objectives[::2]):
        assert D.shape == (cache.problem.m, 25)
        assert np.array_equal(adj.u1, D - cache.apply_proj(D))
        for k in range(25):
            assert np.array_equal(D[:, k], _unit(rng.standard_normal(cache.problem.m)))

    batches = _record_calls(monkeypatch, "block_norm_cases")
    assert verify.block_norm_band(seed, 100)[0]
    ((pairs,),) = batches
    assert len(pairs) == 100
    rng = np.random.default_rng(seed)
    for A, B in pairs:
        rows = int(rng.integers(1, 7))
        assert np.array_equal(A, rng.standard_normal((rows, int(rng.integers(1, 5)))))
        assert np.array_equal(B, rng.standard_normal((rows, int(rng.integers(1, 5)))))
        rng.integers(0, 2**31)


def test_dual_norm_identity_builds_two_adjoints_per_problem(monkeypatch):
    # the block and its canonical form; the objective, the bounds and the
    # sign flip read an adjoint they are given
    builds = _record_calls(monkeypatch, "adjoint_rank2")
    assert verify.dual_norm_identity(11, 20)[0]
    assert len(builds) == 40
    assert [id(cache) for cache, _ in builds[::2]] == [id(cache) for cache, _ in builds[1::2]]


def test_verify_fails_on_a_perturbed_objective(monkeypatch, capsys):
    real = Rank2Adjoint.objective
    monkeypatch.setattr(Rank2Adjoint, "objective", lambda adj: real(adj) * (1.0 + 1e-9))
    assert run_cli("verify", "--seed", "1") == 1
    out = capsys.readouterr().out
    assert "[FAIL] dual-norm-identity" in out and out.count("[FAIL]") == 1


@pytest.mark.parametrize("push", ["above", "below"])
def test_verify_fails_on_a_joint_norm_outside_its_band(monkeypatch, capsys, push):
    real = verify.block_norm_cases

    def pushed(pairs):
        cases = real(pairs)
        c = cases[37]
        joint = c.norm_A + c.norm_B + 1e-5 if push == "above" else max(c.norm_A, c.norm_B) - 1e-5
        cases[37] = dataclasses.replace(c, norm_joint=joint)
        return cases

    monkeypatch.setattr(verify, "block_norm_cases", pushed)
    assert run_cli("verify", "--seed", "1") == 1
    out = capsys.readouterr().out
    assert "[FAIL] block-norm-band: joint norm" in out and out.count("[FAIL]") == 1


def test_compare_text_and_csv(gvl_case, capsys):
    assert run_cli("compare", "--matrix", str(gvl_case / "A.mtx"), "--rhs", str(gvl_case / "b.txt")) == 0
    text = capsys.readouterr().out
    assert "wedin" in text and "stewart" in text and "gvlh" in text
    assert run_cli(
        "compare", "--matrix", str(gvl_case / "A.mtx"), "--rhs", str(gvl_case / "b.txt"),
        "--format", "csv",
    ) == 0
    csv_text = capsys.readouterr().out
    header = csv_text.splitlines()[0]
    assert header == "source,value,scale_convention,ratio_to_tight,max_ratio"


def test_stdout_redirected_to_a_text_stream_gets_the_same_text(gvl_case, capsys):
    # in-process callers may swap stdout for a stream with no binary buffer
    argv = ["compare", "--matrix", str(gvl_case / "A.mtx"), "--rhs", str(gvl_case / "b.txt")]
    assert run_cli(*argv) == 0
    expected = capsys.readouterr().out
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        assert run_cli(*argv) == 0
    assert stream.getvalue() == expected


def test_sweep_gvl_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(
        "sweep", "gvl", "--param", "alpha", "--values", "0.5,0.1", "--beta", "2",
        "--phi", "0", "--out", str(out),
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "param,value,m,n,kappa,theta,vds,sigma_min,chi_b,chi_A_lower,chi_A_upper,empirical"
    assert len(lines) == 3
    kappas = [float(line.split(",")[4]) for line in lines[1:]]
    assert kappas == pytest.approx([2.0, 10.0], rel=1e-12)


def test_sweep_deterministic(tmp_path):
    outs = []
    for name in ("s1.csv", "s2.csv"):
        path = tmp_path / name
        assert run_cli(
            "sweep", "ensemble", "--param", "theta", "--values", "0.4,0.8",
            "--out", str(path),
        ) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_lanczos_csv(tmp_path):
    T_path = tmp_path / "T.mtx"
    mmio.write_matrix(T_path, np.diag([1.0, 2.0, 3.0]))
    out = tmp_path / "lanczos.csv"
    assert run_cli("lanczos", "--matrix", str(T_path), "--steps", "2", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,alpha,beta,theta,predicted_chi,orthogonality_defect,krylov_theta,breakdown"
    assert len(lines) == 3
    assert lines[1].endswith("false")


@pytest.mark.parametrize("entry", ["nan", "inf"])
def test_lanczos_rejects_a_non_finite_matrix(tmp_path, entry):
    # a NaN used to stop the SVD inside ||T||_2, an inf to warn in the recurrence
    path = tmp_path / "T.mtx"
    path.write_text(f"%%MatrixMarket matrix array real symmetric\n2 2\n{entry}\n1\n2\n")
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "lsqcond", "lanczos",
         "--matrix", str(path), "--steps", "2"],
        capture_output=True, text=True,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr == "error: matrix entries must be finite\n" and result.stdout == ""


def test_empty_text_rhs_exits_2(tmp_path):
    # exit 2 names the file; NumPy's "input contained no data" warning would
    # be a traceback with exit 1 under -W error
    mmio.write_matrix(tmp_path / "A.mtx", np.eye(3)[:, :2])
    rhs = tmp_path / "b.txt"
    rhs.write_text("")
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "lsqcond", "analyze",
         "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(rhs)],
        capture_output=True, text=True,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr == f"error: {rhs}: no values\n" and result.stdout == ""


def test_a_non_ascii_byte_in_the_matrix_body_exits_2_naming_the_file(tmp_path):
    # NumPy's parser stops at the byte 0xE9; under -W error too the exit is 2, not a traceback
    matrix = tmp_path / "A.mtx"
    matrix.write_bytes(b"%%MatrixMarket matrix array real general\n2 1\n1\n\xe9\n")
    mmio.write_vector(tmp_path / "b.txt", np.ones(2))
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "lsqcond", "analyze",
         "--matrix", str(matrix), "--rhs", str(tmp_path / "b.txt")],
        capture_output=True, text=True,
    )
    assert result.returncode == 2, result.stderr
    message = "string or file could not be read to its end due to unmatched data"
    assert result.stderr == f"error: {matrix}: {message}\n" and result.stdout == ""


def test_verify_reports_failures_with_exit_1(monkeypatch, capsys):
    def always_fails(seed, count):
        return False, "boom"

    monkeypatch.setattr(verify, "SUITES", [(always_fails, 1)])
    assert run_cli("verify") == 1
    assert "[FAIL] always-fails" in capsys.readouterr().out


def test_verify_reports_a_raising_suite_and_runs_the_rest(monkeypatch, capsys):
    def raises(seed, count):
        raise InvalidGeometry("vds = 0.0 outside [1, kappa]")

    small = [(suite, min(count, 10)) for suite, count in verify.SUITES]
    small[2] = (raises, 1)
    monkeypatch.setattr(verify, "SUITES", small)
    assert run_cli("verify", "--seed", "1") == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 10
    assert lines[2] == "[FAIL] raises: InvalidGeometry: vds = 0.0 outside [1, kappa]"
    assert sum(line.startswith("[ ok ] ") for line in lines) == 9
    assert captured.err == ""


@pytest.mark.parametrize("module", ["lsqcond.verify", "lsqcond.generators"])
def test_cli_import_does_not_load_verify(module):
    # analyze and compare neither run a suite nor generate a problem, so
    # they must not pay for those imports
    code = f"import sys, lsqcond.cli; sys.exit({module!r} in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_thread_cap_is_set_before_numpy_loads():
    # BLAS reads its thread count when numpy loads, so record the variable
    # at the moment numpy is first looked up
    code = """
import os, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Spy())
import lsqcond.cli
print(seen)
"""
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["LSQCOND_THREADS"] = "3"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['3']\n"


def test_analyze_timings_leave_the_rest_of_the_report_unchanged(gvl_case, tmp_path):
    reports = []
    for flags in ([], ["--timings"]):
        out = tmp_path / f"report{len(flags)}.json"
        assert run_cli(
            "analyze", "--matrix", str(gvl_case / "A.mtx"), "--rhs", str(gvl_case / "b.txt"),
            "--out", str(out), *flags,
        ) == 0
        reports.append(json.loads(out.read_text()))
    plain, timed = reports
    timings = timed.pop("timings")
    assert plain.pop("timings") is None
    assert timed == plain
    assert list(timings) == ["read_s", "solve_s", "total_s"]
    assert all(math.isfinite(t) and t >= 0.0 for t in timings.values())
    assert timings["read_s"] + timings["solve_s"] <= timings["total_s"]


def test_analyze_reads_each_input_file_once(gvl_case, tmp_path, monkeypatch):
    # every file read goes through open, built in or io's (pathlib's read_bytes and read_text)
    opened = collections.Counter()

    def counting_open(file, mode="r", *args, open=io.open, **kwargs):
        if "r" in mode:
            opened[os.fspath(file)] += 1
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    matrix, rhs = str(gvl_case / "A.mtx"), str(gvl_case / "b.txt")
    assert run_cli("analyze", "--matrix", matrix, "--rhs", rhs, "--out", str(tmp_path / "report.json")) == 0
    assert (opened[matrix], opened[rhs]) == (1, 1)


def test_a_file_rewritten_after_reading_keeps_the_digest_of_the_bytes_parsed(gvl_case, tmp_path, monkeypatch):
    matrix, rhs = gvl_case / "A.mtx", gvl_case / "b.txt"
    parsed = [hashlib.sha256(path.read_bytes()).hexdigest() for path in (matrix, rhs)]
    argv = ["analyze", "--matrix", str(matrix), "--rhs", str(rhs), "--out", str(tmp_path / "report.json")]
    assert run_cli(*argv) == 0
    expected = json.loads((tmp_path / "report.json").read_text())
    assert [expected["problem"]["matrix_sha256"], expected["problem"]["rhs_sha256"]] == parsed

    def read_then_rewrite(reader):
        def read(path):
            result = reader(path)
            with open(path, "ab") as fh:
                fh.write(b"\n")
            return result

        return read

    for name in ("read_matrix", "read_vector"):
        monkeypatch.setattr(mmio, name, read_then_rewrite(getattr(mmio, name)))
    assert run_cli(*argv) == 0
    assert [hashlib.sha256(path.read_bytes()).hexdigest() for path in (matrix, rhs)] != parsed
    assert json.loads((tmp_path / "report.json").read_text()) == expected


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
def test_analyze_digests_inputs_read_from_pipes(gvl_case):
    # a pipe can be read only once: a second read for the digest would hash no bytes
    paths, fds, digests = [], [], []
    for name in ("A.mtx", "b.txt"):
        data = (gvl_case / name).read_bytes()
        r, w = os.pipe()
        os.write(w, data)  # a few hundred bytes, inside the pipe's buffer
        os.close(w)
        paths.append(f"/dev/fd/{r}")
        fds.append(r)
        digests.append(hashlib.sha256(data).hexdigest())
    try:
        result = subprocess.run(
            [sys.executable, "-m", "lsqcond", "analyze", "--matrix", paths[0], "--rhs", paths[1]],
            capture_output=True, text=True, pass_fds=fds, timeout=60,
        )
    finally:
        for fd in fds:
            os.close(fd)
    assert result.returncode == 0, result.stderr
    problem = json.loads(result.stdout)["problem"]
    assert [problem["matrix_sha256"], problem["rhs_sha256"]] == digests


@pytest.mark.parametrize("preset", ["relative", "b-relative", "absolute"])
def test_analyze_all_scale_presets(gvl_case, tmp_path, preset):
    # one report carries every preset's exact value, bitwise the library's
    out = tmp_path / "report.json"
    matrix, rhs = gvl_case / "A.mtx", gvl_case / "b.txt"
    assert run_cli("analyze", "--matrix", str(matrix), "--rhs", str(rhs), "--out", str(out)) == 0
    est = json.loads(out.read_text())["estimates"][preset]
    assert est["chi_A_lower"] <= est["chi_A"] <= est["chi_A_upper"] * (1.0 + 1e-8)
    cache = solve_least_squares(LsProblem(mmio.read_matrix(matrix)[0], mmio.read_vector(rhs)[0]))
    assert est["chi_A"] == residual_condition_bounds(cache, ScaleFactors.presets(cache)[preset]).chi_A


def test_analyze_rejects_the_scales_option(gvl_case, capsys):
    # every preset is in the one report, so there is nothing to choose
    with pytest.raises(SystemExit) as exc:
        run_cli("analyze", "--matrix", str(gvl_case / "A.mtx"), "--rhs", str(gvl_case / "b.txt"),
                "--scales", "relative")
    assert exc.value.code == 2
    assert "--scales" in capsys.readouterr().err


def _scale_invariant_fields(report):
    """Every report number that scaling A or b leaves unchanged: all but
    the norms, sigma_min, the absolute estimates (their chi_A included)
    and the unscaled published values."""
    fields = {f"geometry.{k}": v for k, v in report["geometry"].items() if k != "sigma_min"}
    for preset in ("relative", "b-relative"):
        fields.update({f"{preset}.{k}": v for k, v in report["estimates"][preset].items()})
    fields.update({f"projection.{k}": v for k, v in report["projection"].items()})
    fields.update({f"empirical.{k}": report["empirical"][k] for k in ("value", "lower", "upper")})
    for row in report["prior_bounds"]:
        fields[f"{row['source']}.ratio_to_tight"] = row["ratio_to_tight"]
        fields[f"{row['source']}.max_ratio"] = row["max_ratio"]
    fields["gvlh.value"] = report["prior_bounds"][2]["value"]
    return fields


@pytest.mark.parametrize(
    "scale_A, scale_b",
    [(1e-160, 1.0), (1e160, 1e160), (1e300, 1e300), (1.0, 1e300), (1e-170, 1e-170), (1.0, 1e-300),
     (1e160, 1.0), (2.0**300, 2.0**-300)],
    ids=["A*1e-160", "Ab*1e160", "Ab*1e300", "b*1e300", "Ab*1e-170", "b*1e-300", "A*1e160", "A*2^300,b*2^-300"],
)
def test_analyze_is_scale_invariant_across_the_double_range(tmp_path, capsys, scale_A, scale_b):
    # the sums of squares behind ||b||, ||r||, ||Ax|| and ||x|| overflow or
    # underflow at these scales although the norms themselves do not
    base = tmp_path / "base"
    assert run_cli(
        "generate", "ensemble", "--m", "12", "--n", "4", "--sigmas", "1,0.1,0.01,0.001",
        "--theta", "0.7", "--mix", "0.3", "--seed", "9", "--out-dir", str(base),
    ) == 0
    mmio.write_matrix(tmp_path / "A.mtx", scale_A * mmio.read_matrix(base / "A.mtx")[0])
    mmio.write_vector(tmp_path / "b.txt", scale_b * mmio.read_vector(base / "b.txt")[0])
    reports = []
    for case in (base, tmp_path):
        out = case / "report.json"
        code = run_cli("analyze", "--matrix", str(case / "A.mtx"), "--rhs", str(case / "b.txt"), "--out", str(out))
        assert code == 0, capsys.readouterr().err
        reports.append(_scale_invariant_fields(json.loads(out.read_text())))
    expected, got = reports
    if math.log2(scale_A).is_integer() and math.log2(scale_b).is_integer():
        assert got == expected  # a power-of-two scaling is exact
    for key, value in expected.items():
        assert got[key] == pytest.approx(value, rel=1e-12), key
    assert capsys.readouterr().err == ""


def test_zero_residual_exits_3(tmp_path, capsys):
    # b inside col(A): condition numbers undefined
    mmio.write_matrix(tmp_path / "A.mtx", np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    mmio.write_vector(tmp_path / "b.txt", np.array([1.0, 2.0, 0.0]))
    code = run_cli("analyze", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.txt"))
    assert code == 3
    assert "ZeroResidual" in capsys.readouterr().err


@pytest.mark.parametrize(
    "A, b, prefix",
    [
        # ||b|| = 2.6e308 overflows although every entry is finite
        ([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], [1.5e308] * 3, "InvalidGeometry: ||b||"),
        # ||b|| is representable, but x = 1e310 (1, 1) is not
        ([[1e-10, 0.0], [0.0, 1e-10], [0.0, 0.0]], [1e300] * 3, "InvalidGeometry: ||x||"),
        # x = 1e-311 is subnormal, and the relative chi_A carries the
        # factor ||A|| / ||r|| = 1e311
        ([[1e130], [0.0], [0.0]], [1e-181, 1e-181, 0.0], "InvalidGeometry: chi_A"),
        # U^t b = 1e-200, but x = 1e-400 underflows to zero
        ([[1e200], [0.0], [0.0]], [1e-200, 1e-200, 0.0], "InvalidGeometry: ||x||"),
        # the projection's relative chi_A carries ||A|| / ||Ax|| = 1e300 times
        # kappa = 1e10; the residual's estimates are finite (the case of
        # `generate gvl --alpha 1e-10 --beta 1e-300 --phi 0`)
        ([[1.0, 0.0], [0.0, 1e-10], [0.0, 0.0]], [1e-300, 0.0, 1.0], "InvalidGeometry: chi_A = inf"),
    ],
    ids=["b", "x", "chi_A", "x-underflow", "projection-chi_A"],
)
def test_unrepresentable_norm_exits_3(tmp_path, A, b, prefix):
    mmio.write_matrix(tmp_path / "A.mtx", np.array(A))
    mmio.write_vector(tmp_path / "b.txt", np.array(b))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "lsqcond", "analyze",
         "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.txt")],
        capture_output=True, text=True,
    )
    assert result.returncode == 3, result.stderr
    assert result.stderr.startswith(prefix)
    assert "RuntimeWarning" not in result.stderr and result.stdout == ""


def test_an_overflow_confined_to_the_projection_leaves_compare_and_sweep_answering(tmp_path):
    # analyze exits 3 on this problem (test_unrepresentable_norm_exits_3),
    # but neither the published-bounds table nor a sweep row holds the
    # projection's estimates
    mmio.write_matrix(tmp_path / "A.mtx", np.array([[1.0, 0.0], [0.0, 1e-10], [0.0, 0.0]]))
    mmio.write_vector(tmp_path / "b.txt", np.array([1e-300, 0.0, 1.0]))
    files = ["--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.txt")]
    commands = {
        "compare": (["compare", *files], 4),
        "compare-csv": (["compare", *files, "--format", "csv"], 4),
        "sweep": (["sweep", "gvl", "--param", "alpha", "--values", "1e-10", "--beta", "1e-300", "--phi", "0"], 2),
    }
    for name, (args, lines) in commands.items():
        result = run_cli_process(*args)
        assert result.returncode == 0 and result.stderr == "", (name, result.stderr)
        assert len(result.stdout.splitlines()) == lines, name


def test_broken_geometry_exits_3(gvl_case, monkeypatch, capsys):
    # a numerical failure, not an I/O or parameter error
    def broken(cache):
        raise InvalidGeometry("vds = 0.0 outside [1, kappa]")

    monkeypatch.setattr(report, "geometry", broken)
    code = run_cli("analyze", "--matrix", str(gvl_case / "A.mtx"), "--rhs", str(gvl_case / "b.txt"))
    assert code == 3
    assert "InvalidGeometry" in capsys.readouterr().err


def test_sandwich_escape_exits_3(gvl_case, monkeypatch, capsys):
    # the report's own consistency check is a named error, not a traceback
    real = report.residual_condition_bounds

    def escaped(cache, scales):
        est = real(cache, scales)
        return dataclasses.replace(est, chi_A=1.01 * est.chi_A_upper)

    monkeypatch.setattr(report, "residual_condition_bounds", escaped)
    code = run_cli("analyze", "--matrix", str(gvl_case / "A.mtx"), "--rhs", str(gvl_case / "b.txt"))
    assert code == 3
    assert capsys.readouterr().err.startswith("InvalidGeometry: exact value ")


def test_sandwich_escape_under_one_preset_exits_3(gvl_case, monkeypatch, capsys):
    # the check covers every preset in the report, not only the relative one
    real = report.residual_condition_bounds

    def escaped(cache, scales):
        est = real(cache, scales)
        if scales != ScaleFactors():
            return est
        return dataclasses.replace(est, chi_A=1.01 * est.chi_A_upper)

    monkeypatch.setattr(report, "residual_condition_bounds", escaped)
    code = run_cli("analyze", "--matrix", str(gvl_case / "A.mtx"), "--rhs", str(gvl_case / "b.txt"))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("InvalidGeometry: exact value ") and "absolute" in err


def test_missing_file_exits_2(tmp_path, capsys):
    code = run_cli("analyze", "--matrix", str(tmp_path / "nope.mtx"), "--rhs", str(tmp_path / "b.txt"))
    assert code == 2
    assert capsys.readouterr().err != ""


def test_complex_matrix_exits_2(tmp_path, capsys):
    # a real reader must not drop the imaginary parts
    path = tmp_path / "C.mtx"
    path.write_text("%%MatrixMarket matrix array complex general\n3 1\n1 2\n3 4\n5 6\n")
    mmio.write_vector(tmp_path / "b.txt", np.ones(3))
    code = run_cli("analyze", "--matrix", str(path), "--rhs", str(tmp_path / "b.txt"))
    assert code == 2
    assert str(path) in capsys.readouterr().err


def run_cli_process(*args):
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "lsqcond", *args], capture_output=True, text=True
    )


@pytest.mark.parametrize(
    "body, message",
    [
        # 8e18 bytes of float64, more than any 64-bit address space holds
        ("coordinate real general\n1000000000 1000000000 1\n1 1 1.0\n", "allocate"),
        # counted before the triangle's 931 GiB of indices are built
        ("array real symmetric\n1000000 1000000\n1.0\n", "expected 500000500000 numbers after the size line, got 1"),
    ],
    ids=["coordinate", "symmetric"],
)
def test_a_matrix_too_large_for_memory_exits_2_naming_the_file(tmp_path, body, message):
    path = tmp_path / "A.mtx"
    path.write_text("%%MatrixMarket matrix " + body)
    mmio.write_vector(tmp_path / "b.txt", np.ones(3))
    result = run_cli_process("analyze", "--matrix", str(path), "--rhs", str(tmp_path / "b.txt"))
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith(f"error: {path}: ") and message in result.stderr
    assert "Traceback" not in result.stderr and result.stdout == ""


def test_an_ensemble_too_large_for_memory_exits_2_before_writing(tmp_path):
    out = tmp_path / "D"
    result = run_cli_process(
        "generate", "ensemble", "--m", "1000000000000000000", "--n", "1", "--sigmas", "1", "--theta", "0.5",
        "--out-dir", str(out),
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr
    assert not out.exists()


def test_rank_deficient_exits_3(tmp_path, capsys):
    mmio.write_matrix(tmp_path / "A.mtx", np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]))
    mmio.write_vector(tmp_path / "b.txt", np.ones(3))
    code = run_cli("analyze", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.txt"))
    assert code == 3
    assert "NonFullRank" in capsys.readouterr().err


def test_bad_generator_parameter_exits_2(tmp_path, capsys):
    code = run_cli("generate", "gvl", "--alpha", "2.0", "--beta", "1", "--phi", "0",
                   "--out-dir", str(tmp_path / "x"))
    assert code == 2
    assert "ParamOutOfRange" in capsys.readouterr().err


GVL_OUT_OF_RANGE = {
    # every comparison with a NaN is false, so a range check must not let one through
    "nan-epsilon": ("--alpha", "0.5", "--beta", "2", "--phi", "0", "--eps", "nan"),
    "inf-beta": ("--alpha", "0.5", "--beta", "inf", "--phi", "0"),
    "record-overflow": ("--alpha", "1e-300", "--beta", "1e300", "--phi", "0.5"),  # chi_A_upper ~ beta / alpha
    "inf-kappa": ("--alpha", "1e-320", "--beta", "1", "--phi", "0"),  # kappa = 1/alpha
}


@pytest.mark.parametrize("params", list(GVL_OUT_OF_RANGE.values()), ids=list(GVL_OUT_OF_RANGE))
def test_gvl_out_of_range_exits_2_before_writing(tmp_path, capsys, params):
    code = run_cli("generate", "gvl", *params, "--out-dir", str(tmp_path / "x"))
    assert code == 2
    assert capsys.readouterr().err.startswith("ParamOutOfRange:")
    assert list(tmp_path.iterdir()) == []


def test_gvl_record_with_a_large_quotient_exits_0(tmp_path):
    # beta / alpha overflows, but no value of the record does
    out = tmp_path / "case"
    code = run_cli("generate", "gvl", "--alpha", "1e-300", "--beta", "1e10", "--phi", "1e-300", "--out-dir", str(out))
    assert code == 0
    assert json.loads((out / "expected.json").read_text())["expected"]["x"] == [1e10, 1e10]


def test_sweep_gvl_with_a_large_quotient_reaches_the_solver(capsys):
    # kappa = 1e300: a numerical failure, no longer a parameter error
    code = run_cli("sweep", "gvl", "--param", "beta", "--values", "1e10", "--alpha", "1e-300", "--phi", "1e-300")
    assert code == 3
    assert capsys.readouterr().err.startswith("NonFullRank:")


# the exit status of each library error: a usage or input-shape error is 2, a
# failed numerical precondition or invariant 3
EXIT_CODES = {
    "DegenerateDirection": 3,
    "DimensionMismatch": 2,
    "InvalidGeometry": 3,
    "LsqCondError": 3,
    "NonFullRank": 3,
    "ParamOutOfRange": 2,
    "ZeroResidual": 3,
    "ZeroSolution": 3,
}


def test_every_error_carries_its_exit_code():
    defined = {name: obj for name, obj in vars(errors).items() if isinstance(obj, type)}
    assert {name: error.exit_code for name, error in defined.items() if issubclass(error, LsqCondError)} == EXIT_CODES


@pytest.mark.parametrize("name", list(EXIT_CODES))
def test_cli_exits_with_the_error_exit_code(gvl_case, monkeypatch, capsys, name):
    error = getattr(errors, name)
    assert error.exit_code == EXIT_CODES[name]

    def failing(args):
        raise error("probe")

    monkeypatch.setattr(cli, "_cmd_analyze", failing)
    code = run_cli("analyze", "--matrix", str(gvl_case / "A.mtx"), "--rhs", str(gvl_case / "b.txt"))
    assert code == EXIT_CODES[name]
    assert capsys.readouterr().err == f"{name}: probe\n"


def test_sweep_gvl_record_overflow_exits_2(capsys):
    code = run_cli("sweep", "gvl", "--param", "beta", "--values", "1e300", "--alpha", "1e-300", "--phi", "0.5")
    assert code == 2
    assert capsys.readouterr().err.startswith("ParamOutOfRange:")


def test_analyze_rhs_of_the_wrong_length_exits_2(tmp_path, capsys):
    mmio.write_matrix(tmp_path / "A.mtx", np.eye(3)[:, :2])
    mmio.write_vector(tmp_path / "b.txt", np.ones(2))
    code = run_cli("analyze", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.txt"))
    assert code == 2
    assert capsys.readouterr().err == "DimensionMismatch: rhs has length 2, expected 3\n"


@pytest.mark.parametrize("shape", [(2, 3), (0, 0)], ids=["2x3", "empty"])
def test_lanczos_on_a_matrix_that_is_not_square_exits_2(tmp_path, shape):
    path = tmp_path / "T.mtx"
    mmio.write_matrix(path, np.ones(shape))
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "lsqcond", "lanczos", "--matrix", str(path), "--steps", "2"],
        capture_output=True, text=True,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr == f"DimensionMismatch: matrix must be square and non-empty, got shape {shape}\n"
    assert result.stdout == ""


@pytest.mark.parametrize(
    ("argv", "seed"),
    [
        (["generate", "ensemble", "--m", "12", "--n", "4", "--sigmas", "1,0.1,0.01,0.001", "--theta", "0.7",
          "--out-dir", "out"], "-1"),
        (["sweep", "ensemble", "--param", "theta", "--values", "0.4,0.8", "--out", "out"], "-2"),
    ],
    ids=["generate", "sweep"],
)
def test_a_negative_ensemble_seed_exits_2_naming_it(tmp_path, monkeypatch, capsys, argv, seed):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv, "--seed", seed) == 2
    captured = capsys.readouterr()
    assert captured.err == f"ParamOutOfRange: seed must be non-negative, got {seed}\n"
    assert captured.out == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    ("argv", "option", "text"),
    [
        (["sweep", "ensemble", "--param", "theta", "--values", ""], "--values", ""),
        (["sweep", "gvl", "--param", "alpha", "--values", "0.5,,0.1"], "--values", "0.5,,0.1"),
        (["generate", "ensemble", "--m", "12", "--n", "2", "--sigmas", "1,x", "--theta", "0.7", "--out-dir", "out"],
         "--sigmas", "1,x"),
    ],
    ids=["empty-values", "empty-entry", "sigmas"],
)
def test_a_bad_list_option_exits_2_naming_it(tmp_path, monkeypatch, capsys, argv, option, text):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"ParamOutOfRange: {option} must be comma-separated numbers, got {text!r}\n"
    assert captured.out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["analyze"], ["compare"], ["compare", "--format", "csv"]], ids=" ".join)
def test_an_overflowing_published_value_exits_3_naming_it(tmp_path, argv):
    # full rank and every ConditionEstimates finite, but Stewart's
    # ||b|| / sigma_min = 1e299 / 1e-10 overflows
    mmio.write_matrix(tmp_path / "A.mtx", np.array([[1.0, 0.0], [0.0, 1e-10], [0.0, 0.0]]))
    mmio.write_vector(tmp_path / "b.txt", np.array([1e299, 0.0, 1e290]))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "lsqcond", *argv,
         "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.txt")],
        capture_output=True, text=True,
    )
    assert result.returncode == 3, result.stderr
    assert result.stderr == "InvalidGeometry: stewart value = inf is not a positive finite double\n"
    assert result.stdout == ""


def test_verify_rejects_a_negative_seed_before_any_suite(monkeypatch, capsys):
    def runs(seed, count):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verify, "SUITES", [(runs, 1)])
    assert run_cli("verify", "--seed", "-1") == 2
    captured = capsys.readouterr()
    assert captured.err == "ParamOutOfRange: --seed must be non-negative, got -1\n" and captured.out == ""


def test_module_entry_point(tmp_path):
    out = tmp_path / "case"
    result = subprocess.run(
        [sys.executable, "-m", "lsqcond", "generate", "gvl", "--alpha", "0.5",
         "--beta", "2", "--phi", "0", "--out-dir", str(out)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert (out / "A.mtx").exists()


def test_main_in_process_leaves_the_collector_alone(tmp_path, monkeypatch, capsys):
    # only lsqcond.__main__.run freezes; library and test callers keep their GC state
    monkeypatch.setattr(verify, "SUITES", [(suite, min(count, 2)) for suite, count in verify.SUITES])
    before = gc.isenabled(), gc.get_freeze_count()
    assert run_cli("generate", "gvl", "--alpha", "0.5", "--beta", "2", "--phi", "0", "--out-dir", str(tmp_path)) == 0
    assert run_cli("analyze", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.txt")) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before
    assert run_cli("verify", "--seed", "1") == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_run_freezes_the_collector_once_the_command_is_done(tmp_path):
    # the console script imports lsqcond.__main__ and calls run()
    code = (
        "import gc, sys; from lsqcond.__main__ import run; "
        "sys.argv = ['lsqcond', 'generate', 'gvl', '--alpha', '0.5', '--beta', '2', '--phi', '0', "
        f"'--out-dir', {str(tmp_path / 'case')!r}]; "
        "assert gc.get_freeze_count() == 0; status = run(); print(status, gc.get_freeze_count() > 0)"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0 True\n"


def _theta_values(count):
    return ",".join(repr(0.1 + 1.3 * i / (count - 1)) for i in range(count))


def test_sweep_to_a_pipe_matches_the_out_file(tmp_path):
    values = _theta_values(200)
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "ensemble", "--param", "theta", "--values", values, "--out", str(out)) == 0
    result = subprocess.run(
        [sys.executable, "-m", "lsqcond", "sweep", "ensemble", "--param", "theta", "--values", values],
        capture_output=True,
    )
    assert result.returncode == 0 and result.stderr == b""
    assert result.stdout.count(b"\n") == 201
    assert result.stdout == out.read_bytes()


def _stdout_env(unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_pipe_exits_2_with_one_error_line(unbuffered):
    # 2,000 rows fill the pipe; the reader takes one line and goes away.
    # Unbuffered, stdout writes to the raw file, which may take only part
    with subprocess.Popen(
        [sys.executable, "-m", "lsqcond", "sweep", "ensemble", "--param", "theta", "--values", _theta_values(2000)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_stdout_env(unbuffered),
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
    assert first.startswith(b"param,value,")
    assert proc.returncode == 2
    assert stderr == b"error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["verify", "compare"])
def test_a_pipe_closed_before_a_short_output_exits_2_with_one_error_line(command, unbuffered, gvl_case):
    # the output fits stdout's buffer, so a buffered write would hold it
    # for the interpreter's last flush; the reader is gone before any write
    if command == "verify":
        argv = ["verify", "--seed", "1"]
    else:
        argv = ["compare", "--matrix", str(gvl_case / "A.mtx"), "--rhs", str(gvl_case / "b.txt")]
    r, w = os.pipe()
    os.close(r)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "lsqcond", *argv],
            stdout=w, stderr=subprocess.PIPE, env=_stdout_env(unbuffered), timeout=60,
        )
    finally:
        os.close(w)
    assert result.returncode == 2
    assert result.stderr == b"error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_non_blocking_stdout_that_fills_exits_2(unbuffered):
    # nobody reads the pipe, so it fills; the write then fails with EAGAIN,
    # which must end the command instead of being retried forever
    r, w = os.pipe()
    os.set_blocking(w, False)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "lsqcond", "sweep", "ensemble", "--param", "theta", "--values", _theta_values(2000)],
            stdout=w, stderr=subprocess.PIPE, env=_stdout_env(unbuffered), timeout=60,
        )
    finally:
        os.close(w)
        os.close(r)
    assert result.returncode == 2
    assert result.stderr == f"error: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n".encode()


def test_a_usage_error_exits_2_through_run():
    result = subprocess.run([sys.executable, "-m", "lsqcond", "analyze"], capture_output=True, text=True)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith("usage: lsqcond analyze")
    assert "the following arguments are required: --matrix, --rhs" in result.stderr
