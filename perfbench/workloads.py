"""The three benchmark workloads: seeded inputs, the CLI op, and its checker.

Each workload turns the benchmark seed into the only inputs the program
sees, names the `lsqcond` argv of one op, states how many problems one op
completes, and checks an op's output against the benchmark's own
expectations. A checker returns a list of mismatch descriptions; an empty
list means the op's output is correct.

NumPy is imported inside functions so that the caller can pin the BLAS
thread count before the first import.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

# Relative tolerance of every identity and reference comparison below. At
# the commit that introduced the benchmark all of them hold to ~1e-13, and
# a 1e-6 relative error in any checked value is caught.
RTOL = 1e-9
# the empirical value may exceed chi_A_upper by this relative slack, the
# same slack the program's own report check allows
EMPIRICAL_SLACK = 1e-8

TALL_M, TALL_N, TALL_KAPPA = 5000, 50, 1e4
SWEEP_POINTS = 200
THETA_RANGE = (0.05, 1.52)
SWEEP_SIGMAS = "1,0.1,0.01,0.001"
SWEEP_KAPPA = 1000.0
# Instances the ten verify suites build at their defaults (200 problems):
# 100 + 200 + 20 + 20 + 25 + 50 + 100 + 50 + 50 least squares problems and
# 100 block-norm cases.
VERIFY_PROBLEMS = 715


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _haar(rng, rows: int, cols: int):
    import numpy as np

    Q, R = np.linalg.qr(rng.standard_normal((rows, cols)))
    return Q * np.where(np.diag(R) < 0.0, -1.0, 1.0)


class Workload:
    """One op's inputs under `workdir` and its output: the file `out`, or
    the op's stdout when `out` is None."""

    name: str
    problems_per_op: int
    out: Path | None = None

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def write_inputs(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)

    def reference(self) -> dict:
        return {}

    def clear_output(self) -> None:
        if self.out is not None:
            self.out.unlink(missing_ok=True)

    def output(self, stdout: str) -> str:
        if self.out is None:
            return stdout
        return self.out.read_text(encoding="ascii") if self.out.exists() else ""


class AnalyzeTall(Workload):
    """`lsqcond analyze` on one 5000x50 problem read from files."""

    name = "analyze-tall"
    problems_per_op = 1

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.matrix = workdir / "A.mtx"
        self.rhs = workdir / "b.txt"
        self.out = workdir / "report.json"
        self.A = self.b = None

    def write_inputs(self) -> None:
        """A = U diag(s) V^t with geometric s from 1 to 1/kappa, and
        b = cos(theta) uhat + sin(theta) w with w orthogonal to col(A);
        theta and the alignment of uhat between the extreme left singular
        vectors are drawn from the seed."""
        import numpy as np

        rng = np.random.default_rng([self.seed, 1])
        m, n = TALL_M, TALL_N
        U = _haar(rng, m, n)
        V = _haar(rng, n, n)
        A = (U * np.geomspace(1.0, 1.0 / TALL_KAPPA, n)) @ V.T
        theta = rng.uniform(*THETA_RANGE)
        t = rng.uniform(0.0, 1.0) * math.pi / 2.0
        uhat = math.cos(t) * U[:, 0] + math.sin(t) * U[:, -1]
        z = rng.standard_normal(m)
        w = z - U @ (U.T @ z)
        b = math.cos(theta) * uhat + math.sin(theta) * w / np.linalg.norm(w)
        super().write_inputs()
        # repr() round-trips a double, so the program parses exactly A and b
        with open(self.matrix, "w", encoding="ascii") as fh:
            fh.write(f"%%MatrixMarket matrix array real general\n{m} {n}\n")
            fh.write("\n".join(map(repr, A.ravel(order="F").tolist())) + "\n")
        with open(self.rhs, "w", encoding="ascii") as fh:
            fh.write("\n".join(map(repr, b.tolist())) + "\n")
        self.A, self.b = A, b

    def argv(self) -> list[str]:
        return ["analyze", "--matrix", str(self.matrix), "--rhs", str(self.rhs), "--out", str(self.out)]

    def reference(self) -> dict:
        """Geometry and relative-scale estimates from a NumPy SVD of A, b."""
        import numpy as np

        U, s, Vt = np.linalg.svd(self.A, full_matrices=False)
        x = Vt.T @ ((U.T @ self.b) / s)
        Ax = self.A @ x
        nr, nax, nx = (float(np.linalg.norm(v)) for v in (self.b - Ax, Ax, x))
        return {
            "kappa": float(s[0] / s[-1]),
            "theta": math.atan2(nr, nax),
            "chi_A_upper": float(s[0]) / nr * math.hypot(nr / float(s[-1]), nx),
            "chi_b": float(np.linalg.norm(self.b)) / nr,
        }

    @staticmethod
    def check(returncode: int, output: str, ref: dict) -> list[str]:
        if returncode != 0:
            return [f"exit code {returncode}"]
        try:
            rep = json.loads(output)
            got = {
                "kappa": rep["geometry"]["kappa"],
                "theta": rep["geometry"]["theta"],
                "chi_A_upper": rep["estimates"]["relative"]["chi_A_upper"],
                "chi_b": rep["estimates"]["relative"]["chi_b"],
            }
            lower = rep["estimates"]["relative"]["chi_A_lower"]
            empirical = rep["empirical"]["value"]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable report: {exc!r}"]
        bad = [
            f"{key} = {got[key]!r}, reference {ref[key]!r}"
            for key in ref
            if not _rel(got[key], ref[key]) <= RTOL
        ]
        if not lower <= empirical <= got["chi_A_upper"] * (1.0 + EMPIRICAL_SLACK):
            bad.append(f"empirical {empirical!r} outside [{lower!r}, {got['chi_A_upper']!r}]")
        return bad


class SweepEnsemble(Workload):
    """`lsqcond sweep ensemble --param theta` over 200 seeded angles."""

    name = "sweep-ensemble"
    problems_per_op = SWEEP_POINTS

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.out = workdir / "sweep.csv"
        self.thetas: list[float] = []

    def write_inputs(self) -> None:
        import numpy as np

        rng = np.random.default_rng([self.seed, 2])
        self.thetas = rng.uniform(*THETA_RANGE, SWEEP_POINTS).tolist()
        super().write_inputs()

    def argv(self) -> list[str]:
        return [
            "sweep", "ensemble", "--param", "theta",
            "--values", ",".join(map(repr, self.thetas)),
            "--sigmas", SWEEP_SIGMAS, "--seed", str(self.seed), "--out", str(self.out),
        ]  # fmt: skip

    def reference(self) -> dict:
        return {"thetas": list(self.thetas)}

    @staticmethod
    def check(returncode: int, output: str, ref: dict) -> list[str]:
        if returncode != 0:
            return [f"exit code {returncode}"]
        rows = list(csv.DictReader(io.StringIO(output)))
        thetas = ref["thetas"]
        if len(rows) != len(thetas):
            return [f"{len(rows)} rows, expected {len(thetas)}"]
        bad = []
        for k, (row, requested) in enumerate(zip(rows, thetas)):
            try:
                v = {key: float(row[key]) for key in (
                    "value", "kappa", "theta", "vds", "chi_b", "chi_A_lower", "chi_A_upper", "empirical",
                )}  # fmt: skip
            except (KeyError, TypeError, ValueError) as exc:
                return [f"row {k}: unreadable ({exc!r})"]
            kappa, theta, vds = v["kappa"], v["theta"], v["vds"]
            defects = {
                "value": _rel(v["value"], requested),
                "theta": _rel(theta, requested),
                "kappa": _rel(kappa, SWEEP_KAPPA),
                "chi_b*sin(theta)": _rel(v["chi_b"] * math.sin(theta), 1.0),
                "upper/lower": _rel(v["chi_A_upper"], math.sqrt(2.0) * v["chi_A_lower"]),
                "upper formula": _rel(
                    v["chi_A_upper"], kappa * math.sqrt(1.0 + (1.0 / math.tan(theta) / vds) ** 2)
                ),
            }
            bad += [f"row {k}: {name} defect {d:.3e}" for name, d in defects.items() if not d <= RTOL]
            if not 1.0 - RTOL <= vds <= kappa * (1.0 + RTOL):
                bad.append(f"row {k}: vds {vds!r} outside [1, kappa]")
            if not v["chi_A_lower"] <= v["empirical"] <= v["chi_A_upper"] * (1.0 + EMPIRICAL_SLACK):
                bad.append(f"row {k}: empirical {v['empirical']!r} outside the sandwich")
        return bad


class Verify(Workload):
    """`lsqcond verify` with the default 200 problems and 2000 samples."""

    name = "verify"
    problems_per_op = VERIFY_PROBLEMS

    def argv(self) -> list[str]:
        return ["verify", "--seed", str(self.seed)]

    @staticmethod
    def check(returncode: int, output: str, ref: dict) -> list[str]:
        lines = [line for line in output.splitlines() if line.strip()]
        bad = [f"suite line not ok: {line}" for line in lines if not line.startswith("[ ok ] ")]
        if not lines:
            bad.append("no suite lines")
        if returncode != 0:
            bad.insert(0, f"exit code {returncode}")
        return bad


WORKLOADS = {cls.name: cls for cls in (AnalyzeTall, SweepEnsemble, Verify)}
