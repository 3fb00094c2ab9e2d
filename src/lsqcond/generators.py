"""Test-problem generators with analytic ground truth.

Covers the parametric 3x2 family (a diagonal matrix with tunable
conditioning, angle, and alignment, after the classic Golub & Van Loan
textbook example), seeded random ensembles with prescribed singular values
and angle, a Lanczos projection demo, column equilibration, and the exact
two-block joint norm behind the joint-versus-separate condition number
inequalities (block_norm_cases).

The module builds problems and solves them; it computes no condition
number, so it imports only core and errors.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .core import LsProblem, geometry, solve_least_squares
from .errors import (
    DimensionMismatch,
    NonFullRank,
    ParamOutOfRange,
    ZeroColumn,
    ZeroResidual,
    ZeroSolution,
)


# eq=False: identity equality and hash, since generated ones would compare arrays
@dataclass(frozen=True, eq=False)
class GvlExpected:
    """Closed-form reference values for the parametric example."""

    x: np.ndarray
    r: np.ndarray
    kappa: float
    vds: float
    cot_theta: float
    chi_A_upper: float
    dr_rel_first_order: float  # predicted ||dr|| / ||r|| for the bundled dA


# eq=False: identity equality and hash, since generated ones would compare arrays
@dataclass(frozen=True, eq=False)
class GvlExample:
    """The 3x2 parametric problem with its perturbation and analytic record.

    A = [[1, 0], [0, alpha], [0, 0]], b = (beta cos phi, beta sin phi, 1),
    delta_A puts (-eps, -eps) in the last row. kappa = 1/alpha,
    cot(theta) = beta, and phi steers the alignment ratio between 1 and
    kappa. The parameters themselves are not stored; they are the
    arguments of gvl_example.
    """

    problem: LsProblem
    delta_A: np.ndarray
    expected: GvlExpected


def gvl_example(alpha: float, beta: float, phi: float, epsilon: float = 0.0) -> GvlExample:
    """Construct the parametric example and its analytic expected record.

    Requires 0 < alpha < 1, 0 < beta < inf, phi in [0, pi/2], and
    epsilon = 0 or 0 < epsilon < 1e-2 * min(alpha, beta) so the
    perturbation stays well inside the first-order regime; a NaN is
    rejected with the rest, and so are parameters whose record overflows.
    """
    if not 0.0 < alpha < 1.0:
        raise ParamOutOfRange(f"alpha must be in (0, 1), got {alpha}")
    if not 0.0 < beta < math.inf:
        raise ParamOutOfRange(f"beta must be positive and finite, got {beta}")
    if not 0.0 <= phi <= math.pi / 2.0:
        raise ParamOutOfRange(f"phi must be in [0, pi/2], got {phi}")
    if not (epsilon == 0.0 or 0.0 < epsilon < 1e-2 * min(alpha, beta)):
        raise ParamOutOfRange(f"epsilon = {epsilon} not in [0, 1e-2 * min(alpha, beta))")

    A = np.array([[1.0, 0.0], [0.0, alpha], [0.0, 0.0]])
    b = np.array([beta * math.cos(phi), beta * math.sin(phi), 1.0])
    dA = np.array([[0.0, 0.0], [0.0, 0.0], [-epsilon, -epsilon]])

    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    expected = GvlExpected(
        x=np.array([beta * cos_phi, beta * sin_phi / alpha]),
        r=np.array([0.0, 0.0, 1.0]),
        kappa=1.0 / alpha,
        vds=1.0 / math.hypot(alpha * cos_phi, sin_phi),
        cot_theta=beta,
        chi_A_upper=(1.0 / alpha) * math.hypot(1.0, alpha * beta * cos_phi, beta * sin_phi),
        dr_rel_first_order=(1.0 / alpha)
        * math.hypot(1.0, alpha, alpha * beta * cos_phi + beta * sin_phi)
        * epsilon,
    )
    # float arithmetic overflows quietly to inf (and inf * 0 to nan); hypot never raises
    if not np.isfinite(np.hstack(astuple(expected))).all():
        raise ParamOutOfRange(f"analytic record overflows at alpha={alpha}, beta={beta}, phi={phi}")
    return GvlExample(LsProblem(A, b), dA, expected)


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for a seeded random problem with prescribed spectrum and angle.

    mix steers the alignment ratio: 0 puts the projection of b along the
    top left singular vector (ratio near kappa), 1 along the bottom one
    (ratio near 1), interpolating spherically in between.
    """

    m: int
    n: int
    singular_values: tuple[float, ...]
    theta: float
    mix: float
    seed: int

    def __post_init__(self):
        if not self.n >= 1 or not self.m >= self.n + 1:
            raise ParamOutOfRange(f"need m >= n + 1 >= 2, got m={self.m}, n={self.n}")
        try:
            sv = tuple(float(s) for s in self.singular_values)
        except (TypeError, ValueError):
            sv = ()
        if len(sv) != self.n or not all(0.0 < s < math.inf for s in sv):
            raise ParamOutOfRange(f"need {self.n} positive singular values")
        if not 0.0 < self.theta < math.pi / 2.0:
            raise ParamOutOfRange(f"theta must be in (0, pi/2), got {self.theta}")
        if not 0.0 <= self.mix <= 1.0:
            raise ParamOutOfRange(f"mix must be in [0, 1], got {self.mix}")
        object.__setattr__(self, "singular_values", sv)


def _haar_orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    Z = rng.standard_normal((rows, cols))
    Q, R = np.linalg.qr(Z)
    # sign fix makes the factor unique, hence bit-reproducible per seed
    return Q * np.where(np.diag(R) < 0.0, -1.0, 1.0)


def random_problem(spec: EnsembleSpec) -> LsProblem:
    """Build A = U diag(sigma) V^t and b = cos(theta) uhat + sin(theta) what.

    uhat interpolates between the extreme left singular vectors per
    spec.mix; what is a seeded random unit vector orthogonal to col(A).
    The construction reproduces the prescribed singular values to 1e-12
    and the target angle to 1e-10; ||b|| = 1.
    """
    sv = np.sort(np.asarray(spec.singular_values, dtype=float))[::-1]
    rng = np.random.default_rng(spec.seed)
    U = _haar_orthonormal(rng, spec.m, spec.n)
    V = _haar_orthonormal(rng, spec.n, spec.n)
    A = (U * sv) @ V.T

    t = spec.mix * math.pi / 2.0
    uhat = U[:, 0] if spec.n == 1 else math.cos(t) * U[:, 0] + math.sin(t) * U[:, -1]
    for _ in range(64):
        z = rng.standard_normal(spec.m)
        w = z - U @ (U.T @ z)
        nw = np.linalg.norm(w)
        if nw > 1e-8 * np.linalg.norm(z):
            break
    else:  # pragma: no cover - probability zero for m > n
        raise ParamOutOfRange("could not draw a direction orthogonal to col(A)")
    b = math.cos(spec.theta) * uhat + math.sin(spec.theta) * (w / nw)
    return LsProblem(A, b)


def _geometric(stop: float, n: int) -> tuple[float, ...]:
    """n >= 2 values from 1 to stop in geometric progression, bitwise equal
    to np.geomspace(1.0, stop, n) (the same arithmetic without its
    general-purpose overhead)."""
    sv = 10.0 ** (np.arange(n) * (float(np.log10(stop)) / (n - 1)))
    sv[0], sv[-1] = 1.0, stop
    return tuple(sv.tolist())


ENSEMBLE_MAX_M = 30
ENSEMBLE_MAX_N = 10


def ensemble_specs(
    count: int,
    seed: int,
    max_kappa_exp: float = 6.0,
    theta_range: tuple[float, float] = (0.05, math.pi / 2.0 - 0.05),
) -> list[EnsembleSpec]:
    """Seeded stream of problem recipes covering sizes, conditioning, and angles.

    Sizes n <= ENSEMBLE_MAX_N and n < m <= ENSEMBLE_MAX_M; condition
    numbers range up to 10**max_kappa_exp via geometrically spaced singular
    values.
    """
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        n = int(rng.integers(1, ENSEMBLE_MAX_N + 1))
        m = int(rng.integers(n + 1, ENSEMBLE_MAX_M + 1))
        if n == 1:
            sv: tuple[float, ...] = (1.0,)
        else:
            sv = _geometric(10.0 ** -rng.uniform(0.0, max_kappa_exp), n)
        specs.append(
            EnsembleSpec(
                m=m,
                n=n,
                singular_values=sv,
                theta=float(rng.uniform(*theta_range)),
                mix=float(rng.uniform(0.0, 1.0)),
                seed=int(rng.integers(0, 2**31)),
            )
        )
    return specs


@dataclass(frozen=True)
class LanczosStep:
    """Per-step record of the three-term recurrence viewed as a projection.

    theta is the angle between T v_j and the span of the one or two most
    recent basis vectors; predicted_chi = csc(theta) is the condition
    estimate for an orthonormal basis. krylov_theta is the auxiliary angle
    to the full basis built so far. On breakdown the angles are NaN.
    """

    step: int
    alpha: float
    beta: float
    theta: float
    predicted_chi: float
    orthogonality_defect: float
    krylov_theta: float
    breakdown: bool


def lanczos_demo(T: np.ndarray, v1: np.ndarray, steps: int) -> list[LanczosStep]:
    """Run the symmetric three-term recurrence and rate each step's projection.

    Each step projects b = T v_j onto span{v_{j-1}, v_j} (just {v_1} at the
    first step) and records the angle, its cosecant, and the worst
    pairwise inner product among all basis vectors so far. Iteration stops
    after recording a step whose new off-span component has norm at most
    1e-12 ||T||_2; breakdown is reported, not raised.
    """
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got shape {T.shape}")
    if not np.isfinite(T).all():
        raise ValueError("matrix entries must be finite")
    norm_T = float(np.linalg.norm(T, 2))
    if norm_T > 0.0 and float(np.linalg.norm(T - T.T, 2)) > 1e-12 * norm_T:
        raise ParamOutOfRange("matrix must be symmetric to 1e-12 relative")
    v = np.asarray(v1, dtype=float).ravel()
    if v.shape != (T.shape[0],):
        raise DimensionMismatch(f"start vector length {v.size} != {T.shape[0]}")
    if abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise ParamOutOfRange("start vector must have unit norm")
    if steps < 1:
        raise ParamOutOfRange("need at least one step")

    basis = [v.copy()]
    v_prev = np.zeros_like(v)
    beta_prev = 0.0
    records: list[LanczosStep] = []
    for j in range(1, steps + 1):
        u = T @ v
        alpha = float(v @ u)
        w = u - alpha * v - beta_prev * v_prev
        beta_next = float(np.linalg.norm(w))
        breakdown = beta_next <= 1e-12 * norm_T

        A_local = v[:, None] if j == 1 else np.column_stack([v_prev, v])
        theta = chi = math.nan
        if not breakdown:
            try:
                geom = geometry(solve_least_squares(LsProblem(A_local, u)))
                theta = geom.theta
                chi = 1.0 / math.sin(theta)
            except (NonFullRank, ZeroResidual, ZeroSolution):
                breakdown = True

        W = np.column_stack(basis)
        G = np.abs(W.T @ W - np.eye(W.shape[1]))
        defect = float(G.max()) if W.shape[1] > 1 else 0.0

        Q, _ = np.linalg.qr(W)
        proj = Q @ (Q.T @ u)
        krylov_theta = math.atan2(float(np.linalg.norm(u - proj)), float(np.linalg.norm(proj)))

        records.append(
            LanczosStep(
                step=j,
                alpha=alpha,
                beta=beta_next,
                theta=theta,
                predicted_chi=chi,
                orthogonality_defect=defect,
                krylov_theta=krylov_theta,
                breakdown=breakdown,
            )
        )
        if breakdown:
            break
        v_next = w / beta_next
        basis.append(v_next)
        v_prev, v, beta_prev = v, v_next, beta_next
    return records


def equilibrate_columns(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal entries d with d_j = 1 / ||A e_j||_2 and the scaled matrix A diag(d).

    Every column of the result has unit 2-norm. Raises ZeroColumn when a
    column vanishes.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise DimensionMismatch(f"matrix must be 2-D, got shape {A.shape}")
    norms = np.linalg.norm(A, axis=0)
    if np.any(norms == 0.0):
        raise ZeroColumn(f"columns {np.flatnonzero(norms == 0.0).tolist()} are zero")
    d = 1.0 / norms
    return d, A * d


@dataclass(frozen=True)
class BlockNormCase:
    """The norm of [A B] induced by the max-of-norms domain norm, with its
    components.

    The joint norm always satisfies max(||A||, ||B||) <= ||[A B]|| <=
    ||A|| + ||B||, so the sum overestimates it by at most a factor of 2.
    """

    norm_A: float
    norm_B: float
    norm_joint: float


def _spectral(M: np.ndarray) -> float:
    return float(np.linalg.norm(M, 2)) if M.size else 0.0


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def block_norm_cases(pairs: list[tuple[np.ndarray, np.ndarray]]) -> list[BlockNormCase]:
    """Exact max ||A u + B v||_2 over max(||u||, ||v||) = 1, for each pair (A, B).

    By duality the maximum is max over unit w of ||A^t w|| + ||B^t w||.
    Writing (alpha + beta)^2 = min over 0 < t < 1 of
    alpha^2 / t + beta^2 / (1 - t) and swapping the max and the min gives

        ||[A B]||^2 = min over 0 < t < 1 of lambda_max(A A^t / t + B B^t / (1 - t)).

    The swap is exact: this is the dual of a semidefinite relaxation with
    two constraints, which has a rank-one optimum (Pataki 1998). Every t
    gives an upper bound, and the objective is convex in t and unbounded at
    both ends, so a golden-section search brackets the minimizer to 1e-15.
    A zero block leaves the other block's norm.

    The searches of all pairs run in lockstep, one stacked eigvalsh per
    step: the Gram matrices are padded with zeros to a common size, which
    leaves lambda_max unchanged, and a pair whose bracket is already
    narrower than 1e-15 stops moving, so each pair takes the steps of its
    own search.
    """
    cases = []
    searches = []  # (index into cases, scale, scaled Gram matrices of A and B)
    for A, B in pairs:
        A = np.atleast_2d(np.asarray(A, dtype=float))
        B = np.atleast_2d(np.asarray(B, dtype=float))
        if A.shape[0] != B.shape[0]:
            raise DimensionMismatch(f"row counts {A.shape[0]} and {B.shape[0]} differ")
        if not (np.isfinite(A).all() and np.isfinite(B).all()):
            raise ValueError("block entries must be finite")
        norm_A, norm_B = _spectral(A), _spectral(B)
        cases.append(BlockNormCase(norm_A=norm_A, norm_B=norm_B, norm_joint=max(norm_A, norm_B)))
        if norm_A > 0.0 and norm_B > 0.0:
            # blocks scaled to norm at most 1, so the Grams cannot overflow
            scale = max(norm_A, norm_B)
            searches.append((len(cases) - 1, scale, (A / scale) @ (A / scale).T, (B / scale) @ (B / scale).T))
    if not searches:
        return cases
    size = max(ga.shape[0] for _, _, ga, _ in searches)
    GA = np.zeros((len(searches), size, size))
    GB = np.zeros_like(GA)
    for k, (_, _, ga, gb) in enumerate(searches):
        GA[k, : ga.shape[0], : ga.shape[0]] = ga
        GB[k, : gb.shape[0], : gb.shape[0]] = gb

    def dual(t: np.ndarray, idx: np.ndarray) -> np.ndarray:
        t = t[:, None, None]
        return np.linalg.eigvalsh(GA[idx] / t + GB[idx] / (1.0 - t))[:, -1]

    every = np.arange(len(searches))
    lo, hi = np.zeros(len(searches)), np.ones(len(searches))
    c, d = np.full(len(searches), 1.0 - _INVPHI), np.full(len(searches), _INVPHI)
    fc, fd = dual(c, every), dual(d, every)
    while (on := hi - lo > 1e-15).any():
        left = on & (fc <= fd)
        right = on & ~left
        # left: the minimizer lies in [lo, d]; d becomes hi and c becomes d
        hi[left], d[left], fd[left] = d[left], c[left], fc[left]
        c[left] = hi[left] - _INVPHI * (hi[left] - lo[left])
        # right: the minimizer lies in [c, hi]; c becomes lo and d becomes c
        lo[right], c[right], fc[right] = c[right], d[right], fd[right]
        d[right] = lo[right] + _INVPHI * (hi[right] - lo[right])
        idx = np.flatnonzero(on)
        f = dual(np.where(left, c, d)[idx], idx)
        fc[idx] = np.where(left[idx], f, fc[idx])
        fd[idx] = np.where(left[idx], fd[idx], f)
    for k, (i, scale, _, _) in enumerate(searches):
        joint = scale * math.sqrt(min(fc[k], fd[k]))
        cases[i] = BlockNormCase(norm_A=cases[i].norm_A, norm_B=cases[i].norm_B, norm_joint=joint)
    return cases
