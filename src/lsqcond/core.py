"""Core least squares machinery: problems, factorized caches, geometry, norms.

The SVD-based solve is the reference path; every derived quantity
(projections, pseudoinverse applications, condition geometry) is computed
from the same factorization so that no normal-equations matrix is ever
formed explicitly. Two fixed relative tolerances guard the preconditions:
RANK_TOL against sigma_max and RESID_TOL against ||b||.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidGeometry, NonFullRank, ZeroResidual, ZeroSolution


RANK_TOL = 1e-12
RESID_TOL = 1e-14


# eq=False: identity equality and hash, since generated ones would compare arrays
@dataclass(frozen=True, eq=False)
class LsProblem:
    """A dense, overdetermined least squares problem min_u ||b - A u||_2.

    Requires m > n >= 1 and finite entries. Full column rank is verified
    when the problem is factorized, not at construction.
    """

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float).ravel()
        if A.ndim != 2:
            raise DimensionMismatch(f"matrix must be 2-D, got shape {A.shape}")
        m, n = A.shape
        if not m > n >= 1:
            raise DimensionMismatch(f"need m > n >= 1, got shape {m}x{n}")
        if b.shape != (m,):
            raise DimensionMismatch(f"rhs has length {b.size}, expected {m}")
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("matrix and rhs entries must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


# eq=False: identity equality and hash, since generated ones would compare arrays
@dataclass(frozen=True, eq=False)
class LsCache:
    """Factorized state of a solved problem, shared by all analyses.

    U, s and V are the thin SVD A = U diag(s) V^t, with s positive and
    nonincreasing: s[0] is sigma_max and s[-1] sigma_min. Scalar formulas
    take float() of them, since a NumPy scalar warns where a float
    overflows quietly to inf. Immutable after construction and safe for
    concurrent readers. All applier methods go through the stored SVD; the
    2-norms of b, r, Ax and x are computed once, when the problem is
    solved, and bordered_svd once, on first use.
    """

    problem: LsProblem
    x: np.ndarray
    r: np.ndarray
    U: np.ndarray
    s: np.ndarray
    V: np.ndarray
    norm_b: float
    norm_r: float
    norm_Ax: float
    norm_x: float

    @cached_property
    def bordered_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """np.linalg.svd of the n x (n + 1) matrix M = [V^t x | ||r|| Sigma^{-1}].

        Its top singular pair gives the exact condition number wrt the
        matrix, and the direction attaining it, when m = n + 1.
        """
        M = np.column_stack([self.V.T @ self.x, np.diag(self.norm_r / self.s)])
        return np.linalg.svd(M)

    # each applier takes a vector or a block whose columns are vectors

    def apply_proj(self, v: np.ndarray) -> np.ndarray:
        """Orthogonal projection of v onto col(A)."""
        return self.U @ (self.U.T @ np.asarray(v, dtype=float))

    def apply_pinv(self, v: np.ndarray) -> np.ndarray:
        """Pseudoinverse application (A^t A)^{-1} A^t v = V diag(1/s) U^t v."""
        v = np.asarray(v, dtype=float)
        return self.V @ ((self.U.T @ v) / _rows(self.s, v))

    def apply_pinv_transpose(self, w: np.ndarray) -> np.ndarray:
        """A (A^t A)^{-1} w = U diag(1/s) V^t w."""
        w = np.asarray(w, dtype=float)
        return self.U @ ((self.V.T @ w) / _rows(self.s, w))

    def self_check(self) -> dict[str, float]:
        """Relative defect measures for the solve postconditions.

        Keys: orthogonality (||A^t r|| / (||A|| ||b||)), pythagoras
        (|| ||Ax||^2 + ||r||^2 - ||b||^2 | / ||b||^2), idempotence
        (||P(Pb) - Pb|| / ||b||), each 0.0 when b = 0. They are computed
        from A / ||A||, r / ||b|| and b / ||b||, so scaling A or b neither
        overflows nor underflows them.
        """
        nb = self.norm_b
        if nb == 0.0:
            return {"orthogonality": 0.0, "pythagoras": 0.0, "idempotence": 0.0}
        A, b = self.problem.A / float(self.s[0]), self.problem.b / nb
        ortho = float(np.linalg.norm(A.T @ (self.r / nb)))
        pythag = abs((self.norm_Ax / nb) ** 2 + (self.norm_r / nb) ** 2 - 1.0)
        pb = self.apply_proj(b)
        idem = float(np.linalg.norm(self.apply_proj(pb) - pb))
        return {"orthogonality": ortho, "pythagoras": pythag, "idempotence": idem}


def _rows(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """s shaped to scale the rows of v, a vector or a block of columns."""
    return s.reshape((-1,) + (1,) * (v.ndim - 1))


def vector_norm(v: np.ndarray, name: str) -> float:
    """2-norm of the vector called name that neither overflows nor
    underflows when the norm itself is representable.

    The plain sum of squares, bitwise what np.linalg.norm gives, is used
    whenever it is a finite normal number. Otherwise the vector is scaled
    by 2^-e, where e is the binary exponent of its largest entry, which is
    exact, and the norm is scaled back. np.vdot, unlike matmul, does not
    warn when the plain sum overflows. Raises InvalidGeometry when the
    norm exceeds the largest double, which only the scaling back can find.
    """
    squares = float(np.vdot(v, v))
    if sys.float_info.min <= squares < math.inf:
        return math.sqrt(squares)
    e = math.frexp(float(np.max(np.abs(v))))[1]
    scaled = np.ldexp(v, -e)
    scaled_norm = math.sqrt(float(np.vdot(scaled, scaled)))
    try:
        return math.ldexp(scaled_norm, e)
    except OverflowError:
        raise _too_large(name) from None


def _too_large(name: str) -> InvalidGeometry:
    return InvalidGeometry(f"||{name}|| exceeds the largest double {sys.float_info.max:.3e}")


def _thin_svd(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U, s, V of the thin SVD A = U diag(s) V^t of a finite m x n matrix, m >= n.

    Raises NonFullRank when sigma_min <= RANK_TOL * sigma_max.
    """
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= RANK_TOL * s[0]:
        ratio = s[-1] / s[0] if s[0] > 0.0 else 0.0
        raise NonFullRank(f"sigma_min/sigma_max = {ratio:.3e} within rank tolerance")
    return U, s, Vt.T


def solve_least_squares(problem: LsProblem) -> LsCache:
    """Solve the problem via the SVD and cache the factorized state and norms.

    Raises NonFullRank when sigma_min <= RANK_TOL * sigma_max, and
    InvalidGeometry when ||b|| or ||x|| exceeds the largest double or x
    underflows to zero although U^t b does not.
    """
    U, s, V = _thin_svd(problem.A)
    norm_b = vector_norm(problem.b, "b")
    Utb = U.T @ problem.b
    # ||x|| = ||(U^t b) / s||, so an entry that overflows means ||x|| does too
    with np.errstate(over="ignore", invalid="ignore"):
        x = V @ (Utb / s)
    if not np.isfinite(x).all():
        raise _too_large("x")
    if not x.any() and Utb.any():
        raise InvalidGeometry(f"||x|| is below the smallest double {math.ulp(0.0):.3e}")
    Ax = problem.A @ x
    r = problem.b - Ax
    return LsCache(
        problem=problem,
        x=x,
        r=r,
        U=U,
        s=s,
        V=V,
        norm_b=norm_b,
        norm_r=vector_norm(r, "r"),
        norm_Ax=vector_norm(Ax, "Ax"),
        norm_x=vector_norm(x, "x"),
    )


@dataclass(frozen=True)
class Geometry:
    """The scalars governing the condition estimates.

    kappa is the spectral matrix condition number, theta the angle between
    b and col(A), vds the van der Sluis ratio ||Ax|| / (||x|| sigma_min)
    which always lies in [1, kappa].
    """

    kappa: float
    theta: float
    cot_theta: float
    vds: float
    sigma_min: float

    def __post_init__(self):
        slack = 1e-9
        if not self.kappa >= 1.0 - slack:
            raise InvalidGeometry(f"kappa = {self.kappa} < 1")
        if not 0.0 < self.theta <= math.pi / 2 + slack:
            raise InvalidGeometry(f"theta = {self.theta} outside (0, pi/2]")
        if not (1.0 - slack) <= self.vds <= self.kappa * (1.0 + slack):
            raise InvalidGeometry(f"vds = {self.vds} outside [1, kappa]")


def geometry(cache: LsCache) -> Geometry:
    """Condition geometry of a solved problem.

    Raises ZeroResidual when ||r|| <= RESID_TOL ||b|| (condition numbers
    are undefined rather than large) and ZeroSolution when x = 0.
    """
    nr, nx, nax = cache.norm_r, cache.norm_x, cache.norm_Ax
    if nr <= RESID_TOL * cache.norm_b:
        raise ZeroResidual(f"||r|| = {nr:.3e} within residual tolerance of zero")
    if nx == 0.0:
        raise ZeroSolution("least squares solution is exactly zero")
    smin = float(cache.s[-1])
    # atan2 is stable near both 0 and pi/2; never arccos of a ratio
    return Geometry(
        kappa=float(cache.s[0]) / smin,
        theta=math.atan2(nr, nax),
        cot_theta=nax / nr,
        vds=nax / (nx * smin),
        sigma_min=smin,
    )


def nuclear_norm(M: np.ndarray) -> float | np.ndarray:
    """Sum of the singular values of M, including multiplicities.

    This is the dual of the spectral norm under the Frobenius pairing. A
    (k, m, n) stack gives an array of k values, one per matrix.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    values = np.linalg.svd(M, compute_uv=False).sum(axis=-1)
    return float(values) if M.ndim == 2 else values

