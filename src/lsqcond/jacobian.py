"""Residual Jacobian machinery and the exact condition number wrt the matrix.

The derivative of the residual with respect to the matrix acts on a
perturbation dA as

    dr = -(I - P) dA x - A (A^t A)^{-1} dA^t r.

Its adjoint maps a residual-space direction dr to (minus) the rank-2
matrix u1 v1^t + u2 v2^t with u1 = (I - P) dr, v1 = x, u2 = r,
v2 = (A^t A)^{-1} A^t dr. The induced condition number is therefore the
maximum over unit directions of the nuclear norm g of that matrix, which
admits the closed two-sided bounds L <= g <= U evaluated here.

The pointwise lower bound holds on half the sphere: flipping the sign of
the component of a direction along r always moves it into the half where
cos(theta_u - theta_v) >= 0 without changing L, U, or the attainable
maximum. The maximum itself has a closed form (see worst_case_direction):
it equals U's maximum when m >= n + 2 and is the largest singular value of
an n x (n + 1) matrix when m = n + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditioning import _tight_numerator
from .core import LsCache
from .errors import DegenerateDirection, DimensionMismatch, ZeroResidual, ZeroSolution


def apply_residual_jacobian(cache: LsCache, dA: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-order changes (dr, dx) of residual and solution for a matrix
    perturbation dA, both linear in dA.

    dr = -(I - P) dA x - A (A^t A)^{-1} dA^t r
    dx = -(A^t A)^{-1} A^t dA x + (A^t A)^{-1} dA^t r
    """
    dA = np.asarray(dA, dtype=float)
    if dA.shape != cache.problem.A.shape:
        raise DimensionMismatch(f"perturbation shape {dA.shape} != {cache.problem.A.shape}")
    dAx = dA @ cache.x
    dAtr = dA.T @ cache.r
    dr = -(dAx - cache.apply_proj(dAx)) - cache.apply_pinv_transpose(dAtr)
    dx = -cache.apply_pinv(dAx) + cache.apply_gram_inverse(dAtr)
    return dr, dx


@dataclass(frozen=True)
class Rank2Adjoint:
    """Rank-2 representation of the transposed residual Jacobian applied to
    a direction: the adjoint image is sign * vec(u1 v1^t + u2 v2^t).

    The explicit sign = -1 is carried so signed inner-product identities
    hold; all norm-based quantities are sign-independent.
    """

    u1: np.ndarray
    v1: np.ndarray
    u2: np.ndarray
    v2: np.ndarray
    sign: float = -1.0

    def matrix(self) -> np.ndarray:
        return np.outer(self.u1, self.v1) + np.outer(self.u2, self.v2)


def adjoint_rank2(cache: LsCache, delta_r: np.ndarray) -> Rank2Adjoint:
    """Adjoint factors for a residual-space direction.

    Satisfies <dr(dA), delta_r> = sign * <dA, u1 v1^t + u2 v2^t>_F for
    every conformable dA.
    """
    delta_r = np.asarray(delta_r, dtype=float).ravel()
    if delta_r.shape != (cache.problem.m,):
        raise DimensionMismatch(f"direction length {delta_r.size} != {cache.problem.m}")
    return Rank2Adjoint(
        u1=delta_r - cache.apply_proj(delta_r),
        v1=cache.x,
        u2=cache.r,
        v2=cache.apply_pinv(delta_r),
    )


def _products_and_cosines(adj: Rank2Adjoint) -> tuple[float, float, float, float, float, float]:
    """Norm products a = ||u1|| ||v1||, b = ||u2|| ||v2|| together with the
    cosine and sine of theta_u = angle(u1, u2) and theta_v = angle(v1, v2).

    The sines come from orthogonal rejections rather than sqrt(1 - c^2), so
    they stay accurate to machine precision when an angle is near 0 or pi
    (which happens systematically, e.g. for m = n + 1 where the residual
    complement is one-dimensional). A zero factor returns (1, 0) for its
    angle; the corresponding cross term vanishes anyway.
    """
    nu1, nv1 = float(np.linalg.norm(adj.u1)), float(np.linalg.norm(adj.v1))
    nu2, nv2 = float(np.linalg.norm(adj.u2)), float(np.linalg.norm(adj.v2))
    a = nu1 * nv1
    b = nu2 * nv2
    cu, su = 1.0, 0.0
    if nu1 > 0.0 and nu2 > 0.0:
        u1h, u2h = adj.u1 / nu1, adj.u2 / nu2
        cu = float(u1h @ u2h)
        su = float(np.linalg.norm(u1h - cu * u2h))
    cv, sv = 1.0, 0.0
    if nv1 > 0.0 and nv2 > 0.0:
        v1h, v2h = adj.v1 / nv1, adj.v2 / nv2
        cv = float(v1h @ v2h)
        sv = float(np.linalg.norm(v2h - cv * v1h))
    return a, b, cu, su, cv, sv


def g_objective(cache: LsCache, delta_r: np.ndarray) -> float:
    """Dual-norm objective: the nuclear norm of the rank-2 adjoint matrix.

    Evaluated via the closed form
    sqrt(a^2 + b^2 + 2 a b cos(theta_u - theta_v)) with the products and
    angles of the adjoint factors; agrees with an SVD of the rank-2 matrix.
    Expects a unit direction (the objective is positively homogeneous).
    """
    a, b, cu, su, cv, sv = _products_and_cosines(adjoint_rank2(cache, delta_r))
    if a == 0.0 or b == 0.0:
        return math.hypot(a, b)
    cos_diff = cu * cv + su * sv
    return math.sqrt(max(a * a + b * b + 2.0 * a * b * cos_diff, 0.0))


def sandwich_bounds(cache: LsCache, delta_r: np.ndarray) -> tuple[float, float]:
    """Two-sided bounds (L, U) on the objective at a direction:

    L = sqrt(a^2 + b^2) <= g <= a + b = U, with U <= sqrt(2) L whenever
    both products are nonzero. The lower inequality requires the direction
    to be sign-canonical (see canonicalize_direction).
    """
    a, b, _, _, _, _ = _products_and_cosines(adjoint_rank2(cache, delta_r))
    return math.hypot(a, b), a + b


def canonicalize_direction(cache: LsCache, delta_r: np.ndarray) -> np.ndarray:
    """Flip the sign of the component of delta_r along r when that raises
    the objective.

    The flip maps theta_u to pi - theta_u and leaves L and U unchanged, so
    of the two sign choices the better one always has
    cos(theta_u - theta_v) >= 0, which makes L <= g hold pointwise. The
    maximum over the unit sphere is unaffected.
    """
    delta_r = np.asarray(delta_r, dtype=float).ravel()
    adj = adjoint_rank2(cache, delta_r)
    # same-quadrant test: flip iff cos(theta_u) * cos(theta_v) < 0
    if (adj.u1 @ adj.u2) * (adj.v1 @ adj.v2) < 0.0:
        rhat = cache.r / cache.norm_r
        return delta_r - 2.0 * (rhat @ delta_r) * rhat
    return delta_r


@dataclass(frozen=True)
class DirectionCandidate:
    """A unit residual-space direction with its objective value and bounds.

    Directions produced by this module are sign-canonical, so
    L_value <= g_value <= U_value holds for every candidate.
    """

    delta_r: np.ndarray
    g_value: float
    L_value: float
    U_value: float


def _require_geometry(cache: LsCache) -> None:
    if cache.norm_r == 0.0:
        raise ZeroResidual("residual is zero; no worst-case direction exists")
    if cache.norm_x == 0.0:
        raise ZeroSolution("solution is zero; no worst-case direction exists")


def _complement_direction(cache: LsCache, rhat: np.ndarray) -> np.ndarray:
    """Unit vector orthogonal to col(A) and to r, for m >= n + 2.

    Starts from the coordinate vector whose row of [U | rhat] is shortest.
    The squared row norms sum to n + 1, so its rejection has squared norm
    at least 1 - (n + 1) / m > 0; a second pass restores orthogonality to
    rounding.
    """
    U = cache.svd.left_vectors
    w = np.zeros(cache.problem.m)
    w[int(np.argmin(np.einsum("ij,ij->i", U, U) + rhat * rhat))] = 1.0
    for _ in range(2):
        w -= U @ (U.T @ w) + (rhat @ w) * rhat
    return w / np.linalg.norm(w)


def worst_case_direction(cache: LsCache) -> DirectionCandidate:
    """Exact maximizer of the objective over the unit sphere.

    Its g_value is the unscaled condition number wrt the matrix. Split a
    unit direction into u orthogonal to col(A) and p inside it. Then
    a = ||x|| ||u|| and b = ||r|| ||Sigma^{-1} U^t p|| <= ||r|| ||p|| / sigma_min,
    so g <= a + b <= sqrt((||r|| / sigma_min)^2 + ||x||^2). The maximizer
    depends on the dimension m - n of the complement of col(A):

    * m >= n + 2: with a = ||x||, b = ||r|| / sigma_min,
      c = v_min^t x / ||x||, s = sqrt(1 - c^2) and a unit w orthogonal to
      r and col(A), the direction d = (a (c rhat + s w) + b a'') / hypot(a, b)
      gives theta_u = theta_v = arccos(c) and maximal a + b, so the upper
      estimate is attained.
    * m = n + 1: the complement is spanned by rhat, so d = alpha rhat + U c
      and the adjoint collapses to rhat (alpha x + ||r|| V Sigma^{-1} c)^t.
      Its nuclear norm is ||M (alpha, c)|| with M = [V^t x | ||r|| Sigma^{-1}],
      maximized by the top right singular vector of the n x (n + 1) matrix M.
    """
    _require_geometry(cache)
    svd = cache.svd
    rhat = cache.r / cache.norm_r
    if cache.problem.m >= cache.problem.n + 2:
        a = cache.norm_x
        b = cache.norm_r / svd.sigma_min
        vmin = svd.right_vectors[:, -1]
        xv = float(vmin @ cache.x)
        c = xv / a
        # rejection-based sine, accurate when x is nearly parallel to v_min
        s = float(np.linalg.norm(cache.x - xv * vmin)) / a
        u = c * rhat + s * _complement_direction(cache, rhat)
        d = (a * u + b * svd.left_vectors[:, -1]) / math.hypot(a, b)
        value = _tight_numerator(cache)
    else:
        M = np.column_stack([svd.right_vectors.T @ cache.x, np.diag(cache.norm_r / svd.singular_values)])
        _, sv, Wt = np.linalg.svd(M)
        d = Wt[0, 0] * rhat + svd.left_vectors @ Wt[0, 1:]
        value = float(sv[0])
    L, U = sandwich_bounds(cache, d)
    return DirectionCandidate(delta_r=d, g_value=value, L_value=L, U_value=U)


def attaining_perturbation(cache: LsCache, delta_r: np.ndarray) -> np.ndarray:
    """Unit-spectral-norm matrix perturbation attaining the objective value.

    With the thin SVD u1 v1^t + u2 v2^t = Uh Sh Vh^t, the matrix
    dA = -(Uh Vh^t) has ||dA||_2 = 1 and satisfies
    <apply_residual_jacobian(dA).dr, delta_r> = g(delta_r), which forces
    ||dr|| >= g(delta_r) for a unit direction.
    """
    adj = adjoint_rank2(cache, delta_r)
    M = adj.matrix()
    Uh, sh, Vht = np.linalg.svd(M, full_matrices=False)
    a, b, _, _, _, _ = _products_and_cosines(adj)
    if sh[0] <= 1e-14 * max(a + b, 1e-300):
        raise DegenerateDirection("objective value is zero at this direction")
    keep = sh > 1e-13 * sh[0]
    return -(Uh[:, keep] @ Vht[keep, :])

