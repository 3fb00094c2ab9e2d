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

The direction functions take one direction of length m or an (m, k) block
whose columns are directions. A block gives one value per column, as an
array; a single direction gives floats.
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

    A (k, m, n) stack of perturbations gives (m, k) and (n, k) blocks, one
    column per perturbation.
    """
    dA = np.asarray(dA, dtype=float)
    if dA.ndim not in (2, 3) or dA.shape[-2:] != cache.problem.A.shape:
        raise DimensionMismatch(f"perturbation shape {dA.shape} != {cache.problem.A.shape}")
    dAx = (dA @ cache.x).T
    dAtr = (np.swapaxes(dA, -1, -2) @ cache.r).T
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
        """u1 v1^t + u2 v2^t; a (k, m, n) stack for a block of directions."""
        return self.u1.T[..., :, None] * self.v1 + self.u2[:, None] * self.v2.T[..., None, :]


def adjoint_rank2(cache: LsCache, delta_r: np.ndarray) -> Rank2Adjoint:
    """Adjoint factors for a residual-space direction.

    Satisfies <dr(dA), delta_r> = sign * <dA, u1 v1^t + u2 v2^t>_F for
    every conformable dA. For an (m, k) block, u1 and v2 are blocks with
    one column per direction, and v1 = x and u2 = r are shared.
    """
    delta_r = np.asarray(delta_r, dtype=float)
    if delta_r.ndim not in (1, 2) or delta_r.shape[0] != cache.problem.m:
        raise DimensionMismatch(f"direction shape {delta_r.shape} does not have {cache.problem.m} rows")
    return Rank2Adjoint(
        u1=delta_r - cache.apply_proj(delta_r),
        v1=cache.x,
        u2=cache.r,
        v2=cache.apply_pinv(delta_r),
    )


def _value(v) -> float | np.ndarray:
    """A float for a single direction, the array for a block."""
    return float(v) if np.ndim(v) == 0 else v


def _norms(X: np.ndarray) -> np.ndarray:
    """2-norms along the last axis."""
    return np.sqrt(np.einsum("...i,...i->...", X, X))


def _cos_sin(p: np.ndarray, norm_p: np.ndarray, q: np.ndarray, norm_q: float) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine of the angle between each row p of a stack (or one
    vector p) and the vector q, given their norms.

    The sine is the norm of the rejection of q-hat from p-hat rather than
    sqrt(1 - c^2), so it stays accurate to machine precision when the angle
    is near 0 or pi. A zero factor gives (1, 0).
    """
    ph = p / np.where(norm_p > 0.0, norm_p, 1.0)[..., None]
    qh = q / (norm_q if norm_q > 0.0 else 1.0)
    c = ph @ qh
    s = _norms(ph - c[..., None] * qh)
    both = (norm_p > 0.0) & (norm_q > 0.0)
    return np.where(both, c, 1.0), np.where(both, s, 0.0)


def _products_and_cosines(adj: Rank2Adjoint) -> tuple[np.ndarray, ...]:
    """Norm products a = ||u1|| ||v1||, b = ||u2|| ||v2|| together with the
    cosine and sine of theta_u = angle(u1, u2) and theta_v = angle(v1, v2),
    one of each per direction.

    The sines come from orthogonal rejections (see _cos_sin), which matters
    because angles near 0 or pi occur systematically, e.g. for m = n + 1
    where the residual complement is one-dimensional. A zero factor gives
    (1, 0) for its angle; the corresponding cross term vanishes anyway.
    """
    # directions along the last axis; v1 = x and u2 = r are single vectors
    u1, v2 = adj.u1.T, adj.v2.T
    nu1, nv2 = _norms(u1), _norms(v2)
    nv1, nu2 = float(_norms(adj.v1)), float(_norms(adj.u2))
    cu, su = _cos_sin(u1, nu1, adj.u2, nu2)
    cv, sv = _cos_sin(v2, nv2, adj.v1, nv1)
    return nu1 * nv1, nu2 * nv2, cu, su, cv, sv


def g_objective(cache: LsCache, delta_r: np.ndarray) -> float | np.ndarray:
    """Dual-norm objective: the nuclear norm of the rank-2 adjoint matrix.

    Evaluated via the closed form
    sqrt(a^2 + b^2 + 2 a b cos(theta_u - theta_v)) with the products and
    angles of the adjoint factors; agrees with an SVD of the rank-2 matrix.
    Expects unit directions (the objective is positively homogeneous).
    """
    a, b, cu, su, cv, sv = _products_and_cosines(adjoint_rank2(cache, delta_r))
    closed = np.sqrt(np.maximum(a * a + b * b + 2.0 * a * b * (cu * cv + su * sv), 0.0))
    return _value(np.where((a == 0.0) | (b == 0.0), np.hypot(a, b), closed))


def sandwich_bounds(cache: LsCache, delta_r: np.ndarray) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Two-sided bounds (L, U) on the objective at a direction:

    L = sqrt(a^2 + b^2) <= g <= a + b = U, with U <= sqrt(2) L whenever
    both products are nonzero. The lower inequality requires the direction
    to be sign-canonical (see canonicalize_direction).
    """
    a, b, _, _, _, _ = _products_and_cosines(adjoint_rank2(cache, delta_r))
    return _value(np.hypot(a, b)), _value(a + b)


def canonicalize_direction(cache: LsCache, delta_r: np.ndarray) -> np.ndarray:
    """Flip the sign of the component of delta_r along r when that raises
    the objective; a block is canonicalized column by column.

    The flip maps theta_u to pi - theta_u and leaves L and U unchanged, so
    of the two sign choices the better one always has
    cos(theta_u - theta_v) >= 0, which makes L <= g hold pointwise. The
    maximum over the unit sphere is unaffected.
    """
    delta_r = np.asarray(delta_r, dtype=float)
    adj = adjoint_rank2(cache, delta_r)
    # same-quadrant test: flip iff cos(theta_u) * cos(theta_v) < 0
    flip = (adj.u1.T @ adj.u2) * (adj.v2.T @ adj.v1) < 0.0
    rhat = cache.r / cache.norm_r
    D = delta_r.T
    return np.where(flip[..., None], D - 2.0 * (D @ rhat)[..., None] * rhat, D).T


@dataclass(frozen=True)
class DirectionCandidate:
    """A unit residual-space direction with its objective value."""

    delta_r: np.ndarray
    g_value: float


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
    return DirectionCandidate(delta_r=d, g_value=value)


def attaining_perturbation(cache: LsCache, delta_r: np.ndarray) -> np.ndarray:
    """Unit-spectral-norm matrix perturbation attaining the objective value.

    With the thin SVD u1 v1^t + u2 v2^t = Uh Sh Vh^t, the matrix
    dA = -(Uh Vh^t) has ||dA||_2 = 1 and satisfies
    <apply_residual_jacobian(dA).dr, delta_r> = g(delta_r), which forces
    ||dr|| >= g(delta_r) for a unit direction. Takes one direction, not a
    block.
    """
    if np.ndim(delta_r) != 1:
        raise DimensionMismatch(f"need one direction, got shape {np.shape(delta_r)}")
    adj = adjoint_rank2(cache, delta_r)
    M = adj.matrix()
    Uh, sh, Vht = np.linalg.svd(M, full_matrices=False)
    a, b, _, _, _, _ = _products_and_cosines(adj)
    if sh[0] <= 1e-14 * max(a + b, 1e-300):
        raise DegenerateDirection("objective value is zero at this direction")
    keep = sh > 1e-13 * sh[0]
    return -(Uh[:, keep] @ Vht[keep, :])

