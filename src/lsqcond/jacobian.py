"""Residual Jacobian machinery: the Jacobian, its rank-2 adjoint and the
dual-norm objective it carries.

The derivative of the residual with respect to the matrix acts on a
perturbation dA as

    dr = -(I - P) dA x - A (A^t A)^{-1} dA^t r.

Its adjoint maps a residual-space direction dr to minus the rank-2
matrix u1 v1^t + u2 v2^t with u1 = (I - P) dr, v1 = x, u2 = r,
v2 = (A^t A)^{-1} A^t dr. The induced condition number is therefore the
maximum over unit directions of the nuclear norm g of that matrix. The
conditioning module holds that maximum in closed form and the matrix
perturbation attaining it (worst_case_perturbation). Rank2Adjoint keeps
the R factors Ru and Rv of the QR factorizations of [u1 u2] and [v1 v2]:
the rank-2 matrix is Qu (Ru Rv^t) Qv^t, so g is the nuclear norm of the
2x2 matrix Ru Rv^t, and the same R factors give g's two-sided bounds and
the sign test of canonicalize_direction.

apply_residual_jacobian evaluates dr for one perturbation or a (k, m, n)
stack of them. The adjoint takes one direction of length m, its methods
then giving floats, or an (m, k) block of directions, one value per column.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import LsCache, nuclear_norm
from .errors import DimensionMismatch


def apply_residual_jacobian(cache: LsCache, dA: np.ndarray) -> np.ndarray:
    """First-order change dr of the residual for a matrix perturbation dA,
    linear in dA:

    dr = -(I - P) dA x - A (A^t A)^{-1} dA^t r

    A (k, m, n) stack of perturbations gives an (m, k) block, one column
    per perturbation.
    """
    dA = np.asarray(dA, dtype=float)
    if dA.ndim not in (2, 3) or dA.shape[-2:] != cache.problem.A.shape:
        raise DimensionMismatch(f"perturbation shape {dA.shape} != {cache.problem.A.shape}")
    dAx = (dA @ cache.x).T
    dAtr = (np.swapaxes(dA, -1, -2) @ cache.r).T
    return -(dAx - cache.apply_proj(dAx)) - cache.apply_pinv_transpose(dAtr)


def _value(v) -> float | np.ndarray:
    """A float for a single direction, the array for a block."""
    return float(v) if np.ndim(v) == 0 else v


# eq=False: identity equality and hash, since generated ones would compare arrays
@dataclass(frozen=True, eq=False)
class Rank2Adjoint:
    """Rank-2 representation of the transposed residual Jacobian applied to
    a direction: the adjoint image is -vec(u1 v1^t + u2 v2^t). objective(),
    bounds() and flips() read the R factors of its one QR pair; matrix()
    forms it densely."""

    u1: np.ndarray
    v1: np.ndarray
    u2: np.ndarray
    v2: np.ndarray

    def matrix(self) -> np.ndarray:
        """u1 v1^t + u2 v2^t; a (k, m, n) stack for a block of directions."""
        return self.u1.T[..., :, None] * self.v1 + self.u2[:, None] * self.v2.T[..., None, :]

    @cached_property
    def _qr(self) -> tuple[np.ndarray, np.ndarray]:
        """Ru and Rv, the R factors of the QR factorizations of [u1 u2] and
        [v1 v2]; stacks for a block. LAPACK scales the column norms it
        takes, so R is finite wherever the columns' norms are."""
        batch = self.u1.shape[1:]
        Su = np.empty(batch + (self.u1.shape[0], 2))
        Su[..., 0], Su[..., 1] = self.u1.T, self.u2
        Sv = np.empty(batch + (self.v2.shape[0], 2))
        Sv[..., 0], Sv[..., 1] = self.v1, self.v2.T
        return np.linalg.qr(Su, mode="r"), np.linalg.qr(Sv, mode="r")

    def objective(self) -> float | np.ndarray:
        """The dual-norm objective g, the nuclear norm of the rank-2 matrix;
        the condition number is its maximum over unit directions. With
        [u1 u2] = Qu Ru and [v1 v2] = Qv Rv the matrix is Qu (Ru Rv^t) Qv^t,
        so g is the nuclear norm of Ru Rv^t, 2x2 or 2x1 when n = 1.
        Householder QR is columnwise backward stable, so g does not cancel
        when the two rank-1 terms nearly cancel: it agrees with an SVD of
        the rank-2 matrix to a few eps (a + b)."""
        Ru, Rv = self._qr
        return nuclear_norm(Ru @ np.swapaxes(Rv, -1, -2))

    def bounds(self) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
        """Two-sided bounds (L, U) on the objective:

        L = sqrt(a^2 + b^2) <= g <= a + b = U, with a = ||u1|| ||x||,
        b = ||r|| ||v2|| and U <= sqrt(2) L whenever both are nonzero. The
        lower inequality requires the direction to be sign-canonical (see
        canonicalize_direction). The columns of R have the norms of the
        columns it factors: a = |Ru[0,0] Rv[0,0]|, and b the product of
        the norms of the second columns, taken with hypot (Rv has one row
        when n = 1).
        """
        Ru, Rv = self._qr
        a = np.abs(Ru[..., 0, 0] * Rv[..., 0, 0])
        norm_r, norm_v2 = (np.hypot.reduce(R[..., 1], axis=-1, initial=0.0) for R in (Ru, Rv))
        b = norm_r * norm_v2
        return _value(np.hypot(a, b)), _value(a + b)

    def flips(self) -> bool | np.ndarray:
        """Whether flipping the direction's component along r raises the
        objective: cos(theta_u) cos(theta_v) < 0, with theta_u the angle
        between u1 and r and theta_v the one between v2 and x. The first
        rows of R hold u1^t r = Ru[0,0] Ru[0,1] and x^t v2 = Rv[0,0] Rv[0,1],
        so only the signs of those four entries are compared and no product
        that could overflow is formed."""
        Ru, Rv = self._qr
        return np.prod(np.sign(Ru[..., 0, :]) * np.sign(Rv[..., 0, :]), axis=-1) < 0.0


def adjoint_rank2(cache: LsCache, delta_r: np.ndarray) -> Rank2Adjoint:
    """Adjoint factors for a residual-space direction.

    Satisfies <dr(dA), delta_r> = -<dA, u1 v1^t + u2 v2^t>_F for
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


def canonicalize_direction(cache: LsCache, delta_r: np.ndarray, adj: Rank2Adjoint) -> np.ndarray:
    """delta_r with its component along r flipped where adj.flips(), adj
    being the adjoint at delta_r; a block is canonicalized column by column.

    The flip maps theta_u to pi - theta_u and leaves the bounds unchanged,
    so of the two sign choices the better one always has
    cos(theta_u - theta_v) >= 0, which makes L <= g hold pointwise. The
    maximum over the unit sphere is unaffected.
    """
    rhat = cache.r / cache.norm_r
    D = np.asarray(delta_r, dtype=float).T
    return np.where(adj.flips()[..., None], D - 2.0 * (D @ rhat)[..., None] * rhat, D).T
