"""Exact linear algebra in R^{2,1} and so(2,1).

Minkowski space R^{2,1} carries the bilinear form (X,Y)# = X^T diag(1,1,-1) Y.
The upper hyperboloid sheet {(X,X)# = -1, z >= 1} is the hyperbolic plane; its
orientation-preserving isometry group is SO+(2,1) acting by matrices g with
g^T e# g = e#, det g = 1.  The Lie algebra so(2,1) consists of traceless
matrices with A# = -A, where A# = e# A^T e#; `hat` identifies it with
R^{2,1} itself, Ad(g) with g acting on vectors and the Killing form with
twice (,)#.  Along a unit spacelike axis b, (b, b)# = 1, hat(b)^3 = hat(b)
gives exp(t hat(b)) = I + sinh t hat(b) + 2 sinh^2(t/2) hat(b)^2, with no
branch and no cancellation near t = 0 (`exp_axis`).

Vectors are plain numpy arrays of shape (3,) and group elements arrays of
shape (3, 3).  Every other module stores an so(2,1) value as its vector w,
transports it by g w and pairs it by 2 (,)#; this module alone knows the
matrix hat(w), which `exp_axis` builds.
"""

from __future__ import annotations

import numpy as np

E_SHARP = np.diag([1.0, 1.0, -1.0])
X0 = np.array([0.0, 0.0, 1.0])


def mink_dot(X: np.ndarray, Y: np.ndarray):
    """Inner product (X,Y)# = x1 y1 + x2 y2 - x3 y3.

    Broadcasts over leading axes; two vectors give a float.
    """
    d = X[..., 0] * Y[..., 0] + X[..., 1] * Y[..., 1] - X[..., 2] * Y[..., 2]
    return float(d) if np.ndim(d) == 0 else d


def sharp_adj(M: np.ndarray) -> np.ndarray:
    """M# = e# M^T e#; the adjoint with respect to (,)#."""
    return E_SHARP @ M.T @ E_SHARP


def normalize_to_hyperboloid(X: np.ndarray) -> np.ndarray:
    """Rescale timelike vectors onto the upper sheet; broadcasts over leading axes."""
    q = -mink_dot(X, X)
    if np.any(q <= 0):
        raise ValueError("vector is not timelike")
    Y = X / np.sqrt(q)[..., None]
    return np.where(Y[..., 2:] > 0, Y, -Y)


def mink_cross_vec(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vector product in R^{2,1}: e# (u x v), the euclidean cross product
    with its last coordinate negated, component by component.

    For X on the hyperboloid and u tangent at X, mink_cross_vec(X, u) is u
    rotated by +90 degrees in T_X H (the positively oriented complement).
    hat(mink_cross_vec(X, Y)) is the Lie-valued cross product Y X# - X Y#.
    Broadcasts over leading axes.
    """
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return np.stack([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u1 * v0 - u0 * v1], axis=-1)


def hat(w: np.ndarray) -> np.ndarray:
    """The so(2,1) matrix of the vector w of R^{2,1}: -e# skew(w), with
    skew(w) the euclidean cross-product matrix.

    hat is Ad-equivariant, g hat(w) g^-1 = hat(g w) for g in SO+(2,1),
    Tr(hat(v) hat(w)) = 2 (v, w)# and |hat(w)|_F = sqrt2 |w|, so an
    so(2,1)-valued quantity is stored as its vector and transported by
    g w.  Broadcasts over leading axes: (..., 3) gives (..., 3, 3).
    """
    w0, w1, w2 = w[..., 0], w[..., 1], w[..., 2]
    zero = np.zeros_like(w0)
    return np.stack([np.stack([zero, w2, -w1], axis=-1),
                     np.stack([-w2, zero, w0], axis=-1),
                     np.stack([-w1, w0, zero], axis=-1)], axis=-2)


def is_group_elem(g: np.ndarray) -> bool:
    """gT e# g = e# to 1e-12, det g = 1 to 1e-9 and g preserves the upper sheet."""
    if float(np.abs(g.T @ E_SHARP @ g - E_SHARP).max()) > 1e-12:
        return False
    if abs(np.linalg.det(g) - 1.0) > 1e-9:
        return False
    return (g @ X0)[2] > 0


def exp_axis(b: np.ndarray, t) -> np.ndarray:
    """exp(t hat(b)), the translation by t along a unit spacelike axis b,
    (b, b)# = 1: hat(b)^3 = hat(b) gives I + sinh t hat(b) + (cosh t - 1)
    hat(b)^2, with cosh t - 1 = 2 sinh^2(t/2), which does not cancel near
    t = 0.  Computed in b's dtype (longdouble passes through).
    """
    t = b.dtype.type(t)
    B = hat(b)
    return np.eye(3, dtype=b.dtype) + np.sinh(t) * B + 2 * np.sinh(t / 2) ** 2 * (B @ B)


def log_map(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Tangent vector at X pointing to Y with |v| = d(X, Y).

    Broadcasts over leading axes; coincident points (d < 1e-12) give zero.
    """
    c = np.maximum(-mink_dot(X, Y), 1.0)
    th = np.arccosh(c)
    with np.errstate(invalid="ignore", divide="ignore"):  # 0/0 where th = 0, masked below
        v = th[..., None] * (Y - c[..., None] * X) / np.sinh(th)[..., None]
    return np.where(th[..., None] < 1e-12, 0.0, v)
