"""Exact linear algebra in R^{2,1} and so(2,1).

Minkowski space R^{2,1} carries the bilinear form (X,Y)# = X^T diag(1,1,-1) Y.
The upper hyperboloid sheet {(X,X)# = -1, z >= 1} is the hyperbolic plane; its
orientation-preserving isometry group is SO+(2,1) acting by matrices g with
g^T e# g = e#, det g = 1.  The Lie algebra so(2,1) consists of traceless
matrices with A# = -A, where A# = e# A^T e#.  Every A in so(2,1) satisfies the
cubic identity A^3 = k A with k = Tr(A^2)/2, which gives closed-form
exponentials and logarithms with three branches (hyperbolic / elliptic /
near-parabolic).

Vectors are plain numpy arrays of shape (3,), Lie algebra elements and group
elements are arrays of shape (3, 3).
"""

from __future__ import annotations

import numpy as np

E_SHARP = np.diag([1.0, 1.0, -1.0])
X0 = np.array([0.0, 0.0, 1.0])

# the axis through X0 in the y-direction:
# B_STD generates the unit-speed geodesic t -> (0, sinh t, cosh t).
B_STD = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])

# tolerances of the hyperboloid and axis tests
ATOL = 1e-10
AXIS_TOL = 1e-8
# the exponential sums its series below |k| = 1, where cosh w - 1 and
# 1 - cos w cancel (to a relative error of 1e-8 at |k| = 1e-8)
EXP_SERIES_CUTOFF = 1.0


class FrameError(ValueError):
    """Raised when (B, X) do not describe a unit-speed axis through X."""


def mink_dot(X: np.ndarray, Y: np.ndarray):
    """Inner product (X,Y)# = x1 y1 + x2 y2 - x3 y3.

    Broadcasts over leading axes; two vectors give a float.
    """
    d = X[..., 0] * Y[..., 0] + X[..., 1] * Y[..., 1] - X[..., 2] * Y[..., 2]
    return float(d) if np.ndim(d) == 0 else d


def sharp_adj(M: np.ndarray) -> np.ndarray:
    """M# = e# M^T e#; the adjoint with respect to (,)#."""
    return E_SHARP @ M.T @ E_SHARP


def group_inv(g: np.ndarray) -> np.ndarray:
    """Inverse of g in O(2,1), g^-1 = g#."""
    return sharp_adj(g)


def is_on_hyperboloid(X: np.ndarray, tol: float = ATOL) -> bool:
    return abs(mink_dot(X, X) + 1.0) <= tol and X[2] >= 1.0 - tol


def normalize_to_hyperboloid(X: np.ndarray) -> np.ndarray:
    """Rescale timelike vectors onto the upper sheet; broadcasts over leading axes."""
    q = -mink_dot(X, X)
    if np.any(q <= 0):
        raise ValueError("vector is not timelike")
    Y = X / np.sqrt(q)[..., None]
    return np.where(Y[..., 2:] > 0, Y, -Y)


def cross(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Lie-algebra-valued cross product X x Y = Y X# - X Y#.

    Broadcasts over leading axes: (..., 3) vectors give (..., 3, 3) values.
    """
    sign = E_SHARP.diagonal()
    out = Y[..., :, None] * (X * sign)[..., None, :]
    out -= X[..., :, None] * (Y * sign)[..., None, :]
    return out


def mink_cross_vec(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vector product in R^{2,1}: dual of the euclidean cross via e#.

    For X on the hyperboloid and u tangent at X, mink_cross_vec(X, u) is u
    rotated by +90 degrees in T_X H (the positively oriented complement).
    Broadcasts over leading axes.
    """
    return np.cross(u, v) @ E_SHARP


def killing(A: np.ndarray, B: np.ndarray):
    """Killing form (A,B)# = Tr AB on so(2,1); signature (2,1).

    Returns a numpy scalar in the common dtype of the inputs (extended
    precision is preserved when callers work in longdouble).
    """
    return np.tensordot(A, B.T, axes=2)


def is_group_elem(g: np.ndarray) -> bool:
    """gT e# g = e# to 1e-12, det g = 1 to 1e-9 and g preserves the upper sheet."""
    if float(np.abs(g.T @ E_SHARP @ g - E_SHARP).max()) > 1e-12:
        return False
    if abs(np.linalg.det(g) - 1.0) > 1e-9:
        return False
    return (g @ X0)[2] > 0


def project_tangent(X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Orthogonal projection Pi(X) v = v + (v,X)# X onto T_X H.

    X must lie on the hyperboloid.
    """
    if not is_on_hyperboloid(X):
        raise ValueError("projection base point is not on the hyperboloid")
    return v + mink_dot(v, X) * X


def _exp_coeffs(k):
    """f1, f2 with exp(A) = I + f1 A + f2 A^2 for A^3 = k A (dtype-preserving)."""
    if abs(k) < EXP_SERIES_CUTOFF:
        # f1 = sum k^n / (2n+1)!, f2 = sum k^n / (2n+2)! through k^9, nested;
        # the remainder is below 1e-19
        f1 = f2 = 1.0
        for n in range(9, 0, -1):
            f1 = 1.0 + k / ((2 * n) * (2 * n + 1)) * f1
            f2 = 1.0 + k / ((2 * n + 1) * (2 * n + 2)) * f2
        f2 = 0.5 * f2
    elif k > 0:
        w = np.sqrt(k)
        f1 = np.sinh(w) / w
        f2 = (np.cosh(w) - 1.0) / k
    else:
        w = np.sqrt(-k)
        f1 = np.sin(w) / w
        f2 = (1.0 - np.cos(w)) / (-k)
    return f1, f2


def exp_so21(A: np.ndarray) -> np.ndarray:
    """Matrix exponential on so(2,1) via the cubic identity A^3 = kA.

    k = Tr(A^2)/2 selects the series in k (|k| < EXP_SERIES_CUTOFF) or the
    hyperbolic (k > 0) or elliptic (k < 0) closed form.  The input dtype
    (e.g. longdouble) is preserved.
    """
    A2 = A @ A
    k = 0.5 * np.trace(A2)
    f1, f2 = _exp_coeffs(k)
    return np.eye(3, dtype=A.dtype) + f1 * A + f2 * A2


def log_so21(g: np.ndarray) -> np.ndarray:
    """Inverse of exp_so21 on SO+(2,1).

    Writes g = I + f1(k) A + f2(k) A^2 and recovers A = (g - g#)/(2 f1).  The
    branch is read off c = (Tr g - 1)/2 (= cosh length, cos angle, or 1);
    round-trips to 1e-10 away from rotations by ~pi where f1 vanishes.
    """
    c = (float(np.trace(g)) - 1.0) / 2.0
    m = 0.5 * (g - sharp_adj(g))
    if c > 1.0 + 1e-12:
        w = np.arccosh(c)
        f1 = np.sinh(w) / w
    elif c < 1.0 - 1e-12:
        w = np.arccos(max(c, -1.0))
        s = np.sin(w)
        if abs(s) < 1e-6:
            raise ValueError("log near a rotation by pi is not supported")
        f1 = s / w
    else:
        # near-identity / parabolic: k from the trace, then the f1 series
        k = float(np.trace(g)) - 3.0
        f1 = 1.0 + k / 6.0 + k * k / 120.0
    return m / f1


def log_map(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Tangent vector at X pointing to Y with |v| = d(X, Y).

    Broadcasts over leading axes; coincident points (d < 1e-12) give zero.
    """
    c = np.maximum(-mink_dot(X, Y), 1.0)
    th = np.arccosh(c)
    with np.errstate(invalid="ignore", divide="ignore"):  # 0/0 where th = 0, masked below
        v = th[..., None] * (Y - c[..., None] * X) / np.sinh(th)[..., None]
    return np.where(th[..., None] < 1e-12, 0.0, v)


def frame_at(B: np.ndarray, X: np.ndarray):
    """Frame (B, Bperp, nhat) of so(2,1) adapted to the axis of B through X.

    B must be a hyperbolic generator with killing(B,B) = 2 whose axis passes
    through X (equivalently B^2 X = X); then B X is the unit tangent along the
    axis, Bperp = (the 90-degree rotated tangent) x X and nhat = Bperp B - B Bperp
    spans the Killing-negative direction.  The Gram matrix is diag(2, 2, -2).
    """
    if abs(killing(B, B) - 2.0) > AXIS_TOL:
        raise FrameError("generator is not killing-normalized to (B,B)# = 2")
    if not is_on_hyperboloid(X, max(AXIS_TOL, ATOL)):
        raise FrameError("frame base point is not on the hyperboloid")
    if float(np.abs(B @ B @ X - X).max()) > AXIS_TOL:
        raise FrameError("base point is not on the axis of B")
    t = B @ X  # unit tangent along the axis
    n_vec = mink_cross_vec(t, X)  # in-plane unit normal (tangent rotated by -90)
    Bp = cross(n_vec, X)
    nh = Bp @ B - B @ Bp
    return B, Bp, nh
