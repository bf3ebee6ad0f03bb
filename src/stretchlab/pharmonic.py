"""Discrete equivariant p-Schatten harmonic map solver at one p, and its
currents; `cli.p_continuation` runs the warm-started p-schedule.

A map is its (nc, 3) array of class points, one hyperboloid point per vertex
class; the chart value at vertex i is rho(w_i) applied to its class point
(`mesh.lift_matrices`), so equivariance is exact by construction.  The
per-triangle differential D is the linear map between log-map charts (domain
chart at the circumcenter, target chart at the projected barycenter),
first-order consistent; TrQ(df)^p = s1^p + s2^p is evaluated as
tr(M^n), M = D^T D and n = p/2, through the complete homogeneous sums
h_k = t h_{k-1} - d h_{k-2} in (t, d) = (tr, det) M: tr(M^n) = t h_{n-1} -
2d h_{n-2}, polynomial for even p, so gradients stay smooth.

The kernel is coordinate-major: class points, chart points and every
per-triangle 3-vector are columns of (3, ..., n) arrays, so each numpy op
runs one contiguous loop; chart points are lifted once per vertex.
The descent, `_descend`, is Riemannian L-BFGS on a product of
hyperboloids, one per vertex class (retraction: renormalize to the sheet,
exact exponential step where that would leave it; vector transport:
tangent projection of the pairs, in place in a ring) with an
approximate-Wolfe line search.  Line-search trials evaluate the energy
alone; a gradient is built from the intermediates of the trial, h_{n-1}
and h_{n-2} included, once it passes Armijo or once J is within
WOLFE_EPS |J| of the start, for the slope test.

The descent is seeded with H0, the inverse of the Gauss-Newton Hessian A of
J_p on the tangent planes of the classes, applied as one symmetric multigrid
V-cycle on the mesh's class hierarchy (`_VCycle`).  A weights each direction
of a triangle's differential by the curvature of |U|_{S_p}^p along it, so
it keeps the anisotropy that makes the p-energies stiff as p grows and
their minimizers approach the best Lipschitz map.  H0 is built from the
evaluation of the stage's start map, and built again at the descent's own
iterate when its accepted steps reach 16, 32, 64, ...: A follows the map
as it moves, at one build per doubling of the step count.  A is the
Hessian's own scale, so H0 G is also the step length taken with an empty
L-BFGS memory, at t = 1.

Currents: S_{p-1} = Q(U)^{p-2} U with U = kappa_p du, V_q = *S_{p-1} x u,
T_q = (S_{p-1} (x) du)# - (1/p)|S_{p-1}| g, W_q = *T_q x id.  `minimize`
builds the per-triangle block (density, T_q, U, S_{p-1}) from the metric
M and the sums h of its final iterate, with no target frame:
U^T U = kappa_p^2 M and M^{n-1} = h_{n-1} I - h_{n-2} adj M, the matrix
whose multiple n M^{n-1} is the gradient's dJ/dM per unit area.
The currents are so(2,1)-valued, and held as R^{2,1} vectors
(`lorentz.hat` gives the matrices): the cross product x is
`mink_cross_vec` and the Killing form twice (,)#.
`density_and_currents` averages that block's slot values onto the edges by
`mesh.edge_average`, the solver's only crossing of the paired sides besides
`mesh.lift_matrices`; `relation_checks` reads the block back.  Both take the
mesh-only data they need from the mesh, which builds it once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .fuchsian import SurfaceGroupRep
from .lorentz import mink_cross_vec
from .mesh import DiscreteOneForm, FundamentalMesh, closedness_residual, edge_average


# ---------------------------------------------------------------------------
# options and result
# ---------------------------------------------------------------------------

# descent: Armijo constant, halvings before a line search fails, the
# relative rise of J within which a trial may pass on its slope (approximate
# Wolfe), the number of L-BFGS pairs kept, and the accepted step at which
# H0 is first built again at the iterate, then at every doubling
ARMIJO_C1 = 1e-4
MAX_BACKTRACKS = 60
WOLFE_EPS = 1e-10
LBFGS_MEMORY = 8
FIRST_REBUILD = 16


@dataclass
class SolveOptions:
    tol: float = 1e-7          # stationarity: |grad| <= tol * max(1, J_p)
    max_iter: int = 6000


@dataclass
class SolveResult:
    mesh: FundamentalMesh
    rho: SurfaceGroupRep
    class_points: np.ndarray  # (nc, 3) the map's hyperboloid point per vertex class
    p: int
    J_p: float
    kappa_p: float
    s1: np.ndarray
    s2: np.ndarray
    # per-triangle block: the kappa_p-normalized density and T_q, the target
    # barycenter u and the columns U e_a, S_{p-1} e_a as vectors of R^{2,1}
    density: np.ndarray  # (nt,)
    T_q: np.ndarray      # (nt, 2, 2)
    u_bar: np.ndarray    # (nt, 3)
    U_amb: np.ndarray    # (nt, 2, 3)
    S_amb: np.ndarray    # (nt, 2, 3)
    # the run statistics of `_descend`
    iterations: int
    restarts: int
    wolfe_rejections: int
    converged: bool
    line_search_failure: bool
    grad_norm: float
    energy_evals: int
    grad_evals: int
    precond_builds: int
    energy_log: list
    # seconds: every build of the preconditioner, and the rest of the
    # descent in `minimize` (the start's evaluation included), then the
    # currents and checks in `cli.p_continuation`
    timings: dict
    V_q: DiscreteOneForm | None = None
    W_q: DiscreteOneForm | None = None
    residuals: dict = field(default_factory=dict)

    def normalized_stage_value(self) -> float:
        """(J_p / Area)^{1/p}."""
        area = float(self.mesh.areas.sum())
        return float((self.J_p / area) ** (1.0 / self.p))


# ---------------------------------------------------------------------------
# coordinate-major energy / gradient kernel
# ---------------------------------------------------------------------------

# The kernel and the V-cycle write their large temporaries in place (ufunc
# out=), one or two live per step: from L4 on, a fresh array per operation is
# trimmed from the heap and faulted back in at every call.  An in-place line
# keeps its operation's operand order and association, so results stay bit
# for bit: np.multiply(beta, t, out=t) for beta * conj(x), not t *= beta.
# numpy's SIMD complex multiply is not bitwise commutative; that one swap in
# `_wspmv` moves the L4 J_p by up to 5.5e-14 relative and changes every stage
# CSV.  An operator expression does not keep the order from 256 KiB on, where
# numpy may reuse a temporary operand as the output with the operands swapped.

# E_SHARP's diagonal as a column: SIGN * v flips the last coordinate of every
# column of a (3, n) array, so (v, w)# = (SIGN * v * w).sum(axis=0); SIGN3
# does the same on a (3, k, n) array
SIGN = np.array([[1.0], [1.0], [-1.0]])
SIGN3 = SIGN[:, None]


class _Context:
    """The mesh data of the kernel, coordinate-major: a 3-vector is a column
    of a (3, ..., n) array, so that every numpy op runs one contiguous loop."""

    def __init__(self, mesh: FundamentalMesh, rho: SurfaceGroupRep):
        if float(mesh.areas.min()) <= 0.0:
            raise ValueError("mesh contains a degenerate (nonpositive-area) triangle")
        self.nv, self.nc = len(mesh.vertices), mesh.n_classes
        self.lift = mesh.lift_matrices(rho).transpose(1, 2, 0).copy()  # (3, 3, nv)
        coord = np.arange(3)[:, None]
        # flat indices of a raveled (3, nc) class array per vertex, and of a
        # raveled (3, nv) vertex array per (coordinate, corner, triangle)
        self.vertex_at = coord * self.nc + mesh.vertex_class        # (3, nv)
        self.corner_at = np.ascontiguousarray(coord[:, None] * self.nv + mesh.triangles.T)  # (3, 3, nt)
        self.Ki = mesh.tri_dxinv.transpose(1, 2, 0).copy()            # (2, 2, nt)
        self.areas = mesh.areas


def _f_log(c):
    """f(c) = arccosh(c)/sqrt(c^2-1) and f'(c) = (1 - c f)/(c^2-1), from
    s^2 = w(c+1) and f = log1p(w+s)/s in w = c - 1, which keep f' to 3e-12
    relative down to w = 1e-4; below that, by their series in w."""
    w = c - 1.0
    s2 = np.maximum(w * (c + 1.0), 1e-300)
    s = np.sqrt(s2)
    f = np.log1p(np.maximum(w, 0.0) + s) / s
    fp = (1.0 - c * f) / s2
    small = w < 1e-4
    if small.any():
        f = np.where(small, 1.0 - w * (1.0 / 3.0 - w * (2.0 / 15.0 - w * (2.0 / 35.0))), f)
        fp = np.where(small, -1.0 / 3.0 + w * (4.0 / 15.0 - w * (6.0 / 35.0)), fp)
    return f, fp


def _tri_metric(ctx: _Context, Z: np.ndarray):
    """Per-triangle M = D^T D (with tr, det) at the (3, nc) class points Z,
    plus the intermediates for grads; corners and columns on the middle axis."""
    X = np.einsum("abv,bv->av", ctx.lift, Z.take(ctx.vertex_at))  # chart point per vertex
    Y = X.take(ctx.corner_at)                                      # (3, 3, nt) chart corners
    S = Y.sum(axis=1)
    nu = np.sqrt(-(S[0] ** 2 + S[1] ** 2 - S[2] ** 2))
    Yb = S / nu
    c = -np.einsum("at,act->ct", SIGN * Yb, Y)                     # (3, nt), >= 1
    f, fp = _f_log(c)
    R = np.multiply(c, Yb[:, None])
    np.subtract(Y, R, out=R)                                       # radial parts
    D = np.multiply(f[1:], R[:, 1:])                               # eta = f R, and d_k = eta_k - eta_1
    D -= f[:1] * R[:, :1]                                          # (3, 2, nt) columns d2, d3
    u = np.einsum("xjt,jat->xat", D, ctx.Ki)                       # columns of D = (d2 d3) Ki
    M = np.einsum("xat,xbt->abt", np.multiply(SIGN3, u, out=D), u)  # (2, 2, nt)
    return {
        "Y": Y, "nu": nu, "Yb": Yb, "c": c, "f": f, "fp": fp, "R": R, "u": u, "M": M,
        "t": M[0, 0] + M[1, 1],
        "d": M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0],
    }


def _power_h(t, d, n):
    """(h_{n-1}, h_{n-2}) of h_k = t h_{k-1} - d h_{k-2}, h_0 = 1, h_{-1} = 0:
    the complete homogeneous sums of the eigenvalues of M.  Then tr(M^n) =
    t h_{n-1} - 2d h_{n-2}, its derivatives in t and d are n h_{n-1} and
    -n h_{n-2}, and M^{n-1} = h_{n-1} I - h_{n-2} adj M (`_power_block`)."""
    h1, h2 = np.ones_like(t), np.zeros_like(t)
    for _ in range(n - 1):
        h1, h2 = t * h1 - d * h2, h1
    return h1, h2


def _power_block(m: dict) -> np.ndarray:
    """M^{n-1} = h_{n-1} I - h_{n-2} adj M as a (2, 2, nt) array."""
    B = m["h2"] * m["M"]
    B[0, 0], B[1, 1] = m["h1"] - B[1, 1], m["h1"] - B[0, 0]
    return B


def _even_p(p) -> bool:
    return isinstance(p, (int, np.integer)) and p >= 2 and p % 2 == 0


def _check_p(p):
    if not _even_p(p):
        raise ValueError("p must be an even integer >= 2")


def check_schedule(schedule) -> list:
    """The p-schedule as a list of ints; raises ValueError unless it is a
    nonempty, strictly increasing list (or tuple) of even integers >= 2."""
    if not (isinstance(schedule, (list, tuple)) and schedule and all(map(_even_p, schedule))
            and all(a < b for a, b in zip(schedule, schedule[1:]))):
        raise ValueError(f"p schedule must be a nonempty, strictly increasing list of even integers >= 2, got {schedule!r}")
    return [int(p) for p in schedule]


def _energy_and_grad(ctx: _Context, Z: np.ndarray, p: int):
    """(J_p, m) at Z: m holds _tri_metric's intermediates, n = p/2, h_{n-1},
    h_{n-2} and the power sums P = tr(M^n), from which
    `_grad_from_metric(ctx, m)` builds the gradient."""
    m = _tri_metric(ctx, Z)
    m["n"] = n = p // 2
    m["h1"], m["h2"] = _power_h(m["t"], m["d"], n)
    m["P"] = m["t"] * m["h1"] - 2.0 * m["d"] * m["h2"]
    return float(np.dot(ctx.areas, m["P"])), m


def _grad_from_metric(ctx: _Context, m: dict) -> np.ndarray:
    """Euclidean gradient of J_p per class point, (3, nc), from _energy_and_grad's m."""
    # dJ/dM = area n M^{n-1}, and M_ab = (u_a, u_b)#
    W = (2.0 * m["n"] * ctx.areas) * _power_block(m)
    gD = np.einsum("jat,xat->xjt", ctx.Ki, SIGN3 * np.einsum("abt,xbt->xat", W, m["u"]))
    geta = np.concatenate([-gD.sum(axis=1, keepdims=True), gD], axis=1)  # (3, 3, nt)
    del W, gD

    Y, Yb, c, f, R = m["Y"], m["Yb"], m["c"], m["f"], m["R"]
    EYb = SIGN * Yb
    s = m["fp"] * np.einsum("xct,xct->ct", geta, R) - f * np.einsum("xct,xt->ct", geta, Yb)  # dJ/dc
    gYb = -SIGN * np.einsum("ct,xct->xt", s, Y) - np.einsum("ct,xct->xt", f * c, geta)
    # through the normalized barycenter: dYb = (I + Yb (E Yb)^T)/nu dS, dS = sum dY
    gS = (gYb + EYb * np.einsum("xt,xt->t", Yb, gYb)) / m["nu"]
    gY = np.multiply(f, geta, out=geta)                            # f geta + (gS - s EYb)
    for k in range(3):
        gY[:, k] += gS - s[k] * EYb

    # corners onto vertices, lift^T per vertex, vertices onto classes
    gX = np.bincount(ctx.corner_at.ravel(), gY.ravel(), 3 * ctx.nv).reshape(3, -1)
    gV = np.einsum("abv,av->bv", ctx.lift, gX)
    return np.bincount(ctx.vertex_at.ravel(), gV.ravel(), 3 * ctx.nc).reshape(3, -1)


def _project(Z: np.ndarray, V: np.ndarray) -> np.ndarray:
    """V, (3, n) or a stack (..., 3, n), projected in place on the tangent
    planes at the columns of Z: v + (v, z)# z, one coordinate at a time."""
    dots = np.einsum("...an,an->...n", V, SIGN * Z)
    term = np.empty_like(dots)
    for a in range(3):
        V[..., a, :] += np.multiply(dots, Z[a], out=term)
    return V


def _riemannian_grad(Z: np.ndarray, g_euclid: np.ndarray) -> np.ndarray:
    return _project(Z, SIGN * g_euclid)


def _mdot(A: np.ndarray, B: np.ndarray):
    """(A, B)# summed over columns, one value per (3, n) array of a stack;
    positive definite on tangent vectors."""
    return np.einsum("...an,...an->...a", A, B) @ SIGN[:, 0]


def _norm2(G: np.ndarray) -> float:
    """Squared norm of tangent vectors, which rounding can take below 0 at a
    stationary point."""
    return max(float(_mdot(G, G)), 0.0)


# trial steps that leave the sheet or are not finite produce non-finite or
# large energies and are rejected by the line search
@np.errstate(invalid="ignore", divide="ignore", over="ignore")
def _retract(Z: np.ndarray, step: np.ndarray) -> np.ndarray:
    N = Z - step
    q = -(N[0] ** 2 + N[1] ** 2 - N[2] ** 2)
    bad = ~(q >= 0.25)  # catches NaN/inf trial steps as well
    if bad.any():
        # exact exponential step where the normalization would leave the
        # sheet; clamp absurd trial steps (they get rejected by Armijo) and
        # keep the old point where the step is not finite
        v, Zb = -step[:, bad], Z[:, bad]
        nv = np.sqrt(np.maximum(v[0] * v[0] + v[1] * v[1] - v[2] * v[2], 1e-300))
        s = np.minimum(nv, 20.0)
        expo = np.cosh(s) * Zb + np.sinh(s) * v / nv
        N[:, bad] = np.where(np.isfinite(v).all(axis=0), expo, Zb)
        q = -(N[0] ** 2 + N[1] ** 2 - N[2] ** 2)
    return N / np.sqrt(q)


# the V-cycle of the preconditioner: the coarsest level it reaches (or the
# mesh's own) and the largest damping of its block Jacobi inverse (`_jacobi`)
VCYCLE_COARSEST = 2
JACOBI_DAMPING = 0.7


def _spmv(vals, cols, starts, x):
    """The product of the sparse matrix with entries vals in columns cols,
    row by row, row i from entry starts[i] (every row nonempty), with the
    vectors x (..., n).  The gather is `take`: the index x[..., cols] goes
    through numpy's general multi-index path and is 4-6x slower at L4."""
    return np.add.reduceat(vals * x.take(cols, axis=-1), starts, axis=-1)


def _wspmv(alpha, beta, cols, starts, x):
    """`_spmv` of the widely linear matrix with entries z -> alpha z + beta
    conj(z), each the real 2x2 block of its slot.  The gathered x and its
    conjugate are its only temporaries, each product written in place in
    its operand order, beta * conj(x) as np.multiply(beta, t, out=t): t *=
    beta would round differently (the rule at the head of the kernel section)."""
    xc = x.take(cols, axis=-1)
    t = np.conjugate(xc)
    np.multiply(beta, t, out=t)
    np.multiply(alpha, xc, out=xc)
    xc += t
    return np.add.reduceat(xc, starts, axis=-1)


def _csum(index, values, n: int):
    """np.bincount of complex weights."""
    return np.bincount(index, values.real, n) + 1j * np.bincount(index, values.imag, n)


def _rotation(lifted: np.ndarray, to, frm) -> np.ndarray:
    """The polar factor of F_to^T E F_frm for the frames at the vertices to
    and frm, lifted frames stored as complex 3-vectors F = a + i b, (3, nv):
    the rotation closest to the map from frm-frame to to-frame coordinates,
    as a unit complex number; one coordinate at a time."""
    z = lifted[0, to] * lifted[0, frm].conj()
    z += lifted[1, to] * lifted[1, frm].conj()
    z -= lifted[2, to] * lifted[2, frm].conj()
    return z / np.abs(z)


def _eigenvalues(m: dict):
    """The eigenvalues of M, (2, nt), the larger first, clipped at 0: t/2 +-
    disc/2, disc^2 = (M11 - M22)^2 + 4 M12^2 a sum of squares, where t^2 -
    4d cancels as the eigenvalues meet."""
    M = m["M"]
    disc = np.sqrt((M[0, 0] - M[1, 1]) ** 2 + 4.0 * M[0, 1] ** 2)
    return np.maximum(0.5 * (m["t"] + np.stack([disc, -disc])), 0.0)


def _schatten_curvature(m: dict):
    """The eigenvectors Q of M, (2, 2, nt), the larger eigenvalue's first,
    and the weights n (Delta_11, Delta_22, 2 Delta_12), (3, nt), of the
    Hessian of tr((U^T U)^n) in U (`_gauss_newton_blocks`)."""
    n, M = m["n"], m["M"]
    theta = 0.5 * np.arctan2(2.0 * M[0, 1], M[0, 0] - M[1, 1])
    cos, sin = np.cos(theta), np.sin(theta)
    lam = _eigenvalues(m)
    return np.array([[cos, -sin], [sin, cos]]), n * np.concatenate([(n - 1) * lam ** max(n - 2, 0), 2.0 * m["h2"][None]])


def _gauss_newton_blocks(ctx: _Context, m: dict, lifted: np.ndarray, tri: np.ndarray) -> list:
    """The corner blocks (k, k) and (k, k + 1) of every triangle's
    Gauss-Newton Hessian of J_p, as two pairs (alpha, beta), each (3, nt):
    the widely linear z -> alpha z + beta conj(z) of a real 2x2 block, for
    the lifted frames F = a + i b of the vertices, (3, nv), and the corners
    tri, (3, nt).

    Psi(U) = tr((U^T U)^n) = |U|_{S_p}^p is convex, and with M = U^T U = Q
    diag(lam) Q^T its Hessian C is d^2 Psi[dU] = 2n tr(M^{n-1} dU^T dU) + n
    sum_ij Delta_ij ((Q^T dM Q)_ij)^2, dM = dU^T U + U^T dU, Delta_ii = (n -
    1) lam_i^{n-2} and Delta_12 = h_{n-2} (`_schatten_curvature`).  The
    columns of D move as du_a = sum_k G_k[a] P dY_k, G the P1 gradients per
    corner and P the projection on the tangent plane at the barycenter, with
    dY_k = F_k (x + iy) at corner k; a triangle's 6x6 block is area L^T C L
    in those (x, y).  A pair of corners takes the first term from the
    Minkowski products of the projected frames, the second from (Q^T dM
    Q)_ij = g_ki r_kj + r_ki g_kj per unit x + iy at corner k, with g_ki =
    q_i . G_k and r_kj = (U q_j, F_k)#."""
    n = m["n"]
    Q, weight = _schatten_curvature(m)
    # corners 0, 1, 2, 0: a corner's arrays are [:, :3], its successor's
    # [:, 1:]; each temporary is dropped once used, since a build's
    # temporaries set the solve's peak memory at L4
    G = np.stack([-ctx.Ki[0] - ctx.Ki[1], ctx.Ki[0], ctx.Ki[1], -ctx.Ki[0] - ctx.Ki[1]])  # G_k[a]
    PG = np.einsum("abt,lbt->lat", _power_block(m), G)             # M^{n-1} G_l
    others = (slice(0, 3), slice(1, 4))
    grams = [(2 * n) * (G[:3] * PG[other]).sum(axis=1) for other in others]
    g = np.einsum("ait,kat->ikt", Q, G)
    del G, PG
    F = lifted[:, tri[[0, 1, 2, 0]]]                               # (3, 4, nt), projected in place
    onto = np.einsum("xt,xkt->kt", SIGN * m["Yb"], F)
    for x in range(3):
        F[x] += onto * m["Yb"][x]
    del onto
    # the frames' term of each block first, so that F is dropped before sig is built
    blocks = [[part * gram for part in _weighted_products(SIGN, F[:, :3], F[:, other])]
              for other, gram in zip(others, grams)]
    r = np.einsum("xit,xkt->ikt", SIGN3 * np.einsum("xat,ait->xit", m["u"], Q), F)
    del F
    # rows ij = 11, 22, 12 of sig = g_i r_j + g_j r_i: 12 from r as it is, then 11 and 22 in place in r
    sig = [r[0], r[1], np.multiply(g[0], r[1])]
    sig[2] += g[1] * r[0]
    for i in range(2):
        sig[i] += np.multiply(g[i], r[i], out=r[i])
    del g
    half = 0.5 * ctx.areas
    for other, block in zip(others, blocks):
        for part, mode in zip(block, _weighted_products(weight[:, None], [row[:3] for row in sig],
                                                        [row[other] for row in sig])):
            part += mode
            part *= half
    return blocks


def _weighted_products(w, X, Y):
    """sum_j w_j X_j conj(Y_j) and sum_j w_j X_j Y_j over the first axis of
    the complex X and Y, one term at a time."""
    wx, t = w[0] * X[0], np.conjugate(Y[0])
    herm, bil = np.multiply(wx, t), wx * Y[0]
    for wj, xj, yj in zip(w[1:], X[1:], Y[1:]):
        np.multiply(wj, xj, out=wx)
        herm += np.multiply(wx, np.conjugate(yj, out=t), out=t)
        bil += np.multiply(wx, yj, out=t)
    return herm, bil


def _assemble(ctx: _Context, mesh: FundamentalMesh, m: dict, lifted: np.ndarray):
    """(alpha, beta) of A on the slots of the finest class graph, for the
    lifted frames (3, nv) of the vertices: each triangle's diagonal blocks
    onto the diagonal slots of its classes, and the block of corners (k, k +
    1) onto slot (a, b) and its transpose onto (b, a)."""
    tri = mesh.triangles.T
    (ad, bd), (ae, be) = _gauss_newton_blocks(ctx, m, lifted, tri)
    graph = mesh.class_hierarchy.graphs[0]
    slots = np.concatenate([graph.diag[mesh.vertex_class[tri]].ravel(), mesh.class_hierarchy.edge_slots.ravel()])
    alpha = _csum(slots, np.concatenate([ad.ravel(), ae.ravel(), ae.conj().ravel()]), len(graph.rows))
    return alpha, _csum(slots, np.concatenate([bd.ravel(), be.ravel(), be.ravel()]), len(graph.rows))


def _jacobi(graph, alpha, beta):
    """The damped inverse (alpha, beta) of the diagonal blocks D_i, z ->
    omega_i (alpha z - beta conj(z)) / (alpha^2 - |beta|^2), alpha real
    there.  omega_i is JACOBI_DAMPING, or 1.9 / R_i where that is smaller,
    R_i = sum_j |D_i^-1/2 A_ij D_j^-1/2| the block Gershgorin row sum (a
    widely linear map's norm is |alpha| + |beta|).  Every row then has
    2 / omega_i - R_i >= 1/7, so 2 Omega^-1 D - A is positive definite and
    the eigenvalues of S A lie in (0, 2), S this inverse: the condition
    under which the V-cycle's smoother (`_chebyshev`) contracts and the
    symmetric V-cycle B is positive definite, with the eigenvalues of B A in
    (0, 1], by construction and not by a margin measured on some maps."""
    da, db = alpha[graph.diag].real, beta[graph.diag]
    # D^-1/2 from the eigenvalues da +- |db|, s the square roots
    s = np.sqrt(da + np.array([[1.0], [-1.0]]) * np.abs(db))
    ra, rb = 0.5 * (1.0 / s[0] + 1.0 / s[1]), -db / (s[0] * s[1] * (s[0] + s[1]))
    rows, cols = graph.rows, graph.cols
    t0, t1 = ra[rows] * alpha + rb[rows] * beta.conj(), ra[rows] * beta + rb[rows] * alpha.conj()
    norm = np.abs(t0 * ra[cols] + t1 * rb[cols].conj()) + np.abs(t0 * rb[cols] + t1 * ra[cols])
    omega = np.minimum(JACOBI_DAMPING, 1.9 / np.bincount(rows, norm, graph.n))
    scale = omega / (da * da - (db * db.conj()).real)
    return scale * da, -scale * db


def _chebyshev(graph, alpha, beta, da, db, res):
    """q(S A) S res, the smoother's correction for the residual res: S the
    damped block Jacobi inverse (da, db) of `_jacobi` and 1 - lam q(lam) the
    degree-3 Chebyshev polynomial of [0.1, 2] scaled to 1 at 0, by the
    three-term recurrence (Saad, Iterative Methods, Alg. 12.1) with centre
    theta and half-width delta.  `_jacobi` keeps the eigenvalues of S A in
    (0, 2), where |1 - lam q(lam)| < 1, and q(S A) S is symmetric, so the
    same correction before and after the coarse correction gives a
    symmetric V-cycle with the eigenvalues of B A in (0, 1]."""
    theta, delta = 1.05, 0.95
    sigma = theta / delta
    rho = 1.0 / sigma
    d = (da * res + db * res.conj()) / theta
    x = d
    for _ in range(2):
        res = res - _wspmv(alpha, beta, graph.cols, graph.starts, d)
        rho, rho_prev = 1.0 / (2.0 * sigma - rho), rho
        d = (rho * rho_prev) * d + (2.0 * rho / delta) * (da * res + db * res.conj())
        x += d
    return x


class _VCycle:
    """H0 of the L-BFGS descent: one symmetric V-cycle for the Gauss-Newton
    Hessian A of J_p, built at a stage's start map and again at the
    descent's iterate after 16, 32, 64, ... accepted steps (`_descend`).

    A tangent vector at class c is a complex number in the class's
    (.,.)#-orthonormal frame (a_c, b_c), a_c the projection of e_1 and b_c
    = z_c x# a_c.  A is the sum over triangles of area L^T C L
    (`_gauss_newton_blocks`), C the Hessian of |U|_{S_p}^p in the
    differential U: positive semidefinite with no clamp, it weights each
    direction of the differential by its own curvature, about s1^{p-2}
    along s1 and s2^{p-2} along s2 (Smith, de Goes & Kim, ACM TOG 38, 2019).
    A has one real 2x2 block per slot of the class graph, stored widely
    linear as z -> alpha z + beta conj(z), and the Hessian's own scale, so
    H0 G is a step length as well as a direction.  The V-cycle has Galerkin
    operators P^H A P down to level VCYCLE_COARSEST, where P injects the
    coarse classes and averages a midpoint class's two ends through the
    polar factor of F_i^T lift_i^T E lift_j F_j, a rotation (as in vector
    diffusion maps, Singer & Wu, CPAM 65, 2012): P is complex linear, so a
    product takes alpha to conj(p_k) alpha p_l and beta to conj(p_k) beta
    conj(p_l).  Each level smooths with the same degree-3 Chebyshev
    polynomial in S A (`_chebyshev`), S the damped block Jacobi inverse
    (`_jacobi`), before and after the coarse correction, and the coarsest
    level is a dense inverse of the real form.  Applied to a tangent field V
    at Z it returns F B F^T E V projected on T_Z, B the V-cycle operator.
    Built at the class points Z from m, the intermediates of
    `_energy_and_grad` there."""

    def __init__(self, ctx: _Context, mesh: FundamentalMesh, Z: np.ndarray, m: dict):
        hier = mesh.class_hierarchy
        depth = mesh.level - min(mesh.level, VCYCLE_COARSEST)
        a = Z * Z[0]
        a[0] += 1.0
        a /= np.sqrt(1.0 + Z[0] ** 2)
        self.a, self.b = a, SIGN * np.cross(Z, a, axis=0)
        self.Ea, self.Eb = SIGN * self.a, SIGN * self.b
        lifted = np.einsum("abv,bv->av", ctx.lift, self.a.take(ctx.vertex_at)) + 1j * np.einsum(
            "abv,bv->av", ctx.lift, self.b.take(ctx.vertex_at))

        alpha, beta = _assemble(ctx, mesh, m, lifted)
        self.levels = []
        for graph, pro, coarse in zip(hier.graphs[:depth], hier.prolongations, hier.graphs[1:]):
            P = np.concatenate([np.ones(coarse.n), 0.5 * _rotation(lifted, pro.mid[:, :1], pro.mid[:, 1:]).ravel()])
            s, k1, k2, slot = pro.galerkin
            # the level's A, its damped block Jacobi inverse, P and P^H
            self.levels.append((graph, alpha, beta) + _jacobi(graph, alpha, beta) + (pro, P, P[pro.r_perm].conj()))
            # in place: these products are the largest arrays of a build
            # (`take` copies through a buffer into out= unless mode="clip")
            Pc = np.conjugate(P)
            products = alpha[s]
            products *= Pc[k1]
            products *= P[k2]
            alpha = _csum(slot, products, len(coarse.rows))
            products = beta.take(s, out=products, mode="clip")
            products *= Pc[k1]
            products *= Pc[k2]
            beta = _csum(slot, products, len(coarse.rows))
        # the coarsest inverse of the real form [[a, b], [c, d]] of the
        # blocks: real LAPACK, which the mesh build already maps into memory
        coarse = hier.graphs[depth]
        n, rows, cols = coarse.n, coarse.rows, coarse.cols
        dense = np.zeros((2 * n, 2 * n))
        dense[rows, cols] = alpha.real + beta.real
        dense[rows, n + cols] = beta.imag - alpha.imag
        dense[n + rows, cols] = alpha.imag + beta.imag
        dense[n + rows, n + cols] = alpha.real - beta.real
        self.coarsest = np.linalg.inv(dense)

    def cycle(self, rhs: np.ndarray, i: int) -> np.ndarray:
        """B rhs for complex class vectors rhs (..., nc) of level i of the
        cycle, 0 the mesh's own."""
        if i == len(self.levels):
            n = rhs.shape[-1]
            x = np.concatenate([rhs.real, rhs.imag], axis=-1) @ self.coarsest.T
            return x[..., :n] + 1j * x[..., n:]
        graph, alpha, beta, da, db, pro, P, PT = self.levels[i]
        x = _chebyshev(graph, alpha, beta, da, db, rhs)
        res = rhs - _wspmv(alpha, beta, graph.cols, graph.starts, x)
        x += _spmv(P, pro.cols, pro.starts, self.cycle(_spmv(PT, pro.r_rows, pro.r_starts, res), i + 1))
        res = rhs - _wspmv(alpha, beta, graph.cols, graph.starts, x)
        x += _chebyshev(graph, alpha, beta, da, db, res)
        return x

    def __call__(self, Z: np.ndarray, V: np.ndarray) -> np.ndarray:
        """H0 V for tangent fields V, (3, nc) or a stack (..., 3, nc), at Z."""
        x = self.cycle(np.einsum("an,...an->...n", self.Ea, V) + 1j * np.einsum("an,...an->...n", self.Eb, V), 0)
        return _project(Z, self.a * x.real[..., None, :] + self.b * x.imag[..., None, :])


def _lbfgs_direction(Z: np.ndarray, G: np.ndarray, precond, ring: np.ndarray, live: list,
                     sy: np.ndarray) -> np.ndarray:
    """H G by the L-BFGS two-loop recursion in (., .)# over the pairs
    (s, y) = ring[:, i] for the slots i in `live`, oldest first, with
    sy[i] = (s, y)#, seeded with (s, y)#/(y, H0 y)# H0 for the newest pair:
    one call of precond gives H0 q and H0 y together.  Projected on T_Z."""
    S, Y = ring
    q, alphas = G.copy(), []
    for i in reversed(live):
        alphas.append(_mdot(S[i], q) / sy[i])
        q -= alphas[-1] * Y[i]
    y = Y[live[-1]]
    Hq, Hy = precond(Z, np.stack([q, y]))
    r = (sy[live[-1]] / _mdot(y, Hy)) * Hq
    for i, a in zip(live, reversed(alphas)):
        r += (a - _mdot(Y[i], r) / sy[i]) * S[i]
    return _project(Z, r)


def _descend(energy, grad, Z: np.ndarray, start, build, opts: SolveOptions):
    """Riemannian L-BFGS with an approximate-Wolfe line search on (3, n)
    points Z, one hyperboloid point per column, preconditioned by H0 =
    build(Z, extra): a callable precond(Z, V), a symmetric positive map of
    tangent fields V at Z, (3, n) or a stack of them (`_VCycle` in
    `minimize`), applied once per iteration.  H0 is built at the first
    iterate that takes a step, and built again at the current iterate, from
    its own extra, when the accepted steps reach FIRST_REBUILD, twice that,
    four times that, ...: one build below FIRST_REBUILD iterations and at
    most 1 + log2(iterations / 8) from there (`precond_builds`, timed in
    `precond_s`), none with a budget of 0 or at a stationary start.  The old
    H0 is dropped before the new one is built, and the L-BFGS pairs,
    curvature pairs of J that H0 only seeds, are kept.

    energy(Z) returns (J, extra) without a gradient, so a line-search trial
    costs one energy evaluation; start = energy(Z) at the start, evaluated
    by the caller and counted in energy_evals; grad(extra) builds the
    Euclidean gradient.  A trial is _retract(Z, t r), r = `_lbfgs_direction`
    or, with an empty memory, H0 G, and t = 1 halved up to MAX_BACKTRACKS
    times.  It passes on Armijo decrease, or, if J rose by
    at most WOLFE_EPS |J| (the float resolution of J), when its gradient G+,
    then reused, has (G+, r)# in [-0.8, 0.9] (G, r)#; a failed slope test
    costs a gradient (`wolfe_rejections`), so grad_evals == iterations + 1 +
    wolfe_rejections.  So J rises by at most WOLFE_EPS |J| across an
    accepted step.  The pairs s = Z+ - Z, y = G+ - G are written into a
    preallocated ring of LBFGS_MEMORY + 1 slots, which is projected on T_Z+
    in place after each step (the vector transport), and a pair is kept
    while (s, y)# > 0.  A failed line search clears the memory and retries
    along H0 G (`restarts`, counted in the budget with the accepted steps
    `iterations`); failing there is a line-search failure.  `converged`
    means |G| <= tol max(1, J), tested at every iterate, so a budget of 0
    reports whether the start point is stationary.  Returns the last
    iterate, its energy and extra, and the run statistics.
    """
    J, extra = start
    G = _riemannian_grad(Z, grad(extra))
    energy_evals = grad_evals = 1
    log, ring, live = [J], np.zeros((2, LBFGS_MEMORY + 1) + Z.shape), []
    iterations = restarts = wolfe_rejections = builds = 0
    converged = ls_failure = False
    precond, rebuild_at, build_s = None, FIRST_REBUILD, 0.0
    while True:
        gnorm2 = _norm2(G)
        if np.sqrt(gnorm2) <= opts.tol * max(1.0, J):
            converged = True
            break
        if iterations + restarts >= opts.max_iter:
            break
        if iterations >= rebuild_at:
            precond, rebuild_at = None, 2 * rebuild_at
        if precond is None:
            began = time.perf_counter()
            precond = build(Z, extra)
            build_s += time.perf_counter() - began
            builds += 1
        if live:
            r = _lbfgs_direction(Z, G, precond, ring, live, sy)
        else:
            r = precond(Z, G)
        slope = float(_mdot(G, r))
        t = 1.0
        # a direction that does not descend fails without a trial
        for _ in range(MAX_BACKTRACKS if slope > 0.0 else 0):
            Z_new = _retract(Z, t * r)
            J_new, extra_new = energy(Z_new)
            energy_evals += 1
            G_new = None
            if J_new <= J - ARMIJO_C1 * t * slope:
                break
            if J_new <= J + WOLFE_EPS * abs(J):
                G_new = _riemannian_grad(Z_new, grad(extra_new))
                grad_evals += 1
                if -0.8 * slope <= _mdot(G_new, r) <= 0.9 * slope:
                    break
                wolfe_rejections += 1
            t *= 0.5
        else:
            if live:
                live = []
                restarts += 1
                continue
            ls_failure = True
            break
        if G_new is None:
            G_new = _riemannian_grad(Z_new, grad(extra_new))
            grad_evals += 1
        slot = min(set(range(LBFGS_MEMORY + 1)) - set(live))
        np.subtract(Z_new, Z, out=ring[0, slot])
        np.subtract(G_new, G, out=ring[1, slot])
        _project(Z_new, ring)
        sy = _mdot(ring[0], ring[1])
        live = [i for i in live + [slot] if sy[i] > 0.0][-LBFGS_MEMORY:]
        Z, J, extra, G = Z_new, J_new, extra_new, G_new
        iterations += 1
        log.append(J)

    stats = dict(iterations=iterations, restarts=restarts, wolfe_rejections=wolfe_rejections,
                 converged=converged, line_search_failure=ls_failure, grad_norm=float(np.sqrt(gnorm2)),
                 energy_evals=energy_evals, grad_evals=grad_evals, energy_log=log,
                 precond_builds=builds, precond_s=build_s)
    return Z, J, extra, stats


def minimize(
    mesh: FundamentalMesh,
    rho: SurfaceGroupRep,
    p: int,
    opts: SolveOptions,
    init: np.ndarray | None = None,
) -> SolveResult:
    """Minimization of J_p over equivariant maps by `_descend`, from the
    (nc, 3) class points `init`, by default the domain's own class points.

    Returns the last iterate with flags on line-search failure or hitting
    the iteration budget, and the per-triangle block at it.  A budget of 0
    measures `init` as it is.
    """
    _check_p(p)
    Z0 = (mesh.vertices[mesh.class_rep_vertex] if init is None else np.asarray(init, dtype=float)).T.copy()
    ctx = _Context(mesh, rho)

    # the start is evaluated once, for the first H0 and the descent
    start = time.perf_counter()
    Z, J, m, stats = _descend(lambda Z: _energy_and_grad(ctx, Z, p), lambda m: _grad_from_metric(ctx, m),
                              Z0, _energy_and_grad(ctx, Z0, p), lambda Z, m: _VCycle(ctx, mesh, Z, m), opts)
    precond_s = stats.pop("precond_s")
    timings = {"precond_s": precond_s, "descent_s": time.perf_counter() - start - precond_s}
    s1, s2 = np.sqrt(_eigenvalues(m))
    kappa = float(J ** (-1.0 / p))
    # the block at the final iterate from M, its power M^{p/2-1} and the
    # columns u of D: U = kappa u, U^T U = kappa^2 M
    B = _power_block(m)
    density = kappa ** p * m["P"]                                  # TrQ(U)^p
    return SolveResult(
        mesh=mesh,
        rho=rho,
        class_points=Z.T.copy(),
        p=int(p),
        J_p=J,
        kappa_p=kappa,
        s1=s1,
        s2=s2,
        density=density,
        T_q=kappa ** p * np.einsum("abt,bct->tac", m["M"], B) - (density / p)[:, None, None] * np.eye(2),
        u_bar=m["Yb"].T,
        U_amb=kappa * m["u"].T,
        S_amb=kappa ** (p - 1) * np.einsum("abt,xbt->tax", B, m["u"]),  # U M^{p/2-1}, columns as rows
        timings=timings,
        **stats,
    )


# ---------------------------------------------------------------------------
# densities, currents, identities
# ---------------------------------------------------------------------------

def density_and_currents(result: SolveResult) -> SolveResult:
    """Fill V_q, W_q, the density mass and the closedness residuals from the
    per-triangle block that `minimize` built; `edge_average` takes each
    current's slot values onto the edges, V_q's by rho and W_q's by sigma."""
    mesh = result.mesh
    result.residuals["density_mass"] = float(np.dot(mesh.areas, result.density))
    # the slot values are vectors of R^{2,1}: the mesh's rotated edge vectors
    # applied to the block's columns crossed with the triangle's point (the
    # cross is linear, so it is taken on the 2 columns, not on the 3 slots).
    # Batched @, not einsum: on these row-major (nt, 3, 2) blocks einsum runs
    # inner loops of length 2 or 3 and is 7-8x slower at L4
    r = mesh.edge_normals
    result.V_q = edge_average(mesh, r @ mink_cross_vec(result.S_amb, result.u_bar[:, None]), result.rho)
    result.W_q = edge_average(mesh, r @ mink_cross_vec(result.T_q.transpose(0, 2, 1) @ mesh.frames,
                                                       mesh.circumcenters[:, None]), mesh.rep)
    result.residuals["V_closedness"] = closedness_residual(result.V_q)
    result.residuals["W_closedness"] = closedness_residual(result.W_q)
    return result


def relation_checks(result: SolveResult) -> dict:
    """Finite-p identities and trend diagnostics on an enriched result.

    (a) the exact algebraic identity -2 T_q = (*V_q (x) du x u)# + (2/p)|S| g
        per triangle; the limiting form -2T = (*V (x) du x u)# drops the trace
        term as p -> infinity, and the trace-free parts agree identically.
    (b) per-triangle density of *(omega_mc wedge W_q)# against 2|S_{p-1}|
        (relative L^1 gap; the continuum value is 2(1-2/p)|S|+O(h), so the
        gap shrinks as p grows).
    (c) density mass fraction on triangles with s1 >= 0.9 max(s1).
    """
    if result.W_q is None:
        raise ValueError("run density_and_currents first")
    mesh = result.mesh
    p = result.p

    # (a) pointwise algebra through the so(2,1) values as vectors:
    # V(xi) = S(rot_-90 xi) x u, so (*V)(e_a) = S(rot_-90 rot_-90 e_a) x u = -S e_a x u,
    # and the Killing form Tr(hat(v) hat(w)) is 2 (v, w)#
    starV = mink_cross_vec(-result.S_amb, result.u_bar[:, None])   # (nt, 2, 3)
    duxu = mink_cross_vec(result.U_amb, result.u_bar[:, None])
    prod = (SIGN.T * starV)[:, :, None] * duxu[:, None]            # (nt, 2, 2, 3)
    rhs = 2.0 * (prod[..., 0] + prod[..., 1] + prod[..., 2])
    lhs = -2.0 * result.T_q
    eye = np.eye(2)

    def tracefree(A):
        return A - 0.5 * np.einsum("tii->t", A)[:, None, None] * eye

    exact = lhs - (rhs + (2.0 / p) * result.density[:, None, None] * eye)

    # (b) discrete *(omega_mc wedge W) vs 2 |S|; imported here, not at the
    # top, so that a wrapper patched onto the mesh module after import sees
    # the call (the benchmark's tracer times triangle_wedge_density so)
    from .mesh import triangle_wedge_density

    wedge_density = triangle_wedge_density(mesh.maurer_cartan, result.W_q)
    target = 2.0 * result.density
    l1_gap = float(np.dot(mesh.areas, np.abs(wedge_density - target)))
    l1_norm = float(np.dot(mesh.areas, np.abs(target)))

    # (c) concentration
    s1max = float(result.s1.max())
    sel = result.s1 >= 0.9 * s1max
    concentration = float(np.dot(mesh.areas[sel], result.density[sel]))

    report = {
        "minus2T_exact_identity": float(np.abs(exact).max()),
        "minus2T_tracefree_gap": float(np.abs(tracefree(lhs) - tracefree(rhs)).max()),
        "minus2T_literal_gap": float(np.abs(lhs - rhs).max()),
        "omega_wedge_W_l1_gap": l1_gap / max(l1_norm, 1e-300),
        "concentration_fraction": concentration,
    }
    result.residuals.update(report)
    return report
