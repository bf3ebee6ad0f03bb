"""Discrete equivariant p-Schatten harmonic map solver and its currents.

Maps are stored as one hyperboloid point per vertex class; the chart value at
vertex i is rho(w_i) applied to the class point, so equivariance is exact by
construction.  The per-triangle differential D is the linear map between
log-map charts (domain chart at the circumcenter, target chart at the
projected barycenter), first-order consistent; TrQ(df)^p = s1^p + s2^p is
evaluated as Tr((D^T D)^{p/2}) through the Newton power recurrence in
(tr, det), which is polynomial for even p and keeps gradients smooth.

One descent loop, `_descend`, serves both the surface solver and the
cylinder rig: projected gradient with Armijo backtracking on a product of
hyperboloids (retraction: renormalize to the sheet; exact exponential step
when the normalization would leave it), with a Barzilai-Borwein initial step.
Armijo trials evaluate the energy alone; the gradient is built once per
accepted step, from the intermediates that the accepted trial returned,
its power sums p_k included.

Currents: S_{p-1} = Q(U)^{p-2} U with U = kappa_p du, V_q = *S_{p-1} x u,
T_q = (S_{p-1} (x) du)# - (1/p)|S_{p-1}| g, W_q = *T_q x id, assembled as
per-edge forms by averaging adjacent triangle contributions (with Ad
transport across the paired boundary).  `density_and_currents` is the one
place that builds the per-triangle block (target frames, U, S_{p-1}, T_q);
`relation_checks` reads it back from the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lorentz
from .fuchsian import SurfaceGroupRep
from .lorentz import E_SHARP, cross, exp_so21, mink_cross_vec, mink_dot
from .mesh import DiscreteOneForm, FundamentalMesh, closedness_residual, maurer_cartan


# ---------------------------------------------------------------------------
# map and options
# ---------------------------------------------------------------------------

@dataclass
class EquivariantMap:
    """Hyperboloid point per vertex class, rho-equivariant chart extension."""

    mesh: FundamentalMesh
    rho: SurfaceGroupRep
    class_points: np.ndarray  # (nc, 3)

    def chart_points(self) -> np.ndarray:
        lifts = self.mesh.lift_matrices(self.rho)
        return np.einsum("vab,vb->va", lifts, self.class_points[self.mesh.vertex_class])

    def validate(self, tol: float = 1e-10):
        Z = self.class_points
        q = Z[:, 0] ** 2 + Z[:, 1] ** 2 - Z[:, 2] ** 2
        if float(np.abs(q + 1.0).max()) > tol:
            raise ValueError("class points are not on the hyperboloid")
        # boundary equivariance is structural; verify on the paired vertices
        if self.mesh.pairing_drift(self.chart_points(), self.rho) > tol * 10:
            raise ValueError("map is not equivariant across a paired boundary")
        return self


def identity_map(mesh: FundamentalMesh, rho: SurfaceGroupRep) -> EquivariantMap:
    """Class points at the domain representatives (the natural warm start)."""
    return EquivariantMap(mesh, rho, mesh.vertices[mesh.class_rep_vertex].copy())


# line search: steps at most STEP_CAP, Armijo sufficient-decrease constant,
# and the number of halvings before a line search fails
STEP_CAP = 1.0
ARMIJO_C1 = 1e-4
MAX_BACKTRACKS = 60


@dataclass
class SolveOptions:
    tol: float = 1e-7          # stationarity: |grad| <= tol * max(1, J_p)
    max_iter: int = 4000


@dataclass
class SolveResult:
    map: EquivariantMap
    p: int
    J_p: float
    kappa_p: float
    s1: np.ndarray
    s2: np.ndarray
    density: np.ndarray | None = None
    V_q: DiscreteOneForm | None = None
    W_q: DiscreteOneForm | None = None
    T_q: np.ndarray | None = None
    # per-triangle block kept for relation_checks: the target barycenter u and
    # the columns U e_a, S_{p-1} e_a pushed into R^{2,1} by the target frame
    u_bar: np.ndarray | None = None   # (nt, 3)
    U_amb: np.ndarray | None = None   # (nt, 2, 3)
    S_amb: np.ndarray | None = None   # (nt, 2, 3)
    residuals: dict = field(default_factory=dict)
    iterations: int = 0
    converged: bool = True
    line_search_failure: bool = False
    grad_norm: float = float("nan")
    energy_evals: int = 0
    grad_evals: int = 0
    energy_log: list = field(default_factory=list)

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)

    def normalized_stage_value(self) -> float:
        """(J_p / Area)^{1/p}."""
        area = float(self.map.mesh.areas.sum())
        return float((self.J_p / area) ** (1.0 / self.p))


# ---------------------------------------------------------------------------
# vectorized energy / gradient context
# ---------------------------------------------------------------------------

class _Context:
    def __init__(self, mesh: FundamentalMesh, rho: SurfaceGroupRep):
        tri = mesh.triangles
        self.tri_class = mesh.vertex_class[tri]                    # (nt, 3)
        lifts = mesh.lift_matrices(rho)
        self.lift = lifts[tri]                                     # (nt, 3, 3, 3)
        self.areas = mesh.areas
        self.Ki = mesh.tri_dxinv                                   # (nt, 2, 2)
        self.KiT = self.Ki.transpose(0, 2, 1)
        self.nc = mesh.n_classes

    def chart_corners(self, Z: np.ndarray) -> np.ndarray:
        return np.einsum("tcab,tcb->tca", self.lift, Z[self.tri_class])


def _f_log(c):
    """f(c) = arccosh(c)/sqrt(c^2-1) and f'(c), stable near c = 1."""
    w = c - 1.0
    small = w < 1e-6
    s2 = np.maximum(c * c - 1.0, 1e-300)
    s = np.sqrt(s2)
    th = np.arccosh(np.maximum(c, 1.0))
    f_big = th / s
    fp_big = (s - th * c) / (s2 * s)
    f_small = 1.0 - w / 3.0 + (2.0 / 15.0) * w * w
    fp_small = -1.0 / 3.0 + (4.0 / 15.0) * w
    return np.where(small, f_small, f_big), np.where(small, fp_small, fp_big)


def _tri_metric(ctx: _Context, Z: np.ndarray):
    """Per-triangle M = D^T D (as tr, det) plus the intermediates for grads."""
    Y = ctx.chart_corners(Z)                     # (nt, 3, 3)
    S = Y.mean(axis=1)
    q = -(S[:, 0] ** 2 + S[:, 1] ** 2 - S[:, 2] ** 2)
    nu = np.sqrt(q)
    Yb = S / nu[:, None]
    EYb = Yb @ E_SHARP
    c = -np.einsum("ta,tca->tc", EYb, Y)         # (nt, 3), >= 1
    f, fp = _f_log(c)
    eta = f[:, :, None] * (Y - c[:, :, None] * Yb[:, None, :])
    d2 = eta[:, 1] - eta[:, 0]
    d3 = eta[:, 2] - eta[:, 0]
    Ed2 = d2 @ E_SHARP
    Ed3 = d3 @ E_SHARP
    G = np.empty((len(Y), 2, 2))
    G[:, 0, 0] = np.einsum("ta,ta->t", Ed2, d2)
    G[:, 0, 1] = G[:, 1, 0] = np.einsum("ta,ta->t", Ed2, d3)
    G[:, 1, 1] = np.einsum("ta,ta->t", Ed3, d3)
    M = ctx.KiT @ G @ ctx.Ki
    return {
        "Y": Y, "S": S, "nu": nu, "Yb": Yb, "c": c, "f": f, "fp": fp,
        "eta": eta, "d2": d2, "d3": d3, "M": M,
        "t": M[:, 0, 0] + M[:, 1, 1],
        "d": M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0],
    }


def _newton_power(t, d, half_p):
    """[p_0, ..., p_{half_p}] with p_k = tr(M^k) = t p_{k-1} - d p_{k-2}."""
    P = [np.full_like(t, 2.0), t]
    for _ in range(half_p - 1):
        P.append(t * P[-1] - d * P[-2])
    return P[: half_p + 1]


def _power_derivatives(t, d, P):
    """d/dt and d/dd of the last power sum in P = [p_0, ..., p_n], through
    the derivatives of the recurrence over the stored p_k."""
    U = [np.zeros_like(t), np.ones_like(t)]
    V = [np.zeros_like(t), np.zeros_like(t)]
    for k in range(2, len(P)):
        U.append(P[k - 1] + t * U[-1] - d * U[-2])
        V.append(t * V[-1] - P[k - 2] - d * V[-2])
    return U[len(P) - 1], V[len(P) - 1]


def _check_p(p):
    if not (isinstance(p, (int, np.integer)) and p >= 2 and p % 2 == 0):
        raise ValueError("p must be an even integer >= 2")


def energy_Jp(u: EquivariantMap, p: int) -> float:
    """J_p = sum_T area_T (s1^p + s2^p) with s_i the singular values of D."""
    _check_p(p)
    if float(u.mesh.areas.min()) <= 0.0:
        raise ValueError("mesh contains a degenerate (nonpositive-area) triangle")
    return _energy_and_grad(_Context(u.mesh, u.rho), u.class_points, p)[0]


def singular_values(u: EquivariantMap) -> tuple[np.ndarray, np.ndarray]:
    return _singular_values(_tri_metric(_Context(u.mesh, u.rho), u.class_points))


def _singular_values(m):
    t, d = m["t"], np.maximum(m["d"], 0.0)
    disc = np.sqrt(np.maximum(t * t - 4.0 * d, 0.0))
    lam1 = 0.5 * (t + disc)
    lam2 = np.maximum(0.5 * (t - disc), 0.0)
    return np.sqrt(lam1), np.sqrt(lam2)


def _energy_and_grad(ctx: _Context, Z: np.ndarray, p: int):
    """(J_p, m) at Z: m holds _tri_metric's intermediates and the power sums
    m["P"] = [p_0, ..., p_{p/2}], from which `_grad_from_metric(ctx, m)`
    builds the gradient."""
    m = _tri_metric(ctx, Z)
    m["P"] = _newton_power(m["t"], m["d"], p // 2)
    return float(np.dot(ctx.areas, m["P"][-1])), m


def _grad_from_metric(ctx: _Context, m: dict) -> np.ndarray:
    """Euclidean gradient of J_p per class point, from _energy_and_grad's m."""
    du, dv = _power_derivatives(m["t"], m["d"], m["P"])
    M = m["M"]
    adjM = np.empty_like(M)
    adjM[:, 0, 0] = M[:, 1, 1]
    adjM[:, 1, 1] = M[:, 0, 0]
    adjM[:, 0, 1] = -M[:, 0, 1]
    adjM[:, 1, 0] = -M[:, 1, 0]
    dEdM = (ctx.areas * du)[:, None, None] * np.eye(2) + (ctx.areas * dv)[:, None, None] * adjM
    W = ctx.Ki @ dEdM @ ctx.KiT                                    # dE/dG, symmetric

    d2, d3 = m["d2"], m["d3"]
    gd2 = 2.0 * (W[:, 0, 0, None] * d2 + W[:, 0, 1, None] * d3) @ E_SHARP
    gd3 = 2.0 * (W[:, 0, 1, None] * d2 + W[:, 1, 1, None] * d3) @ E_SHARP
    geta = np.stack([-(gd2 + gd3), gd2, gd3], axis=1)              # (nt, 3, 3)

    Y, Yb, c, f, fp, nu = m["Y"], m["Yb"], m["c"], m["f"], m["fp"], m["nu"]
    EYb = Yb @ E_SHARP
    radial = Y - c[:, :, None] * Yb[:, None, :]
    dot_rad = np.einsum("tca,tca->tc", geta, radial)
    dot_Yb = np.einsum("tca,ta->tc", geta, Yb)
    s_coef = fp * dot_rad - f * dot_Yb                             # (nt, 3)

    gY = f[:, :, None] * geta + s_coef[:, :, None] * (-EYb)[:, None, :]
    gYb = np.einsum("tc,tca->ta", s_coef, -(Y @ E_SHARP)) - np.einsum(
        "tc,tca->ta", f * c, geta
    )
    # through the normalized barycenter: dYb = (I + Yb (E Yb)^T)/nu dS, dS = mean dY
    gS = (gYb + (E_SHARP @ Yb.T).T * np.einsum("ta,ta->t", Yb, gYb)[:, None]) / nu[:, None]
    gY = gY + gS[:, None, :] / 3.0

    g_chart = np.einsum("tcab,tca->tcb", ctx.lift, gY).reshape(-1, 3)  # lift^T applied
    # one bincount per coordinate, summing each class's corners in array order
    idx = ctx.tri_class.ravel()
    return np.stack([np.bincount(idx, weights=w, minlength=ctx.nc) for w in g_chart.T], axis=1)


def _riemannian_grad(Z: np.ndarray, g_euclid: np.ndarray) -> np.ndarray:
    R = g_euclid @ E_SHARP
    dot = np.einsum("ca,ca->c", R @ E_SHARP, Z)  # (R, Z)#
    return R + dot[:, None] * Z


# garbage trial steps (inf/NaN from an oversized Barzilai-Borwein guess)
# produce non-finite energies and are rejected by the line search
@np.errstate(invalid="ignore", divide="ignore", over="ignore")
def _retract(Z: np.ndarray, step: np.ndarray) -> np.ndarray:
    N = Z - step
    q = -(N[:, 0] ** 2 + N[:, 1] ** 2 - N[:, 2] ** 2)
    bad = ~(q >= 0.25)  # catches NaN/inf trial steps as well
    if bad.any():
        # exact exponential step where the normalization would leave the
        # sheet; clamp absurd trial steps (they get rejected by Armijo) and
        # keep the old point where the step is not finite
        v, Zb = -step[bad], Z[bad]
        nv = np.sqrt(np.maximum(mink_dot(v, v), 1e-300))
        s = np.minimum(nv, 20.0)
        expo = np.cosh(s)[:, None] * Zb + np.sinh(s)[:, None] * v / nv[:, None]
        N[bad] = np.where(np.isfinite(v).all(axis=1)[:, None], expo, Zb)
        q = -(N[:, 0] ** 2 + N[:, 1] ** 2 - N[:, 2] ** 2)
    return N / np.sqrt(q)[:, None]


def _descend(energy, grad, Z: np.ndarray, tau0, opts: SolveOptions):
    """Projected gradient with a Barzilai-Borwein step and Armijo backtracking.

    energy(Z) returns (J, extra) without a gradient, so an Armijo trial
    costs one energy evaluation; grad(extra) builds the Euclidean gradient
    once per iterate, from the extra of the start point or of the accepted
    trial.  tau0(extra) gives the first trial step.  Energy never increases
    across accepted steps.  The tolerance test runs at every iterate,
    including the last one after the budget is spent, so a budget of 0
    reports whether the start point is stationary.  Returns the last
    iterate, its energy and extra, and the run statistics.
    """
    J, extra = energy(Z)
    G = _riemannian_grad(Z, grad(extra))
    energy_evals = grad_evals = 1
    gnorm2 = float(np.einsum("ca,cb,ab->", G, G, E_SHARP))
    log = [J]
    tau = float(np.clip(tau0(extra), 1e-12, STEP_CAP))

    iterations = 0
    converged = False
    ls_failure = False
    Z_prev = None
    G_prev = None
    resets = 0
    while True:
        if np.sqrt(gnorm2) <= opts.tol * max(1.0, J):
            converged = True
            break
        if iterations >= opts.max_iter:
            break
        iterations += 1
        # Barzilai-Borwein initial step, Armijo safeguarded
        if Z_prev is not None:
            dZ = Z - Z_prev
            dG = G - G_prev
            denom = float((dZ * dG).sum())
            if denom > 1e-300:
                tau = float(np.clip((dZ * dZ).sum() / denom, 1e-12, STEP_CAP))
        accepted = False
        t_try = tau
        for _ in range(MAX_BACKTRACKS):
            Z_new = _retract(Z, t_try * G)
            J_new, extra_new = energy(Z_new)
            energy_evals += 1
            if J_new <= J - ARMIJO_C1 * t_try * gnorm2:
                accepted = True
                break
            t_try *= 0.5
        if not accepted:
            # a failed BB history can poison the step; restart the step-size
            # estimate a few times before giving up
            if resets < 3:
                resets += 1
                Z_prev = G_prev = None
                tau = max(
                    min(STEP_CAP, J / max(gnorm2, 1e-300)) * 1e-3, 1e-10
                )
                continue
            # certified decrease fell below float resolution; near-stationary
            # iterates are convergence, anything else is a genuine failure
            if np.sqrt(gnorm2) <= 100.0 * opts.tol * max(1.0, J):
                converged = True
            else:
                ls_failure = True
            break
        Z_prev, G_prev = Z, G
        Z, J, extra = Z_new, J_new, extra_new
        G = _riemannian_grad(Z, grad(extra))
        grad_evals += 1
        gnorm2 = float(np.einsum("ca,cb,ab->", G, G, E_SHARP))
        tau = t_try
        log.append(J)

    stats = {
        "iterations": iterations,
        "converged": converged,
        "line_search_failure": ls_failure,
        "grad_norm": float(np.sqrt(gnorm2)),
        "energy_evals": energy_evals,
        "grad_evals": grad_evals,
        "energy_log": log,
    }
    return Z, J, extra, stats


def minimize(
    mesh: FundamentalMesh,
    rho: SurfaceGroupRep,
    p: int,
    init: EquivariantMap | None = None,
    opts: SolveOptions | None = None,
) -> SolveResult:
    """Projected-gradient minimization of J_p over equivariant maps.

    Energy never increases across accepted steps; returns the best iterate
    with flags on line-search failure or hitting the iteration budget.
    """
    _check_p(p)
    opts = opts or SolveOptions()
    u = init if init is not None else identity_map(mesh, rho)
    ctx = _Context(mesh, rho)

    def tau0(m):
        # initial step scaled down by the large-p conditioning s1^{p-2}
        smax = float(np.sqrt(max(m["t"].max(), 1.0)))
        return STEP_CAP / max(1.0, smax ** (p - 2))

    Z, J, m, stats = _descend(lambda Z: _energy_and_grad(ctx, Z, p),
                              lambda m: _grad_from_metric(ctx, m), u.class_points.copy(), tau0, opts)
    s1, s2 = _singular_values(m)
    return SolveResult(
        map=EquivariantMap(mesh, rho, Z),
        p=int(p),
        J_p=J,
        kappa_p=float(J ** (-1.0 / p)),
        s1=s1,
        s2=s2,
        **stats,
    )


# probes and central-difference step of gradient_fd_check
FD_PROBES = 20
FD_H = 3e-6


def gradient_fd_check(mesh, rho, p, u: EquivariantMap, rng=None):
    """Max relative error of the analytic directional derivative vs central FD,
    over FD_PROBES random one-class directions with step FD_H."""
    rng = rng or np.random.default_rng(0)
    ctx = _Context(mesh, rho)
    Z = u.class_points
    G = _riemannian_grad(Z, _grad_from_metric(ctx, _energy_and_grad(ctx, Z, p)[1]))
    worst = 0.0
    for _ in range(FD_PROBES):
        c = int(rng.integers(0, mesh.n_classes))
        v = lorentz.project_tangent(Z[c], rng.standard_normal(3))
        v /= np.sqrt(mink_dot(v, v))
        dZ = np.zeros_like(Z)
        dZ[c] = v
        Jp = _energy_and_grad(ctx, _retract(Z, -FD_H * dZ), p)[0]
        Jm = _energy_and_grad(ctx, _retract(Z, FD_H * dZ), p)[0]
        fd = (Jp - Jm) / (2 * FD_H)
        an = float(mink_dot(G[c], v))  # directional derivative (G_c, v)#
        scale = max(abs(fd), abs(an), 1e-12)
        worst = max(worst, abs(fd - an) / scale)
    return worst


def p_continuation(
    mesh: FundamentalMesh,
    rho: SurfaceGroupRep,
    schedule=(2, 4, 8, 16, 32, 64),
    opts: SolveOptions | None = None,
) -> list:
    """Warm-started continuation in p from the identity map; each stage reports
    (J_p/Area)^{1/p} and carries its densities and currents (`density_and_currents`).

    Monotonicity of the stage values in p is reported (not asserted): the
    normalized mixed norm has an l^p factor in (s1, s2) that decreases in p,
    so the power-mean trend holds only up to that factor.
    """
    if list(schedule) != sorted(schedule):
        raise ValueError("p schedule must be increasing")
    opts = opts or SolveOptions()
    results = []
    u = identity_map(mesh, rho)
    for p in schedule:
        res = minimize(mesh, rho, int(p), init=u, opts=opts)
        density_and_currents(res)
        results.append(res)
        u = res.map
    return results


# ---------------------------------------------------------------------------
# densities, currents, identities
# ---------------------------------------------------------------------------

def _target_frames(Yb, d2, d3):
    """(nt, 2, 3) oriented orthonormal frame of T_u H along the first edge."""
    F1 = d2.copy()
    small = np.sqrt(np.abs(np.einsum("ta,ab,tb->t", F1, E_SHARP, F1))) < 1e-12
    F1[small] = d3[small]
    F1 = F1 / np.sqrt(np.einsum("ta,ab,tb->t", F1, E_SHARP, F1))[:, None]
    return np.stack([F1, mink_cross_vec(Yb, F1)], axis=1)


def density_and_currents(result: SolveResult) -> SolveResult:
    """Fill the kappa_p-normalized density, V_q, W_q, T_q and residuals."""
    mesh = result.map.mesh
    p = result.p
    m = _tri_metric(_Context(mesh, result.map.rho), result.map.class_points)

    # target-frame differential D (2x2, domain chart -> target chart)
    F = _target_frames(m["Yb"], m["d2"], m["d3"])
    dy = np.einsum("tia,ab,tjb->tij", F, E_SHARP, np.stack([m["d2"], m["d3"]], axis=1))
    U = result.kappa_p * (dy @ mesh.tri_dxinv)                     # (nt, 2, 2)

    evals, evecs = np.linalg.eigh(U @ U.transpose(0, 2, 1))
    evals = np.maximum(evals, 0.0)
    N = np.einsum(
        "tab,tb,tcb->tac", evecs, evals ** ((p - 2) // 2), evecs
    )                                                              # (U U^T)^{(p-2)/2}
    S = N @ U                                                      # S_{p-1}(U)
    density = (evals ** (p // 2)).sum(axis=1)                      # TrQ(U)^p
    T = U.transpose(0, 2, 1) @ N @ U - (density / p)[:, None, None] * np.eye(2)

    result.density = density
    result.T_q = T
    result.u_bar = m["Yb"]
    result.U_amb = np.einsum("tia,tix->tax", U, F)
    result.S_amb = np.einsum("tia,tix->tax", S, F)
    result.residuals["density_mass"] = float(np.dot(mesh.areas, density))

    V_vals, W_vals = _assemble_edge_currents(result)
    result.V_q = DiscreteOneForm(mesh, V_vals)
    result.W_q = DiscreteOneForm(mesh, W_vals)
    result.residuals["V_closedness"] = closedness_residual(result.V_q)
    result.residuals["W_closedness"] = closedness_residual(result.W_q)
    return result


def _assemble_edge_currents(result: SolveResult):
    """Average per-triangle constant forms onto edges, transporting twins."""
    mesh, rho = result.map.mesh, result.map.rho
    # each triangle's edge vectors in canonical orientation (lower to higher
    # vertex id), rotated by -90 degrees: (x, y) -> (y, -x)
    xi = mesh.tri_edge_sign[..., None] * (np.roll(mesh.tri_coords, -1, axis=1) - mesh.tri_coords)
    r = np.stack([xi[..., 1], -xi[..., 0]], axis=-1)               # (nt, 3, 2)
    v3 = np.einsum("tsa,tax->tsx", r, result.S_amb)
    w3 = np.einsum("tia,tsa,tix->tsx", result.T_q, r, mesh.frames)
    contribs = (
        (cross(v3, result.u_bar[:, None]), rho),
        (cross(w3, mesh.circumcenters[:, None]), mesh.rep),
    )

    # every edge gets two contributions: its two triangles in the chart, or
    # its one triangle and the transported twin across the paired boundary
    out = []
    for contrib, rep in contribs:
        own = np.zeros((len(mesh.edges), 3, 3))
        np.add.at(own, mesh.tri_edges.ravel(), contrib.reshape(-1, 3, 3))
        total = own.copy()
        mats = rep.pairing_images()
        for k, (far, near, sign) in enumerate(mesh.edge_twins):
            # pulling the side-k value back to side k+4 uses Ad(x_k)^-1,
            # pushing side k+4 to side k uses Ad(x_k)
            g, g_inv = mats[k], mats[k + 4]
            total[far] += sign[:, None, None] * (g_inv @ own[near] @ g)
            total[near] += sign[:, None, None] * (g @ own[far] @ g_inv)
        out.append(0.5 * total)
    return out


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
    if result.density is None:
        raise ValueError("run density_and_currents first")
    mesh = result.map.mesh
    p = result.p

    # (a) pointwise algebra through the 3x3 cross/Killing machinery:
    # V(xi) = S(rot_-90 xi) x u, so (*V)(e_a) = S(rot_-90 rot_-90 e_a) x u = -S e_a x u
    starV = cross(-result.S_amb, result.u_bar[:, None])            # (nt, 2, 3, 3)
    duxu = cross(result.U_amb, result.u_bar[:, None])
    rhs = np.einsum("taij,tbji->tab", starV, duxu)
    lhs = -2.0 * result.T_q
    eye = np.eye(2)

    def tracefree(A):
        return A - 0.5 * np.einsum("tii->t", A)[:, None, None] * eye

    exact = lhs - (rhs + (2.0 / p) * result.density[:, None, None] * eye)

    # (b) discrete *(omega_mc wedge W) vs 2 |S|; imported here, not at the
    # top, so that a wrapper patched onto the mesh module after import sees
    # the call (the benchmark's tracer times triangle_wedge_density so)
    from .mesh import triangle_wedge_density

    omega = maurer_cartan(mesh)
    wedge_density = triangle_wedge_density(omega, result.W_q)
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


# ---------------------------------------------------------------------------
# cylinder rig: abelian domain group, geodesic target (closed-form minimizer)
# ---------------------------------------------------------------------------

# largest geodesic offset of a CylinderRig.initial point from the target axis
CYLINDER_WOBBLE = 0.3


@dataclass
class CylinderRig:
    """Periodic 1d mesh for maps of the cylinder of core length a onto the
    cylinder of core length b; the twisted periodicity is u(t + a) =
    exp(b B) u(t).  The exact minimizer maps onto the target axis with
    constant stretch b/a for every p (the degenerate best-Lipschitz case)."""

    a_len: float
    b_len: float
    n: int
    points: np.ndarray  # (n, 3)

    @classmethod
    def initial(cls, a_len: float, b_len: float, n: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        ts = np.arange(n) / n * b_len
        pts = np.empty((n, 3))
        for i, t in enumerate(ts):
            X = lorentz.geodesic(lorentz.X0, np.array([0.0, 1.0, 0.0]), t)
            v = lorentz.project_tangent(X, rng.standard_normal(3))
            nv = np.sqrt(max(mink_dot(v, v), 1e-30))
            s = CYLINDER_WOBBLE * rng.uniform(-1, 1)
            pts[i] = np.cosh(s) * X + np.sinh(s) * (v / nv)
        return cls(a_len, b_len, n, pts)

    @property
    def holonomy(self) -> np.ndarray:
        return exp_so21(self.b_len * lorentz.B_STD)


def cylinder_energy(rig: CylinderRig, p: int) -> float:
    """J_p = sum dt (d_i/dt)^p per unit transverse length (s2 = 0 exactly)."""
    _check_p(p)
    return _cylinder_energy(rig, p, rig.points)[0]


def _cylinder_energy(rig: CylinderRig, p: int, pts):
    """J_p at pts, and the intermediates `_cylinder_grad` builds the gradient from."""
    dt = rig.a_len / rig.n
    hol = rig.holonomy
    nxt = np.vstack([pts[1:], (hol @ pts[0])])
    c = np.maximum(-np.einsum("ia,ab,ib->i", pts, E_SHARP, nxt), 1.0)
    d = np.arccosh(c)
    return float(np.sum(dt * (d / dt) ** p)), (pts, hol, nxt, c, d, dt)


def _cylinder_grad(p: int, parts) -> np.ndarray:
    pts, hol, nxt, c, d, dt = parts
    # dJ/dd_i = p d^{p-1} / dt^{p-1}; dd/dc = 1/sqrt(c^2-1); dc = -(E nxt, dpt) ...
    coef = p * (d / dt) ** (p - 1) / np.sqrt(np.maximum(c * c - 1.0, 1e-30))
    g = coef[:, None] * (-(nxt @ E_SHARP))
    prev_coef = np.roll(coef, 1)[:, None]
    prev_pts = np.roll(pts, 1, axis=0)
    prev_pts[0] = pts[-1]
    back = -(prev_pts @ E_SHARP)
    back[0] = back[0] @ hol  # chain through the twisted closure: c_0 uses hol @ pts[0]
    g += prev_coef * back
    return g


def cylinder_minimize(rig: CylinderRig, p: int, opts: SolveOptions | None = None):
    """The shared projected-gradient descent on the rig's product of hyperboloids."""
    _check_p(p)
    opts = opts or SolveOptions()
    Z, J, _, stats = _descend(lambda Z: _cylinder_energy(rig, p, Z),
                              lambda parts: _cylinder_grad(p, parts),
                              rig.points.copy(), lambda _: 1e-2, opts)
    out = CylinderRig(rig.a_len, rig.b_len, rig.n, Z)
    stretch = float((J / rig.a_len) ** (1.0 / p))
    del stats["energy_log"]
    return out, {"J_p": J, "stretch": stretch, **stats}


def cylinder_continuation(a_len: float, b_len: float, n: int = 64,
                          schedule=(2, 4, 8, 16, 32, 64), opts=None, seed: int = 0):
    rig = CylinderRig.initial(a_len, b_len, n, seed=seed)
    reports = []
    for p in schedule:
        rig, rep = cylinder_minimize(rig, int(p), opts)
        rep["p"] = int(p)
        reports.append(rep)
    return rig, reports
