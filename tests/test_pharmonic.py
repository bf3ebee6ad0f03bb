import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stretchlab import lorentz
from stretchlab.cli import MAX_ITER, TOL, p_continuation
from stretchlab.earthquake import TwistSpec, twist
from stretchlab.fuchsian import octagon_representation
from stretchlab.lamination import WeightedMulticurve, pair, standard_measure
from stretchlab.lorentz import X0
from oracles import (
    CylinderRig,
    assert_extraction_matches_oracle,
    bolza_automorphism,
    current_block_oracle,
    currents_oracle,
    cylinder_continuation,
    cylinder_minimize,
    extract_cocycle,
    gauss_newton_oracle,
    geodesic,
    grad_from_metric_oracle,
    gradient_fd_check,
    kernel_oracle,
    newton_power_oracle,
    precompose,
    project_oracle,
    retract_oracle,
    schatten_hessian_fd,
    stage_outputs_oracle,
    tri_metric_oracle,
    vcycle_oracle,
    wspmv_oracle,
)
from stretchlab.mesh import DiscreteOneForm, build_octagon_mesh, closedness_residual
from stretchlab.pharmonic import density_and_currents, minimize


@pytest.fixture(scope="module")
def octagon():
    return octagon_representation()


@pytest.fixture(scope="module")
def mesh2(octagon):
    return build_octagon_mesh(2)


@pytest.fixture(scope="module")
def rho_twist(octagon):
    return twist(octagon, TwistSpec("a1", 0.5))


@pytest.fixture(scope="module")
def twist_solution(mesh2, rho_twist):
    return list(p_continuation(mesh2, rho_twist, [2, 4, 8], TOL, 3000, resumed={}))


# the reference twist at level 2 as the preconditioned L-BFGS descent solves it:
# (accepted steps, restarts, J_p, residuals) per p-stage
PINNED_TWIST_STAGES = {
    2: (5, 0, 26.0542212726143, {
        "V_closedness": 0.07930109009824983, "W_closedness": 0.44402268265587763,
        "minus2T_literal_gap": 0.08401629548357514, "omega_wedge_W_l1_gap": 0.9975500288313418,
        "concentration_fraction": 0.6931643624648562}),
    4: (5, 0, 28.053761387045345, {
        "V_closedness": 0.1158481291896934, "W_closedness": 0.16932324803642304,
        "minus2T_literal_gap": 0.04447314220080234, "omega_wedge_W_l1_gap": 0.46722401462693,
        "concentration_fraction": 0.760219664774173}),
    8: (6, 0, 35.800620693381525, {
        "V_closedness": 0.1663738359881218, "W_closedness": 0.18016742132725128,
        "minus2T_literal_gap": 0.025892179893339896, "omega_wedge_W_l1_gap": 0.21851652407331593,
        "concentration_fraction": 0.9526514738433529}),
}


def test_twist_solution_is_pinned(twist_solution):
    # the descent takes the same steps; every stage meets tol
    for res in twist_solution:
        iterations, restarts, J_p, residuals = PINNED_TWIST_STAGES[res.p]
        assert (res.stats["iterations"], res.stats["restarts"]) == (iterations, restarts)
        assert res.stats["converged"] and res.stats["grad_norm"] <= 1e-7 * max(1.0, res.J_p)
        assert res.stats["grad_evals"] == res.stats["iterations"] + 1 + res.stats["wolfe_rejections"]
        assert res.J_p == pytest.approx(J_p, rel=1e-12)
        for name, value in residuals.items():
            assert res.residuals[name] == pytest.approx(value, rel=1e-9)


# a budget of 0 evaluates a given map without moving it
MEASURE = dict(tol=TOL, max_iter=0)


def _measured_cylinder_J(rig, p):
    return cylinder_minimize(rig, p, max_iter=0)[1]["J_p"]


@pytest.mark.parametrize("level", (2, 3))
def test_octagon_start_is_near_the_p2_minimum(level, rho_twist):
    # the default start, rho's own refined octagon, is within 2% of the p=2
    # stage's converged J_2 (0.7% measured at levels 2 to 4) and below the
    # J_2 of the domain's class points, the start it replaced
    mesh = build_octagon_mesh(level)
    res = minimize(mesh, rho_twist, 2, TOL, MAX_ITER)
    assert res.stats["converged"]
    assert res.energy_log[0] <= 1.02 * res.J_p
    assert res.energy_log[0] < minimize(mesh, rho_twist, 2, **MEASURE, init=mesh.vertices[mesh.class_rep_vertex]).J_p


def test_p_must_be_even_integer(mesh2, octagon):
    for bad in (3, 2.5, 1, 0):
        with pytest.raises(ValueError):
            minimize(mesh2, octagon, bad, **MEASURE)


def test_identity_energy_near_twice_area(octagon):
    # the "within 2%" claim is pinned at mesh level 3
    m = build_octagon_mesh(3)
    for p in (2, 4, 8):
        res = minimize(m, octagon, p, **MEASURE)
        assert res.J_p == pytest.approx(2.0 * m.areas.sum(), rel=0.02)
    assert float(np.abs(res.s1 - 1.0).max()) < 0.02
    assert float(np.abs(res.s2 - 1.0).max()) < 0.02


def test_degenerate_triangle_raises(mesh2, octagon):
    import copy

    broken = copy.copy(mesh2)
    broken.areas = mesh2.areas.copy()
    broken.areas[0] = 0.0
    with pytest.raises(ValueError, match="nonpositive-area"):
        minimize(broken, octagon, 2, **MEASURE)


def test_cylinder_energy_closed_form():
    # exact linear map of stretch 1.5: energy = a * 1.5^p per unit width
    a, b, n = 2.0, 3.0, 48
    ts = np.arange(n) / n * b
    pts = np.array([geodesic(X0, np.array([0.0, 1.0, 0.0]), t) for t in ts])
    rig = CylinderRig(a, b, n, pts)
    for p in (2, 4, 8):
        assert _measured_cylinder_J(rig, p) == pytest.approx(a * (b / a) ** p, rel=1e-10)
    assert _measured_cylinder_J(rig, 4) == pytest.approx(a * (1.5**4 + 0.0**4), rel=1e-10)


def test_cylinder_constant_map_zero_energy_without_twist():
    # degenerate rig with no twist: all points equal, all segments length 0
    rig = CylinderRig(2.0, 0.0, 16, np.tile(X0, (16, 1)))
    assert _measured_cylinder_J(rig, 4) == 0.0


def test_cylinder_minimize_recovers_stretch():
    rig, reports = cylinder_continuation(2.0, 3.0, n=64, schedule=(2, 4, 8), seed=1)
    assert reports[-1]["stretch"] == pytest.approx(1.5, abs=1e-3)
    # solution points lie on the target axis (y-z plane geodesic)
    assert float(np.abs(rig.points[:, 0]).max()) < 1e-4


def test_cylinder_iterations_are_pinned():
    # accepted steps of the L-BFGS descent on the rig; every stage meets tol
    for args, iterations in (((64, (2, 4, 8), 1), [212, 24, 14]), ((48, (2, 8), 0), [149, 89])):
        n, schedule, seed = args
        _, reports = cylinder_continuation(2.0, 3.0, n=n, schedule=schedule, seed=seed)
        assert [r["iterations"] for r in reports] == iterations
        for rep in reports:
            assert rep["converged"] and rep["restarts"] == 0
            assert rep["stretch"] == pytest.approx(1.5, abs=1.1e-10)


def test_descend_restarts_then_fails_on_an_ascent_preconditioner():
    # after the first accepted step H0 turns the field it makes a direction
    # of (G alone, or the L-BFGS recursion's q) into an ascent, -1e-2 of it,
    # while the recursion's y keeps +1e-2 and so the scaling's sign: the
    # L-BFGS direction then fails, the descent restarts along H0 G with an
    # empty memory, and that fails as a line-search failure
    calls = []

    def build(Z, parts):
        def precond(Z, V):
            calls.append(V.ndim)
            out = 1e-2 * V
            if len(calls) > 1:
                (out[0] if V.ndim == 3 else out)[...] *= -1.0
            return out
        return precond

    max_iter = 50
    _, rep = cylinder_minimize(CylinderRig.initial(2.0, 3.0, 64), 2, max_iter, build)
    # H0 G, then the L-BFGS pair (q, y) as one stack, then H0 G again
    assert calls == [2, 3, 2]
    assert rep["restarts"] == 1 and rep["line_search_failure"] and not rep["converged"]
    assert rep["iterations"] == 1
    assert rep["grad_evals"] == rep["iterations"] + 1 + rep["wolfe_rejections"]
    assert rep["iterations"] + rep["restarts"] <= max_iter


def test_cylinder_stage_values_stay_at_stretch():
    _, reports = cylinder_continuation(2.0, 3.0, n=48, schedule=(2, 8, 32, 64), seed=2)
    for rep in reports:
        assert rep["stretch"] == pytest.approx(1.5, rel=0.02)


def test_minimize_descends_and_stays_equivariant(mesh2, rho_twist):
    from stretchlab.pharmonic import WOLFE_EPS

    res = minimize(mesh2, rho_twist, 4, TOL, 500)
    log = res.energy_log
    # an accepted step raises J by at most WOLFE_EPS |J| (approximate Wolfe),
    # and the net drop exceeds all the rises together
    rises = [b - a for a, b in zip(log, log[1:]) if b > a]
    assert all(b - a <= WOLFE_EPS * abs(a) for a, b in zip(log, log[1:]))
    assert log[0] - log[-1] > sum(rises)
    # one gradient per logged iterate, plus one per failed slope test
    assert res.stats["grad_evals"] == len(log) + res.stats["wolfe_rejections"] <= res.stats["energy_evals"]
    assert res.stats["grad_evals"] == res.stats["iterations"] + 1 + res.stats["wolfe_rejections"]
    # class points on the sheet, and the chart map equivariant across the paired sides
    Z = res.class_points
    assert float(np.abs(Z[:, 0] ** 2 + Z[:, 1] ** 2 - Z[:, 2] ** 2 + 1.0).max()) <= 1e-10
    chart = np.einsum("vab,vb->va", mesh2.lift_matrices(rho_twist), Z[mesh2.vertex_class])
    assert mesh2.pairing_drift(chart, rho_twist) <= 1e-9
    assert res.J_p <= minimize(mesh2, rho_twist, 4, **MEASURE).J_p + 1e-12


def test_lbfgs_pairs_are_tangent_and_direction_descends(mesh2, rho_twist, monkeypatch):
    from stretchlab import pharmonic
    from stretchlab.pharmonic import _mdot

    # the pairs are s = S[i] and y = Y[i], views of the descent's ring
    calls = []
    direction = pharmonic._lbfgs_direction

    def recording(Z, G, precond, S, Y, sy):
        r = direction(Z, G, precond, S, Y, sy)
        calls.append((Z, G, np.stack([S, Y]), sy.copy(), r))
        return r

    monkeypatch.setattr(pharmonic, "_lbfgs_direction", recording)
    # from the domain's class points, a start far enough from the minimum
    # that 12 steps fill the memory
    minimize(mesh2, rho_twist, 4, TOL, 12, init=mesh2.vertices[mesh2.class_rep_vertex])
    assert len(calls) >= 10 and max(len(sy) for _, _, _, sy, _ in calls) == pharmonic.LBFGS_MEMORY
    for Z, G, pairs, products, r in calls:
        assert pairs.shape == (2, len(products)) + Z.shape
        for s, y, sy in zip(pairs[0], pairs[1], products):
            for v in (s, y):
                assert np.abs(np.einsum("an,an->n", lorentz.E_SHARP @ v, Z)).max() <= 1e-12 * np.abs(v).max()
            assert sy == _mdot(s, y) > 0.0
        assert _mdot(G, r) > 0.0


def test_descent_transports_only_its_pairs(mesh2, rho_twist, monkeypatch):
    # each step transports its stored pairs and the new one, a (2, m, 3, nc)
    # stack with m at most one more than the pairs the step's direction read
    # (none without a direction call), and no slot that was never written
    from stretchlab import pharmonic

    pairs, transports = [0], []
    project, direction = pharmonic._project, pharmonic._lbfgs_direction

    def recording_project(Z, V):
        if V.ndim == 4:  # H0 projects (3, nc) fields and (2, 3, nc) stacks
            transports.append((pairs[-1], V.shape[1], V.any(axis=(0, 2, 3)).all()))
            pairs.append(0)
        return project(Z, V)

    def recording_direction(*args):
        pairs[-1] = len(args[-1])
        return direction(*args)

    monkeypatch.setattr(pharmonic, "_project", recording_project)
    monkeypatch.setattr(pharmonic, "_lbfgs_direction", recording_direction)
    minimize(mesh2, rho_twist, 4, TOL, 12, init=mesh2.vertices[mesh2.class_rep_vertex])
    assert len(transports) == 12 and max(m for _, m, _ in transports) == pharmonic.LBFGS_MEMORY + 1
    for stored, m, written in transports:
        assert m <= stored + 1 and written


@pytest.mark.parametrize("p, max_iter, builds", [pytest.param(4, 0, 0, id="0"), pytest.param(4, 12, 1, id="12"),
                                                  pytest.param(2, 17, 2, id="p2-17")])
def test_start_is_evaluated_once(mesh2, rho_twist, monkeypatch, p, max_iter, builds):
    # every evaluation of J_p in a stage is one that energy_evals counts: the
    # start's evaluation serves both the first H0 and the descent, and the
    # rebuild at the 16th accepted step reads the iterate's own evaluation
    from stretchlab import pharmonic

    calls = []
    energy_and_grad = pharmonic._energy_and_grad

    def counted(*args):
        calls.append(args)
        return energy_and_grad(*args)

    monkeypatch.setattr(pharmonic, "_energy_and_grad", counted)
    # from the domain's class points, which no budget here brings to tol
    res = minimize(mesh2, rho_twist, p, TOL, max_iter,
                   init=mesh2.vertices[mesh2.class_rep_vertex])
    assert res.stats["iterations"] == max_iter
    assert len(calls) == res.stats["energy_evals"]
    assert res.stats["precond_builds"] == builds


def test_identity_stages_build_once(mesh2, octagon, monkeypatch):
    # the identity's stages converge before the 16th step, so each builds H0
    # once, at its start, and takes the steps of a descent that never
    # rebuilds, bit for bit
    from stretchlab import pharmonic

    schedule = [2, 4, 8, 16, 32, 64]
    stages = list(p_continuation(mesh2, octagon, schedule, TOL, MAX_ITER, resumed={}))
    assert [res.stats["iterations"] for res in stages] == [4, 3, 3, 4, 4, 5]
    assert [res.stats["precond_builds"] for res in stages] == [1] * 6
    for res, J_p in zip(stages, [25.5410105214783, 25.96053443665291, 26.830531474293586,
                                 28.702154034038372, 33.028277012188774, 44.536313816412274]):
        assert res.stats["converged"] and res.stats["restarts"] == 0
        assert res.J_p == pytest.approx(J_p, rel=1e-12)
    monkeypatch.setattr(pharmonic, "FIRST_REBUILD", 10 ** 9)
    for res, once in zip(stages, p_continuation(mesh2, octagon, schedule, TOL, MAX_ITER, resumed={})):
        assert ((res.stats["iterations"], res.stats["energy_evals"], res.J_p)
                == (once.stats["iterations"], once.stats["energy_evals"], once.J_p))
        assert np.array_equal(res.class_points, once.class_points)
    # a start that already meets tol takes no step and builds no H0
    again = minimize(mesh2, octagon, 64, TOL, MAX_ITER, init=stages[-1].class_points)
    assert again.stats["converged"] and (again.stats["iterations"], again.stats["precond_builds"]) == (0, 0)


def test_twist_draws_reach_tol(octagon, mesh2):
    # each draw at t=0.6 reaches tol at every stage to p=64 without a restart
    for curve in ("a1", "b1", "a2", "b2"):
        rho = twist(octagon, TwistSpec(curve, 0.6))
        for res in p_continuation(mesh2, rho, [2, 4, 8, 16, 32, 64], TOL, 8000, resumed={}):
            assert res.stats["converged"] and res.stats["restarts"] == 0, (curve, res.p)
            assert res.stats["grad_norm"] <= TOL * max(1.0, res.J_p)


def test_minimize_zero_iterations_keeps_init(mesh2, rho_twist):
    init = mesh2.vertices[mesh2.class_rep_vertex]
    res = minimize(mesh2, rho_twist, 2, TOL, 0, init=init)
    np.testing.assert_allclose(res.class_points, init, atol=0)


def test_identity_is_near_critical_under_refinement(octagon):
    # gradient norm of the identity map at rho = sigma drops with the mesh
    norms = []
    for lvl in (1, 2):
        m = build_octagon_mesh(lvl)
        from stretchlab.pharmonic import _Context, _energy_and_grad, _grad_from_metric, _riemannian_grad

        ctx = _Context(m, octagon)
        Z = m.vertices[m.class_rep_vertex].T.copy()
        J, mm = _energy_and_grad(ctx, Z, 2)
        G = _riemannian_grad(Z, _grad_from_metric(ctx, mm))
        gn = float(np.sqrt(np.einsum("an,bn,ab->", G, G, np.diag([1.0, 1.0, -1.0]))))
        norms.append(gn / J)
    assert norms[1] < norms[0]


def test_gradient_against_finite_differences(mesh2, rho_twist, rng):
    m1 = build_octagon_mesh(1)
    Z = m1.vertices[m1.class_rep_vertex]
    V = rng.standard_normal(Z.shape) * 0.1
    dots = np.einsum("ca,ab,cb->c", V, np.diag([1.0, 1.0, -1.0]), Z)
    from stretchlab.pharmonic import _retract

    Z = _retract(Z.T.copy(), -(V + dots[:, None] * Z).T).T.copy()
    for p in (2, 8, 16):
        assert gradient_fd_check(m1, rho_twist, p, Z, np.random.default_rng(7)) <= 1e-6


def test_retract_matches_row_loop(rng):
    # the array fallback against the per-row loop it replaced, bit for bit:
    # ordinary rows, exponential steps below and above the s = 20 clamp, and
    # rows with NaN or inf steps (which keep the old point); a finite step
    # whose Minkowski norm overflows gives NaN in both
    from stretchlab.pharmonic import _retract

    m1 = build_octagon_mesh(1)
    Z = m1.vertices[m1.class_rep_vertex]
    n = len(Z)
    V = rng.standard_normal(Z.shape)
    tangent = V + np.einsum("ca,ab,cb->c", V, np.diag([1.0, 1.0, -1.0]), Z)[:, None] * Z
    scale = np.resize([1e-3, 0.5, 3.0, 15.0, 40.0, 1e3], n)
    step = -scale[:, None] * tangent
    step[1] = [np.nan, 0.0, 0.0]
    step[4] = [0.0, np.inf, 1.0]
    step[7] = [-np.inf, np.inf, np.nan]
    step[10] = [1e200, 0.0, 1e200]
    got, want = _retract(Z.T.copy(), step.T.copy()).T, retract_oracle(Z, step)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isfinite(got[[1, 4, 7]]).all() and np.isnan(got[10]).all()
    with np.errstate(over="ignore", invalid="ignore"):
        N = Z - step
        assert (~(-(N[:, 0] ** 2 + N[:, 1] ** 2 - N[:, 2] ** 2) >= 0.25)).sum() >= n // 2


def _moved_class_points(mesh, rng):
    """The domain's (nc, 3) class points moved by a random tangent step of
    0.05 and retracted to the sheet."""
    from stretchlab.pharmonic import _retract

    Z = mesh.vertices[mesh.class_rep_vertex]
    V = rng.standard_normal(Z.shape) * 0.05
    dots = np.einsum("ca,ab,cb->c", V, np.diag([1.0, 1.0, -1.0]), Z)
    return _retract(Z.T.copy(), -(V + dots[:, None] * Z).T).T.copy()


@pytest.mark.parametrize("p", [2, 64])
def test_gradient_from_trial_matches_fused_evaluation(mesh2, rho_twist, rng, p):
    from stretchlab.pharmonic import _Context, _energy_and_grad, _grad_from_metric

    ctx = _Context(mesh2, rho_twist)
    Z = mesh2.vertices[mesh2.class_rep_vertex].T.copy()
    Z1 = _moved_class_points(mesh2, rng).T.copy()
    J1, m1 = _energy_and_grad(ctx, Z1, p)
    # a later trial must not disturb the intermediates of an earlier one
    _energy_and_grad(ctx, Z, p)
    J, m = _energy_and_grad(ctx, Z1, p)
    assert J1 == J
    assert np.array_equal(_grad_from_metric(ctx, m1), _grad_from_metric(ctx, m))


# relative tolerance of the coordinate-major kernel against the per-corner
# kernel it replaced, per p: rounding grows with the power recurrence
KERNEL_RTOL = {2: 1e-13, 16: 1e-12, 64: 5e-12}


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("p", sorted(KERNEL_RTOL))
def test_kernel_matches_per_corner_oracle(rho_twist, rng, level, p):
    # J_p and the Euclidean gradient, at moved maps, against the (nt, 3, 3)
    # kernel with the Newton recurrence
    from stretchlab.pharmonic import _Context, _energy_and_grad, _grad_from_metric

    mesh = build_octagon_mesh(level)
    Z = _moved_class_points(mesh, rng)
    ctx = _Context(mesh, rho_twist)
    J, m = _energy_and_grad(ctx, Z.T.copy(), p)
    grad = _grad_from_metric(ctx, m).T
    want_J, want_grad = kernel_oracle(mesh, rho_twist, Z, p)
    assert J == pytest.approx(want_J, rel=KERNEL_RTOL[p], abs=0)
    assert np.abs(grad - want_grad).max() <= KERNEL_RTOL[p] * np.abs(want_grad).max()


@pytest.mark.parametrize("p", [2, 8, 64])
def test_power_sums_match_fused_recurrence(mesh2, rho_twist, rng, p):
    # tr(M^{p/2}) and its derivatives in (tr, det) from the complete
    # homogeneous sums against the fused Newton recurrence they replaced
    from stretchlab.pharmonic import _Context, _energy_and_grad

    ctx = _Context(mesh2, rho_twist)
    J, m = _energy_and_grad(ctx, _moved_class_points(mesh2, rng).T.copy(), p)
    n = p // 2
    want_p, want_u, want_v = newton_power_oracle(m["t"], m["d"], n, want_grads=True)
    np.testing.assert_allclose(m["P"], want_p, rtol=1e-13, atol=0)
    np.testing.assert_allclose(n * m["h1"], want_u, rtol=1e-13, atol=0)
    np.testing.assert_allclose(-n * m["h2"], want_v, rtol=1e-13, atol=1e-300)
    assert J == float(np.dot(ctx.areas, m["P"]))


def test_power_h_matches_matrix_power(rng):
    # the four identities of the recurrence h_k = t h_{k-1} - d h_{k-2} on
    # random symmetric positive definite M with eigenvalues in [0.5, 1.5], to
    # n = 32 (p = 64): tr M^n = t h_{n-1} - 2d h_{n-2}, M^{n-1} = h_{n-1} I -
    # h_{n-2} adj M, and d tr(M^n)/dt = n h_{n-1}, d tr(M^n)/dd = -n h_{n-2},
    # read off n M^{n-1} = (dp/dt) I + (dp/dd) adj M.  The rounding of det M
    # grows ~n^2/2 times near an isotropic M; 20 draws of 64 matrices gave at
    # most 1.6e-13 relative
    from stretchlab.pharmonic import _power_block, _power_h

    k, rtol = 64, 5e-13
    theta = rng.uniform(0.2, 1.3, k)
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    lam = rng.uniform(0.5, 1.5, (2, k))
    M = np.einsum("aik,ik,bik->abk", R, lam, R)                    # (2, 2, k)
    t, d = M[0, 0] + M[1, 1], M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    stack = M.transpose(2, 0, 1)
    for n in range(1, 33):
        h1, h2 = _power_h(t, d, n)
        want = np.linalg.matrix_power(stack, n)
        np.testing.assert_allclose(t * h1 - 2.0 * d * h2, np.trace(want, axis1=1, axis2=2), rtol=rtol)
        prev = np.linalg.matrix_power(stack, n - 1).transpose(1, 2, 0)
        got = _power_block({"M": M, "h1": h1, "h2": h2})
        assert (np.abs(got - prev).max(axis=(0, 1)) <= rtol * np.abs(prev).max(axis=(0, 1))).all()
        dp_dd = -n * prev[0, 1] / M[0, 1]
        np.testing.assert_allclose(-n * h2, dp_dd, rtol=rtol, atol=1e-300)
        np.testing.assert_allclose(n * h1, n * prev[0, 0] - dp_dd * M[1, 1], rtol=rtol)


def test_f_log_against_mpmath():
    # f(c) = arccosh(c)/sqrt(c^2-1) and f'(c) near c = 1, where the old form
    # (s - th c)/(s2 s) erred 1.2e-7 relative at c - 1 = 5.2e-6
    import mpmath

    from stretchlab.pharmonic import _f_log

    w = np.concatenate([np.geomspace(1e-6, 1.0, 400), np.random.default_rng(5).uniform(1e-6, 1e-3, 200), [5.2e-6]])
    f, fp = _f_log(1.0 + w)
    with mpmath.workdps(40):
        for wi, fi, fpi in zip(w, f, fp):
            c = mpmath.mpf(1.0 + wi)
            want = mpmath.acosh(c) / mpmath.sqrt(c * c - 1)
            want_p = (1 - c * want) / (c * c - 1)
            assert abs(fi - want) <= 1e-14 * abs(want)
            assert abs(fpi - want_p) <= 1e-10 * abs(want_p), wi


def test_singular_values_against_mpmath(octagon):
    # s1, s2 at the level-3 identity p=8 map, where M is near I: the form
    # sqrt(t^2 - 4d) erred 5.1e-13 there
    import mpmath

    from stretchlab.pharmonic import _Context, _eigenvalues, _tri_metric

    mesh = build_octagon_mesh(3)
    res = minimize(mesh, octagon, 8, TOL, MAX_ITER)
    M = _tri_metric(_Context(mesh, octagon), res.class_points.T.copy())["M"]
    want = np.empty((2, M.shape[-1]))
    with mpmath.workdps(40):
        for k in range(M.shape[-1]):
            a, b, c = (mpmath.mpf(float(x)) for x in (M[0, 0, k], M[0, 1, k], M[1, 1, k]))
            disc = mpmath.sqrt((a - c) ** 2 + 4 * b * b)
            want[:, k] = [(a + c + disc) / 2, (a + c - disc) / 2]
    assert np.abs(_eigenvalues({"M": M, "t": M[0, 0] + M[1, 1]}) - want).max() <= 1e-15
    assert np.abs(np.stack([res.s1, res.s2]) - np.sqrt(want)).max() <= 1e-15


def _closed_form_hessian(U, n):
    """(4, 4) Hessian of tr((U^T U)^n) at the 2x2 U, on U.ravel(), from the
    pieces that `_gauss_newton_blocks` assembles: 2n I (x) M^{n-1} plus the
    rank-one terms of (Q^T dM Q)_ij with the weights of _schatten_curvature."""
    from stretchlab.pharmonic import _power_block, _power_h, _schatten_curvature

    M = (U.T @ U)[:, :, None]
    t, d = M[0, 0] + M[1, 1], M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    h1, h2 = _power_h(t, d, n)
    m = {"n": n, "M": M, "t": t, "d": d, "h1": h1, "h2": h2}
    Q, weight = (x[..., 0] for x in _schatten_curvature(m))
    R = U @ Q
    C = 2 * n * np.kron(np.eye(2), _power_block(m)[:, :, 0])
    for w, (i, j) in zip(weight, [(0, 0), (1, 1), (0, 1)]):
        K = np.outer(R[:, j], Q[:, i]) + np.outer(R[:, i], Q[:, j])  # K[c, a] = d(Q^T dM Q)_ij / dU_ca
        C += w * np.outer(K.ravel(), K.ravel())
    return C


@pytest.mark.parametrize("n", [1, 2, 8, 32])
def test_schatten_hessian_matches_differences(rng, n):
    # the closed-form Hessian against central differences of the gradient
    # 2n U M^{n-1}, at random U with singular values in [0.6, 1.4]
    for _ in range(20):
        R1, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        R2, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        U = R1 @ np.diag(rng.uniform(0.6, 1.4, 2)) @ R2
        C, want = _closed_form_hessian(U, n), schatten_hessian_fd(U, n)
        assert np.abs(C - C.T).max() <= 1e-13 * np.abs(C).max()
        assert np.abs(C - want).max() <= 1e-7 * np.abs(want).max()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4), st.sampled_from([1, 2, 3, 8, 32]))
def test_schatten_hessian_is_positive_semidefinite(entries, n):
    # |U|_{S_p}^p is convex, so its Hessian needs no eigenvalue clamp
    eig = np.linalg.eigvalsh(_closed_form_hessian(np.array(entries).reshape(2, 2), n))
    assert eig.min() >= -1e-12 * np.abs(eig).max()


def _vcycle(mesh, rho, Z, p):
    from stretchlab.pharmonic import _Context, _energy_and_grad, _VCycle

    ctx = _Context(mesh, rho)
    return _VCycle(ctx, mesh, Z, _energy_and_grad(ctx, Z, p)[1])


@pytest.fixture(scope="module")
def vcycles(rho_twist):
    # (mesh, class points, p, H0) per case: the level-3 domain map at p = 2
    # and 16 (cases "2" and "16"), and the converged p=64 maps of the reference twist at levels
    # 2 and 3; at level 2 the cycle is the dense inverse alone, so that case
    # runs one level deeper, to level 1, to smooth at level 2
    from stretchlab import pharmonic

    mesh = build_octagon_mesh(3)
    Z = mesh.vertices[mesh.class_rep_vertex].T.copy()
    cases = {str(p): (mesh, Z, p, _vcycle(mesh, rho_twist, Z, p)) for p in (2, 16)}
    for level in (2, 3):
        mesh = build_octagon_mesh(level)
        res = list(p_continuation(mesh, rho_twist, [2, 4, 8, 16, 32, 64], TOL, MAX_ITER, resumed={}))[-1]
        assert res.stats["converged"]
        Z = res.class_points.T.copy()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pharmonic, "VCYCLE_COARSEST", level - 1)
            cases[f"L{level}-p64"] = (mesh, Z, 64, _vcycle(mesh, rho_twist, Z, 64))
    return cases


def _real_form(graph, alpha, beta):
    """The real (2n, 2n) matrix, x coordinates first, of the widely linear
    entries z -> alpha z + beta conj(z) on the slots of graph."""
    n, rows, cols = graph.n, graph.rows, graph.cols
    A = np.zeros((2 * n, 2 * n))
    A[rows, cols] = alpha.real + beta.real
    A[rows, n + cols] = beta.imag - alpha.imag
    A[n + rows, cols] = alpha.imag + beta.imag
    A[n + rows, n + cols] = alpha.real - beta.real
    return A


def _assert_cycle_contracts(H):
    """The V-cycle operator B on the class vectors of the finest level, in
    real form, is symmetric and the eigenvalues of B A lie in (0, 1]."""
    graph, alpha, beta = H.levels[0][:3]
    n = graph.n
    A = _real_form(graph, alpha, beta)
    eye = np.eye(n, dtype=complex)
    out = np.concatenate([H.cycle(eye, 0), H.cycle(1j * eye, 0)])
    B = np.concatenate([out.real, out.imag], axis=1).T
    assert np.abs(A - A.T).max() <= 1e-14 * np.abs(A).max()
    assert np.abs(B - B.T).max() <= 1e-13 * np.abs(B).max()
    eig = np.linalg.eigvals(B @ A)
    assert np.abs(eig.imag).max() <= 1e-10
    assert eig.real.min() > 1e-4 and eig.real.max() <= 1.0 + 1e-10
    return eig.real


@pytest.mark.parametrize("case", ["2", "16", "L2-p64", "L3-p64"])
def test_vcycle_is_symmetric_and_contracts(vcycles, case):
    # the coarse correction is an A-orthogonal projection between two
    # applications of the same Chebyshev smoother
    _, _, _, H = vcycles[case]
    assert len(H.levels) == 1
    assert H.coarsest.shape == ((28, 28) if case == "L2-p64" else (124, 124))
    eig = _assert_cycle_contracts(H)
    if case == "L3-p64":
        # one block Jacobi sweep each side gave 60.8 at this map
        assert eig.max() / eig.min() <= 20.0


def test_chebyshev_smoother_matches_dense_polynomial(vcycles, rng):
    # the pre-smoother from x = 0 is q(S A) S rhs, with 1 - lam q(lam) the
    # degree-3 Chebyshev polynomial of [0.1, 2] scaled to 1 at lam = 0 and S
    # the damped block Jacobi inverse, here in dense real form
    from types import SimpleNamespace

    from numpy.polynomial import Polynomial
    from stretchlab.pharmonic import _chebyshev

    lo, hi = 0.1, 2.0
    x = Polynomial([(hi + lo) / (hi - lo), -2.0 / (hi - lo)])       # [lo, hi] -> [1, -1]
    T3 = 4.0 * x ** 3 - 3.0 * x
    q = (1.0 - T3 / T3(0.0)) // Polynomial([0.0, 1.0])
    for _, _, _, H in vcycles.values():
        for graph, alpha, beta, da, db, *_ in H.levels:
            n = graph.n
            A = _real_form(graph, alpha, beta)
            S = _real_form(SimpleNamespace(n=n, rows=np.arange(n), cols=np.arange(n)), da, db)
            SA, want_op = S @ A, q.coef[-1] * np.eye(2 * n)
            for c in q.coef[-2::-1]:
                want_op = want_op @ SA + c * np.eye(2 * n)
            want_op = want_op @ S
            for shape in ((n,), (2, n)):
                rhs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                got = _chebyshev(graph, alpha, beta, da, db, rhs)
                want = np.concatenate([rhs.real, rhs.imag], axis=-1) @ want_op.T
                np.testing.assert_allclose(got, want[..., :n] + 1j * want[..., n:], rtol=0,
                                           atol=1e-12 * np.abs(want).max())


def test_jacobi_damping_bound_keeps_the_cycle_definite(vcycles, rho_twist, monkeypatch):
    # rho(D^-1 A) exceeds 2.2 at the converged p=64 map, so with an
    # undamped Jacobi inverse S, or one damped by 0.95, S A would have
    # eigenvalues above 2, where the smoother does not contract, and B would
    # be indefinite there; the per-class Gershgorin bound lowers omega where
    # it must
    from stretchlab import pharmonic

    mesh, Z, p, _ = vcycles["L3-p64"]
    for damping in (0.95, 1.0, 1.9):
        monkeypatch.setattr(pharmonic, "JACOBI_DAMPING", damping)
        _assert_cycle_contracts(_vcycle(mesh, rho_twist, Z, p))


@pytest.mark.parametrize("case", ["16", "L2-p64"])
def test_gauss_newton_operator_matches_oracle(vcycles, rho_twist, case):
    # the assembled operator against the sum of area L^T C L over the
    # triangles, with C by central differences, in a frame at each barycenter
    mesh, Z, p, H = vcycles[case]
    graph, alpha, beta = H.levels[0][:3]
    want = gauss_newton_oracle(mesh, rho_twist, Z.T, p, np.stack([H.a.T, H.b.T]))
    assert np.abs(_real_form(graph, alpha, beta) - want).max() <= 1e-8 * np.abs(want).max()


def test_preconditioner_is_symmetric_positive_on_tangents(vcycles, rng):
    # H0 on tangent fields: (U, H0 V)# = (H0 U, V)# and (U, H0 U)# > 0
    from stretchlab.pharmonic import _mdot, _project

    for _, Z, _, H in vcycles.values():
        U, V = (_project(Z, rng.standard_normal(Z.shape)) for _ in range(2))
        HU, HV = H(Z, U.copy()), H(Z, V.copy())
        assert abs(_mdot(U, HV) - _mdot(HU, V)) <= 1e-13 * np.sqrt(_mdot(U, HU) * _mdot(V, HV))
        assert _mdot(U, HU) > 0.0
        # a stack is the same map on each field
        np.testing.assert_allclose(H(Z, np.stack([U, V])), np.stack([HU, HV]), rtol=0,
                                   atol=1e-14 * max(np.abs(HU).max(), np.abs(HV).max()))


def _dense(rows, cols, starts, vals, shape):
    """The sparse matrix of _spmv's (cols, starts, vals) as a dense array;
    rows, when given, must agree with the starts."""
    from_starts = np.searchsorted(starts, np.arange(len(cols)), side="right") - 1
    if rows is not None:
        assert np.array_equal(rows, from_starts)
    out = np.zeros(shape, complex)
    out[from_starts, cols] = vals
    return out


def test_spmv_matches_dense_products(vcycles, rng):
    # every sparse product of the V-cycle (A, P and P^H on each level) against
    # its dense matrix, on one class vector and on a stack of two: the shapes
    # of precond(Z, G) and of the two-loop's stack
    from stretchlab.pharmonic import _spmv, _wspmv

    for _, _, _, H in vcycles.values():
        for graph, alpha, beta, _, _, pro, P, PT in H.levels:
            n, nc = graph.n, len(pro.r_starts)
            A = _real_form(graph, alpha, beta)
            Pd = _dense(None, pro.cols, pro.starts, P, (n, nc))
            PTd = _dense(None, pro.r_rows, pro.r_starts, PT, (nc, n))
            assert np.array_equal(PTd, Pd.conj().T)
            for shape in ((n,), (2, n)):
                x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                got = _wspmv(alpha, beta, graph.cols, graph.starts, x)
                want = np.concatenate([x.real, x.imag], axis=-1) @ A.T
                scale = np.abs(A).max() * np.abs(x).max()
                np.testing.assert_allclose(got, want[..., :n] + 1j * want[..., n:], rtol=0, atol=1e-14 * scale)
            for M, cols, starts, entries in ((Pd, pro.cols, pro.starts, P), (PTd, pro.r_rows, pro.r_starts, PT)):
                for shape in ((M.shape[1],), (2, M.shape[1])):
                    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    got = _spmv(entries, cols, starts, x)
                    assert got.shape == shape[:-1] + (M.shape[0],)
                    scale = np.abs(M).max() * np.abs(x).max()
                    np.testing.assert_allclose(got, x @ M.T, rtol=0, atol=1e-14 * scale)


def test_wspmv_matches_whole_array_oracle(vcycles, rng):
    # the in-place product against alpha * xc + beta * conj(xc) with a fresh
    # array per operation, bit for bit, on every level of every cycle
    from stretchlab.pharmonic import _wspmv

    for _, _, _, H in vcycles.values():
        for graph, alpha, beta, *_ in H.levels:
            for shape in ((graph.n,), (2, graph.n)):
                x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                assert np.array_equal(_wspmv(alpha, beta, graph.cols, graph.starts, x),
                                      wspmv_oracle(alpha, beta, graph.cols, graph.starts, x))


def test_wspmv_keeps_operand_order_past_elision_size(rng):
    # a single vector whose gathered array is 448 KiB, above the 256 KiB
    # from which numpy may compute beta * conj(xc) as conj(xc) * beta
    from stretchlab.pharmonic import _wspmv

    n = 9557
    cols, starts = rng.integers(0, n, 3 * n), np.arange(0, 3 * n, 3)
    alpha, beta = (rng.standard_normal(3 * n) + 1j * rng.standard_normal(3 * n) for _ in range(2))
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert x.take(cols).nbytes >= 256 * 1024
    assert np.array_equal(_wspmv(alpha, beta, cols, starts, x), wspmv_oracle(alpha, beta, cols, starts, x))


@pytest.mark.parametrize("case", ["2", "16", "L2-p64", "L3-p64"])
def test_vcycle_build_matches_whole_array_oracle(vcycles, rho_twist, case):
    # every level's operator, Jacobi inverse and transfers, and the coarsest
    # inverse, bit for bit against the build with a fresh array per operation
    from stretchlab.pharmonic import _Context, _energy_and_grad

    mesh, Z, p, H = vcycles[case]
    ctx = _Context(mesh, rho_twist)
    levels, coarsest = vcycle_oracle(ctx, mesh, Z, _energy_and_grad(ctx, Z, p)[1], len(H.levels))
    assert len(levels) == len(H.levels)
    for got, want in zip(H.levels, levels):
        graph, alpha, beta, da, db, pro, P, PT = got
        for a, b in zip((alpha, beta, da, db, P, PT), want):
            assert np.array_equal(a, b)
    assert np.array_equal(H.coarsest, coarsest)


def test_project_matches_whole_array_oracle(mesh2, rng):
    # the projection of one field, of a ring of pairs, (2, 9, 3, nc), and in
    # place on the ring's prefix of 4 pairs, the strided view that the
    # descent transports
    from stretchlab.pharmonic import _project

    Z = _moved_class_points(mesh2, rng).T.copy()
    for shape in (Z.shape, (2, 9) + Z.shape):
        V = rng.standard_normal(shape)
        assert np.array_equal(_project(Z, V.copy()), project_oracle(Z, V))
    want = project_oracle(Z, V[:, :4])
    _project(Z, V[:, :4])
    assert np.array_equal(V[:, :4], want)


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("p", [2, 64])
def test_kernel_matches_whole_array_oracle(reference_stages, level, p):
    # the metric's intermediates and the gradient at the stage's map, bit for
    # bit against the kernel with a fresh array per operation; the kernel
    # consumes intermediates that the oracle reads, so it gets a copy of m
    from stretchlab.pharmonic import _Context, _energy_and_grad, _grad_from_metric, _tri_metric

    res = reference_stages[(level, p)]
    ctx = _Context(res.mesh, res.rho)
    Z = res.class_points.T.copy()
    got, want = _tri_metric(ctx, Z), tri_metric_oracle(ctx, Z)
    for name, value in got.items():
        assert np.array_equal(value, want[name]), name
    J, m = _energy_and_grad(ctx, Z, p)
    assert J == res.J_p
    assert np.array_equal(_grad_from_metric(ctx, dict(m)), grad_from_metric_oracle(ctx, m))


def test_rotated_target_solves_to_the_same_stages(rho_twist):
    # the mesh is invariant under the rotation by pi/4, so the problem for
    # rho o phi is rho's with the classes relabelled: the same J_p at every
    # stage to rounding and the same max s1.  Only the start is not
    # symmetric, so the p=2 stage takes its own steps (26 against 7) and
    # the stages from p=4 on the same ones
    mesh = build_octagon_mesh(3)
    stages = [[(res.J_p, res.stats["iterations"], res.stats["converged"], float(res.s1.max()))
               for res in p_continuation(mesh, rho, [2, 4, 8, 16, 32, 64], TOL, MAX_ITER, resumed={})]
              for rho in (rho_twist, precompose(rho_twist, bolza_automorphism(1)))]
    for (J_p, _, converged, _), (rotated_J_p, _, rotated_converged, _) in zip(*stages):
        assert converged and rotated_converged
        assert rotated_J_p == pytest.approx(J_p, rel=1e-11, abs=0)
    assert abs(stages[1][-1][3] - stages[0][-1][3]) <= 1e-9
    for rho_stages in stages:
        assert [iterations for _, iterations, _, _ in rho_stages[1:]] == [6, 7, 11, 19, 23]


def _traced_peak(fn):
    """Bytes that fn() allocates at its peak beyond what was allocated before
    it, by tracemalloc, after one untraced call (numpy's caches)."""
    import tracemalloc

    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def mesh4():
    return build_octagon_mesh(4)


def test_wspmv_holds_two_gathered_arrays(mesh4, rng):
    # at L4 a fresh array per operation is trimmed from the heap and faulted
    # back in on every product: the gathered stack and its conjugate are the
    # only temporaries (a fresh array per operation holds four)
    from stretchlab.pharmonic import _wspmv

    graph = mesh4.class_hierarchy.graphs[0]
    alpha, beta = (rng.standard_normal(len(graph.cols)) + 1j * rng.standard_normal(len(graph.cols)) for _ in range(2))
    x = rng.standard_normal((2, graph.n)) + 1j * rng.standard_normal((2, graph.n))
    gathered = x.take(graph.cols, axis=-1).nbytes
    assert _traced_peak(lambda: _wspmv(alpha, beta, graph.cols, graph.starts, x)) <= 2.5 * gathered


def test_energy_and_gradient_temporaries(mesh4, rho_twist):
    # one evaluation and its gradient at L4, p=16, in units of a (3, 3, nt)
    # float array: the metric's intermediates are 5.1 of them and the
    # temporaries at their peak about 2.0 more (a fresh array per operation
    # reached 12.6)
    from stretchlab.pharmonic import _Context, _energy_and_grad, _grad_from_metric

    ctx = _Context(mesh4, rho_twist)
    Z = mesh4.vertices[mesh4.class_rep_vertex].T.copy()
    unit = 9 * len(mesh4.triangles) * 8
    peak = _traced_peak(lambda: _grad_from_metric(ctx, _energy_and_grad(ctx, Z, 16)[1]))
    assert peak <= 10.0 * unit, peak / unit


def test_gradient_leaves_what_the_build_reads(mesh4, rho_twist):
    # the descent keeps an iterate's m across its line search: after the
    # gradient it holds the H0 build's and the final block's inputs alone,
    # 1.9 (3, 3, nt) units at L4, p=16 (the whole m is 5.1)
    from stretchlab.pharmonic import _Context, _energy_and_grad, _grad_from_metric

    ctx = _Context(mesh4, rho_twist)
    m = _energy_and_grad(ctx, mesh4.vertices[mesh4.class_rep_vertex].T.copy(), 16)[1]
    _grad_from_metric(ctx, m)
    unit = 9 * len(mesh4.triangles) * 8
    held = sum(value.nbytes for value in m.values() if isinstance(value, np.ndarray))
    assert set(m) == {"M", "t", "u", "Yb", "h1", "h2", "P", "n"}
    assert held <= 2.0 * unit, held / unit


def test_minimize_peak_memory(mesh4, rho_twist):
    # one L4 minimize at p=16 from the start points peaks at 19.2 (3, 3, nt)
    # units above what was allocated before it; it reached 32.2 while the
    # descent kept every intermediate of its start, of its iterate and of a
    # rejected trial
    unit = 9 * len(mesh4.triangles) * 8
    peak = _traced_peak(lambda: minimize(mesh4, rho_twist, 16, TOL, MAX_ITER))
    assert peak <= 22.0 * unit, peak / unit


@pytest.mark.parametrize("p", [2, 64])
def test_currents_match_einsum_oracle(mesh2, rho_twist, rng, p):
    # V_q and W_q from the batched products and the bincount scatter against
    # the einsum forms and np.add.at, at a perturbed map measured with a
    # budget of 0: each entry to 1e-14 of the sum of its terms' magnitudes
    # (the two forms add the same terms in another order)
    res = density_and_currents(minimize(mesh2, rho_twist, p, init=_moved_class_points(mesh2, rng), **MEASURE))
    want, bound = currents_oracle(res), currents_oracle(res, magnitude=True)
    for name in ("V_q", "W_q"):
        err = np.abs(lorentz.hat(getattr(res, name).values) - want[name])
        assert (err <= 1e-14 * bound[name]).all(), (name, float((err / np.maximum(bound[name], 1e-300)).max()))
        assert (np.abs(want[name]) <= bound[name] * (1 + 1e-12)).all()


@pytest.fixture(scope="module")
def reference_stages(rho_twist):
    # the reference twist solved at levels 2 and 3, its p=2 and p=64 stages
    return {(level, res.p): res for level in (2, 3)
            for res in p_continuation(build_octagon_mesh(level), rho_twist, [2, 4, 8, 16, 32, 64],
                                      TOL, 8000, resumed={}) if res.p in (2, 64)}


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("p", [2, 64])
def test_stage_outputs_match_3x3_oracle(reference_stages, level, p):
    # the currents as vectors against the 3x3 matrices that the forms held
    # before: V_q and W_q through hat, both closedness residuals and every
    # relation_checks value to 1e-13 relative, the rounding-level identities
    # to 1e-13 absolute
    res = reference_stages[level, p]
    want = stage_outputs_oracle(res)
    for name in ("V_q", "W_q"):
        got = lorentz.hat(getattr(res, name).values)
        np.testing.assert_allclose(got, want[name], rtol=0, atol=1e-13 * float(np.abs(want[name]).max()), err_msg=name)
    assert set(res.residuals) == set(want) - {"V_q", "W_q"}
    for name, value in res.residuals.items():
        if name in ("minus2T_exact_identity", "minus2T_tracefree_gap"):
            assert abs(value - want[name]) <= 1e-13, name
        else:
            assert value == pytest.approx(want[name], rel=1e-13, abs=0), name


@pytest.mark.parametrize("p", [2, 8, 64])
def test_current_block_matches_frame_oracle(mesh2, rho_twist, rng, p):
    # the block from the solver's metric and power sums against target
    # frames and eigh of U U^T, at a perturbed map measured with a budget of 0
    res = minimize(mesh2, rho_twist, p, init=_moved_class_points(mesh2, rng), **MEASURE)
    want = current_block_oracle(res)
    for name in ("density", "T_q", "U_amb", "S_amb"):
        scale = float(np.abs(want[name]).max())
        np.testing.assert_allclose(getattr(res, name), want[name], rtol=0, atol=1e-12 * scale, err_msg=name)
    assert np.array_equal(res.u_bar, want["u_bar"])
    kp = res.kappa_p ** p
    np.testing.assert_allclose(res.density, kp * (res.s1 ** p + res.s2 ** p), rtol=1e-12, atol=0)


def test_continuation_requires_increasing_schedule(mesh2, octagon):
    # the rule the CLI applies to p_schedule, which the cylinder rig applies
    # too; the continuation is a generator, so it raises once consumed
    for bad in ((4, 2), (2, 2), (), (3,), (2, 4.0), (True, 4)):
        with pytest.raises(ValueError):
            list(p_continuation(mesh2, octagon, bad, TOL, MAX_ITER, resumed={}))
        with pytest.raises(ValueError):
            cylinder_continuation(2.0, 3.0, schedule=bad)


def test_kappa_normalization(twist_solution):
    for res in twist_solution:
        assert res.residuals["density_mass"] == pytest.approx(1.0, abs=1e-12)
        assert res.kappa_p == pytest.approx(res.J_p ** (-1.0 / res.p), rel=1e-14)


def test_density_uniform_for_identity(mesh2, octagon):
    res = minimize(mesh2, octagon, 8, TOL, 2000)
    density_and_currents(res)
    dens = res.density
    cv = float(np.std(dens) / np.mean(dens))
    assert cv < 0.05


def test_relation_checks_exact_identity(twist_solution):
    for res in twist_solution:
        rep = dict(res.residuals)
        assert rep["minus2T_exact_identity"] <= 1e-10
        assert rep["minus2T_tracefree_gap"] <= 1e-10
        # the literal form differs by exactly (2/p)|S| g
        assert rep["minus2T_literal_gap"] == pytest.approx(
            (2.0 / res.p) * float(res.density.max()), rel=1e-6
        )


def test_omega_wedge_trend_and_concentration(twist_solution):
    gaps = [r.residuals["omega_wedge_W_l1_gap"] for r in twist_solution]
    concs = [r.residuals["concentration_fraction"] for r in twist_solution]
    assert gaps[-1] < gaps[0]
    assert concs[-1] > concs[0]


def test_currents_closedness_improves_under_refinement(octagon, rho_twist):
    residuals = []
    for lvl in (2, 3):
        m = build_octagon_mesh(lvl)
        rs = list(p_continuation(m, rho_twist, [2, 4, 8], TOL, 4000, resumed={}))
        residuals.append(rs[-1].residuals["V_closedness"])
    assert residuals[1] < residuals[0]


def test_extract_zero_form_gives_zero_cocycle(mesh2, rho_twist):
    zero = DiscreteOneForm(mesh2, np.zeros((len(mesh2.edges), 3)))
    alpha = extract_cocycle(zero, rho_twist)
    assert np.abs(alpha.values.astype(float)).max() == 0.0
    assert closedness_residual(zero) == 0.0


def test_extract_from_solver_current(twist_solution, mesh2, rho_twist):
    res = twist_solution[-1]
    alpha = extract_cocycle(res.V_q, rho_twist)
    assert closedness_residual(res.V_q) == res.residuals["V_closedness"]
    assert_extraction_matches_oracle(res.V_q, rho_twist)
    # diagnostics: pairing against the handle-curve measures is finite and
    # dominated by the O(h) discretization, not blowing up
    for c in ("a1", "b1", "a2", "b2"):
        meas = standard_measure(WeightedMulticurve(rho_twist, [(c, 1.0)]))
        assert np.isfinite(pair(meas, alpha))


def test_stage_values_recorded(twist_solution, mesh2):
    vals = [r.normalized_stage_value() for r in twist_solution]
    area = mesh2.areas.sum()
    for r, v in zip(twist_solution, vals):
        assert v == pytest.approx((r.J_p / area) ** (1.0 / r.p), rel=1e-12)
