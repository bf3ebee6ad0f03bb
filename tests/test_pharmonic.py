import numpy as np
import pytest

from stretchlab import lorentz
from stretchlab.earthquake import TwistSpec, twist
from stretchlab.fuchsian import octagon_representation
from stretchlab.lamination import WeightedMulticurve, pair, standard_measure
from stretchlab.lorentz import X0
from oracles import assert_extraction_matches_oracle, newton_power_oracle, retract_oracle
from stretchlab.mesh import DiscreteOneForm, build_octagon_mesh, closedness_residual, extract_cocycle
from stretchlab.pharmonic import (
    CylinderRig,
    EquivariantMap,
    SolveOptions,
    cylinder_continuation,
    cylinder_energy,
    density_and_currents,
    energy_Jp,
    gradient_fd_check,
    identity_map,
    minimize,
    p_continuation,
    relation_checks,
    singular_values,
)


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
    results = p_continuation(
        mesh2, rho_twist, schedule=(2, 4, 8), opts=SolveOptions(max_iter=3000)
    )
    for res in results:
        relation_checks(res)
    return results


# the reference twist at level 2 as the per-triangle loop implementation
# solved it: (iterations, J_p, residuals) per p-stage
PINNED_TWIST_STAGES = {
    2: (66, 26.054221272616594, {
        "V_closedness": 0.07930105024968703, "W_closedness": 0.4440266601259358,
        "minus2T_literal_gap": 0.08401630656923408, "omega_wedge_W_l1_gap": 0.9975500262704594,
        "concentration_fraction": 0.6931643490372991}),
    4: (37, 28.053761387044776, {
        "V_closedness": 0.11584811863662547, "W_closedness": 0.1693232499318837,
        "minus2T_literal_gap": 0.04447313974156632, "omega_wedge_W_l1_gap": 0.4672240144676768,
        "concentration_fraction": 0.7602196653850327}),
    8: (37, 35.80062069337947, {
        "V_closedness": 0.16637372464725703, "W_closedness": 0.1801672821341833,
        "minus2T_literal_gap": 0.025892179462922528, "omega_wedge_W_l1_gap": 0.21851652749798847,
        "concentration_fraction": 0.9526514722817696}),
}


def test_twist_solution_is_pinned(twist_solution):
    # the shared descent loop takes the same steps; the array current kernel
    # matches the loops to rounding
    for res in twist_solution:
        iterations, J_p, residuals = PINNED_TWIST_STAGES[res.p]
        assert res.iterations == iterations
        assert res.J_p == pytest.approx(J_p, rel=1e-12)
        for name, value in residuals.items():
            assert res.residuals[name] == pytest.approx(value, rel=1e-9)


def test_p_must_be_even_integer(mesh2, octagon):
    u = identity_map(mesh2, octagon)
    for bad in (3, 2.5, 1, 0):
        with pytest.raises(ValueError):
            energy_Jp(u, bad)


def test_identity_energy_near_twice_area(octagon):
    # the "within 2%" claim is pinned at mesh level 3
    m = build_octagon_mesh(3)
    u = identity_map(m, octagon)
    for p in (2, 4, 8):
        J = energy_Jp(u, p)
        assert J == pytest.approx(2.0 * m.areas.sum(), rel=0.02)
    s1, s2 = singular_values(u)
    assert float(np.abs(s1 - 1.0).max()) < 0.02
    assert float(np.abs(s2 - 1.0).max()) < 0.02


def test_degenerate_triangle_raises(mesh2, octagon):
    import copy

    u = identity_map(mesh2, octagon)
    broken = copy.copy(mesh2)
    broken.areas = mesh2.areas.copy()
    broken.areas[0] = 0.0
    u_broken = EquivariantMap(broken, octagon, u.class_points)
    with pytest.raises(ValueError):
        energy_Jp(u_broken, 2)


def test_cylinder_energy_closed_form():
    # exact linear map of stretch 1.5: energy = a * 1.5^p per unit width
    a, b, n = 2.0, 3.0, 48
    ts = np.arange(n) / n * b
    pts = np.array([lorentz.geodesic(X0, np.array([0.0, 1.0, 0.0]), t) for t in ts])
    rig = CylinderRig(a, b, n, pts)
    for p in (2, 4, 8):
        assert cylinder_energy(rig, p) == pytest.approx(a * (b / a) ** p, rel=1e-10)
    assert cylinder_energy(rig, 4) == pytest.approx(a * (1.5**4 + 0.0**4), rel=1e-10)


def test_cylinder_constant_map_zero_energy_without_twist():
    # degenerate rig with no twist: all points equal, all segments length 0
    rig = CylinderRig(2.0, 0.0, 16, np.tile(X0, (16, 1)))
    assert cylinder_energy(rig, 4) == 0.0


def test_cylinder_minimize_recovers_stretch():
    rig, reports = cylinder_continuation(2.0, 3.0, n=64, schedule=(2, 4, 8), seed=1)
    assert reports[-1]["stretch"] == pytest.approx(1.5, abs=1e-3)
    # solution points lie on the target axis (y-z plane geodesic)
    assert float(np.abs(rig.points[:, 0]).max()) < 1e-4


def test_cylinder_iterations_are_pinned():
    # iteration counts of the fused energy-and-gradient evaluation, which the
    # energy-only line search must reproduce
    for args, iterations in (((64, (2, 4, 8), 1), [632, 10, 4]), ((48, (2, 8), 0), [554, 8])):
        n, schedule, seed = args
        _, reports = cylinder_continuation(2.0, 3.0, n=n, schedule=schedule, seed=seed)
        assert [r["iterations"] for r in reports] == iterations
        for rep in reports:
            assert rep["stretch"] == pytest.approx(1.5, abs=1.1e-10)


def test_cylinder_stage_values_stay_at_stretch():
    _, reports = cylinder_continuation(2.0, 3.0, n=48, schedule=(2, 8, 32, 64), seed=2)
    for rep in reports:
        assert rep["stretch"] == pytest.approx(1.5, rel=0.02)


def test_minimize_descends_and_stays_equivariant(mesh2, rho_twist):
    res = minimize(mesh2, rho_twist, 4, opts=SolveOptions(max_iter=500))
    log = res.energy_log
    assert all(a >= b - 1e-12 for a, b in zip(log, log[1:]))
    # one gradient per logged iterate
    assert res.grad_evals == len(log) <= res.energy_evals
    res.map.validate(tol=1e-10)
    init = identity_map(mesh2, rho_twist)
    assert res.J_p <= energy_Jp(init, 4) + 1e-12


def test_minimize_zero_iterations_keeps_init(mesh2, rho_twist):
    init = identity_map(mesh2, rho_twist)
    res = minimize(mesh2, rho_twist, 2, init=init, opts=SolveOptions(max_iter=0))
    np.testing.assert_allclose(res.map.class_points, init.class_points, atol=0)


def test_identity_is_near_critical_under_refinement(octagon):
    # gradient norm of the identity map at rho = sigma drops with the mesh
    norms = []
    for lvl in (1, 2):
        m = build_octagon_mesh(lvl)
        from stretchlab.pharmonic import _Context, _energy_and_grad, _grad_from_metric, _riemannian_grad

        ctx = _Context(m, octagon)
        u = identity_map(m, octagon)
        J, mm = _energy_and_grad(ctx, u.class_points, 2)
        G = _riemannian_grad(u.class_points, _grad_from_metric(ctx, mm))
        gn = float(np.sqrt(np.einsum("ca,cb,ab->", G, G, np.diag([1.0, 1.0, -1.0]))))
        norms.append(gn / J)
    assert norms[1] < norms[0]


def test_gradient_against_finite_differences(mesh2, rho_twist, rng):
    m1 = build_octagon_mesh(1)
    Z = identity_map(m1, rho_twist).class_points
    V = rng.standard_normal(Z.shape) * 0.1
    dots = np.einsum("ca,ab,cb->c", V, np.diag([1.0, 1.0, -1.0]), Z)
    from stretchlab.pharmonic import _retract

    u = EquivariantMap(m1, rho_twist, _retract(Z, -(V + dots[:, None] * Z)))
    for p in (2, 8, 16):
        assert gradient_fd_check(m1, rho_twist, p, u, rng=np.random.default_rng(7)) <= 1e-6


def test_retract_matches_row_loop(rng):
    # the array fallback against the per-row loop it replaced, bit for bit:
    # ordinary rows, exponential steps below and above the s = 20 clamp, and
    # rows with NaN or inf steps (which keep the old point); a finite step
    # whose Minkowski norm overflows gives NaN in both
    from stretchlab.pharmonic import _retract

    Z = identity_map(build_octagon_mesh(1), octagon_representation()).class_points
    n = len(Z)
    V = rng.standard_normal(Z.shape)
    tangent = V + np.einsum("ca,ab,cb->c", V, np.diag([1.0, 1.0, -1.0]), Z)[:, None] * Z
    scale = np.resize([1e-3, 0.5, 3.0, 15.0, 40.0, 1e3], n)
    step = -scale[:, None] * tangent
    step[1] = [np.nan, 0.0, 0.0]
    step[4] = [0.0, np.inf, 1.0]
    step[7] = [-np.inf, np.inf, np.nan]
    step[10] = [1e200, 0.0, 1e200]
    got, want = _retract(Z, step), retract_oracle(Z, step)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isfinite(got[[1, 4, 7]]).all() and np.isnan(got[10]).all()
    with np.errstate(over="ignore", invalid="ignore"):
        N = Z - step
        assert (~(-(N[:, 0] ** 2 + N[:, 1] ** 2 - N[:, 2] ** 2) >= 0.25)).sum() >= n // 2


@pytest.mark.parametrize("p", [2, 64])
def test_gradient_from_trial_matches_fused_evaluation(mesh2, rho_twist, rng, p):
    from stretchlab.pharmonic import _Context, _energy_and_grad, _grad_from_metric, _retract

    ctx = _Context(mesh2, rho_twist)
    Z = identity_map(mesh2, rho_twist).class_points
    V = rng.standard_normal(Z.shape) * 0.05
    dots = np.einsum("ca,ab,cb->c", V, np.diag([1.0, 1.0, -1.0]), Z)
    Z1 = _retract(Z, -(V + dots[:, None] * Z))
    J1, m1 = _energy_and_grad(ctx, Z1, p)
    # a later trial must not disturb the intermediates of an earlier one
    _energy_and_grad(ctx, Z, p)
    J, m = _energy_and_grad(ctx, Z1, p)
    assert J1 == J
    assert np.array_equal(_grad_from_metric(ctx, m1), _grad_from_metric(ctx, m))


@pytest.mark.parametrize("p", [2, 8, 64])
def test_power_sums_match_fused_recurrence(mesh2, rho_twist, rng, p):
    # the stored power sums and the derivative recurrence over them against
    # the fused recurrence they replaced, bit for bit
    from stretchlab.pharmonic import _Context, _energy_and_grad, _power_derivatives, _retract

    ctx = _Context(mesh2, rho_twist)
    Z = identity_map(mesh2, rho_twist).class_points
    V = rng.standard_normal(Z.shape) * 0.05
    dots = np.einsum("ca,ab,cb->c", V, np.diag([1.0, 1.0, -1.0]), Z)
    J, m = _energy_and_grad(ctx, _retract(Z, -(V + dots[:, None] * Z)), p)
    t, d = m["t"], m["d"]
    assert len(m["P"]) == p // 2 + 1
    want_p, want_u, want_v = newton_power_oracle(t, d, p // 2, want_grads=True)
    assert np.array_equal(m["P"][-1], want_p)
    assert np.array_equal(m["P"][-1], newton_power_oracle(t, d, p // 2))
    got_u, got_v = _power_derivatives(t, d, m["P"])
    assert np.array_equal(got_u, want_u) and np.array_equal(got_v, want_v)
    assert J == float(np.dot(ctx.areas, want_p))


def test_continuation_requires_increasing_schedule(mesh2, octagon):
    with pytest.raises(ValueError):
        p_continuation(mesh2, octagon, schedule=(4, 2))


def test_kappa_normalization(twist_solution):
    for res in twist_solution:
        assert res.residuals["density_mass"] == pytest.approx(1.0, abs=1e-12)
        assert res.kappa_p == pytest.approx(res.J_p ** (-1.0 / res.p), rel=1e-14)


def test_density_uniform_for_identity(mesh2, octagon):
    res = minimize(mesh2, octagon, 8, opts=SolveOptions(max_iter=2000))
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
        rs = p_continuation(m, rho_twist, schedule=(2, 4, 8),
                            opts=SolveOptions(max_iter=4000))
        residuals.append(rs[-1].residuals["V_closedness"])
    assert residuals[1] < residuals[0]


def test_extract_zero_form_gives_zero_cocycle(mesh2, rho_twist):
    zero = DiscreteOneForm(mesh2, np.zeros((len(mesh2.edges), 3, 3)))
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
