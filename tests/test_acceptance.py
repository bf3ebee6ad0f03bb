"""Acceptance suite: one test per criterion, tolerances pinned inline.

Run `pytest -s tests/test_acceptance.py` to see one PASS line per criterion
with its runtime.  The heavy solves are shared module-scoped fixtures; each
criterion still asserts its own stated runtime budget.
"""

import time

import numpy as np
import pytest

from oracles import (
    B_STD,
    ZeroFormDraws,
    admissible_pairings,
    coboundary,
    cylinder_continuation,
    exp_series_oracle,
    exp_so21,
    extract_cocycle,
    form_from_edge_function,
    frame_invariance_defect,
    killing,
    lie_from_frame_coords,
    project_tangent,
    random_group_elem,
    random_lie_alg,
    random_tangent,
    relator_tangency,
    vee,
)
from stretchlab import lorentz
from stretchlab.cli import FD_STEP, TOL, p_continuation
from stretchlab.earthquake import (
    TwistSpec,
    duality_check,
    earthquake_cocycle,
    length_derivative,
    twist,
    wolpert_reciprocity,
)
from stretchlab.fuchsian import (
    GENERATOR_NAMES,
    Word,
    enumerate_words,
    k_lower_bound,
    octagon_representation,
    translation_length,
)
from stretchlab.lamination import (
    WeightedMulticurve,
    length,
    mass,
    mass_by_duality,
    pair,
    standard_measure,
)
from stretchlab.lorentz import E_SHARP, X0, mink_dot
from stretchlab.mesh import build_octagon_mesh

CURVES = list(GENERATOR_NAMES)


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0


def _report(num, name, timer, budget):
    print(f"ACCEPTANCE {num}: PASS ({timer.seconds:.2f}s / budget {budget:g}s) - {name}")
    assert timer.seconds < budget, f"criterion {num} exceeded its runtime budget"


@pytest.fixture(scope="module")
def octagon():
    return octagon_representation()


@pytest.fixture(scope="module")
def rho_twist(octagon):
    return twist(octagon, TwistSpec("a1", 0.5))


@pytest.fixture(scope="module")
def identity_run(octagon):
    mesh = build_octagon_mesh(3)
    with _Timer() as t:
        results = list(p_continuation(mesh, octagon, [2, 4, 8, 16, 32, 64],
                                      TOL, 6000, resumed={}))
    return mesh, results, t.seconds


@pytest.fixture(scope="module")
def twist_run(octagon, rho_twist):
    mesh = build_octagon_mesh(3)
    with _Timer() as t:
        results = list(p_continuation(mesh, rho_twist, [2, 4, 8, 16, 32, 64],
                                      TOL, 8000, resumed={}))
    return mesh, results, t.seconds


def test_criterion_1_lorentz_algebra(rng):
    with _Timer() as t:
        for _ in range(100):
            X, Y = rng.standard_normal(3), rng.standard_normal(3)
            np.testing.assert_allclose(lorentz.mink_cross_vec(X, Y), -lorentz.mink_cross_vec(Y, X), atol=1e-13)
        for _ in range(50):
            g = random_group_elem(rng)
            X, Y = rng.standard_normal(3), rng.standard_normal(3)
            # the cross product as a vector is equivariant, and so is hat
            lhs = lorentz.hat(lorentz.mink_cross_vec(g @ X, g @ Y))
            rhs = g @ lorentz.hat(lorentz.mink_cross_vec(X, Y)) @ lorentz.sharp_adj(g)
            assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())
        for _ in range(50):
            X = random_group_elem(rng) @ X0
            v = rng.standard_normal(3)
            pv = project_tangent(X, v)
            np.testing.assert_allclose(project_tangent(X, pv), pv, atol=1e-12)
        for _ in range(50):
            A = random_lie_alg(rng, scale=1.6)
            nrm = np.sqrt(abs(killing(A, A)))
            if nrm > 5.0:
                A = A * (5.0 / nrm)
            np.testing.assert_allclose(
                exp_so21(A), exp_series_oracle(A, 40), atol=1e-12
            )
        for _ in range(20):
            X = random_group_elem(rng) @ X0
            v = random_tangent(rng, X)
            B = lorentz.hat(lorentz.mink_cross_vec(v, X))  # |B_0| = sqrt2 for unit-speed generators
            assert killing(B, B) == pytest.approx(2.0, abs=1e-10)
    _report(1, "Lorentz algebra suite", t, 1.0)


def test_criterion_2_octagon_representation():
    with _Timer() as t:
        rep = octagon_representation()
        assert rep.relator_residual() <= 1e-9
        expected = 2.0 * np.arccosh(1.0 + np.sqrt(2.0))
        assert expected == pytest.approx(3.05714, abs=1e-5)
        for n in CURVES:
            assert translation_length(rep.generator(n)) == pytest.approx(expected, abs=1e-9)
    _report(2, "octagon representation", t, 1.0)


def test_criterion_3_mass_equals_twice_length(octagon, rng):
    words = ["a1", "b1", "a2", "b2", "a1 b1", "a2 b2^-1", "a1 b2", "b1 a2", "a1 b1^-1 a2"]
    with _Timer() as t:
        for _ in range(50):
            k = int(rng.integers(1, 4))
            picks = rng.choice(len(words), size=k, replace=False)
            mc = WeightedMulticurve(
                octagon, [(words[i], float(rng.uniform(0.1, 3.0))) for i in picks]
            )
            m = standard_measure(mc)
            total = mass(m)
            assert abs(total - 2.0 * length(mc, octagon)) <= 1e-12
            lb = mass_by_duality(m)
            assert lb == pytest.approx(total, rel=1e-12)
            # random admissible forms pair to at most the mass, the optimal
            # one (sample 0) to mass_by_duality, the zero form to zero
            values = admissible_pairings(m, 8, 64, rng)
            assert (values <= total * (1 + 1e-12)).all()
            assert values[0] == pytest.approx(lb, rel=1e-12)
            assert admissible_pairings(m, 1, 64, ZeroFormDraws())[1] == 0.0
    _report(3, "mass = 2*length and duality bound", t, 5.0)


def test_criterion_4_frame_identity(rng):
    with _Timer() as t:
        for _ in range(100):
            b, a, z = rng.uniform(-2, 2, size=3)
            s = float(rng.uniform(-2, 2))
            A = lie_from_frame_coords(b, a, z)
            got = frame_invariance_defect(A, B_STD, X0, s)
            want = np.sqrt(2.0) * abs(z * np.cosh(s) - a * np.sinh(s))
            assert got == pytest.approx(want, abs=1e-12 * max(1.0, want))
        # defect vanishes for all t iff a = z = 0
        for s in (0.0, 0.7, 1.9):
            assert frame_invariance_defect(2.0 * B_STD, B_STD, X0, s) <= 1e-12
        A = lie_from_frame_coords(1.0, 1e-3, 0.0)
        assert max(frame_invariance_defect(A, B_STD, X0, s) for s in (0.0, 1.0)) > 1e-4
    _report(4, "Step-1 frame invariance identity", t, 1.0)


def test_criterion_5_length_derivative_formula(octagon):
    h = 1e-4
    with _Timer() as t:
        for mc_curve in CURVES:
            for tw_curve in CURVES:
                if mc_curve == tw_curve:
                    continue
                mc = WeightedMulticurve(octagon, [(mc_curve, 1.0)])
                xi = earthquake_cocycle(octagon, tw_curve, 1.0)
                got = length_derivative(mc, xi)
                lp = length(mc, twist(octagon, TwistSpec(tw_curve, h)))
                lm = length(mc, twist(octagon, TwistSpec(tw_curve, -h)))
                fd = (lp - lm) / (2.0 * h)
                scale = max(abs(fd), abs(got))
                err = abs(got - fd) / scale if scale > 1e-10 else abs(got - fd)
                assert err <= 1e-6, (mc_curve, tw_curve, got, fd)
    _report(5, "length-derivative formula, 12 pairs", t, 5.0)


def test_criterion_6_earthquake_duality(octagon, rng):
    with _Timer() as t:
        for mc_curve in CURVES:
            for tw_curve in CURVES:
                if mc_curve == tw_curve:
                    continue
                mc = WeightedMulticurve(octagon, [(mc_curve, 1.0)])
                rep = duality_check(octagon, mc, tw_curve, 1.0, FD_STEP)
                assert rep.rel_err <= 1e-6, (mc_curve, tw_curve, rep)
        for _ in range(10):
            cob = coboundary(vee(random_lie_alg(rng)), octagon)
            m = standard_measure(
                WeightedMulticurve(octagon, [("a1", 1.0), ("b2", 0.5), ("a2 b2", 0.25)])
            )
            assert abs(pair(m, cob)) <= 1e-10
        for i, c1 in enumerate(CURVES):
            for c2 in CURVES[i:]:
                rep = wolpert_reciprocity(octagon, c1, c2, FD_STEP)
                assert rep.rel_err <= 1e-5, (c1, c2, rep)
    _report(6, "earthquake duality / coboundary / Wolpert", t, 10.0)


def test_criterion_7_cylinder_rig():
    with _Timer() as t:
        rig, reports = cylinder_continuation(
            2.0, 3.0, n=64, schedule=(2, 4, 8, 16, 32, 64), seed=0
        )
        by_p = {r["p"]: r for r in reports}
        assert by_p[8]["stretch"] == pytest.approx(1.5, abs=1e-3)
        assert by_p[64]["stretch"] == pytest.approx(1.5, rel=0.02)
    _report(7, "cylinder rig exact solution", t, 30.0)


def test_criterion_8_identity_target(identity_run):
    mesh, results, solve_seconds = identity_run
    with _Timer() as t:
        area = float(mesh.areas.sum())
        by_p = {r.p: r for r in results}
        # J_p within 2% of 8 pi on the moderate-p stages (s_max^p growth makes
        # an all-p reading unattainable on any fixed mesh)
        for p in (2, 4, 8):
            assert by_p[p].J_p == pytest.approx(8.0 * np.pi, rel=0.02)
        v64 = by_p[64].normalized_stage_value()
        assert 1.0 <= v64 <= 1.05
        for res in results:
            cv = float(np.std(res.density) / np.mean(res.density))
            assert cv <= 0.05, (res.p, cv)
    total = solve_seconds + t.seconds
    print(f"ACCEPTANCE 8: PASS ({total:.2f}s / budget 120s) - identity target, level 3")
    assert total < 120.0


def test_criterion_9_twisted_target(octagon, rho_twist, twist_run):
    mesh, results, solve_seconds = twist_run
    with _Timer() as t:
        words = enumerate_words(6)
        klb = k_lower_bound(words, octagon, rho_twist)
        assert klb > 1.0
        for res in results:
            assert res.normalized_stage_value() >= klb - 0.02, (res.p, res.normalized_stage_value(), klb)
        by_p = {r.p: r for r in results}
        assert (
            by_p[64].residuals["concentration_fraction"]
            > by_p[8].residuals["concentration_fraction"]
        )
        for res in results:
            assert res.residuals["minus2T_exact_identity"] <= 1e-10
            assert res.residuals["minus2T_tracefree_gap"] <= 1e-10
        # one refinement at fixed p = 8: closedness residuals drop >= 1.5x
        mesh4 = build_octagon_mesh(4)
        fine = list(p_continuation(mesh4, rho_twist, [2, 4, 8], TOL, 8000, resumed={}))
        coarse_res = by_p[8].residuals
        fine_res = fine[-1].residuals
        assert coarse_res["V_closedness"] >= 1.5 * fine_res["V_closedness"]
        assert coarse_res["W_closedness"] >= 1.5 * fine_res["W_closedness"]
    total = solve_seconds + t.seconds
    print(f"ACCEPTANCE 9: PASS ({total:.2f}s / budget 900s) - twisted target, level 3 + refinement")
    assert total < 900.0


def _kernel_equivariant_sample(rep, A0, Pv, beta=4.0, max_dist=8.0):
    """Smooth equivariant xi: weighted affine orbit average over group copies.

    xi(gamma x) = Ad(sigma(gamma)) xi(x) + alpha_cob(gamma) up to the kernel
    truncation (double-exponentially small for beta = 4 on this octagon).
    """
    from stretchlab.fuchsian import _X_GENERATOR_WORDS

    xws = [Word.parse(w) for w in _X_GENERATOR_WORDS]
    xws += [w.inverse() for w in xws]
    words = [Word()] + xws + [a * b for a in xws for b in xws]
    mats, zs = [], []
    for w in words:
        g = rep.evaluate(w)
        z = g @ X0
        if any(np.abs(z - z2).max() < 1e-9 for z2 in zs):
            continue
        if np.arccosh(max(-mink_dot(z, X0), 1.0)) > max_dist:
            continue
        mats.append(g)
        zs.append(z)
    G = np.array(mats)
    Zs = np.array(zs)
    Gi = np.einsum("ab,wcb,cd->wad", E_SHARP, G, E_SHARP)
    Vw = A0[None] + G @ (Pv - A0)[None] @ Gi

    def xi(x):
        d = np.arccosh(np.maximum(-(Zs @ (E_SHARP @ x)), 1.0))
        w = np.exp(-beta * d * d)
        w = w / w.sum()
        return np.einsum("w,wab->ab", w, Vw)

    return xi


def test_criterion_10_cocycle_extraction(octagon):
    from stretchlab.mesh import _midpoint

    with _Timer() as t:
        A0 = lie_from_frame_coords(0.3, -0.2, 0.4)
        Pv = lie_from_frame_coords(-0.5, 0.6, 0.1)
        # beta = 1: wide kernel the coarse meshes resolve, so the O(h)
        # refinement trend is visible from level 1 on
        xi = _kernel_equivariant_sample(octagon, A0, Pv, beta=1.0)

        tangencies = []
        pairings = []
        for lvl in (1, 2, 3):
            mesh = build_octagon_mesh(lvl)

            def fn(i, j, mesh=mesh):
                Xi, Xj = mesh.vertices[i], mesh.vertices[j]
                mid = _midpoint(Xi, Xj)
                chord = Xj - Xi
                delta = 1e-5
                cp = lorentz.normalize_to_hyperboloid(mid + 0.5 * delta * chord)
                cm = lorentz.normalize_to_hyperboloid(mid - 0.5 * delta * chord)
                return (xi(cp) - xi(cm)) / delta

            form = form_from_edge_function(mesh, fn)
            alpha = extract_cocycle(form, octagon)
            tangencies.append(relator_tangency(alpha))
            worst = max(
                abs(pair(standard_measure(WeightedMulticurve(octagon, [(c, 1.0)])), alpha))
                for c in CURVES
            )
            pairings.append(worst)
        # O(h): both the relator tangency and the coboundary-class pairing
        # shrink under refinement (observed ~3-4x per level)
        assert tangencies[1] < tangencies[0] / 2.0
        assert tangencies[2] < tangencies[1] / 2.0
        assert pairings[1] < pairings[0] / 2.0
        assert pairings[2] < pairings[1] / 2.0
        assert pairings[2] <= 0.1
    _report(10, "cocycle extraction from manufactured gradients", t, 60.0)
