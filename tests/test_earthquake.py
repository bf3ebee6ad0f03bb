import numpy as np
import pytest

from oracles import coboundary, finite_difference_cocycle, random_lie_alg, relator_tangency, vee
from stretchlab.cli import FD_STEP
from stretchlab.earthquake import (
    TWIST_PARTNER,
    TwistSpec,
    duality_check,
    earthquake_cocycle,
    length_derivative,
    twist,
    wolpert_reciprocity,
)
from stretchlab.fuchsian import GENERATOR_NAMES, translation_length
from stretchlab.lamination import WeightedMulticurve, pair, standard_measure

CURVES = list(GENERATOR_NAMES)


def test_twist_zero_is_identity(octagon):
    rho = twist(octagon, TwistSpec("a1", 0.0))
    np.testing.assert_allclose(rho.generators, octagon.generators, atol=1e-15)


def test_twist_rejects_unknown_curve(octagon):
    with pytest.raises(ValueError):
        TwistSpec("c1", 1.0)


def test_twist_preserves_relator(octagon):
    for curve in CURVES:
        rho = twist(octagon, TwistSpec(curve, 0.7))
        assert rho.relator_residual() <= 1e-9
        rho.validate()


def test_twist_preserves_own_length(octagon):
    for t in (0.1, 1.0, 5.0):
        rho = twist(octagon, TwistSpec("a1", t))
        assert translation_length(rho.generator("a1")) == pytest.approx(
            translation_length(octagon.generator("a1")), abs=1e-10
        )


def test_twist_one_parameter_group(octagon):
    s, t = 0.4, -0.9
    r1 = twist(twist(octagon, TwistSpec("b2", s)), TwistSpec("b2", t))
    r2 = twist(octagon, TwistSpec("b2", s + t))
    np.testing.assert_allclose(r1.generators, r2.generators, atol=1e-13)


def test_twist_changes_partner_only(octagon):
    rho = twist(octagon, TwistSpec("a2", 1.1))
    for n in GENERATOR_NAMES:
        same = np.allclose(rho.generator(n), octagon.generator(n), atol=1e-14)
        assert same == (n != TWIST_PARTNER["a2"])


def test_earthquake_cocycle_closed_form(octagon):
    # at the octagon and at the reference twist (a1, t=0.5)
    for rep in (octagon, twist(octagon, TwistSpec("a1", 0.5))):
        for curve in CURVES:
            xi = earthquake_cocycle(rep, curve, 1.0)
            # exact in algebra; the extended-precision evaluation leaves at
            # most 8.3e-15 on these eight
            assert relator_tangency(xi) <= 1e-13, (rep.label, curve)
            fd = finite_difference_cocycle(rep, curve)
            scale = max(1.0, float(np.abs(xi.values.astype(float)).max()))
            err = float(np.abs(fd.values.astype(float) - xi.values.astype(float)).max()) / scale
            assert err <= 1e-6


def test_earthquake_cocycle_weight_linearity(octagon):
    x1 = earthquake_cocycle(octagon, "b1", 1.0)
    x2 = earthquake_cocycle(octagon, "b1", 2.0)
    np.testing.assert_allclose(
        x2.values.astype(float), 2.0 * x1.values.astype(float), atol=1e-13
    )


def test_earthquake_pair_with_own_curve_vanishes(octagon):
    m = standard_measure(WeightedMulticurve(octagon, [("a1", 1.0)]))
    assert abs(pair(m, earthquake_cocycle(octagon, "a1", 1.0))) <= 1e-12


def test_length_derivative_vanishes_on_coboundary(octagon, rng):
    mc = WeightedMulticurve(octagon, [("b1", 1.0), ("a1", 0.3)])
    for _ in range(5):
        cob = coboundary(vee(random_lie_alg(rng)), octagon)
        assert abs(length_derivative(mc, cob)) <= 1e-10


def test_length_derivative_matches_fd(octagon):
    mc = WeightedMulticurve(octagon, [("b1", 1.0)])
    xi = earthquake_cocycle(octagon, "a1", 1.0)
    got = length_derivative(mc, xi)
    h = 1e-4
    lp = translation_length(twist(octagon, TwistSpec("a1", h)).generator("b1"))
    lm = translation_length(twist(octagon, TwistSpec("a1", -h)).generator("b1"))
    assert got == pytest.approx((lp - lm) / (2 * h), rel=1e-6)


def test_duality_all_twelve_pairs(octagon):
    for mc_curve in CURVES:
        for tw_curve in CURVES:
            if mc_curve == tw_curve:
                continue
            mc = WeightedMulticurve(octagon, [(mc_curve, 1.0)])
            rep = duality_check(octagon, mc, tw_curve, 1.0, FD_STEP)
            assert rep.rel_err <= 1e-6, (mc_curve, tw_curve, rep)


def test_duality_self_twist_both_sides_zero(octagon):
    mc = WeightedMulticurve(octagon, [("a1", 1.0)])
    rep = duality_check(octagon, mc, "a1", 1.0, FD_STEP)
    assert abs(rep.lhs) <= 1e-9 and abs(rep.rhs) <= 1e-12


def test_duality_weight_doubles_both_sides(octagon):
    mc = WeightedMulticurve(octagon, [("b1", 1.0)])
    r1 = duality_check(octagon, mc, "a1", 1.0, FD_STEP)
    r2 = duality_check(octagon, mc, "a1", 2.0, FD_STEP)
    assert r2.lhs == pytest.approx(2.0 * r1.lhs, rel=1e-5)
    assert r2.rhs == pytest.approx(2.0 * r1.rhs, rel=1e-12)


def test_duality_on_longer_words(octagon):
    mc = WeightedMulticurve(octagon, [("a1 b1", 1.0), ("b2 a2^-1", 0.7)])
    for tw_curve in CURVES:
        rep = duality_check(octagon, mc, tw_curve, 1.0, FD_STEP)
        assert rep.rel_err <= 1e-6, (tw_curve, rep)


def test_wolpert_reciprocity_symmetric(octagon):
    rep = wolpert_reciprocity(octagon, "a1", "b1", FD_STEP)
    assert rep.rel_err <= 1e-5
    assert abs(rep.lhs) > 1e-3  # genuinely nonzero for crossing curves


def test_wolpert_self_pair_zero(octagon):
    rep = wolpert_reciprocity(octagon, "a1", "a1", FD_STEP)
    assert abs(rep.lhs) <= 1e-10 and abs(rep.rhs) <= 1e-10


def test_wolpert_disjoint_handles_zero(octagon):
    rep = wolpert_reciprocity(octagon, "a1", "a2", FD_STEP)
    assert abs(rep.lhs) <= 1e-9 and abs(rep.rhs) <= 1e-9


def test_wolpert_cosine_value(octagon):
    # the a1 and b1 axes cross once; |dl_{b1}/dt_{a1}| = cos(angle) = cos(pi/4)
    rep = wolpert_reciprocity(octagon, "a1", "b1", FD_STEP)
    assert abs(rep.lhs) == pytest.approx(np.cos(np.pi / 4), abs=1e-6)
