import numpy as np
import pytest

from oracles import (
    B_STD,
    BPERP_STD,
    NHAT_STD,
    ZeroFormDraws,
    admissible_pairings,
    all_words_oracle,
    coboundary,
    frame_invariance_defect,
    killing,
    lie_from_frame_coords,
    random_group_elem,
    random_lie_alg,
    validate_measure,
    vee,
    words_from_codes,
)
from stretchlab import lorentz
from stretchlab.earthquake import TwistSpec, earthquake_cocycle, twist
from stretchlab.fuchsian import OCTAGON_LENGTH, translation_length
from stretchlab.lamination import (
    LieValuedMeasure,
    WeightedMulticurve,
    length,
    mass,
    mass_by_duality,
    pair,
    standard_measure,
)
from stretchlab.lorentz import X0, hat, mink_dot


def mc_of(octagon, *items):
    return WeightedMulticurve(octagon, list(items))


def test_multicurve_rejects_nonpositive_weight(octagon):
    with pytest.raises(ValueError):
        mc_of(octagon, ("a1", 0.0))


def test_multicurve_rejects_conjugate_words(octagon):
    with pytest.raises(ValueError):
        mc_of(octagon, ("a1 b1", 1.0), ("b1 a1", 1.0))
    with pytest.raises(ValueError):
        mc_of(octagon, ("a1", 1.0), ("a1^-1", 2.0))
    # a word that is not cyclically reduced is compared by its reduced form,
    # whichever place it has in the list
    for words in (("a1 b1 a1^-1", "b1"), ("b1", "a1 b1 a1^-1"), ("a1 b1 a1^-1", "a2 b1 a2^-1")):
        with pytest.raises(ValueError, match="conjugate"):
            mc_of(octagon, *((w, 1.0) for w in words))


def test_standard_measure_single_curve(octagon):
    m = standard_measure(mc_of(octagon, ("a1", 1.0)))
    validate_measure(m)
    assert len(m.atoms) == 1
    at = m.atoms[0]
    assert at.length == pytest.approx(OCTAGON_LENGTH, abs=1e-9)
    assert mink_dot(at.generator, at.generator) == pytest.approx(1.0, abs=1e-12)
    assert killing(hat(at.generator), hat(at.generator)) == pytest.approx(2.0, abs=1e-12)


def test_standard_measure_accepts_long_words(octagon, rng):
    # the float64 drift of the conjugate g B g^-1 - B grows like max|g|^2:
    # an absolute 1e-8 on it rejected 82% of the length-4 words and nearly
    # all of length 6, which the tilt off the axis vector does not
    words = words_from_codes(all_words_oracle(6))
    six = [w for w in words if len(w) == 6]
    for w in [w for w in words if len(w) <= 4] + [six[i] for i in rng.choice(len(six), 200, replace=False)]:
        validate_measure(standard_measure(mc_of(octagon, (w, 1.0))))


@pytest.mark.parametrize("word", ["a1", "a1 b1 a2 b2", "a1 b1^-1 a2 a2 b2 b1"])
def test_validate_rejects_perturbed_generator(octagon, rng, word):
    # killing-normalized, but off the axis by 1e-6: not Ad-invariant, at
    # every length (the length-6 word has max|g| ~ 2.5e5, and the tilt is
    # measured relative to the axis, not through the drift g B - B)
    at = standard_measure(mc_of(octagon, (word, 1.0))).atoms[0]
    b = at.generator + 1e-6 * vee(random_lie_alg(rng))
    at.generator = b * np.sqrt(1.0 / mink_dot(b, b))
    with pytest.raises(ValueError, match="not Ad-invariant"):
        validate_measure(LieValuedMeasure(octagon, [at]))


def test_standard_measure_empty(octagon):
    m = standard_measure(WeightedMulticurve(octagon, []))
    assert m.atoms == []
    assert mass(m) == 0.0


def test_standard_measure_weight_scaling(octagon):
    m1 = standard_measure(mc_of(octagon, ("a1", 1.0)))
    m2 = standard_measure(mc_of(octagon, ("a1", 2.0)))
    xi = earthquake_cocycle(octagon, "b1", 1.0)
    assert pair(m2, xi) == pytest.approx(2.0 * pair(m1, xi), rel=1e-12)


def test_mass_is_twice_length(octagon):
    m = standard_measure(mc_of(octagon, ("a1", 1.0)))
    assert mass(m) == pytest.approx(2.0 * OCTAGON_LENGTH, abs=1e-9)
    assert mass(m) == pytest.approx(6.11428, abs=1e-4)


def test_mass_equals_twice_length_random_multicurves(octagon, rng):
    words = ["a1", "b1", "a2", "b2", "a1 b1", "a2 b2^-1", "a1 b2", "b1 a2"]
    for _ in range(50):
        k = rng.integers(1, 4)
        picks = rng.choice(len(words), size=k, replace=False)
        items = [(words[i], float(rng.uniform(0.1, 3.0))) for i in picks]
        mc = mc_of(octagon, *items)
        m = standard_measure(mc)
        assert abs(mass(m) - 2.0 * length(mc, octagon)) <= 1e-12


def test_mass_scales_linearly(octagon):
    m1 = standard_measure(mc_of(octagon, ("b2", 1.0)))
    m3 = standard_measure(mc_of(octagon, ("b2", 3.0)))
    assert mass(m3) == pytest.approx(3.0 * mass(m1), rel=1e-13)


def test_mass_by_duality_attains_and_bounds(octagon):
    # the optimal form phi = B_i attains the mass
    m = standard_measure(mc_of(octagon, ("a1", 1.0), ("a1 b1^-1 a2", 0.25)))
    assert mass_by_duality(m) == pytest.approx(mass(m), rel=1e-12)


def test_mass_by_duality_random_forms_stay_below(octagon, rng):
    # every admissible form pairs to at most the mass, the optimal one
    # (sample 0) to mass_by_duality
    m = standard_measure(mc_of(octagon, ("a1", 1.0), ("b2", 0.5), ("a1 b1^-1 a2", 0.25)))
    values = admissible_pairings(m, 64, 96, rng)
    assert (values <= mass(m) * (1 + 1e-12)).all()
    assert values[0] == pytest.approx(mass_by_duality(m), rel=1e-12)


def test_zero_form_gives_zero(octagon):
    # the admissible test form with b = a = 0 along every curve pairs to zero
    m = standard_measure(mc_of(octagon, ("a1", 1.0), ("b2", 0.5)))
    assert admissible_pairings(m, 1, 96, ZeroFormDraws())[1] == 0.0


def test_length_additive_and_twist_invariant(octagon):
    mc1 = mc_of(octagon, ("a1", 1.0))
    mc2 = mc_of(octagon, ("b2", 0.7))
    both = mc_of(octagon, ("a1", 1.0), ("b2", 0.7))
    assert length(both, octagon) == pytest.approx(length(mc1, octagon) + length(mc2, octagon), rel=1e-12)
    assert length(mc1, octagon) == pytest.approx(OCTAGON_LENGTH, abs=1e-9)
    # twisting along a1 leaves sigma(a1) unchanged
    rho = twist(octagon, TwistSpec("a1", 1.3))
    assert length(mc1, rho) == pytest.approx(length(mc1, octagon), abs=1e-10)


def test_pair_vanishes_on_coboundaries(octagon, rng):
    for _ in range(10):
        cob = coboundary(vee(random_lie_alg(rng)), octagon)
        m = standard_measure(
            mc_of(octagon, ("a1", float(rng.uniform(0.2, 2.0))), ("b1", float(rng.uniform(0.2, 2.0))))
        )
        assert abs(pair(m, cob)) <= 1e-10


def test_pair_self_twist_is_zero(octagon):
    m = standard_measure(mc_of(octagon, ("a1", 1.0)))
    xi = earthquake_cocycle(octagon, "a1", 1.0)
    assert abs(pair(m, xi)) <= 1e-12


def test_pair_matches_finite_difference_length_derivative(octagon):
    # {(b1,1)} against the a1-twist cocycle: 2 x d l_{b1}/dt
    m = standard_measure(mc_of(octagon, ("b1", 1.0)))
    xi = earthquake_cocycle(octagon, "a1", 1.0)
    h = 1e-4
    lp = translation_length(twist(octagon, TwistSpec("a1", h)).generator("b1"))
    lm = translation_length(twist(octagon, TwistSpec("a1", -h)).generator("b1"))
    fd = (lp - lm) / (2 * h)
    assert pair(m, xi) == pytest.approx(2.0 * fd, rel=1e-6)


def test_pair_gauge_invariance(octagon, rng):
    # conjugating every atom generator and the cocycle value, as matrices,
    # by a common g fixes pair, the Killing form of the two
    m = standard_measure(mc_of(octagon, ("a1", 1.0), ("b2", 0.6)))
    xi = earthquake_cocycle(octagon, "b1", 1.0)
    g = random_group_elem(rng)
    gi = lorentz.sharp_adj(g)
    from stretchlab.cocycle import evaluate_cocycle

    base = pair(m, xi)
    conj = sum(
        at.weight * killing(g @ hat(at.generator) @ gi, g @ hat(evaluate_cocycle(xi, at.word).astype(float)) @ gi)
        for at in m.atoms
    )
    assert conj == pytest.approx(base, rel=1e-10)


def test_frame_invariance_defect_closed_form(rng):
    for _ in range(100):
        b, a, z = rng.uniform(-2, 2, size=3)
        t = float(rng.uniform(-2, 2))
        A = lie_from_frame_coords(b, a, z)
        got = frame_invariance_defect(A, B_STD, X0, t)
        want = np.sqrt(2.0) * abs(z * np.cosh(t) - a * np.sinh(t))
        assert got == pytest.approx(want, abs=1e-12 * max(1.0, want))


def test_frame_invariance_defect_examples():
    assert frame_invariance_defect(B_STD, B_STD, X0, 1.7) <= 1e-12
    assert frame_invariance_defect(NHAT_STD, B_STD, X0, 0.0) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert frame_invariance_defect(BPERP_STD, B_STD, X0, 1.0) == pytest.approx(
        np.sqrt(2.0) * np.sinh(1.0), abs=1e-12
    )
    assert frame_invariance_defect(BPERP_STD, B_STD, X0, 1.0) == pytest.approx(1.6620, abs=1e-3)


def test_frame_invariance_defect_zero_iff_axis_multiple(rng):
    # b-only: zero for all t; any a/z component: nonzero for some t
    for t in (0.0, 0.5, 1.5):
        assert frame_invariance_defect(1.3 * B_STD, B_STD, X0, t) <= 1e-12
    A = lie_from_frame_coords(1.0, 0.3, 0.0)
    assert max(frame_invariance_defect(A, B_STD, X0, t) for t in (0.0, 1.0)) > 0.1


def test_frame_invariance_defect_conjugated_frame(octagon, rng):
    # same closed form in a conjugated frame (general axis through gX0)
    g = random_group_elem(rng)
    gi = lorentz.sharp_adj(g)
    B = g @ B_STD @ gi
    X = g @ X0
    b, a, z = 0.4, -1.1, 0.8
    A = g @ lie_from_frame_coords(b, a, z) @ gi
    t = 0.9
    want = np.sqrt(2.0) * abs(z * np.cosh(t) - a * np.sinh(t))
    assert frame_invariance_defect(A, B, X, t) == pytest.approx(want, abs=1e-9)


def test_multicurve_json(octagon, tmp_path):
    import json

    mc = mc_of(octagon, ("a1", 1.0), ("a2 b2", 0.25))
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(mc.to_json()))
    back = WeightedMulticurve.from_json(octagon, json.loads(path.read_text()))
    assert [(str(w), b) for w, b in back.items] == [(str(w), b) for w, b in mc.items]


def test_multicurve_rejects_non_hyperbolic_word(octagon):
    from stretchlab.fuchsian import NonHyperbolicError

    with pytest.raises(NonHyperbolicError):
        mc_of(octagon, ("a1 a1^-1", 1.0))  # empty word evaluates to identity
