import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stretchlab.cocycle import Cocycle, RepMismatchError, evaluate_cocycle
from stretchlab.earthquake import TwistSpec, earthquake_cocycle, twist
from stretchlab.fuchsian import GENERATOR_NAMES, Word
from stretchlab.lamination import WeightedMulticurve, pair, standard_measure
from stretchlab.lorentz import sharp_adj

from oracles import (
    B_STD,
    BPERP_STD,
    NHAT_STD,
    coboundary,
    differentiate_family,
    exp_so21,
    free_words,
    lie_from_frame_coords,
    random_lie_alg,
    relator_tangency,
    validate_cocycle,
    vee,
    zero_cocycle,
)


def random_values_cocycle(octagon, rng, scale=1.0):
    """Arbitrary generator values; extends by the cocycle rule regardless of
    tangency (the rule defines an extension on the free group)."""
    vals = vee(np.array([random_lie_alg(rng, scale) for _ in range(4)]))
    return Cocycle(octagon, vals.astype(np.longdouble))


def test_empty_word_gives_zero(octagon, rng):
    alpha = random_values_cocycle(octagon, rng)
    np.testing.assert_allclose(evaluate_cocycle(alpha, Word()), 0.0, atol=1e-15)


def test_zero_cocycle_any_word(octagon):
    z = zero_cocycle(octagon)
    for w in ("a1", "a1 b2^-1 a2", "b1 b1 a1^-1"):
        np.testing.assert_allclose(evaluate_cocycle(z, w), 0.0, atol=1e-15)


def test_cocycle_rule_on_random_pairs(octagon, rng):
    alpha = random_values_cocycle(octagon, rng)
    words = free_words(3)
    idx = rng.integers(0, len(words), size=200).reshape(100, 2)
    for i, j in idx:
        w1, w2 = words[i], words[j]
        lhs = evaluate_cocycle(alpha, w1 * w2)
        s1 = octagon.evaluate_ld(w1)
        v1 = evaluate_cocycle(alpha, w1)
        v2 = evaluate_cocycle(alpha, w2)
        rhs = s1 @ v2 + v1
        # 1e-12 agreement relative to the conditioning of the identity
        # (the Ad factor s1 reaches operator norm ~1e3 on cancelling pairs)
        scale = 1.0 + float(np.abs(v1).max()) + float(np.abs(s1).max()) * float(np.abs(v2).max())
        assert float(np.abs(lhs - rhs).max()) <= 1e-12 * scale

def test_inverse_word_rule(octagon, rng):
    alpha = random_values_cocycle(octagon, rng)
    for text in ("a1", "b2", "a1 b1", "a2 b2^-1 a1"):
        w = Word.parse(text)
        s = octagon.evaluate_ld(w)
        v = evaluate_cocycle(alpha, w)
        lhs = evaluate_cocycle(alpha, w.inverse())
        rhs = -(sharp_adj(s) @ v)
        scale = 1.0 + float(np.abs(s).max()) * float(np.abs(v).max())
        assert float(np.abs(lhs - rhs).max()) <= 1e-12 * scale


def test_every_bracketing_agrees(octagon, rng):
    # associativity: splitting a word at any point gives the same value
    alpha = random_values_cocycle(octagon, rng)
    w = Word.parse("a1 b1^-1 a2 b2 a1^-1")
    full = evaluate_cocycle(alpha, w)
    for cut in range(1, len(w)):
        w1, w2 = Word(w.letters[:cut]), Word(w.letters[cut:])
        s1 = octagon.evaluate_ld(w1)
        v2 = evaluate_cocycle(alpha, w2)
        split = s1 @ v2 + evaluate_cocycle(alpha, w1)
        scale = 1.0 + float(np.abs(s1).max()) * float(np.abs(v2).max())
        assert float(np.abs(full - split).max()) <= 1e-12 * scale


def _bracketed(alpha, letters, draw):
    """alpha, sigma and the conditioning scale of a word, evaluated by the
    cocycle rule on a drawn bracketing of its letters."""
    if len(letters) == 1:
        v = evaluate_cocycle(alpha, Word(letters))
        return v, alpha.rep.evaluate_ld(Word(letters)), float(np.abs(v).max())
    cut = draw(st.integers(1, len(letters) - 1))
    v1, s1, m1 = _bracketed(alpha, letters[:cut], draw)
    v2, s2, m2 = _bracketed(alpha, letters[cut:], draw)
    return s1 @ v2 + v1, s1 @ s2, m1 + float(np.abs(s1).max()) * m2


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(range(8)), min_size=1, max_size=10),
    st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12),
    st.data(),
)
def test_any_bracketing_agrees(octagon, seq, coords, data):
    # the rule alpha(w1 w2) = alpha(w1) + sigma(w1) alpha(w2), applied
    # along any bracketing of a free word, gives the letter-by-letter value
    vals = vee(np.array([lie_from_frame_coords(*coords[3 * i : 3 * i + 3]) for i in range(4)]))
    alpha = Cocycle(octagon, vals.astype(np.longdouble))
    letters = Word(seq).letters
    assume(letters)
    got, _, scale = _bracketed(alpha, letters, data.draw)
    full = evaluate_cocycle(alpha, Word(letters))
    assert float(np.abs(full - got).max()) <= 1e-12 * (1.0 + scale)


def test_coboundary_of_zero(octagon):
    cob = coboundary(np.zeros(3), octagon)
    np.testing.assert_allclose(cob.values.astype(float), 0.0, atol=1e-15)


def test_coboundary_tangency_and_expansion(octagon, rng):
    w0 = vee(random_lie_alg(rng))
    cob = coboundary(w0, octagon)
    assert relator_tangency(cob) <= 1e-8
    validate_cocycle(cob)
    # closed-form expansion check on a product word
    w = Word.parse("a1 b2")
    s = octagon.evaluate_ld(w)
    expected = w0 - (s @ w0).astype(float)
    np.testing.assert_allclose(evaluate_cocycle(cob, w).astype(float), expected, atol=1e-10)


def test_coboundary_space_is_three_dimensional(octagon):
    basis = [coboundary(vee(B), octagon).values.astype(float).ravel()
             for B in (B_STD, BPERP_STD, NHAT_STD)]
    M = np.array(basis)
    assert np.linalg.matrix_rank(M, tol=1e-8) == 3


def test_relator_tangency_random_values_generically_large(octagon, rng):
    vals = [relator_tangency(random_values_cocycle(octagon, rng)) for _ in range(10)]
    assert min(vals) > 0.1


def test_relator_tangency_zero_cocycle(octagon):
    assert relator_tangency(zero_cocycle(octagon)) == 0.0


def test_differentiate_constant_family(octagon):
    alpha = differentiate_family(lambda s: octagon, octagon)
    np.testing.assert_allclose(alpha.values.astype(float), 0.0, atol=1e-12)


def test_differentiate_twist_family_matches_closed_form(octagon):
    for curve in GENERATOR_NAMES:
        fd = differentiate_family(lambda s, c=curve: twist(octagon, TwistSpec(c, s)), octagon)
        cf = earthquake_cocycle(octagon, curve, 1.0)
        scale = max(1.0, float(np.abs(cf.values.astype(float)).max()))
        assert float(np.abs(fd.values.astype(float) - cf.values.astype(float)).max()) / scale <= 1e-6
        assert relator_tangency(fd) <= 1e-6


def test_differentiate_conjugation_family_is_coboundary_class(octagon, rng):
    # pairing-based class test lives in test_lamination; here: tangency and
    # direct comparison against the closed-form coboundary
    A0 = random_lie_alg(rng)

    def fam(s):
        g = exp_so21(s * A0)
        gens = np.array([g @ octagon.generator_ld(n) @ sharp_adj(g) for n in GENERATOR_NAMES])
        return type(octagon)(gens, label="conj")

    fd = differentiate_family(fam, octagon)
    cob = coboundary(vee(A0), octagon)
    # conjugation family differentiates to Ad-derivative = the coboundary with
    # the opposite sign convention: alpha(g) = A0 - Ad(g)A0 vs d/ds(e^{sA}ge^{-sA})g^{-1}
    diff = fd.values.astype(float) + cob.values.astype(float)
    alt = fd.values.astype(float) - cob.values.astype(float)
    assert min(np.abs(diff).max(), np.abs(alt).max()) <= 1e-6


def test_rep_mismatch_raises(octagon, rng):
    other = twist(octagon, TwistSpec("a1", 0.3))
    measure = standard_measure(WeightedMulticurve(octagon, [("a1", 1.0)]))
    with pytest.raises(RepMismatchError):
        pair(measure, zero_cocycle(other))


def test_differentiate_family_validates_members(octagon):
    def broken(s):
        gens = octagon.generators.copy()
        gens[0] = gens[0] + s * 10.0  # off the group for s != 0
        return type(octagon)(gens, label="broken")

    with pytest.raises(ValueError):
        differentiate_family(broken, octagon)


def test_differentiate_family_off_center(octagon):
    # differentiating the twist family at s0 != 0 gives the earthquake
    # cocycle based at the twisted rep
    from stretchlab.earthquake import TwistSpec, earthquake_cocycle, twist

    s0 = 0.3
    base = twist(octagon, TwistSpec("a1", s0))
    fd = differentiate_family(
        lambda s: twist(octagon, TwistSpec("a1", s)), base, s0=s0
    )
    cf = earthquake_cocycle(base, "a1", 1.0)
    scale = max(1.0, float(np.abs(cf.values.astype(float)).max()))
    assert float(np.abs(fd.values.astype(float) - cf.values.astype(float)).max()) / scale <= 1e-6
