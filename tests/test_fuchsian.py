import json
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stretchlab import fuchsian, lorentz
from stretchlab.fuchsian import (
    OCTAGON_LENGTH,
    OCTAGON_VERTICES,
    PAIRING_WORDS,
    RELATOR,
    NonHyperbolicError,
    Word,
    axis_generator,
    enumerate_words,
    k_lower_bound,
    stretch_ratio,
    translation_length,
)
from stretchlab.earthquake import TwistSpec, twist
from stretchlab.lorentz import B_STD, exp_so21, group_inv, killing

from oracles import words_from_codes

# letter codes: 2 * generator + (exponent < 0)
LETTERS = list(range(8))


def enumerate_words_oracle(max_len, cyclically_reduced=True):
    """Depth-first enumeration of reduced words, one Word at a time."""
    out = []

    def rec(seq):
        if seq:
            w = Word(seq)
            if not cyclically_reduced or len(w.cyclically_reduced()) == len(w):
                out.append(w)
        if len(seq) == max_len:
            return
        for c in LETTERS:
            if seq and seq[-1] == c ^ 1:
                continue
            rec(seq + [c])

    rec([])
    return out


def k_lower_bound_oracle(words, sigma, rho):
    """Largest l_rho/l_sigma, each word multiplied out on its own in float64.

    Every word counts: conjugates agree only to the float64 noise of their
    products (~1e-11 relative for length-6 commutator words), so keeping one
    word per rounded (trace_sigma, trace_rho) pair would move the max.
    """
    sig = {2 * i: sigma.generator(n) for i, n in enumerate(fuchsian.GENERATOR_NAMES)}
    rh = {2 * i: rho.generator(n) for i, n in enumerate(fuchsian.GENERATOR_NAMES)}
    for c in range(0, 8, 2):
        sig[c + 1] = group_inv(sig[c])
        rh[c + 1] = group_inv(rh[c])
    best = 0.0
    for w in words:
        ms, mr = np.eye(3), np.eye(3)
        for letter in fuchsian.as_word(w).letters:
            ms = ms @ sig[letter]
            mr = mr @ rh[letter]
        try:
            best = max(best, translation_length(mr) / translation_length(ms))
        except NonHyperbolicError:
            pass
    return best


def test_word_parse_and_reduce():
    w = Word.parse("a1 a1^-1 b1")
    assert w == Word.parse("b1")
    assert len(Word.parse("a1 b1 b1^-1 a1^-1")) == 0
    assert str(Word.parse("a2^-1 b2")) == "a2^-1 b2"


def test_word_letters_are_codes():
    assert Word.parse("a1 b1^-1 b2").letters == (0, 3, 6)
    codes = enumerate_words(4)
    for row, w in zip(codes.tolist(), words_from_codes(codes)):
        assert Word.parse(str(w)).letters == tuple(c for c in row if c != fuchsian.PAD)


def test_word_inverse_and_cyclic_reduction():
    w = Word.parse("a1 b1 a1^-1")
    assert w.inverse() == Word.parse("a1 b1^-1 a1^-1")
    assert w.cyclically_reduced() == Word.parse("b1")


def test_word_rejects_garbage():
    with pytest.raises(fuchsian.WordError):
        Word.parse("c3")
    with pytest.raises(fuchsian.WordError):
        Word.parse("a1^2")


def test_octagon_relator(octagon):
    assert octagon.relator_residual() <= 1e-9
    np.testing.assert_allclose(octagon.evaluate(RELATOR), np.eye(3), atol=1e-9)


def test_octagon_generator_lengths(octagon):
    # regular octagon with vertex angle pi/4: cosh(l/2) = cot(pi/8) = 1 + sqrt2
    assert OCTAGON_LENGTH == pytest.approx(2.0 * np.arccosh(1.0 + np.sqrt(2.0)))
    assert OCTAGON_LENGTH == pytest.approx(3.05714, abs=1e-5)
    for n in fuchsian.GENERATOR_NAMES:
        assert translation_length(octagon.generator(n)) == pytest.approx(OCTAGON_LENGTH, abs=1e-9)


def test_octagon_generators_do_not_commute(octagon):
    a1, a2 = octagon.generator("a1"), octagon.generator("a2")
    comm = a1 @ a2 @ group_inv(a1) @ group_inv(a2)
    assert np.linalg.norm(comm - np.eye(3)) > 0.1


def test_octagon_validate(octagon):
    octagon.validate()


def test_evaluate_homomorphism(octagon, rng):
    words = words_from_codes(enumerate_words(3, cyclically_reduced=False))
    idx = rng.integers(0, len(words), size=200).reshape(100, 2)
    for i, j in idx:
        w1, w2 = words[i], words[j]
        lhs = octagon.evaluate(w1 * w2)
        rhs = octagon.evaluate(w1) @ octagon.evaluate(w2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9 * max(1.0, np.abs(rhs).max()))


def test_evaluate_identity_cases(octagon):
    np.testing.assert_allclose(octagon.evaluate(Word()), np.eye(3), atol=1e-15)
    np.testing.assert_allclose(octagon.evaluate("a1 a1^-1"), np.eye(3), atol=1e-15)


def test_translation_length_exact_on_exponentials():
    for t in (0.1, 1.0, 2.5, 5.0, -0.7, -3.0):
        assert translation_length(exp_so21(t * B_STD)) == pytest.approx(abs(t), abs=1e-10)


def test_translation_length_rejects_non_hyperbolic():
    with pytest.raises(NonHyperbolicError):
        translation_length(np.eye(3))
    with pytest.raises(NonHyperbolicError):
        translation_length(exp_so21(0.3 * lorentz.NHAT_STD))


def test_translation_length_conjugation_invariant(octagon, rng):
    g = octagon.evaluate("a1 b2^-1")
    l = translation_length(g)
    for _ in range(10):
        h = lorentz.random_group_elem(rng)
        assert translation_length(h @ g @ group_inv(h)) == pytest.approx(l, abs=1e-9)


def test_axis_generator_round_trip():
    B = axis_generator(exp_so21(3.0 * B_STD))
    np.testing.assert_allclose(B, B_STD, atol=1e-12)
    g = exp_so21(2.2 * B_STD)
    np.testing.assert_allclose(exp_so21(translation_length(g) * axis_generator(g)), g, atol=1e-9)


def test_axis_generator_properties(octagon, rng):
    for name in fuchsian.GENERATOR_NAMES:
        g = octagon.generator(name)
        B = axis_generator(g)
        assert killing(B, B) == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(g @ B @ group_inv(g), B, atol=1e-10)
        np.testing.assert_allclose(exp_so21(translation_length(g) * B), g, atol=1e-9)
    # equivariance under conjugation
    g = octagon.generator("b1")
    h = lorentz.random_group_elem(rng)
    np.testing.assert_allclose(
        axis_generator(h @ g @ group_inv(h)), h @ axis_generator(g) @ group_inv(h), atol=1e-9
    )


def test_stretch_ratio_identity(octagon):
    for w in ("a1", "b1 a2", "a1 b1^-1 a2"):
        assert stretch_ratio(w, octagon, octagon) == pytest.approx(1.0, abs=1e-12)


def test_stretch_ratio_own_curve_invariant_under_twist(octagon):
    rho = twist(octagon, TwistSpec("a1", 0.8))
    assert stretch_ratio("a1", octagon, rho) == pytest.approx(1.0, abs=1e-12)


def test_k_lower_bound_identity(octagon):
    words = enumerate_words(3)
    assert k_lower_bound(words, octagon, octagon) == 1.0


def test_k_lower_bound_twist(octagon):
    rho = twist(octagon, TwistSpec("a1", 0.5))
    words = enumerate_words(4)
    klb = k_lower_bound(words, octagon, rho)
    assert klb > 1.0
    # extending the list can only increase the bound
    assert k_lower_bound(enumerate_words(2), octagon, rho) <= klb + 1e-12


def test_enumerate_words_counts():
    # freely reduced words of length 2 are all cyclically reduced: 8 * 7
    assert len(enumerate_words(1)) == 8
    w2 = words_from_codes(enumerate_words(2))
    assert len([w for w in w2 if len(w) == 2]) == 56
    # length 3: freely reduced 8*7*7, minus the 8*6 with last = first^-1
    w3 = [w for w in words_from_codes(enumerate_words(3)) if len(w) == 3]
    assert len(w3) == 8 * 7 * 7 - 8 * 6
    for max_len in range(1, 6):
        for cyclic in (True, False):
            got = words_from_codes(enumerate_words(max_len, cyclically_reduced=cyclic))
            want = enumerate_words_oracle(max_len, cyclically_reduced=cyclic)
            assert len(got) == len(set(got))
            # depth-first order restricted to one length is lexicographic
            assert got == sorted(want, key=len)
    assert len(enumerate_words(0)) == 0


@pytest.mark.parametrize("curve", fuchsian.GENERATOR_NAMES)
def test_k_lower_bound_matches_word_loop(octagon, curve):
    rho = twist(octagon, TwistSpec(curve, 0.5))
    words = words_from_codes(enumerate_words(5))
    assert k_lower_bound(words, octagon, rho) == pytest.approx(
        k_lower_bound_oracle(words, octagon, rho), rel=1e-12, abs=0
    )
    # one word at a time: the max over a list closed under reversal would
    # not see a product taken right to left
    for w in words[-40::7]:
        assert k_lower_bound([w], octagon, rho) == pytest.approx(
            k_lower_bound_oracle([w], octagon, rho), rel=1e-12, abs=0
        )


def test_k_lower_bound_skips_non_hyperbolic(octagon):
    rho = twist(octagon, TwistSpec("a1", 0.5))
    with pytest.warns(UserWarning, match="skipped 1 non-hyperbolic"):
        klb = k_lower_bound([Word(), "b1", Word()], octagon, rho)
    assert klb == stretch_ratio("b1", octagon, rho)
    with pytest.warns(UserWarning, match="skipped 1 non-hyperbolic"):
        assert k_lower_bound([Word()], octagon, rho) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert k_lower_bound([], octagon, rho) == 0.0


def test_k_lower_bound_skips_relator_rotations(octagon):
    # the identity in pi_1, but float64 products miss trace 3 by ~1e-8
    rho = twist(octagon, TwistSpec("a1", 0.5))
    rotations = [Word(v) for v in RELATOR.cyclic_variants()]
    assert len(set(rotations)) == 16
    with pytest.warns(UserWarning, match="non-hyperbolic"):
        assert k_lower_bound(rotations, octagon, rho) == 0.0


def test_enumerate_words_codes_round_trip():
    codes = enumerate_words(6)
    assert codes.dtype == np.int8 and codes.shape == (137280, 6)
    np.testing.assert_array_equal(fuchsian.word_codes(words_from_codes(codes)), codes)


def test_k_lower_bound_chunks_are_exact(octagon, monkeypatch):
    rho = twist(octagon, TwistSpec("b2", 0.5))
    codes = enumerate_words(5)
    whole = k_lower_bound(codes, octagon, rho)
    monkeypatch.setattr(fuchsian, "_CHUNK", 1000)
    assert k_lower_bound(codes, octagon, rho) == whole


@pytest.mark.parametrize("cyclic", [True, False])
def test_enumerate_words_chunks_are_exact(monkeypatch, cyclic):
    whole = enumerate_words(6, cyclic)
    monkeypatch.setattr(fuchsian, "_CHUNK", 1000)
    np.testing.assert_array_equal(enumerate_words(6, cyclic), whole)


@lru_cache(maxsize=1)
def _words_up_to_4():
    return frozenset(words_from_codes(enumerate_words(4)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(LETTERS), max_size=5))
def test_word_reduction_properties(seq):
    w = Word(seq)
    assert all(b != a ^ 1 for a, b in zip(w.letters, w.letters[1:]))
    assert w * w.inverse() == Word()
    if 0 < len(w) <= 4 and len(w.cyclically_reduced()) == len(w):
        assert w in _words_up_to_4()


def test_rep_json_round_trip(octagon, tmp_path):
    from stretchlab.cli import _write_json

    path = tmp_path / "rep.json"
    _write_json(tmp_path, "rep.json", octagon.to_json())
    rep = fuchsian.rep_from_json_file(path)
    np.testing.assert_allclose(rep.generators, octagon.generators, atol=1e-15)
    data = json.loads(path.read_text())
    assert data["label"] == "sigma"
    assert len(data["generators"]) == 4


def test_rep_json_loader_reverifies(tmp_path):
    path = tmp_path / "bad.json"
    bad = {"generators": [np.eye(3).tolist()] * 4, "label": "x"}
    path.write_text(json.dumps(bad))
    with pytest.raises(ValueError):
        fuchsian.rep_from_json_file(path)


def test_octagon_model_side_pairings(octagon):
    mats = [octagon.evaluate(w) for w in PAIRING_WORDS]
    for k in range(8):
        g = mats[k]
        # side j runs from corner j-1 to corner j
        tail, head = OCTAGON_VERTICES[(k + 3) % 8], OCTAGON_VERTICES[(k + 4) % 8]
        tail2, head2 = OCTAGON_VERTICES[(k - 1) % 8], OCTAGON_VERTICES[k]
        # x_k maps side k+4 onto side k (as a set; endpoints swap orientation)
        got = {tuple(np.round(g @ tail, 8)), tuple(np.round(g @ head, 8))}
        want = {tuple(np.round(tail2, 8)), tuple(np.round(head2, 8))}
        assert got == want
    # pairing words invert each other
    for k in range(4):
        prod = mats[k] @ mats[k + 4]
        np.testing.assert_allclose(prod, np.eye(3), atol=1e-9)


@pytest.mark.parametrize("twisted", (False, True))
def test_pairing_images_are_the_evaluated_pairing_words(octagon, twisted):
    rep = twist(octagon, TwistSpec("a1", 0.5)) if twisted else octagon
    table = rep.pairing_images()
    assert table.shape == (8, 3, 3) and table.dtype == np.float64
    for k in range(4):
        assert np.array_equal(table[k], rep.evaluate(PAIRING_WORDS[k]))
        np.testing.assert_allclose(table[k + 4], rep.evaluate(PAIRING_WORDS[k + 4]), rtol=0, atol=1e-12)
