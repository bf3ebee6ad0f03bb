import hashlib
import json
import re
import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stretchlab import fuchsian
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
    translation_length,
)
from stretchlab.earthquake import TwistSpec, twist
from stretchlab.lorentz import hat, mink_dot, sharp_adj

from oracles import (
    B_STD,
    NHAT_STD,
    all_words_oracle,
    enumerate_words_oracle,
    exp_so21,
    free_words,
    killing,
    lie_from_frame_coords,
    octagon_generators_oracle,
    random_group_elem,
    stretch_ratio,
    traces_oracle,
    word_codes,
    words_from_codes,
)

# letter codes: 2 * generator + (exponent < 0)
LETTERS = list(range(8))


def k_lower_bound_oracle(words, sigma, rho):
    """Largest l_rho/l_sigma, each word multiplied out on its own in float64.

    Every word counts: conjugates agree only to the float64 noise of their
    products (~1e-11 relative for length-6 commutator words), so keeping one
    word per rounded (trace_sigma, trace_rho) pair would move the max.
    """
    sig = {2 * i: sigma.generator(n) for i, n in enumerate(fuchsian.GENERATOR_NAMES)}
    rh = {2 * i: rho.generator(n) for i, n in enumerate(fuchsian.GENERATOR_NAMES)}
    for c in range(0, 8, 2):
        sig[c + 1] = sharp_adj(sig[c])
        rh[c + 1] = sharp_adj(rh[c])
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
    # a caret with no exponent is not the bare letter
    with pytest.raises(fuchsian.WordError):
        Word.parse("a1^")


def test_octagon_table_is_the_50_digit_derivation(octagon):
    # the pinned 25-digit table parses to the derivation's longdouble bits
    want = octagon_generators_oracle()
    assert octagon._gen_ld.dtype == np.longdouble
    assert np.array_equal(octagon._gen_ld, want)
    assert np.array_equal(octagon.generators, want.astype(float))


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
    comm = a1 @ a2 @ sharp_adj(a1) @ sharp_adj(a2)
    assert np.linalg.norm(comm - np.eye(3)) > 0.1


def test_octagon_validate(octagon):
    octagon.validate()


def test_validate_rejects_nan_relator_residual(octagon):
    gens = octagon.generators.copy()
    gens[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="relator residual"):
        fuchsian.SurfaceGroupRep(gens, "nan").validate()


def test_evaluate_homomorphism(octagon, rng):
    words = free_words(3)
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
        translation_length(exp_so21(0.3 * NHAT_STD))


def test_translation_length_conjugation_invariant(octagon, rng):
    g = octagon.evaluate("a1 b2^-1")
    l = translation_length(g)
    for _ in range(10):
        h = random_group_elem(rng)
        assert translation_length(h @ g @ sharp_adj(h)) == pytest.approx(l, abs=1e-9)


def test_axis_generator_round_trip():
    b = axis_generator(exp_so21(3.0 * B_STD))
    np.testing.assert_allclose(hat(b), B_STD, atol=1e-12)
    g = exp_so21(2.2 * B_STD)
    np.testing.assert_allclose(exp_so21(translation_length(g) * hat(axis_generator(g))), g, atol=1e-9)


def test_axis_generator_properties(octagon, rng):
    for name in fuchsian.GENERATOR_NAMES:
        g = octagon.generator(name)
        b = axis_generator(g)
        assert mink_dot(b, b) == pytest.approx(1.0, abs=1e-12)
        assert killing(hat(b), hat(b)) == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(g @ b, b, atol=1e-10)
        np.testing.assert_allclose(exp_so21(translation_length(g) * hat(b)), g, atol=1e-9)
    # equivariance under conjugation
    g = octagon.generator("b1")
    h = random_group_elem(rng)
    np.testing.assert_allclose(axis_generator(h @ g @ sharp_adj(h)), h @ axis_generator(g), atol=1e-9)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.floats(-3.0, 3.0)] * 3), st.tuples(*[st.floats(-2.0, 2.0)] * 3))
def test_axis_generator_is_ad_equivariant(g_coords, h_coords):
    # g = exp(A), A = (b, a, z) in frame coordinates, hyperbolic with
    # translation length sqrt(b^2 + a^2 - z^2) >= 0.1; h any exp of so(2,1)
    b, a, z = g_coords
    assume(b * b + a * a - z * z >= 1e-2)
    g, h = exp_so21(lie_from_frame_coords(*g_coords)), exp_so21(lie_from_frame_coords(*h_coords))
    conj = h @ g @ sharp_adj(h)
    err = np.abs(axis_generator(conj) - h @ axis_generator(g)).max()
    # g - g# = 2 sinh(l) hat(b) loses the rounding of conj over sinh(l), and
    # conj's two products with h round like |h|^2
    scale = np.abs(h).max() ** 2 * np.abs(conj).max() / np.sinh(translation_length(g))
    assert err <= 1e-11 * scale


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
    # the all-words array oracle, which the class tests below reduce: freely
    # reduced words of length 2 are all cyclically reduced, 8 * 7
    assert len(all_words_oracle(1)) == 8
    w2 = words_from_codes(all_words_oracle(2))
    assert len([w for w in w2 if len(w) == 2]) == 56
    # length 3: freely reduced 8*7*7, minus the 8*6 with last = first^-1
    w3 = [w for w in words_from_codes(all_words_oracle(3)) if len(w) == 3]
    assert len(w3) == 8 * 7 * 7 - 8 * 6
    for max_len in range(1, 6):
        got = words_from_codes(all_words_oracle(max_len))
        want = enumerate_words_oracle(max_len)
        assert len(got) == len(set(got))
        # depth-first order restricted to one length is lexicographic
        assert got == sorted(want, key=len)
    assert len(all_words_oracle(0)) == 0
    assert enumerate_words(0).shape == (0, 0)


@lru_cache(maxsize=1)
def _classes_up_to_6():
    """The least rotation of each oracle word and of its inverse, once each,
    sorted within each length: the rows enumerate_words(6) should return."""
    least = {min(w.cyclic_variants()) for w in words_from_codes(all_words_oracle(6))}
    return [Word(w) for w in sorted(least, key=lambda w: (len(w), w))]


@pytest.mark.parametrize("max_len", range(1, 7))
def test_enumerate_words_is_one_word_per_class(max_len):
    want = [w for w in _classes_up_to_6() if len(w) <= max_len]
    codes = enumerate_words(max_len)
    assert codes.dtype == np.int8 and codes.shape == (len(want), max_len)
    np.testing.assert_array_equal(codes, word_codes(want)[:, :max_len])
    assert len(codes) == [4, 20, 80, 390, 2074, 11918][max_len - 1]


def test_enumerate_words_length_9_rows_and_memory():
    # the 2,673,114 classes of length <= 9 (a 24 MB result) are pinned by
    # their hash; no growth chunk is alive and no full-length temporary is
    # made while they are decoded, so the traced peak is the growth phase's
    # own, 37.8 MB
    tracemalloc.start()
    try:
        codes = enumerate_words(9)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert codes.shape == (2673114, 9)
    assert hashlib.sha256(codes.tobytes()).hexdigest() == (
        "213fc8fa1e5e37ff7b4b5eec49a8ef08d4737df2711f4f216f4d8c6da0d93faa")
    assert peak_mb <= 40.0


def test_enumerate_words_length_one_is_the_generators():
    assert words_from_codes(enumerate_words(1)) == [Word.parse(n) for n in fuchsian.GENERATOR_NAMES]


@pytest.mark.parametrize("curve", fuchsian.GENERATOR_NAMES)
def test_k_lower_bound_matches_word_loop(octagon, curve):
    rho = twist(octagon, TwistSpec(curve, 0.5))
    words = words_from_codes(all_words_oracle(5))
    assert k_lower_bound(word_codes(words), octagon, rho) == pytest.approx(
        k_lower_bound_oracle(words, octagon, rho), rel=1e-12, abs=0
    )
    # one word at a time: the max over a list closed under reversal would
    # not see a product taken right to left
    for w in words[-40::7]:
        assert k_lower_bound(word_codes([w]), octagon, rho) == pytest.approx(
            k_lower_bound_oracle([w], octagon, rho), rel=1e-12, abs=0
        )


def test_k_lower_bound_skips_non_hyperbolic(octagon):
    rho = twist(octagon, TwistSpec("a1", 0.5))
    with pytest.warns(UserWarning, match="skipped 1 non-hyperbolic"):
        klb = k_lower_bound(word_codes([Word(), "b1", Word()]), octagon, rho)
    assert klb == stretch_ratio("b1", octagon, rho)
    with pytest.warns(UserWarning, match="skipped 1 non-hyperbolic"):
        assert k_lower_bound(word_codes([Word()]), octagon, rho) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert k_lower_bound(word_codes([]), octagon, rho) == 0.0


def test_k_lower_bound_skips_relator_rotations(octagon):
    # the identity in pi_1, but float64 products miss trace 3 by ~1e-8
    rho = twist(octagon, TwistSpec("a1", 0.5))
    rotations = [Word(v) for v in RELATOR.cyclic_variants()]
    assert len(set(rotations)) == 16
    with pytest.warns(UserWarning, match="non-hyperbolic"):
        assert k_lower_bound(word_codes(rotations), octagon, rho) == 0.0


def test_enumerate_words_codes_round_trip():
    for codes, n in ((all_words_oracle(6), 137280), (enumerate_words(6), 11918)):
        assert codes.dtype == np.int8 and codes.shape == (n, 6)
        np.testing.assert_array_equal(word_codes(words_from_codes(codes)), codes)


@pytest.mark.parametrize("curve, t", [("a1", 0.5), ("b1", 0.43), ("a2", 0.58), ("b2", 0.51)])
def test_k_lower_bound_over_classes_matches_all_words(octagon, curve, t):
    # a class's words differ only by the float64 noise of their products
    rho = twist(octagon, TwistSpec(curve, t))
    every = k_lower_bound(all_words_oracle(6), octagon, rho)
    assert k_lower_bound(enumerate_words(6), octagon, rho) == pytest.approx(every, rel=2e-10, abs=0)


def test_k_lower_bound_length_8_skips_only_the_relator(octagon):
    # the 16 rotations of the relator and its inverse are one class
    rho = twist(octagon, TwistSpec("a1", 0.5))
    with pytest.warns(UserWarning) as caught:
        k_lower_bound(enumerate_words(8), octagon, rho)
    assert [str(w.message) for w in caught] == [f"k_lower_bound skipped 1 non-hyperbolic words (shortest: {RELATOR})"]


def test_k_lower_bound_chunks_are_exact(octagon, monkeypatch):
    rho = twist(octagon, TwistSpec("b2", 0.5))
    codes = all_words_oracle(5)
    whole = k_lower_bound(codes, octagon, rho)
    monkeypatch.setattr(fuchsian, "_CHUNK", 1000)
    assert k_lower_bound(codes, octagon, rho) == whole


@lru_cache(maxsize=1)
def _trace_inputs():
    """Code arrays that share prefixes in every way that _traces must handle."""
    rng = np.random.default_rng(5)
    words = all_words_oracle(4)
    mixed = word_codes(["a1 b1", "a1 b1 a2", "a1", Word(), "a1 b1", "b2^-1 a1 b1", "a1 b1 a2 b2", "a1 b1 a2"])
    return {
        "sorted": words,
        "shuffled": words[rng.permutation(len(words))],
        "repeated": np.repeat(words[::37], 3, axis=0),
        "mixed lengths": mixed,
        "mixed lengths shuffled": np.concatenate([mixed, words[rng.permutation(len(words))[:300]]]),
        "one column": word_codes(["a1", "a1"]),
        "one column of PAD": word_codes([Word(), Word()]),
        "one row": words[-1:],
        "PAD inside a row": np.array([[0, fuchsian.PAD, 2, 5], [0, fuchsian.PAD, 2, fuchsian.PAD]], dtype=np.int8),
    }


@pytest.mark.parametrize("name", list(_trace_inputs()))
def test_traces_share_prefixes_exactly(name):
    # integer matrices multiply exactly in float64, so sharing prefixes and
    # reading the last letter from the GEMM must give the oracle's every bit
    tables = np.random.default_rng(1).integers(-2, 3, size=(2, 9, 3, 3)).astype(float)
    tables[:, fuchsian.PAD] = np.eye(3)
    codes = _trace_inputs()[name]
    got = fuchsian._traces(tables, codes)
    assert got.shape == (2, len(codes))
    for table, row in zip(tables, got):
        np.testing.assert_array_equal(row, traces_oracle(table, codes))


@pytest.mark.parametrize("name", ["shuffled", "repeated", "mixed lengths shuffled", "one column", "one row"])
def test_traces_match_row_by_row_products(octagon, name):
    rho = twist(octagon, TwistSpec("b1", 0.5))
    codes = _trace_inputs()[name]
    tables = np.array([fuchsian._letter_table(rep) for rep in (octagon, rho)])
    for table, row in zip(tables, fuchsian._traces(tables, codes)):
        np.testing.assert_allclose(row, traces_oracle(table, codes), rtol=1e-12, atol=0)


@pytest.mark.parametrize("chunk", [fuchsian._CHUNK, 1000])
def test_traces_of_two_tables_equal_one_table_calls(octagon, monkeypatch, chunk):
    # the runs are found once for the stack, and each table's products are
    # those of a call with that table alone, chunked as k_lower_bound chunks
    monkeypatch.setattr(fuchsian, "_CHUNK", chunk)
    rho = twist(octagon, TwistSpec("b1", 0.5))
    tables = np.array([fuchsian._letter_table(rep) for rep in (octagon, rho)])
    codes = enumerate_words(6)
    for start in range(0, len(codes), fuchsian._CHUNK):
        part = codes[start : start + fuchsian._CHUNK]
        alone = np.concatenate([fuchsian._traces(table[None], part) for table in tables])
        assert np.array_equal(fuchsian._traces(tables, part), alone)


def test_k_lower_bound_runs_straddle_chunks(octagon, monkeypatch):
    # chunks of 10 split the runs of seven words that share a prefix
    rho = twist(octagon, TwistSpec("a2", 0.5))
    codes = all_words_oracle(4)
    whole = k_lower_bound(codes, octagon, rho)
    monkeypatch.setattr(fuchsian, "_CHUNK", 10)
    assert k_lower_bound(codes, octagon, rho) == whole
    assert whole == pytest.approx(k_lower_bound_oracle(words_from_codes(codes), octagon, rho), rel=1e-12, abs=0)


def test_k_lower_bound_names_shortest_skipped_words(octagon, monkeypatch):
    # the names are the shortest over all chunks, ties in code order; the
    # relator squared comes before rotations[1] in code order, not in length
    rho = twist(octagon, TwistSpec("a1", 0.5))
    rotations = sorted({Word(v) for v in RELATOR.cyclic_variants()}, key=lambda w: w.letters)
    assert rotations[0] == RELATOR
    monkeypatch.setattr(fuchsian, "_CHUNK", 3)
    names = ", ".join(map(str, [Word(), *rotations[1:3]]))
    with pytest.warns(UserWarning, match=rf"skipped \d+ non-hyperbolic words \(shortest: {re.escape(names)}\)$"):
        k_lower_bound(word_codes([RELATOR * RELATOR, *rotations[:0:-1], "a1", Word(), Word()]), octagon, rho)


def test_enumerate_words_chunks_are_exact(monkeypatch):
    whole = enumerate_words(6), all_words_oracle(6)
    for chunk in (1000, 7, 1):
        monkeypatch.setattr(fuchsian, "_CHUNK", chunk)
        np.testing.assert_array_equal(enumerate_words(6), whole[0])
    monkeypatch.setattr(fuchsian, "_CHUNK", 1000)
    np.testing.assert_array_equal(all_words_oracle(6), whole[1])


@lru_cache(maxsize=1)
def _words_up_to_4():
    return frozenset(words_from_codes(all_words_oracle(4)))


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
