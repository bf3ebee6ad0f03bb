"""Genus-2 surface group words and an explicit Fuchsian representation.

The representation is built from the regular hyperbolic octagon with vertex
angle pi/4 (all eight corners glue to one point, total angle 2pi).  The eight
side-pairing maps are the translations x_k = R_k T R_k^-1, k = 0..7, where T
translates by l8 = 2 arccosh(cot pi/8) along the x-axis and R_k rotates by
k pi/4 about the apex; opposite sides are identified (x_{k+4} = x_k^-1) and
the corner cycle gives the relation x1 x2^-1 x3 x0 x1^-1 x2 x3^-1 x0^-1 = I.

A standard generating set with the commutator relator [a1,b1][a2,b2] = I is
the word assignment

    a1 = x0,  b1 = x3,  a2 = x3 x0 x1^-1,  b2 = x1 x2^-1,

four elements of translation length l8 (found by exhaustive search over
short words of systole trace; they form a homology basis, hence generate the
whole group).  Generator matrices are computed once at 50-digit precision and
rounded, and words are evaluated with extended-precision accumulation so that
the relator residual sits at ~1e-12, well below the 1e-9 invariant.

The octagon's geometry is constant: OCTAGON_VERTICES holds its eight
corners, and PAIRING_WORDS the side pairings as words in the generators, x_k
at index k and x_k^-1 at k + 4.  Each rep's pairing_images() is the one
(8, 3, 3) table of their images; the mesh, its cocycle extraction and the
solver currents cross the paired sides through it and evaluate no pairing
word themselves.

A letter is an int code, the only letter format in the package:
code = 2 * generator + (exponent < 0), in the order a1, a1^-1, b1, b1^-1,
a2, a2^-1, b2, b2^-1, so the inverse of a code is code ^ 1.  A Word stores a
tuple of codes, and each rep builds one table of its eight letter images,
indexed by code, that words, cocycles and the word search multiply out.  A
list of words is an (n, width) int8 array of codes, each row right-padded
with PAD, the code of the identity; a row without its PAD is the letters of
a Word.  k_lower_bound evaluates the rows in chunks of _CHUNK, with one
batched matmul per column, so only the int8 array grows with the number of
words.
"""

from __future__ import annotations

import functools
import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import lorentz
from .lorentz import sharp_adj

GENERATOR_NAMES = ("a1", "b1", "a2", "b2")

RELATOR_TOL = 1e-9
HYPERBOLIC_TRACE_TOL = 1e-10
# k_lower_bound skips words with cosh(l_sigma) - 1 at or below this floor as
# trivial in pi_1: relator rotations miss the identity by float64 noise up to
# 1.1e-8 (measured in sigma and three twists), while the smallest genuine
# value over all words up to length 7 is cosh(l8) - 1 = 9.657, l8 the systole.
TRIVIAL_COSH_FLOOR = 1e-6

# translation length of the octagon side-pairing translations
OCTAGON_LENGTH = 2.0 * np.arccosh(1.0 / np.tan(np.pi / 8.0))
# the octagon's corners: corner j at angle (2j+1) pi/8 and circumradius
# arccosh(cot^2 pi/8); side j runs from corner j-1 to corner j
_CIRCUMRADIUS = np.arccosh(1.0 / np.tan(np.pi / 8.0) ** 2)
OCTAGON_VERTICES = np.array([
    [np.sinh(_CIRCUMRADIUS) * np.cos(a), np.sinh(_CIRCUMRADIUS) * np.sin(a), np.cosh(_CIRCUMRADIUS)]
    for a in ((2 * j + 1) * np.pi / 8 for j in range(8))
])

# letter names, indexed by code
_LETTER_NAMES = tuple(n + e for n in GENERATOR_NAMES for e in ("", "^-1"))
# each letter as a word in the eight octagon translations (x_k is k, x_k^-1
# is k + 4), indexed by code: a1 = x0, b1 = x3, a2 = x3 x0 x1^-1, b2 = x1 x2^-1
LETTER_X_WORDS = ((0,), (4,), (3,), (7,), (3, 0, 5), (1, 4, 7), (1, 6), (2, 5))
# the inverse change of basis, x0 = a1, x1 = a2^-1 b1 a1,
# x2 = b2^-1 a2^-1 b1 a1, x3 = b1: the words of PAIRING_WORDS
_X_GENERATOR_WORDS = (
    "a1",
    "a2^-1 b1 a1",
    "b2^-1 a2^-1 b1 a1",
    "b1",
)


class NonHyperbolicError(ValueError):
    """Raised when a group element is not of hyperbolic type."""


class WordError(ValueError):
    """Raised on malformed word strings."""


class Word:
    """Freely reduced word in the generators a1, b1, a2, b2.

    Stored as a tuple of letter codes (see the module docstring);
    construction cancels each code that meets its inverse.  Parsed from
    strings like "a1", "b1^-1 a2" or "a1.b1^-1" (separators: whitespace,
    '.', '*').
    """

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        out = []
        for c in map(int, letters):
            if out and out[-1] == c ^ 1:
                out.pop()
            else:
                out.append(c)
        self.letters = tuple(out)

    @classmethod
    def parse(cls, text: str) -> "Word":
        letters = []
        for tok in text.replace(".", " ").replace("*", " ").split():
            name, _, exp = tok.partition("^")
            if name not in GENERATOR_NAMES:
                raise WordError(f"unknown generator {name!r} in word {text!r}")
            if exp in ("", "1", "+1"):
                inverse = 0
            elif exp == "-1":
                inverse = 1
            else:
                raise WordError(f"unsupported exponent {exp!r} in word {text!r}")
            letters.append(2 * GENERATOR_NAMES.index(name) + inverse)
        return cls(letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(c ^ 1 for c in reversed(self.letters))

    def cyclically_reduced(self) -> "Word":
        letters = self.letters
        while len(letters) >= 2 and letters[0] == letters[-1] ^ 1:
            letters = letters[1:-1]
        return Word(letters)

    def cyclic_variants(self):
        """All rotations of the word and of its inverse (conjugacy tests)."""
        for w in (self.letters, self.inverse().letters):
            for i in range(max(len(w), 1)):
                yield w[i:] + w[:i]

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __str__(self):
        if not self.letters:
            return "<id>"
        return " ".join(_LETTER_NAMES[c] for c in self.letters)

    def __repr__(self):
        return f"Word({str(self)!r})"


RELATOR = Word.parse("a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1")

# the side pairings in the generators: x_k at index k maps side k+4 onto
# side k, and x_k^-1 at index k + 4 (the index convention of LETTER_X_WORDS)
_X_WORDS = tuple(Word.parse(w) for w in _X_GENERATOR_WORDS)
PAIRING_WORDS = _X_WORDS + tuple(w.inverse() for w in _X_WORDS)

# the code that pads short words; it stands for the identity
PAD = 8
# _NEXT[c]: the seven codes that may follow c in a freely reduced word
_NEXT = np.array([[d for d in range(8) if d != c ^ 1] for c in range(8)], dtype=np.int8)
# rows per batched evaluation in k_lower_bound
_CHUNK = 1 << 16


@dataclass
class SurfaceGroupRep:
    """Four generator matrices in SO+(2,1) with the genus-2 relator.

    generators: array (4, 3, 3), ordered a1, b1, a2, b2; exposed in float64.
    label: role tag ("sigma", "rho", ...).

    Internally the matrices are kept in extended precision (longdouble):
    the relator's partial products reach entry size ~1.5e3, so a rep stored
    in bare float64 cannot certify the 1e-9 relator-residual invariant.
    Construction from a longdouble array preserves it; construction from
    float64 upcasts (and inherits whatever residual that data has).
    letter_table (8, 3, 3), longdouble: the image of each letter, indexed by
    code (g and sharp_adj(g) = g^-1 for each generator).
    """

    generators: np.ndarray
    label: str = "sigma"

    def __post_init__(self):
        arr = np.asarray(self.generators)
        if arr.shape != (4, 3, 3):
            raise ValueError("expected four 3x3 generator matrices")
        self._gen_ld = arr.astype(np.longdouble)
        self.generators = arr.astype(float)
        self.letter_table = np.array([m for g in self._gen_ld for m in (g, sharp_adj(g))])

    def generator(self, name: str) -> np.ndarray:
        return self.generators[GENERATOR_NAMES.index(name)]

    def generator_ld(self, name: str) -> np.ndarray:
        return self._gen_ld[GENERATOR_NAMES.index(name)]

    def evaluate_ld(self, word) -> np.ndarray:
        """Image of a word, accumulated and returned in extended precision."""
        m = np.eye(3, dtype=np.longdouble)
        for c in as_word(word).letters:
            m = m @ self.letter_table[c]
        return m

    def evaluate(self, word) -> np.ndarray:
        return self.evaluate_ld(word).astype(float)

    def pairing_images(self) -> np.ndarray:
        """(8, 3, 3) float64 images of the pairing letters:
        evaluate(PAIRING_WORDS[k]) at k < 4 and its group inverse at k + 4."""
        xs = [self.evaluate(w) for w in PAIRING_WORDS[:4]]
        return np.array([*xs, *map(lorentz.group_inv, xs)])

    def relator_residual(self) -> float:
        r = self.evaluate_ld(RELATOR) - np.eye(3, dtype=np.longdouble)
        return float(np.sqrt((r * r).sum()))

    def validate(self, tol: float = RELATOR_TOL):
        res = self.relator_residual()
        if res > tol:
            raise ValueError(f"relator residual {res:.3e} exceeds {tol:.1e}")
        for n, g in zip(GENERATOR_NAMES, self.generators):
            if not lorentz.is_group_elem(g):
                raise ValueError(f"generator {n} is not in SO+(2,1)")
            if np.trace(g) <= 3.0 + HYPERBOLIC_TRACE_TOL:
                raise ValueError(f"generator {n} is not hyperbolic")
        return self

    def with_label(self, label: str) -> "SurfaceGroupRep":
        return SurfaceGroupRep(self._gen_ld.copy(), label)

    def to_json(self) -> dict:
        # generators: plain float64 arrays (the documented interface);
        # generators_ext: full-precision decimal strings so that round-trips
        # preserve the relator residual.
        return {
            "generators": [g.tolist() for g in self.generators],
            "generators_ext": [
                [[_ld_str(x) for x in row] for row in g] for g in self._gen_ld
            ],
            "label": self.label,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SurfaceGroupRep":
        if "generators_ext" in data:
            arr = np.array(
                [[[np.longdouble(x) for x in row] for row in g] for g in data["generators_ext"]],
                dtype=np.longdouble,
            )
        else:
            arr = np.array(data["generators"], dtype=float)
        rep = cls(arr, data.get("label", "sigma"))
        return rep.validate()


def _ld_str(x) -> str:
    return np.format_float_scientific(x, precision=25)


def as_word(word) -> Word:
    if isinstance(word, Word):
        return word
    if isinstance(word, str):
        return Word.parse(word)
    raise WordError(f"cannot interpret {word!r} as a word")


# ---------------------------------------------------------------------------
# the octagon representation
# ---------------------------------------------------------------------------

def _octagon_generators_exact() -> np.ndarray:
    """Generator matrices from 50-digit arithmetic, rounded to longdouble."""
    import mpmath as mp

    with mp.workdps(50):
        ell = 2 * mp.acosh(1 / mp.tan(mp.pi / 8))
        ch, sh = mp.cosh(ell), mp.sinh(ell)
        trans = mp.matrix([[ch, 0, sh], [0, 1, 0], [sh, 0, ch]])
        xs = []
        for k in range(8):
            th = k * mp.pi / 4
            rot = mp.matrix([[mp.cos(th), -mp.sin(th), 0], [mp.sin(th), mp.cos(th), 0], [0, 0, 1]])
            xs.append(rot * trans * rot.T)

        def ev(seq):
            m = mp.eye(3)
            for k in seq:
                m = m * xs[k]
            return m

        gens = [ev(w) for w in LETTER_X_WORDS[::2]]
        return np.array(
            [
                [[np.longdouble(mp.nstr(g[i, j], 25)) for j in range(3)] for i in range(3)]
                for g in gens
            ],
            dtype=np.longdouble,
        )


@functools.cache
def octagon_representation() -> SurfaceGroupRep:
    """The genus-2 octagon representation (see module docstring).

    All four generators are hyperbolic of translation length
    2 arccosh(cot pi/8) and the relator [a1,b1][a2,b2] evaluates to I within
    1e-9.  Construction failure is an assertion, not a recoverable error.
    """
    rep = SurfaceGroupRep(_octagon_generators_exact(), label="sigma")
    res = rep.relator_residual()
    assert res <= RELATOR_TOL, f"octagon relator residual {res:.3e}"
    for n in GENERATOR_NAMES:
        err = abs(translation_length(rep.generator(n)) - OCTAGON_LENGTH)
        assert err <= 1e-9, f"octagon generator {n} length off by {err:.3e}"
    return rep


# ---------------------------------------------------------------------------
# lengths, axes, stretch ratios
# ---------------------------------------------------------------------------

def translation_length(g: np.ndarray):
    """l with Tr g = 1 + 2 cosh l; raises NonHyperbolicError otherwise.

    Returns a numpy scalar in the input dtype (longdouble passes through).
    """
    c = (np.trace(g) - 1.0) / 2.0
    if float(c) <= 1.0 + HYPERBOLIC_TRACE_TOL / 2.0:
        kind = "parabolic" if abs(float(c) - 1.0) <= HYPERBOLIC_TRACE_TOL / 2.0 else "elliptic"
        raise NonHyperbolicError(f"element is {kind} (trace {2 * float(c) + 1:.6f})")
    return np.arccosh(c)


def axis_generator(g: np.ndarray) -> np.ndarray:
    """Killing-normalized generator B with exp(l B) = g, Ad(g) B = B.

    For hyperbolic g = exp(l B) the sharp-antisymmetrization kills the B^2
    part exactly: g - g# = 2 sinh(l) B.  The result is rescaled so that
    killing(B,B) = 2; the sign translates in the +B direction (exp(lB) = g
    with l > 0).  Input dtype is preserved.
    """
    l = translation_length(g)
    B = (g - sharp_adj(g)) / (2.0 * np.sinh(l))
    B = B * np.sqrt(2.0 / lorentz.killing(B, B))
    return B


def stretch_ratio(word, sigma: SurfaceGroupRep, rho: SurfaceGroupRep) -> float:
    """l_rho(word) / l_sigma(word); raises NonHyperbolicError if either fails."""
    w = as_word(word)
    return translation_length(rho.evaluate(w)) / translation_length(sigma.evaluate(w))


def enumerate_words(max_len: int, cyclically_reduced: bool = True) -> np.ndarray:
    """Freely (and optionally cyclically) reduced nonempty words up to max_len.

    Returns an (n, max_len) int8 array of letter codes, shorter words padded
    with PAD.  The words come length by length; within one length they are
    in lexicographic order of their codes (a1 < a1^-1 < b1 < ... < b2^-1).
    Each length repeats every free word of the previous one seven times and
    appends the seven codes that do not cancel its last letter, _CHUNK
    words of the previous length at a time; a word is cyclically reduced
    when its first code is not the inverse of its last.  Kept rows go
    straight into the result, preallocated from powers of the letter
    transition matrix, so only one length's free words are held beside it.
    """
    if max_len == 0:
        return np.empty((0, 0), dtype=np.int8)
    step = 1 - np.eye(8, dtype=np.int64)[np.arange(8) ^ 1]  # step[c, d]: d may follow c
    ends = step.astype(bool) if cyclically_reduced else np.ones((8, 8), dtype=bool)
    counts = [int(np.linalg.matrix_power(step, n - 1)[ends].sum()) for n in range(1, max_len + 1)]
    out = np.full((sum(counts), max_len), PAD, dtype=np.int8)
    free = np.arange(8, dtype=np.int8)[:, None]
    out[:8, :1] = free
    row = 8
    for length in range(2, max_len + 1):
        # the free words of this length, kept only when a longer length needs them
        grown = np.empty((7 * len(free), length), dtype=np.int8) if length < max_len else None
        for start in range(0, len(free), _CHUNK):
            parents = free[start : start + _CHUNK]
            words = np.column_stack([np.repeat(parents, 7, axis=0), _NEXT[parents[:, -1]].ravel()])
            if grown is not None:
                grown[7 * start : 7 * start + len(words)] = words
            if cyclically_reduced:
                words = words[words[:, 0] != words[:, -1] ^ 1]
            out[row : row + len(words), :length] = words
            row += len(words)
        free = grown
    return out


def word_codes(words) -> np.ndarray:
    """Letter codes of a list of words or word strings, right-padded with PAD
    to the longest word; an empty word is one row of PAD (width at least 1)."""
    letters = [as_word(w).letters for w in words]
    codes = np.full((len(letters), max([1, *map(len, letters)])), PAD, dtype=np.int8)
    for row, word in zip(codes, letters):
        row[: len(word)] = word
    return codes


def _letter_table(rep: SurfaceGroupRep) -> np.ndarray:
    """(9, 3, 3) float64 images of the letters, indexed by code; PAD is I."""
    return np.array([*rep.letter_table.astype(float), np.eye(3)])


def _traces(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Traces of the products of table[codes[i]], multiplied left to right."""
    m = table[codes[:, 0]]
    for j in range(1, codes.shape[1]):
        m = m @ table[codes[:, j]]
    return m[:, 0, 0] + m[:, 1, 1] + m[:, 2, 2]


def k_lower_bound(words, sigma: SurfaceGroupRep, rho: SurfaceGroupRep) -> float:
    """max over the words of l_rho/l_sigma: a lower bound for K up to rounding.

    words: a letter-code array (enumerate_words) or a list of words or
    strings.  Rows are multiplied out in float64, _CHUNK at a time, with one
    batched matmul per column; PAD multiplies by an exact identity.
    Conjugates are not merged, and float64 noise lifts the max up to 1.2e-10
    relative above the true ratio at length 6 (2.7e-10 at length 8).
    Words trivial in sigma (TRIVIAL_COSH_FLOOR) or not hyperbolic in either
    rep are skipped; the warning counts the distinct skipped (trace_sigma,
    trace_rho) pairs, rounded to 9 decimals.
    """
    codes = words if isinstance(words, np.ndarray) else word_codes(words)
    tables = _letter_table(sigma), _letter_table(rho)

    best = 0.0
    skipped = set()
    for start in range(0, len(codes), _CHUNK):
        tr_s, tr_r = (_traces(table, codes[start : start + _CHUNK]) for table in tables)
        c_s, c_r = (tr_s - 1.0) / 2.0, (tr_r - 1.0) / 2.0
        ok = (c_s > 1.0 + TRIVIAL_COSH_FLOOR) & (c_r > 1.0 + HYPERBOLIC_TRACE_TOL / 2.0)
        best = max(best, float(np.max(np.arccosh(c_r[ok]) / np.arccosh(c_s[ok]), initial=0.0)))
        skipped.update((round(a, 9), round(b, 9)) for a, b in zip(tr_s[~ok].tolist(), tr_r[~ok].tolist()))
    if skipped:
        warnings.warn(f"k_lower_bound skipped {len(skipped)} non-hyperbolic words")
    return best


def rep_from_json_file(path) -> SurfaceGroupRep:
    with open(path) as fh:
        return SurfaceGroupRep.from_json(json.load(fh))
