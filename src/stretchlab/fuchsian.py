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
whole group).  Generator matrices are a table of 25-digit decimals, derived
at 50-digit precision and checked against that derivation in
tests/oracles.py, and words are evaluated with extended-precision
accumulation so that the relator residual sits at ~1e-12, well below the
1e-9 invariant.

The octagon's geometry is constant: OCTAGON_VERTICES holds its eight
corners, and PAIRING_WORDS the side pairings as words in the generators, x_k
at index k and x_k^-1 at k + 4.  Each rep's pairing_images() is the one
(8, 3, 3) table of their images; the mesh and the solver currents cross
the paired sides through it and evaluate no pairing word themselves.

A letter is an int code, the only letter format in the package:
code = 2 * generator + (exponent < 0), in the order a1, a1^-1, b1, b1^-1,
a2, a2^-1, b2, b2^-1, so the inverse of a code is code ^ 1.  A Word stores a
tuple of codes, and each rep builds one table of its eight letter images,
indexed by code, that words, cocycles and the word search multiply out.  A
list of words is an (n, width) int8 array of codes, each row right-padded
with PAD, the code of the identity; a row without its PAD is the letters of
a Word.  k_lower_bound evaluates the rows in chunks of _CHUNK, with one
batched matmul per distinct prefix and one GEMM for the last letters, the
prefix runs of a chunk found once for both reps, so only the int8 array
grows with the number of words.
"""

from __future__ import annotations

import functools
import json
import os
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
# the octagon translations in the generators, the inverse of the module
# docstring's word assignment: x0 = a1, x1 = a2^-1 b1 a1,
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


class RepFileError(ValueError):
    """Raised when a rep file cannot be read as four 3x3 generators."""


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
            name, caret, exp = tok.partition("^")
            if name not in GENERATOR_NAMES:
                raise WordError(f"unknown generator {name!r} in word {text!r}")
            # "a1^" has an empty exponent, which is not the absent one of "a1"
            if not caret or exp in ("1", "+1"):
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
# side k, and x_k^-1 at index k + 4
_X_WORDS = tuple(Word.parse(w) for w in _X_GENERATOR_WORDS)
PAIRING_WORDS = _X_WORDS + tuple(w.inverse() for w in _X_WORDS)

# the code that pads short words; it stands for the identity
PAD = 8
# parents per batch in enumerate_words, rows per batch in k_lower_bound
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
    label: str

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
        return np.array([*xs, *map(sharp_adj, xs)])

    def relator_residual(self) -> float:
        r = self.evaluate_ld(RELATOR) - np.eye(3, dtype=np.longdouble)
        return float(np.sqrt((r * r).sum()))

    def validate(self):
        res = self.relator_residual()
        if not res <= RELATOR_TOL:  # NaN fails too
            raise ValueError(f"relator residual {res:.3e} exceeds {RELATOR_TOL:.1e}")
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
        """The rep of to_json's data, not yet validated.  It reads
        generators_ext (decimal strings) if present, else generators (JSON
        numbers); entries of another type (null, true, a number as a string)
        or non-finite values raise RepFileError."""
        ext = "generators_ext" in data
        entries = np.array(data["generators_ext" if ext else "generators"], dtype=object)
        kinds = (str,) if ext else (int, float)  # type(True) is bool, not int
        if entries.shape != (4, 3, 3) or any(type(x) not in kinds for x in entries.flat):
            raise RepFileError(
                f"expected four 3x3 generators of {'decimal strings' if ext else 'numbers'}"
            )
        arr = _parse_ld(entries) if ext else entries.astype(float)
        if not np.isfinite(arr).all():
            raise RepFileError("generator entries must be finite")
        return cls(arr, data.get("label", "sigma"))


def _ld_str(x) -> str:
    return np.format_float_scientific(x, precision=25)


def _parse_ld(generators) -> np.ndarray:
    """Nested decimal strings, four 3x3 blocks, as a longdouble array."""
    return np.array(
        [[[np.longdouble(x) for x in row] for row in g] for g in generators], dtype=np.longdouble
    )


def as_word(word) -> Word:
    if isinstance(word, Word):
        return word
    if isinstance(word, str):
        return Word.parse(word)
    raise WordError(f"cannot interpret {word!r} as a word")


# ---------------------------------------------------------------------------
# the octagon representation
# ---------------------------------------------------------------------------

# the generators a1, b1, a2, b2 as 25-digit decimals: the products of the
# module docstring's words in the octagon translations x_k, in 50-digit
# arithmetic, rounded (tests/oracles.py derives them and pins this table to
# the derivation)
_OCTAGON_GENERATORS = (
    (
        ("10.65685424949238019520675", "0.0", "10.60983234999138909353584"),
        ("0.0", "1.0", "0.0"),
        ("10.60983234999138909353584", "0.0", "10.65685424949238019520675"),
    ),
    (
        ("5.828427124746190097603377", "-4.828427124746190097603377", "-7.502284401931314478847523"),
        ("-4.828427124746190097603377", "5.828427124746190097603377", "7.502284401931314478847523"),
        ("-7.502284401931314478847523", "7.502284401931314478847523", "10.65685424949238019520675"),
    ),
    (
        ("10.65685424949238019520675", "23.31370849898476039041351", "-25.61440115385401805123089"),
        ("-23.31370849898476039041351", "-45.62741699796952078082702", "51.22880230770803610246177"),
        ("-25.61440115385401805123089", "-51.22880230770803610246177", "57.28427124746190097603377"),
    ),
    (
        ("5.828427124746190097603377", "-28.14213562373095048801689", "28.7219491019140926659192"),
        ("4.828427124746190097603377", "-17.48528137423857029281013", "18.11211675192270357238336"),
        ("7.502284401931314478847523", "-33.11668555578533253007841", "33.97056274847714058562026"),
    ),
)


@functools.cache
def octagon_representation() -> SurfaceGroupRep:
    """The genus-2 octagon representation (see module docstring).

    All four generators are hyperbolic of translation length
    2 arccosh(cot pi/8) and the relator [a1,b1][a2,b2] evaluates to I within
    1e-9.  Construction failure is an assertion, not a recoverable error.
    """
    rep = SurfaceGroupRep(_parse_ld(_OCTAGON_GENERATORS), label="sigma")
    res = rep.relator_residual()
    assert res <= RELATOR_TOL, f"octagon relator residual {res:.3e}"
    for n in GENERATOR_NAMES:
        err = abs(translation_length(rep.generator(n)) - OCTAGON_LENGTH)
        assert err <= 1e-9, f"octagon generator {n} length off by {err:.3e}"
    return rep


# ---------------------------------------------------------------------------
# lengths, axes and the K lower bound
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
    """The unit spacelike axis vector b of hyperbolic g: g b = b, (b, b)# = 1
    and exp(l hat(b)) = g, l the translation length (so g translates in the
    +b direction).

    For g = exp(l hat(b)) the sharp-antisymmetrization kills the hat(b)^2
    part exactly: g - g# = 2 sinh(l) hat(b), whose components are read off.
    b is normalized from its own components, in the input dtype (longdouble
    passes through).
    """
    b = np.array([g[1, 2] + g[2, 1], -(g[0, 2] + g[2, 0]), g[0, 1] - g[1, 0]])
    b = b / (2.0 * np.sinh(translation_length(g)))
    return b * np.sqrt(1.0 / (b[0] * b[0] + b[1] * b[1] - b[2] * b[2]))


def enumerate_words(max_len: int) -> np.ndarray:
    """One word per closed curve up to max_len letters: per conjugacy class
    of cyclically reduced words, a class and its inverse's taken as one, its
    least rotation in code order of a word or of its inverse.

    Returns an (n, max_len) int8 array of letter codes, shorter words padded
    with PAD, length by length and lexicographic within one length (a1 <
    a1^-1 < b1 < ... < b2^-1).  The rows grow as prenecklaces (Ruskey,
    Savage & Wang, J. Algorithms 13, 1992), _CHUNK parents at a time: one of
    length n and period p takes each code d >= a[n - p] that does not cancel
    its last, with period p if d == a[n - p] and n + 1 otherwise.  It is a
    row when p divides n (a necklace), its first code does not cancel its
    last and its codes, packed 3 bits each, are at most every rotation of
    its inverse's.
    """
    codes = np.arange(8, dtype=np.int32)

    def classes(n, key, inv, period):
        ok = (n % period == 0) & (key >> 3 * (n - 1) != (key & 7) ^ 1)
        for r in range(1, n + 1):  # the inverse rotated left by r
            ok &= key <= ((inv & (1 << 3 * (n - r)) - 1) << 3 * r | inv >> 3 * (n - r))
        return n, key[ok]

    def grow(n, layer, last):
        """The classes of length n + 1 grown from `layer`, the prenecklaces of
        length n, and the prenecklaces of length n + 1 unless `last`; every
        chunk's arrays are freed on return."""
        kept, grown = [], []
        for start in range(0, len(layer[0]), _CHUNK):
            key, inv, period = (a[start : start + _CHUNK] for a in layer)
            ref = key >> 3 * (period - 1) & 7  # a[n - p]
            rows, d = np.nonzero((codes >= ref[:, None]) & (codes != (key[:, None] & 7) ^ 1))
            d = d.astype(np.int32)
            child = key[rows] << 3 | d, inv[rows] | (d ^ 1) << 3 * n, np.where(d == ref[rows], period[rows], n + 1)
            kept.append(classes(n + 1, *child))
            if not last:  # a longer length grows from this one
                grown.append(child)
        return kept, [np.concatenate(a) for a in zip(*grown)] if grown else None

    layer = codes, codes ^ 1, np.ones(8, dtype=np.int8)
    kept = [classes(1, *layer)] if max_len else []
    for n in range(1, max_len):
        found, layer = grow(n, layer, n + 1 == max_len)
        kept += found
    out = np.full((sum(len(key) for _, key in kept), max_len), PAD, dtype=np.int8)
    row = 0
    for n, key in kept:
        # decoded _CHUNK keys at a time, so that no full-length temporary is made
        for start in range(0, len(key), _CHUNK):
            part = key[start : start + _CHUNK]
            for j in range(n):
                out[row : row + len(part), j] = part >> 3 * (n - 1 - j) & 7
            row += len(part)
    return out


def _letter_table(rep: SurfaceGroupRep) -> np.ndarray:
    """(9, 3, 3) float64 images of the letters, indexed by code; PAD is I."""
    return np.array([*rep.letter_table.astype(float), np.eye(3)])


def _traces(tables: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Traces of the products of table[codes[i]], multiplied left to right,
    for each table of the stack `tables` (k, 9, 3, 3): a (k, n) array, one
    row of traces per table.

    Rows are grouped by length (trailing PAD cut off, at least one column),
    and each group is evaluated at its own width, so padding costs no
    products.  Within a group, a row whose first j codes equal the previous
    row's shares its j-letter prefix product: a "prefix changed" mask, OR-ed
    column by column, marks the row that starts each run of a shared
    prefix, and P_{j+1} = P_j[parent] @ table[code] is computed once per
    run.  The last letter is read off one GEMM: tr(P g_c) = sum_ij P_ij
    (g_c)_ji gives all nine codes at once as (runs, 9) @ (9, 9), gathered
    at each row's run and last code.  The runs, their parents and the
    gather depend on the codes only, so they are found once per group and
    replayed for every table, each table's products in the same order as
    on its own.  Rows sorted within each length share the most: the
    length-6 rows of enumerate_words, one per class, take 0.27 prefix
    products each (0.19 over every word); any order gives the same traces.
    """
    lasts = [table.transpose(0, 2, 1).reshape(len(table), 9).T for table in tables]
    width = codes.shape[1]
    # each row's length: the width less its trailing PAD, at least 1
    lengths = np.full(len(codes), width)
    padded = np.ones(len(codes), dtype=bool)
    for j in range(width - 1, 0, -1):
        padded &= codes[:, j] == PAD
        lengths -= padded
    out = np.empty((len(tables), len(codes)))
    for length in np.flatnonzero(np.bincount(lengths)).tolist():
        rows = np.flatnonzero(lengths == length)
        if rows[-1] - rows[0] == len(rows) - 1:  # one block: a view, no copy
            rows = slice(rows[0], rows[-1] + 1)
        group = codes[rows, :length]
        if length == 1:
            for table, row in zip(tables, out):
                row[rows] = np.trace(table, axis1=1, axis2=2)[group[:, 0]]
            continue
        new = np.empty(len(group), dtype=bool)
        new[0] = True
        new[1:] = group[1:, 0] != group[:-1, 0]
        starts = np.flatnonzero(new)
        first = group[starts, 0]
        steps = []  # per column j >= 1: each run's parent run and its code
        for j in range(1, length - 1):
            new[1:] |= group[1:, j] != group[:-1, j]
            # each new run's parent: the last run of column j - 1 starting at or before it
            parents, starts = starts, np.flatnonzero(new)
            steps.append((np.searchsorted(parents, starts, side="right") - 1, group[starts, j]))
        gather = np.cumsum(new) - 1, group[:, -1]
        for table, last, row in zip(tables, lasts, out):
            prod = table[first]
            for parent, code in steps:
                prod = prod[parent] @ table[code]
            row[rows] = (prod.reshape(-1, 9) @ last)[gather]
    return out


def k_lower_bound(codes: np.ndarray, sigma: SurfaceGroupRep, rho: SurfaceGroupRep) -> float:
    """max over the words of l_rho/l_sigma: a lower bound for K up to rounding.

    codes: an (n, width) int8 letter-code array as enumerate_words returns,
    shorter words padded with PAD.  Rows are multiplied out in float64,
    _CHUNK at a time, by one _traces call per chunk for the stack of both
    reps' letter tables: the chunk's prefix runs are found once, then each
    rep takes one product per distinct prefix and one GEMM for the last
    letter.  Over enumerate_words' rows, one per class,
    float64 noise lifts the max 2e-13 to 4.9e-11 relative above the true
    ratio at length 6 (five twists), 3.9e-11 at length 8 and 4.8e-10 at
    length 9 (on a1, t=0.5).  Words trivial in sigma (TRIVIAL_COSH_FLOOR)
    or not hyperbolic in either rep are skipped; the warning counts the
    distinct skipped (trace_sigma, trace_rho) pairs, rounded to 9 decimals,
    and names up to three skipped words, the shortest first.
    """
    tables = np.array([_letter_table(sigma), _letter_table(rho)])

    best = 0.0
    skipped = set()
    shortest = []  # the shortest distinct skipped words, as code tuples
    for start in range(0, len(codes), _CHUNK):
        chunk = codes[start : start + _CHUNK]
        tr_s, tr_r = _traces(tables, chunk)
        c_s, c_r = (tr_s - 1.0) / 2.0, (tr_r - 1.0) / 2.0
        ok = (c_s > 1.0 + TRIVIAL_COSH_FLOOR) & (c_r > 1.0 + HYPERBOLIC_TRACE_TOL / 2.0)
        best = max(best, float(np.max(np.arccosh(c_r[ok]) / np.arccosh(c_s[ok]), initial=0.0)))
        if not ok.all():
            skipped.update((round(a, 9), round(b, 9)) for a, b in zip(tr_s[~ok].tolist(), tr_r[~ok].tolist()))
            bad = {tuple(c for c in row if c != PAD) for row in chunk[~ok].tolist()}
            shortest = sorted(bad.union(shortest), key=lambda w: (len(w), w))[:3]
    if skipped:
        names = ", ".join(str(Word(w)) for w in shortest)
        warnings.warn(f"k_lower_bound skipped {len(skipped)} non-hyperbolic words (shortest: {names})")
    return best


def rep_from_json_file(path) -> SurfaceGroupRep:
    """The validated rep of a to_json file.  A path that is not a string or
    path object, a file that cannot be read or parsed, or JSON without four
    3x3 real generators raises RepFileError; a rep that fails validate()
    raises its ValueError."""
    if not isinstance(path, (str, os.PathLike)):
        raise RepFileError(f"rep file must be a path, got {path!r}")
    try:
        with open(path) as fh:
            rep = SurfaceGroupRep.from_json(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise RepFileError(f"cannot read a rep from {path!r}: {exc}") from exc
    return rep.validate()
