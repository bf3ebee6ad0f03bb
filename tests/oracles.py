"""Independent reference computations that the tests compare the library
with, helpers that only the tests use, and the cylinder rig: a second energy
with a closed-form minimizer that checks `pharmonic._descend`."""

import functools
from dataclasses import dataclass

import numpy as np

from stretchlab import fuchsian, lorentz
from stretchlab.cli import FD_STEP, MAX_ITER, TOL
from stretchlab.cocycle import Cocycle, compose, evaluate_cocycle
from stretchlab.earthquake import TwistSpec, twist
from stretchlab.fuchsian import (
    GENERATOR_NAMES,
    OCTAGON_VERTICES,
    PAD,
    PAIRING_WORDS,
    RELATOR,
    SurfaceGroupRep,
    Word,
    as_word,
    axis_generator,
    octagon_representation,
    translation_length,
)
from stretchlab.lorentz import (
    E_SHARP,
    X0,
    hat,
    log_map,
    mink_cross_vec,
    mink_dot,
    sharp_adj,
)
from stretchlab.lamination import LieValuedMeasure
from stretchlab.mesh import DiscreteOneForm, FundamentalMesh, MeshError, _edge_ids, _midpoint, _triangle_wedges
from stretchlab.pharmonic import (
    SIGN,
    SIGN3,
    _check_p,
    _Context,
    _csum,
    _descend,
    _energy_and_grad,
    _f_log,
    _grad_from_metric,
    _jacobi,
    _power_block,
    _retract,
    _riemannian_grad,
    _rotation,
    _schatten_curvature,
    check_schedule,
)


def killing(A: np.ndarray, B: np.ndarray):
    """Killing form (A,B)# = Tr AB of so(2,1) matrices, the matrix reference
    for the library's 2 (v, w)# on vectors (Tr(hat(v) hat(w)) = 2 (v, w)#).

    Returns a numpy scalar in the common dtype of the inputs.
    """
    return np.tensordot(A, B.T, axes=2)


# the general so(2,1) exponential, via the cubic identity A^3 = k A with
# k = Tr(A^2)/2; the package only exponentiates along a unit axis
# (`lorentz.exp_axis`)

# the exponential sums its series below |k| = 1, where cosh w - 1 and
# 1 - cos w cancel (to a relative error of 1e-8 at |k| = 1e-8)
EXP_SERIES_CUTOFF = 1.0


def _exp_coeffs(k):
    """f1, f2 with exp(A) = I + f1 A + f2 A^2 for A^3 = k A (dtype-preserving)."""
    if abs(k) < EXP_SERIES_CUTOFF:
        # f1 = sum k^n / (2n+1)!, f2 = sum k^n / (2n+2)! through k^9, nested;
        # the remainder is below 1e-19
        f1 = f2 = 1.0
        for n in range(9, 0, -1):
            f1 = 1.0 + k / ((2 * n) * (2 * n + 1)) * f1
            f2 = 1.0 + k / ((2 * n + 1) * (2 * n + 2)) * f2
        f2 = 0.5 * f2
    elif k > 0:
        w = np.sqrt(k)
        f1 = np.sinh(w) / w
        f2 = (np.cosh(w) - 1.0) / k
    else:
        w = np.sqrt(-k)
        f1 = np.sin(w) / w
        f2 = (1.0 - np.cos(w)) / (-k)
    return f1, f2


def exp_so21(A: np.ndarray) -> np.ndarray:
    """Matrix exponential on so(2,1) via the cubic identity A^3 = kA.

    k = Tr(A^2)/2 selects the series in k (|k| < EXP_SERIES_CUTOFF) or the
    hyperbolic (k > 0) or elliptic (k < 0) closed form.  The input dtype
    (e.g. longdouble) is preserved.
    """
    A2 = A @ A
    k = 0.5 * np.trace(A2)
    f1, f2 = _exp_coeffs(k)
    return np.eye(3, dtype=A.dtype) + f1 * A + f2 * A2


def exp_series_oracle(A: np.ndarray, terms: int = 30) -> np.ndarray:
    """Plain power-series exponential of a 3x3 matrix."""
    out = np.eye(3)
    term = np.eye(3)
    for n in range(1, terms + 1):
        term = term @ A / n
        out = out + term
    return out


# the lorentz helpers that only the tests use: the standard frame at X0,
# the hyperboloid and axis tests, the tangent projection, the logarithm and
# the adapted frames

# the axis through X0 in the y-direction:
# B_STD generates the unit-speed geodesic t -> (0, sinh t, cosh t).
B_STD = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
BPERP_STD = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
NHAT_STD = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

# tolerances of the hyperboloid and axis tests
ATOL = 1e-10
AXIS_TOL = 1e-8


class FrameError(ValueError):
    """Raised when (B, X) do not describe a unit-speed axis through X."""


def is_on_hyperboloid(X: np.ndarray, tol: float = ATOL) -> bool:
    return abs(mink_dot(X, X) + 1.0) <= tol and X[2] >= 1.0 - tol


def project_tangent(X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Orthogonal projection Pi(X) v = v + (v,X)# X onto T_X H.

    X must lie on the hyperboloid.
    """
    if not is_on_hyperboloid(X):
        raise ValueError("projection base point is not on the hyperboloid")
    return v + mink_dot(v, X) * X


def log_so21(g: np.ndarray) -> np.ndarray:
    """Inverse of exp_so21 on SO+(2,1).

    Writes g = I + f1(k) A + f2(k) A^2 and recovers A = (g - g#)/(2 f1).  The
    branch is read off c = (Tr g - 1)/2 (= cosh length, cos angle, or 1);
    round-trips to 1e-10 away from rotations by ~pi where f1 vanishes.
    """
    c = (float(np.trace(g)) - 1.0) / 2.0
    m = 0.5 * (g - sharp_adj(g))
    if c > 1.0 + 1e-12:
        w = np.arccosh(c)
        f1 = np.sinh(w) / w
    elif c < 1.0 - 1e-12:
        w = np.arccos(max(c, -1.0))
        s = np.sin(w)
        if abs(s) < 1e-6:
            raise ValueError("log near a rotation by pi is not supported")
        f1 = s / w
    else:
        # near-identity / parabolic: k from the trace, then the f1 series
        k = float(np.trace(g)) - 3.0
        f1 = 1.0 + k / 6.0 + k * k / 120.0
    return m / f1


def frame_at(B: np.ndarray, X: np.ndarray):
    """Frame (B, Bperp, nhat) of so(2,1) adapted to the axis of B through X.

    B must be a hyperbolic generator with killing(B,B) = 2 whose axis passes
    through X (equivalently B^2 X = X); then B X is the unit tangent along the
    axis, Bperp = (the 90-degree rotated tangent) x X and nhat = Bperp B - B Bperp
    spans the Killing-negative direction.  The Gram matrix is diag(2, 2, -2).
    """
    if abs(killing(B, B) - 2.0) > AXIS_TOL:
        raise FrameError("generator is not killing-normalized to (B,B)# = 2")
    if not is_on_hyperboloid(X, max(AXIS_TOL, ATOL)):
        raise FrameError("frame base point is not on the hyperboloid")
    if float(np.abs(B @ B @ X - X).max()) > AXIS_TOL:
        raise FrameError("base point is not on the axis of B")
    t = B @ X  # unit tangent along the axis
    n_vec = mink_cross_vec(t, X)  # in-plane unit normal (tangent rotated by -90)
    Bp = cross(n_vec, X)
    nh = Bp @ B - B @ Bp
    return B, Bp, nh


def frame_invariance_defect(
    A: np.ndarray, B: np.ndarray, X: np.ndarray, t: float
) -> float:
    """Norm of the non-tangential part of A transported along the axis of B.

    Returns |M - (M X) x X| with M = e^{tB} A e^{-tB} (transport along the
    positive flow direction), which in the frame
    coordinates A = b B + a Bperp + z nhat equals sqrt2 |z cosh t - a sinh t|;
    identically zero over t iff a = z = 0, i.e. dw = b B delta(s) ds.

    The defect matrix is a multiple of the frame's nhat, so its magnitude is
    measured by the Killing norm sqrt|(D,D)#| (equal to the Frobenius norm in
    the standard frame and Ad-invariant, so the closed form holds along any
    axis, not just the standard one).
    """
    frame_at(B, X)  # validates the (B, X) frame data
    g = exp_so21(t * B)
    M = g @ A @ sharp_adj(g)
    D = M - cross(M @ X, X)
    return float(np.sqrt(abs(killing(D, D))))


# the geodesics, axis points, random draws and helpers that only the tests use


def geodesic(X: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """Unit-speed geodesic cosh(t) X + sinh(t) v = exp(t v x X) X.

    Requires (X,X)# = -1, (v,v)# = 1, (v,X)# = 0.
    """
    if not is_on_hyperboloid(X):
        raise ValueError("geodesic base point is not on the hyperboloid")
    if abs(mink_dot(v, v) - 1.0) > ATOL or abs(mink_dot(v, X)) > ATOL:
        raise ValueError("geodesic direction is not a unit tangent at X")
    return np.cosh(t) * X + np.sinh(t) * v


def axis_point(B: np.ndarray) -> np.ndarray:
    """A point on the axis of a hyperbolic generator B (killing(B,B) = 2).

    The axis is the hyperboloid trace of the +1-eigenplane of B^2; the
    timelike direction in that nullspace of (B^2 - I) is extracted by
    diagonalizing the restricted form.
    """
    if abs(killing(B, B) - 2.0) > AXIS_TOL:
        raise FrameError("generator is not killing-normalized to (B,B)# = 2")
    M = B @ B - np.eye(3)
    _, s, vt = np.linalg.svd(M)
    null = vt[s < max(AXIS_TOL, s[0] * 1e-9)]
    if null.shape[0] != 2:
        raise FrameError("axis eigenplane is not two-dimensional")
    u, w = null
    # restricted Gram of (,)# on span{u, w}; its negative eigenvector is timelike
    G = np.array([[mink_dot(u, u), mink_dot(u, w)], [mink_dot(w, u), mink_dot(w, w)]])
    evals, evecs = np.linalg.eigh(G)
    if evals[0] >= 0:
        raise FrameError("no timelike direction in the axis plane")
    X = evecs[0, 0] * u + evecs[1, 0] * w
    return lorentz.normalize_to_hyperboloid(X)


def cross(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Lie-algebra-valued cross product X x Y = Y X# - X Y#.

    Broadcasts over leading axes: (..., 3) vectors give (..., 3, 3) values.
    The library keeps so(2,1) values as vectors: this is
    hat(mink_cross_vec(X, Y)).
    """
    sign = E_SHARP.diagonal()
    out = Y[..., :, None] * (X * sign)[..., None, :]
    out -= X[..., :, None] * (Y * sign)[..., None, :]
    return out


def vee(A: np.ndarray) -> np.ndarray:
    """The R^{2,1} vector of the so(2,1) matrix A, the inverse of lorentz.hat.

    Broadcasts over leading axes: (..., 3, 3) gives (..., 3).
    """
    return np.stack([A[..., 1, 2], -A[..., 0, 2], A[..., 0, 1]], axis=-1)


def lie_from_frame_coords(b: float, a: float, z: float) -> np.ndarray:
    """A = b B_STD + a BPERP_STD + z NHAT_STD."""
    return b * B_STD + a * BPERP_STD + z * NHAT_STD


def random_lie_alg(rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random so(2,1) element, uniform frame coordinates in [-scale, scale]."""
    b, a, z = rng.uniform(-scale, scale, size=3)
    return lie_from_frame_coords(b, a, z)


def random_group_elem(rng: np.random.Generator) -> np.ndarray:
    return exp_so21(random_lie_alg(rng))


def random_tangent(rng: np.random.Generator, X: np.ndarray) -> np.ndarray:
    """Random unit tangent vector at X."""
    v = project_tangent(X, rng.standard_normal(3))
    return v / np.sqrt(mink_dot(v, v))


def hyperbolic_distance(X: np.ndarray, Y: np.ndarray) -> float:
    return float(np.arccosh(max(-mink_dot(X, Y), 1.0)))


# each letter as a word in the eight octagon translations (x_k is k, x_k^-1
# is k + 4), indexed by code: a1 = x0, b1 = x3, a2 = x3 x0 x1^-1, b2 = x1 x2^-1
LETTER_X_WORDS = ((0,), (4,), (3,), (7,), (3, 0, 5), (1, 4, 7), (1, 6), (2, 5))


def octagon_generators_oracle() -> np.ndarray:
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


def zero_cocycle(rep: SurfaceGroupRep) -> Cocycle:
    return Cocycle(rep, np.zeros((4, 3)))


# the self-checks that Cocycle and LieValuedMeasure once carried: relator
# tangency, and the unit Killing norm and Ad-invariance of each atom

RELATOR_TANGENCY_TOL = 1e-8
KILLING_NORM_TOL = 1e-9  # an atom generator B has |2 (B, B)# - 2| <= this


def relator_tangency(alpha: Cocycle) -> float:
    """Euclidean norm of the vector alpha(relator); <= tol iff alpha is a
    valid cocycle.

    Algebraically exact cocycles report the rounding of the extended-precision
    evaluation, not 0: the relator's prefixes reach operator norm ~1e3, and
    the unit-weight earthquake cocycles of the octagon and of its twist along
    a1 by 0.5 report at most 8.3e-15.
    """
    r = evaluate_cocycle(Cocycle(alpha.rep, alpha.values.astype(np.longdouble)), RELATOR)
    return float(np.sqrt((r * r).sum()))


def validate_cocycle(alpha: Cocycle) -> Cocycle:
    res = relator_tangency(alpha)
    if res > RELATOR_TANGENCY_TOL:
        raise ValueError(f"relator tangency {res:.3e} exceeds {RELATOR_TANGENCY_TOL:.1e}")
    return alpha


def validate_measure(m: LieValuedMeasure) -> LieValuedMeasure:
    for at in m.atoms:
        if abs(2.0 * mink_dot(at.generator, at.generator) - 2.0) > KILLING_NORM_TOL:
            raise ValueError("atom generator is not killing-normalized")
        # g fixes only the multiples of its axis vector, so a normalized
        # B is Ad-invariant iff it is +-axis_generator(g); its tilt off
        # that axis, relative to the axis, keeps its resolution at every
        # word length, where the drift |g B - B| rounds like max|g|
        axis = axis_generator(m.rep.evaluate(at.word))
        tilt = min(np.abs(at.generator - axis).max(), np.abs(at.generator + axis).max())
        if tilt > 1e-8 * np.abs(axis).max():
            raise ValueError("atom generator is not Ad-invariant along its curve")
    return m


def stretch_ratio(word, sigma: SurfaceGroupRep, rho: SurfaceGroupRep) -> float:
    """l_rho(word) / l_sigma(word); raises NonHyperbolicError if either fails."""
    w = as_word(word)
    return translation_length(rho.evaluate(w)) / translation_length(sigma.evaluate(w))


def word_codes(words) -> np.ndarray:
    """Letter codes of a list of words or word strings, right-padded with PAD
    to the longest word; an empty word is one row of PAD (width at least 1)."""
    letters = [as_word(w).letters for w in words]
    codes = np.full((len(letters), max([1, *map(len, letters)])), PAD, dtype=np.int8)
    for row, word in zip(codes, letters):
        row[: len(word)] = word
    return codes


def words_from_codes(codes: np.ndarray) -> list:
    """The Words spelled by the rows of a letter-code array, PAD dropped."""
    return [Word(c for c in row if c != PAD) for row in codes.tolist()]


def traces_oracle(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Trace of the product of table[row] for each row of a code array, every
    row multiplied out on its own from its first letter: no prefix shared."""
    out = []
    for row in codes.tolist():
        m = np.eye(3)
        for c in row:
            m = m @ table[c]
        out.append(np.trace(m))
    return np.array(out)


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
        for c in range(8):
            if seq and seq[-1] == c ^ 1:
                continue
            rec(seq + [c])

    rec([])
    return out


def free_words(max_len: int) -> list:
    """Every freely reduced nonempty word up to max_len, length by length and
    in lexicographic order of the letter codes within one length."""
    return sorted(enumerate_words_oracle(max_len, cyclically_reduced=False), key=lambda w: (len(w), w.letters))


# _NEXT[c]: the seven codes that may follow c in a freely reduced word
_NEXT = np.array([[d for d in range(8) if d != c ^ 1] for c in range(8)], dtype=np.int8)


def all_words_oracle(max_len: int) -> np.ndarray:
    """Every cyclically reduced nonempty word up to max_len, in the format of
    `fuchsian.enumerate_words`: every rotation of every word and of its
    inverse, where enumerate_words keeps one word per class.

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
    # cyclically reduced: the pair (first, last) is one that step allows
    counts = [int((np.linalg.matrix_power(step, n - 1) * step).sum()) for n in range(1, max_len + 1)]
    out = np.full((sum(counts), max_len), PAD, dtype=np.int8)
    free = np.arange(8, dtype=np.int8)[:, None]
    out[:8, :1] = free
    row = 8
    for length in range(2, max_len + 1):
        # the free words of this length, kept only when a longer length needs them
        grown = np.empty((7 * len(free), length), dtype=np.int8) if length < max_len else None
        for start in range(0, len(free), fuchsian._CHUNK):
            parents = free[start : start + fuchsian._CHUNK]
            words = np.column_stack([np.repeat(parents, 7, axis=0), _NEXT[parents[:, -1]].ravel()])
            if grown is not None:
                grown[7 * start : 7 * start + len(words)] = words
            words = words[words[:, 0] != words[:, -1] ^ 1]
            out[row : row + len(words), :length] = words
            row += len(words)
        free = grown
    return out


def form_from_edge_function(mesh: FundamentalMesh, fn) -> DiscreteOneForm:
    """Build a form from the so(2,1) matrices fn(i, j) evaluated on canonical
    edge orientations, stored as their vectors."""
    return DiscreteOneForm(mesh, vee(np.array([fn(int(i), int(j)) for i, j in mesh.edges], dtype=float)))


def differentiate_family(
    family,
    rep: SurfaceGroupRep | None = None,
    step: float = FD_STEP,
    s0: float = 0.0,
) -> Cocycle:
    """Central-difference cocycle of a representation family s -> rep.

    alpha(g) = (d/ds sigma_s(g)) sigma(g)^-1 at s = s0, a matrix projected
    onto so(2,1) and stored as its vector; the result satisfies relator
    tangency up to the finite-difference floor (~1e-6 for the default step).
    The sampled family members must satisfy the rep invariants.
    """
    if rep is None:
        rep = family(s0)
    plus = family(s0 + step).validate()
    minus = family(s0 - step).validate()
    vals = []
    for n in GENERATOR_NAMES:
        d = (plus.generator(n) - minus.generator(n)) / (2.0 * step)
        a = d @ sharp_adj(rep.generator(n))
        a = 0.5 * (a - sharp_adj(a))  # project to so(2,1)
        vals.append(a - np.trace(a) / 3.0 * np.eye(3))
    return Cocycle(rep, vee(np.array(vals)))


def finite_difference_cocycle(rep: SurfaceGroupRep, curve: str, weight: float = 1.0, step: float = FD_STEP) -> Cocycle:
    """differentiate_family applied to the exact twist family."""
    return differentiate_family(lambda t: twist(rep, TwistSpec(curve, weight * t)), rep, step)


# the random search over admissible test forms that
# lamination.mass_by_duality ran before it returned the optimal form's
# pairing in closed form: sample 0 is that form, phi = B_i


def admissible_pairings(m, n_samples: int, n_quad: int, rng: np.random.Generator) -> np.ndarray:
    """dw(phi) for sample 0, phi = B_i, and n_samples random admissible forms.

    Test data along each curve are forms phi(t) = b(t) B_i + a(t) Bperp_i(t)
    with pointwise b^2 + a^2 <= 1, i.e. largest singular value <= sqrt2,
    integrated by the n_quad-point midpoint rule.
    """
    # per-atom frames along the curve, computed once: for killing-normalized
    # B the exponential is exactly I + sinh(t) B + (cosh(t)-1) B^2
    frames = []
    for at in m.atoms:
        B = hat(at.generator)
        X = axis_point(B)
        _, Bp0, _ = frame_at(B, X)
        l = float(at.length)
        ts = (np.arange(n_quad) + 0.5) * (l / n_quad)
        B2 = B @ B
        gt = (
            np.eye(3)[None]
            + np.sinh(ts)[:, None, None] * B[None]
            + (np.cosh(ts) - 1.0)[:, None, None] * B2[None]
        )
        gti = np.einsum("ab,tbc,cd->tad", lorentz.E_SHARP, gt.transpose(0, 2, 1), lorentz.E_SHARP)
        Bp_t = gt @ Bp0[None] @ gti
        frames.append((at, B, l, ts, Bp_t))

    totals = []
    for sample in range(n_samples + 1):
        total = 0.0
        for at, B, l, ts, Bp_t in frames:
            if sample == 0:
                bs = np.ones(n_quad)
                as_ = np.zeros(n_quad)
            else:
                # periodic coefficient functions, clipped into the admissible disc
                ks = rng.integers(1, 4, size=2)
                c = rng.uniform(-1.0, 1.0, size=4)
                bs = c[0] + c[1] * np.cos(2 * np.pi * ks[0] * ts / l)
                as_ = c[2] * np.sin(2 * np.pi * ks[1] * ts / l) + c[3]
                r = np.sqrt(bs**2 + as_**2)
                scale = np.where(r > 1.0, 1.0 / np.maximum(r, 1e-30), 1.0)
                bs, as_ = bs * scale, as_ * scale
            phi = bs[:, None, None] * B[None] + as_[:, None, None] * Bp_t
            vals = np.einsum("tab,ba->t", phi, B)
            total += at.weight * float(vals.sum()) * (l / n_quad)
        totals.append(total)
    return np.array(totals)


class ZeroFormDraws:
    """Draws for admissible_pairings under which every random form is phi = 0."""

    def integers(self, low, high, size):
        return np.full(size, low)

    def uniform(self, low, high, size):
        return np.zeros(size)


# the per-triangle geometry loop and the boundary twin search that
# build_octagon_mesh used before its array code


def _triangle_angles(X1, X2, X3):
    out = []
    for A, B, C in ((X1, X2, X3), (X2, X3, X1), (X3, X1, X2)):
        u, v = log_map(A, B), log_map(A, C)
        cu = mink_dot(u, v) / np.sqrt(mink_dot(u, u) * mink_dot(v, v))
        out.append(float(np.arccos(np.clip(cu, -1.0, 1.0))))
    return out


def _circumcenter(X1, X2, X3):
    """Hyperbolic circumcenter: the timelike direction orthogonal to the
    chordal edge vectors; falls back to the normalized barycenter for
    obtuse/degenerate data."""
    w = mink_cross_vec(X2 - X1, X3 - X1)
    q = mink_dot(w, w)
    if q < 0:
        return lorentz.normalize_to_hyperboloid(w)
    return lorentz.normalize_to_hyperboloid((X1 + X2 + X3) / 3.0)


def mesh_geometry_oracle(vertices: np.ndarray, triangles: np.ndarray) -> dict:
    """Per-triangle loop over the corners of every triangle."""
    nt = len(triangles)
    areas = np.empty(nt)
    chord_areas = np.empty(nt)
    circum = np.empty((nt, 3))
    frames = np.empty((nt, 2, 3))
    tri_coords = np.empty((nt, 3, 2))
    tri_dxinv = np.empty((nt, 2, 2))
    min_angle = np.inf
    for t, (i, j, k) in enumerate(triangles):
        X1, X2, X3 = vertices[i], vertices[j], vertices[k]
        ang = _triangle_angles(X1, X2, X3)
        min_angle = min(min_angle, *ang)
        areas[t] = np.pi - sum(ang)
        u, w = X2 - X1, X3 - X1
        G = np.array([[mink_dot(u, u), mink_dot(u, w)], [mink_dot(w, u), mink_dot(w, w)]])
        chord_areas[t] = 0.5 * np.sqrt(max(np.linalg.det(G), 0.0))
        C = _circumcenter(X1, X2, X3)
        circum[t] = C
        E1 = log_map(C, X1)
        E1 = E1 / np.sqrt(mink_dot(E1, E1))
        E2 = mink_cross_vec(C, E1)  # +90 degrees: (E1, E2) positively oriented
        frames[t] = [E1, E2]
        for c, X in enumerate((X1, X2, X3)):
            v = log_map(C, X)
            tri_coords[t, c] = [mink_dot(v, E1), mink_dot(v, E2)]
        D = np.column_stack([tri_coords[t, 1] - tri_coords[t, 0], tri_coords[t, 2] - tri_coords[t, 0]])
        assert np.linalg.det(D) > 0, "triangle chart coordinates are not positively oriented"
        tri_dxinv[t] = np.linalg.inv(D)
    return {
        "areas": areas, "chord_areas": chord_areas, "circumcenters": circum, "frames": frames,
        "tri_coords": tri_coords, "tri_dxinv": tri_dxinv, "min_angle": float(np.degrees(min_angle)),
    }


def boundary_pairs_oracle(vertices: np.ndarray, chains: list, match_tol: float = 1e-9) -> list:
    """Twin search: the vertex of side k within match_tol of x_k applied to each
    vertex of side k+4, as (u, v, k)."""
    sigma = octagon_representation()
    boundary_pairs = []
    for k in range(4):
        g = sigma.evaluate(PAIRING_WORDS[k])
        targets = {u: vertices[u] for u in chains[k]}
        for u in chains[(k + 4) % 8]:
            img = g @ vertices[u]
            match = None
            for v, pos in targets.items():
                if np.abs(img - pos).max() <= match_tol:
                    match = v
                    break
            assert match is not None, f"no twin on side {k} for boundary vertex {u}"
            boundary_pairs.append((u, match, k))
    return boundary_pairs


def edge_twins_oracle(boundary_pairs: list, chains: list, edge_ids) -> list:
    """Per pairing k: (edge ids on side k+4, their twin ids on side k, signs);
    edge_ids(a, b) returns the id of edge {a, b} first."""
    twin_vertex = {}
    for u, v, k in boundary_pairs:
        twin_vertex.setdefault(k, {})[u] = v  # side k+4 -> side k
    out = []
    for k in range(4):
        chain = chains[(k + 4) % 8]
        far, near, sign = [], [], []
        for a, b in zip(chain, chain[1:]):
            ta, tb = twin_vertex[k][a], twin_vertex[k][b]
            far.append(int(edge_ids(a, b)[0]))
            near.append(int(edge_ids(ta, tb)[0]))
            sign.append(1.0 if (a < b) == (ta < tb) else -1.0)
        out.append((np.array(far), np.array(near), np.array(sign)))
    return out


# the dict subdivision, the setdefault edge numbering and the Word union-find
# that build_octagon_mesh used before its array code


class _UnionFind:
    """Union-find whose edges carry words: pos(i) = sigma(word_i) pos(root)."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.word = [Word() for _ in range(n)]

    def find(self, i):
        if self.parent[i] == i:
            return i, self.word[i]
        root, w = self.find(self.parent[i])
        self.parent[i] = root
        self.word[i] = self.word[i] * w
        return root, self.word[i]

    def union(self, i, j, w_ij):
        """Declare pos(i) = sigma(w_ij) pos(j)."""
        ri, wi = self.find(i)
        rj, wj = self.find(j)
        if ri == rj:
            return
        # pos(ri) = sigma(wi^-1 w_ij wj) pos(rj)
        self.parent[ri] = rj
        self.word[ri] = wi.inverse() * w_ij * wj


def mesh_topology_oracle(level: int) -> dict:
    """Fan-triangulated octagon refined `level` times, one triangle at a time."""
    verts = [np.array([0.0, 0.0, 1.0])] + [OCTAGON_VERTICES[j] for j in range(8)]
    corners = list(range(1, 9))
    tris = [(0, corners[(j - 1) % 8], corners[j]) for j in range(8)]
    chains = [[corners[(j - 1) % 8], corners[j]] for j in range(8)]

    for _ in range(level):
        mid = {}

        def midpoint_index(i, j):
            key = (min(i, j), max(i, j))
            if key not in mid:
                verts.append(_midpoint(verts[i], verts[j]))
                mid[key] = len(verts) - 1
            return mid[key]

        new_tris = []
        for (i, j, k) in tris:
            a, b, c = midpoint_index(i, j), midpoint_index(j, k), midpoint_index(k, i)
            new_tris.extend([(i, a, c), (a, j, b), (c, b, k), (a, b, c)])
        tris = new_tris
        chains = [
            [x for pair in zip(ch, ch[1:]) for x in (pair[0], midpoint_index(*pair))] + [ch[-1]]
            for ch in chains
        ]

    vertices = np.array(verts)
    triangles = np.array(tris, dtype=int)
    nt = len(triangles)

    edge_index = {}
    tri_edges = np.empty((nt, 3), dtype=int)
    for t, (i, j, k) in enumerate(triangles):
        for s, (a, b) in enumerate(((i, j), (j, k), (k, i))):
            tri_edges[t, s] = edge_index.setdefault((min(a, b), max(a, b)), len(edge_index))
    edges = np.array(sorted(edge_index, key=edge_index.get), dtype=int)
    tri_edge_sign = np.where(triangles < np.roll(triangles, -1, axis=1), 1.0, -1.0)

    uf = _UnionFind(len(verts))
    for k in range(4):
        w_inv = PAIRING_WORDS[k + 4]  # word of x_k^-1
        far, near = chains[k + 4], chains[k][::-1]
        for u, v in zip(far, near):
            uf.union(u, v, w_inv)  # pos(u) = sigma(x_k^-1) pos(v)

    roots = {}
    vertex_class = np.empty(len(verts), dtype=int)
    vertex_lift = [None] * len(verts)
    for i in range(len(verts)):
        root, w = uf.find(i)
        if root not in roots:
            roots[root] = len(roots)
        vertex_class[i] = roots[root]
        vertex_lift[i] = w
    class_rep_vertex = np.empty(len(roots), dtype=int)
    for root, cid in roots.items():
        class_rep_vertex[cid] = root
    return {
        "vertices": vertices, "triangles": triangles, "side_chains": np.array(chains), "edges": edges,
        "tri_edges": tri_edges, "tri_edge_sign": tri_edge_sign, "vertex_class": vertex_class,
        "class_rep_vertex": class_rep_vertex, "vertex_lift": vertex_lift,
    }


@functools.cache
def side_chains_oracle(level: int) -> np.ndarray:
    """(8, m) ordered vertex ids along the octagon's sides, side j from
    corner j-1 to corner j: mesh_topology_oracle's, whose numbering is the
    mesh's."""
    return mesh_topology_oracle(level)["side_chains"]


# the per-row fallback loop that pharmonic._retract used before its array code


@np.errstate(invalid="ignore", divide="ignore", over="ignore")
def retract_oracle(Z: np.ndarray, step: np.ndarray) -> np.ndarray:
    N = Z - step
    q = -(N[:, 0] ** 2 + N[:, 1] ** 2 - N[:, 2] ** 2)
    bad = ~(q >= 0.25)  # catches NaN/inf trial steps as well
    if bad.any():
        # exact exponential step where the normalization would leave the
        # sheet; clamp absurd trial steps (they get rejected by Armijo)
        for i in np.nonzero(bad)[0]:
            v = -step[i]
            if not np.isfinite(v).all():
                N[i] = Z[i]
                continue
            nv = np.sqrt(max(mink_dot(v, v), 1e-300))
            s = min(nv, 20.0)
            N[i] = np.cosh(s) * Z[i] + np.sinh(s) * v / nv
        q = -(N[:, 0] ** 2 + N[:, 1] ** 2 - N[:, 2] ** 2)
    return N / np.sqrt(q)[:, None]


# the fused Newton power-sum recurrence with derivatives in (tr, det) that
# pharmonic ran before the complete homogeneous recurrence


def newton_power_oracle(t, d, half_p, want_grads=False):
    """p_k = tr(M^k) via p_k = t p_{k-1} - d p_{k-2}; optional d/dt, d/dd."""
    pkm2 = np.full_like(t, 2.0)
    pkm1 = t.copy()
    ukm2 = np.zeros_like(t)
    ukm1 = np.ones_like(t)
    vkm2 = np.zeros_like(t)
    vkm1 = np.zeros_like(t)
    if half_p == 0:
        return (pkm2, ukm2, vkm2) if want_grads else pkm2
    for k in range(2, half_p + 1):
        pk = t * pkm1 - d * pkm2
        if want_grads:
            uk = pkm1 + t * ukm1 - d * ukm2
            vk = t * vkm1 - pkm2 - d * vkm2
            ukm2, ukm1 = ukm1, uk
            vkm2, vkm1 = vkm1, vk
        pkm2, pkm1 = pkm1, pk
    if want_grads:
        return pkm1, ukm1, vkm1
    return pkm1


# the per-corner (nt, 3, 3) kernel that pharmonic ran before its
# coordinate-major form, with the fused recurrence above for tr(M^{p/2}) and
# its derivatives in (tr, det)


def _f_log_oracle(c):
    """f(c) = arccosh(c)/sqrt(c^2-1) and f'(c) = (1 - c f)/(c^2-1) in the
    exact form s^2 = w(c+1), f = log1p(w+s)/s of w = c - 1, by their series
    where w < 1e-4."""
    w = c - 1.0
    small = w < 1e-4
    s2 = np.maximum(w * (c + 1.0), 1e-300)
    s = np.sqrt(s2)
    f_big = np.log1p(np.maximum(w, 0.0) + s) / s
    fp_big = (1.0 - c * f_big) / s2
    f_small = 1.0 - w / 3.0 + (2.0 / 15.0) * w ** 2 - (2.0 / 35.0) * w ** 3
    fp_small = -1.0 / 3.0 + (4.0 / 15.0) * w - (6.0 / 35.0) * w ** 2
    return np.where(small, f_small, f_big), np.where(small, fp_small, fp_big)


def kernel_oracle(mesh, rho, Z: np.ndarray, p: int):
    """(J_p, Euclidean gradient per class point) at the (nc, 3) class points Z."""
    tri_class = mesh.vertex_class[mesh.triangles]                  # (nt, 3)
    lift = mesh.lift_matrices(rho)[mesh.triangles]                 # (nt, 3, 3, 3)
    Ki = mesh.tri_dxinv
    KiT = Ki.transpose(0, 2, 1)

    Y = np.einsum("tcab,tcb->tca", lift, Z[tri_class])            # (nt, 3, 3) chart corners
    S = Y.mean(axis=1)
    nu = np.sqrt(-(S[:, 0] ** 2 + S[:, 1] ** 2 - S[:, 2] ** 2))
    Yb = S / nu[:, None]
    EYb = Yb @ E_SHARP
    c = -np.einsum("ta,tca->tc", EYb, Y)
    f, fp = _f_log_oracle(c)
    eta = f[:, :, None] * (Y - c[:, :, None] * Yb[:, None, :])
    d2 = eta[:, 1] - eta[:, 0]
    d3 = eta[:, 2] - eta[:, 0]
    Ed2, Ed3 = d2 @ E_SHARP, d3 @ E_SHARP
    G = np.empty((len(Y), 2, 2))
    G[:, 0, 0] = np.einsum("ta,ta->t", Ed2, d2)
    G[:, 0, 1] = G[:, 1, 0] = np.einsum("ta,ta->t", Ed2, d3)
    G[:, 1, 1] = np.einsum("ta,ta->t", Ed3, d3)
    M = KiT @ G @ Ki
    t = M[:, 0, 0] + M[:, 1, 1]
    d = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    P, du, dv = newton_power_oracle(t, d, p // 2, want_grads=True)

    adjM = np.stack([np.stack([M[:, 1, 1], -M[:, 0, 1]], -1), np.stack([-M[:, 1, 0], M[:, 0, 0]], -1)], 1)
    dEdM = (mesh.areas * du)[:, None, None] * np.eye(2) + (mesh.areas * dv)[:, None, None] * adjM
    W = Ki @ dEdM @ KiT                                            # dE/dG, symmetric
    gd2 = 2.0 * (W[:, 0, 0, None] * d2 + W[:, 0, 1, None] * d3) @ E_SHARP
    gd3 = 2.0 * (W[:, 0, 1, None] * d2 + W[:, 1, 1, None] * d3) @ E_SHARP
    geta = np.stack([-(gd2 + gd3), gd2, gd3], axis=1)              # (nt, 3, 3)
    radial = Y - c[:, :, None] * Yb[:, None, :]
    s_coef = fp * np.einsum("tca,tca->tc", geta, radial) - f * np.einsum("tca,ta->tc", geta, Yb)
    gY = f[:, :, None] * geta + s_coef[:, :, None] * (-EYb)[:, None, :]
    gYb = np.einsum("tc,tca->ta", s_coef, -(Y @ E_SHARP)) - np.einsum("tc,tca->ta", f * c, geta)
    # through the normalized barycenter: dYb = (I + Yb (E Yb)^T)/nu dS, dS = mean dY
    gS = (gYb + EYb * np.einsum("ta,ta->t", Yb, gYb)[:, None]) / nu[:, None]
    gY = gY + gS[:, None, :] / 3.0
    g_chart = np.einsum("tcab,tca->tcb", lift, gY).reshape(-1, 3)  # lift^T applied
    idx = tri_class.ravel()
    grad = np.stack([np.bincount(idx, weights=w, minlength=mesh.n_classes) for w in g_chart.T], axis=1)
    return float(np.dot(mesh.areas, P)), grad


# ---------------------------------------------------------------------------
# the cocycle extraction, the coboundary and the wedge pairing: no command
# runs them, so they live here until one does (ROADMAP items 5 and 9(b) move
# them back into the package)
#
# Cocycle extraction rests on one tree primitive per form: F(v) is the form
# summed along a breadth-first tree from the octagon centre.  For each pairing
# x_k, the crossing integral is I(x_k) = F(y) - rep(x_k) F(y'), with y the
# middle vertex of side k and y' its twin on side k+4; a word's value composes
# these along its pairing letters by the cocycle rule, which extract_cocycle
# does for the four generators on the vectors I.
# ---------------------------------------------------------------------------

def coboundary(w0: np.ndarray, rep: SurfaceGroupRep) -> Cocycle:
    """alpha(g) = w0 - sigma(g) w0; the zero class in H^1."""
    w0 = np.asarray(w0).astype(np.longdouble)
    return Cocycle(rep, np.array([w0 - rep.generator_ld(n) @ w0 for n in GENERATOR_NAMES]))


def edge_value(form: DiscreteOneForm, i: int, j: int) -> np.ndarray:
    """The form's value on the directed edge (i, j)."""
    e, sign = _edge_ids(form.mesh.edges, i, j)
    return sign * form.values[e]


def wedge_pair(phi: DiscreteOneForm, psi: DiscreteOneForm) -> float:
    """Discrete symplectic pairing (1/2) int phi wedge psi with Killing contraction."""
    return 0.5 * float(_triangle_wedges(phi, psi).sum())


def _primitive(form: DiscreteOneForm) -> np.ndarray:
    """(nv, 3) F(v): the form summed along a breadth-first tree from
    vertex 0, the octagon centre.  Each BFS depth is one frontier step over
    the edge table, in which every new vertex takes its first candidate edge."""
    mesh = form.mesh
    i, j = mesh.edges.T
    F = np.zeros((len(mesh.vertices), 3))
    seen = np.zeros(len(mesh.vertices), dtype=bool)
    seen[0] = True
    while not seen.all():
        # in a breadth-first sweep every edge with one seen end leaves the frontier
        step = np.nonzero(seen[i] != seen[j])[0]
        if not len(step):
            raise MeshError("mesh is not edge-connected")
        forward = seen[i[step]]  # the edge runs from its seen end to the new vertex
        new, first = np.unique(np.where(forward, j[step], i[step]), return_index=True)
        old = np.where(forward, i[step], j[step])[first]
        sign = np.where(forward, 1.0, -1.0)[first]
        F[new] = F[old] + sign[:, None] * form.values[step[first]]
        seen[new] = True
    return F


def _crossings(form: DiscreteOneForm, rep: SurfaceGroupRep):
    """Crossing integrals, as (8, 3) vectors, and images of the pairing
    letters: x_k at index k, x_k^-1 at k + 4, with I(x_k^-1) = -rep(x_k)^-1 I(x_k)."""
    mesh = form.mesh
    F = _primitive(form)
    far, near, pairing = mesh.boundary_pairs.T
    mats = rep.pairing_images()
    incr = np.empty((8, 3))
    for k in range(4):
        chain = side_chains_oracle(mesh.level)[k]
        y = chain[len(chain) // 2]
        yp = far[(pairing == k) & (near == y)][0]
        incr[k] = F[y] - mats[k] @ F[yp]
        incr[k + 4] = -(mats[k + 4] @ incr[k])
    return incr, mats


def extract_cocycle(form: DiscreteOneForm, rep: SurfaceGroupRep | None = None) -> Cocycle:
    """Cocycle from the generator loop integrals, over one set of crossings."""
    rep = rep if rep is not None else form.mesh.rep
    incr, mats = _crossings(form, rep)
    return Cocycle(rep, np.array([compose(w, incr, mats) for w in LETTER_X_WORDS[::2]]))


# the BFS-path loop integrals that loop_integral and
# extract_cocycle used before the tree primitive; unchanged except that
# the adjacency is built per search (the mesh no longer has a path cache)


def _bfs_path(mesh, start: int, goal: int) -> list:
    """Vertex path along chart edges from start to goal."""
    if start == goal:
        return [start]
    adj = {}
    for i, j in mesh.edges:
        adj.setdefault(int(i), []).append(int(j))
        adj.setdefault(int(j), []).append(int(i))
    prev = {start: None}
    queue = [start]
    while queue:
        nxt = []
        for u in queue:
            for v in adj[u]:
                if v not in prev:
                    prev[v] = u
                    if v == goal:
                        path = [v]
                        while prev[path[-1]] is not None:
                            path.append(prev[path[-1]])
                        return path[::-1]
                    nxt.append(v)
        queue = nxt
    raise ValueError("mesh is not edge-connected")


def _path_sum(form, path: list) -> np.ndarray:
    """The so(2,1) matrix of the form summed along a vertex path."""
    path = np.asarray(path)
    ids, sign = _edge_ids(form.mesh.edges, path[:-1], path[1:])
    return hat((sign[:, None] * form.values[ids]).sum(axis=0, initial=0.0))


def loop_integral_oracle(form, word, rep: SurfaceGroupRep | None = None, base_vertex: int = 0) -> np.ndarray:
    """alpha(word): transported primitive increments along a lattice loop.

    rep is the representation whose Ad transports the form across the
    boundary (mesh.rep for sigma-equivariant data like the Maurer-Cartan
    form, the solver's target rep for V_q).  For each octagon pairing x_k,
    I(x_k) = P(base -> y) + Ad(rep(x_k)) P(y' -> base), with y on side k and
    y' its twin on side k+4; letters compose by the cocycle rule, so the
    result satisfies it up to the discretization error of the form.
    """
    mesh = form.mesh
    rep = rep if rep is not None else mesh.rep
    word = as_word(word)

    # per-pairing single-crossing integrals
    incr = {}
    mats = {}
    far, near, pairing = mesh.boundary_pairs.T
    for k in range(4):
        chain = side_chains_oracle(mesh.level)[k]
        y = chain[len(chain) // 2]
        yp = int(far[(pairing == k) & (near == y)][0])
        g = rep.evaluate(PAIRING_WORDS[k])
        P1 = _path_sum(form, _bfs_path(mesh, base_vertex, y))
        P2 = _path_sum(form, _bfs_path(mesh, yp, base_vertex))
        incr[k] = P1 + g @ P2 @ sharp_adj(g)
        mats[k] = g
        incr[k + 4] = -(sharp_adj(g) @ incr[k] @ g)
        mats[k + 4] = sharp_adj(g)

    # expand the generator word into pairing letters; an inverse letter
    # (odd code) is its generator's x-word inverted here, not read from the table
    letters = []
    for c in word.letters:
        xw = LETTER_X_WORDS[c & ~1]
        if c % 2 == 0:
            letters.extend(xw)
        else:
            letters.extend((k + 4) % 8 for k in reversed(xw))

    total = np.zeros((3, 3))
    prefix = np.eye(3)
    for k in letters:
        total = total + prefix @ incr[k] @ sharp_adj(prefix)
        prefix = prefix @ mats[k]
    return total


def extract_cocycle_oracle(form, rep: SurfaceGroupRep | None = None, base_vertex: int = 0) -> Cocycle:
    """Cocycle from the generator loop integrals, composed as matrices and
    stored as their vectors."""
    rep = rep if rep is not None else form.mesh.rep
    vals = np.array([loop_integral_oracle(form, n, rep, base_vertex) for n in GENERATOR_NAMES])
    return Cocycle(rep, vee(vals))


def loop_integral(form: DiscreteOneForm, word, rep: SurfaceGroupRep | None = None) -> np.ndarray:
    """alpha(word): the crossing integrals composed along the word's pairing letters.

    rep is the representation whose Ad transports the form across the
    boundary (mesh.rep for sigma-equivariant data like the Maurer-Cartan
    form, the solver's target rep for V_q).  The result satisfies the
    cocycle rule up to the discretization error of the form.
    """
    letters = [k for c in as_word(word).letters for k in LETTER_X_WORDS[c]]
    incr, mats = _crossings(form, rep if rep is not None else form.mesh.rep)
    return compose(letters, incr, mats)


def assert_extraction_matches_oracle(form, rep: SurfaceGroupRep | None = None):
    """extract_cocycle within 1e-11, and loop_integral on a few
    words and the relator within 1e-9, of the largest oracle generator value."""
    ref = extract_cocycle_oracle(form, rep).values
    scale = float(np.abs(ref).max())
    np.testing.assert_allclose(extract_cocycle(form, rep).values, ref, rtol=0, atol=1e-11 * scale)
    for word in ("a1", "b1^-1", "a2 b2", RELATOR):
        np.testing.assert_allclose(
            loop_integral(form, word, rep), vee(loop_integral_oracle(form, word, rep)), rtol=0, atol=1e-9 * scale
        )


# probes and central-difference step of gradient_fd_check
FD_PROBES = 20
FD_H = 3e-6


def gradient_fd_check(mesh, rho, p, Z, rng):
    """Max relative error of the analytic directional derivative vs central FD
    at the (nc, 3) class points Z, over FD_PROBES random one-class directions
    with step FD_H."""
    ctx = _Context(mesh, rho)
    Zc = Z.T.copy()
    G = _riemannian_grad(Zc, _grad_from_metric(ctx, _energy_and_grad(ctx, Zc, p)[1])).T
    worst = 0.0
    for _ in range(FD_PROBES):
        c = int(rng.integers(0, mesh.n_classes))
        v = project_tangent(Z[c], rng.standard_normal(3))
        v /= np.sqrt(mink_dot(v, v))
        dZ = np.zeros_like(Zc)
        dZ[:, c] = v
        Jp = _energy_and_grad(ctx, _retract(Zc, -FD_H * dZ), p)[0]
        Jm = _energy_and_grad(ctx, _retract(Zc, FD_H * dZ), p)[0]
        fd = (Jp - Jm) / (2 * FD_H)
        an = float(mink_dot(G[c], v))  # directional derivative (G_c, v)#
        scale = max(abs(fd), abs(an), 1e-12)
        worst = max(worst, abs(fd - an) / scale)
    return worst


# the Hessian of Psi(U) = tr((U^T U)^n) by central differences of its
# gradient, and the Gauss-Newton operator of the preconditioner assembled
# from it triangle by triangle, in an orthonormal frame at each barycenter


def schatten_hessian_fd(U: np.ndarray, n: int, step: float = 1e-6) -> np.ndarray:
    """(4, 4) Hessian of tr((U^T U)^n) at the 2x2 U, on U.ravel(), by
    central differences of the gradient 2n U (U^T U)^{n-1}."""
    def grad(V):
        return 2 * n * V @ np.linalg.matrix_power(V.T @ V, n - 1)

    h = step * float(np.abs(U).max())
    H = np.empty((4, 4))
    for j in range(4):
        dU = np.zeros(4)
        dU[j] = h
        dU = dU.reshape(2, 2)
        H[:, j] = ((grad(U + dU) - grad(U - dU)) / (2 * h)).ravel()
    return H


def gauss_newton_oracle(mesh, rho, Z: np.ndarray, p: int, frames: np.ndarray) -> np.ndarray:
    """The real (2 nc, 2 nc) matrix, x coordinates first, of the Gauss-Newton
    Hessian of J_p at the (nc, 3) class points Z for the tangent frames
    frames = (a, b), (2, nc, 3): the sum over triangles of area L^T C L, C =
    `schatten_hessian_fd` of the differential U in a frame (e1, e2) at the
    barycenter, and L[(i, a), (k, e)] = G_k[a] (e_i, lift_k frame_e)#."""
    nc = mesh.n_classes
    lifts = mesh.lift_matrices(rho)
    A = np.zeros((2 * nc, 2 * nc))
    for t, corners in enumerate(mesh.triangles):
        classes = mesh.vertex_class[corners]
        Y = np.einsum("kab,kb->ka", lifts[corners], Z[classes])
        Yb = Y.sum(axis=0) / np.sqrt(-mink_dot(Y.sum(axis=0), Y.sum(axis=0)))
        e1 = project_tangent(Yb, np.array([1.0, 0.0, 0.0]))
        e1 /= np.sqrt(mink_dot(e1, e1))
        e = np.stack([e1, mink_cross_vec(Yb, e1)])
        Ki = mesh.tri_dxinv[t]
        G = np.stack([-Ki[0] - Ki[1], Ki[0], Ki[1]])
        eta = log_map(Yb, Y)
        U = mink_dot(e[:, None], ((eta[1:] - eta[0]).T @ Ki).T[None])  # U[i, a] = (e_i, u_a)#
        L = np.zeros((2, 2, 3, 2))
        for k in range(3):
            for j in range(2):
                L[:, :, k, j] = mink_dot(e, lifts[corners[k]] @ frames[j, classes[k]])[:, None] * G[k][None]
        L = L.reshape(4, 6)
        block = mesh.areas[t] * L.T @ schatten_hessian_fd(U, p // 2) @ L
        index = np.stack([classes, nc + classes], axis=1).ravel()
        np.add.at(A, (index[:, None], index[None]), block)
    return A


# the target-frame and eigh construction of the per-triangle block that
# pharmonic.density_and_currents ran before minimize built the block from
# the solver's power sums


def _target_frames(Yb, d2, d3):
    """(nt, 2, 3) oriented orthonormal frame of T_u H along the first edge."""
    F1 = d2.copy()
    small = np.sqrt(np.abs(np.einsum("ta,ab,tb->t", F1, E_SHARP, F1))) < 1e-12
    F1[small] = d3[small]
    F1 = F1 / np.sqrt(np.einsum("ta,ab,tb->t", F1, E_SHARP, F1))[:, None]
    return np.stack([F1, mink_cross_vec(Yb, F1)], axis=1)


def current_block_oracle(result) -> dict:
    """density, T_q, u_bar, U_amb and S_amb of a solve result, re-evaluated at
    its map through target frames and eigh of U U^T."""
    mesh = result.mesh
    p = result.p
    m = tri_metric_oracle(_Context(mesh, result.rho), result.class_points.T.copy())
    Yb, d2, d3 = m["Yb"].T, m["D"][:, 0].T, m["D"][:, 1].T

    # target-frame differential D (2x2, domain chart -> target chart)
    F = _target_frames(Yb, d2, d3)
    dy = np.einsum("tia,ab,tjb->tij", F, E_SHARP, np.stack([d2, d3], axis=1))
    U = result.kappa_p * (dy @ mesh.tri_dxinv)                     # (nt, 2, 2)

    evals, evecs = np.linalg.eigh(U @ U.transpose(0, 2, 1))
    evals = np.maximum(evals, 0.0)
    N = np.einsum(
        "tab,tb,tcb->tac", evecs, evals ** ((p - 2) // 2), evecs
    )                                                              # (U U^T)^{(p-2)/2}
    S = N @ U                                                      # S_{p-1}(U)
    density = (evals ** (p // 2)).sum(axis=1)                      # TrQ(U)^p
    T = U.transpose(0, 2, 1) @ N @ U - (density / p)[:, None, None] * np.eye(2)
    return {
        "density": density, "T_q": T, "u_bar": Yb,
        "U_amb": np.einsum("tia,tix->tax", U, F), "S_amb": np.einsum("tia,tix->tax", S, F),
    }


# the per-triangle currents and their edge scatter as 3x3 matrices, einsums
# and np.add.at, apart from the vectors, the batched products and the
# np.bincount of pharmonic.density_and_currents and mesh.edge_average


def edge_average_oracle(mesh, tri_values: np.ndarray, rep: SurfaceGroupRep, magnitude: bool = False) -> np.ndarray:
    """(ne, 3, 3) edge values of mesh.edge_average, scattered with np.add.at;
    with magnitude=True, the same sums over the absolute values of every
    factor."""
    size = np.abs if magnitude else (lambda x: x)
    own = np.zeros((len(mesh.edges), 3, 3))
    np.add.at(own, mesh.tri_edges.ravel(), tri_values.reshape(-1, 3, 3))
    total = own.copy()
    mats = size(rep.pairing_images())
    for k, (far, near, sign) in enumerate(mesh.edge_twins):
        g, g_inv = mats[k], mats[k + 4]
        total[far] += size(sign)[:, None, None] * (g_inv @ own[near] @ g)
        total[near] += size(sign)[:, None, None] * (g @ own[far] @ g_inv)
    return 0.5 * total


def currents_oracle(result, magnitude: bool = False) -> dict:
    """The (ne, 3, 3) edge values of V_q and W_q of a solve result, from the
    einsum forms of the per-triangle currents.  With magnitude=True, every
    sum runs over absolute values and the two terms of the cross product
    add: the scale of the terms that the round-off of each entry is
    relative to."""
    mesh = result.mesh
    size = np.abs if magnitude else (lambda x: x)
    xi = mesh.tri_edge_sign[..., None] * (np.roll(mesh.tri_coords, -1, axis=1) - mesh.tri_coords)
    r = size(np.stack([xi[..., 1], -xi[..., 0]], axis=-1))
    v3 = np.einsum("tsa,tax->tsx", r, size(result.S_amb))
    w3 = np.einsum("tia,tsa,tix->tsx", size(result.T_q), r, size(mesh.frames))

    def slot_values(X, Y):
        if magnitude:                                              # |Y X#| + |X Y#|
            return np.einsum("...i,...j->...ij", Y, X) + np.einsum("...i,...j->...ij", X, Y)
        return cross(X, Y)

    return {
        "V_q": edge_average_oracle(mesh, slot_values(v3, size(result.u_bar)[:, None]), result.rho, magnitude),
        "W_q": edge_average_oracle(mesh, slot_values(w3, size(mesh.circumcenters)[:, None]), mesh.rep, magnitude),
    }


# the stage outputs on 3x3 so(2,1) values, as pharmonic computed them before
# the forms held vectors: closedness by Frobenius norms, the wedge and check
# (a) by the Killing form Tr AB, the Maurer-Cartan form by `cross`


def _slot_matrices(mesh, values: np.ndarray) -> np.ndarray:
    """(nt, 3, 3, 3) the (ne, 3, 3) edge values on each triangle's directed slots."""
    return mesh.tri_edge_sign[..., None, None] * values[mesh.tri_edges]


def closedness_oracle(mesh, values: np.ndarray) -> float:
    """mesh.closedness_residual of the (ne, 3, 3) edge values."""
    vals = _slot_matrices(mesh, values).reshape(len(mesh.triangles), 3, 9)
    loop = np.linalg.norm(vals.sum(axis=1), axis=1)
    mass = np.linalg.norm(vals, axis=2).sum(axis=1)
    nonzero = mass > 0
    return float((loop[nonzero] / mass[nonzero]).max(initial=0.0))


def stage_outputs_oracle(result) -> dict:
    """V_q and W_q as (ne, 3, 3) values (`currents_oracle`), their closedness
    residuals, the density mass and every value of relation_checks, all on
    3x3 matrices."""
    mesh, p = result.mesh, result.p
    out = currents_oracle(result)
    out["density_mass"] = float(np.dot(mesh.areas, result.density))
    out["V_closedness"] = closedness_oracle(mesh, out["V_q"])
    out["W_closedness"] = closedness_oracle(mesh, out["W_q"])

    # (a): (*V)(e_a) = -S e_a x u, contracted by the Killing form
    starV = cross(-result.S_amb, result.u_bar[:, None])
    duxu = cross(result.U_amb, result.u_bar[:, None])
    rhs = np.einsum("taij,tbji->tab", starV, duxu)
    lhs = -2.0 * result.T_q
    eye = np.eye(2)

    def tracefree(A):
        return A - 0.5 * np.einsum("tii->t", A)[:, None, None] * eye

    exact = lhs - (rhs + (2.0 / p) * result.density[:, None, None] * eye)

    # (b): the Whitney wedge of the Maurer-Cartan form with W_q
    tail, head = mesh.vertices[mesh.edges[:, 0]], mesh.vertices[mesh.edges[:, 1]]
    omega = _slot_matrices(mesh, cross(head - tail, _midpoint(tail, head)))
    q = _slot_matrices(mesh, out["W_q"])
    dq = np.roll(q, -1, axis=1) - np.roll(q, -2, axis=1)
    wedge_density = np.einsum("tsab,tsba->t", omega, dq) / 6.0 / mesh.areas
    target = 2.0 * result.density

    sel = result.s1 >= 0.9 * float(result.s1.max())
    out.update({
        "minus2T_exact_identity": float(np.abs(exact).max()),
        "minus2T_tracefree_gap": float(np.abs(tracefree(lhs) - tracefree(rhs)).max()),
        "minus2T_literal_gap": float(np.abs(lhs - rhs).max()),
        "omega_wedge_W_l1_gap": float(np.dot(mesh.areas, np.abs(wedge_density - target)))
        / max(float(np.dot(mesh.areas, np.abs(target))), 1e-300),
        "concentration_fraction": float(np.dot(mesh.areas[sel], result.density[sel])),
    })
    return out


# ---------------------------------------------------------------------------
# the solver's kernel, V-cycle products and build as whole-array expressions,
# one fresh array per operation, as they stood before the library wrote them
# in place: the library must agree with them bit for bit.  An operator
# expression keeps its operand order only below 256 KiB: from there numpy
# reuses a temporary operand as the output, and for * and + it may swap the
# operands to do so, which for complex products changes the last bits
# ---------------------------------------------------------------------------

def wspmv_oracle(alpha, beta, cols, starts, x):
    """alpha xc + beta conj(xc) summed by rows, xc the gathered x, by ufunc
    calls in that operand order at any size."""
    xc = x.take(cols, axis=-1)
    return np.add.reduceat(np.add(np.multiply(alpha, xc), np.multiply(beta, np.conjugate(xc))), starts, axis=-1)


def tri_metric_oracle(ctx, Z: np.ndarray) -> dict:
    """`pharmonic._tri_metric`, with the columns D of the differential too."""
    X = np.einsum("abv,bv->av", ctx.lift, Z.take(ctx.vertex_at))
    Y = X.take(ctx.corner_at)
    S = Y.sum(axis=1)
    nu = np.sqrt(-(S[0] ** 2 + S[1] ** 2 - S[2] ** 2))
    Yb = S / nu
    c = -np.einsum("at,act->ct", SIGN * Yb, Y)
    f, fp = _f_log(c)
    R = Y - c * Yb[:, None]
    eta = f * R
    D = eta[:, 1:] - eta[:, :1]
    u = np.einsum("xjt,jat->xat", D, ctx.Ki)
    M = np.einsum("xat,xbt->abt", SIGN3 * u, u)
    return {
        "Y": Y, "nu": nu, "Yb": Yb, "c": c, "f": f, "fp": fp, "R": R, "D": D, "u": u, "M": M,
        "t": M[0, 0] + M[1, 1],
        "d": M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0],
    }


def grad_from_metric_oracle(ctx, m: dict) -> np.ndarray:
    W = (2.0 * m["n"] * ctx.areas) * _power_block(m)
    gD = np.einsum("jat,xat->xjt", ctx.Ki, SIGN3 * np.einsum("abt,xbt->xat", W, m["u"]))
    geta = np.concatenate([-gD.sum(axis=1, keepdims=True), gD], axis=1)
    Y, Yb, c, f, R = m["Y"], m["Yb"], m["c"], m["f"], m["R"]
    EYb = SIGN * Yb
    s = m["fp"] * np.einsum("xct,xct->ct", geta, R) - f * np.einsum("xct,xt->ct", geta, Yb)
    gYb = -SIGN * np.einsum("ct,xct->xt", s, Y) - np.einsum("ct,xct->xt", f * c, geta)
    gS = (gYb + EYb * np.einsum("xt,xt->t", Yb, gYb)) / m["nu"]
    gY = f * geta + (gS[:, None] - s * EYb[:, None])
    gX = np.bincount(ctx.corner_at.ravel(), gY.ravel(), 3 * ctx.nv).reshape(3, -1)
    gV = np.einsum("abv,av->bv", ctx.lift, gX)
    return np.bincount(ctx.vertex_at.ravel(), gV.ravel(), 3 * ctx.nc).reshape(3, -1)


def project_oracle(Z: np.ndarray, V: np.ndarray) -> np.ndarray:
    """`pharmonic._project` on a copy of V."""
    V = V.copy()
    dots = np.einsum("...an,an->...n", V, SIGN * Z)
    for a in range(3):
        V[..., a, :] += dots * Z[a]
    return V


def _weighted_products_oracle(w, X, Y):
    herm, bil = w[0] * X[0] * Y[0].conj(), w[0] * X[0] * Y[0]
    for wj, xj, yj in zip(w[1:], X[1:], Y[1:]):
        wx = wj * xj
        herm += wx * yj.conj()
        bil += wx * yj
    return herm, bil


def _gauss_newton_blocks_oracle(ctx, m: dict, F: np.ndarray) -> list:
    n = m["n"]
    Q, weight = _schatten_curvature(m)
    G = np.stack([-ctx.Ki[0] - ctx.Ki[1], ctx.Ki[0], ctx.Ki[1], -ctx.Ki[0] - ctx.Ki[1]])
    PG = np.einsum("abt,lbt->lat", _power_block(m), G)
    grams = [(2 * n) * (G[:3] * PG[other]).sum(axis=1) for other in (slice(0, 3), slice(1, 4))]
    g = np.einsum("ait,kat->ikt", Q, G)
    onto = np.einsum("xt,xkt->kt", SIGN * m["Yb"], F)
    for x in range(3):
        F[x] += onto * m["Yb"][x]
    r = np.einsum("xit,xkt->ikt", SIGN3 * np.einsum("xat,ait->xit", m["u"], Q), F)
    sig = np.empty((3,) + r.shape[1:], complex)
    for row, (i, j) in enumerate([(0, 0), (1, 1), (0, 1)]):
        np.multiply(g[i], r[j], out=sig[row])
        sig[row] += g[j] * r[i]
    half = 0.5 * ctx.areas
    blocks = []
    for other, gram in zip((slice(0, 3), slice(1, 4)), grams):
        alpha, beta = _weighted_products_oracle(SIGN, F[:, :3], F[:, other])
        alpha *= gram
        beta *= gram
        for part, mode in zip((alpha, beta), _weighted_products_oracle(weight[:, None], sig[:, :3], sig[:, other])):
            part += mode
            part *= half
        blocks.append((alpha, beta))
    return blocks


def vcycle_oracle(ctx, mesh: FundamentalMesh, Z: np.ndarray, m: dict, depth: int):
    """`pharmonic._VCycle`'s operators at Z from m, built as before, with
    depth smoothed levels: a list of (alpha, beta, da, db, P, P^H) per level
    and the coarsest inverse."""
    hier = mesh.class_hierarchy
    a = Z * Z[0]
    a[0] += 1.0
    a /= np.sqrt(1.0 + Z[0] ** 2)
    b = SIGN * np.cross(Z, a, axis=0)
    lifted = np.einsum("abv,bv->av", ctx.lift, a.take(ctx.vertex_at)) + 1j * np.einsum(
        "abv,bv->av", ctx.lift, b.take(ctx.vertex_at))
    tri = mesh.triangles.T
    (ad, bd), (ae, be) = _gauss_newton_blocks_oracle(ctx, m, lifted[:, tri[[0, 1, 2, 0]]])
    graph = hier.graphs[0]
    slots = np.concatenate([graph.diag[mesh.vertex_class[tri]].ravel(), hier.edge_slots.ravel()])
    alpha = _csum(slots, np.concatenate([ad.ravel(), ae.ravel(), ae.conj().ravel()]), len(graph.rows))
    beta = _csum(slots, np.concatenate([bd.ravel(), be.ravel(), be.ravel()]), len(graph.rows))
    levels = []
    for graph, pro, coarse in zip(hier.graphs[:depth], hier.prolongations, hier.graphs[1:]):
        P = np.concatenate([np.ones(coarse.n), 0.5 * _rotation(lifted, pro.mid[:, :1], pro.mid[:, 1:]).ravel()])
        s, k1, k2, slot = pro.galerkin
        levels.append((alpha, beta) + _jacobi(graph, alpha, beta) + (P, P[pro.r_perm].conj()))
        left, right = np.conjugate(P[k1]), P[k2]
        alpha = _csum(slot, alpha[s] * left * right, len(coarse.rows))
        beta = _csum(slot, beta[s] * left * right.conj(), len(coarse.rows))
    coarse = hier.graphs[depth]
    n, rows, cols = coarse.n, coarse.rows, coarse.cols
    dense = np.zeros((2 * n, 2 * n))
    dense[rows, cols] = alpha.real + beta.real
    dense[rows, n + cols] = beta.imag - alpha.imag
    dense[n + rows, cols] = alpha.imag + beta.imag
    dense[n + rows, n + cols] = alpha.real - beta.real
    return levels, np.linalg.inv(dense)


# ---------------------------------------------------------------------------
# cylinder rig: abelian domain group, geodesic target (closed-form minimizer)
# ---------------------------------------------------------------------------

# largest geodesic offset of a CylinderRig.initial point from the target axis
CYLINDER_WOBBLE = 0.3


@dataclass
class CylinderRig:
    """Periodic 1d mesh for maps of the cylinder of core length a onto the
    cylinder of core length b; the twisted periodicity is u(t + a) =
    exp(b B) u(t).  The exact minimizer maps onto the target axis with
    constant stretch b/a for every p (the degenerate best-Lipschitz case)."""

    a_len: float
    b_len: float
    n: int
    points: np.ndarray  # (n, 3)

    @classmethod
    def initial(cls, a_len: float, b_len: float, n: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        ts = np.arange(n) / n * b_len
        pts = np.empty((n, 3))
        for i, t in enumerate(ts):
            X = geodesic(X0, np.array([0.0, 1.0, 0.0]), t)
            v = project_tangent(X, rng.standard_normal(3))
            nv = np.sqrt(max(mink_dot(v, v), 1e-30))
            s = CYLINDER_WOBBLE * rng.uniform(-1, 1)
            pts[i] = np.cosh(s) * X + np.sinh(s) * (v / nv)
        return cls(a_len, b_len, n, pts)

    @property
    def holonomy(self) -> np.ndarray:
        return exp_so21(self.b_len * B_STD)


def _cylinder_energy(rig: CylinderRig, p: int, pts):
    """J_p at the (3, n) points pts, and the intermediates `_cylinder_grad`
    builds the gradient from."""
    dt = rig.a_len / rig.n
    hol = rig.holonomy
    nxt = np.hstack([pts[:, 1:], hol @ pts[:, :1]])
    c = np.maximum(-(SIGN * pts * nxt).sum(axis=0), 1.0)
    d = np.arccosh(c)
    return float(np.sum(dt * (d / dt) ** p)), (pts, hol, nxt, c, d, dt)


def _cylinder_grad(p: int, parts) -> np.ndarray:
    pts, hol, nxt, c, d, dt = parts
    # dJ/dd_i = p d^{p-1} / dt^{p-1}; dd/dc = 1/sqrt(c^2-1); dc = -(E nxt, dpt) ...
    coef = p * (d / dt) ** (p - 1) / np.sqrt(np.maximum(c * c - 1.0, 1e-30))
    back = -SIGN * np.roll(pts, 1, axis=1)
    back[:, 0] = hol.T @ back[:, 0]  # chain through the twisted closure: c_0 uses hol @ pts[:, 0]
    return coef * (-SIGN * nxt) + np.roll(coef, 1) * back


def cylinder_minimize(rig: CylinderRig, p: int, max_iter: int = MAX_ITER, build=None):
    """The shared descent, `_descend`, on the rig's product of hyperboloids;
    `build` is `_descend`'s, by default H0 = 1e-2 I at every build: a first
    step of 1e-2 G, after which the L-BFGS scaling (s, y)#/(y, H0 y)#
    cancels the constant."""
    _check_p(p)
    Z0 = rig.points.T.copy()
    Z, J, _, stats = _descend(lambda Z: _cylinder_energy(rig, p, Z),
                              lambda parts: _cylinder_grad(p, parts),
                              Z0, _cylinder_energy(rig, p, Z0), build or (lambda Z, parts: lambda Z, V: 1e-2 * V),
                              TOL, max_iter)
    out = CylinderRig(rig.a_len, rig.b_len, rig.n, Z.T.copy())
    stretch = float((J / rig.a_len) ** (1.0 / p))
    del stats["energy_log"]
    return out, {"J_p": J, "stretch": stretch, **stats}


def cylinder_continuation(a_len: float, b_len: float, n: int = 64,
                          schedule=(2, 4, 8, 16, 32, 64), seed: int = 0):
    schedule = check_schedule(schedule)
    rig = CylinderRig.initial(a_len, b_len, n, seed=seed)
    reports = []
    for p in schedule:
        rig, rep = cylinder_minimize(rig, p)
        rep["p"] = p
        reports.append(rep)
    return rig, reports
