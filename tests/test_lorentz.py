import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    B_STD,
    BPERP_STD,
    NHAT_STD,
    FrameError,
    axis_point,
    cross,
    exp_series_oracle,
    exp_so21,
    frame_at,
    geodesic,
    hyperbolic_distance,
    is_on_hyperboloid,
    killing,
    lie_from_frame_coords,
    log_so21,
    project_tangent,
    random_group_elem,
    random_lie_alg,
    random_tangent,
    vee,
)
from stretchlab import lorentz
from stretchlab.fuchsian import GENERATOR_NAMES, axis_generator, octagon_representation
from stretchlab.lorentz import (
    E_SHARP,
    X0,
    exp_axis,
    hat,
    mink_cross_vec,
    mink_dot,
)

coord = st.floats(-3.0, 3.0, allow_nan=False)


def test_mink_dot_base_point():
    assert mink_dot(X0, X0) == -1.0


def test_mink_dot_spacelike_unit():
    e1 = np.array([1.0, 0.0, 0.0])
    assert mink_dot(e1, e1) == 1.0


def test_mink_dot_boosted():
    X = np.array([0.0, np.sinh(1.0), np.cosh(1.0)])
    assert np.isclose(mink_dot(X, X0), -np.cosh(1.0))
    assert np.isclose(mink_dot(X, X0), -1.5431, atol=1e-4)


@given(st.tuples(coord, coord, coord), st.tuples(coord, coord, coord))
def test_mink_dot_symmetric_bilinear(xs, ys):
    X, Y = np.array(xs), np.array(ys)
    assert mink_dot(X, Y) == pytest.approx(mink_dot(Y, X))
    assert mink_dot(2.0 * X, Y) == pytest.approx(2.0 * mink_dot(X, Y))


def test_cross_self_vanishes(rng):
    X = rng.standard_normal(3)
    assert np.abs(cross(X, X)).max() == 0.0


def test_cross_standard_values():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    np.testing.assert_allclose(cross(e2, X0), B_STD, atol=1e-15)
    np.testing.assert_allclose(cross(e1, X0), BPERP_STD, atol=1e-15)


@given(st.tuples(coord, coord, coord), st.tuples(coord, coord, coord))
def test_cross_antisymmetric_and_lie_valued(xs, ys):
    X, Y = np.array(xs), np.array(ys)
    A = cross(X, Y)
    np.testing.assert_allclose(A, -cross(Y, X), atol=1e-12)
    assert abs(np.trace(A)) <= 1e-12
    np.testing.assert_allclose(lorentz.sharp_adj(A), -A, atol=1e-12)


def test_cross_matches_outer_products_on_solver_shapes(rng):
    # the broadcasts the currents take: (nt, 3, 3) and (nt, 2, 3) slot
    # vectors against one (nt, 1, 3) point per triangle, as the vector
    # product of R^{2,1} under hat against the 3x3 cross product
    nt = 50
    Y = rng.standard_normal((nt, 1, 3))
    for rows in (3, 2):
        X = rng.standard_normal((nt, rows, 3))
        got = mink_cross_vec(X, Y)
        assert got.shape == (nt, rows, 3)
        np.testing.assert_array_equal(hat(got), cross(X, Y))
        # e# (X x Y), the euclidean cross product with its last coordinate negated
        np.testing.assert_array_equal(got, np.cross(X, Y) * E_SHARP.diagonal())


vec = st.tuples(coord, coord, coord).map(np.array)


@settings(max_examples=60, deadline=None)
@given(vec, vec, st.integers(0, 7))
def test_hat_is_the_so21_isomorphism(v, w, k):
    # hat links the vector product to the 3x3 cross product, is equivariant
    # under the pairing images, and carries (,)# to half the Killing form and
    # the euclidean norm to the Frobenius norm over sqrt2; vee inverts it
    g = octagon_representation().pairing_images()[k]
    scale = max(1.0, float(np.abs(v).max() * np.abs(w).max()))
    np.testing.assert_allclose(hat(mink_cross_vec(v, w)), cross(v, w), rtol=0, atol=1e-15 * scale)
    A = hat(w)
    assert abs(np.trace(A)) == 0.0
    np.testing.assert_array_equal(lorentz.sharp_adj(A), -A)
    np.testing.assert_array_equal(vee(A), w)
    gw = g @ w
    np.testing.assert_allclose(g @ A @ lorentz.sharp_adj(g), hat(gw), rtol=0,
                               atol=1e-13 * max(1.0, float(np.abs(g).max() ** 2 * np.abs(w).max())))
    assert killing(hat(v), A) == pytest.approx(2.0 * mink_dot(v, w), rel=1e-12, abs=1e-12 * scale)
    assert np.linalg.norm(A) == pytest.approx(np.sqrt(2.0) * np.linalg.norm(w), rel=1e-14, abs=1e-300)


def test_cross_ad_equivariance(rng):
    for _ in range(20):
        g = random_group_elem(rng)
        X, Y = rng.standard_normal(3), rng.standard_normal(3)
        lhs = cross(g @ X, g @ Y)
        rhs = g @ cross(X, Y) @ lorentz.sharp_adj(g)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * max(1, np.abs(rhs).max()))


def test_log_map_and_normalize_broadcast_rowwise(rng):
    # a batched call gives, row by row, the one-vector formula's bits
    X = np.array([random_group_elem(rng) @ X0 for _ in range(6)])
    Y = np.array([random_group_elem(rng) @ X0 for _ in range(6)])
    Y[0] = X[0]  # coincident points give the zero vector
    V = lorentz.log_map(X, Y)
    for x, y, v in zip(X, Y, V):
        c = max(-mink_dot(x, y), 1.0)
        th = np.arccosh(c)
        assert np.array_equal(v, np.zeros(3) if th < 1e-12 else th * (y - c * x) / np.sinh(th))
    assert np.array_equal(mink_dot(V, V), [mink_dot(v, v) for v in V])
    W = np.array([-2.0, 3.0, -0.5, 1.0, -1.0, 2.0])[:, None] * X  # both time directions
    N = lorentz.normalize_to_hyperboloid(W)
    for w, n in zip(W, N):
        m = w / np.sqrt(-mink_dot(w, w))
        assert np.array_equal(n, m if m[2] > 0 else -m)
    with pytest.raises(ValueError):
        lorentz.normalize_to_hyperboloid(np.vstack([X, [1.0, 0.0, 0.0]]))


def test_project_tangent_examples():
    np.testing.assert_allclose(project_tangent(X0, np.array([0.0, 0.0, 1.0])), 0.0, atol=1e-15)
    v = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(project_tangent(X0, v), v, atol=1e-15)
    np.testing.assert_allclose(project_tangent(X0, np.array([2.0, 3.0, 5.0])), [2.0, 3.0, 0.0], atol=1e-15)


def test_project_tangent_requires_hyperboloid_point():
    with pytest.raises(ValueError):
        project_tangent(np.array([0.0, 0.0, 2.0]), np.array([1.0, 0.0, 0.0]))


def test_project_tangent_idempotent_and_self_adjoint(rng):
    for _ in range(20):
        X = random_group_elem(rng) @ X0
        v, w = rng.standard_normal(3), rng.standard_normal(3)
        pv = project_tangent(X, v)
        np.testing.assert_allclose(project_tangent(X, pv), pv, atol=1e-12)
        assert mink_dot(pv, X) == pytest.approx(0.0, abs=1e-12)
        # #-self-adjoint: (Pv, w)# = (v, Pw)#
        assert mink_dot(pv, w) == pytest.approx(mink_dot(v, project_tangent(X, w)), abs=1e-10)


def test_killing_values():
    assert killing(B_STD, B_STD) == pytest.approx(2.0)
    assert killing(NHAT_STD, NHAT_STD) == pytest.approx(-2.0)
    assert killing(B_STD, BPERP_STD) == pytest.approx(0.0)


def test_killing_signature(rng):
    # signature (2,2,-2) Gram in the standard frame, so (2,1) overall
    G = np.array(
        [[killing(a, b) for b in (B_STD, BPERP_STD, NHAT_STD)] for a in (B_STD, BPERP_STD, NHAT_STD)]
    )
    np.testing.assert_allclose(G, np.diag([2.0, 2.0, -2.0]), atol=1e-15)


def test_exp_zero_is_identity():
    np.testing.assert_allclose(exp_so21(np.zeros((3, 3))), np.eye(3), atol=1e-15)


def test_exp_translation_matrix():
    t = 0.8
    expected = np.array(
        [[1, 0, 0], [0, np.cosh(t), np.sinh(t)], [0, np.sinh(t), np.cosh(t)]]
    )
    np.testing.assert_allclose(exp_so21(t * B_STD), expected, atol=1e-14)


def test_exp_rotation_quarter_turn():
    g = exp_so21((np.pi / 2) * NHAT_STD)
    np.testing.assert_allclose(g, exp_series_oracle((np.pi / 2) * NHAT_STD), atol=1e-12)
    # rotation by pi/2 in the xy-plane
    assert abs(abs((g @ np.array([1.0, 0, 0]))[1]) - 1.0) < 1e-12


def test_exp_matches_series_oracle(rng):
    for _ in range(40):
        A = random_lie_alg(rng, scale=2.0)
        nrm = np.sqrt(abs(killing(A, A)))
        if nrm > 5.0:
            A = A * (5.0 / nrm)
        np.testing.assert_allclose(exp_so21(A), exp_series_oracle(A, 40), atol=1e-12)


def test_exp_one_parameter_group(rng):
    A = random_lie_alg(rng)
    s, t = 0.7, -1.3
    np.testing.assert_allclose(
        exp_so21((s + t) * A), exp_so21(s * A) @ exp_so21(t * A), atol=1e-12
    )


def test_exp_near_parabolic_branch():
    # lightlike generator: k = 0 exactly
    A = lie_from_frame_coords(0.0, 1.0, 1.0)
    assert abs(0.5 * np.trace(A @ A)) < 1e-12
    np.testing.assert_allclose(exp_so21(A), exp_series_oracle(A, 20), atol=1e-13)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(0.2, 2.0),
    st.floats(0.0, 2.0 * np.pi),
    st.floats(-14.0, -2.0),
    st.sampled_from((-1, 0, 1)),
    st.sampled_from((-1, 1)),
)
def test_exp_log_round_trip_near_parabolic_branch(r, theta, log10_k, k_sign, z_sign):
    # A = (b, a, z) frame coordinates with |(b, a)| = r and k = Tr(A^2)/2 =
    # b^2 + a^2 - z^2 of either sign, |k| from 1e-2 down to 1e-14, or 0
    k = k_sign * 10.0**log10_k
    A = lie_from_frame_coords(r * np.cos(theta), r * np.sin(theta), z_sign * np.sqrt(r * r - k))
    g = exp_so21(A)
    np.testing.assert_allclose(g, exp_series_oracle(A, 40), rtol=0, atol=1e-13)
    np.testing.assert_allclose(log_so21(g), A, rtol=0, atol=1e-13)
    np.testing.assert_allclose(exp_so21(log_so21(g)), g, rtol=0, atol=1e-13)


def test_log_round_trip(rng):
    for _ in range(40):
        A = random_lie_alg(rng, scale=1.5)
        g = exp_so21(A)
        np.testing.assert_allclose(exp_so21(log_so21(g)), g, atol=1e-10)


def test_log_near_identity():
    A = 1e-6 * B_STD
    np.testing.assert_allclose(log_so21(exp_so21(A)), A, atol=1e-16)


# the twists' axes: the longdouble unit axis of each generator, at twist
# distances near 0, moderate and large
EXP_AXIS_TIMES = (-1e-4, 1e-4, 0.5, 1.5, 10.0)


def _generator_axes(octagon):
    return {name: axis_generator(octagon.generator_ld(name)) for name in GENERATOR_NAMES}


def test_exp_axis_matches_general_exponential(octagon):
    # the closed form and the general so(2,1) exponential of t hat(b) agree
    # in longdouble (5.6e-18 at most, a2 at t = 10), and a longdouble axis
    # gives a longdouble matrix
    for name, b in _generator_axes(octagon).items():
        assert b.dtype == np.longdouble
        for t in EXP_AXIS_TIMES:
            got, want = exp_axis(b, t), exp_so21(np.longdouble(t) * hat(b))
            assert got.dtype == np.longdouble
            assert np.abs(got - want).max() <= 1e-17 * np.abs(want).max(), (name, t)


def test_exp_axis_against_mpmath(octagon):
    # against a 40-digit expm along the exact unit axis b / sqrt((b, b)#):
    # 9.4e-19 at most (a2 at t = 10, whose longdouble axis has (b, b)# - 1 =
    # 8.7e-19)
    import mpmath

    def exact(x):
        n, d = x.as_integer_ratio()
        return mpmath.mpf(n) / d

    entries = [(i, j) for i in range(3) for j in range(3)]
    with mpmath.workdps(40):
        for name, b in _generator_axes(octagon).items():
            v = [exact(x) for x in b]
            norm = mpmath.sqrt(v[0] ** 2 + v[1] ** 2 - v[2] ** 2)
            for t in EXP_AXIS_TIMES:
                x, y, z = (t * c / norm for c in v)
                want = mpmath.expm(mpmath.matrix([[0, z, -y], [-z, 0, x], [-y, x, 0]]))
                got = exp_axis(b, t)
                err = max(abs(exact(got[i, j]) - want[i, j]) for i, j in entries)
                assert err <= 1e-18 * max(abs(want[i, j]) for i, j in entries), (name, t)


def test_geodesic_examples():
    v = np.array([0.0, 1.0, 0.0])
    t = 1.4
    np.testing.assert_allclose(geodesic(X0, v, t), [0.0, np.sinh(t), np.cosh(t)], atol=1e-14)
    np.testing.assert_allclose(geodesic(X0, v, 0.0), X0, atol=1e-15)


def test_geodesic_distance_and_generator(rng):
    X = random_group_elem(rng) @ X0
    v = random_tangent(rng, X)
    g0, g2 = geodesic(X, v, 0.0), geodesic(X, v, 2.0)
    assert hyperbolic_distance(g0, g2) == pytest.approx(2.0, abs=1e-10)
    # generator cross(v, X) is constant along the curve
    B = cross(v, X)
    for t in (0.5, 1.0, 2.0):
        Xt = geodesic(X, v, t)
        vt = project_tangent(Xt, np.sinh(t) * X + np.cosh(t) * v)
        np.testing.assert_allclose(cross(vt, Xt), B, atol=1e-10)
    assert killing(B, B) == pytest.approx(2.0, abs=1e-10)


def test_geodesic_rejects_bad_inputs():
    with pytest.raises(ValueError):
        geodesic(X0, np.array([0.0, 2.0, 0.0]), 1.0)


def test_frame_at_standard():
    B, Bp, nh = frame_at(B_STD, X0)
    np.testing.assert_allclose(B, B_STD, atol=1e-14)
    np.testing.assert_allclose(Bp, BPERP_STD, atol=1e-14)
    np.testing.assert_allclose(nh, NHAT_STD, atol=1e-14)


def test_frame_killing_gram(rng):
    g = random_group_elem(rng)
    B = g @ B_STD @ lorentz.sharp_adj(g)
    X = g @ X0
    fr = frame_at(B, X)
    G = np.array([[killing(a, b) for b in fr] for a in fr])
    np.testing.assert_allclose(G, np.diag([2.0, 2.0, -2.0]), atol=1e-10)


def test_frame_equivariance(rng):
    for _ in range(10):
        g = random_group_elem(rng)
        B0, Bp0, nh0 = frame_at(B_STD, X0)
        fr = frame_at(g @ B_STD @ lorentz.sharp_adj(g), g @ X0)
        for got, base in zip(fr, (B0, Bp0, nh0)):
            np.testing.assert_allclose(
                got, g @ base @ lorentz.sharp_adj(g), atol=1e-10 * max(1, np.abs(got).max())
            )


def test_frame_rejects_elliptic_generator():
    with pytest.raises(FrameError):
        frame_at(NHAT_STD, X0)


def test_axis_point(rng):
    for _ in range(10):
        g = random_group_elem(rng)
        B = g @ B_STD @ lorentz.sharp_adj(g)
        X = axis_point(B)
        assert is_on_hyperboloid(X, 1e-9)
        np.testing.assert_allclose(B @ B @ X, X, atol=1e-8)
