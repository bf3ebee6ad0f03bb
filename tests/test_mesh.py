import numpy as np
import pytest

from stretchlab import lorentz
from stretchlab.cocycle import relator_tangency
from stretchlab.fuchsian import PAIRING_WORDS, RELATOR, Word
from stretchlab.lamination import WeightedMulticurve, pair, standard_measure
from stretchlab.lorentz import B_STD, X0, killing, mink_dot
from oracles import (
    assert_extraction_matches_oracle,
    boundary_pairs_oracle,
    edge_twins_oracle,
    mesh_geometry_oracle,
    mesh_topology_oracle,
)
from stretchlab.mesh import (
    DiscreteOneForm,
    MeshError,
    build_octagon_mesh,
    closedness_residual,
    extract_cocycle,
    form_from_edge_function,
    loop_integral,
    maurer_cartan,
    triangle_wedge_density,
    wedge_pair,
)

LEVELS = (0, 1, 2, 3)


@pytest.fixture(scope="module")
def meshes():
    return {lvl: build_octagon_mesh(lvl) for lvl in LEVELS}


def test_triangle_counts_and_refinement(meshes):
    for lvl in LEVELS:
        assert meshes[lvl].n_triangles == 8 * 4**lvl


def test_exact_area_is_gauss_bonnet(meshes):
    for lvl in LEVELS:
        assert meshes[lvl].areas.sum() == pytest.approx(4 * np.pi, rel=1e-12)
    # level 3 area within 1% of 4 pi ~ 12.566 (trivially, areas are exact)
    assert abs(meshes[3].areas.sum() - 4 * np.pi) <= 0.01 * 4 * np.pi


def test_chord_area_convergence(meshes):
    errs = [abs(meshes[lvl].chord_areas.sum() - 4 * np.pi) for lvl in LEVELS]
    for a, b in zip(errs, errs[1:]):
        assert b < a / 2.5  # O(4^{-level}) in practice


@pytest.mark.parametrize("level", (0, 1, 2, 3, 4))
def test_mesh_arrays_match_triangle_loop(level):
    # the array subdivision, edge table, lift table, geometry and positional
    # pairing against the per-triangle loops, dict numbering, Word union-find
    # and tolerance twin search they replaced, bit for bit
    m = build_octagon_mesh(level)
    topo = mesh_topology_oracle(level)
    for name in ("vertices", "triangles", "side_chains", "edges", "tri_edges", "tri_edge_sign",
                 "vertex_class", "class_rep_vertex"):
        got, want = getattr(m, name), topo[name]
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert [m.lift_words[i] for i in m.lift_id] == topo["vertex_lift"]
    ref = mesh_geometry_oracle(m.vertices, m.triangles)
    for name in ("areas", "chord_areas", "circumcenters", "frames", "tri_coords", "tri_dxinv"):
        assert np.array_equal(getattr(m, name), ref[name]), name
    assert m.min_angle == ref["min_angle"]
    pairs = boundary_pairs_oracle(m.vertices, m.side_chains)
    assert np.array_equal(m.boundary_pairs, np.array(pairs))
    twins = edge_twins_oracle(pairs, m.side_chains, m.edge_ids)
    assert len(m.edge_twins) == len(twins) == 4
    for got, want in zip(m.edge_twins, twins):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_edge_ids_lookup(meshes):
    m = meshes[2]
    a, b = m.edges.T
    ids, sign = m.edge_ids(a, b)
    assert np.array_equal(ids, np.arange(len(m.edges))) and (sign == 1.0).all()
    ids, sign = m.edge_ids(b, a)
    assert np.array_equal(ids, np.arange(len(m.edges))) and (sign == -1.0).all()
    i, j, k = m.triangles[5]
    assert np.array_equal(m.edge_ids([i, j, k], [j, k, i])[0], m.tri_edges[5])
    with pytest.raises(MeshError):
        m.edge_ids(m.triangles[0, 0], m.triangles[-1, 0])


def test_boundary_pairs_match(meshes):
    m = meshes[2]
    for u, v, k in m.boundary_pairs:
        g = m.rep.evaluate(PAIRING_WORDS[k])
        assert np.abs(g @ m.vertices[u] - m.vertices[v]).max() <= 1e-10


def test_vertex_lifts_reproduce_positions(meshes):
    m = meshes[2]
    assert len(set(m.lift_words)) == len(m.lift_words)
    for i, w in enumerate(m.lift_id):
        root = m.class_rep_vertex[m.vertex_class[i]]
        assert np.abs(m.rep.evaluate(m.lift_words[w]) @ m.vertices[root] - m.vertices[i]).max() <= 1e-10


def test_corner_classes_glue_to_one_point(meshes):
    m = meshes[1]
    corner_ids = [ch[0] for ch in m.side_chains] + [ch[-1] for ch in m.side_chains]
    assert len({int(m.vertex_class[i]) for i in corner_ids}) == 1


def test_min_angle(meshes):
    for lvl in LEVELS:
        assert meshes[lvl].min_angle >= 15.0


def test_positively_oriented(meshes):
    m = meshes[2]
    dets = np.linalg.det(m.vertices[m.triangles].transpose(0, 2, 1))
    assert (dets > 0).all()


def test_maurer_cartan_geodesic_edge(meshes):
    # along a unit-speed geodesic edge of length h at X0 in direction e2,
    # the edge value is ~ h B_std
    m = meshes[2]
    omega = maurer_cartan(m)
    # manufactured edge: use the defining formula directly on a tiny geodesic
    from stretchlab.mesh import _midpoint

    h = 0.05
    head = lorentz.geodesic(X0, np.array([0.0, 1.0, 0.0]), h)
    val = lorentz.cross(head - X0, _midpoint(X0, head))
    assert np.abs(val - h * B_STD).max() <= 2e-4  # O(h^3) defect
    # degenerate zero-length edge
    assert np.abs(lorentz.cross(X0 - X0, X0)).max() == 0.0


def test_maurer_cartan_equivariance_across_pairings(meshes):
    # omega is sigma-equivariant: paired edges carry conjugated values
    m = meshes[1]
    omega = maurer_cartan(m)
    twin_vertex = {}
    for u, v, k in m.boundary_pairs:
        twin_vertex.setdefault(k, {})[u] = v
    for k in range(4):
        g = m.rep.evaluate(PAIRING_WORDS[k])
        chain = m.side_chains[(k + 4) % 8]
        for a, b in zip(chain, chain[1:]):
            ta, tb = twin_vertex[k][a], twin_vertex[k][b]
            lhs = g @ omega.value(a, b) @ lorentz.group_inv(g)
            np.testing.assert_allclose(lhs, omega.value(ta, tb), atol=1e-9)


def _gradient_form(mesh, fvals):
    return form_from_edge_function(mesh, lambda i, j: fvals[j] - fvals[i])


def test_closedness_residual_cases(meshes, rng):
    m = meshes[2]
    # exact differences of vertex data: identically closed in the chart
    fvals = np.array([lorentz.random_lie_alg(rng) for _ in range(m.n_vertices)])
    assert closedness_residual(_gradient_form(m, fvals)) <= 1e-12
    # zero form
    zero = DiscreteOneForm(m, np.zeros((len(m.edges), 3, 3)))
    assert closedness_residual(zero) == 0.0
    # random form: O(1)
    rand = DiscreteOneForm(m, np.array([lorentz.random_lie_alg(rng) for _ in m.edges]))
    assert closedness_residual(rand) > 0.05


def test_closedness_residual_midpoint_sampled_gradient(meshes):
    # smooth scalar profile times a fixed Lie value, midpoint-sampled
    # derivative: residual O(h^2) under refinement
    P = lorentz.lie_from_frame_coords(0.2, -0.4, 0.7)

    def sampled_form(m):
        def fn(i, j):
            Xi, Xj = m.vertices[i], m.vertices[j]
            from stretchlab.mesh import _midpoint

            mid = _midpoint(Xi, Xj)
            # f = exp(-d(x, X0)^2): df(edge) via the chain rule at the midpoint
            dmid = np.arccosh(max(-mink_dot(mid, X0), 1.0))
            # d/dt arccosh(-<c(t), X0>) with c'(t) ~ (Xj - Xi)
            denom = np.sqrt(max(mink_dot(mid, X0) ** 2 - 1.0, 1e-30))
            ddot = -mink_dot(Xj - Xi, X0)
            ddist = ddot / denom
            return (-2.0 * dmid * np.exp(-(dmid**2))) * ddist * P

        return form_from_edge_function(m, fn)

    res = [closedness_residual(sampled_form(meshes[lvl])) for lvl in (1, 2, 3)]
    assert res[1] < res[0] / 2.0
    assert res[2] < res[1] / 2.0


def test_wedge_antisymmetry_and_bilinearity(meshes, rng):
    m = meshes[1]
    phi = DiscreteOneForm(m, np.array([lorentz.random_lie_alg(rng) for _ in m.edges]))
    psi = DiscreteOneForm(m, np.array([lorentz.random_lie_alg(rng) for _ in m.edges]))
    assert wedge_pair(phi, phi) == pytest.approx(0.0, abs=1e-12)
    assert wedge_pair(phi, psi) == pytest.approx(-wedge_pair(psi, phi), abs=1e-12)
    assert wedge_pair(2.5 * phi, psi) == pytest.approx(2.5 * wedge_pair(phi, psi), rel=1e-12)


def test_wedge_against_quadrature_on_one_triangle(meshes):
    # constant ambient coordinate forms A dx, B dy: the simplicial wedge is
    # exact on each flat triangle, equal to (A,B)_K times the signed area of
    # the xy-projection (the analytic integral of dx wedge dy)
    from stretchlab.mesh import _triangle_wedges

    A = lorentz.lie_from_frame_coords(1.0, 0.3, 0.0)
    B = lorentz.lie_from_frame_coords(0.4, 1.0, 0.5)
    assert abs(killing(A, B)) > 0.1
    m = meshes[1]

    def coord_form(val, axis):
        def fn(i, j):
            dx = m.vertices[j] - m.vertices[i]
            return val * float(dx[axis])

        return form_from_edge_function(m, fn)

    phi, psi = coord_form(A, 0), coord_form(B, 1)
    wedges = _triangle_wedges(phi, psi)
    for t in (0, 5, 17):
        P = m.vertices[m.triangles[t]][:, :2]
        d1, d2 = P[1] - P[0], P[2] - P[0]
        area_xy = 0.5 * float(d1[0] * d2[1] - d1[1] * d2[0])
        assert wedges[t] == pytest.approx(killing(A, B) * area_xy, rel=1e-12)


def test_array_kernels_match_triangle_loops(meshes, rng):
    # per-triangle loop references for the closedness residual and the wedge
    m = meshes[2]
    phi = DiscreteOneForm(m, np.array([lorentz.random_lie_alg(rng) for _ in m.edges]))
    psi = DiscreteOneForm(m, np.array([lorentz.random_lie_alg(rng) for _ in m.edges]))
    worst, wedges = 0.0, []
    for i, j, k in m.triangles:
        a = [phi.value(x, y) for x, y in ((i, j), (j, k), (k, i))]
        b = [psi.value(x, y) for x, y in ((i, j), (j, k), (k, i))]
        worst = max(worst, np.linalg.norm(a[0] + a[1] + a[2]) / sum(np.linalg.norm(v) for v in a))
        wedges.append(sum(killing(a[s], b[(s + 1) % 3] - b[(s + 2) % 3]) for s in range(3)) / 6.0)
    wedges = np.array(wedges)
    dens = wedges / m.areas
    assert closedness_residual(phi) == pytest.approx(worst, rel=1e-12)
    np.testing.assert_allclose(triangle_wedge_density(phi, psi), dens, rtol=0, atol=1e-12 * np.abs(dens).max())
    assert wedge_pair(phi, psi) == pytest.approx(0.5 * wedges.sum(), rel=1e-12)


def test_loop_integral_zero_form(meshes):
    m = meshes[1]
    zero = DiscreteOneForm(m, np.zeros((len(m.edges), 3, 3)))
    assert np.abs(loop_integral(zero, "a1 b1^-1")).max() == 0.0


def test_loop_integral_recovers_equivariant_function(meshes, rng):
    # equivariant extension f(gamma x) = Ad(sigma(gamma)) f(x) + alpha(gamma):
    # constant f = A0 on the chart extends with alpha = coboundary(A0);
    # chart-difference data is exactly closed and the loop integral recovers
    # a cocycle cohomologous to it
    m = meshes[2]
    rep = m.rep
    A0 = lorentz.lie_from_frame_coords(0.3, -0.2, 0.5)
    Pv = lorentz.lie_from_frame_coords(-0.4, 0.7, 0.1)
    form = _bump_gradient_form(m, A0, Pv, width=20.0)
    alpha = extract_cocycle(form, rep)
    for c in ("a1", "b1", "a2", "b2"):
        meas = standard_measure(WeightedMulticurve(rep, [(c, 1.0)]))
        assert abs(pair(meas, alpha)) <= 1e-9
    # tangency of the extracted cocycle is conditioning-limited (~1e-6), far
    # inside the O(h) contract for loop-integral extraction
    assert relator_tangency(alpha) <= 1e-5


def _bump_gradient_form(m, A0, Pv, width=10.0):
    """Exact differences of a quotient-consistent (equivariant) function."""
    d0 = np.array([np.arccosh(max(-mink_dot(v, X0), 1.0)) for v in m.vertices])
    bump = np.exp(-width * d0**2)
    fvals = A0[None] + bump[:, None, None] * Pv[None]
    return _gradient_form(m, fvals)


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("form_name", ["maurer_cartan", "bump_gradient"])
def test_extraction_matches_bfs_path_oracle(meshes, level, form_name):
    # the tree primitive against per-crossing BFS paths: where the paths
    # differ, so do the sums, by the form's discretization error
    m = meshes[level]
    if form_name == "maurer_cartan":
        form = maurer_cartan(m)
    else:
        form = _bump_gradient_form(
            m, lorentz.lie_from_frame_coords(0.3, -0.2, 0.5), lorentz.lie_from_frame_coords(-0.4, 0.7, 0.1)
        )
    assert_extraction_matches_oracle(form)


def test_extraction_requires_connected_mesh(meshes):
    # a mesh whose edge table misses every edge at vertex 1 cannot be swept
    from dataclasses import replace

    m = meshes[1]
    cut = replace(m, edges=m.edges[(m.edges != 1).all(axis=1)])
    with pytest.raises(MeshError, match="not edge-connected"):
        extract_cocycle(DiscreteOneForm(cut, np.zeros((len(cut.edges), 3, 3))))


def test_loop_integral_relator_residual_for_closed_forms(meshes):
    # exact gradient of consistent data: relator loop ~ 0; the (equivariant
    # but only approximately closed) Maurer-Cartan form: residual O(h)
    m = meshes[2]
    form = _bump_gradient_form(
        m, lorentz.lie_from_frame_coords(0.3, -0.2, 0.5), lorentz.lie_from_frame_coords(-0.4, 0.7, 0.1)
    )
    assert np.abs(loop_integral(form, RELATOR)).max() <= 1e-7
    res = [np.abs(loop_integral(maurer_cartan(meshes[lvl]), RELATOR)).max() for lvl in (1, 2, 3)]
    assert res[1] < res[0] and res[2] < res[1]


def test_loop_integral_cocycle_rule(meshes):
    m = meshes[2]
    form = _bump_gradient_form(
        m, lorentz.lie_from_frame_coords(0.1, 0.4, -0.3), lorentz.lie_from_frame_coords(0.6, -0.2, 0.2)
    )
    w1, w2 = Word.parse("a1"), Word.parse("b1^-1")
    lhs = loop_integral(form, w1 * w2)
    s1 = m.rep.evaluate(w1)
    v2 = loop_integral(form, w2)
    rhs = loop_integral(form, w1) + s1 @ v2 @ lorentz.group_inv(s1)
    scale = 1.0 + float(np.abs(s1).max()) ** 2 * float(np.abs(v2).max())
    np.testing.assert_allclose(lhs, rhs, atol=1e-11 * scale)


def test_mesh_json_export(meshes, tmp_path):
    import json

    from stretchlab.cli import _write_json

    path = tmp_path / "mesh.json"
    _write_json(tmp_path, "mesh.json", meshes[1].to_json())
    data = json.loads(path.read_text())
    assert data["level"] == 1
    assert len(data["pairings"]) == 8
    assert len(data["triangles"]) == 32
