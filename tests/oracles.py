"""Independent reference computations that the tests compare the library with."""

import numpy as np

from stretchlab import lorentz
from stretchlab.cocycle import Cocycle, differentiate_family
from stretchlab.earthquake import FD_STEP, TwistSpec, twist
from stretchlab.fuchsian import (
    GENERATOR_NAMES,
    LETTER_X_WORDS,
    OCTAGON_VERTICES,
    PAD,
    PAIRING_WORDS,
    RELATOR,
    SurfaceGroupRep,
    Word,
    as_word,
    octagon_representation,
)
from stretchlab.lorentz import log_map, mink_cross_vec, mink_dot
from stretchlab.mesh import _midpoint, extract_cocycle, loop_integral


def exp_series_oracle(A: np.ndarray, terms: int = 30) -> np.ndarray:
    """Plain power-series exponential of a 3x3 matrix."""
    out = np.eye(3)
    term = np.eye(3)
    for n in range(1, terms + 1):
        term = term @ A / n
        out = out + term
    return out


def words_from_codes(codes: np.ndarray) -> list:
    """The Words spelled by the rows of a letter-code array, PAD dropped."""
    return [Word(c for c in row if c != PAD) for row in codes.tolist()]


def finite_difference_cocycle(rep: SurfaceGroupRep, curve: str, weight: float = 1.0, step: float = FD_STEP) -> Cocycle:
    """differentiate_family applied to the exact twist family."""
    return differentiate_family(lambda t: twist(rep, TwistSpec(curve, weight * t)), rep, step)


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


# the fused power-sum recurrence with derivatives that pharmonic's gradient
# ran before it read the accepted trial's power sums


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


# the BFS-path loop integrals that mesh.loop_integral and
# mesh.extract_cocycle used before the tree primitive; unchanged except that
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
    path = np.asarray(path)
    ids, sign = form.mesh.edge_ids(path[:-1], path[1:])
    signed = sign.reshape(sign.shape + (1,) * (form.values.ndim - 1)) * form.values[ids]
    return signed.sum(axis=0, initial=0.0)


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
        chain = mesh.side_chains[k]
        y = chain[len(chain) // 2]
        yp = int(far[(pairing == k) & (near == y)][0])
        g = rep.evaluate(PAIRING_WORDS[k])
        P1 = _path_sum(form, _bfs_path(mesh, base_vertex, y))
        P2 = _path_sum(form, _bfs_path(mesh, yp, base_vertex))
        incr[k] = P1 + g @ P2 @ lorentz.group_inv(g)
        mats[k] = g
        incr[k + 4] = -(lorentz.group_inv(g) @ incr[k] @ g)
        mats[k + 4] = lorentz.group_inv(g)

    # expand the generator word into pairing letters; an inverse letter
    # (odd code) is its generator's x-word inverted here, not read from the table
    letters = []
    for c in word.letters:
        xw = LETTER_X_WORDS[c & ~1]
        if c % 2 == 0:
            letters.extend(xw)
        else:
            letters.extend((k + 4) % 8 for k in reversed(xw))

    total = np.zeros_like(form.values[0])
    prefix = np.eye(3)
    for k in letters:
        total = total + prefix @ incr[k] @ lorentz.group_inv(prefix)
        prefix = prefix @ mats[k]
    return total


def extract_cocycle_oracle(form, rep: SurfaceGroupRep | None = None, base_vertex: int = 0) -> Cocycle:
    """Cocycle from the generator loop integrals."""
    rep = rep if rep is not None else form.mesh.rep
    vals = np.array([loop_integral_oracle(form, n, rep, base_vertex) for n in GENERATOR_NAMES])
    return Cocycle(rep, vals)


def assert_extraction_matches_oracle(form, rep: SurfaceGroupRep | None = None):
    """mesh.extract_cocycle within 1e-11, and mesh.loop_integral on a few
    words and the relator within 1e-9, of the largest oracle generator value."""
    ref = extract_cocycle_oracle(form, rep).values
    scale = float(np.abs(ref).max())
    np.testing.assert_allclose(extract_cocycle(form, rep).values, ref, rtol=0, atol=1e-11 * scale)
    for word in ("a1", "b1^-1", "a2 b2", RELATOR):
        np.testing.assert_allclose(
            loop_integral(form, word, rep), loop_integral_oracle(form, word, rep), rtol=0, atol=1e-9 * scale
        )
