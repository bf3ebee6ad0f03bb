"""Triangulated fundamental octagon with side-pairing identifications.

All mesh data lives in one fundamental-domain chart (a triangulated copy of
the regular octagon on the hyperboloid); equivariance is imposed through
vertex classes: every chart vertex i carries a lift word w_i with
position(i) = sigma(w_i) . position(representative).  The words are stored
as a table of the distinct ones (11 at any level >= 1) and one index per
vertex.  The flat connection is literal matrix transport: a discrete
ad-valued 1-form has one value per chart edge, and crossing the paired
boundary conjugates by the pairing letter's image in the pairing_images()
table of whichever representation the form is equivariant for.  The mesh
stores no pairing words; its corners and union-find words are fuchsian's
OCTAGON_VERTICES and PAIRING_WORDS.

The pairing x_k maps side k+4 onto side k and reverses its direction, so the
i-th vertex of side k+4 is paired with the i-th vertex from the end of side
k.  The mesh is the one place that knows this: it stores the paired vertices
(`boundary_pairs`) and the paired edges with their orientation signs
(`edge_twins`) once, at build time, and every consumer reads those arrays.

Every subdivision level (`_refine`), the edge table (`_edge_table`) and every
geometry array are built once, by array code over the triangle corners.
Per-triangle areas are exact (hyperbolic angle defect), so the total is 4 pi
at every level; the first-order chord areas are kept alongside for
convergence diagnostics.  Edge data (Maurer-Cartan form, solver currents) are
first-order midpoint discretizations.

Cocycle extraction rests on one tree primitive per form: F(v) is the form
summed along a breadth-first tree from the octagon centre.  For each pairing
x_k, the crossing integral is I(x_k) = F(y) - Ad(rep(x_k)) F(y'), with y the
middle vertex of side k and y' its twin on side k+4; a word's value composes
these along its pairing letters by the cocycle rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycle import Cocycle, compose
from .fuchsian import (
    LETTER_X_WORDS,
    OCTAGON_VERTICES,
    PAIRING_WORDS,
    SurfaceGroupRep,
    Word,
    as_word,
    octagon_representation,
)
from .lorentz import cross, log_map, mink_cross_vec, mink_dot, normalize_to_hyperboloid

PAIRING_TOL = 1e-10


class MeshError(ValueError):
    """Raised on pairing mismatches or malformed mesh data."""


def _midpoint(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Exact geodesic midpoint: the normalized Euclidean average.

    Broadcasts over leading axes; the average of two points of the upper
    sheet is always future timelike, so no sign or timelike check is needed.
    """
    M = 0.5 * (X + Y)
    return M / np.sqrt(-mink_dot(M, M))[..., None]


def _first_appearance(keys: np.ndarray):
    """Ids 0, 1, ... for the distinct keys in the order they first occur, and
    the position of each key's first occurrence, in id order."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse], first[order]


def _edge_code(a, b):
    return np.minimum(a, b) * (1 << 32) + np.maximum(a, b)


def _edge_table(tris: np.ndarray):
    """Number the corner-slot edges (i,j), (j,k), (k,i) of every triangle in
    first-appearance order: (edges (ne, 2) as sorted pairs, tri_edges (nt, 3),
    tri_edge_sign (nt, 3), +1 where the slot runs from the lower id)."""
    head = np.roll(tris, -1, axis=1)
    tri_edges, first = _first_appearance(_edge_code(tris, head).ravel())
    slots = np.stack([np.minimum(tris, head), np.maximum(tris, head)], axis=-1).reshape(-1, 2)
    return slots[first], tri_edges.reshape(tris.shape), np.where(tris < head, 1.0, -1.0)


def _edge_ids(edges: np.ndarray, a, b):
    """Ids in `edges` of the vertex pairs {a, b}, and the sign +1 where a < b."""
    a, b = np.asarray(a), np.asarray(b)
    codes = _edge_code(edges[:, 0], edges[:, 1])
    order = np.argsort(codes)
    want = _edge_code(a, b)
    ids = order[np.minimum(np.searchsorted(codes, want, sorter=order), len(codes) - 1)]
    if not np.array_equal(codes[ids], want):
        raise MeshError("vertex pair is not a mesh edge")
    return ids, np.where(a < b, 1.0, -1.0)


def _refine(verts: np.ndarray, tris: np.ndarray, chains: np.ndarray):
    """One 1:4 subdivision: every edge gains its geodesic midpoint, every
    triangle (i, j, k) becomes (i, a, c), (a, j, b), (c, b, k), (a, b, c) with
    a, b, c the midpoints of its slots (i,j), (j,k), (k,i), and every side
    chain gains the midpoints of its edges.  The midpoint of parent edge e,
    the returned `edges[e]`, is vertex len(verts) + e (the prolongation map)."""
    edges, tri_edges, _ = _edge_table(tris)
    n = len(verts)
    verts = np.concatenate([verts, _midpoint(verts[edges[:, 0]], verts[edges[:, 1]])])
    (i, j, k), (a, b, c) = tris.T, (n + tri_edges).T
    tris = np.stack([i, a, c, a, j, b, c, b, k, a, b, c], axis=1).reshape(-1, 3)
    refined = np.empty((len(chains), 2 * chains.shape[1] - 1), dtype=chains.dtype)
    refined[:, ::2] = chains
    refined[:, 1::2] = n + _edge_ids(edges, chains[:, :-1], chains[:, 1:])[0]
    return verts, tris, refined, edges


@dataclass
class FundamentalMesh:
    rep: SurfaceGroupRep
    level: int
    vertices: np.ndarray          # (nv, 3) chart positions on the hyperboloid
    triangles: np.ndarray         # (nt, 3) positively oriented corner indices
    vertex_class: np.ndarray      # (nv,) class ids
    lift_words: tuple             # distinct lift Words
    lift_id: np.ndarray           # (nv,) pos_i = sigma(lift_words[lift_id[i]]) pos_rep(class)
    class_rep_vertex: np.ndarray  # (nc,) chart index of each class representative
    side_chains: np.ndarray       # (8, m) ordered vertex ids along the sides
    boundary_pairs: np.ndarray    # (nb, 3) rows (u, v, k): sigma(x_k) pos_u = pos_v, u on side k+4
    edge_twins: tuple             # per pairing k: (edge ids on side k+4, twin ids on side k, signs)
    areas: np.ndarray             # (nt,) exact angle-defect areas
    chord_areas: np.ndarray       # (nt,) embedded flat areas (first order)
    edges: np.ndarray             # (ne, 2) sorted vertex pairs
    tri_edges: np.ndarray         # (nt, 3) edge ids of the corner-slot edges (i,j), (j,k), (k,i)
    tri_edge_sign: np.ndarray     # (nt, 3) +1 where that directed edge has the canonical orientation
    tri_coords: np.ndarray        # (nt, 3, 2) corner coordinates in the domain chart
    tri_dxinv: np.ndarray         # (nt, 2, 2) inverse of the edge-coordinate matrix
    circumcenters: np.ndarray     # (nt, 3)
    frames: np.ndarray            # (nt, 2, 3) orthonormal oriented frame at the circumcenter
    min_angle: float

    @property
    def n_classes(self) -> int:
        return len(self.class_rep_vertex)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def lift_matrices(self, rep: SurfaceGroupRep) -> np.ndarray:
        """(nv, 3, 3) images of the vertex lift words under `rep`."""
        return np.array([rep.evaluate(w) for w in self.lift_words])[self.lift_id]

    def edge_ids(self, a, b):
        """Edge ids of the vertex pairs (a, b) and the signs, +1 where a < b."""
        return _edge_ids(self.edges, a, b)

    def pairing_drift(self, points: np.ndarray, rep: SurfaceGroupRep) -> float:
        """Max |rep(x_k) points[u] - points[v]| over the boundary pairs (u, v, k)."""
        u, v, k = self.boundary_pairs.T
        mats = rep.pairing_images()
        return max(float(np.abs(points[u[k == j]] @ mats[j].T - points[v[k == j]]).max()) for j in range(4))

    def validate(self, tol: float = PAIRING_TOL):
        if self.pairing_drift(self.vertices, self.rep) > tol:
            raise MeshError("paired boundary vertices do not match under the pairing isometry")
        lifts = np.array([self.rep.evaluate(w) for w in self.lift_words])[self.lift_id]
        roots = self.vertices[self.class_rep_vertex[self.vertex_class]]
        if float(np.abs(np.einsum("vab,vb->va", lifts, roots) - self.vertices).max()) > tol:
            raise MeshError("vertex lift word does not reproduce the chart position")
        dets = np.linalg.det(self.vertices[self.triangles].transpose(0, 2, 1))
        if not (dets > 0).all():
            raise MeshError("negatively oriented triangle")
        return self

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "vertices": self.vertices.tolist(),
            "triangles": self.triangles.tolist(),
            "pairings": [
                {"side": k, "word": str(w), "matrix": g.tolist()}
                for k, (w, g) in enumerate(zip(PAIRING_WORDS, self.rep.pairing_images()))
            ],
        }


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

class _UnionFind:
    """Union-find whose edges carry words: pos(i) = sigma(word_i) pos(root)."""

    def __init__(self):
        self.parent, self.word = {}, {}

    def find(self, i):
        if i not in self.parent:
            return i, Word()
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


def build_octagon_mesh(level: int) -> FundamentalMesh:
    """Fan-triangulated regular octagon, `level` rounds of 1:4 subdivision.

    The mesh belongs to the octagon representation, its `rep`; it stores no
    pairing words, and readers take the pairing images from a rep's
    pairing_images().  A pairing mismatch raises MeshError.
    """
    corners = np.arange(1, 9)
    vertices = np.concatenate([[[0.0, 0.0, 1.0]], OCTAGON_VERTICES])
    triangles = np.stack([np.zeros(8, dtype=int), np.roll(corners, 1), corners], axis=1)
    chains = np.stack([np.roll(corners, 1), corners], axis=1)
    for _ in range(level):
        vertices, triangles, chains, _ = _refine(vertices, triangles, chains)
    edges, tri_edges, tri_edge_sign = _edge_table(triangles)

    # x_k maps side k+4 onto side k and reverses its direction, so the i-th
    # vertex of side k+4 pairs with the i-th from the end of side k
    far, near = chains[4:], chains[:4, ::-1]
    boundary_pairs = np.stack([far, near, np.broadcast_to(np.arange(4)[:, None], far.shape)], axis=-1)
    # paired edges; the sign is -1 where x_k reverses the canonical orientation
    (far_ids, far_sign), (near_ids, near_sign) = (_edge_ids(edges, c[:, :-1], c[:, 1:]) for c in (far, near))
    edge_twins = tuple(zip(far_ids, near_ids, far_sign * near_sign))

    # vertex classes and lift words; interior vertices are classes of their own
    uf = _UnionFind()
    for k in range(4):
        for u, v in zip(far[k].tolist(), near[k].tolist()):
            uf.union(u, v, PAIRING_WORDS[k + 4])  # pos(u) = sigma(x_k^-1) pos(v)
    root = np.arange(len(vertices))
    lift_id = np.zeros(len(vertices), dtype=int)
    lift_index = {Word(): 0}
    for i in sorted(set(chains.ravel().tolist())):
        root[i], w = uf.find(i)
        lift_id[i] = lift_index.setdefault(w, len(lift_index))
    vertex_class, first = _first_appearance(root)

    # geometry, over the corners P[:, c] of every triangle
    P = vertices[triangles]                                        # (nt, 3, 3)
    u, v = log_map(P, np.roll(P, -1, axis=1)), log_map(P, np.roll(P, -2, axis=1))
    cu = mink_dot(u, v) / np.sqrt(mink_dot(u, u) * mink_dot(v, v))
    angles = np.arccos(np.clip(cu, -1.0, 1.0))                     # (nt, 3) at each corner
    areas = np.pi - (angles[:, 0] + angles[:, 1] + angles[:, 2])

    u, w = P[:, 1] - P[:, 0], P[:, 2] - P[:, 0]
    uw = mink_dot(u, w)
    G = np.stack([np.stack([mink_dot(u, u), uw], -1), np.stack([uw, mink_dot(w, w)], -1)], -2)
    chord_areas = 0.5 * np.sqrt(np.maximum(np.linalg.det(G), 0.0))

    # hyperbolic circumcenter: the timelike direction orthogonal to the chordal
    # edge vectors; the normalized barycenter for obtuse/degenerate data
    normal = mink_cross_vec(u, w)
    bary = (P[:, 0] + P[:, 1] + P[:, 2]) / 3.0
    circum = normalize_to_hyperboloid(np.where((mink_dot(normal, normal) < 0)[:, None], normal, bary))
    V = log_map(circum[:, None], P)                                # (nt, 3, 3)
    E1 = V[:, 0] / np.sqrt(mink_dot(V[:, 0], V[:, 0]))[:, None]
    E2 = mink_cross_vec(circum, E1)  # +90 degrees: (E1, E2) positively oriented
    frames = np.stack([E1, E2], axis=1)
    tri_coords = np.stack([mink_dot(V, E1[:, None]), mink_dot(V, E2[:, None])], axis=-1)
    D = (tri_coords[:, 1:] - tri_coords[:, :1]).transpose(0, 2, 1)  # columns: corner - corner 0
    if not (np.linalg.det(D) > 0).all():
        raise MeshError("triangle chart coordinates are not positively oriented")
    tri_dxinv = np.linalg.inv(D)

    mesh = FundamentalMesh(
        rep=octagon_representation(),
        level=level,
        vertices=vertices,
        triangles=triangles,
        vertex_class=vertex_class,
        lift_words=tuple(lift_index),
        lift_id=lift_id,
        class_rep_vertex=root[first],
        side_chains=chains,
        boundary_pairs=boundary_pairs.reshape(-1, 3),
        edge_twins=edge_twins,
        areas=areas,
        chord_areas=chord_areas,
        edges=edges,
        tri_edges=tri_edges,
        tri_edge_sign=tri_edge_sign,
        tri_coords=tri_coords,
        tri_dxinv=tri_dxinv,
        circumcenters=circum,
        frames=frames,
        min_angle=float(np.degrees(angles.min())),
    )
    return mesh.validate()


# ---------------------------------------------------------------------------
# discrete 1-forms
# ---------------------------------------------------------------------------

@dataclass
class DiscreteOneForm:
    """One so(2,1) value per directed chart edge, antisymmetric under reversal.

    Stored on the canonical orientation (i < j).
    """

    mesh: FundamentalMesh
    values: np.ndarray  # (ne, 3, 3)

    def value(self, i: int, j: int) -> np.ndarray:
        e, sign = self.mesh.edge_ids(i, j)
        return sign * self.values[e]

    def tri_values(self) -> np.ndarray:
        """(nt, 3, 3, 3) values on each triangle's directed edges (i,j), (j,k), (k,i)."""
        return self.mesh.tri_edge_sign[..., None, None] * self.values[self.mesh.tri_edges]

    def __add__(self, other):
        return DiscreteOneForm(self.mesh, self.values + other.values)

    def __sub__(self, other):
        return DiscreteOneForm(self.mesh, self.values - other.values)

    def __mul__(self, c: float):
        return DiscreteOneForm(self.mesh, c * self.values)

    __rmul__ = __mul__


def form_from_edge_function(mesh: FundamentalMesh, fn) -> DiscreteOneForm:
    """Build a form from fn(i, j) evaluated on canonical edge orientations."""
    return DiscreteOneForm(mesh, np.array([fn(int(i), int(j)) for i, j in mesh.edges], dtype=float))


def maurer_cartan(mesh: FundamentalMesh) -> DiscreteOneForm:
    """First-order discrete dx cross x: edge value (head - tail) x midpoint."""
    tail, head = mesh.vertices[mesh.edges[:, 0]], mesh.vertices[mesh.edges[:, 1]]
    return DiscreteOneForm(mesh, cross(head - tail, _midpoint(tail, head)))


def closedness_residual(form: DiscreteOneForm) -> float:
    """Max over triangle loops of |sum of edge values| / local mass.

    In the chart the flat connection is trivial, so interior loops need no
    transport; the normalization by the local 1-form mass makes the residual
    O(h^2) for midpoint-sampled gradients, O(h) for the solver currents and
    O(1) for random data, with 0/0 treated as 0.
    """
    vals = form.tri_values().reshape(form.mesh.n_triangles, 3, -1)
    loop = np.linalg.norm(vals.sum(axis=1), axis=1)
    mass = np.linalg.norm(vals, axis=2).sum(axis=1)
    nonzero = mass > 0
    return float((loop[nonzero] / mass[nonzero]).max(initial=0.0))


def wedge_pair(phi: DiscreteOneForm, psi: DiscreteOneForm) -> float:
    """Discrete symplectic pairing (1/2) int phi wedge psi with Killing contraction."""
    return 0.5 * float(_triangle_wedges(phi, psi).sum())


def _triangle_wedges(phi: DiscreteOneForm, psi: DiscreteOneForm) -> np.ndarray:
    """Whitney-form wedge of two edge cochains on every oriented triangle.

    With edge slots 01, 12, 20 the wedge is the Killing contraction
    (p01, q12 - q20) + (p12, q20 - q01) + (p20, q01 - q12), over 6.
    """
    if phi.mesh is not psi.mesh:
        raise MeshError("the wedge requires forms on the same mesh")
    p, q = phi.tri_values(), psi.tri_values()
    dq = np.roll(q, -1, axis=1) - np.roll(q, -2, axis=1)
    return np.einsum("tsab,tsba->t", p, dq) / 6.0


def triangle_wedge_density(phi: DiscreteOneForm, psi: DiscreteOneForm) -> np.ndarray:
    """Per-triangle *(phi wedge psi): the wedge integral divided by exact area."""
    return _triangle_wedges(phi, psi) / phi.mesh.areas


# ---------------------------------------------------------------------------
# loop integrals / cocycle extraction
# ---------------------------------------------------------------------------

def _primitive(form: DiscreteOneForm) -> np.ndarray:
    """(nv, 3, 3) F(v): the form summed along a breadth-first tree from
    vertex 0, the octagon centre.  Each BFS depth is one frontier step over
    the edge table, in which every new vertex takes its first candidate edge."""
    mesh = form.mesh
    i, j = mesh.edges.T
    F = np.zeros((mesh.n_vertices, 3, 3))
    seen = np.zeros(mesh.n_vertices, dtype=bool)
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
        F[new] = F[old] + sign[:, None, None] * form.values[step[first]]
        seen[new] = True
    return F


def _crossings(form: DiscreteOneForm, rep: SurfaceGroupRep):
    """Crossing integrals and images of the pairing letters: x_k at index k,
    x_k^-1 at k + 4, with I(x_k^-1) = -Ad(rep(x_k)^-1) I(x_k)."""
    mesh = form.mesh
    F = _primitive(form)
    far, near, pairing = mesh.boundary_pairs.T
    mats = rep.pairing_images()
    incr = [None] * 8
    for k in range(4):
        chain = mesh.side_chains[k]
        y = chain[len(chain) // 2]
        yp = far[(pairing == k) & (near == y)][0]
        g, g_inv = mats[k], mats[k + 4]
        incr[k] = F[y] - g @ F[yp] @ g_inv
        incr[k + 4] = -(g_inv @ incr[k] @ g)
    return np.array(incr), mats


def loop_integral(form: DiscreteOneForm, word, rep: SurfaceGroupRep | None = None) -> np.ndarray:
    """alpha(word): the crossing integrals composed along the word's pairing letters.

    rep is the representation whose Ad transports the form across the
    boundary (mesh.rep for sigma-equivariant data like the Maurer-Cartan
    form, the solver's target rep for V_q).  The result satisfies the
    cocycle rule up to the discretization error of the form.
    """
    letters = [k for c in as_word(word).letters for k in LETTER_X_WORDS[c]]
    return compose(letters, *_crossings(form, rep if rep is not None else form.mesh.rep))


def extract_cocycle(form: DiscreteOneForm, rep: SurfaceGroupRep | None = None) -> Cocycle:
    """Cocycle from the generator loop integrals, over one set of crossings."""
    rep = rep if rep is not None else form.mesh.rep
    crossings = _crossings(form, rep)
    return Cocycle(rep, np.array([compose(w, *crossings) for w in LETTER_X_WORDS[::2]]))
