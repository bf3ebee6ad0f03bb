"""Triangulated fundamental octagon with side-pairing identifications.

All mesh data lives in one fundamental-domain chart (a triangulated copy of
the regular octagon on the hyperboloid); equivariance is imposed through
vertex classes: every chart vertex i carries a lift word w_i with
position(i) = sigma(w_i) . position(representative).  The words are stored
as a table of the distinct ones (11 at any level >= 1) and one index per
vertex.  The flat connection is literal matrix transport: a discrete
ad-valued 1-form has one so(2,1) value per chart edge, stored as its
R^{2,1} vector w, and crossing the paired boundary is Ad(g) hat(w) =
hat(g w): the pairing letter's image g in the pairing_images() table of
whichever representation the form is equivariant for, applied to the
vector.  The mesh stores no pairing words; its corners and union-find
words are fuchsian's OCTAGON_VERTICES and PAIRING_WORDS.

The pairing x_k maps side k+4 onto side k and reverses its direction, so the
i-th vertex of side k+4 is paired with the i-th vertex from the end of side
k.  The mesh is the one place that knows this: it stores the paired vertices
(`boundary_pairs`) and the paired edges with their orientation signs
(`edge_twins`) once, at build time, and no other module reads them:
`validate` checks the paired vertices through `pairing_drift`, and
`edge_average` carries the solver's currents across the paired sides.
Outside the package, the test oracles' crossing integrals read them too.

Every subdivision level (`_refine`), the edge table (`_edge_table`) and every
geometry array are built once, by array code over the triangle corners.  The
parent-edge table of every refinement is kept, and with it the vertex-class
graph of every level and the prolongations between them (`ClassHierarchy`),
on which the solver's preconditioner runs its V-cycle; `start_points`
replays the refinements on a target rep's octagon for the solver's start.
Per-triangle areas are exact (hyperbolic angle defect), so the total is 4 pi
at every level.  Edge data (Maurer-Cartan form, solver currents) are
first-order midpoint discretizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fuchsian import (
    OCTAGON_VERTICES,
    PAIRING_WORDS,
    SurfaceGroupRep,
    Word,
    octagon_representation,
)
from .lorentz import log_map, mink_cross_vec, mink_dot, normalize_to_hyperboloid

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
    boundary_pairs: np.ndarray    # (nb, 3) rows (u, v, k): sigma(x_k) pos_u = pos_v, u on side k+4
    edge_twins: tuple             # per pairing k: (edge ids on side k+4, twin ids on side k, signs)
    areas: np.ndarray             # (nt,) exact angle-defect areas
    edges: np.ndarray             # (ne, 2) sorted vertex pairs
    tri_edges: np.ndarray         # (nt, 3) edge ids of the corner-slot edges (i,j), (j,k), (k,i)
    tri_edge_sign: np.ndarray     # (nt, 3) +1 where that directed edge has the canonical orientation
    tri_coords: np.ndarray        # (nt, 3, 2) corner coordinates in the domain chart
    tri_dxinv: np.ndarray         # (nt, 2, 2) inverse of the edge-coordinate matrix
    circumcenters: np.ndarray     # (nt, 3)
    frames: np.ndarray            # (nt, 2, 3) orthonormal oriented frame at the circumcenter
    # per refinement l < level, the (ne_l, 2) level-l edges: vertex n_l + e is
    # the midpoint of edge e, where n_l counts the level-l vertices, which
    # keep their ids at every finer level
    parent_edges: tuple
    class_hierarchy: ClassHierarchy  # the vertex classes of every level down to level 0

    @property
    def n_classes(self) -> int:
        return len(self.class_rep_vertex)

    @cached_property
    def edge_normals(self) -> np.ndarray:
        """(nt, 3, 2) each triangle's slot edge vectors in the domain chart,
        in canonical orientation (lower to higher vertex id), rotated by -90
        degrees: (x, y) -> (y, -x).  A current's slot values are its
        per-triangle block applied to these; built on first use."""
        xi = self.tri_edge_sign[..., None] * (np.roll(self.tri_coords, -1, axis=1) - self.tri_coords)
        return np.stack([xi[..., 1], -xi[..., 0]], axis=-1)

    @cached_property
    def maurer_cartan(self) -> DiscreteOneForm:
        """First-order discrete dx cross x: edge value (head - tail) x
        midpoint, built on first use."""
        tail, head = self.vertices[self.edges[:, 0]], self.vertices[self.edges[:, 1]]
        return DiscreteOneForm(self, mink_cross_vec(head - tail, _midpoint(tail, head)))

    def lift_matrices(self, rep: SurfaceGroupRep) -> np.ndarray:
        """(nv, 3, 3) images of the vertex lift words under `rep`."""
        return np.array([rep.evaluate(w) for w in self.lift_words])[self.lift_id]

    def start_points(self, rep: SurfaceGroupRep) -> np.ndarray:
        """(nc, 3) class points of the rep-equivariant map onto rep's own
        octagon: corner i goes to rep(w_i) applied to the corner class's
        chart point, the centre to the normalized mean of those eight, and
        every finer vertex to the midpoint of its parent edge's images, in
        the order the refinement made them.  rep(g) is linear and keeps the
        sheet, so it commutes with normalized midpoints, and the map is
        equivariant; for the mesh's own rep it is the chart, to rounding.
        Only the eight corner words are evaluated."""
        Z = np.empty_like(self.vertices)
        base = self.vertices[self.class_rep_vertex[self.vertex_class[1]]]
        Z[1:9] = [rep.evaluate(self.lift_words[i]) @ base for i in self.lift_id[1:9]]
        Z[0] = normalize_to_hyperboloid(Z[1:9].mean(axis=0))
        n = 9
        for edges in self.parent_edges:
            Z[n:n + len(edges)] = _midpoint(Z[edges[:, 0]], Z[edges[:, 1]])
            n += len(edges)
        return Z[self.class_rep_vertex]

    def pairing_drift(self, points: np.ndarray, rep: SurfaceGroupRep) -> float:
        """Max |rep(x_k) points[u] - points[v]| over the boundary pairs (u, v, k)."""
        u, v, k = self.boundary_pairs.T
        mats = rep.pairing_images()
        return max(float(np.abs(points[u[k == j]] @ mats[j].T - points[v[k == j]]).max()) for j in range(4))

    def validate(self):
        if self.pairing_drift(self.vertices, self.rep) > PAIRING_TOL:
            raise MeshError("paired boundary vertices do not match under the pairing isometry")
        lifts = self.lift_matrices(self.rep)
        roots = self.vertices[self.class_rep_vertex[self.vertex_class]]
        if float(np.abs(np.einsum("vab,vb->va", lifts, roots) - self.vertices).max()) > PAIRING_TOL:
            raise MeshError("vertex lift word does not reproduce the chart position")
        dets = np.linalg.det(self.vertices[self.triangles].transpose(0, 2, 1))
        if not (dets > 0).all():
            raise MeshError("negatively oriented triangle")
        return self


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
    parent_edges = []
    for _ in range(level):
        vertices, triangles, chains, edges = _refine(vertices, triangles, chains)
        parent_edges.append(edges)
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
    class_hierarchy = _class_hierarchy(triangles, vertex_class, root[first], parent_edges)

    # geometry, over the corners P[:, c] of every triangle
    P = vertices[triangles]                                        # (nt, 3, 3)
    u, v = log_map(P, np.roll(P, -1, axis=1)), log_map(P, np.roll(P, -2, axis=1))
    cu = mink_dot(u, v) / np.sqrt(mink_dot(u, u) * mink_dot(v, v))
    angles = np.arccos(np.clip(cu, -1.0, 1.0))                     # (nt, 3) at each corner
    areas = np.pi - (angles[:, 0] + angles[:, 1] + angles[:, 2])

    # hyperbolic circumcenter: the timelike direction orthogonal to the chordal
    # edge vectors; the normalized barycenter for obtuse/degenerate data
    normal = mink_cross_vec(P[:, 1] - P[:, 0], P[:, 2] - P[:, 0])
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
        boundary_pairs=boundary_pairs.reshape(-1, 3),
        edge_twins=edge_twins,
        areas=areas,
        edges=edges,
        tri_edges=tri_edges,
        tri_edge_sign=tri_edge_sign,
        tri_coords=tri_coords,
        tri_dxinv=tri_dxinv,
        circumcenters=circum,
        frames=frames,
        parent_edges=tuple(parent_edges),
        class_hierarchy=class_hierarchy,
    )
    return mesh.validate()


# ---------------------------------------------------------------------------
# the vertex-class hierarchy
# ---------------------------------------------------------------------------

@dataclass
class ClassGraph:
    """The vertex classes of one subdivision level, joined to themselves and
    to the classes they share a triangle edge with.  Vertices keep their ids
    under refinement, so a class of level-l vertices holds no finer vertex
    and the classes of level l are the mesh's classes 0..n-1.  The slots are
    the distinct pairs (rows[k], cols[k]) in row-major order, row i from
    slot starts[i], and diag[i] is the slot of (i, i)."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    starts: np.ndarray
    diag: np.ndarray


@dataclass
class Prolongation:
    """The map P from the classes of one level to those of the next finer
    one: classes below the coarse count are injected, and the finer level's
    class coarse_n + m is taken from the two ends mid[m, 1:] of its parent
    edge, seen from its vertex mid[m, 0].  P's entries, in row order, are
    the injections and then two per midpoint class: columns `cols`, row i
    from entry starts[i].  `r_perm` sorts them by column, with rows `r_rows`
    (the pattern of P^T, row j from r_starts[j]).  `galerkin` (4, n) lists
    the products of P^T A P: the slot of A on the finer graph, the entries
    of P on that slot's row and on its column, and the slot on the coarser
    graph."""

    mid: np.ndarray
    cols: np.ndarray
    starts: np.ndarray
    r_perm: np.ndarray
    r_rows: np.ndarray
    r_starts: np.ndarray
    galerkin: np.ndarray


@dataclass
class ClassHierarchy:
    """The class graphs of every level, this mesh's first, down to level 0,
    with prolongations[i] from graphs[i + 1] to graphs[i]; `edge_slots` (2,
    3, nt) are the slots of (a, b) and (b, a) on graphs[0] for the classes
    a, b at the ends of slot edge k of triangle t (`_edge_table`'s order).
    The two largest tables, `edge_slots` and `galerkin`, are int32."""

    edge_slots: np.ndarray
    graphs: list
    prolongations: list


def _graph(rows, cols, n: int):
    """The distinct pairs among (rows, cols) as a ClassGraph on n classes,
    and the slot of every given pair."""
    keys, slot = np.unique(rows * n + cols, return_inverse=True)
    rows, cols = np.divmod(keys, n)
    ids = np.arange(n)
    return ClassGraph(n, rows, cols, np.searchsorted(rows, ids), np.searchsorted(keys, ids * (n + 1))), slot


def _class_hierarchy(triangles, vc, class_rep_vertex, parent_edges) -> ClassHierarchy:
    """The ClassHierarchy of the mesh with these triangles, vertex classes
    vc, class representatives and per-refinement parent-edge tables."""
    nc = len(class_rep_vertex)
    a, b = vc[triangles.T].ravel(), vc[np.roll(triangles, -1, axis=1).T].ravel()
    ids = np.arange(nc)
    fine, slot = _graph(np.concatenate([a, b, ids]), np.concatenate([b, a, ids]), nc)
    graphs, prolongations, n_vertices = [fine], [], len(vc)
    two = np.arange(2)
    for edges in reversed(parent_edges):
        n_vertices -= len(edges)
        nc = int(vc[:n_vertices].max()) + 1
        # each midpoint class by its representative, a vertex of the finer level
        v = class_rep_vertex[nc:fine.n]
        mid = np.column_stack([v, edges[v - n_vertices]])
        cols = np.concatenate([np.arange(nc), vc[mid[:, 1:]].ravel()])
        starts = np.concatenate([np.arange(nc), nc + 2 * np.arange(fine.n - nc)])
        r_perm = np.argsort(cols, kind="stable")
        # every slot (a, b) of the finer graph with each entry of P on rows a
        # and b: one on a row below the coarse count, two on a midpoint class's
        a, b = fine.rows[:, None, None], fine.cols[:, None, None]
        use = (two[:, None] <= (a >= nc)) & (two <= (b >= nc))
        s, k1, k2 = (np.broadcast_to(x, use.shape)[use] for x in
                     (np.arange(len(fine.rows))[:, None, None], starts[a] + two[:, None], starts[b] + two))
        coarse, coarse_slot = _graph(cols[k1], cols[k2], nc)
        prolongations.append(Prolongation(
            mid, cols, starts, r_perm, np.searchsorted(starts, r_perm, side="right") - 1,
            np.searchsorted(cols[r_perm], np.arange(nc)), np.array([s, k1, k2, coarse_slot], dtype=np.int32)))
        graphs.append(coarse)
        fine = coarse
    return ClassHierarchy(slot[:-len(ids)].astype(np.int32).reshape(2, 3, -1), graphs, prolongations)


# ---------------------------------------------------------------------------
# discrete 1-forms
# ---------------------------------------------------------------------------

@dataclass
class DiscreteOneForm:
    """One so(2,1) value per directed chart edge, antisymmetric under reversal,
    stored as its R^{2,1} vector.

    Stored on the canonical orientation (i < j).
    """

    mesh: FundamentalMesh
    values: np.ndarray  # (ne, 3)

    def tri_values(self) -> np.ndarray:
        """(nt, 3, 3) values on each triangle's directed edges (i,j), (j,k), (k,i)."""
        return self.mesh.tri_edge_sign[..., None] * np.take(self.values, self.mesh.tri_edges, axis=0)


def edge_average(mesh: FundamentalMesh, tri_values: np.ndarray, rep: SurfaceGroupRep) -> DiscreteOneForm:
    """The form whose edge value is the mean of its two slot values in
    tri_values (nt, 3, 3), on the canonical orientation: from its two
    triangles, or from its one triangle and its twin's, carried by rep."""
    slots, ne = mesh.tri_edges.ravel(), len(mesh.edges)
    own = np.stack([np.bincount(slots, entry, ne) for entry in tri_values.reshape(-1, 3).T], axis=-1)
    total = own.copy()
    mats = rep.pairing_images()
    for k, (far, near, sign) in enumerate(mesh.edge_twins):
        # pulling the side-k value back to side k+4 uses x_k^-1,
        # pushing side k+4 to side k uses x_k
        g, g_inv = mats[k], mats[k + 4]
        total[far] += sign[:, None] * (own[near] @ g_inv.T)
        total[near] += sign[:, None] * (own[far] @ g.T)
    return DiscreteOneForm(mesh, 0.5 * total)


def closedness_residual(form: DiscreteOneForm) -> float:
    """Max over triangle loops of |sum of edge values| / local mass.

    In the chart the flat connection is trivial, so interior loops need no
    transport; the normalization by the local 1-form mass makes the residual
    O(h^2) for midpoint-sampled gradients, O(h) for the solver currents and
    O(1) for random data, with 0/0 treated as 0.  The euclidean norm of the
    vectors is the Frobenius norm of their matrices over sqrt2, which the
    ratio cancels.
    """
    # the slot and coordinate sums are spelled out: numpy's reductions over
    # axes of length 3 cost more than the arithmetic
    vals = form.tri_values()
    loop = vals[:, 0] + vals[:, 1] + vals[:, 2]
    loop = np.sqrt(loop[:, 0] ** 2 + loop[:, 1] ** 2 + loop[:, 2] ** 2)
    sq = vals * vals
    norms = np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])
    mass = norms[:, 0] + norms[:, 1] + norms[:, 2]
    nonzero = mass > 0
    return float((loop[nonzero] / mass[nonzero]).max(initial=0.0))


def _triangle_wedges(phi: DiscreteOneForm, psi: DiscreteOneForm) -> np.ndarray:
    """Whitney-form wedge of two edge cochains on every oriented triangle.

    With edge slots 01, 12, 20 the wedge is the Killing contraction
    (p01, q12 - q20) + (p12, q20 - q01) + (p20, q01 - q12), over 6; on the
    vectors the Killing form is 2 (,)#.
    """
    if phi.mesh is not psi.mesh:
        raise MeshError("the wedge requires forms on the same mesh")
    p, q = phi.tri_values(), psi.tri_values()
    q0, q1, q2 = q[:, 0], q[:, 1], q[:, 2]
    pdq = p[:, 0] * (q1 - q2) + p[:, 1] * (q2 - q0) + p[:, 2] * (q0 - q1)
    return (pdq[:, 0] + pdq[:, 1] - pdq[:, 2]) / 3.0


def triangle_wedge_density(phi: DiscreteOneForm, psi: DiscreteOneForm) -> np.ndarray:
    """Per-triangle *(phi wedge psi): the wedge integral divided by exact area."""
    return _triangle_wedges(phi, psi) / phi.mesh.areas

