"""Spherical point configurations from recursively subdivided triangle meshes.

A configuration is built by laying a triangular grid over every face of a
closed, convex, triangulated mesh (the three regular deltahedra to start):
grid nodes interior to a face are placed by the inverse area-coordinate
solve on its spherical triangle, nodes on shared edges at equal arc-length
fractions of the edge arc, and the per-face results fuse into one point
set.  The convex hull of that set is again a closed triangulated mesh, so
the step can be applied repeatedly with a sequence of integer pairs.  Every
pass returns that hull: the faces' Caspar-Klug lattice triangles (the
Goldberg-Coxeter construction) once an O(F log F) certificate accepts
them, else qhull's hull of the points.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import ConsistencyError, GeometryError, ParameterError
from .lattice import (
    _bary_numerators,
    lattice_points,
    triangulation_number,
    validate_pair,
)
from .spherical import _signed_excess, _slerp, _solve_interior, _unit

#: two generated points closer than this are treated as duplicates
DEDUP_TOL = 1e-9

#: interior solve batch size, bounds peak memory of the solver temporaries
_CHUNK = 400_000

#: faces or edges per batch of the hull certificate
_CERT_CHUNK = 65_536

#: Shewchuk's static orient3d error bound, (7 + 56 eps) eps with eps = 2^-53
_O3D_ERRBOUND = (7.0 + 56.0 * 2.0**-53) * 2.0**-53

_BASE_NAMES = {
    "tetra": "tetrahedron",
    "tetrahedron": "tetrahedron",
    "octa": "octahedron",
    "octahedron": "octahedron",
    "icosa": "icosahedron",
    "icosahedron": "icosahedron",
}

_BASE_VERTEX_COUNT = {"tetrahedron": 4, "octahedron": 6, "icosahedron": 12}


@dataclass
class TriangleMesh:
    """Closed triangulated mesh with unit-sphere vertices.

    ``vertices`` is (V, 3) float64; ``faces`` is (F, 3) int64 with each
    face counterclockwise as seen from outside.
    """

    vertices: np.ndarray
    faces: np.ndarray

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_faces(self):
        return len(self.faces)


@dataclass
class SphericalConfig:
    """An N-point configuration on the unit sphere plus its provenance."""

    points: np.ndarray
    base: str | None = None
    pairs: tuple = ()
    mesh: TriangleMesh | None = None

    @property
    def n(self):
        return len(self.points)

    def hull(self):
        """The hull triangulation of the points, computed once and cached."""
        if self.mesh is None:
            self.mesh = convex_hull_triangulation(self.points)
        return self.mesh


def canonical_base_name(name):
    try:
        return _BASE_NAMES[str(name).strip().lower()]
    except KeyError:
        raise ParameterError(
            f"unknown base polyhedron {name!r}; expected tetra, octa or icosa"
        ) from None


def base_vertex_count(name):
    return _BASE_VERTEX_COUNT[canonical_base_name(name)]


def expected_cardinality(base, pairs):
    """Closed-form point count: 2 + (V0 - 2) * prod of triangulation numbers."""
    v0 = base_vertex_count(base)
    prod = 1
    for pair in pairs:
        m, n = validate_pair(pair)
        prod *= triangulation_number(m, n)
    return 2 + (v0 - 2) * prod


def _orient_outward(vertices, faces):
    """Flip faces whose normal points toward the origin; returns faces."""
    a = vertices[faces[:, 0]]
    b = vertices[faces[:, 1]]
    c = vertices[faces[:, 2]]
    normals = np.cross(b - a, c - a)
    inward = (normals * (a + b + c)).sum(axis=1) < 0.0
    faces = faces.copy()
    faces[inward] = faces[inward][:, [0, 2, 1]]
    return faces


def base_polyhedron(name):
    """Canonical unit-circumradius regular base mesh.

    Fixed orientations: the tetrahedron uses the alternated cube corners
    (1,1,1)/sqrt(3) etc.; the octahedron's vertices sit on the coordinate
    axes; the icosahedron has vertices on the +z and -z axes with two
    five-vertex rings at z = +-1/sqrt(5), the lower ring rotated by pi/5.
    """
    name = canonical_base_name(name)
    if name == "tetrahedron":
        v = np.array(
            [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
        ) / math.sqrt(3.0)
        f = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]], dtype=np.int64)
    elif name == "octahedron":
        v = np.array(
            [
                [1.0, 0.0, 0.0],
                [-1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, -1.0, 0.0],
                [0.0, 0.0, 1.0],
                [0.0, 0.0, -1.0],
            ]
        )
        f = np.array(
            [[x, y, z] for x in (0, 1) for y in (2, 3) for z in (4, 5)],
            dtype=np.int64,
        )
    else:
        zr = 1.0 / math.sqrt(5.0)
        rr = 2.0 / math.sqrt(5.0)
        upper = [
            (rr * math.cos(2.0 * math.pi * k / 5.0),
             rr * math.sin(2.0 * math.pi * k / 5.0), zr)
            for k in range(5)
        ]
        lower = [
            (rr * math.cos(2.0 * math.pi * k / 5.0 + math.pi / 5.0),
             rr * math.sin(2.0 * math.pi * k / 5.0 + math.pi / 5.0), -zr)
            for k in range(5)
        ]
        v = np.array([(0.0, 0.0, 1.0)] + upper + lower + [(0.0, 0.0, -1.0)])
        f = []
        for k in range(5):
            k1 = (k + 1) % 5
            f.append((0, 1 + k, 1 + k1))
            f.append((1 + k, 6 + k, 1 + k1))
            f.append((1 + k1, 6 + k, 6 + k1))
            f.append((11, 6 + k1, 6 + k))
        f = np.array(f, dtype=np.int64)
    v = _unit(v)
    return TriangleMesh(vertices=v, faces=_orient_outward(v, f))


def _half_edges(faces, n_vertices):
    """The two half-edges of every edge of a closed, consistently oriented mesh.

    Half-edge 3 k + s of face k walks faces[k, s] -> faces[k, (s + 1) % 3].
    Returns the (E, 2) half-edge ids, edges sorted on their (lower,
    higher) vertex key: column 0 walks lower -> higher, column 1 back.  In
    such a mesh every edge is traversed once in each direction, so the
    half-edges with i < j are the edges and the remaining half-edges are
    exactly their reversals.  Raises GeometryError otherwise.
    """
    f = np.asarray(faces, dtype=np.int64)
    i, j = f.ravel(), np.roll(f, -1, axis=1).ravel()
    up, down = np.flatnonzero(i < j), np.flatnonzero(i >= j)
    key = i[up] * n_vertices + j[up]
    twin = j[down] * n_vertices + i[down]
    by_key, by_twin = np.argsort(key), np.argsort(twin)
    key, twin = key[by_key], twin[by_twin]
    if not np.array_equal(key, twin) or np.any(key[1:] == key[:-1]):
        raise GeometryError(
            "mesh is not a closed, consistently oriented 2-manifold "
            "(edge not traversed once in each direction)"
        )
    return np.column_stack([up[by_key], down[by_twin]])


def validate_mesh(mesh, sphere_tol=1e-12):
    """Assert a closed, consistently and outward oriented mesh of unit radii.

    Also checks the Euler characteristic; a non-finite vertex fails the
    radius check.
    """
    v, f = mesh.vertices, mesh.faces
    radii = np.sqrt((v * v).sum(axis=1))
    if not np.all(np.abs(radii - 1.0) <= sphere_tol):
        raise GeometryError("mesh vertices are not on the unit sphere")
    if len(v) - len(_half_edges(f, len(v))) + len(f) != 2:
        raise GeometryError("mesh violates Euler characteristic V - E + F = 2")
    a, b, c = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    if np.any((np.cross(b - a, c - a) * (a + b + c)).sum(axis=1) <= 0.0):
        raise GeometryError("mesh has inward-facing faces")


def _canonical_faces(faces):
    """Each face rolled to start at its smallest index, rows sorted.

    The sort key is the directed edge from a face's first to its second
    vertex, which no other face of a closed oriented mesh walks.
    """
    first = faces.argmin(axis=1)
    faces = np.take_along_axis(faces, (first[:, None] + np.arange(3)) % 3, axis=1)
    return faces[np.argsort(faces[:, 0] * (faces.max() + 1) + faces[:, 1])]


def convex_hull_triangulation(points):
    """Convex hull of on-sphere points as an outward-oriented triangle mesh.

    Faces index the input array, whose order is preserved.  Each face row
    starts at its smallest index and the rows are sorted, as in
    ``subdivide_mesh``'s lattice meshes; ``subdivide_mesh`` calls it only
    for a pass whose lattice mesh the certificate refuses, and ``export``
    and ``metrics --in`` for points read from a file.  Coplanar facet patches
    (several hull points on a common plane circle) come out triangulated
    deterministically for a fixed input ordering.  Every input point must
    be a hull vertex, which holds for any point set on the sphere without
    duplicates.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3 or len(points) < 4:
        raise GeometryError("hull needs at least 4 distinct 3-d points")
    try:
        hull = ConvexHull(points)
    except QhullError as exc:
        raise GeometryError(f"convex hull failed: {exc}") from exc
    used = np.count_nonzero(np.bincount(hull.simplices.ravel(), minlength=len(points)))
    if used != len(points):
        raise GeometryError(
            "input points are not all extreme; hull dropped "
            f"{len(points) - used} of them"
        )
    faces = _orient_outward(points, hull.simplices.astype(np.int64))
    return TriangleMesh(vertices=points, faces=_canonical_faces(faces))


def _canonical_permutation(points):
    """Row order of ``canonical_order``.

    z and theta are compared to 12 decimals, so rounding noise does not
    move rows; theta = -pi counts as pi.
    """
    theta = np.round(np.arctan2(points[:, 1], points[:, 0]), 12)
    theta[theta == -np.round(np.pi, 12)] = np.round(np.pi, 12)
    z = np.round(points[:, 2], 12)
    return np.lexsort((points[:, 1], points[:, 0], theta, z))


def canonical_order(points):
    """Deterministic point ordering: by z, then theta = atan2(y, x), both to
    12 decimals, then (x, y)."""
    return points[_canonical_permutation(points)]


def _lattice_faces(faces, half, n_vertices, pair, pts, is_interior):
    """The lattice triangles of every face for a pass (m, n), Goldberg-Coxeter.

    ``half`` is the parent's edge pairing from ``_half_edges``; it gives
    every half-edge its edge and its twin, the neighbour face and slot.
    Indices follow ``subdivide_mesh``'s blocks: the vertices, g - 1 nodes
    per sorted edge (node k at k/g from its lower end, g = gcd(m, n)),
    then each face's interior nodes.  Point (q1, q2) of face (v0, va, vb)
    has integer weights (w0, alpha, beta) out of T = m^2 + m n + n^2 on
    its corners (``_bary_numerators``).  A face keeps the up and down
    lattice triangles whose centroid lies in its closed triangle; one
    whose centroid is on a parent edge (m = n mod 3) is kept only by the
    face that walks that edge from its lower to its higher index.  A
    corner with a negative weight w_x lies in the neighbour across the
    edge y -> z opposite x, with weights T - w_z on y, T - w_y on z and
    -w_x on the neighbour's third vertex.
    """
    m, n = pair
    t, g = m * m + m * n + n * n, math.gcd(m, n)
    # half-edge s of a face walks faces[:, s] -> nxt[:, s]
    nxt = np.roll(faces, -1, axis=1)
    edge, twin = np.empty((2, faces.size), dtype=np.int64)
    edge[half] = np.arange(len(half))[:, None]
    twin[half] = half[:, ::-1]
    edge, across, slot = (a.reshape(-1, 3) for a in (edge, twin // 3, twin % 3))
    # global index of every lattice point of every face's closed triangle
    local = np.zeros((m + n + 1, m + n + 1), dtype=np.int64)
    local[pts[:, 0] + n, pts[:, 1]] = np.arange(len(pts))
    table = np.empty((len(faces), len(pts)), dtype=np.int64)
    n_int = int(is_interior.sum())
    first = n_vertices + len(half) * (g - 1)
    table[:, is_interior] = first + np.arange(len(faces) * n_int).reshape(
        len(faces), n_int
    )
    corner = np.array([[0, 0], [m, n], [-n, m + n]])
    table[:, local[corner[:, 0] + n, corner[:, 1]]] = faces
    k = np.arange(1, g)
    step = np.roll(corner, -1, axis=0) - corner
    q = corner[:, None] + k[:, None] * step[:, None] // g
    kk = np.stack([g - k, k])[(faces < nxt).astype(np.intp)]
    table[:, local[q[..., 0] + n, q[..., 1]].ravel()] = (
        n_vertices + edge[..., None] * (g - 1) + kk - 1
    ).reshape(len(faces), -1)
    # the up and down triangles whose centroid (the sum of their corners'
    # weights, out of 3T) lies in the closed triangle
    origin = np.stack(np.meshgrid(
        np.arange(-n - 1, m + 1), np.arange(-1, m + n + 1), indexing="ij"
    ), axis=-1).reshape(-1, 1, 1, 2)
    up_down = [[[0, 0], [1, 0], [0, 1]], [[1, 0], [1, 1], [0, 1]]]
    tri = (origin + up_down).reshape(-1, 3, 2)
    alpha, beta = _bary_numerators(tri, m, n)
    w = np.stack([t - alpha - beta, alpha, beta], axis=-1)
    inside = np.all(w.sum(axis=1) >= 0, axis=1)
    tri, w = tri[inside], w[inside]
    # each corner outside the face gets a column of its own: (T - w_y,
    # T - w_z, -w_x) are its weights on the neighbour's (z, y, third)
    # vertices, rolled by the slot of z -> y in the neighbour
    out = w.min(axis=2) < 0
    wo = w[out]
    x = wo.argmin(axis=1)
    u = [t, t, 0] - np.take_along_axis(wo, (x[:, None] + [1, 2, 3]) % 3, axis=1)
    na, nb = u[:, [1, 0, 2]], u[:, [2, 1, 0]]
    loc = local[(m * na - n * nb) // t + n, (n * na + (m + n) * nb) // t]
    s = (x + 1) % 3
    table = np.concatenate(
        [table, table[across[:, s], loc[np.arange(len(s)), slot[:, s]]]], axis=1
    )
    cols = np.empty(out.shape, dtype=np.int64)
    cols[~out] = local[tri[~out][..., 0] + n, tri[~out][..., 1]]
    cols[out] = len(pts) + np.arange(len(s))
    # every face keeps the triangles with no centroid weight 0; one with a
    # 0 opposite vertex x goes to the face walking the edge after x low -> high
    tie = w.sum(axis=1) == 0
    sure = ~tie.any(axis=1)
    low_high = (faces < nxt)[:, (tie[~sure].argmax(axis=1) + 1) % 3]
    n_sure = len(faces) * int(sure.sum())
    lattice = np.empty((n_sure + int(low_high.sum()), 3), dtype=np.int64)
    np.take(table, cols[sure], axis=1, out=lattice[:n_sure].reshape(len(faces), -1, 3))
    lattice[n_sure:] = table[:, cols[~sure]][low_high]
    return lattice


def _is_hull(points, faces):
    """Whether ``faces`` are the convex hull of the on-sphere ``points``.

    Certified when the mesh is closed and consistently oriented with
    V - E + F = 2 (``_half_edges``); every edge is locally convex as in
    STRIPACK (Renka 1997): the apex d across edge a -> b of face (a, b, c),
    a the edge's lower index, lies below its plane, Shewchuk's
    orient3d(a, b, c, d) > 0 beyond his static error bound, so a
    cocircular tie is left to qhull; every face faces outward;
    and the solid angles add up to 4 pi, so no vertex star winds twice.
    The shortest edge must exceed DEDUP_TOL; nearest neighbours are hull
    edges.
    """
    try:
        half = _half_edges(faces, len(points))
    except GeometryError:
        return False
    if len(points) - len(half) + len(faces) != 2:
        return False
    # half-edge 3 k + s starts at corner s of face k, opposite corner s - 1
    corner, apex = faces.ravel(), np.roll(faces, 1, axis=1).ravel()
    xyz = np.ascontiguousarray(points.T)
    for k in range(0, len(half), _CERT_CHUNK):
        h = half[k:k + _CERT_CHUNK]
        a, b, c, d = (xyz[:, x[h[:, i]]] for x in (corner, apex) for i in (0, 1))
        ad, bd, cd = a - d, b - d, c - d
        det = permanent = 0.0
        for u, v, w in ((ad, bd, cd), (bd, cd, ad), (cd, ad, bd)):
            p, q = v[0] * w[1], w[0] * v[1]
            det = det + (p - q) * u[2]
            permanent = permanent + (np.abs(p) + np.abs(q)) * np.abs(u[2])
        convex = np.all(det > _O3D_ERRBOUND * permanent)
        if not (convex and np.all(((a - b) ** 2).sum(axis=0) > DEDUP_TOL**2)):
            return False
    turn = 0.0
    for k in range(0, len(faces), _CERT_CHUNK):
        tri = faces[k:k + _CERT_CHUNK]
        excess = _signed_excess(*(points[tri[:, i]] for i in range(3)))
        if not np.all(excess > 0.0):
            return False
        turn += excess.sum()
    return abs(turn - 4.0 * np.pi) < 2.0 * np.pi


def subdivide_mesh(mesh, pair, base=None):
    """One grid-refinement pass over every face of a closed, oriented mesh.

    Nodes shared between faces are produced exactly once, so the fusion of
    per-face grids never depends on a dedup tolerance: mesh vertices are
    copied, nodes on a shared edge sit at equal arc-length fractions j/g
    (g = gcd(m, n)) of the edge's great-circle arc, and strictly interior
    nodes are found per face by the inverse area-coordinate solve.  The
    arc-length rule for edge nodes depends only on the edge's endpoints,
    so the two faces sharing an edge always agree on its nodes.

    The result's ``mesh`` is the hull of its points, faces as
    ``convex_hull_triangulation`` orders them: the lattice triangles of the
    pass (``_lattice_faces``) when they pass the hull certificate, else
    qhull's hull of the ordered points.  The count is checked against the
    closed form (V - 2) * (m^2 + n^2 + m n) + 2, and the shortest hull edge
    against DEDUP_TOL (nearest neighbours are hull edges; the certificate
    checks it on the lattice route); either failure raises
    ConsistencyError.
    """
    m, n = validate_pair(pair)
    v = np.asarray(mesh.vertices, dtype=np.float64)
    f = np.asarray(mesh.faces, dtype=np.int64)
    radii = np.sqrt((v * v).sum(axis=1))
    if not np.all(np.abs(radii - 1.0) <= 1e-12):
        raise GeometryError("mesh vertices must lie on the unit sphere")
    n_vertices = len(v)
    gamma = triangulation_number(m, n)
    gc = math.gcd(m, n)

    pts = lattice_points(m, n)
    alpha, beta = _bary_numerators(pts, m, n)
    on_a_edge = beta == 0
    on_b_edge = alpha == 0
    on_far_edge = alpha + beta == gamma
    is_interior = ~(on_a_edge | on_b_edge | on_far_edge)
    int_la = alpha[is_interior] / float(gamma)
    int_lb = beta[is_interior] / float(gamma)
    n_int = int(is_interior.sum())

    half = _half_edges(f, n_vertices)

    blocks = [v]
    if gc > 1:
        frac = np.arange(1, gc) / float(gc)
        ends = f.ravel()[half]
        end_a = np.repeat(v[ends[:, 0]], gc - 1, axis=0)
        end_b = np.repeat(v[ends[:, 1]], gc - 1, axis=0)
        target = np.tile(frac, len(half))
        blocks.append(_slerp(end_a, end_b, target))

    if n_int > 0:
        v0 = np.repeat(v[f[:, 0]], n_int, axis=0)
        va = np.repeat(v[f[:, 1]], n_int, axis=0)
        vb = np.repeat(v[f[:, 2]], n_int, axis=0)
        la = np.tile(int_la, len(f))
        lb = np.tile(int_lb, len(f))
        solved = np.empty_like(v0)
        for k in range(0, len(la), _CHUNK):
            sl = slice(k, k + _CHUNK)
            solved[sl] = _solve_interior(v0[sl], va[sl], vb[sl], la[sl], lb[sl])
        blocks.append(solved)

    points = np.concatenate(blocks)
    expected = (n_vertices - 2) * gamma + 2
    if len(points) != expected:
        raise ConsistencyError(
            f"subdivision produced {len(points)} points, expected {expected} "
            f"for pair ({m},{n}) on a {n_vertices}-vertex mesh"
        )
    faces = _lattice_faces(f, half, n_vertices, (m, n), pts, is_interior)
    order = _canonical_permutation(points)
    if _is_hull(points, faces):
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        hull = TriangleMesh(vertices=points[order], faces=_canonical_faces(rank[faces]))
    else:
        hull = convex_hull_triangulation(points[order])
        tri = hull.vertices[hull.faces]
        if ((tri - np.roll(tri, 1, axis=1)) ** 2).sum(axis=2).min() <= DEDUP_TOL**2:
            raise ConsistencyError(
                f"subdivision produced points within {DEDUP_TOL:g} of each other "
                f"for pair ({m},{n}) on a {n_vertices}-vertex mesh"
            )
    return SphericalConfig(points=hull.vertices, base=base, pairs=((m, n),), mesh=hull)


def generate(base, pairs):
    """Full pipeline: base polyhedron refined by a sequence of integer pairs.

    Each pass subdivides the current mesh; its hull (the certified lattice
    mesh, else qhull's, as for the tetrahedron's (1,1), whose cube faces
    are cocircular ties) is the next mesh, and the final one stays attached
    for metric evaluation.  Each pass checks its closed-form count, so the
    point count is 2 + (V0 - 2) * prod_k gamma(m_k, n_k).
    """
    name = canonical_base_name(base)
    pair_list = [validate_pair(p) for p in pairs]
    if len(pair_list) == 0:
        raise ParameterError("sequence must contain at least one integer pair")
    mesh = base_polyhedron(name)
    for pair in pair_list:
        mesh = subdivide_mesh(mesh, pair, base=name).mesh
    return SphericalConfig(
        points=mesh.vertices, base=name, pairs=tuple(pair_list), mesh=mesh
    )
