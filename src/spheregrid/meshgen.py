"""Spherical point configurations from recursively subdivided triangle meshes.

Each pass lays a lattice grid over every face of a closed convex mesh and
returns the hull of the result: its Goldberg-Coxeter lattice triangles once
a certificate accepts them, else qhull's hull (the README has the details).
"""

import concurrent.futures
import math
import os
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
from .sequences import _runs
from .spherical import (
    _cross, _dot, _norm, _signed_excess, _slerp, _solve_interior, project_to_sphere,
)

#: two generated points closer than this are treated as duplicates
DEDUP_TOL = 1e-9

#: interior solve batch size, bounds peak memory of the solver temporaries
_CHUNK = 65_536

#: dtype of every mesh's faces and of a pass's half-edge ids, 3 F = 6 N - 12 of the latter
_INDEX = np.int32

#: rows per ``_chunked`` batch (the certificate's edges, ``_face_checks``, the metrics'
#: face scan); the helper thread's own malloc arena adds about 500 B a row of a batch
#: to the peak RSS, 4 MiB here against 16 MiB (13%) at 32,768 and N = 122,882
_CERT_CHUNK = 8_192

#: processes sharing this one's CPUs, set in each of ``run_sweep``'s workers
_processes = 1

#: peak resident bytes per point of generate then evaluate, the most of three N ~ 2M runs
_BYTES_PER_POINT = 489

#: qhull hulls at least this many points as _LUNES overlapping longitude lunes
_LUNE_GATE = 16_384
_LUNES = 8

#: a lune reaches _LUNE_REACH / sqrt(N) past its sector: the widest empty caps of N
#: uniform random points shrink only like sqrt(log N / N); 10 seeded uniform sets each
#: of 16,384 (which need about 0.09), 60k and 200k points, 3 of 1M, tetra and icosa
#: 200,0 and a turned, permuted icosa 1,1;(4,0)^3 certify in 8 lunes at this reach
_LUNE_REACH = 12.0

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

    ``vertices`` is (V, 3) float64; ``faces`` is (F, 3) int32 with each
    face counterclockwise as seen from outside.  Cast two indices to int64
    before packing them into one key, as the package does itself.
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


def expected_cardinality(base, pairs):
    """Closed-form point count: 2 + (V0 - 2) * prod T(m, n)^k over runs of k equal pairs."""
    return _count(canonical_base_name(base), _runs(pairs))


def _count(name, runs):
    return 2 + (_BASE_VERTEX_COUNT[name] - 2) * math.prod(
        triangulation_number(*p) ** k for p, k in runs)


def _corners(vertices, faces):
    """Component-major (3, F) coordinates of every face's corners a, b and c."""
    xyz = np.ascontiguousarray(np.asarray(vertices, dtype=np.float64).T)
    return [xyz.take(f, axis=1) for f in np.asarray(faces).T]


def _orient_outward(vertices, faces):
    """Flip faces of negative ``_signed_excess``, whose normal points toward
    the origin; returns faces.  The sign of its numerator decides, but
    where that is 0, arctan2(-0.0, x <= 0) may read -pi."""
    a, b, c = _corners(vertices, faces)
    num = _dot(a, _cross(b - a, c - a))
    inward, tie = num < 0.0, num == 0.0
    inward[tie] = _signed_excess(a[:, tie], b[:, tie], c[:, tie]) < 0.0
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
        f = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]], dtype=_INDEX)
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
        f = np.array([[x, y, z] for x in (0, 1) for y in (2, 3) for z in (4, 5)], dtype=_INDEX)
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
        f = np.array(f, dtype=_INDEX)
    v = project_to_sphere(v)
    return TriangleMesh(vertices=v, faces=_orient_outward(v, f))


def _face_indices(faces, n_vertices):
    """``faces`` as int32, uncopied if they are, or GeometryError unless an (F, 3)
    integer array in [0, V)."""
    f = np.asarray(faces)
    if (f.ndim != 2 or f.shape[1] != 3 or not np.issubdtype(f.dtype, np.integer)
            or f.size and (f.min() < 0 or f.max() >= n_vertices)):
        raise GeometryError(f"faces are not an (F, 3) integer array in [0, {n_vertices})")
    return f.astype(_INDEX, copy=False)


def _half_edges(faces, n_vertices, known=()):
    """The two half-edges of every edge of a closed, consistently oriented mesh.

    Half-edge 3 k + s of face k walks faces[k, s] -> faces[k, (s + 1) % 3].
    Returns the (E, 2) int32 half-edge ids, column 0 walking lower -> higher,
    column 1 back: first the ``known`` twins (``_lattice_faces``), given
    in either order, copied in and swapped in place, and checked in O(F),
    then the rest sorted on their (lower, higher) vertex key.  In such a
    mesh every edge is traversed once in each direction, so the half-edges
    with i < j are the edges and the others exactly their reversals.
    Raises GeometryError otherwise, when V - E + F != 2 or 3 F > 2^31, and
    from ``_face_indices``.
    """
    f = _face_indices(faces, n_vertices)
    if 3 * len(f) > np.iinfo(_INDEX).max + 1:
        raise GeometryError(f"{3 * len(f)} half-edge ids; int32 holds 2^31")
    i, j = f.ravel(), np.roll(f, -1, axis=1).ravel()
    upward = i < j
    known = np.asarray(known, dtype=_INDEX).reshape(-1, 2)
    rest = np.ones(len(i), dtype=bool)
    rest[known] = False
    up, down = np.flatnonzero(rest & upward), np.flatnonzero(rest & ~upward)
    del rest
    half = np.empty((len(known) + len(up), 2), dtype=_INDEX)
    a, b = half[:len(known)].T
    half[:len(known)] = known
    flip = ~upward[a]
    a[flip], b[flip] = b[flip], a[flip]
    paired = np.all(upward[a]) and np.array_equal(i[a], j[b]) and np.array_equal(j[a], i[b])
    key = i[up].astype(np.int64) * n_vertices + j[up]
    twin = j[down].astype(np.int64) * n_vertices + i[down]
    del j
    by_key, by_twin = np.argsort(key), np.argsort(twin)
    key, twin = key[by_key], twin[by_twin]
    if (not paired or not np.array_equal(key, twin) or np.any(key[1:] == key[:-1])
            or len(up) + len(down) + 2 * len(a) != len(i)):
        raise GeometryError(
            "mesh is not a closed, consistently oriented 2-manifold "
            "(edge not traversed once in each direction)"
        )
    del key, twin
    if n_vertices - len(half) + len(f) != 2:
        raise GeometryError("mesh violates Euler characteristic V - E + F = 2")
    half[len(known):, 0] = up[by_key]
    half[len(known):, 1] = down[by_twin]
    return half


def validate_mesh(mesh, sphere_tol=1e-12):
    """Assert a closed, consistently and outward oriented mesh of unit radii.

    Also checks the Euler characteristic; a non-finite vertex fails the
    radius check.  Orientation is ``_face_checks``' chunked excess scan.
    """
    v = mesh.vertices
    if not np.all(np.abs(_norm(v.T) - 1.0) <= sphere_tol):
        raise GeometryError("mesh vertices are not on the unit sphere")
    f = _face_indices(mesh.faces, len(v))
    _half_edges(f, len(v))
    _face_checks(np.ascontiguousarray(np.asarray(v, dtype=np.float64).T), f)


def _canonical_faces(faces):
    """Each face rolled to start at its smallest index, rows sorted.

    The sort key is the directed edge from a face's first to its second
    vertex, which no other face of a closed oriented mesh walks; temporaries
    are freed once read, and rows keep their int32 dtype.
    """
    rolled, first = faces.copy(), faces.argmin(axis=1)
    for k in (1, 2):
        rows = np.flatnonzero(first == k)
        rolled[rows] = faces[rows][:, [k, (k + 1) % 3, (k + 2) % 3]]
    del first
    key = rolled[:, 0].astype(np.int64) * (int(rolled.max()) + 1)
    key += rolled[:, 1]
    order = np.argsort(key)
    del key
    return rolled[order]


def _chunked(fn, n, chunk=_CERT_CHUNK):
    """[fn(lo, hi) for each chunk of range(n)] in order, or the first failing
    chunk's error.  From two chunks on, with 2 CPUs to this process's share
    (its CPUs over ``_processes``), a thread living for the call takes chunks
    in turn with this one; on one CPU two threads only contend."""
    starts = range(0, n, chunk)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if n < 2 * chunk or (cpus or 1) // _processes < 2:
        return [fn(k, min(k + chunk, n)) for k in starts]
    values, errors, todo = {}, {}, iter(starts)

    def work():
        for k in todo:  # next() on a range iterator is atomic under the GIL
            try:
                values[k] = fn(k, min(k + chunk, n))
            except Exception as exc:  # raised below, once every earlier chunk ran
                errors[k] = exc
                list(todo)  # hand out no later chunk

    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        helper = pool.submit(work)
        work()
        helper.result()
    if errors:
        raise errors[min(errors)]
    return [values[k] for k in starts]


def _face_checks(xyz, faces):
    """The summed signed excess of ``faces`` on the (3, V) ``xyz`` and their least
    squared edge chord, in ``_chunked`` chunks; GeometryError on an excess <= 0."""
    def scan(lo, hi):
        a, b, c = (xyz.take(x, axis=1) for x in faces[lo:hi].T)
        excess = _signed_excess(a, b, c)
        if not np.all(excess > 0.0):
            raise GeometryError("mesh has inward-facing faces")
        return excess.sum(), min(_dot(e, e).min() for e in (a - b, b - c, c - a))

    turns, least = zip((0.0, np.inf), *_chunked(scan, len(faces)))  # (0.0, inf): no face
    return sum(turns), min(least)


def _lune_hull(points):
    """The hull's canonical faces pieced from longitude lunes, or None.

    Lune k holds the points within _LUNE_REACH / sqrt(N) of the k-th of
    _LUNES sectors about the z axis, and keeps the faces of its qhull hull
    whose centroid, its corners summed in ascending index order (the same
    bits in two lunes), falls in its sector.  qhull runs without its
    pre-merge, depth-first (Q0 Q7), and again merged in its own order only
    after that raises; a union that ``_is_hull`` certifies is the unique
    hull, whichever options built it.  None when a lune has fewer than 4
    points, the merged run fails on one, or ``_is_hull`` refuses the union.
    """
    x, y = points[:, 0], points[:, 1]
    reach = _LUNE_REACH / math.sqrt(len(points))
    edge = -np.pi + 2.0 * np.pi * np.arange(_LUNES + 1) / _LUNES
    # y cos t - x sin t is the signed distance from the plane at longitude
    # t, positive on its counterclockwise side; a non-finite point still
    # ends in the whole-set qhull's error
    with np.errstate(invalid="ignore"):
        lunes = [
            np.flatnonzero((y * np.cos(lo) - x * np.sin(lo) >= -reach)
                           & (y * np.cos(hi) - x * np.sin(hi) <= reach)).astype(_INDEX)
            for lo, hi in zip(edge[:-1], edge[1:])
        ]
    if min(map(len, lunes)) < 4:
        return None

    def kept(k, _):
        # lune ids ascend, so a face's corners sort alike in local and global ids
        part = points[lunes[k]]
        try:
            simplices = ConvexHull(part, qhull_options="Q5 Q0 Q7").simplices
        except QhullError:
            simplices = ConvexHull(part, qhull_options="Q5").simplices
        local = _orient_outward(part, simplices)
        a, b, c = _corners(part, np.sort(local, axis=1))
        centroid = a + b + c
        sector = np.floor(
            (np.arctan2(centroid[1], centroid[0]) + np.pi) * (_LUNES / (2.0 * np.pi))
        ).astype(np.int64) % _LUNES
        return lunes[k][local[sector == k]]

    try:
        faces = np.concatenate(_chunked(kept, _LUNES, 1))
    except QhullError:
        return None
    return _canonical_faces(faces) if _is_hull(points, faces) else None


def convex_hull_triangulation(points):
    """Convex hull of on-sphere points as a triangle mesh, every face facing
    away from the origin (so not consistently oriented for a set that does
    not surround it).  Faces index the input array, whose order is kept;
    rows start at their smallest index and are sorted, as in
    ``subdivide_mesh``.  From _LUNE_GATE points ``_lune_hull`` goes first;
    where it gives None, one qhull run over the whole set gives the faces
    (cocircular ties split alike for a fixed input order) or the error.
    That run uses Q5: no output reads qhull's outer planes.  Every point must
    be a hull vertex, as in any duplicate-free set on the sphere;
    GeometryError otherwise, below 4 points or when qhull fails.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3 or len(points) < 4:
        raise GeometryError("hull needs at least 4 distinct 3-d points")
    if len(points) >= _LUNE_GATE:
        faces = _lune_hull(points)
        if faces is not None:
            return TriangleMesh(vertices=points, faces=faces)
    try:
        hull = ConvexHull(points, qhull_options="Q5")
    except QhullError as exc:  # one line; qhull's whole diagnostic stays on __cause__
        first = str(exc).strip().partition("\n")[0]
        raise GeometryError(f"convex hull failed: {first}") from exc
    used = np.count_nonzero(np.bincount(hull.simplices.ravel(), minlength=len(points)))
    if used != len(points):
        raise GeometryError(
            "input points are not all extreme; hull dropped "
            f"{len(points) - used} of them"
        )
    faces = _orient_outward(points, hull.simplices)
    return TriangleMesh(vertices=points, faces=_canonical_faces(faces))


def _canonical_permutation(points):
    """Row order of ``canonical_order``: one argsort of the int64 key
    rank_z * N + rank_theta (exact for N < 3e9), dense ranks of z and theta
    rounded to 12 decimals so rounding noise does not move rows; theta = -pi
    counts as pi.  Equal values (0.0 and -0.0, and all NaNs, which rank
    last) share a rank, as in a sort; tied keys leave the order to
    ``np.lexsort((y, x, theta, z))``.
    """
    theta = np.round(np.arctan2(points[:, 1], points[:, 0]), 12)
    theta[theta == -np.round(np.pi, 12)] = np.round(np.pi, 12)
    z = np.round(points[:, 2], 12)
    rank_z, rank_theta = (np.unique(v, return_inverse=True)[1] for v in (z, theta))
    key = rank_z * len(points) + rank_theta
    order = np.argsort(key)
    if np.any(np.diff(key[order]) == 0):
        return np.lexsort((points[:, 1], points[:, 0], theta, z))
    return order


def canonical_order(points):
    """Deterministic point ordering: by z, then theta = atan2(y, x), both to
    12 decimals (one packed integer key), then (x, y) where keys tie."""
    return points[_canonical_permutation(points)]


def _lattice_faces(faces, half, n_vertices, pair, pts, is_interior):
    """The lattice triangles of every face for a pass (m, n), Goldberg-Coxeter.

    ``half`` is the parent's edge pairing from ``_half_edges``; it gives
    every half-edge its edge and its twin, the neighbour face and slot.
    Indices follow ``subdivide_mesh``'s blocks: the vertices, g - 1 nodes
    per sorted edge (node k at k/g from its lower end, g = gcd(m, n)),
    then the interior nodes, node-major (node k of face i at k F + i).
    Point (q1, q2) of face (v0, va, vb) has integer weights (w0, alpha,
    beta) out of T = m^2 + m n + n^2 on its corners (``_bary_numerators``).
    A face keeps the up and down lattice triangles whose centroid lies in
    its closed triangle, one on its side x+1 -> x+2 (centroid weight 0 on
    x, m = n mod 3) only nearer that side's start: weight on x+1 above
    weight on x+2.  The face across sees the same two weights, which never
    tie (centroids sit on lattice thirds, midpoints on halves), so every
    face keeps the same K triangles.  A corner with a negative weight w_x
    lies in the neighbour across the edge y -> z opposite x, with weights
    T - w_z on y, T - w_y on z and -w_x on the neighbour's third vertex.
    Returns the int32 triangles, face by face, and the int32 twins the
    template fixes, read off the lattice (side k walks P_k -> P_k+1): sides
    1, 0 and 2 of up(o) are walked back by sides 2, 1 and 0 of down(o),
    down(o - (0, 1)) and down(o - (1, 0)), wherever the face keeps both.
    """
    m, n = pair
    t, g = m * m + m * n + n * n, math.gcd(m, n)
    edge, twin = np.empty((2, faces.size), dtype=_INDEX)
    edge[half] = np.arange(len(half))[:, None]
    twin[half] = half[:, ::-1]
    edge, across, slot = (a.reshape(-1, 3) for a in (edge, twin // 3, twin % 3))
    # global index of every lattice point of every face's closed triangle
    local = np.zeros((m + n + 1, m + n + 1), dtype=np.int64)
    local[pts[:, 0] + n, pts[:, 1]] = np.arange(len(pts))
    table = np.empty((len(faces), len(pts)), dtype=_INDEX)
    n_int = int(is_interior.sum())
    table[:, is_interior] = (n_vertices + len(half) * (g - 1)
                             + np.arange(len(faces) * n_int).reshape(n_int, len(faces)).T)
    corner = np.array([[0, 0], [m, n], [-n, m + n]])
    table[:, local[corner[:, 0] + n, corner[:, 1]]] = faces
    k = np.arange(1, g, dtype=_INDEX)
    step = np.roll(corner, -1, axis=0) - corner
    q = corner[:, None] + k[:, None] * step[:, None] // g
    # side s walks faces[:, s] -> faces[:, s + 1], up or down its sorted edge
    kk = np.stack([g - k, k])[(faces < np.roll(faces, -1, axis=1)).astype(np.intp)]
    table[:, local[q[..., 0] + n, q[..., 1]].ravel()] = (
        n_vertices + edge[..., None] * (g - 1) + kk - 1
    ).reshape(len(faces), -1)
    # the up and down triangles whose centroid lies in the closed triangle: weights
    # are affine, so a centroid's, out of 3T, are those of 3 origin + its corner sum
    origin = np.stack(np.meshgrid(
        np.arange(-n - 1, m + 1), np.arange(-1, m + n + 1), indexing="ij"
    ), axis=-1).reshape(-1, 1, 2)
    up_down = np.array([[[0, 0], [1, 0], [0, 1]], [[1, 0], [1, 1], [0, 1]]])
    alpha, beta = _bary_numerators(3 * origin + up_down.sum(axis=1), m, n)
    c = np.stack([3 * t - alpha - beta, alpha, beta], axis=-1)
    # a centroid weight 0 on x puts a triangle on side x+1 -> x+2: kept nearer its start
    inside = np.all(c >= 0, axis=-1) & (np.all(c > 0, axis=-1) | np.any(
        (c == 0) & (np.roll(c, -1, axis=-1) > np.roll(c, 1, axis=-1)), axis=-1))
    keep = np.flatnonzero(inside)
    tri = origin[keep // 2] + up_down[keep % 2]
    alpha, beta = _bary_numerators(tri, m, n)
    w = np.stack([t - alpha - beta, alpha, beta], axis=-1)
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
    lattice = np.take(table, cols, axis=1)
    # the kept rows on the (origin, shape) grid, -1 where a triangle is not kept
    row = np.full(inside.size, -1, dtype=_INDEX)
    row[keep] = np.arange(len(keep), dtype=_INDEX)
    up, down = np.moveaxis(row.reshape(m + n + 2, m + n + 2, 2), -1, 0)
    sides = ((up, 1, down, 2), (up[:, 1:], 0, down[:, :-1], 1), (up[1:], 2, down[:-1], 0))
    twins = np.concatenate([np.stack([3 * u + i, 3 * d + j], axis=-1)[(u >= 0) & (d >= 0)]
                            for u, i, d, j in sides])
    faces_at = 3 * len(keep) * np.arange(len(faces), dtype=_INDEX)
    return lattice.reshape(-1, 3), (faces_at[:, None, None] + twins).reshape(-1, 2)


def _is_hull(points, faces, known=()):
    """Whether ``faces`` are the convex hull of the on-sphere ``points``.

    Certified when the mesh is closed and consistently oriented with
    V - E + F = 2 (``_half_edges``, which sorts only the half-edges not
    ``known``); every edge is locally convex as in STRIPACK (Renka 1997):
    the apex d across edge a -> b of face (a, b, c), a the edge's lower
    index, lies below its plane, Shewchuk's orient3d(a, b, c, d) > 0
    beyond his static error bound, so a cocircular tie is left to qhull;
    and ``_face_checks`` finds every face outward, the solid angles adding
    up to 4 pi, so no vertex star winds twice, and the shortest edge
    longer than DEDUP_TOL; nearest neighbours are hull edges.
    """
    def edges(lo, hi):
        h = half[lo:hi]
        a, b, c, d = (xyz.take(x[h[:, i]], axis=1) for x in (corner, apex) for i in (0, 1))
        ad, bd, cd = a - d, b - d, c - d
        det = permanent = 0.0
        for u, v, w in ((ad, bd, cd), (bd, cd, ad), (cd, ad, bd)):
            p, q = v[0] * w[1], w[0] * v[1]
            det = det + (p - q) * u[2]
            permanent = permanent + (np.abs(p) + np.abs(q)) * np.abs(u[2])
        if not np.all(det > _O3D_ERRBOUND * permanent):
            raise GeometryError("edge not convex")

    try:
        half = _half_edges(faces, len(points), known)
        # half-edge 3 k + s starts at corner s of face k, opposite corner s - 1
        corner, apex = faces.ravel(), np.roll(faces, 1, axis=1).ravel()
        xyz = np.ascontiguousarray(points.T)
        _chunked(edges, len(half))
        total, least = _face_checks(xyz, faces)
    except GeometryError:
        return False
    return least > DEDUP_TOL**2 and abs(total - 4.0 * np.pi) < 2.0 * np.pi


def subdivide_mesh(mesh, pair):
    """One grid-refinement pass over every face of a closed, oriented mesh
    whose vertices lie on the unit sphere (else GeometryError).

    Mesh vertices are copied, the g - 1 nodes of a shared edge (g = gcd(m, n))
    are made once, and strictly interior nodes are solved per face.
    ``_check_size`` refuses the pass's N up front.  The result's ``mesh`` is
    the hull of its points in ``canonical_order``, faces as
    ``convex_hull_triangulation`` orders them: the lattice triangles of the
    pass (``_lattice_faces``) when they pass the hull certificate, else
    qhull's hull.  The count is checked against the closed form
    (V - 2) * (m^2 + n^2 + m n) + 2, and the shortest hull edge against
    DEDUP_TOL; either failure raises ConsistencyError.  A qhull hull that is
    not closed with V - E + F = 2, or has an inward face, raises GeometryError.
    """
    m, n = validate_pair(pair)
    xyz = np.ascontiguousarray(np.asarray(mesh.vertices, dtype=np.float64).T)
    if not np.all(np.abs(_norm(xyz) - 1.0) <= 1e-12):
        raise GeometryError("mesh vertices must lie on the unit sphere")
    n_vertices = xyz.shape[1]
    f = _face_indices(mesh.faces, n_vertices)
    gamma = triangulation_number(m, n)
    gc = math.gcd(m, n)
    expected = (n_vertices - 2) * gamma + 2
    _check_size(expected)

    pts = lattice_points(m, n)
    alpha, beta = _bary_numerators(pts, m, n)
    is_interior = (alpha > 0) & (beta > 0) & (alpha + beta < gamma)
    int_la = alpha[is_interior] / float(gamma)
    int_lb = beta[is_interior] / float(gamma)
    n_int = int(is_interior.sum())

    half = _half_edges(f, n_vertices)

    # every block is component-major (3, .); the solver takes (M, 3) views
    blocks = [xyz]
    if gc > 1:
        frac = np.arange(1, gc) / float(gc)
        ends = (np.repeat(xyz.take(e, axis=1), gc - 1, axis=1) for e in f.ravel()[half].T)
        blocks.append(_slerp(*ends, np.tile(frac, len(half))))

    if n_int > 0:
        # node-major: interior node k of face i is column k F + i
        blocks.append(np.empty((3, n_int * len(f))))
        step = -(-_CHUNK // n_int)
        for k in range(0, len(f), step):
            corners = (xyz.take(c, axis=1).T[None] for c in f[k:k + step].T)
            blocks[-1].reshape(3, n_int, -1)[:, :, k:k + step] = np.moveaxis(
                _solve_interior(*corners, int_la[:, None], int_lb[:, None]), -1, 0
            )

    points = np.concatenate(blocks, axis=1).T
    del blocks
    if len(points) != expected:
        raise ConsistencyError(
            f"subdivision produced {len(points)} points, expected {expected} "
            f"for pair ({m},{n}) on a {n_vertices}-vertex mesh"
        )
    faces, known = _lattice_faces(f, half, n_vertices, (m, n), pts, is_interior)
    order = _canonical_permutation(points)
    certified = _is_hull(points, faces, known)
    del known
    rank = np.empty(len(order), dtype=_INDEX)
    rank[order] = np.arange(len(order), dtype=_INDEX)
    faces, points = rank[faces] if certified else None, points[order]
    del order, rank
    if certified:
        hull = TriangleMesh(vertices=points, faces=_canonical_faces(faces))
    else:
        hull = convex_hull_triangulation(points)
        _half_edges(hull.faces, len(points))
        if _face_checks(np.ascontiguousarray(points.T), hull.faces)[1] <= DEDUP_TOL**2:
            raise ConsistencyError(
                f"subdivision produced points within {DEDUP_TOL:g} of each other "
                f"for pair ({m},{n}) on a {n_vertices}-vertex mesh"
            )
    return SphericalConfig(points=hull.vertices, pairs=((m, n),), mesh=hull)


def _figure(num, den=1):
    """An int num in full below 10^15, else num / den as ``.3g`` gives it, from
    logarithms where a float or an int's str cannot hold it."""
    if den == 1 and num < 10**15:
        return str(num)
    exp = math.log10(num) - math.log10(den)
    return f"{num / den:.3g}" if exp < 300 else f"{10 ** (exp % 1):.3g}e+{math.floor(exp)}"


def _check_size(n):
    """ParameterError when n points' 489 B each exceed physical memory, or
    their 6 n - 12 half-edge ids exceed int32 (n > 357,913,943)."""
    memory = (os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
              if hasattr(os, "sysconf") else math.inf)  # Windows has no figure
    if n * _BYTES_PER_POINT > memory:
        raise ParameterError(
            f"N={_figure(n)} points need about {_figure(n * _BYTES_PER_POINT, 2**30)} GiB, "
            f"more than the {memory / 2**30:.3g} GiB of physical memory"
        )
    if 6 * n - 12 > np.iinfo(_INDEX).max + 1:
        raise ParameterError(
            f"N={_figure(n)} points have {_figure(6 * n - 12)} half-edge ids; int32 holds 2^31"
        )


def generate(base, pairs):
    """Full pipeline: base polyhedron refined by a sequence of integer pairs.

    Each pass's hull (the certified lattice mesh, else qhull's) is the next
    mesh, and the final one stays attached for metric evaluation.  The
    closed-form count of the pairs' runs (``_count``) goes to ``_check_size``
    before any pass, and a (1,0) pair runs only as the first.
    """
    name = canonical_base_name(base)
    runs = _runs(pairs)
    if not runs:
        raise ParameterError("sequence must contain at least one integer pair")
    _check_size(_count(name, runs))
    pairs = tuple(pair for pair, k in runs for _ in range(k))
    mesh = base_polyhedron(name)
    for i, (pair, k) in enumerate(runs):
        for _ in range(k if pair != (1, 0) else i == 0):
            mesh = subdivide_mesh(mesh, pair).mesh
    return SphericalConfig(points=mesh.vertices, base=name, pairs=pairs, mesh=mesh)
