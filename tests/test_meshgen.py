from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spheregrid.meshgen as meshgen
from spheregrid import (
    ConsistencyError,
    GeometryError,
    ParameterError,
    TriangleMesh,
    base_polyhedron,
    canonical_order,
    convex_hull_triangulation,
    expected_cardinality,
    generate,
    subdivide_mesh,
    validate_mesh,
)
from spheregrid.cli import main
from util import BASES, random_sequence, unit_rows


def count_edges(faces, n_vertices):
    e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    key = e.min(axis=1).astype(np.int64) * n_vertices + e.max(axis=1)
    return len(np.unique(key))


def test_base_polyhedra_combinatorics():
    for name, nv, nf in [("tetrahedron", 4, 4), ("octahedron", 6, 8), ("icosahedron", 12, 20)]:
        mesh = base_polyhedron(name)
        assert mesh.n_vertices == nv and mesh.n_faces == nf
        ne = count_edges(mesh.faces, nv)
        assert nv - ne + nf == 2
        validate_mesh(mesh)


def test_base_name_aliases():
    assert base_polyhedron("icosa").n_vertices == 12
    assert base_polyhedron("OCTA").n_vertices == 6
    with pytest.raises(ParameterError):
        base_polyhedron("cube")


def test_octahedron_is_axis_aligned():
    v = base_polyhedron("octahedron").vertices
    expected = {(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)}
    assert {tuple(int(round(x)) for x in row) for row in v} == expected
    assert np.allclose(v, np.rint(v))


def test_tetrahedron_is_regular_simplex():
    v = base_polyhedron("tetrahedron").vertices
    dots = v @ v.T
    off = dots[~np.eye(4, dtype=bool)]
    assert np.all(np.abs(off + 1 / 3) < 1e-15)


def test_icosahedron_has_polar_vertices():
    v = base_polyhedron("icosahedron").vertices
    assert np.allclose(v[0], [0, 0, 1])
    assert np.allclose(v[-1], [0, 0, -1])
    assert np.all(np.abs(np.linalg.norm(v, axis=1) - 1.0) < 1e-15)


def test_subdivide_identity_pair_keeps_vertices():
    for name in BASES:
        mesh = base_polyhedron(name)
        cfg = subdivide_mesh(mesh, (1, 0))
        assert cfg.n == mesh.n_vertices
        got = sorted(map(tuple, cfg.points))
        assert got == sorted(map(tuple, mesh.vertices))


@pytest.mark.parametrize(
    "base,pair,expected",
    [
        ("icosahedron", (5, 0), 252),
        ("octahedron", (2, 0), 18),
        ("tetrahedron", (3, 1), 2 + 2 * 13),
        ("icosahedron", (1, 1), 32),
    ],
)
def test_subdivide_cardinality(base, pair, expected):
    cfg = subdivide_mesh(base_polyhedron(base), pair)
    assert cfg.n == expected == expected_cardinality(base, [pair])


def test_subdivide_points_are_distinct_unit_vectors():
    cfg = subdivide_mesh(base_polyhedron("icosahedron"), (4, 2))
    assert np.all(np.abs(np.linalg.norm(cfg.points, axis=1) - 1.0) < 1e-12)
    d2 = ((cfg.points[:, None] - cfg.points[None]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    assert d2.min() > 1e-4


def test_hull_of_base_polyhedra():
    for name, nf in [("tetrahedron", 4), ("octahedron", 8), ("icosahedron", 20)]:
        mesh = base_polyhedron(name)
        hull = convex_hull_triangulation(mesh.vertices)
        assert hull.n_faces == nf
        validate_mesh(hull)


def cuboctahedron():
    v = []
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        for si in (1, -1):
            for sj in (1, -1):
                row = [0.0, 0.0, 0.0]
                row[i], row[j] = si, sj
                v.append(row)
    return unit_rows(np.array(v))


def test_hull_triangulates_coplanar_patches():
    # Cuboctahedron: six square facets must come out as deterministic
    # triangle pairs, keeping the mesh closed.
    v = cuboctahedron()
    hull = convex_hull_triangulation(v)
    assert hull.n_faces == 2 * len(v) - 4
    validate_mesh(hull)
    again = convex_hull_triangulation(v)
    assert np.array_equal(hull.faces, again.faces)


def test_hull_euler_counts_on_generated_config():
    cfg = generate("icosahedron", [(4, 1)])
    hull = cfg.hull()
    n = cfg.n
    assert hull.n_faces == 2 * n - 4
    assert count_edges(hull.faces, n) == 3 * n - 6
    validate_mesh(hull)


def test_hull_rejects_degenerate_input():
    with pytest.raises(GeometryError):
        convex_hull_triangulation(np.eye(3))
    rank2 = unit_rows(
        np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=float)
    )
    with pytest.raises(GeometryError):
        convex_hull_triangulation(rank2)


@pytest.mark.parametrize(
    "pairs,expected",
    [
        ([(1, 1), (16, 0)], 7682),
        ([(27, 0)], 7292),
        ([(1, 1), (15, 2)], 7772),
        ([(1, 1), (2, 0), (2, 0), (2, 0), (2, 0)], 7682),
    ],
)
def test_generate_known_cardinalities(pairs, expected):
    assert generate("icosahedron", pairs).n == expected


def test_generate_cardinality_law_random_sequences():
    rng = np.random.default_rng(21)
    done = 0
    while done < 40:
        base = BASES[rng.integers(0, 3)]
        pairs = random_sequence(rng)
        expected = expected_cardinality(base, pairs)
        if expected > 6000:
            continue
        assert generate(base, pairs).n == expected
        done += 1


def test_generate_is_deterministic():
    a = generate("icosahedron", [(1, 1), (3, 1)])
    b = generate("icosahedron", [(1, 1), (3, 1)])
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.hull().faces, b.hull().faces)


def test_generate_validates_input():
    with pytest.raises(ParameterError):
        generate("icosahedron", [])
    with pytest.raises(ParameterError):
        generate("icosahedron", [(2, 3)])
    with pytest.raises(ParameterError):
        generate("dodecahedron", [(1, 0)])


def icosahedral_rotations():
    """The 60 rotation matrices of the icosahedron in our fixed orientation."""
    mesh = base_polyhedron("icosahedron")

    def rot(axis, angle):
        axis = axis / np.linalg.norm(axis)
        k = np.array(
            [
                [0, -axis[2], axis[1]],
                [axis[2], 0, -axis[0]],
                [-axis[1], axis[0], 0],
            ]
        )
        return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)

    g1 = rot(np.array([0.0, 0.0, 1.0]), 2 * np.pi / 5)
    g2 = rot(mesh.vertices[0] + mesh.vertices[1], np.pi)
    group = {}
    frontier = [np.eye(3)]
    while frontier:
        mat = frontier.pop()
        key = tuple(np.round(mat, 9).ravel())
        if key in group:
            continue
        group[key] = mat
        frontier.extend([mat @ g1, mat @ g2])
    mats = list(group.values())
    assert len(mats) == 60
    return mats


@pytest.mark.parametrize("pairs", [[(2, 0)], [(2, 1)], [(1, 1), (2, 0)]])
def test_icosahedral_symmetry_preserved(pairs):
    from scipy.spatial import cKDTree

    cfg = generate("icosahedron", pairs)
    tree = cKDTree(cfg.points)
    for mat in icosahedral_rotations():
        rotated = cfg.points @ mat.T
        dist, idx = tree.query(rotated, k=1)
        assert dist.max() < 1e-9
        assert len(np.unique(idx)) == cfg.n


def test_subdivide_count_check_is_enforced():
    # A mesh that silently lost a face (open surface) must be refused
    # before any count can come out wrong.
    mesh = base_polyhedron("octahedron")
    broken = type(mesh)(vertices=mesh.vertices, faces=mesh.faces[:-1])
    with pytest.raises(GeometryError):
        subdivide_mesh(broken, (2, 0))


def flipped_face(mesh):
    faces = mesh.faces.copy()
    faces[0] = faces[0, [0, 2, 1]]
    return TriangleMesh(vertices=mesh.vertices, faces=faces)


def open_surface(mesh):
    return TriangleMesh(vertices=mesh.vertices, faces=mesh.faces[:-1])


def nan_vertex(mesh):
    vertices = mesh.vertices.copy()
    vertices[0] = np.nan
    return TriangleMesh(vertices=vertices, faces=mesh.faces)


@pytest.mark.parametrize("breakage", [flipped_face, open_surface, nan_vertex])
@pytest.mark.parametrize(
    "check",
    [validate_mesh, lambda mesh: subdivide_mesh(mesh, (2, 0))],
    ids=["validate_mesh", "subdivide_mesh"],
)
def test_broken_mesh_is_refused(check, breakage):
    with pytest.raises(GeometryError):
        check(breakage(base_polyhedron("octahedron")))


def test_hull_faces_start_at_their_smallest_index():
    rng = np.random.default_rng(3)
    for points in (generate("icosahedron", [(4, 1)]).points,
                   unit_rows(rng.normal(size=(500, 3)))):
        faces = convex_hull_triangulation(points).faces
        assert np.array_equal(faces[:, 0], faces.min(axis=1))


@contextmanager
def counting_qhull():
    """The point count of every qhull call made inside the block."""
    calls = []
    real = meshgen.ConvexHull

    def counting(points):
        calls.append(len(points))
        return real(points)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(meshgen, "ConvexHull", counting)
        yield calls


def passes(base, pairs):
    """(pair, configuration, qhull calls) of every pass, each refining the
    last one's hull."""
    mesh = base_polyhedron(base)
    for pair in pairs:
        with counting_qhull() as calls:
            cfg = subdivide_mesh(mesh, pair)
        yield pair, cfg, calls
        mesh = cfg.mesh


@pytest.mark.parametrize(
    "base,pairs",
    [(base, [(l, 0)]) for base in ("icosahedron", "octahedron") for l in (2, 3, 5, 8)]
    + [
        ("icosahedron", [(1, 1), (4, 0), (4, 0)]),
        ("octahedron", [(3, 1), (4, 0), (4, 0)]),
    ]
    + [
        ("icosahedron", [pair])
        for pair in [(73, 37), (68, 43), (85, 22), (90, 13),
                     (1, 1), (2, 1), (3, 1), (4, 2), (6, 3), (6, 6), (12, 4)]
    ]
    + [("octahedron", [(2, 1)]), ("octahedron", [(5, 3)])]
    + [("tetrahedron", [(2, 1)]), ("tetrahedron", [(3, 2)])]
    + [
        ("icosahedron", [(1, 1), (15, 2)]),
        ("octahedron", [(9, 4), (3, 1)]),
        ("icosahedron", [(4, 0), (2, 1)]),
        ("icosahedron", [(1, 1), (4, 0), (3, 2)]),
        ("icosahedron", [(2, 1), (3, 1), (2, 1)]),
        ("octahedron", [(3, 1), (4, 0), (5, 2)]),
    ],
)
def test_lattice_mesh_equals_the_qhull_hull(base, pairs):
    for pair, cfg, calls in passes(base, pairs):
        assert calls == []
        hull = convex_hull_triangulation(cfg.points)
        # both builders roll each face to its smallest index and sort the
        # rows, so equal face sets give equal arrays
        assert np.array_equal(cfg.mesh.faces, hull.faces)


def assert_qhull_route(base, pair):
    """The certificate refuses ``pair`` on ``base``, and ``generate`` then
    gives the pass's points with qhull's faces."""
    with counting_qhull() as calls:
        cfg = subdivide_mesh(base_polyhedron(base), pair)
    assert calls == [cfg.n]
    out = generate(base, [pair])
    assert np.array_equal(out.points, cfg.points)
    assert np.array_equal(out.mesh.faces, convex_hull_triangulation(cfg.points).faces)


def test_uncertified_lattice_mesh_falls_back_to_qhull():
    # the tetrahedron's (5,0) lattice triangles are not its hull, and its
    # (1,1) pass is a cube whose square faces are cocircular ties
    for pair in [(5, 0), (1, 1)]:
        assert_qhull_route("tetrahedron", pair)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    base=st.sampled_from(BASES),
    pair=st.integers(1, 9).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m))),
)
def test_lattice_mesh_is_the_hull_or_is_refused(base, pair):
    with counting_qhull() as calls:
        cfg = subdivide_mesh(base_polyhedron(base), pair)
    if calls:
        assert_qhull_route(base, pair)
    else:
        hull = convex_hull_triangulation(cfg.points)
        assert np.array_equal(cfg.mesh.faces, hull.faces)


def test_generate_runs_no_qhull_on_certified_passes():
    for pairs in [[(1, 1), (4, 0), (4, 0), (4, 0)], [(73, 37)]]:
        with counting_qhull() as calls:
            cfg = generate("icosahedron", pairs)
        assert calls == []
        assert cfg.n == expected_cardinality("icosahedron", pairs)
        validate_mesh(cfg.hull())


@pytest.mark.parametrize(
    "offset,error,message",
    [
        (0.0, GeometryError, "hull dropped 1 of them"),
        (1e-11, ConsistencyError, "within 1e-09 of each other"),
        (5e-10, ConsistencyError, "within 1e-09 of each other"),
    ],
)
def test_near_duplicate_on_the_qhull_route_is_refused(monkeypatch, capsys, offset,
                                                      error, message):
    # the tetrahedron's (5,0) pass goes to qhull; one solved node is moved
    # to within ``offset`` of another, along the sphere
    real = meshgen._solve_interior

    def copying(*args):
        out = real(*args)
        tangent = np.cross(out[0], [0.6, 0.0, 0.8])
        out[1] = out[0] + offset * tangent / np.linalg.norm(tangent)
        return out

    monkeypatch.setattr(meshgen, "_solve_interior", copying)
    with pytest.raises(error, match=message):
        subdivide_mesh(base_polyhedron("tetrahedron"), (5, 0))
    assert main(["generate", "--base", "tetra", "--seq", "5,0"]) == 3


def test_hull_refuses_points_inside_it():
    inside = np.array([[0.1, 0.0, 0.0], [0.0, -0.2, 0.3]])
    points = np.vstack([base_polyhedron("octahedron").vertices, inside])
    with pytest.raises(GeometryError, match="hull dropped 2 of them"):
        convex_hull_triangulation(points)


def flipped_diagonal(mesh):
    """The mesh with the shared edge (i, j) of two faces swapped for (c, d)."""
    half = meshgen._half_edges(mesh.faces, mesh.n_vertices)[0]
    corner, apex = mesh.faces.ravel(), np.roll(mesh.faces, 1, axis=1).ravel()
    (i, j), (c, d) = corner[half], apex[half]
    keep = [f for f in mesh.faces.tolist() if not {i, j} <= set(f)]
    faces = np.array(keep + [[i, d, c], [d, j, c]], dtype=np.int64)
    return TriangleMesh(vertices=mesh.vertices, faces=faces)


def test_hull_certificate_accepts_the_hull_and_refuses_a_flipped_diagonal():
    mesh = generate("icosahedron", [(3, 0)]).hull()
    assert meshgen._is_hull(mesh.vertices, mesh.faces)
    flipped = flipped_diagonal(mesh)
    validate_mesh(flipped)  # still closed and outward; only convexity fails
    assert not meshgen._is_hull(flipped.vertices, flipped.faces)


@pytest.mark.parametrize("breakage", [flipped_face, open_surface])
def test_hull_certificate_refuses_a_broken_mesh(breakage):
    broken = breakage(generate("icosahedron", [(3, 0)]).hull())
    assert not meshgen._is_hull(broken.vertices, broken.faces)


def test_hull_certificate_refuses_a_mesh_that_wraps_the_sphere_twice():
    # a bipyramid over the pentagram {5/2}: closed, outward and locally
    # convex at every edge, but both pole stars wind twice round their pole
    t = np.arange(5) * 4.0 * np.pi / 5.0
    ring = np.column_stack([np.cos(t), np.sin(t), 0.0 * t])
    v = np.vstack([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], ring])
    k = np.arange(5)
    a, b = 2 + k, 2 + (k + 1) % 5
    faces = np.concatenate(
        [np.column_stack([0 * k, a, b]), np.column_stack([0 * k + 1, b, a])]
    )
    validate_mesh(TriangleMesh(vertices=v, faces=faces))
    assert not meshgen._is_hull(v, faces)


@pytest.mark.parametrize("seed", [None, 17])
def test_hull_certificate_leaves_cocircular_ties_to_qhull(seed):
    # each square facet's diagonal has four cocircular points; turned by
    # the seed-17 rotation, every tie rounds to the convex side, so only
    # the error bound refuses it
    from scipy.spatial.transform import Rotation

    v = cuboctahedron()
    if seed is not None:
        v = v @ Rotation.random(random_state=seed).as_matrix().T
    assert not meshgen._is_hull(v, convex_hull_triangulation(v).faces)


def test_canonical_order_is_stable_under_last_bit_noise():
    points = generate("icosahedron", [(1, 1), (4, 0), (4, 0)]).points
    rng = np.random.default_rng(7)
    nudged = points + rng.integers(-2, 3, size=points.shape) * np.spacing(points)
    a, b = canonical_order(points), canonical_order(nudged)
    moved = np.abs(a - b).max(axis=1) > 1e-12
    assert moved.sum() <= 0.001 * len(points)
