import itertools
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull
from scipy.spatial.transform import Rotation

import spheregrid.meshgen as meshgen
from spheregrid import lattice, sequences
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
    parse_sequence,
    subdivide_mesh,
    validate_mesh,
    validate_pair,
)
from spheregrid.cli import main
from spheregrid.spherical import _cross, _dot
from oracle import spiral_points
from util import (
    BASES, copied_vertex_tetrahedron, counting_qhull, lune_protocol, pretend_cpus,
    random_sequence, turned_icosa_64, unit_rows,
)


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
        # a pass's hull is in canonical order, so (1,0) changes no bit of it,
        # on the certified route and on qhull's (tetra 1,1 and 5,0)
        for pairs in ([(1, 1)], [(2, 1), (5, 0)]):
            hull = generate(name, pairs).mesh
            again = subdivide_mesh(hull, (1, 0)).mesh
            assert again.vertices.tobytes() == hull.vertices.tobytes()
            assert again.faces.tobytes() == hull.faces.tobytes()


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


def test_expected_cardinality_takes_one_power_a_run_of_equal_pairs():
    with recording("triangulation_number") as calls:
        n = expected_cardinality("icosa", [(1, 1)] + [(4, 0)] * 1000)
    assert calls == [(1, 1), (4, 0)] and n == 2 + 30 * 16**1000
    assert expected_cardinality("icosa", [(4, 0), (3, 0), (4, 0)]) == 2 + 10 * 16 * 9 * 16
    assert expected_cardinality("octa", np.array([[2, 1], [2, 1], [3, 0]])) == 2 + 4 * 7 * 7 * 9
    # pairs are validated in order, so the first invalid one is named
    with pytest.raises(ParameterError, match=r"pair \(2,3\) violates"):
        expected_cardinality("icosa", [(4, 0), (4, 0), (2, 3), (2, 3), (0, 0)])


def test_a_million_pair_run_is_validated_once_a_run(monkeypatch):
    calls = []

    def spy(pair):
        calls.append(pair)
        return validate_pair(pair)

    for module in (lattice, meshgen, sequences):
        monkeypatch.setattr(module, "validate_pair", spy)
    pairs = parse_sequence("(4,0)^1000000")
    with recording("_runs") as scans, pytest.raises(
            ParameterError, match=r"^N=9\.61e\+1204120 points need"):
        generate("icosa", pairs)
    assert len(calls) <= 4
    # generate counts its points from its own runs: one scan of the pairs
    assert len(scans) == 1


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


def test_outward_orientation_flips_the_faces_of_negative_excess():
    # coplanar corners with signed zeros give numerators of +0.0 and -0.0,
    # and arctan2 reads -0.0 over a denominator < 0 or of -0.0 as -pi
    h = np.sqrt(3.0) / 2.0
    v = np.vstack([
        [[1.0, y, z], [-0.5, h, z], [-0.5, -h, z], [-1.0, y, z], [0.0, 1.0, z]]
        for z in (0.0, -0.0) for y in (0.0, -0.0)
    ] + [unit_rows(np.random.default_rng(9).normal(size=(6, 3)))])
    faces = np.array(list(itertools.permutations(range(len(v)), 3)), dtype=np.int64)
    a, b, c = meshgen._corners(v, faces)
    excess, num = meshgen._signed_excess(a, b, c), _dot(a, _cross(b - a, c - a))
    zero = num == 0.0
    assert np.any(zero & (excess < 0.0)) and np.any(zero & ~(excess < 0.0))
    assert np.any(num < 0.0) and np.any(num > 0.0)
    flipped = np.any(meshgen._orient_outward(v, faces) != faces, axis=1)
    assert np.array_equal(flipped, excess < 0.0)


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


def negative_index(mesh):
    # vertex 5 of 6 written as -1, which take() wraps back to 5
    return TriangleMesh(vertices=mesh.vertices, faces=np.where(mesh.faces == 5, -1, mesh.faces))


def index_past_the_end(mesh):
    return TriangleMesh(vertices=mesh.vertices, faces=np.where(mesh.faces == 5, 6, mesh.faces))


def float_faces(mesh):
    # an int32 cast truncates them back to the faces
    return TriangleMesh(vertices=mesh.vertices, faces=mesh.faces + 0.5)


@pytest.mark.parametrize("breakage", [flipped_face, open_surface, nan_vertex, negative_index,
                                      index_past_the_end, float_faces])
@pytest.mark.parametrize(
    "check",
    [validate_mesh, lambda mesh: subdivide_mesh(mesh, (2, 0))],
    ids=["validate_mesh", "subdivide_mesh"],
)
def test_broken_mesh_is_refused(check, breakage):
    with pytest.raises(GeometryError):
        check(breakage(base_polyhedron("octahedron")))


def test_edge_of_zero_length_is_refused_with_a_typed_error():
    # _slerp's small-angle branch keeps the zero-length edge's midpoint
    # finite, so the pass fails with GeometryError, not with qhull's error
    # on NaN input.
    with pytest.raises(GeometryError):
        subdivide_mesh(copied_vertex_tetrahedron(), (2, 0))


def test_cap_hull_oriented_away_from_its_centroid_is_not_outward(monkeypatch):
    # qhull's hull of a spherical cap, every face oriented away from the
    # cap's vertex centroid, is closed, consistently oriented and convex at
    # every edge, but the faces of its flat base wind clockwise seen from
    # the origin: the outward clause is what refuses it.
    probes = spiral_points(3200)
    cap = probes[probes[:, 2] > 0.5]
    faces = ConvexHull(cap).simplices.astype(np.int64)
    a, b, c = (cap[faces[:, i]] for i in range(3))
    away = np.einsum("ij,ij->i", np.cross(b - a, c - a), a - cap.mean(axis=0)) > 0.0
    faces = np.where(away[:, None], faces, faces[:, [0, 2, 1]])
    with pytest.raises(GeometryError, match="inward-facing faces"):
        validate_mesh(TriangleMesh(vertices=cap, faces=faces))
    excess = []

    def recorded(*corners, signed_excess=meshgen._signed_excess):
        excess.append(signed_excess(*corners))
        return excess[-1]

    monkeypatch.setattr(meshgen, "_signed_excess", recorded)
    assert not meshgen._is_hull(cap, faces)
    # the certificate reached its last clause, and there found the base faces
    assert 0 < np.count_nonzero(np.concatenate(excess) <= 0.0) < len(faces)


def test_hull_faces_start_at_their_smallest_index():
    rng = np.random.default_rng(3)
    for points in (generate("icosahedron", [(4, 1)]).points,
                   unit_rows(rng.normal(size=(500, 3)))):
        faces = convex_hull_triangulation(points).faces
        assert np.array_equal(faces[:, 0], faces.min(axis=1))


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
    assert calls == [(cfg.n, "Q5", False)]
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
    # to within ``offset`` of another, along the sphere (the solver returns
    # node-major (n, F, 3) rows: node 1 of face 0 goes next to its node 0)
    real = meshgen._solve_interior

    def copying(*args):
        out = real(*args)
        tangent = np.cross(out[0, 0], [0.6, 0.0, 0.8])
        out[1, 0] = out[0, 0] + offset * tangent / np.linalg.norm(tangent)
        return out

    monkeypatch.setattr(meshgen, "_solve_interior", copying)
    with pytest.raises(error, match=message):
        subdivide_mesh(base_polyhedron("tetrahedron"), (5, 0))
    assert main(["generate", "--base", "tetra", "--seq", "5,0"]) == 3


def test_inward_qhull_faces_on_a_refused_pass_are_refused(monkeypatch):
    # the tetrahedron's (5,0) pass goes to qhull; with all of its faces
    # turned inward the hull is still closed and consistently oriented
    # (one inward face alone is not), so the outward test must refuse it
    real = meshgen._orient_outward

    def inward(vertices, faces):
        out = real(vertices, faces)
        return out[:, [0, 2, 1]] if len(vertices) > 4 else out  # not the base

    monkeypatch.setattr(meshgen, "_orient_outward", inward)
    with pytest.raises(GeometryError, match="inward-facing"):
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


def test_hull_faces_do_not_depend_on_qhull_outer_plane_pass(monkeypatch):
    # "Q5" skips qhull's check of the outer planes; the reference hull is
    # built with scipy's default options
    rotation = Rotation.random(random_state=17).as_matrix()
    inputs = [
        cuboctahedron(),
        cuboctahedron() @ rotation.T,
        subdivide_mesh(base_polyhedron("tetrahedron"), (1, 1)).points,
        unit_rows(np.random.default_rng(5).normal(size=(500, 3))),
    ]
    faces = [convex_hull_triangulation(points).faces for points in inputs]
    monkeypatch.setattr(meshgen, "ConvexHull", lambda points, **kwargs: ConvexHull(points))
    for points, got in zip(inputs, faces):
        assert np.array_equal(got, convex_hull_triangulation(points).faces)


def test_open_qhull_hull_is_refused(monkeypatch, capsys):
    # the tetrahedron's (5,0) pass goes to qhull, which here loses a facet
    real = meshgen.ConvexHull

    def dropping(points, **kwargs):
        return SimpleNamespace(simplices=real(points, **kwargs).simplices[1:])

    monkeypatch.setattr(meshgen, "ConvexHull", dropping)
    with pytest.raises(GeometryError, match="not a closed"):
        subdivide_mesh(base_polyhedron("tetrahedron"), (5, 0))
    assert main(["generate", "--base", "tetra", "--seq", "5,0"]) == 3


def test_two_component_mesh_violates_euler():
    # two outward tetrahedra: closed and oriented, but V - E + F = 4
    tet = base_polyhedron("tetrahedron")
    twice = TriangleMesh(
        vertices=np.vstack([tet.vertices, -tet.vertices]),
        faces=np.vstack([tet.faces, tet.faces[:, ::-1] + 4]),
    )
    for check in (validate_mesh, lambda mesh: subdivide_mesh(mesh, (2, 0))):
        with pytest.raises(GeometryError, match="Euler"):
            check(twice)
    assert not meshgen._is_hull(twice.vertices, twice.faces)


def whole_set_faces(points):
    """The reference hull: one qhull run over every point."""
    simplices = ConvexHull(points, qhull_options="Q5").simplices.astype(np.int64)
    return meshgen._canonical_faces(meshgen._orient_outward(points, simplices))


def whole_set_outcome(points):
    """``convex_hull_triangulation`` with the lunes gated off: its faces, or
    its error message."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(meshgen, "_LUNE_GATE", len(points) + 1)
        try:
            return convex_hull_triangulation(points).faces
        except GeometryError as exc:
            return str(exc)


def uniform_points(n, seed):
    return unit_rows(np.random.default_rng(seed).normal(size=(n, 3)))


def lat_lon_grid():
    # 127 rings of 130 points and the poles: every quad is cocircular
    colat, lon = np.meshgrid(np.arange(1, 128) * np.pi / 128, np.arange(130) * np.pi / 65)
    rings = np.column_stack([(np.sin(colat) * np.cos(lon)).ravel(),
                             (np.sin(colat) * np.sin(lon)).ravel(), np.cos(colat).ravel()])
    return np.vstack([[0.0, 0.0, 1.0], rings, [0.0, 0.0, -1.0]])


def uniform_20k():
    return uniform_points(20_000, 5)


def uniform_100k():
    # the lunes reach 12 / sqrt(N) = 0.038 past their sectors
    return uniform_points(100_000, 7)


def upper_hemisphere():
    points = uniform_points(40_000, 5)
    return points[points[:, 2] > 0.0]


def with_inner_point():
    return np.vstack([uniform_20k(), [0.1, 0.0, 0.0]])


def with_near_duplicate():
    points = uniform_20k()
    tangent = unit_rows(np.cross(points[0], [0.6, 0.0, 0.8]))
    return np.vstack([points, points[0] + 1e-11 * tangent])


def narrow_band():
    # longitudes 0 to 0.3 away from the poles: most lunes stay empty
    rng = np.random.default_rng(5)
    lon, z = rng.uniform(0.0, 0.3, 20_000), rng.uniform(-0.9, 0.9, 20_000)
    r = np.sqrt(1.0 - z * z)
    return np.column_stack([r * np.cos(lon), r * np.sin(lon), z])


def equator():
    # every lune is flat, so qhull fails on it as on the whole set
    t = np.arange(20_000) * (2.0 * np.pi / 20_000)
    return np.column_stack([np.cos(t), np.sin(t), 0.0 * t])


@pytest.mark.parametrize("make", [turned_icosa_64, uniform_20k, uniform_100k])
def test_lune_hull_equals_the_whole_set_hull(make):
    points = make()
    with counting_qhull() as calls:
        faces = convex_hull_triangulation(points).faces
    first, second, whole = lune_protocol(calls, len(points))
    # qhull needs its pre-merge on a lune of the turned icosa 64,0 only
    assert (second, whole) == (meshgen._LUNES if make is turned_icosa_64 else 0, 0)
    assert np.array_equal(faces, whole_set_faces(points))


def test_refused_lattice_pass_is_hulled_in_lunes():
    with counting_qhull() as calls:
        cfg = generate("tetrahedron", [(200, 0)])
    assert lune_protocol(calls, cfg.n) == (meshgen._LUNES, 0, 0)
    assert np.array_equal(cfg.mesh.faces, whole_set_faces(cfg.points))


def test_a_refused_pass_hulled_in_lunes_is_checked_only_by_the_certificate(monkeypatch):
    # tetra 128,0 (N = 32,770) is refused and its lunes certify: the hull
    # has passed _half_edges and _face_checks inside _is_hull, so nothing
    # checks its faces again
    inside, calls = [], []

    def counting(name):
        real = getattr(meshgen, name)

        def call(*args):
            if name == "_is_hull":
                inside.append(True)
                try:
                    return real(*args)
                finally:
                    inside.pop()
            calls.append((name, len(args[name == "_face_checks"]), bool(inside)))
            return real(*args)

        monkeypatch.setattr(meshgen, name, call)

    for name in ("_is_hull", "_half_edges", "_face_checks"):
        counting(name)
    with counting_qhull() as qhull:
        cfg = subdivide_mesh(base_polyhedron("tetrahedron"), (128, 0))
    assert cfg.n == 32_770 and lune_protocol(qhull, cfg.n)[2] == 0
    faces = 2 * cfg.n - 4
    # the parent's pairing, the refused lattice mesh's (its edges fail the
    # certificate before _face_checks), then the lune hull's certificate
    assert calls == [("_half_edges", 4, False), ("_half_edges", faces, True),
                     ("_half_edges", faces, True), ("_face_checks", faces, True)]


@pytest.mark.parametrize(
    "make,lune_calls,message",
    [
        (lat_lon_grid, [(8, 0)], None),
        (upper_hemisphere, [(8, 0)], None),
        (with_inner_point, [(8, 0)], "hull dropped 1 of them"),
        (with_near_duplicate, [(8, 0)], None),
        (narrow_band, [(0, 0)], None),
        (equator, [(k, j) for k in range(1, 9) for j in range(1, 9)], "convex hull failed"),
    ],
)
def test_refused_lunes_fall_back_to_the_whole_set(make, lune_calls, message):
    # the certificate refuses ties, a hull that leaves the lunes' union
    # open, a point it leaves unused and an edge shorter than DEDUP_TOL; a
    # lune of fewer than 4 points is refused before qhull runs, and a qhull
    # error cancels the lunes not yet started, in each round
    points = make()
    assert len(points) >= meshgen._LUNE_GATE
    with counting_qhull() as calls:
        try:
            got = convex_hull_triangulation(points).faces
        except GeometryError as exc:
            got = str(exc)
    first, second, whole = lune_protocol(calls, len(points))
    assert (first, second) in lune_calls and whole == 1
    want = whole_set_outcome(points)
    if message is not None:
        assert message in want
    if isinstance(want, str):
        assert got == want
    else:
        assert np.array_equal(got, want)


def test_concurrent_hulls_equal_the_serial_ones():
    inputs = [uniform_points(20_000, 6), turned_icosa_64()]
    serial = [convex_hull_triangulation(points).faces for points in inputs]
    got = [None] * len(inputs)
    start = threading.Barrier(len(inputs), timeout=60)

    def hull(k):
        start.wait()
        got[k] = convex_hull_triangulation(inputs[k]).faces

    threads = [threading.Thread(target=hull, args=(k,)) for k in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for faces, want in zip(got, serial):
        assert np.array_equal(faces, want)


def lexsort_order(points):
    """The reference row order: a lexsort on (z, theta, x, y), z and theta
    to 12 decimals, theta = -pi counted as pi."""
    theta = np.round(np.arctan2(points[:, 1], points[:, 0]), 12)
    theta[theta == -np.round(np.pi, 12)] = np.round(np.pi, 12)
    z = np.round(points[:, 2], 12)
    return np.lexsort((points[:, 1], points[:, 0], theta, z))


ORDER_POOL = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-13, -1e-13, 5e-324, np.nan]
POLES = st.tuples(
    st.sampled_from([0.0, -0.0]), st.sampled_from([0.0, -0.0]), st.sampled_from([1.0, -1.0])
)


def ulp_nudge(value, ulps):
    for _ in range(abs(ulps)):
        value = np.nextafter(value, np.copysign(np.inf, ulps))
    return value


@st.composite
def order_inputs(draw):
    """Rows from a small pool, the poles and [-1, 1], plus exact duplicates
    and rows nudged by up to 2 ulps in one coordinate."""
    generic = st.tuples(*[st.floats(-1, 1)] * 3)
    pool = st.tuples(*[st.sampled_from(ORDER_POOL)] * 3) | POLES | generic
    rows = draw(st.lists(draw(st.sampled_from([pool, generic])), max_size=24))
    for _ in range(draw(st.integers(0, 8)) if rows else 0):
        row = list(draw(st.sampled_from(rows)))
        c, ulps = draw(st.integers(0, 2)), draw(st.integers(-2, 2))
        row[c] = ulp_nudge(row[c], ulps)
        rows.append(tuple(row))
    return np.array(rows, dtype=np.float64).reshape(-1, 3)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(points=order_inputs())
def test_canonical_permutation_equals_the_lexsort(points):
    assert np.array_equal(meshgen._canonical_permutation(points), lexsort_order(points))


@contextmanager
def recording(name):
    """The arguments of every call to ``meshgen.<name>`` inside the block."""
    calls = []
    real = getattr(meshgen, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(meshgen, name, spy)
        yield calls


def edge_rows(half):
    return set(map(tuple, half.tolist()))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    base=st.sampled_from(BASES),
    first=st.sampled_from([None, (1, 1), (2, 1)]),
    pair=st.integers(1, 9).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))),
)
@example(base="tetrahedron", first=None, pair=(5, 0))  # refused, qhull route
@example(base="tetrahedron", first=None, pair=(1, 1))  # refused, ties only
@example(base="icosahedron", first=(2, 1), pair=(4, 1))  # m = n mod 3
@example(base="octahedron", first=None, pair=(6, 6))
# face 0 alone is matched: vertices of degree 3 bring its neighbours closest
@example(base="tetrahedron", first=None, pair=(9, 8))
@example(base="tetrahedron", first=(2, 1), pair=(7, 3))
def test_lattice_template_twins_are_the_sorted_twins(base, first, pair):
    mesh = base_polyhedron(base)
    if first is not None:
        mesh = subdivide_mesh(mesh, first).mesh
    with recording("_is_hull") as calls:
        subdivide_mesh(mesh, pair)
    [(points, faces, known)] = calls
    whole = meshgen._half_edges(faces, len(points))
    assert edge_rows(meshgen._half_edges(faces, len(points), known)) == edge_rows(whole)
    # and complete: every twin pair inside one face's block of 3 T half-edges is known
    block = 3 * len(faces) // mesh.n_faces
    assert {frozenset(p) for p in known.tolist()} == {
        frozenset(p) for p in whole.tolist() if p[0] // block == p[1] // block
    }


def test_a_certified_pass_peaks_near_its_output(monkeypatch):
    # traced bytes a point at N=122,882 on one CPU, where the certificate's
    # _half_edges and _canonical_faces set the peak: 168 measured, 3%
    # allowed; one more int32 array of a whole-mesh size adds 8 (a face) to
    # 24 (a row a face, or a half-edge)
    pretend_cpus(monkeypatch, 1)
    mesh = generate("icosahedron", [(1, 1), (4, 0), (4, 0)]).mesh
    tracemalloc.start()
    try:
        n = subdivide_mesh(mesh, (4, 0)).n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 122_882 and peak / n <= 1.03 * 168


def test_the_lattice_template_peaks_near_its_output(monkeypatch):
    # traced MiB of _lattice_faces' own allocations on octa 300,0, one large template:
    # 43.5 measured, 3% allowed, for a 16.5 MiB output; 60.2 while it built every grid
    # triangle and matched face 0's sides by np.intersect1d
    real, peaks = meshgen._lattice_faces, []

    def traced(*args):
        tracemalloc.start()
        try:
            return real(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(meshgen, "_lattice_faces", traced)
    subdivide_mesh(base_polyhedron("octa"), (300, 0))
    assert peaks and peaks[0] / 2**20 <= 1.03 * 43.5


def test_validate_mesh_peaks_near_its_faces(monkeypatch):
    # traced bytes a face on the N=122,882 hull on one CPU, where
    # _half_edges sets the peak and _face_checks scans in chunks: 111
    # measured, 3% allowed; 123 while it cast int64 faces to an int32 copy,
    # 168 with the whole-mesh excess the chunks replaced
    pretend_cpus(monkeypatch, 1)
    mesh = generate("icosahedron", [(1, 1), (4, 0), (4, 0), (4, 0)]).mesh
    tracemalloc.start()
    try:
        validate_mesh(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mesh.n_faces == 245_760 and peak / mesh.n_faces <= 1.03 * 111


def package_meshes():
    return [
        base_polyhedron("octa"),
        generate("icosa", [(1, 1), (4, 0)]).mesh,  # the certified lattice route
        subdivide_mesh(base_polyhedron("tetra"), (1, 1)).mesh,  # refused: qhull
        convex_hull_triangulation(spiral_points(100)),  # whole-set qhull
        convex_hull_triangulation(spiral_points(meshgen._LUNE_GATE)),  # lunes
    ]


def test_meshes_have_index_dtype_faces_and_validate_mesh_takes_any_integer_faces():
    # every mesh the package builds holds its faces in _INDEX, as a pass reads them
    meshes = package_meshes() + [
        base_polyhedron("tetra"),
        base_polyhedron("icosa"),
        generate("octa", [(2, 1)]).mesh,
        subdivide_mesh(base_polyhedron("icosa"), (3, 0)).mesh,
    ]
    assert [m.faces.dtype for m in meshes] == [np.dtype(meshgen._INDEX)] * len(meshes)
    v, f = meshes[1].vertices, meshes[1].faces
    for faces in (f.astype(np.int64), f.astype(np.int16), f.tolist()):
        validate_mesh(TriangleMesh(vertices=v, faces=faces))


@pytest.mark.parametrize("cast", [lambda f: f.astype(np.int64), np.ndarray.tolist],
                         ids=["int64", "list"])
def test_validate_mesh_casts_its_faces_once(cast):
    mesh = generate("icosa", [(1, 1), (4, 0)]).mesh
    with recording("_half_edges") as halves, recording("_face_checks") as checks:
        validate_mesh(TriangleMesh(vertices=mesh.vertices, faces=cast(mesh.faces)))
    [(f, _)], [(_, g)] = halves, checks
    assert f is g and g.dtype == meshgen._INDEX and np.array_equal(g, mesh.faces)


def test_a_package_mesh_passes_its_own_faces_on():
    # no pass, certificate or validate_mesh copies a package mesh's faces
    for mesh in package_meshes():
        assert meshgen._face_indices(mesh.faces, mesh.n_vertices) is mesh.faces


def test_half_edge_ids_beyond_the_index_dtype_are_refused(monkeypatch):
    # with int8 ids, 128 fit: the octahedron's (2,0) pass has 32 faces and
    # 96 half-edges, the icosahedron's 80 faces and 240
    octa, icosa = (subdivide_mesh(base_polyhedron(b), (2, 0)).mesh for b in ("octa", "icosa"))
    monkeypatch.setattr(meshgen, "_INDEX", np.int8)
    assert len(meshgen._half_edges(octa.faces, octa.n_vertices)) == 48
    with pytest.raises(GeometryError, match="240 half-edge ids; int32 holds"):
        validate_mesh(icosa)


def not_twins(known, upward):
    return np.column_stack([known[:, 0], np.roll(known[:, 1], 1)])


def listed_twice(known, upward):
    return np.vstack([known, known[:1]])


def walking_the_same_way(known, upward):
    # every half-edge is still listed once, but each pair is two upward or
    # two downward halves
    up = np.where(upward[known[:, 0]], known[:, 0], known[:, 1])
    down = known[:, 0] + known[:, 1] - up
    assert len(known) % 2 == 0
    return np.column_stack([np.concatenate([up[0::2], down[0::2]]),
                            np.concatenate([up[1::2], down[1::2]])])


@pytest.mark.parametrize("corrupt", [not_twins, listed_twice, walking_the_same_way])
def test_half_edges_refuse_a_corrupted_known_list(corrupt):
    with recording("_is_hull") as calls:
        subdivide_mesh(base_polyhedron("icosahedron"), (4, 0))
    [(points, faces, known)] = calls
    meshgen._half_edges(faces, len(points), known)
    upward = faces.ravel() < np.roll(faces, -1, axis=1).ravel()
    with pytest.raises(GeometryError, match="not a closed"):
        meshgen._half_edges(faces, len(points), corrupt(known, upward))


@pytest.mark.parametrize(
    "pairs,shares",
    [([(1, 1), (4, 0), (4, 0), (4, 0)], [1.0, 0.25, 0.25, 0.25]), ([(73, 37)], [0.014]),
     ([(6, 6)], [0.12])],
)
def test_certified_pass_sorts_only_its_parent_edge_half_edges(pairs, shares):
    # each pass sorts its parent's half-edges whole, then of the new faces'
    # only the sides on or across a parent edge: 12 of every 48 for (4,0),
    # about 1.3% for (73,37), 1/9 for (6,6); the (1,1) template joins no
    # two of its triangles, so its 60 faces are sorted whole
    with recording("_half_edges") as calls:
        cfg = generate("icosahedron", pairs)
    assert cfg.n == expected_cardinality("icosahedron", pairs)
    sorted_counts = [(len(f), f.size - np.size(known)) for f, _, *known in calls]
    faces = 20
    for (m, n), share, parent, child in zip(pairs, shares, sorted_counts[::2], sorted_counts[1::2]):
        assert parent == (faces, 3 * faces)
        faces *= m * m + m * n + n * n
        assert child[0] == faces and child[1] <= share * 3 * faces
    assert len(sorted_counts) == 2 * len(pairs)


@pytest.mark.parametrize(
    "pairs,runs",
    [([(1, 1)] + [(1, 0)] * 1000, [(1, 1)]),  # 1,000 (1,0) passes would take 1 s
     ([(1, 0), (1, 1), (1, 0), (4, 0)], [(1, 0), (1, 1), (4, 0)]),
     (np.array([[1, 0], [1, 0], [2, 1], [1, 0], [2, 1], [2, 1]]), [(1, 0), (2, 1), (2, 1), (2, 1)])],
)
def test_an_identity_pass_after_the_first_is_skipped(pairs, runs):
    with recording("subdivide_mesh") as calls:
        cfg = generate("icosa", pairs)
    assert [pair for _, pair in calls] == runs and cfg.pairs == tuple(map(tuple, pairs))
    assert {type(v) for pair in cfg.pairs for v in pair} == {int}
    want = generate("icosa", runs)
    assert cfg.points.tobytes() == want.points.tobytes()
    assert cfg.mesh.faces.tobytes() == want.mesh.faces.tobytes()
