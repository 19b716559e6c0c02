import numpy as np
import pytest

from spheregrid import (
    GeometryError,
    ParameterError,
    TriangleMesh,
    base_polyhedron,
    convex_hull_triangulation,
    expected_cardinality,
    generate,
    subdivide_mesh,
    validate_mesh,
)
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


def test_hull_triangulates_coplanar_patches():
    # Cuboctahedron: six square facets must come out as deterministic
    # triangle pairs, keeping the mesh closed.
    v = []
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        for si in (1, -1):
            for sj in (1, -1):
                row = [0.0, 0.0, 0.0]
                row[i], row[j] = si, sj
                v.append(row)
    v = unit_rows(np.array(v))
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
