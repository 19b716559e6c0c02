import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheregrid import (
    DomainError,
    ParameterError,
    barycentric_coords,
    base_polyhedron,
    lattice_points,
    subdivide_mesh,
    to_plane,
    triangulation_number,
    validate_pair,
)
from util import BASES


def enumerate_triangle_points(m, n):
    """Independent oracle: integer cross-product sign tests around the triangle,
    scanned over a deliberately oversized box."""
    corners = [(0, 0), (m, n), (-n, m + n)]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    found = []
    for q1 in range(-n - 2, m + 3):
        for q2 in range(-2, m + n + 3):
            p = (q1, q2)
            signs = [
                cross(corners[0], corners[1], p),
                cross(corners[1], corners[2], p),
                cross(corners[2], corners[0], p),
            ]
            if all(s >= 0 for s in signs) or all(s <= 0 for s in signs):
                found.append(p)
    return sorted(found)


@pytest.mark.parametrize(
    "pair,expected",
    [
        ((5, 0), 25),
        ((1, 1), 3),
        ((27, 0), 729),
        ((15, 2), 259),
    ],
)
def test_triangulation_number(pair, expected):
    assert triangulation_number(*pair) == expected


def test_lattice_points_small_cases():
    assert lattice_points(1, 0).tolist() == [[0, 0], [0, 1], [1, 0]]
    got = {tuple(p) for p in lattice_points(1, 1)}
    assert got == {(0, 0), (1, 1), (-1, 2), (0, 1)}
    assert len(lattice_points(5, 0)) == 21


def test_lattice_points_match_enumeration_oracle():
    rng = np.random.default_rng(7)
    cases = [(1, 0), (1, 1), (2, 1), (5, 0), (6, 1)]
    for _ in range(30):
        m = int(rng.integers(1, 41))
        n = int(rng.integers(0, m + 1))
        cases.append((m, n))
    for m, n in cases:
        got = [tuple(p) for p in lattice_points(m, n)]
        assert got == enumerate_triangle_points(m, n)


def test_lattice_point_count_closed_form():
    for m in range(1, 41):
        for n in range(0, m + 1, max(1, m // 4)):
            g = math.gcd(m, n)
            gamma = triangulation_number(m, n)
            assert len(lattice_points(m, n)) == (gamma + 3 * g) // 2 + 1


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    base=st.sampled_from(BASES),
    pair=st.integers(1, 30).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))),
)
def test_lattice_counts_property(base, pair):
    # Pick's theorem: the triangle has area T/2 in lattice units and
    # 3 gcd(m, n) boundary points; every face splits into T triangles
    m, n = pair
    t = triangulation_number(m, n)
    assert len(lattice_points(m, n)) == (t + 3 * math.gcd(m, n)) // 2 + 1
    if m <= 9:
        mesh = base_polyhedron(base)
        assert subdivide_mesh(mesh, pair).mesh.n_faces == mesh.n_faces * t


def test_lattice_points_sorted_and_unique():
    pts = lattice_points(7, 3)
    as_tuples = [tuple(p) for p in pts]
    assert as_tuples == sorted(set(as_tuples))


@pytest.mark.parametrize("bad", [(0, 0), (1, 2), (-1, 0), (3, -1)])
def test_invalid_pairs_rejected(bad):
    with pytest.raises(ParameterError):
        validate_pair(bad)
    with pytest.raises(ParameterError):
        lattice_points(*bad)


def test_barycentric_vertices_and_exactness():
    for m, n in [(1, 0), (4, 0), (5, 2), (6, 6)]:
        bc = barycentric_coords(np.array([[0, 0], [m, n], [-n, m + n]]), m, n)
        assert bc.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    assert barycentric_coords(np.array([1, 0]), 5, 0).tolist() == [0.2, 0.0]


def test_barycentric_bounds_and_sum():
    for m, n in [(5, 0), (6, 1), (4, 4), (7, 3)]:
        bc = barycentric_coords(lattice_points(m, n), m, n)
        assert np.all(bc >= 0.0) and np.all(bc <= 1.0)
        assert np.all(bc.sum(axis=1) <= 1.0 + 1e-15)


def test_barycentric_rejects_outside_points():
    with pytest.raises(DomainError):
        barycentric_coords(np.array([[1, 0]]), 1, 1)
    with pytest.raises(DomainError):
        barycentric_coords(np.array([[6, 0]]), 5, 0)


def test_planar_round_trip():
    # p reconstructed from its coordinates as la * a + lb * b recovers
    # (q1, q2) exactly after rounding.
    for m, n in [(5, 0), (6, 1), (4, 4), (9, 2)]:
        pts = lattice_points(m, n)
        bc = barycentric_coords(pts, m, n)
        a = np.array([m, n], dtype=float)
        b = np.array([-n, m + n], dtype=float)
        rec = bc[:, :1] * a + bc[:, 1:] * b
        assert np.all(np.abs(rec - pts) < 1e-9)
        assert np.array_equal(np.rint(rec).astype(np.int64), pts)


def test_edge_coordinate_multisets_are_reversal_symmetric():
    # On each triangle side the non-zero coordinate values form a multiset
    # invariant under t -> 1 - t; this is what makes grids on shared mesh
    # edges agree from both sides.
    for m, n in [(6, 0), (6, 3), (4, 2), (9, 6)]:
        bc = barycentric_coords(lattice_points(m, n), m, n)
        la, lb = bc[:, 0], bc[:, 1]
        sides = [
            la[lb == 0.0],
            lb[la == 0.0],
            la[np.isclose(la + lb, 1.0, atol=1e-15)],
        ]
        for t in sides:
            assert sorted(np.round(t, 12)) == sorted(np.round(1.0 - t, 12))


def test_to_plane_basis():
    xy = to_plane(np.array([[1, 0], [0, 1], [2, 2]]))
    assert np.allclose(xy[0], [1.0, 0.0])
    assert np.allclose(xy[1], [0.5, np.sqrt(3) / 2])
    assert np.allclose(xy[2], [3.0, np.sqrt(3)])
