import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.transform import Rotation

from spheregrid import (
    DomainError,
    GeometryError,
    SolverError,
    area_coords,
    base_polyhedron,
    point_from_area_coords,
    project_to_sphere,
    spherical_triangle_area,
)
from spheregrid import spherical
from spheregrid.lattice import _bary_numerators, lattice_points, triangulation_number
from spheregrid.spherical import _solve_interior
from util import (
    lonlat,
    random_interior_coords,
    random_triangle,
    sliver_rows,
    sliver_triangle,
    unit_rows,
)

OCTANT = (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0]))


def girard_area(a, b, c):
    """Independent check: spherical excess from the three corner angles.

    Angle at each corner between the tangents of its two great-circle arcs.
    """
    total = 0.0
    for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
        tq = q - (p @ q) * p
        tr = r - (p @ r) * p
        cosang = (tq @ tr) / (np.linalg.norm(tq) * np.linalg.norm(tr))
        total += np.arccos(np.clip(cosang, -1.0, 1.0))
    return total - np.pi


def test_octant_area_is_eighth_of_sphere():
    assert spherical_triangle_area(*OCTANT) == pytest.approx(np.pi / 2, abs=1e-14)


def test_icosahedron_faces_tile_sphere():
    mesh = base_polyhedron("icosahedron")
    v, f = mesh.vertices, mesh.faces
    areas = spherical_triangle_area(v[f[:, 0]], v[f[:, 1]], v[f[:, 2]])
    assert abs(areas.sum() - 4 * np.pi) < 1e-10


def test_area_mirror_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b, c = random_triangle(rng)
        mirrored = [u * np.array([1.0, 1.0, -1.0]) for u in (a, b, c)]
        assert spherical_triangle_area(a, b, c) == pytest.approx(
            spherical_triangle_area(*mirrored), abs=1e-14
        )


def test_area_matches_girard_angle_sum():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a, b, c = random_triangle(rng)
        assert spherical_triangle_area(a, b, c) == pytest.approx(
            girard_area(a, b, c), abs=1e-10
        )


def test_area_rejects_degenerate_triangles():
    e1 = np.array([1.0, 0, 0])
    with pytest.raises(GeometryError):
        spherical_triangle_area(e1, e1, np.array([0, 1.0, 0]))
    with pytest.raises(GeometryError):
        spherical_triangle_area(e1, -e1, np.array([0, 1.0, 0]))
    # collinear: three points on one great circle
    on_equator = unit_rows(np.array([[1, 0, 0], [0, 1, 0], [-1, 1, 0]], dtype=float))
    with pytest.raises(GeometryError):
        spherical_triangle_area(*on_equator)


def test_project_to_sphere():
    assert np.allclose(project_to_sphere([0.0, 0.0, 2.0]), [0, 0, 1])
    assert np.allclose(project_to_sphere([1.0, 1.0, 1.0]), np.ones(3) / np.sqrt(3))
    u = unit_rows(np.array([0.3, -0.4, 0.87]))
    assert np.linalg.norm(project_to_sphere(u) - u) < 1e-15
    with pytest.raises(GeometryError):
        project_to_sphere([0.0, 1e-15, 0.0])


def test_solve_returns_vertices_exactly():
    v0, va, vb = OCTANT
    assert np.array_equal(point_from_area_coords(v0, va, vb, 1.0, 0.0), va)
    assert np.array_equal(point_from_area_coords(v0, va, vb, 0.0, 1.0), vb)
    assert np.array_equal(point_from_area_coords(v0, va, vb, 0.0, 0.0), v0)


def test_solve_octant_centroid():
    p = point_from_area_coords(*OCTANT, 1 / 3, 1 / 3)
    assert np.linalg.norm(p - np.ones(3) / np.sqrt(3)) < 1e-9


def test_solve_round_trip_residuals():
    rng = np.random.default_rng(11)
    for _ in range(200):
        v0, va, vb = random_triangle(rng)
        la, lb = random_interior_coords(rng)
        p = point_from_area_coords(v0, va, vb, la, lb)
        ga, gb = area_coords(v0, va, vb, p)
        assert abs(ga - la) < 1e-12 and abs(gb - lb) < 1e-12
        assert abs(np.linalg.norm(p) - 1.0) < 1e-12


def test_forward_then_inverse_recovers_point():
    rng = np.random.default_rng(12)
    for _ in range(100):
        v0, va, vb = random_triangle(rng)
        w = rng.random(3) + 0.05
        p = unit_rows(w[0] * v0 + w[1] * va + w[2] * vb)
        la, lb = area_coords(v0, va, vb, p)
        q = point_from_area_coords(v0, va, vb, la, lb)
        assert np.linalg.norm(p - q) < 1e-9


def test_solve_batched_matches_scalar():
    rng = np.random.default_rng(13)
    v0, va, vb = random_triangle(rng)
    las = np.array([0.2, 0.0, 0.5, 1 / 3])
    lbs = np.array([0.3, 0.4, 0.0, 1 / 3])
    batch = point_from_area_coords(v0, va, vb, las, lbs)
    for k in range(len(las)):
        single = point_from_area_coords(v0, va, vb, las[k], lbs[k])
        assert np.allclose(batch[k], single, atol=1e-12)


def test_solve_planar_limit():
    # A triangle of angular diameter < 1e-3 behaves like its tangent plane.
    rng = np.random.default_rng(14)
    for _ in range(20):
        centre = unit_rows(rng.normal(size=3))
        t1 = unit_rows(np.cross(centre, rng.normal(size=3)))
        t2 = np.cross(centre, t1)
        offsets = rng.normal(size=(3, 2)) * 2e-4
        v0, va, vb = (
            unit_rows(centre + o[0] * t1 + o[1] * t2) for o in offsets
        )
        if np.linalg.norm(np.cross(va - v0, vb - v0)) < 1e-9:
            continue
        la, lb = random_interior_coords(rng, margin=0.05)
        p = point_from_area_coords(v0, va, vb, la, lb)
        planar = unit_rows((1 - la - lb) * v0 + la * va + lb * vb)
        assert np.linalg.norm(p - planar) < 1e-7


def test_solve_edge_confinement():
    # lambda_b = 0 puts the point on the great circle through v0 and va.
    rng = np.random.default_rng(15)
    for _ in range(50):
        v0, va, vb = random_triangle(rng)
        la = rng.uniform(0.05, 0.95)
        p = point_from_area_coords(v0, va, vb, la, 0.0)
        normal = unit_rows(np.cross(v0, va))
        assert abs(p @ normal) < 1e-10
        ga, gb = area_coords(v0, va, vb, p)
        assert abs(ga - la) < 1e-12 and abs(gb) < 1e-12


def test_sub_areas_additive():
    rng = np.random.default_rng(16)
    for _ in range(50):
        v0, va, vb = random_triangle(rng)
        w = rng.random(3) + 0.05
        p = unit_rows(w[0] * v0 + w[1] * va + w[2] * vb)
        total = spherical_triangle_area(v0, va, vb)
        parts = (
            spherical_triangle_area(v0, va, p)
            + spherical_triangle_area(v0, p, vb)
            + spherical_triangle_area(p, va, vb)
        )
        assert abs(parts - total) < 1e-12


def test_solve_rejects_bad_coords():
    with pytest.raises(DomainError):
        point_from_area_coords(*OCTANT, 0.7, 0.7)
    with pytest.raises(DomainError):
        point_from_area_coords(*OCTANT, -0.2, 0.1)


def test_solve_rejects_non_finite_input():
    with pytest.raises(DomainError):
        point_from_area_coords(*OCTANT, np.nan, 0.1)
    with pytest.raises(GeometryError):
        point_from_area_coords(np.array([np.nan, 0, 0]), *OCTANT[1:], 0.3, 0.3)


def counted_retries(monkeypatch):
    """The row count of every ``_lower`` call, which only the re-solve makes:
    one per Newton step from each vertex labelling."""
    calls = []
    lower = spherical._lower

    def counted(p, res, q, r):
        calls.append(len(res))
        return lower(p, res, q, r)

    monkeypatch.setattr(spherical, "_lower", counted)
    return calls


def test_interior_solve_refuses_a_nan_residual(monkeypatch):
    # a non-finite row is re-solved from all three vertex labellings, and
    # still cannot meet the contract
    calls = counted_retries(monkeypatch)
    v0, va, vb = (x[None, :] for x in OCTANT)
    with pytest.raises(SolverError):
        _solve_interior(v0, va, vb, np.array([np.nan]), np.array([0.3]))
    assert calls == [1] * (3 * spherical._RESOLVE_STEPS)


def test_solve_rejects_degenerate_triangle():
    e1 = np.array([1.0, 0, 0])
    e2 = np.array([0.0, 1, 0])
    with pytest.raises(GeometryError):
        point_from_area_coords(e1, e1, e2, 0.3, 0.3)


rotations = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 4)
    .filter(lambda q: sum(c * c for c in q) > 0.1)
    .map(lambda q: Rotation.from_quat(q).as_matrix())
)
fractions = st.floats(0.0, 1.0)
# interior targets, then the three sides: lambda_b = 0, lambda_a = 0 and
# lambda_a + lambda_b = 1
targets = st.one_of(
    st.tuples(fractions, fractions).map(lambda uv: (uv[0], (1.0 - uv[0]) * uv[1])),
    fractions.map(lambda x: (x, 0.0)),
    fractions.map(lambda x: (0.0, x)),
    fractions.map(lambda x: (x, 1.0 - x)),
)
property_settings = settings(derandomize=True, max_examples=300, deadline=None)


def assert_round_trip(v0, va, vb, la, lb):
    p = point_from_area_coords(v0, va, vb, la, lb)
    ga, gb = area_coords(v0, va, vb, p)
    assert abs(ga - la) <= 1e-12 and abs(gb - lb) <= 1e-12
    assert abs(np.linalg.norm(p) - 1.0) <= 1e-12


@property_settings
@given(
    kind=st.sampled_from(["cap", "needle"]),
    thickness=st.sampled_from([1e-3, 1e-4]),
    span=st.floats(0.2, 1.5),
    offset=st.floats(-0.4, 0.4),
    rotation=rotations,
    order=st.permutations([0, 1, 2]),
    target=targets,
)
def test_round_trip_on_slivers(kind, thickness, span, offset, rotation, order, target):
    tri = sliver_triangle(kind, thickness, span, offset, rotation, order)
    assert_round_trip(*tri, *target)


@property_settings
@given(
    shifts=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
    lats=st.tuples(*[st.floats(0.02, 1.2)] * 3),
    rotation=rotations,
    order=st.permutations([0, 1, 2]),
    target=targets,
)
def test_round_trip_up_to_near_hemisphere_triangles(shifts, lats, rotation, order, target):
    # Three vertices about 120 degrees apart in longitude: the closer they
    # come to the equator, the closer the area comes to 2 pi.
    lons = (0.0, 2 * np.pi / 3 + shifts[0], 4 * np.pi / 3 + shifts[1])
    v = np.array([lonlat(lon, lat) for lon, lat in zip(lons, lats)]) @ rotation.T
    tri = tuple(unit_rows(v)[order])
    assume(spherical_triangle_area(*tri) <= 2 * np.pi - 0.2)
    assert_round_trip(*tri, *target)


def off_corner_targets(m, n):
    """Every (m, n) lattice target but the corners, sides included."""
    t = triangulation_number(m, n)
    alpha, beta = _bary_numerators(lattice_points(m, n), m, n)
    off_corner = (alpha % t > 0) | (beta % t > 0)
    return alpha[off_corner] / t, beta[off_corner] / t


@pytest.mark.parametrize("thickness", [1e-3, 1e-4])
@pytest.mark.parametrize("kind", ["cap", "needle"])
def test_seeded_slivers_meet_the_contract(kind, thickness):
    # seed-7 slivers with random interior targets, then 40 seed-31 slivers
    # against every off-corner (7,3) target: at 1e-4 a few of the latter
    # need a re-solve from another vertex role
    la, lb = off_corner_targets(7, 3)
    v0, va, vb = sliver_rows(np.random.default_rng(31), kind, thickness, 40)[:3]
    lattice_rows = (*(np.repeat(v, len(la), axis=0) for v in (v0, va, vb)),
                    np.tile(la, 40), np.tile(lb, 40))
    for v0, va, vb, la, lb in (
        sliver_rows(np.random.default_rng(7), kind, thickness, 200), lattice_rows
    ):
        p = point_from_area_coords(v0, va, vb, la, lb)
        ga, gb = area_coords(v0, va, vb, p)
        assert max(np.abs(ga - la).max(), np.abs(gb - lb).max()) <= 1e-12


def stress_batch(seed, kind, batch):
    """Batch 1, 2 or 3 of one seed of the 1e-4 sliver stress set, (v0, va, vb, la, lb).

    Batch 1 is 200 slivers with interior targets; batch 2 is 20 slivers,
    each against the 39 off-corner (7,3) targets (row r is sliver r // 39,
    target r % 39); batch 3 is 200 slivers, each with a target on a random
    side at a random fraction.  Each batch is drawn after those before it.
    """
    thickness = 1e-4
    rng = np.random.default_rng([seed, kind == "cap", thickness == 1e-3])
    batches = [sliver_rows(rng, kind, thickness, 200)]
    la, lb = off_corner_targets(7, 3)
    v = sliver_rows(rng, kind, thickness, 20)[:3]
    batches.append((*(np.repeat(x, len(la), axis=0) for x in v), np.tile(la, 20), np.tile(lb, 20)))
    v = sliver_rows(rng, kind, thickness, 200)[:3]
    side, x = rng.integers(0, 3, 200), rng.random(200)
    batches.append((*v, np.where(side == 1, 0.0, x), np.choose(side, [0.0 * x, x, 1.0 - x])))
    return batches[batch - 1]


@pytest.mark.parametrize(
    "seed, kind, batch, row",
    [(1017, "needle", 2, 236), (1026, "cap", 2, 662),
     (1031, "needle", 1, 30), (1032, "needle", 3, 101)],
)
def test_stress_rows_meet_the_contract(seed, kind, batch, row):
    # the four rows of the stress set that re-solving from the other two
    # labellings only, with two Newton steps each, left at 1.04e-12 to
    # 1.25e-12; the restart from the original labelling closes the last one
    assert_round_trip(*(x[row] for x in stress_batch(seed, kind, batch)))


def test_vertex_role_retry_meets_the_contract(monkeypatch):
    calls = counted_retries(monkeypatch)
    v0, va, vb, la, lb = sliver_rows(np.random.default_rng(7), "cap", 1e-4, 200)
    p = _solve_interior(v0, va, vb, la, lb)
    assert sum(calls) >= 1
    ga, gb = area_coords(v0, va, vb, p)
    assert max(np.abs(ga - la).max(), np.abs(gb - lb).max()) <= 1e-12


def solved_or_missed(*args):
    """The solver's output bytes, or the residual of its SolverError."""
    try:
        return np.ascontiguousarray(_solve_interior(*args)).tobytes()
    except SolverError as exc:
        return exc.residual


@pytest.mark.parametrize("kind", ["random", "cap", "needle"])
def test_per_face_solve_equals_the_row_wise_solve_bit_for_bit(kind, monkeypatch):
    # (1, F, 3) corners against (n, 1) fractions, as subdivide_mesh solves,
    # against every (face, node) row on its own, 4 faces a call; on the 1e-4
    # slivers some rows are re-solved from another vertex role, and a call
    # that still misses the contract must miss it by the same residual both
    # ways
    calls = counted_retries(monkeypatch)
    rng = np.random.default_rng(31)
    if kind == "random":
        v0, va, vb = (np.array(c) for c in zip(*(random_triangle(rng) for _ in range(8))))
    else:
        v0, va, vb = sliver_rows(rng, kind, 1e-4, 8)[:3]
    la, lb = off_corner_targets(7, 3)
    for k in range(0, len(v0), 4):
        tri = [v[k:k + 4] for v in (v0, va, vb)]
        per_face = solved_or_missed(*(v[None] for v in tri), la[:, None], lb[:, None])
        if isinstance(per_face, bytes):  # node-major (n, F, 3) to face-major rows
            per_face = np.frombuffer(per_face).reshape(len(la), 4, 3).transpose(1, 0, 2)
            per_face = np.ascontiguousarray(per_face).tobytes()
        rows = [np.repeat(v, len(la), axis=0) for v in tri]
        assert per_face == solved_or_missed(*rows, np.tile(la, 4), np.tile(lb, 4))
    assert (sum(calls) > 0) == (kind != "random")


@pytest.mark.parametrize("pair", [(7, 3), (27, 0), (13, 8)])
def test_icosahedron_faces_solve_to_rounding(pair):
    mesh = base_polyhedron("icosahedron")
    v, f = mesh.vertices, mesh.faces
    m, n = pair
    g = triangulation_number(m, n)
    alpha, beta = _bary_numerators(lattice_points(m, n), m, n)
    inner = (alpha > 0) & (beta > 0) & (alpha + beta < g)
    k = int(inner.sum())
    la = np.tile(alpha[inner] / g, len(f))
    lb = np.tile(beta[inner] / g, len(f))
    v0, va, vb = (np.repeat(v[f[:, i]], k, axis=0) for i in range(3))
    p = point_from_area_coords(v0, va, vb, la, lb)
    ga, gb = area_coords(v0, va, vb, p)
    assert max(np.abs(ga - la).max(), np.abs(gb - lb).max()) <= 1e-14


# finite floats whose products and sums of three stay finite, with the
# signed zeros and subnormals drawn often
components = st.one_of(
    st.floats(-1e150, 1e150),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1030, -(2.0**-1074) * 3]),
)
xyz_rows = arrays(np.float64, st.tuples(st.integers(1, 12), st.just(3)), elements=components)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(a=xyz_rows, data=st.data())
def test_kernels_match_the_axis_reductions_bit_for_bit(a, data):
    b = data.draw(arrays(np.float64, a.shape, elements=components))
    prod = a * b
    dot, want = spherical._dot(a.T, b.T), prod.sum(axis=-1)
    # numpy's sum starts from +0.0, so three -0.0 products sum to +0.0
    # there and to -0.0 left to right; every other row has the same bits
    neg_zero = np.all((prod == 0.0) & np.signbit(prod), axis=1)
    assert dot[~neg_zero].tobytes() == want[~neg_zero].tobytes()
    assert np.all(want[neg_zero] == 0.0) and np.all(np.signbit(dot[neg_zero]))
    norm = spherical._norm(a.T)
    assert norm.tobytes() == np.sqrt((a * a).sum(axis=-1)).tobytes()
    cross = spherical._cross(a.T, b.T)
    assert np.ascontiguousarray(cross.T).tobytes() == np.cross(a, b).tobytes()
