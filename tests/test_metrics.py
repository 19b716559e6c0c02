import warnings

import numpy as np
import pytest

from spheregrid import (
    GeometryError,
    ParameterError,
    SphericalConfig,
    TriangleMesh,
    base_polyhedron,
    covering,
    edge_ratios,
    evaluate,
    generate,
    mesh_ratio,
    metrics,
    separation,
    validate_mesh,
)
from oracle import brute_separation, sampled_covering, spiral_points
from util import copied_vertex_tetrahedron, random_config, unit_rows

ICOSA_EDGE = 4 / np.sqrt(10 + 2 * np.sqrt(5))
TETRA_SEP = np.sqrt(8 / 3)
TETRA_COV = np.sqrt(4 / 3)
OCTA_COV = np.sqrt(2 - 2 / np.sqrt(3))


def test_separation_antipodal_pair():
    pts = np.array([[0.0, 0, 1], [0, 0, -1.0]])
    assert separation(SphericalConfig(points=pts)) == 2.0


def test_separation_icosahedron_analytic():
    cfg = SphericalConfig(points=base_polyhedron("icosahedron").vertices)
    assert separation(cfg) == pytest.approx(ICOSA_EDGE, abs=1e-12)


def test_separation_needs_two_points():
    with pytest.raises(ParameterError):
        separation(SphericalConfig(points=np.array([[0.0, 0, 1]])))


def test_separation_equals_brute_force_exactly():
    rng = np.random.default_rng(31)
    for _ in range(8):
        cfg = random_config(rng, n_max=1500)
        assert separation(cfg) == brute_separation(cfg.points)


def test_separation_ignores_face_orientation_on_a_cap():
    # The hull of a spherical cap does not enclose the origin, so orienting
    # faces away from it turns the cap's base faces inward.
    probes = spiral_points(3200)
    cap = SphericalConfig(points=probes[probes[:, 2] > 0.5])
    with pytest.raises(GeometryError):
        validate_mesh(cap.hull())
    assert separation(cap) == brute_separation(cap.points)
    # edge_ratios reads the cap's faces; every measure with a covering refuses it
    ratios = edge_ratios(cap.hull())
    assert len(ratios) == cap.hull().n_faces
    assert np.all(ratios > 0.0) and np.all(ratios <= 1.0)
    for measure in (covering, mesh_ratio, evaluate):
        with pytest.raises(GeometryError):
            measure(cap)


def test_zero_length_edge_raises_only_the_typed_error():
    mesh = copied_vertex_tetrahedron()
    config = SphericalConfig(points=mesh.vertices, mesh=mesh)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for measure in (lambda: edge_ratios(mesh), lambda: separation(config),
                        lambda: covering(config), lambda: mesh_ratio(config),
                        lambda: evaluate(config)):
            with pytest.raises(GeometryError, match="zero-length edge"):
                measure()


def test_covering_tetrahedron_analytic():
    cfg = SphericalConfig(points=base_polyhedron("tetrahedron").vertices)
    assert covering(cfg) == pytest.approx(TETRA_COV, abs=1e-12)


def test_covering_octahedron_analytic():
    cfg = SphericalConfig(points=base_polyhedron("octahedron").vertices)
    assert covering(cfg) == pytest.approx(OCTA_COV, abs=1e-12)


def test_covering_rejects_rank_deficient_points():
    ring = unit_rows(
        np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=float)
    )
    with pytest.raises(GeometryError):
        covering(SphericalConfig(points=ring))


def test_covering_refuses_points_that_do_not_surround_the_origin():
    # The cap's hull leaves the origin outside: the covering radius is
    # attained in the hole, at no facet circumcentre direction.
    probes = spiral_points(3200)
    cap = SphericalConfig(points=probes[probes[:, 2] > 0.5])
    assert sampled_covering(cap.points, probes=20_000) > 1.7
    with pytest.raises(GeometryError):
        covering(cap)


def test_covering_dominates_sampled_estimate():
    rng = np.random.default_rng(32)
    # Three points 1e-8 apart make a hull facet whose edge cross product
    # has norm ~7e-17; its normal, divided by that norm, still points at
    # the facet's circumcentre.
    p = np.array([0.3, 0.4, 0.5]) / np.linalg.norm([0.3, 0.4, 0.5])
    tri = unit_rows(np.array([p, p + [1e-8, 0, 0], p + [0, 1e-8, 0]]))
    sliver = SphericalConfig(points=np.vstack([spiral_points(200), tri]))
    a, b, c = sliver.hull().vertices[sliver.hull().faces].transpose(1, 0, 2)
    assert np.linalg.norm(np.cross(b - a, c - a), axis=1).min() < 1e-16
    for cfg in [random_config(rng, n_max=800) for _ in range(4)] + [sliver]:
        exact = covering(cfg)
        sampled = sampled_covering(cfg.points, probes=50_000)
        assert sampled <= exact + 1e-12
        assert exact - sampled < 0.02


def test_mesh_ratio_tetrahedron():
    cfg = SphericalConfig(points=base_polyhedron("tetrahedron").vertices)
    assert mesh_ratio(cfg) == pytest.approx(1 / np.sqrt(2), abs=1e-9)


def test_edge_ratios_regular_faces():
    for name in ("tetrahedron", "octahedron", "icosahedron"):
        ratios = edge_ratios(base_polyhedron(name))
        assert np.all(np.abs(ratios - 1.0) < 1e-12)


def test_edge_ratios_isoceles_face():
    # One face with chord lengths (1, 1, 1.25): ratio 0.8.
    ang_leg = 2 * np.arcsin(0.5)
    ang_base = 2 * np.arcsin(0.625)
    v1 = np.array([0.0, 0.0, 1.0])
    v2 = np.array([np.sin(ang_leg), 0.0, np.cos(ang_leg)])
    cosphi = (np.cos(ang_base) - np.cos(ang_leg) ** 2) / np.sin(ang_leg) ** 2
    phi = np.arccos(cosphi)
    v3 = np.array(
        [np.sin(ang_leg) * np.cos(phi), np.sin(ang_leg) * np.sin(phi), np.cos(ang_leg)]
    )
    mesh = TriangleMesh(
        vertices=np.vstack([v1, v2, v3]), faces=np.array([[0, 1, 2]])
    )
    assert np.linalg.norm(v1 - v2) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(v2 - v3) == pytest.approx(1.25, abs=1e-12)
    assert edge_ratios(mesh)[0] == pytest.approx(0.8, abs=1e-12)


def test_edge_ratios_of_generated_config_in_unit_interval():
    ratios = edge_ratios(generate("icosahedron", [(3, 1)]).hull())
    assert np.all(ratios > 0.0) and np.all(ratios <= 1.0)


def test_metrics_isometry_invariance():
    rng = np.random.default_rng(33)
    cfg = generate("icosahedron", [(3, 2)])
    base_sep, base_cov = separation(cfg), covering(cfg)
    for _ in range(3):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = SphericalConfig(points=cfg.points @ q.T)
        assert separation(rotated) == pytest.approx(base_sep, rel=1e-9)
        assert covering(rotated) == pytest.approx(base_cov, rel=1e-9)


def test_mesh_ratio_floor_for_generated_configs():
    # Asymptotic lower bound ~0.618 holds for every config of at least
    # 100 points we produce.
    for base, pairs in [
        ("icosahedron", [(4, 0)]),
        ("icosahedron", [(1, 1), (3, 0)]),
        ("octahedron", [(6, 0)]),
        ("tetrahedron", [(8, 0)]),
    ]:
        cfg = generate(base, pairs)
        assert cfg.n >= 100
        assert mesh_ratio(cfg) > 0.618


def test_evaluate_report_fields():
    cfg = generate("icosahedron", [(5, 0)])
    report = evaluate(cfg, seq="5,0")
    assert report.n == 252
    assert report.mesh_ratio == pytest.approx(report.covering / report.separation)
    assert 0.0 < report.edge_ratio_min <= report.edge_ratio_mean <= 1.0
    assert sum(report.edge_ratio_hist) == cfg.hull().n_faces
    lines = report.lines()
    assert any(line.startswith("mesh_ratio=0.6533") for line in lines)
    assert lines[0] == "base=icosahedron"
    assert lines[1] == "seq=5,0"


def test_evaluate_builds_the_face_edge_chords_once(monkeypatch):
    cfg = generate("icosahedron", [(3, 1)])
    expected = evaluate(cfg)
    calls = []
    face_scan = metrics._face_scan

    def counted(mesh):
        calls.append(mesh)
        return face_scan(mesh)

    monkeypatch.setattr(metrics, "_face_scan", counted)
    assert evaluate(cfg) == expected
    assert len(calls) == 1
