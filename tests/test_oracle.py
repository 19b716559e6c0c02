import numpy as np
import pytest

from spheregrid import ParameterError, base_polyhedron
from oracle import brute_separation, sampled_covering, spiral_points

TETRA_COV = np.sqrt(4 / 3)
OCTA_COV = np.sqrt(2 - 2 / np.sqrt(3))


def test_brute_separation_antipodal():
    assert brute_separation(np.array([[0.0, 0, 1], [0, 0, -1.0]])) == 2.0


def test_brute_separation_icosahedron():
    v = base_polyhedron("icosahedron").vertices
    assert brute_separation(v) == pytest.approx(4 / np.sqrt(10 + 2 * np.sqrt(5)), abs=1e-12)


def test_brute_separation_guards():
    with pytest.raises(ParameterError):
        brute_separation(np.array([[0.0, 0, 1]]))
    with pytest.raises(ParameterError):
        brute_separation(np.zeros((5001, 3)))


def test_spiral_points_deterministic_and_unit():
    a = spiral_points(50_000)
    b = spiral_points(50_000)
    assert np.array_equal(a, b)
    assert np.all(np.abs(np.linalg.norm(a, axis=1) - 1.0) < 1e-12)


def test_spiral_points_quasi_uniform():
    # Every octant of the sphere receives its fair share of probes.
    pts = spiral_points(80_000)
    signs = (pts > 0).astype(int)
    counts = np.bincount(signs[:, 0] * 4 + signs[:, 1] * 2 + signs[:, 2], minlength=8)
    assert counts.min() > 0.8 * len(pts) / 8


def test_sampled_covering_probe_guard():
    with pytest.raises(ParameterError):
        sampled_covering(base_polyhedron("tetrahedron").vertices, probes=100)


def test_sampled_covering_tetrahedron_analytic():
    est = sampled_covering(base_polyhedron("tetrahedron").vertices, probes=1_000_000)
    assert est <= TETRA_COV + 1e-12
    assert TETRA_COV - est < 2e-3


def test_sampled_covering_octahedron_analytic():
    est = sampled_covering(base_polyhedron("octahedron").vertices, probes=1_000_000)
    assert est <= OCTA_COV + 1e-12
    assert OCTA_COV - est < 2e-3
