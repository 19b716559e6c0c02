"""Shared helpers for the test suite."""

import os
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import spheregrid
import spheregrid.meshgen as meshgen
from spheregrid import TriangleMesh, base_polyhedron, expected_cardinality, generate

BASES = ["tetrahedron", "octahedron", "icosahedron"]


def child_env():
    """The environment of a child process that imports this same package."""
    src = str(Path(spheregrid.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def unit_rows(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def copied_vertex_tetrahedron():
    """The tetrahedron with a copy of vertex 0 splitting its first face.

    The edge from vertex 0 to its copy has length 0.
    """
    tet = base_polyhedron("tetrahedron")
    (a, b, c), *others = tet.faces.tolist()
    assert a == 0
    return TriangleMesh(
        vertices=np.vstack([tet.vertices, tet.vertices[:1]]),
        faces=np.array(others + [[a, b, 4], [b, c, 4], [c, a, 4]]),
    )


def random_triangle(rng, min_area=0.05, max_area=2.0):
    """A well-conditioned random spherical triangle (v0, va, vb)."""
    while True:
        v = unit_rows(rng.normal(size=(3, 3)))
        chords = [np.linalg.norm(v[i] - v[j]) for i, j in ((0, 1), (1, 2), (2, 0))]
        anti = [np.linalg.norm(v[i] + v[j]) for i, j in ((0, 1), (1, 2), (2, 0))]
        if min(chords) < 0.1 or min(anti) < 0.1:
            continue
        num = abs(np.dot(v[0], np.cross(v[1], v[2])))
        den = 1.0 + v[0] @ v[1] + v[1] @ v[2] + v[2] @ v[0]
        area = 2.0 * np.arctan2(num, den)
        if min_area <= area <= max_area:
            return v[0], v[1], v[2]


def random_interior_coords(rng, margin=0.0):
    """Uniform area-coordinate target strictly inside the simplex."""
    while True:
        la, lb = rng.random(2)
        if la + lb < 1.0 - margin and la > margin and lb > margin:
            return la, lb


def random_sequence(rng, max_k=3, max_m=6):
    k = int(rng.integers(1, max_k + 1))
    pairs = []
    for _ in range(k):
        m = int(rng.integers(1, max_m + 1))
        n = int(rng.integers(0, m + 1))
        pairs.append((m, n))
    return tuple(pairs)


def random_config(rng, n_max, n_min=12, max_k=3, max_m=6):
    """Generate a configuration whose size lands in [n_min, n_max]."""
    while True:
        base = BASES[rng.integers(0, len(BASES))]
        pairs = random_sequence(rng, max_k=max_k, max_m=max_m)
        if n_min <= expected_cardinality(base, pairs) <= n_max:
            return generate(base, pairs)


def lonlat(lon, lat):
    return np.array([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)])


def sliver_triangle(kind, thickness, span, offset, rotation, order):
    """A rotated sliver (v0, va, vb), its vertices taken in ``order``.

    A ``"cap"`` has its third vertex ``thickness`` off the great-circle
    arc of length ``span`` through the other two, so its largest angle is
    close to pi; a ``"needle"`` has one side of length ``thickness`` and
    two of length about ``span``.  ``offset`` in [-0.4, 0.4] slides the
    odd vertex along (cap) or across (needle) the long direction.
    """
    if kind == "cap":
        v = [
            lonlat(-span / 2, 0.0),
            lonlat(span / 2, 0.0),
            lonlat(offset * span, thickness),
        ]
    else:
        v = [
            lonlat(0.0, -thickness / 2),
            lonlat(0.0, thickness / 2),
            lonlat(span, offset * thickness),
        ]
    v = unit_rows(np.array(v) @ rotation.T)
    return tuple(v[list(order)])


def sliver_rows(rng, kind, thickness, m):
    """m seeded slivers and interior targets, stacked as (v0, va, vb, la, lb)."""
    rows = []
    for _ in range(m):
        tri = sliver_triangle(
            kind,
            thickness,
            rng.uniform(0.2, 1.5),
            rng.uniform(-0.4, 0.4),
            Rotation.random(random_state=rng).as_matrix(),
            rng.permutation(3),
        )
        rows.append((*tri, *random_interior_coords(rng)))
    return tuple(np.array(col) for col in zip(*rows))


def turned_icosa_64():
    """icosa 64,0 (N = 40,962) turned and reordered by seeded draws."""
    rotation = Rotation.random(random_state=11).as_matrix()
    points = generate("icosahedron", [(64, 0)]).points @ rotation.T
    return points[np.random.default_rng(11).permutation(len(points))]


@contextmanager
def counting_qhull():
    """(point count, qhull options, whether it raised) of every qhull call
    made inside the block, in the order the calls end."""
    calls = []
    real = meshgen.ConvexHull

    def counting(points, qhull_options=None):
        raised = True
        try:
            hull = real(points, qhull_options=qhull_options)
            raised = False
            return hull
        finally:
            calls.append((len(points), qhull_options, raised))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(meshgen, "ConvexHull", counting)
        yield calls


def pretend_cpus(monkeypatch, count):
    """Let the package see ``count`` CPUs for the rest of the test."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@contextmanager
def thread_starts():
    """The name of every thread started inside the block."""
    names = []
    real = threading.Thread.start

    def start(thread):
        names.append(thread.name)
        return real(thread)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(threading.Thread, "start", start)
        yield names
