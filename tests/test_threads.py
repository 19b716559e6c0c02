"""The two-thread scans: the hull certificate's edge and face loops, the
metrics' face scan and the lune hulls, whose chunks two threads take in
turn above a gate of two chunks."""

import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import spheregrid.meshgen as meshgen
from spheregrid import (
    GeometryError,
    SphericalConfig,
    TriangleMesh,
    convex_hull_triangulation,
    covering,
    evaluate,
    generate,
    metrics,
    validate_mesh,
)
from util import child_env, pretend_cpus, thread_starts


@pytest.fixture(scope="module")
def icosa_64():
    """A certified lattice hull of 81,920 faces and 122,880 edges."""
    mesh = generate("icosahedron", [(64, 0)]).mesh
    assert mesh.n_faces >= 2 * meshgen._CERT_CHUNK
    return mesh


def beyond_face(mesh, k, scale):
    """The mesh's vertices with the origin moved to ``scale`` times face k's
    centroid: just beyond its plane for a scale a little above 1."""
    return mesh.vertices - scale * mesh.vertices[mesh.faces[k]].mean(axis=0)


def chunk_bounds(n):
    return [(k, min(k + meshgen._CERT_CHUNK, n)) for k in range(0, n, meshgen._CERT_CHUNK)]


@pytest.mark.parametrize(
    "chunks,cpus,processes,threaded",
    [(2, 2, 1, True), (2.5, 2, 1, True), (30, 2, 1, True), (2, 4, 2, True),
     (1.99, 2, 1, False), (5, 1, 1, False), (5, 3, 2, False)],
)
def test_chunks_come_back_in_order_with_a_helper_above_the_gate_on_two_cpus(
        monkeypatch, chunks, cpus, processes, threaded):
    # a sweep worker's share of the CPUs is the process's CPUs over the jobs
    n = int(chunks * meshgen._CERT_CHUNK)
    pretend_cpus(monkeypatch, cpus)
    monkeypatch.setattr(meshgen, "_processes", processes)
    with thread_starts() as started:
        assert meshgen._chunked(lambda lo, hi: (lo, hi), n) == chunk_bounds(n)
    assert len(started) == threaded


@pytest.mark.parametrize("cpus", [1, 2])
def test_chunks_raise_the_first_failing_chunk_error_and_stop(monkeypatch, cpus):
    pretend_cpus(monkeypatch, cpus)
    calls = []

    def fail(lo, hi):
        calls.append(lo)
        if lo == meshgen._CERT_CHUNK:
            time.sleep(0.05)  # meanwhile a later chunk fails on the other thread
        if lo:
            raise ValueError(f"chunk at {lo}")
        return lo

    with pytest.raises(ValueError, match=f"chunk at {meshgen._CERT_CHUNK}$"):
        meshgen._chunked(fail, 100 * meshgen._CERT_CHUNK)
    # no chunk is handed out after a failure: at most one more in flight
    assert sorted(calls)[:2] == [0, meshgen._CERT_CHUNK] and len(calls) <= 4


def test_certificate_refuses_a_face_turned_inward_in_its_second_half(monkeypatch, icosa_64):
    # with the origin just beyond face k, that face alone turns inward; every
    # edge stays convex, so the face loop's second half is what refuses it
    pretend_cpus(monkeypatch, 2)
    k = icosa_64.n_faces - 10
    points = beyond_face(icosa_64, k, 1.0 + 1e-6)
    excess = meshgen._signed_excess(*meshgen._corners(points, icosa_64.faces))
    assert np.flatnonzero(excess <= 0.0).tolist() == [k]
    with thread_starts() as started:
        assert not meshgen._is_hull(points, icosa_64.faces)
    assert len(started) == 2
    assert meshgen._is_hull(beyond_face(icosa_64, k, 1.0 - 1e-6), icosa_64.faces)


def test_certificate_refuses_a_concave_edge_in_its_second_half(monkeypatch, icosa_64):
    # the last edge's diagonal flipped: edges are sorted on their lower
    # vertex, and every edge the flip touches sorts into the second half
    pretend_cpus(monkeypatch, 2)
    faces = icosa_64.faces
    h = meshgen._half_edges(faces, icosa_64.n_vertices)[-1]
    (i, j), (c, d) = faces.ravel()[h], np.roll(faces, 1, axis=1).ravel()[h]
    keep = faces[~(np.isin(faces, [i, j]).sum(axis=1) == 2)]
    flipped = np.vstack([keep, [[i, d, c], [d, j, c]]])
    validate_mesh(TriangleMesh(vertices=icosa_64.vertices, faces=flipped))
    half = meshgen._half_edges(flipped, icosa_64.n_vertices)
    assert min(i, j, c, d) > flipped.ravel()[half[len(half) // 2, 0]]
    with thread_starts() as started:
        assert not meshgen._is_hull(icosa_64.vertices, flipped)
    assert len(started) == 1  # the face loop does not run


def test_face_scan_refuses_a_zero_length_edge_in_its_second_half(monkeypatch, icosa_64):
    pretend_cpus(monkeypatch, 2)
    p, q, _ = icosa_64.faces[-1]
    touching = np.flatnonzero((icosa_64.faces == q).any(axis=1))
    assert touching.min() >= icosa_64.n_faces // 2
    vertices = icosa_64.vertices.copy()
    vertices[q] = vertices[p]
    mesh = TriangleMesh(vertices=vertices, faces=icosa_64.faces)
    with warnings.catch_warnings(), thread_starts() as started:
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match=metrics._ZERO_EDGE):
            evaluate(SphericalConfig(points=vertices, mesh=mesh))
    assert len(started) == 1


def test_face_scan_refuses_an_outside_origin_in_its_second_half(monkeypatch, icosa_64):
    pretend_cpus(monkeypatch, 2)
    k = icosa_64.n_faces - 10
    points = beyond_face(icosa_64, k, 1.0 + 1e-6)
    config = SphericalConfig(points=points, mesh=TriangleMesh(points, icosa_64.faces))
    with thread_starts() as started:
        with pytest.raises(GeometryError, match=metrics._OUTSIDE):
            covering(config)
    assert len(started) == 1
    shortest, _, ratios = metrics._face_scan(config.mesh)
    pretend_cpus(monkeypatch, 1)
    one_cpu = metrics._face_scan(config.mesh)
    assert one_cpu[0] == shortest and one_cpu[2].tobytes() == ratios.tobytes()
    inside = beyond_face(icosa_64, k, 1.0 - 1e-6)
    assert covering(SphericalConfig(points=inside, mesh=TriangleMesh(inside, icosa_64.faces)))


def generate_and_evaluate(base, pairs):
    cfg = generate(base, pairs)
    return cfg.points.tobytes(), cfg.mesh.faces.tobytes(), repr(evaluate(cfg))


#: above the gate: a certified n = 0 pass, a certified n > 0 pass, and a
#: refused pass whose qhull runs in lunes
ABOVE_GATE = [("icosahedron", [(64, 0)]), ("icosahedron", [(55, 8)]),
              ("tetrahedron", [(128, 0)])]


def test_concurrent_callers_get_the_results_of_one_cpu(monkeypatch):
    pretend_cpus(monkeypatch, 1)
    with thread_starts() as started:
        serial = [generate_and_evaluate(*case) for case in ABOVE_GATE]
    assert started == []
    pretend_cpus(monkeypatch, 2)
    got = [None] * len(ABOVE_GATE)
    start = threading.Barrier(len(ABOVE_GATE), timeout=60)

    def call(k):
        start.wait()
        got[k] = generate_and_evaluate(*ABOVE_GATE[k])

    threads = [threading.Thread(target=call, args=(k,)) for k in range(len(ABOVE_GATE))]
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
    assert got == serial


def test_one_cpu_starts_no_thread_and_gives_the_same_bytes(monkeypatch):
    rng = np.random.default_rng(3)
    turned = generate("icosahedron", [(64, 0)]).points @ np.linalg.qr(rng.normal(size=(3, 3)))[0]

    def outputs():
        return ([generate_and_evaluate(*case) for case in ABOVE_GATE[:2]],
                convex_hull_triangulation(turned).faces.tobytes())

    running = threading.active_count()
    pretend_cpus(monkeypatch, 2)
    with thread_starts() as started:
        two = outputs()
    assert started and threading.active_count() == running
    pretend_cpus(monkeypatch, 1)
    with thread_starts() as started:
        assert outputs() == two
    assert started == []


def test_no_thread_below_the_gate(monkeypatch):
    pretend_cpus(monkeypatch, 2)
    with thread_starts() as started:
        cfg = generate("icosahedron", [(1, 1), (4, 0), (3, 0)])
        evaluate(cfg)
    edges = 3 * cfg.mesh.n_faces // 2
    assert edges < 2 * meshgen._CERT_CHUNK <= 3 * edges and started == []


def test_import_starts_no_thread():
    code = "import threading, spheregrid, spheregrid.cli; print(threading.active_count())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"
