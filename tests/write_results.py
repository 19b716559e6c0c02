"""The results table that ``tests/test_results.py`` checks every result against.

    PYTHONPATH=src python tests/write_results.py

writes ``tests/results.json``.  For each configuration of ``CONFIGS`` it
records N, the SHA-256 of the int64 faces (canonical order, so they compare
exactly), every field of ``evaluate``'s report and a points fingerprint.  It
records the hull faces and report of a seeded, rotated and permuted
``1,1;(4,0)^3`` read as points (the ``metrics --in`` route), and the
certificate's verdict on 1,080 passes: every (m, n) with n <= m <= 12 on each
base, from the base and after ``(1,1)``, ``(2,1)`` or ``(3,0)``.  Re-run it
only when a change means to alter a result, and name the entries that
changed in CHANGES.md.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

import spheregrid.meshgen as meshgen
from spheregrid import SphericalConfig, base_polyhedron, evaluate, generate, parse_sequence

PATH = Path(__file__).with_name("results.json")

CONFIGS = [
    ("icosahedron", "1,1;(4,0)^2"),
    ("icosahedron", "64,0"),
    ("icosahedron", "1,1;(4,0)^3"),
    ("icosahedron", "73,37"),
    ("icosahedron", "68,43"),
    ("icosahedron", "85,22"),
    ("icosahedron", "90,13"),
    ("icosahedron", "6,6"),
    ("icosahedron", "114,0"),
    ("icosahedron", "2,1;3,1;2,1"),
    ("tetrahedron", "1,1"),
    ("tetrahedron", "5,0;3,1"),
    ("tetrahedron", "7,3;2,1"),
    ("tetrahedron", "200,0"),
    ("octahedron", "9,4;3,0"),
    ("octahedron", "6,6;2,1"),
]

#: the metrics --in input: this configuration, turned and reordered from this seed
METRICS_IN = ("icosahedron", "1,1;(4,0)^3", 7)


def faces_sha256(faces):
    return hashlib.sha256(np.asarray(faces).astype("<i8").tobytes()).hexdigest()


def fingerprint_weights(n):
    """Seeded weight columns, one row a point, for ``fingerprint``: 16 pick
    one point each, so it is compared alone, and 4 weigh every point."""
    rng = np.random.default_rng(0)
    w = np.zeros((n, 20))
    w[rng.integers(n, size=16), np.arange(16)] = 1.0
    w[:, 16:] = rng.standard_normal((n, 4))
    return w


def fingerprint(points):
    """The (3, 20) sums of each coordinate times each weight column; moving
    every point by at most d moves entry (c, j) by at most d sum |w_j|."""
    return points.T @ fingerprint_weights(len(points))


def report_fields(report):
    fields = dataclasses.asdict(report)
    fields["edge_ratio_hist"] = list(fields["edge_ratio_hist"])
    return fields


def config_entry(base, seq):
    cfg = generate(base, parse_sequence(seq))
    return {
        "base": base,
        "seq": seq,
        "n": cfg.n,
        "faces_sha256": faces_sha256(cfg.mesh.faces),
        "report": report_fields(evaluate(cfg)),
        "points": fingerprint(cfg.points).tolist(),
    }


def metrics_in_points():
    """``METRICS_IN``'s points under a seeded rotation and permutation."""
    base, seq, seed = METRICS_IN
    points = generate(base, parse_sequence(seq)).points
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return (points @ q.T)[rng.permutation(len(points))]


def metrics_in_entry():
    cfg = SphericalConfig(points=metrics_in_points())
    report = evaluate(cfg)
    return {
        "base": METRICS_IN[0],
        "seq": METRICS_IN[1],
        "seed": METRICS_IN[2],
        "faces_sha256": faces_sha256(cfg.hull().faces),
        "report": report_fields(report),
    }


class _Refused(Exception):
    pass


def _refuse(points):
    raise _Refused


def certified(mesh, pair):
    """Whether the certificate accepts the lattice mesh of the pass; a
    refused pass stops where it would call qhull."""
    real = meshgen.convex_hull_triangulation
    meshgen.convex_hull_triangulation = _refuse
    try:
        meshgen.subdivide_mesh(mesh, pair)
        return True
    except _Refused:
        return False
    finally:
        meshgen.convex_hull_triangulation = real


def verdicts():
    """The refused pairs (m, n), n <= m <= 12, per base and first pass."""
    pairs = [(m, n) for m in range(1, 13) for n in range(m + 1)]
    rows = []
    for base in ("tetrahedron", "octahedron", "icosahedron"):
        for first in (None, "1,1", "2,1", "3,0"):
            mesh = base_polyhedron(base)
            if first is not None:
                mesh = generate(base, parse_sequence(first)).mesh
            refused = [f"{m},{n}" for m, n in pairs if not certified(mesh, (m, n))]
            rows.append({"base": base, "first": first, "refused": refused})
    return rows


def main():
    table = {
        "configs": [config_entry(base, seq) for base, seq in CONFIGS],
        "metrics_in": metrics_in_entry(),
        "verdicts": verdicts(),
    }
    PATH.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
