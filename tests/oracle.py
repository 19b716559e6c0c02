"""Brute-force reference implementations used by the test suite.

These restate the metric definitions directly (full pairwise scan, dense
probing of the sphere) and exist only to certify the production paths;
they are deliberately slow and guarded against large inputs.
"""

import numpy as np
from scipy.spatial import cKDTree

from spheregrid import ParameterError

#: refuse the O(N^2) scan beyond this size
BRUTE_MAX_POINTS = 5000

#: minimum probe count for the sampled covering estimate
MIN_PROBES = 10_000


def brute_separation(points):
    """Exact minimum pairwise chord distance by full O(N^2) scan."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    n = len(pts)
    if not 2 <= n <= BRUTE_MAX_POINTS:
        raise ParameterError(
            f"brute_separation accepts 2..{BRUTE_MAX_POINTS} points, got {n}"
        )
    best = np.inf
    block = 512
    for k in range(0, n, block):
        chunk = pts[k : k + block]
        d2 = ((chunk[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
        rows = np.arange(len(chunk))
        d2[rows, k + rows] = np.inf
        best = min(best, d2.min())
    return float(np.sqrt(best))


def spiral_points(n):
    """Deterministic quasi-uniform probe set of n points on the sphere.

    Spiral construction: polar angles with equal-area spacing in cos(phi),
    azimuth advancing by sqrt(n*pi) per step.
    """
    k = np.arange(n)
    phi = np.arccos(-1.0 + (2.0 * k + 1.0) / n)
    theta = np.sqrt(n * np.pi) * phi
    sp = np.sin(phi)
    return np.column_stack([sp * np.cos(theta), sp * np.sin(theta), np.cos(phi)])


def sampled_covering(points, probes=1_000_000):
    """Lower bound on the covering radius from a dense probe scan.

    Evaluates max over the deterministic spiral probe set of the chord
    distance to the nearest configuration point.  The bound is tight up to
    the probe set's own resolution, which shrinks like probes**-0.5.
    """
    if probes < MIN_PROBES:
        raise ParameterError(f"need at least {MIN_PROBES} probes, got {probes}")
    pts = np.asarray(points, dtype=np.float64)
    tree = cKDTree(pts)
    dist, _ = tree.query(spiral_points(probes), k=1, workers=-1)
    return float(dist.max())
