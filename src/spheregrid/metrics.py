"""Quality measures for spherical point configurations.

Distances are Euclidean chord lengths throughout.  The separation distance
is the smallest pairwise distance; the covering radius is the largest
distance from any sphere point to its nearest configuration point; their
ratio (covering / separation) is the mesh ratio, where lower is better.
Both extremes are read off the hull triangulation: nearest neighbours on
the sphere are hull (Delaunay) neighbours, so the separation is the
shortest hull face edge, and the covering radius is attained at a
spherical Voronoi vertex, i.e. at a hull-facet circumcentre direction.
Every measure reads one scan of the hull's faces, made in fixed-size
chunks: it yields the shortest edge chord, the covering chord and each
face's edge ratio together.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ParameterError
from .meshgen import SphericalConfig, _chunked
from .spherical import _cross, _dot, _norm

#: histogram binning for per-face edge ratios
EDGE_RATIO_BINS = 20

#: the refusals of a face scan: a zero-length edge, a hull without the origin
_ZERO_EDGE = "mesh has a degenerate face with a zero-length edge"
_OUTSIDE = "points do not surround the origin; the covering radius is not read off their hull"


@dataclass
class MetricsReport:
    """Quality summary of one configuration."""

    n: int
    separation: float
    covering: float
    mesh_ratio: float
    edge_ratio_min: float
    edge_ratio_mean: float
    edge_ratio_hist: tuple = ()
    base: str | None = None
    seq: str | None = None

    def lines(self):
        """Key/value lines, mesh ratio to 9 significant digits."""
        out = [
            f"n={self.n}",
            f"separation={self.separation:.9g}",
            f"covering={self.covering:.9g}",
            f"mesh_ratio={self.mesh_ratio:.9g}",
            f"edge_ratio_min={self.edge_ratio_min:.9g}",
            f"edge_ratio_mean={self.edge_ratio_mean:.9g}",
        ]
        if self.base is not None:
            out.insert(0, f"base={self.base}")
        if self.seq is not None:
            out.insert(1 if self.base is not None else 0, f"seq={self.seq}")
        return out


def _as_config(config):
    if isinstance(config, SphericalConfig):
        return config
    return SphericalConfig(points=np.asarray(config, dtype=np.float64))


def _face_scan(mesh):
    """One pass over a hull's faces in ``_chunked`` chunks of ``_CERT_CHUNK``.

    Returns the shortest face-edge chord, the covering chord and the (F,)
    per-face ratios of shortest to longest edge chord.  The covering chord
    is the largest facet circumradius chord, each facet's circumcentre
    direction being its outward unit normal; it is None when a facet plane
    has the origin and the vertices' centroid on opposite sides, i.e. the
    hull leaves the origin outside.  A line meets the sphere in at most two
    points, so no facet of distinct sphere points has a zero normal; a face
    with a zero-length edge raises GeometryError.
    """
    xyz = np.ascontiguousarray(np.asarray(mesh.vertices, dtype=np.float64).T)
    centroid = mesh.vertices.mean(axis=0)[:, None]
    ratios = np.empty(mesh.n_faces)

    def scan(lo, hi):
        corners = a, b, c = [xyz.take(f, axis=1) for f in mesh.faces[lo:hi].T]
        ab, bc, ca = _norm(a - b), _norm(b - c), _norm(c - a)
        low = np.minimum(np.minimum(ab, bc), ca)
        least = low.min()
        if least <= 0.0:  # before its zero normal is divided
            raise GeometryError(_ZERO_EDGE)
        np.divide(low, np.maximum(np.maximum(ab, bc), ca), out=ratios[lo:hi])
        normals = _cross(b - a, c - a)
        height = _dot(normals, a)
        if np.any(height * (_dot(normals, centroid) - height) > 0.0):
            return least, None
        dirs = np.divide(normals, _norm(normals), out=normals)
        flip = _dot(dirs, a + b + c) < 0.0
        dirs[:, flip] = -dirs[:, flip]
        return least, [_dot(dirs - x, dirs - x).max() for x in corners]

    shortest, cov2 = np.inf, 0.0
    for low, chords in _chunked(scan, mesh.n_faces):
        shortest = min(shortest, low)
        if cov2 is not None:
            cov2 = None if chords is None else max(cov2, *chords)
    return float(shortest), None if cov2 is None else float(np.sqrt(cov2)), ratios


def separation(config):
    """Smallest pairwise chord distance of the configuration.

    The minimum over the hull's face edges, O(F) after the hull.  Each
    edge is read once from each of its two faces, which leaves the
    minimum unchanged, so no edge set is built and the result does not
    depend on face orientation.  Tiny inputs (fewer than 4 points) fall
    back to the direct pairwise scan.
    """
    config = _as_config(config)
    pts = config.points
    if len(pts) < 2:
        raise ParameterError("separation needs at least 2 points")
    if len(pts) < 4:
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
        iu = np.triu_indices(len(pts), k=1)
        return float(np.sqrt(d2[iu].min()))
    return _face_scan(config.hull())[0]


def covering(config):
    """Covering radius: the largest chord from any sphere point to the set.

    Exact for points whose hull surrounds the origin (others raise
    GeometryError): the maximum is attained at one of the hull-facet
    circumcentre directions (the spherical Voronoi vertices), so the
    result is the largest facet circumradius chord.
    """
    return evaluate(config).covering


def mesh_ratio(config):
    """covering / separation, from one scan of the hull's faces; lower is better."""
    return evaluate(config).mesh_ratio


def edge_ratios(mesh):
    """Per-face ratio of shortest to longest edge chord, each in (0, 1].

    Equals 1 exactly for an equilateral face.
    """
    return _face_scan(mesh)[2]


def evaluate(config, seq=None):
    """The full MetricsReport, from one scan of the hull's faces."""
    config = _as_config(config)
    sep, cov, ratios = _face_scan(config.hull())
    if cov is None:
        raise GeometryError(_OUTSIDE)
    hist, _ = np.histogram(ratios, bins=EDGE_RATIO_BINS, range=(0.0, 1.0))
    return MetricsReport(
        n=config.n,
        separation=sep,
        covering=cov,
        mesh_ratio=cov / sep,
        edge_ratio_min=float(ratios.min()),
        edge_ratio_mean=float(ratios.mean()),
        edge_ratio_hist=tuple(int(h) for h in hist),
        base=config.base,
        seq=seq,
    )
