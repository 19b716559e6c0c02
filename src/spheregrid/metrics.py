"""Quality measures for spherical point configurations.

Distances are Euclidean chord lengths throughout.  The separation distance
is the smallest pairwise distance; the covering radius is the largest
distance from any sphere point to its nearest configuration point; their
ratio (covering / separation) is the mesh ratio, where lower is better.
Both extremes are read off the hull triangulation: nearest neighbours on
the sphere are hull (Delaunay) neighbours, so the separation is the
shortest hull face edge, and the covering radius is attained at a
spherical Voronoi vertex, i.e. at a hull-facet circumcentre direction.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ParameterError
from .meshgen import SphericalConfig, _corners
from .spherical import _cross, _dot, _norm

#: facets with a cross-product norm below this use an explicit circumcentre solve
_SLIVER_TOL = 1e-14

#: histogram binning for per-face edge ratios
EDGE_RATIO_BINS = 20


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


def _edge_lengths(corners):
    """(3, F) chord lengths of every face's edges ab, bc and ca."""
    a, b, c = corners
    return np.stack([_norm(a - b), _norm(b - c), _norm(c - a)])


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
    mesh = config.hull()
    return float(_edge_lengths(_corners(mesh.vertices, mesh.faces)).min())


def _covering(mesh, corners):
    """The largest facet circumradius chord of a hull, from its corners.

    Each facet's circumcentre direction is its outward unit normal.
    Raises GeometryError if a facet plane has the origin and the vertices'
    centroid on opposite sides, i.e. the hull leaves the origin outside.
    """
    a, b, c = corners
    normals = _cross(b - a, c - a)
    norms = _norm(normals)
    sliver = norms < _SLIVER_TOL
    if np.any(sliver):
        # Near-degenerate facet: take the null direction of the edge matrix.
        for k in np.nonzero(sliver)[0]:
            rows = np.vstack([b[:, k] - a[:, k], c[:, k] - a[:, k]])
            _, _, vt = np.linalg.svd(rows)
            normals[:, k] = vt[-1]
            norms[k] = 1.0
    height = _dot(normals, a)
    centroid = mesh.vertices.mean(axis=0)[:, None]
    if np.any(height * (_dot(normals, centroid) - height) > 0.0):
        raise GeometryError(
            "points do not surround the origin; "
            "the covering radius is not read off their hull"
        )
    dirs = np.divide(normals, norms, out=normals)
    flip = _dot(dirs, a + b + c) < 0.0
    dirs[:, flip] = -dirs[:, flip]
    return float(np.sqrt(max(_dot(dirs - x, dirs - x).max() for x in corners)))


def covering(config):
    """Covering radius: the largest chord from any sphere point to the set.

    Exact for points whose hull surrounds the origin (others raise
    GeometryError): the maximum is attained at one of the hull-facet
    circumcentre directions (the spherical Voronoi vertices), so the
    result is the largest facet circumradius chord.
    """
    config = _as_config(config)
    if len(config.points) < 4:
        raise GeometryError("covering needs at least 4 points spanning 3-d")
    mesh = config.hull()
    return _covering(mesh, _corners(mesh.vertices, mesh.faces))


def mesh_ratio(config):
    """covering / separation; lower is better."""
    config = _as_config(config)
    return covering(config) / separation(config)


def edge_ratios(mesh):
    """Per-face ratio of shortest to longest edge chord, each in (0, 1].

    Equals 1 exactly for an equilateral face.
    """
    return _face_ratios(_edge_lengths(_corners(mesh.vertices, mesh.faces)))


def _face_ratios(lengths):
    """Per-face min/max ratio of a (3, F) edge-chord array."""
    if np.any(lengths <= 0.0):
        raise GeometryError("mesh has a degenerate face with a zero-length edge")
    return lengths.min(axis=0) / lengths.max(axis=0)


def evaluate(config, base=None, seq=None):
    """The full MetricsReport; the face corners and edge chords are built once."""
    config = _as_config(config)
    mesh = config.hull()
    corners = _corners(mesh.vertices, mesh.faces)
    lengths = _edge_lengths(corners)
    ratios = _face_ratios(lengths)
    hist, _ = np.histogram(ratios, bins=EDGE_RATIO_BINS, range=(0.0, 1.0))
    sep = float(lengths.min())
    cov = _covering(mesh, corners)
    return MetricsReport(
        n=config.n,
        separation=sep,
        covering=cov,
        mesh_ratio=cov / sep,
        edge_ratio_min=float(ratios.min()),
        edge_ratio_mean=float(ratios.mean()),
        edge_ratio_hist=tuple(int(h) for h in hist),
        base=base if base is not None else config.base,
        seq=seq,
    )
