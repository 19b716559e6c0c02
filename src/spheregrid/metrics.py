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
from .meshgen import SphericalConfig

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


def _edge_lengths(mesh):
    """(F, 3) chord lengths of every face's edges ab, bc and ca."""
    v = np.asarray(mesh.vertices, dtype=np.float64)
    f = np.asarray(mesh.faces, dtype=np.int64)
    a, b, c = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    return np.stack(
        [
            np.sqrt(((a - b) ** 2).sum(axis=1)),
            np.sqrt(((b - c) ** 2).sum(axis=1)),
            np.sqrt(((c - a) ** 2).sum(axis=1)),
        ],
        axis=1,
    )


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
    return float(_edge_lengths(config.hull()).min())


def _facet_circumcentre_dirs(mesh):
    """Outward unit circumcentre direction of every hull facet.

    Raises GeometryError if a facet plane has the origin and the vertices'
    centroid on opposite sides, i.e. the hull leaves the origin outside.
    """
    v = mesh.vertices
    a, b, c = v[mesh.faces[:, 0]], v[mesh.faces[:, 1]], v[mesh.faces[:, 2]]
    normals = np.cross(b - a, c - a)
    norms = np.sqrt((normals * normals).sum(axis=1))
    sliver = norms < _SLIVER_TOL
    if np.any(sliver):
        # Near-degenerate facet: take the null direction of the edge matrix.
        for k in np.nonzero(sliver)[0]:
            rows = np.vstack([b[k] - a[k], c[k] - a[k]])
            _, _, vt = np.linalg.svd(rows)
            normals[k] = vt[-1]
            norms[k] = 1.0
    height = (normals * a).sum(axis=1)
    if np.any(height * (normals @ v.mean(axis=0) - height) > 0.0):
        raise GeometryError(
            "points do not surround the origin; "
            "the covering radius is not read off their hull"
        )
    dirs = normals / norms[:, None]
    flip = (dirs * (a + b + c)).sum(axis=1) < 0.0
    dirs[flip] = -dirs[flip]
    return dirs, (a, b, c)


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
    dirs, (a, b, c) = _facet_circumcentre_dirs(mesh)
    d2 = np.maximum(
        ((dirs - a) ** 2).sum(axis=1),
        np.maximum(((dirs - b) ** 2).sum(axis=1), ((dirs - c) ** 2).sum(axis=1)),
    )
    return float(np.sqrt(d2.max()))


def mesh_ratio(config):
    """covering / separation; lower is better."""
    config = _as_config(config)
    return covering(config) / separation(config)


def edge_ratios(mesh):
    """Per-face ratio of shortest to longest edge chord, each in (0, 1].

    Equals 1 exactly for an equilateral face.
    """
    return _face_ratios(_edge_lengths(mesh))


def _face_ratios(lengths):
    """Per-face min/max ratio of an (F, 3) edge-chord array."""
    if np.any(lengths <= 0.0):
        raise GeometryError("mesh has a degenerate face with a zero-length edge")
    return lengths.min(axis=1) / lengths.max(axis=1)


def evaluate(config, base=None, seq=None):
    """The full MetricsReport; the face-edge chords are built once."""
    config = _as_config(config)
    lengths = _edge_lengths(config.hull())
    ratios = _face_ratios(lengths)
    hist, _ = np.histogram(ratios, bins=EDGE_RATIO_BINS, range=(0.0, 1.0))
    sep = float(lengths.min())
    cov = covering(config)
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
