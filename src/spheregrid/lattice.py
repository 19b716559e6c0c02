"""Triangular integer lattice grids over a triangle, and their barycentric coordinates.

The grid lives on the triangular (hexagonal) lattice spanned by the basis
vectors e1 = (1, 0) and e2 = (1/2, sqrt(3)/2).  A grid is selected by an
integer pair (m, n) with m >= n >= 0 and m > 0: the points kept are those
inside or on the triangle with corners 0, a = m*e1 + n*e2 and
b = -n*e1 + (m+n)*e2.  The size of the grid scales with the triangulation
number m^2 + n^2 + m*n.
"""

import numpy as np

from .errors import DomainError, ParameterError

# Planar basis of the triangular lattice, rows e1 and e2.
PLANE_BASIS = np.array([[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])


def validate_pair(pair):
    """Check an integer pair (m, n) and return it as a tuple of ints.

    Raises ParameterError unless two integers with m >= n, m > 0 and n >= 0.
    """
    try:
        m, n = pair
        m_i, n_i = int(m), int(n)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"integer pair expected, got {pair!r}") from exc
    if m_i != m or n_i != n:
        raise ParameterError(f"integer pair expected, got {pair!r}")
    if m_i <= 0 or n_i < 0 or m_i < n_i:
        raise ParameterError(
            f"pair ({m_i},{n_i}) violates m >= n, m > 0, n >= 0"
        )
    return m_i, n_i


def triangulation_number(m, n):
    """Return m^2 + n^2 + m*n, the per-face point-count scale of the grid."""
    m, n = validate_pair((m, n))
    return m * m + n * n + m * n


def lattice_points(m, n):
    """All lattice points inside or on the triangle of the pair (m, n).

    Returns an (K, 2) int64 array of (q1, q2) lattice coordinates, sorted
    lexicographically.  Boundary points, including the three corners
    (0,0), (m,n) and (-n,m+n), are included.
    """
    m, n = validate_pair((m, n))
    g = m * m + n * n + m * n
    # Bounding box of the corner coordinates, in lexicographic order; O(g)
    # candidates.
    q1, q2 = np.meshgrid(
        np.arange(-n, m + 1, dtype=np.int64),
        np.arange(0, m + n + 1, dtype=np.int64),
        indexing="ij",
    )
    pts = np.column_stack([q1.ravel(), q2.ravel()])
    # Integer-exact inclusion test: both barycentric numerators and their
    # sum must fall in [0, g].
    alpha, beta = _bary_numerators(pts, m, n)
    return pts[(alpha >= 0) & (beta >= 0) & (alpha + beta <= g)]


def _bary_numerators(points, m, n):
    """Integer numerators (alpha, beta) of the barycentric pair, denominator g."""
    points = np.asarray(points, dtype=np.int64)
    q1 = points[..., 0]
    q2 = points[..., 1]
    alpha = (m + n) * q1 + n * q2
    beta = -n * q1 + m * q2
    return alpha, beta


def barycentric_coords(points, m, n):
    """Barycentric coordinates (lambda_a, lambda_b) of lattice points.

    ``points`` is an (..., 2) integer array of (q1, q2) coordinates that
    must lie inside or on the triangle of the pair (m, n); the implied
    third coordinate is 1 - lambda_a - lambda_b.  The result is exact up
    to floating representation: each coordinate is an integer divided by
    the triangulation number.
    """
    m, n = validate_pair((m, n))
    g = m * m + n * n + m * n
    alpha, beta = _bary_numerators(points, m, n)
    if np.any(alpha < 0) or np.any(beta < 0) or np.any(alpha + beta > g):
        bad = np.asarray(points)[(alpha < 0) | (beta < 0) | (alpha + beta > g)]
        raise DomainError(
            f"lattice point {bad.reshape(-1, 2)[0].tolist()} outside triangle ({m},{n})"
        )
    return np.stack([alpha, beta], axis=-1) / float(g)


def to_plane(points):
    """Map (q1, q2) lattice coordinates to planar xy coordinates."""
    points = np.asarray(points, dtype=np.float64)
    return points @ PLANE_BASIS
