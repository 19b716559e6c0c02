"""Spherical triangle areas and the inverse area-coordinate problem.

Points on the unit sphere are (..., 3) float arrays; the private kernels
(``_dot``, ``_norm``, ``_cross`` and all built on them) take them
component-major, (3, ...), and work row by row: a dot product of 1M rows
costs 9.6 ms as x*x + y*y + z*z against 32 ms as a length-3 axis sum.
A spherical triangle is given by three vertex vectors (v0, va, vb).
Area coordinates of a point p inside the triangle are the fractions of
the total spherical area taken by the sub-triangles opposite each
vertex.  Recovering p from prescribed fractions has a closed form: by
Lexell's theorem the apexes of equal area over a fixed base lie on one
circle through the antipodes of the base's ends, and the two circles
fixed by the fractions meet at -v0 and at p.  Where rounding leaves a
sliver's row above tolerance, the same closed form is started again
from each of the three vertex labellings in turn.
"""

import numpy as np

from .errors import DomainError, GeometryError, SolverError

#: residual tolerance (in area-fraction units) guaranteed by the solvers
RESIDUAL_TOL = 1e-12

#: Newton steps of a re-solve from each vertex labelling's meeting point
_RESOLVE_STEPS = 4


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _norm(v):
    return np.sqrt(_dot(v, v))


def _cross(a, b):
    return np.stack(
        [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    )


def _unit(v):
    return v / _norm(v)


def _components(*arrays):
    """(..., 3) arrays broadcast together, as component-major (3, ...) views."""
    arrays = np.broadcast_arrays(*(np.asarray(x, dtype=np.float64) for x in arrays))
    return [np.moveaxis(x, -1, 0) for x in arrays]


def _signed_excess(a, b, c):
    """Spherical excess of (a, b, c), negative when the triangle is clockwise.

    tan(E/2) = a . (b x c) / (1 + a.b + b.c + c.a); the numerator is
    evaluated as a . ((b - a) x (c - a)), which is algebraically equal and
    keeps relative accuracy for small triangles.
    """
    num = _dot(a, _cross(b - a, c - a))
    den = 1.0 + _dot(a, b) + _dot(b, c) + _dot(c, a)
    return 2.0 * np.arctan2(num, den)


def _slerp(a, b, t):
    """Great-circle interpolation from a (t=0) to b (t=1)."""
    # the angle between a and b, stable for small and near-pi separations
    ang = np.arctan2(_norm(_cross(a, b)), _dot(a, b))
    small = ang < 1e-12
    safe = np.where(small, 1.0, np.sin(ang))
    t = np.asarray(t, dtype=np.float64)
    out = (np.sin((1.0 - t) * ang) * a + np.sin(t * ang) * b) / safe
    if np.any(small):
        out = np.where(small, _unit(a + t * (b - a)), out)
    return out


def project_to_sphere(v):
    """Scale vectors onto the unit sphere.

    Raises GeometryError for (near-)zero input.
    """
    v = np.asarray(v, dtype=np.float64)
    n = _norm(np.moveaxis(v, -1, 0))
    if np.any(n <= 1e-12):
        raise GeometryError("cannot project a near-zero vector to the sphere")
    return v / n[..., None]


def spherical_triangle_area(v0, va, vb):
    """Unsigned spherical area (steradians) of the triangle (v0, va, vb).

    Broadcasts over leading dimensions.  The result is in (0, 2*pi);
    degenerate triangles raise GeometryError.
    """
    v0, va, vb = _components(v0, va, vb)
    for u in (v0, va, vb):
        if not np.all(np.abs(_norm(u) - 1.0) <= 1e-12):
            raise GeometryError("triangle vertices must lie on the unit sphere")
    for u, w in ((v0, va), (va, vb), (vb, v0)):
        if np.any(_norm(u - w) <= 1e-9):
            raise GeometryError("triangle has (near-)coincident vertices")
        if np.any(_norm(u + w) <= 1e-9):
            raise GeometryError("triangle has (near-)antipodal vertices")
    area = np.abs(_signed_excess(v0, va, vb))
    if np.any(area <= 0.0) or np.any(area >= 2.0 * np.pi):
        raise GeometryError("degenerate spherical triangle (zero or full area)")
    return area if area.ndim else float(area)


def area_coords(v0, va, vb, p):
    """Forward map: area-coordinate fractions (lambda_a, lambda_b) of p.

    lambda_a is the area fraction of (v0, p, vb), lambda_b that of
    (v0, va, p); for p inside the triangle the implied third fraction is
    1 - lambda_a - lambda_b.
    """
    v0, va, vb, p = _components(v0, va, vb, p)
    total = np.abs(_signed_excess(v0, va, vb))
    la = np.abs(_signed_excess(v0, p, vb)) / total
    lb = np.abs(_signed_excess(v0, va, p)) / total
    return la, lb


def _lexell(a, b, s, h):
    """Lexell plane normal and excess gradient for apexes p over a -> b.

    With N = s p.(a x b) and D = 1 + a.b + p.(a + b), the excess of
    (a, b, p) is E = 2 atan2(N, D), so E = 2h on the plane
    p . (s cos h (a x b) - sin h (a + b)) = sin h (1 + a.b) through -a and
    -b, and dE/dp = 2 (D s (a x b) - N (a + b)) / (N^2 + D^2).
    """
    axb = s * _cross(a, b)
    apb = a + b
    normal = np.cos(h) * axb - np.sin(h) * apb

    def grad(p):
        num = _dot(p, axb)
        den = 1.0 + _dot(a, b) + _dot(p, apb)
        g = den * axb - num * apb
        return (2.0 / (num * num + den * den)) * g

    return normal, grad


def _meet(v0, va, vb, s, total, la, lb):
    """Meeting point of the two Lexell planes, and both excess gradients.

    The points with area fraction lb over the base v0 -> va lie on one
    Lexell plane, and those with fraction la over vb -> v0 on another;
    both planes pass through -v0, so p is the second point where their
    common line meets the sphere: p = 2 (v0.w) / (w.w) w - v0 with w the
    cross product of the two normals.  A fraction of 0 turns its plane
    into the side's great circle, so side targets need no special case.
    """
    nb, grad_b = _lexell(v0, va, s, 0.5 * lb * total)
    na, grad_a = _lexell(vb, v0, s, 0.5 * la * total)
    w = _cross(nb, na)
    return (2.0 * _dot(v0, w) / _dot(w, w)) * w - v0, grad_a, grad_b


def _newton(p, grad_a, grad_b, v0, va, vb, s, total, la, lb):
    """One Newton step in the tangent plane at p, with the analytic gradients.

    Returns the new point and its residual in the frame (v0, va, vb; la, lb).
    """

    def residual(p):
        # signed, so a step from just across a side moves back; for
        # la, lb >= 0 the magnitudes bound area_coords' residuals
        ra = s * _signed_excess(v0, p, vb) / total - la
        rb = s * _signed_excess(v0, va, p) / total - lb
        return ra, rb

    ra, rb = residual(p)
    ga, gb = (g - _dot(g, p) * p for g in (grad_a(p), grad_b(p)))
    aa, ab, bb = _dot(ga, ga), _dot(ga, gb), _dot(gb, gb)
    ea, eb = ra * total, rb * total
    det = aa * bb - ab * ab
    x = (ab * eb - bb * ea) / det
    y = (ab * ea - aa * eb) / det
    p = _unit(p + x * ga + y * gb)
    ra, rb = residual(p)
    return p, np.maximum(np.abs(ra), np.abs(rb))


def _lower(p, res, q, r):
    """Row by row, the point of lower residual; a NaN residual loses."""
    take = (r < res) | np.isnan(res)
    return np.where(take, q, p), np.where(take, r, res)


def _solve_interior(v0, va, vb, la, lb):
    """Closed-form inverse for every target off the corners.

    The Lexell-plane meeting point, then one Newton step, which removes
    the rounding the plane intersection suffers on slivers.  Rows still
    above RESIDUAL_TOL (non-finite ones included) are re-solved from each
    vertex labelling in turn, (v0, va, vb; la, lb), (va, vb, v0; lb, lc)
    and (vb, v0, va; lc, la) with lc = 1 - la - lb: its meeting point,
    then _RESOLVE_STEPS Newton steps in the original frame, each row
    keeping its lowest residual (on a sliver the residual is limited by
    rounding, and each labelling rounds differently).  Corners (..., 3)
    broadcast against fractions (...) to a (..., 3) view of a (3, ...)
    result; given (1, F, 3) face corners and (n, 1) node fractions, a
    face's own terms (excess, orientation, both planes' a x b, a + b and
    1 + a.b) are computed once, not n times.
    """
    v0, va, vb = (np.moveaxis(v, -1, 0) for v in (v0, va, vb))
    total = np.abs(_signed_excess(v0, va, vb))
    s = np.sign(_dot(v0, _cross(va - v0, vb - v0)))
    terms = (v0, va, vb, s, total, la, lb)
    p, res = _newton(*_meet(*terms), *terms)
    for turn in range(3):
        idx = (...,) + np.nonzero(~(res <= RESIDUAL_TOL))
        if not res[idx].size:
            break
        # each of the terms on the rows to redo, v0 to lb
        rows = [np.broadcast_to(t, np.shape(t)[:-res.ndim] + res.shape)[idx] for t in terms]
        q, *grads = _meet(*rows)
        if turn:  # s and the total area do not change under the cyclic turn
            v, f = rows[:3], (*rows[5:], 1.0 - rows[5] - rows[6])
            q = _meet(v[turn], v[turn - 2], v[turn - 1], *rows[3:5], f[turn], f[turn - 2])[0]
        best = p[idx], res[idx]
        for _ in range(_RESOLVE_STEPS):
            q, r = _newton(q, *grads, *rows)
            best = _lower(*best, q, r)
        p[idx], res[idx] = best
    worst = float(res.max()) if res.size else 0.0
    if not worst <= RESIDUAL_TOL:
        raise SolverError(
            f"area-coordinate solve missed tolerance at residual {worst:.3e}",
            residual=worst,
        )
    return np.moveaxis(p, 0, -1)


def point_from_area_coords(v0, va, vb, la, lb):
    """Inverse map: the point of the triangle with given area fractions.

    Solves for p on the sphere, inside the closed triangle (v0, va, vb),
    such that the area fraction of (v0, p, vb) equals ``la`` and that of
    (v0, va, p) equals ``lb``, each within RESIDUAL_TOL.  Scalar
    coordinates give one point (3,); arrays of shape (M,) give (M, 3)
    (vertices must then be (M, 3) or broadcastable).

    Corner targets return the corner exactly; every other target, on a
    side or inside, is the closed-form meeting point of two Lexell
    circles.  Raises SolverError (with the final residual) if a row
    misses the contract even after the re-solves from all three vertex
    labellings, and GeometryError for degenerate input.
    """
    scalar = np.ndim(la) == 0 and np.ndim(lb) == 0
    la = np.atleast_1d(np.asarray(la, dtype=np.float64))
    lb = np.atleast_1d(np.asarray(lb, dtype=np.float64))
    la, lb = np.broadcast_arrays(la, lb)
    m = la.shape[0]
    v0, va, vb = (
        np.broadcast_to(np.asarray(x, dtype=np.float64), (m, 3)) for x in (v0, va, vb)
    )
    spherical_triangle_area(v0, va, vb)  # raises on a degenerate triangle
    if not np.all((la >= -1e-12) & (lb >= -1e-12) & (la + lb <= 1.0 + 1e-12)):
        raise DomainError("area coordinates must be in [0,1] with sum <= 1")
    la = np.clip(la, 0.0, 1.0)
    lb = np.clip(lb, 0.0, 1.0)

    out = np.empty((m, 3))
    done = np.zeros(m, dtype=bool)
    for mask, corner in (
        ((la == 1.0), va),
        ((lb == 1.0), vb),
        ((la == 0.0) & (lb == 0.0), v0),
    ):
        mask = mask & ~done
        out[mask] = corner[mask]
        done |= mask

    rest = ~done
    if np.any(rest):
        out[rest] = _solve_interior(v0[rest], va[rest], vb[rest], la[rest], lb[rest])
    return out[0] if scalar else out
