"""Spherical triangle areas and the inverse area-coordinate problem.

Points on the unit sphere are (..., 3) float arrays.  A spherical triangle
is given by three vertex vectors (v0, va, vb).  Area coordinates of a point
p inside the triangle are the fractions of the total spherical area taken
by the sub-triangles opposite each vertex; recovering p from prescribed
fractions has no closed form here and is solved iteratively.
"""

import numpy as np

from .errors import DomainError, GeometryError, SolverError

#: residual tolerance (in area-fraction units) guaranteed by the solvers
RESIDUAL_TOL = 1e-12

_INNER_TOL = 2.5e-13
_MAX_NEWTON = 100
_FD_STEP = 1e-7
_BISECT_ITERS = 62


def _dot(a, b):
    return (a * b).sum(axis=-1)


def _norm(v):
    return np.sqrt((v * v).sum(axis=-1))


def _unit(v):
    return v / _norm(v)[..., None]


def _angle(a, b):
    """Angle between unit vectors, stable for small and near-pi separations."""
    return np.arctan2(_norm(np.cross(a, b)), _dot(a, b))


def _excess(a, b, c):
    """Unsigned spherical excess of the triangle (a, b, c), no validation.

    tan(E/2) = |a . (b x c)| / (1 + a.b + b.c + c.a); the numerator is
    evaluated as a . ((b - a) x (c - a)), which is algebraically equal and
    keeps relative accuracy for small triangles.
    """
    num = np.abs(_dot(a, np.cross(b - a, c - a)))
    den = 1.0 + _dot(a, b) + _dot(b, c) + _dot(c, a)
    return 2.0 * np.arctan2(num, den)


def _slerp(a, b, t):
    """Great-circle interpolation from a (t=0) to b (t=1)."""
    ang = _angle(a, b)
    s = np.sin(ang)
    small = ang < 1e-12
    safe = np.where(small, 1.0, s)
    t = np.asarray(t, dtype=np.float64)
    out = (np.sin((1.0 - t) * ang)[..., None] * a + np.sin(t * ang)[..., None] * b)
    out = out / safe[..., None]
    if np.any(small):
        lerp = _unit(a + t[..., None] * (b - a))
        out = np.where(small[..., None], lerp, out)
    return out


def project_to_sphere(v):
    """Scale vectors onto the unit sphere.

    Raises GeometryError for (near-)zero input.
    """
    v = np.asarray(v, dtype=np.float64)
    n = _norm(v)
    if np.any(n <= 1e-12):
        raise GeometryError("cannot project a near-zero vector to the sphere")
    return v / n[..., None]


def _validate_triangle(v0, va, vb):
    for u in (v0, va, vb):
        if not np.all(np.abs(_norm(u) - 1.0) <= 1e-12):
            raise GeometryError("triangle vertices must lie on the unit sphere")
    for u, w in ((v0, va), (va, vb), (vb, v0)):
        if np.any(_norm(u - w) <= 1e-9):
            raise GeometryError("triangle has (near-)coincident vertices")
        if np.any(_norm(u + w) <= 1e-9):
            raise GeometryError("triangle has (near-)antipodal vertices")


def spherical_triangle_area(v0, va, vb):
    """Unsigned spherical area (steradians) of the triangle (v0, va, vb).

    Broadcasts over leading dimensions.  The result is in (0, 2*pi);
    degenerate triangles raise GeometryError.
    """
    v0 = np.asarray(v0, dtype=np.float64)
    va = np.asarray(va, dtype=np.float64)
    vb = np.asarray(vb, dtype=np.float64)
    _validate_triangle(v0, va, vb)
    area = _excess(v0, va, vb)
    if np.any(area <= 0.0) or np.any(area >= 2.0 * np.pi):
        raise GeometryError("degenerate spherical triangle (zero or full area)")
    return area if area.ndim else float(area)


def area_coords(v0, va, vb, p):
    """Forward map: area-coordinate fractions (lambda_a, lambda_b) of p.

    lambda_a is the area fraction of (v0, p, vb), lambda_b that of
    (v0, va, p); for p inside the triangle the implied third fraction is
    1 - lambda_a - lambda_b.
    """
    v0, va, vb, p = (np.asarray(x, dtype=np.float64) for x in (v0, va, vb, p))
    total = _excess(v0, va, vb)
    la = _excess(v0, p, vb) / total
    lb = _excess(v0, va, p) / total
    return la, lb


def _solve_arc(end_a, end_b, fixed1, fixed2, total, target, iters=_BISECT_ITERS):
    """Bisection for p on the arc end_a -> end_b.

    Finds p(s) = slerp(end_a, end_b, s) with
    area(fixed1, fixed2, p) / total == target.  The fraction is monotone
    increasing in s, from 0 at s=0; all arrays are (M, 3)/(M,).
    """
    lo = np.zeros(len(target))
    hi = np.ones(len(target))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        p = _slerp(end_a, end_b, mid)
        f = _excess(fixed1, fixed2, p) / total
        below = f < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.all(hi - lo < 1e-17):
            break
    s = 0.5 * (lo + hi)
    return _slerp(end_a, end_b, s)


def _solve_interior_bisect(v0, va, vb, la, lb, iters=_BISECT_ITERS):
    """Nested-bisection fallback for targets the Newton iteration misses.

    Works in the same (u, v) parameterisation.  The inner bisection picks
    v so that the two area fractions sum to la + lb (their sum grows
    monotonically along the spoke from v0); the outer bisection moves the
    spoke direction u until the fraction split matches, bracketed by the
    two triangle sides where the split residual has opposite signs.  Slow
    but immune to the poor initial guesses that defeat Newton on extreme
    sliver triangles.
    """
    total = _excess(v0, va, vb)
    lab = la + lb

    def split_residual(u):
        q = _slerp(va, vb, u)
        lo = np.zeros(len(u))
        hi = np.ones(len(u))
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            p = _slerp(v0, q, mid)
            fsum = (_excess(v0, va, p) + _excess(v0, p, vb)) / total
            below = fsum < lab
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        p = _slerp(v0, q, 0.5 * (lo + hi))
        return p, _excess(v0, va, p) / total - lb

    lo = np.zeros(len(la))
    hi = np.ones(len(la))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        _, r = split_residual(mid)
        below = r < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    p, _ = split_residual(0.5 * (lo + hi))
    return p


def _solve_interior(v0, va, vb, la, lb, tol=_INNER_TOL, max_iter=_MAX_NEWTON):
    """Damped Newton iteration for strictly interior targets.

    The unknown point is parameterised by two great-circle interpolation
    parameters (u, v): q(u) = slerp(va, vb, u), p(u, v) = slerp(v0, q, v).
    Residuals are the two independent area-fraction mismatches; the
    Jacobian comes from central finite differences and steps are halved
    until the residual norm decreases.  Rows that stall fall back to the
    nested bisection before the residual contract is enforced.
    """
    m = len(la)
    total = _excess(v0, va, vb)

    def residual(u, v, idx):
        q = _slerp(va[idx], vb[idx], u)
        p = _slerp(v0[idx], q, v)
        ra = _excess(v0[idx], p, vb[idx]) / total[idx] - la[idx]
        rb = _excess(v0[idx], va[idx], p) / total[idx] - lb[idx]
        return p, ra, rb

    lab = la + lb
    u = lb / lab
    p0 = _unit((1.0 - lab)[:, None] * v0 + la[:, None] * va + lb[:, None] * vb)
    q0 = _slerp(va, vb, u)
    v = _angle(v0, p0) / np.maximum(_angle(v0, q0), 1e-300)
    v = np.clip(v, 1e-9, 1.0)

    idx_all = np.arange(m)
    p, ra, rb = residual(u, v, idx_all)
    res = np.maximum(np.abs(ra), np.abs(rb))
    best_p = p.copy()

    active = res > tol
    for _ in range(max_iter):
        if not np.any(active):
            break
        idx = np.nonzero(active)[0]
        ui, vi = u[idx], v[idx]
        rai, rbi = ra[idx], rb[idx]

        # Central-difference Jacobian, stencil clipped to the unit square.
        up, um = np.minimum(ui + _FD_STEP, 1.0), np.maximum(ui - _FD_STEP, 0.0)
        vp, vm = np.minimum(vi + _FD_STEP, 1.0), np.maximum(vi - _FD_STEP, 1e-12)
        _, ra_up, rb_up = residual(up, vi, idx)
        _, ra_um, rb_um = residual(um, vi, idx)
        _, ra_vp, rb_vp = residual(ui, vp, idx)
        _, ra_vm, rb_vm = residual(ui, vm, idx)
        du_span = up - um
        dv_span = vp - vm
        ja_u = (ra_up - ra_um) / du_span
        jb_u = (rb_up - rb_um) / du_span
        ja_v = (ra_vp - ra_vm) / dv_span
        jb_v = (rb_vp - rb_vm) / dv_span

        det = ja_u * jb_v - ja_v * jb_u
        det = np.where(np.abs(det) < 1e-30, 1e-30, det)
        step_u = (jb_v * rai - ja_v * rbi) / det
        step_v = (-jb_u * rai + ja_u * rbi) / det

        # Backtracking: halve the step until the residual norm drops.
        res_old = np.maximum(np.abs(rai), np.abs(rbi))
        alpha = np.ones(len(idx))
        pending = np.ones(len(idx), dtype=bool)
        u_new, v_new = ui.copy(), vi.copy()
        ra_new, rb_new = rai.copy(), rbi.copy()
        p_new = best_p[idx].copy()
        for _ in range(40):
            if not np.any(pending):
                break
            sub = np.nonzero(pending)[0]
            ut = np.clip(ui[sub] - alpha[sub] * step_u[sub], 0.0, 1.0)
            vt = np.clip(vi[sub] - alpha[sub] * step_v[sub], 1e-12, 1.0)
            pt, rat, rbt = residual(ut, vt, idx[sub])
            improved = np.maximum(np.abs(rat), np.abs(rbt)) < res_old[sub]
            acc = sub[improved]
            u_new[acc] = ut[improved]
            v_new[acc] = vt[improved]
            ra_new[acc] = rat[improved]
            rb_new[acc] = rbt[improved]
            p_new[acc] = pt[improved]
            pending[acc] = False
            alpha[sub[~improved]] *= 0.5

        u[idx], v[idx] = u_new, v_new
        ra[idx], rb[idx] = ra_new, rb_new
        best_p[idx] = p_new
        res[idx] = np.maximum(np.abs(ra_new), np.abs(rb_new))
        active[idx] = res[idx] > tol

    stalled = res > tol
    if np.any(stalled):
        idx = np.nonzero(stalled)[0]
        best_p[idx] = _solve_interior_bisect(
            v0[idx], va[idx], vb[idx], la[idx], lb[idx]
        )
        pa = _excess(v0[idx], best_p[idx], vb[idx]) / total[idx] - la[idx]
        pb = _excess(v0[idx], va[idx], best_p[idx]) / total[idx] - lb[idx]
        res[idx] = np.maximum(np.abs(pa), np.abs(pb))

    worst = float(res.max()) if m else 0.0
    if not worst <= RESIDUAL_TOL:
        raise SolverError(
            f"area-coordinate solve stalled at residual {worst:.3e}",
            residual=worst,
        )
    return best_p


def _validate_coords(la, lb):
    if not np.all((la >= -1e-12) & (lb >= -1e-12) & (la + lb <= 1.0 + 1e-12)):
        raise DomainError("area coordinates must be in [0,1] with sum <= 1")


def point_from_area_coords(v0, va, vb, la, lb):
    """Inverse map: the point of the triangle with given area fractions.

    Solves for p on the sphere, inside the closed triangle (v0, va, vb),
    such that the area fraction of (v0, p, vb) equals ``la`` and that of
    (v0, va, p) equals ``lb``, each within RESIDUAL_TOL.  Scalar
    coordinates give one point (3,); arrays of shape (M,) give (M, 3)
    (vertices must then be (M, 3) or broadcastable).

    Corner targets return the corner exactly; targets on a triangle side
    reduce to a one-dimensional bisection along that arc; interior targets
    run the damped Newton iteration.  Raises SolverError (with the final
    residual) on non-convergence and GeometryError for degenerate input.
    """
    scalar = np.ndim(la) == 0 and np.ndim(lb) == 0
    la = np.atleast_1d(np.asarray(la, dtype=np.float64))
    lb = np.atleast_1d(np.asarray(lb, dtype=np.float64))
    la, lb = np.broadcast_arrays(la, lb)
    m = la.shape[0]
    v0, va, vb = (
        np.broadcast_to(np.asarray(x, dtype=np.float64), (m, 3)).copy()
        for x in (v0, va, vb)
    )
    _validate_triangle(v0, va, vb)
    _validate_coords(la, lb)
    la = np.clip(la, 0.0, 1.0)
    lb = np.clip(lb, 0.0, 1.0)
    total = _excess(v0, va, vb)
    if np.any(total <= 0.0) or np.any(total >= 2.0 * np.pi):
        raise GeometryError("degenerate spherical triangle (zero or full area)")

    l0 = 1.0 - la - lb
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

    # Sides: one fraction vanishes, solve along the corresponding arc.
    side = (lb == 0.0) & ~done
    if np.any(side):
        out[side] = _solve_arc(
            v0[side], va[side], v0[side], vb[side], total[side], la[side]
        )
        done |= side
    side = (la == 0.0) & ~done
    if np.any(side):
        out[side] = _solve_arc(
            v0[side], vb[side], v0[side], va[side], total[side], lb[side]
        )
        done |= side
    side = (l0 <= 0.0) & ~done
    if np.any(side):
        out[side] = _solve_arc(
            va[side], vb[side], v0[side], va[side], total[side], lb[side]
        )
        done |= side

    interior = ~done
    if np.any(interior):
        out[interior] = _solve_interior(
            v0[interior], va[interior], vb[interior], la[interior], lb[interior]
        )
    return out[0] if scalar else out
