"""One workload process of the spheregrid benchmark.

Started by ``run.py`` with the package's ``src`` directory on PYTHONPATH
and every BLAS/OpenMP pool pinned to one thread.  ``--probe`` imports the
package, prints ``ready`` and exits: ``run.py`` times these fresh
processes for ``setup_s``.  ``--prepare`` writes a workload's input files
into ``--workdir`` and exits, so that the workload process's own peak
memory does not include making them.  Otherwise the process imports,
prints ``ready``, then runs operations one after another (a closed loop
with a single caller) for the given number of seconds and prints one
JSON line with its measurements.  Untraced, it prints ``idle`` after
each operation and waits for a line on stdin: ``run.py`` times a fresh
set-up process meanwhile.  The pauses do not count against the seconds.  With ``--trace``
it alternates each untraced operation with a traced replay of the same
calls, made module by module with spans kept in memory, and reports
per-layer numbers as well.
"""

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import numpy as np
import scipy
import scipy.spatial  # noqa: F401  (part of the measured set-up)

import spheregrid as sg
import spheregrid.cli as cli
import spheregrid.meshgen as meshgen

#: relative tolerance of the separation, covering and mesh-ratio checks
REL_TOL = 1e-9

#: largest admissible area-coordinate residual of the solver probe
RESIDUAL_TOL = 1e-12


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _close(name, got, want):
    if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
        raise CheckFailed(f"{name} = {got!r}, reference {want!r}")


def check_report(base, case, n, separation, covering, mesh_ratio):
    """Compare one operation's output with the references of its case."""
    want_n = sg.expected_cardinality(base, case["pairs"])
    if n != want_n:
        raise CheckFailed(f"N = {n}, expected_cardinality gives {want_n}")
    ref = case["ref"]
    _close("separation", separation, ref["separation"])
    _close("covering", covering, ref["covering"])
    _close("mesh_ratio", mesh_ratio, ref["mesh_ratio"])


# --------------------------------------------------------------- tracing


class Tracer:
    """Spans around calls into the package's modules, kept in memory.

    A span is (op, id, parent, name, start, end); spans of one operation
    share ``op``.  Counters and maxima are recorded per operation at the
    same boundaries.
    """

    def __init__(self):
        self.spans = []
        self.counts = []
        self._stack = []
        self._op = -1

    def begin_op(self):
        """Start a new operation; returns its identifier."""
        self._op += 1
        self.counts.append({})
        return self._op

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self._op, sid, parent, name, time.perf_counter(), None])
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid][5] = time.perf_counter()

    def add(self, name, value):
        counts = self.counts[self._op]
        counts[name] = counts.get(name, 0) + value

    def maximum(self, name, value):
        counts = self.counts[self._op]
        counts[name] = max(counts.get(name, value), value)

    def totals(self, op):
        """Summed span durations by name for one operation."""
        out = {}
        for o, _, _, name, start, end in self.spans:
            if o == op:
                out[name] = out.get(name, 0.0) + (end - start)
        return out


def _rows(a):
    a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()


def probe_pass(tr, mesh, pair, out_points):
    """Re-solve one pass's interior nodes through the public solver.

    The lattice grid and the area-coordinate targets are built as
    ``subdivide_mesh`` builds them, solved with ``point_from_area_coords``
    and checked against the area-coordinate forward map.  With the pass's
    edge nodes taken from ``out_points``, ``canonical_order`` of the
    rebuilt set must equal ``out_points`` bit for bit.
    """
    m, n = pair
    with tr.span("lattice.lattice_points"):
        q = sg.lattice_points(m, n)
    tr.add("lattice.nodes_per_face", len(q))
    g = sg.triangulation_number(m, n)
    bary = sg.barycentric_coords(q, m, n)
    num = np.rint(bary * g).astype(np.int64)
    interior = (num > 0).all(axis=1) & (num.sum(axis=1) < g)
    k = int(interior.sum())
    v, f = mesh.vertices, mesh.faces
    if k:
        v0, va, vb = (np.repeat(v[f[:, i]], k, axis=0) for i in range(3))
        la = np.tile(bary[interior, 0], len(f))
        lb = np.tile(bary[interior, 1], len(f))
        with tr.span("spherical.point_from_area_coords"):
            solved = sg.point_from_area_coords(v0, va, vb, la, lb)
        tr.add("spherical.rows", len(la))
        ra, rb = sg.area_coords(v0, va, vb, solved)
        resid = float(max(np.abs(ra - la).max(), np.abs(rb - lb).max()))
        tr.maximum("spherical.max_residual", resid)
        if resid > RESIDUAL_TOL:
            raise CheckFailed(f"solver probe residual {resid:.3e} > {RESIDUAL_TOL}")
    else:
        solved = np.empty((0, 3))
    known = np.concatenate([v, solved])
    edge = out_points[~np.isin(_rows(out_points), _rows(known))]
    n_edge = 3 * len(f) // 2 * (math.gcd(m, n) - 1)
    if len(edge) != n_edge:
        raise CheckFailed(
            f"pass {m},{n}: {len(out_points) - len(edge)} of the output points match "
            f"the probe's, expected {len(out_points) - n_edge}"
        )
    with tr.span("meshgen.canonical_order"):
        rebuilt = sg.canonical_order(np.concatenate([v, edge, solved]))
    if not np.array_equal(rebuilt, out_points):
        raise CheckFailed(f"pass {m},{n}: probe does not reproduce subdivide_mesh")


def traced_metrics(tr, cfg):
    """The metric calls ``evaluate`` makes, one span each."""
    mesh = cfg.hull()
    tr.add("metrics.hull_faces", mesh.n_faces)
    with tr.span("metrics.edge_ratios"):
        sg.edge_ratios(mesh)
    with tr.span("metrics.separation"):
        sep = sg.separation(cfg)
    with tr.span("metrics.covering"):
        cov = sg.covering(cfg)
    return sep, cov


# ------------------------------------------------------------- workloads


@contextmanager
def solver_spans(tr):
    """Span every call ``subdivide_mesh`` makes into the spherical solver.

    ``meshgen`` calls ``spherical._solve_interior`` by that name; the
    name is wrapped for the duration.  Should ``meshgen`` stop calling it,
    no span is recorded and ``subdivide_rest_s`` is all of
    ``subdivide_mesh_s``.
    """
    inner = getattr(meshgen, "_solve_interior", None)
    if inner is None:
        yield
        return

    def traced(*args, **kwargs):
        with tr.span("meshgen.subdivide_mesh.solve"):
            return inner(*args, **kwargs)

    meshgen._solve_interior = traced
    try:
        yield
    finally:
        meshgen._solve_interior = inner


class Generative:
    """``generate`` then ``evaluate``; case k is the k-th pair sequence."""

    calls = ("generate", "evaluate")

    def __init__(self, spec, workdir):
        self.base = spec["base"]
        self.cases = spec["cases"]
        self.n = [sg.expected_cardinality(self.base, c["pairs"]) for c in self.cases]
        self.last = None

    def op(self, k):
        pairs = [tuple(p) for p in self.cases[k]["pairs"]]
        t0 = time.perf_counter()
        cfg = sg.generate(self.base, pairs)
        t1 = time.perf_counter()
        report = sg.evaluate(cfg)
        t2 = time.perf_counter()
        self.last = (k, cfg, report)
        return (t1 - t0, t2 - t1)

    def check(self):
        k, cfg, report = self.last
        if cfg.n != report.n:
            raise CheckFailed(f"generate gave N = {cfg.n}, evaluate N = {report.n}")
        check_report(self.base, self.cases[k], report.n, report.separation,
                     report.covering, report.mesh_ratio)

    def replay(self, tr):
        """The calls ``generate`` makes, then the metric calls."""
        k, ref_cfg, ref_report = self.last
        with tr.span("meshgen.base_polyhedron"):
            mesh = sg.base_polyhedron(self.base)
        points = mesh.vertices
        for pair in self.cases[k]["pairs"]:
            with tr.span("meshgen.subdivide_mesh"), solver_spans(tr):
                points = sg.subdivide_mesh(mesh, pair).points
            with tr.span("probe"):
                probe_pass(tr, mesh, pair, points)
            with tr.span("meshgen.convex_hull_triangulation"):
                mesh = sg.convex_hull_triangulation(points)
        sep, cov = traced_metrics(tr, sg.SphericalConfig(points=points, mesh=mesh))
        if not np.array_equal(points, ref_cfg.points):
            raise CheckFailed("traced replay points differ from generate's")
        if (sep, cov) != (ref_report.separation, ref_report.covering):
            raise CheckFailed("traced replay metrics differ from evaluate's")


class MetricsIn:
    """``spheregrid metrics --in`` then ``export --format obj`` on a CSV file.

    The input is a generated configuration turned by a seeded random
    rotation and reordered by a seeded permutation.  ``prepare`` writes
    it, in a process of its own, before the workload process starts.
    """

    calls = ("metrics_in", "export_obj")

    @staticmethod
    def prepare(spec, workdir):
        (case,) = spec["cases"]
        pts = sg.generate(spec["base"], [tuple(p) for p in case["pairs"]]).points
        rng = np.random.default_rng(spec["input_seed"])
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0.0:
            q[:, 0] = -q[:, 0]
        pts = (pts @ q.T)[rng.permutation(len(pts))]
        with open(os.path.join(workdir, "in.csv"), "w", encoding="utf-8") as fh:
            cli.write_config_csv(pts, fh)

    def __init__(self, spec, workdir):
        (self.case,) = spec["cases"]
        self.base = spec["base"]
        self.cases = [self.case]
        self.n = [sg.expected_cardinality(self.base, self.case["pairs"])]
        self.csv = os.path.join(workdir, "in.csv")
        self.obj = os.path.join(workdir, "out.obj")
        self.csv_bytes = os.path.getsize(self.csv)
        self.obj_ok = None  # digest of the last OBJ output that passed the full check
        self.last = None

    def op(self, k):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            rc_metrics = cli.main(["metrics", "--in", self.csv])
            t1 = time.perf_counter()
            rc_export = cli.main(
                ["export", "--in", self.csv, "--format", "obj", "--out", self.obj]
            )
            t2 = time.perf_counter()
        self.last = (rc_metrics, rc_export, out.getvalue(), err.getvalue())
        return (t1 - t0, t2 - t1)

    def printed_report(self):
        """(n, separation, covering, mesh_ratio) from the metrics CSV record."""
        record = self.last[2].rstrip("\n").splitlines()[-1].split(",")
        return int(record[0]), float(record[1]), float(record[2]), float(record[3])

    def check(self):
        rc_metrics, rc_export, _, err = self.last
        if rc_metrics != 0 or rc_export != 0:
            raise CheckFailed(f"exit codes {rc_metrics}, {rc_export}: {err.strip()}")
        check_report(self.base, self.case, *self.printed_report())
        with open(self.obj, "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).digest()
        if digest != self.obj_ok:
            self.check_obj(data)
            self.obj_ok = digest

    def check_obj(self, data):
        """Full check of one OBJ output.

        Vertex lines come first, then face lines.  The vertices equal the
        input, and the faces form a closed, consistently and outward
        oriented mesh over them.
        """
        k = data.find(b"\nf ") + 1
        v = np.loadtxt(io.BytesIO(data[:k]), dtype=np.float64, usecols=(1, 2, 3))
        f = np.loadtxt(io.BytesIO(data[k:]), dtype=np.int64, usecols=(1, 2, 3))
        if (b"\n" + data[:k]).count(b"\nv ") != len(v) or (b"\n" + data[k:]).count(b"\nf ") != len(f):
            raise CheckFailed("OBJ is not vertex lines followed by face lines")
        if not np.array_equal(v, cli.read_config_csv(self.csv)):
            raise CheckFailed("OBJ vertices differ from the input configuration")
        if len(f) != 2 * len(v) - 4 or f.min() != 1 or f.max() != len(v):
            raise CheckFailed(f"OBJ has {len(f)} faces over {len(v)} vertices")
        try:
            sg.validate_mesh(sg.TriangleMesh(vertices=v, faces=f - 1), sphere_tol=1e-9)
        except sg.GeometryError as exc:
            raise CheckFailed(f"OBJ mesh: {exc}") from None

    def replay(self, tr):
        """The calls ``metrics --in`` and ``export --format obj`` make."""
        with tr.span("cli.metrics"):
            with tr.span("cli.read_config_csv"):
                pts = cli.read_config_csv(self.csv)
            tr.add("cli.bytes_read", self.csv_bytes)
            with tr.span("meshgen.convex_hull_triangulation"):
                mesh = sg.convex_hull_triangulation(pts)
            sep, cov = traced_metrics(tr, sg.SphericalConfig(points=pts, mesh=mesh))
        with tr.span("cli.export"):
            with tr.span("cli.read_config_csv"):
                pts = cli.read_config_csv(self.csv)
            tr.add("cli.bytes_read", self.csv_bytes)
            with tr.span("meshgen.convex_hull_triangulation"):
                mesh = sg.convex_hull_triangulation(pts)
            buf = io.StringIO()
            with tr.span("cli.write_obj"):
                cli.write_obj(pts, mesh.faces, buf)
            data = buf.getvalue().encode("ascii")
            tr.add("cli.bytes_written", len(data))
        _, ref_sep, ref_cov, _ = self.printed_report()
        if (sep, cov) != (ref_sep, ref_cov):
            raise CheckFailed("traced replay metrics differ from metrics --in's")
        with open(self.obj, "rb") as fh:
            if fh.read() != data:
                raise CheckFailed("traced replay OBJ bytes differ from export's")


KINDS = {"generate": Generative, "metrics-in": MetricsIn}


# ------------------------------------------------------------ the loop


def run_op(work, k, failures, replay=None):
    """Operation on case k, then its checks and, if given, its traced replay.

    Returns the call times, or None if the operation raised.  A raise or
    a failed check is recorded in ``failures``.
    """
    try:
        times = work.op(k)
    except Exception as exc:  # every failure is counted, the loop goes on
        failures.append(_describe(exc))
        return None
    try:
        work.check()
        if replay is not None:
            replay(work, sum(times))
    except Exception as exc:  # as above; the operation itself completed
        failures.append(_describe(exc))
    return times


def _describe(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def layer_row(tr, op, wall, untraced_s):
    """Per-layer numbers of one traced replay."""
    t = tr.totals(op)
    c = tr.counts[op]
    probe = t.get("probe", 0.0)
    solve = t.get("spherical.point_from_area_coords", 0.0)
    subdivide = t.get("meshgen.subdivide_mesh", 0.0)
    hull = t.get("meshgen.convex_hull_triangulation", 0.0)
    rows = c.get("spherical.rows", 0)
    return {
        "meshgen.convex_hull_triangulation_s": hull,
        "meshgen.hull_share": hull / (wall - probe),
        "meshgen.subdivide_mesh_s": subdivide,
        "meshgen.subdivide_rest_s": subdivide - t.get("meshgen.subdivide_mesh.solve", 0.0),
        "meshgen.canonical_order_s": t.get("meshgen.canonical_order", 0.0),
        "spherical.point_from_area_coords_s": solve,
        "spherical.rows": rows,
        "spherical.us_per_row": 1e6 * solve / rows if rows else 0.0,
        "spherical.max_residual": c.get("spherical.max_residual", 0.0),
        "lattice.lattice_points_s": t.get("lattice.lattice_points", 0.0),
        "lattice.nodes_per_face": c.get("lattice.nodes_per_face", 0),
        "metrics.edge_ratios_s": t.get("metrics.edge_ratios", 0.0),
        "metrics.separation_s": t.get("metrics.separation", 0.0),
        "metrics.covering_s": t.get("metrics.covering", 0.0),
        "metrics.hull_faces": c.get("metrics.hull_faces", 0),
        "cli.read_config_csv_s": t.get("cli.read_config_csv", 0.0),
        "cli.write_obj_s": t.get("cli.write_obj", 0.0),
        "cli.bytes_read": c.get("cli.bytes_read", 0),
        "cli.bytes_written": c.get("cli.bytes_written", 0),
        # replay wall time without the probe, over the untraced operation
        "trace.overhead": (wall - probe) / untraced_s,
    }


def per_case(rows):
    """Each key's median within a case, averaged over the cases.

    ``rows`` is a list of (case, {key: value}).  Every case weighs the
    same however many operations of it a run completed.
    """
    cases = sorted({k for k, _ in rows})
    keys = rows[0][1]
    return {
        key: statistics.fmean(
            statistics.median(r[key] for k, r in rows if k == case) for case in cases
        )
        for key in keys
    }


def run(spec, seconds, trace, workdir):
    work = KINDS[spec["kind"]](spec, workdir)
    failures = []
    attempted = 0
    samples, layers = [], []
    tr = Tracer()
    k = 0

    def replay(w, untraced_s):
        op = tr.begin_op()
        t0 = time.perf_counter()
        w.replay(tr)
        layers.append((k, layer_row(tr, op, time.perf_counter() - t0, untraced_s)))

    # Cases in turn, every case at least once.
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or attempted < len(work.cases):
        k = attempted % len(work.cases)
        attempted += 1
        times = run_op(work, k, failures, replay if trace else None)
        if times is not None:
            samples.append((k, times))
        if not trace:
            paused = time.perf_counter()
            print("idle", flush=True)
            sys.stdin.readline()
            start += time.perf_counter() - paused
    out = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "n": work.n,
        "calls": work.calls,
        "samples": samples,
        "medians": per_case(
            [(k, {"op_s": sum(t), "first_call_s": t[0], "second_call_s": t[1]})
             for k, t in samples]
        ) if samples else {},
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if trace:
        out["layers"] = per_case(layers) if layers else {}
        out["spans"] = tr.spans
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--prepare", action="store_true")
    ap.add_argument("--spec")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir")
    args = ap.parse_args(argv)
    print("ready", flush=True)
    if args.probe:
        return 0
    spec = json.loads(args.spec)
    if args.prepare:
        KINDS[spec["kind"]].prepare(spec, args.workdir)
        return 0
    result = run(spec, args.seconds, bool(args.trace), args.workdir)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
