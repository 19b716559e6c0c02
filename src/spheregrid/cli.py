"""Command-line interface: generate, metrics, sweep and export.

Exit codes: 0 success, 2 parse/parameter error, 3 geometry/solver error,
4 I/O error.
"""

import argparse
import contextlib
import csv
import json
import sys
import time
import warnings
from multiprocessing import Pool

import numpy as np

from . import meshgen
from .errors import (
    ConsistencyError,
    DomainError,
    GeometryError,
    ParameterError,
    SolverError,
    SphereGridError,
)
from .meshgen import (
    SphericalConfig,
    canonical_base_name,
    expected_cardinality,
    generate,
)
from .metrics import evaluate
from .sequences import format_sequence, parse_family, parse_sequence
from .spherical import _norm

SWEEP_COLUMNS = [
    "family",
    "l",
    "seq",
    "N",
    "separation",
    "covering",
    "mesh_ratio",
    "seconds",
]

METRICS_COLUMNS = [
    "n",
    "separation",
    "covering",
    "mesh_ratio",
    "edge_ratio_min",
    "edge_ratio_mean",
]


def _write_rows(line, rows, stream):
    """``line % row`` for every row of a 2-d array, 65,536 rows per write.

    Python numbers from ``tolist`` format faster than numpy scalars, to
    the same text.
    """
    for k in range(0, len(rows), 65_536):
        block = rows[k:k + 65_536]
        stream.write((line * len(block)) % tuple(block.ravel().tolist()))


def write_config_csv(points, stream):
    """One ``x,y,z`` line per point, 17 significant digits."""
    _write_rows("%.17g,%.17g,%.17g\n", np.asarray(points), stream)


def read_config_csv(path):
    """Load a configuration written by write_config_csv.

    numpy parses the file in one call.  A file it refuses (a whitespace-only,
    bad or non-UTF-8 line, no rows) is read line by line, which skips blank
    lines, parses each field with ``float`` to the same bits and names the
    first bad line.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the line reader reports no rows
        try:
            pts = np.loadtxt(path, delimiter=",", comments=None, ndmin=2,
                             dtype=np.float64, encoding="utf-8-sig")
        except ValueError:
            pts = np.empty((0, 0))
    if pts.shape[1:] != (3,) or len(pts) == 0:
        rows = []
        with open(path, "r", encoding="utf-8-sig", errors="replace") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 3:
                    raise ParameterError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
                try:
                    rows.append([float(p) for p in parts])
                except ValueError:
                    raise ParameterError(f"{path}:{lineno}: non-numeric field") from None
        if not rows:
            raise ParameterError(f"{path}: empty configuration file")
        pts = np.array(rows)
    if not np.all(np.abs(_norm(pts.T) - 1.0) <= 1e-9):
        raise GeometryError(f"{path}: points are not on the unit sphere")
    return pts


def write_obj(points, faces, stream):
    """Wavefront OBJ: vertices plus 1-based hull faces."""
    _write_rows("v %.17g %.17g %.17g\n", np.asarray(points), stream)
    _write_rows("f %d %d %d\n", np.asarray(faces) + 1, stream)


def _metadata(n, base, seq, report=None):
    meta = {"n": int(n), "base": base, "seq": seq}
    if report is not None:
        meta["metrics"] = {k: getattr(report, k) for k in METRICS_COLUMNS[1:]}
        meta["metrics"]["edge_ratio_hist"] = list(report.edge_ratio_hist)
    return meta


@contextlib.contextmanager
def _output(out_path):
    """stdout, left open, when ``out_path`` is None; else that file, opened ``"w"`` in UTF-8."""
    if out_path is None:
        yield sys.stdout
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            yield fh


def _write_export(cfg, fmt, seq, out_path, report=None):
    """Format ``fmt`` straight into ``out_path`` or stdout, with a ``.json`` sidecar
    beside a csv or obj file; the hull comes first, so a failed one leaves no file."""
    faces = cfg.hull().faces if fmt == "obj" else None
    with _output(out_path) as fh:
        if fmt == "csv":
            write_config_csv(cfg.points, fh)
        elif fmt == "obj":
            write_obj(cfg.points, faces, fh)
        else:
            json.dump(_metadata(cfg.n, cfg.base, seq, report), fh, indent=2)
            fh.write("\n")
    if out_path is not None and fmt in ("csv", "obj"):
        _write_export(cfg, "json", seq, out_path + ".json", report)


def cmd_generate(args):
    pairs = parse_sequence(args.seq)
    cfg = generate(args.base, pairs)
    seq = format_sequence(pairs)
    _write_export(cfg, args.format, seq, args.out)
    info = f"N={cfg.n} base={cfg.base} seq={seq}"
    # Keep the data stream clean when it goes to stdout.
    print(info, file=sys.stderr if args.out is None else sys.stdout)
    return 0


def _write_metrics_csv(report, stream):
    writer = csv.writer(stream)
    writer.writerow(METRICS_COLUMNS)
    writer.writerow([report.n] + [f"{getattr(report, k):.17g}" for k in METRICS_COLUMNS[1:]])


def cmd_metrics(args):
    if (args.infile is None) == (args.seq is None):
        raise ParameterError("metrics needs exactly one of --in or --seq")
    if args.seq is not None:
        pairs = parse_sequence(args.seq)
        cfg = generate(args.base, pairs)
        seq = format_sequence(pairs)
        report = evaluate(cfg, seq=seq)
        source = f"base={cfg.base} seq={seq}"
    else:
        pts = read_config_csv(args.infile)
        report = evaluate(pts)
        source = args.infile
    print(f"configuration: {source}")
    print(
        f"{report.n} points: separation {report.separation:.6g}, "
        f"covering {report.covering:.6g}, mesh ratio {report.mesh_ratio:.6g}"
    )
    for line in report.lines():
        print(line)
    _write_metrics_csv(report, sys.stdout)
    if args.out is not None:
        with _output(args.out) as fh:
            _write_metrics_csv(report, fh)
    return 0


def _share_cpus(jobs):
    meshgen._processes = jobs  # so that jobs x scan threads stay within the CPUs


def _sweep_instance(task):
    base, family_text, l, pairs = task
    row = dict.fromkeys(SWEEP_COLUMNS, "")
    row.update(family=family_text, l=l, _sort=-1)
    try:
        start = time.perf_counter()
        cfg = generate(base, pairs)
        report = evaluate(cfg)
        seconds = time.perf_counter() - start
    except SphereGridError as exc:  # error row, sweep continues
        print(f"sweep instance l={l} failed: {exc}", file=sys.stderr)
        return row
    row.update({k: f"{getattr(report, k):.17g}" for k in ("separation", "covering", "mesh_ratio")})
    row.update(seq=format_sequence(pairs), N=cfg.n, seconds=f"{seconds:.3f}", _sort=cfg.n)
    return row


def run_sweep(base, family_text, l_min, l_max, n_cap=10**6, jobs=1):
    """Instantiate a family over l in [l_min, l_max] and measure each config.

    Instances whose predicted point count exceeds n_cap are skipped before
    any work happens.  Returns rows ordered by N; a failed instance yields
    a row with empty metric fields.
    """
    base = canonical_base_name(base)
    family = parse_family(family_text)
    if l_min < 1 or l_max < l_min:
        raise ParameterError(f"bad l range [{l_min}, {l_max}]")
    tasks = []
    for l in range(l_min, l_max + 1):
        try:
            pairs = family.instantiate(l)
        except ParameterError:
            continue
        if expected_cardinality(base, pairs) > n_cap:
            continue
        tasks.append((base, family.text, l, pairs))
    if jobs > 1 and len(tasks) > 1:
        with Pool(processes=jobs, initializer=_share_cpus, initargs=(jobs,)) as pool:
            rows = pool.map(_sweep_instance, tasks)
    else:
        rows = [_sweep_instance(t) for t in tasks]
    rows.sort(key=lambda r: (r["_sort"], r["l"]))
    for row in rows:
        row.pop("_sort")
    return rows


def write_sweep_csv(rows, stream):
    writer = csv.DictWriter(stream, fieldnames=SWEEP_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)


def cmd_sweep(args):
    rows = run_sweep(
        args.base, args.family, args.l_min, args.l_max, n_cap=args.n_cap, jobs=args.jobs
    )
    with _output(args.out) as fh:
        write_sweep_csv(rows, fh)
    return 0


def cmd_export(args):
    cfg = SphericalConfig(points=read_config_csv(args.infile))
    report = evaluate(cfg) if args.format == "json" else None
    _write_export(cfg, args.format, None, args.out, report)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spheregrid",
        description="Generate and evaluate N-point spherical configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a configuration")
    gen.add_argument("--base", default="icosa", help="tetra | octa | icosa")
    gen.add_argument("--seq", required=True, help="integer-pair sequence, e.g. '1,1;(4,0)^2'")
    gen.add_argument("--format", default="csv", choices=["csv", "obj", "json"])
    gen.add_argument("--out", default=None, help="output path (default: stdout)")
    gen.set_defaults(func=cmd_generate)

    met = sub.add_parser("metrics", help="measure a configuration")
    met.add_argument("--in", dest="infile", default=None, help="configuration CSV to load")
    met.add_argument("--base", default="icosa", help="tetra | octa | icosa")
    met.add_argument("--seq", default=None, help="sequence to generate and measure")
    met.add_argument("--out", default=None, help="write the CSV record here too")
    met.set_defaults(func=cmd_metrics)

    swe = sub.add_parser("sweep", help="measure a one-parameter family of sequences")
    swe.add_argument("--base", default="icosa", help="tetra | octa | icosa")
    swe.add_argument("--family", required=True, help="sequence template over l, e.g. 'l,0'")
    swe.add_argument("--l-min", type=int, default=1)
    swe.add_argument("--l-max", type=int, required=True)
    swe.add_argument("--n-cap", type=int, default=10**6, help="skip instances above this N")
    swe.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    swe.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    swe.set_defaults(func=cmd_sweep)

    exp = sub.add_parser("export", help="convert a configuration file")
    exp.add_argument("--in", dest="infile", required=True, help="configuration CSV to load")
    exp.add_argument("--format", default="obj", choices=["csv", "obj", "json"])
    exp.add_argument("--out", default=None, help="output path (default: stdout)")
    exp.set_defaults(func=cmd_export)
    return parser


#: main's exit code per error class; a subclass takes its nearest listed base's
_EXIT_CODES = {ParameterError: 2, DomainError: 2, GeometryError: 3, SolverError: 3,
               ConsistencyError: 3, OSError: 4}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES)


if __name__ == "__main__":
    raise SystemExit(main())
