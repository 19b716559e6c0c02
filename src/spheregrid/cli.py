"""Command-line interface: generate, metrics, sweep and export.

Exit codes: 0 success, 2 parse/parameter error, 3 geometry/solver error,
4 I/O error.
"""

import argparse
import csv
import io
import json
import sys
import time
from multiprocessing import Pool

import numpy as np

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
    """Load a configuration written by write_config_csv."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
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
    radii = np.sqrt((pts * pts).sum(axis=1))
    if not np.all(np.abs(radii - 1.0) <= 1e-9):
        raise GeometryError(f"{path}: points are not on the unit sphere")
    return pts


def write_obj(points, faces, stream):
    """Wavefront OBJ: vertices plus 1-based hull faces."""
    _write_rows("v %.17g %.17g %.17g\n", np.asarray(points), stream)
    _write_rows("f %d %d %d\n", np.asarray(faces) + 1, stream)


def _metadata(n, base, seq, report=None):
    meta = {"n": int(n), "base": base, "seq": seq}
    if report is not None:
        meta["metrics"] = {
            "separation": report.separation,
            "covering": report.covering,
            "mesh_ratio": report.mesh_ratio,
            "edge_ratio_min": report.edge_ratio_min,
            "edge_ratio_mean": report.edge_ratio_mean,
            "edge_ratio_hist": list(report.edge_ratio_hist),
        }
    return meta


def _write_output(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _export_text(cfg, fmt, seq, report=None):
    buf = io.StringIO()
    if fmt == "csv":
        write_config_csv(cfg.points, buf)
    elif fmt == "obj":
        write_obj(cfg.points, cfg.hull().faces, buf)
    elif fmt == "json":
        json.dump(_metadata(cfg.n, cfg.base, seq, report), buf, indent=2)
        buf.write("\n")
    else:
        raise ParameterError(f"unknown format {fmt!r}")
    return buf.getvalue()


def _write_sidecar(out_path, n, base, seq, report=None):
    with open(out_path + ".json", "w", encoding="utf-8") as fh:
        json.dump(_metadata(n, base, seq, report), fh, indent=2)
        fh.write("\n")


def cmd_generate(args):
    pairs = parse_sequence(args.seq)
    cfg = generate(args.base, pairs)
    seq = format_sequence(pairs)
    text = _export_text(cfg, args.format, seq)
    _write_output(text, args.out)
    if args.out is not None and args.format in ("csv", "obj"):
        _write_sidecar(args.out, cfg.n, cfg.base, seq)
    info = f"N={cfg.n} base={cfg.base} seq={seq}"
    # Keep the data stream clean when it goes to stdout.
    print(info, file=sys.stderr if args.out is None else sys.stdout)
    return 0


def _metrics_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(METRICS_COLUMNS)
    writer.writerow(
        [
            report.n,
            f"{report.separation:.17g}",
            f"{report.covering:.17g}",
            f"{report.mesh_ratio:.17g}",
            f"{report.edge_ratio_min:.17g}",
            f"{report.edge_ratio_mean:.17g}",
        ]
    )
    return buf.getvalue()


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
    record = _metrics_csv(report)
    print(record, end="")
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(record)
    return 0


def _sweep_instance(task):
    base, family_text, l = task
    family = parse_family(family_text)
    try:
        pairs = family.instantiate(l)
        start = time.perf_counter()
        cfg = generate(base, pairs)
        report = evaluate(cfg)
        seconds = time.perf_counter() - start
        return {
            "family": family.text,
            "l": l,
            "seq": format_sequence(pairs),
            "N": cfg.n,
            "separation": f"{report.separation:.17g}",
            "covering": f"{report.covering:.17g}",
            "mesh_ratio": f"{report.mesh_ratio:.17g}",
            "seconds": f"{seconds:.3f}",
            "_sort": cfg.n,
        }
    except SphereGridError as exc:  # error row, sweep continues
        print(f"sweep instance l={l} failed: {exc}", file=sys.stderr)
        return {
            "family": family.text,
            "l": l,
            "seq": "",
            "N": "",
            "separation": "",
            "covering": "",
            "mesh_ratio": "",
            "seconds": "",
            "_sort": -1,
        }


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
        tasks.append((base, family.text, l))
    if jobs > 1 and len(tasks) > 1:
        with Pool(processes=jobs) as pool:
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
    for row in rows:
        writer.writerow(row)


def cmd_sweep(args):
    rows = run_sweep(
        args.base, args.family, args.l_min, args.l_max, n_cap=args.n_cap, jobs=args.jobs
    )
    buf = io.StringIO()
    write_sweep_csv(rows, buf)
    _write_output(buf.getvalue(), args.out)
    return 0


def cmd_export(args):
    cfg = SphericalConfig(points=read_config_csv(args.infile))
    report = evaluate(cfg) if args.format == "json" else None
    text = _export_text(cfg, args.format, None, report)
    _write_output(text, args.out)
    if args.out is not None and args.format in ("csv", "obj"):
        _write_sidecar(args.out, cfg.n, None, None, report)
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


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GeometryError, SolverError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
