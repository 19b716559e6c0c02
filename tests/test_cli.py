import csv
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import spheregrid
import spheregrid.meshgen as meshgen
import spheregrid.cli as cli
from spheregrid import (
    ConsistencyError,
    GeometryError,
    ParameterError,
    base_polyhedron,
    convex_hull_triangulation,
    expected_cardinality,
    generate,
    subdivide_mesh,
)
from spheregrid.cli import main, read_config_csv, run_sweep, write_config_csv, write_obj
from spheregrid.lattice import _bary_numerators
from oracle import spiral_points
from util import child_env, counting_qhull, turned_icosa_64


def run_cli(*args):
    return main(list(args))


def run_module(*args):
    """``python -m spheregrid.cli`` in a child that imports this same package."""
    return subprocess.run(
        [sys.executable, "-m", "spheregrid.cli", *args],
        capture_output=True, text=True, env=child_env(),
    )


def test_generate_csv_line_count(tmp_path, capsys):
    out = tmp_path / "cfg.csv"
    assert run_cli("generate", "--base", "icosa", "--seq", "5,0", "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 252
    assert "N=252" in capsys.readouterr().out
    sidecar = (tmp_path / "cfg.csv.json").read_bytes()
    meta = json.loads(sidecar)
    assert meta["n"] == 252 and meta["base"] == "icosahedron"
    # the sidecar is what --format json prints for the same sequence
    assert run_cli("generate", "--base", "icosa", "--seq", "5,0", "--format", "json") == 0
    assert sidecar == capsys.readouterr().out.encode()


def test_generate_to_stdout_keeps_data_clean(capsys):
    assert run_cli("generate", "--base", "tetra", "--seq", "1,0") == 0
    captured = capsys.readouterr()
    rows = captured.out.strip().splitlines()
    assert len(rows) == 4
    assert all(len(r.split(",")) == 3 for r in rows)
    assert "N=4 base=tetrahedron seq=1,0" in captured.err


def test_generate_repeated_pair_sequence(capsys):
    assert run_cli("generate", "--base", "icosa", "--seq", "1,1;2,0;2,0;2,0;2,0",
                   "--format", "json") == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["n"] == 7682
    assert meta["seq"] == "1,1;(2,0)^4"


def test_generate_csv_round_trips_exactly(tmp_path, capsys):
    out = tmp_path / "cfg.csv"
    run_cli("generate", "--base", "octa", "--seq", "3,1", "--out", str(out))
    pts = read_config_csv(str(out))
    cfg = generate("octa", [(3, 1)])
    assert np.array_equal(pts, cfg.points)


def test_metrics_from_sequence(capsys):
    assert run_cli("metrics", "--base", "icosa", "--seq", "5,0") == 0
    out = capsys.readouterr().out
    assert "n=252" in out
    # mesh ratio printed with at least 6 significant digits
    line = next(l for l in out.splitlines() if l.startswith("mesh_ratio="))
    assert len(line.split("=")[1].replace(".", "").lstrip("0")) >= 6
    rows = list(csv.DictReader(out.splitlines()[-2:]))
    assert rows[0]["n"] == "252"


def test_metrics_file_round_trip(tmp_path, capsys):
    out = tmp_path / "cfg.csv"
    run_cli("generate", "--base", "icosa", "--seq", "3,0", "--out", str(out))
    capsys.readouterr()
    assert run_cli("metrics", "--in", str(out)) == 0
    from_file = capsys.readouterr().out
    assert run_cli("metrics", "--base", "icosa", "--seq", "3,0") == 0
    from_seq = capsys.readouterr().out
    pick = lambda text, key: float(
        next(l for l in text.splitlines() if l.startswith(key)).split("=")[1]
    )
    for key in ("separation=", "covering=", "mesh_ratio="):
        assert abs(pick(from_file, key) - pick(from_seq, key)) < 1e-12


def test_metrics_needs_exactly_one_source(capsys):
    assert run_cli("metrics", "--base", "icosa") == 2
    assert run_cli("metrics", "--in", "x.csv", "--seq", "5,0") == 2


def test_sweep_rows_and_columns(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(
        "sweep", "--base", "icosa", "--family", "l,0",
        "--l-min", "1", "--l-max", "8", "--out", str(out),
    ) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["N"] for r in rows] == [str(10 * l * l + 2) for l in range(1, 9)]
    assert list(rows[0]) == [
        "family", "l", "seq", "N", "separation", "covering", "mesh_ratio", "seconds",
    ]
    for row in rows:
        if int(row["N"]) >= 100:
            assert float(row["mesh_ratio"]) > 0.618


def test_sweep_respects_n_cap():
    rows = run_sweep("icosa", "l,0", 1, 31, n_cap=2000)
    assert [int(r["N"]) for r in rows] == [10 * l * l + 2 for l in range(1, 15)]
    assert all(r["seq"] == f"{r['l']},0" for r in rows)


def test_sweep_orders_rows_by_n():
    rows = run_sweep("icosa", "1,1;(2,0)^l", 1, 3, n_cap=10**6)
    ns = [int(r["N"]) for r in rows]
    assert ns == sorted(ns) == [122, 482, 1922]


def test_export_obj_and_json(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.csv"
    run_cli("generate", "--base", "octa", "--seq", "2,0", "--out", str(cfg_path))
    capsys.readouterr()

    obj_path = tmp_path / "cfg.obj"
    assert run_cli("export", "--in", str(cfg_path), "--format", "obj",
                   "--out", str(obj_path)) == 0
    lines = obj_path.read_text().splitlines()
    n_v = sum(1 for l in lines if l.startswith("v "))
    n_f = sum(1 for l in lines if l.startswith("f "))
    assert n_v == 18 and n_f == 2 * 18 - 4

    assert run_cli("export", "--in", str(cfg_path), "--format", "json") == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["n"] == 18
    assert 0.5 < meta["metrics"]["mesh_ratio"] < 1.0


@pytest.mark.parametrize(
    "args",
    [
        ("generate", "--base", "icosa", "--seq", "5,0;bad"),
        ("generate", "--base", "cube", "--seq", "5,0"),
        ("generate", "--base", "icosa", "--seq", "2,3"),
        ("sweep", "--base", "icosa", "--family", "5,0", "--l-max", "3"),
        ("sweep", "--base", "icosa", "--family", "l,0", "--l-min", "3", "--l-max", "1"),
    ],
)
def test_parameter_errors_exit_2(args, capsys):
    assert run_cli(*args) == 2
    assert "error:" in capsys.readouterr().err


def test_geometry_error_exit_3(tmp_path, capsys):
    bad = tmp_path / "flat.csv"
    bad.write_text("1,0,0\n0,1,0\n-1,0,0\n0,-1,0\n")
    assert run_cli("metrics", "--in", str(bad)) == 3


FLAT = "1,0,0\n0,1,0\n-1,0,0\n0,-1,0\n"


@pytest.mark.parametrize("command", ["metrics", "export"])
def test_a_qhull_failure_prints_one_line(tmp_path, capsys, command):
    # qhull's whole diagnostic is some 57 lines, and its option order and
    # run id change from run to run; it stays on the error's __cause__
    bad = tmp_path / "flat.csv"
    bad.write_text(FLAT)
    assert run_cli(command, "--in", str(bad)) == 3
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error: convex hull failed: QH")
    with pytest.raises(GeometryError) as info:
        convex_hull_triangulation(read_config_csv(bad))
    assert err[0] == f"error: {info.value}"
    assert str(info.value.__cause__).count("\n") > 1


def test_a_failed_export_leaves_no_file(tmp_path, capsys):
    # the hull is taken before any file is opened
    bad = tmp_path / "flat.csv"
    bad.write_text(FLAT)
    out = tmp_path / "flat.obj"
    assert run_cli("export", "--in", str(bad), "--format", "obj", "--out", str(out)) == 3
    assert not out.exists() and not (tmp_path / "flat.obj.json").exists()


def test_metrics_out_holds_the_printed_record(tmp_path, capsys):
    out = tmp_path / "record.csv"
    assert run_cli("metrics", "--base", "icosa", "--seq", "5,0", "--out", str(out)) == 0
    record = out.read_bytes().decode()
    assert capsys.readouterr().out.endswith(record)
    rows = list(csv.reader(io.StringIO(record)))
    assert rows[0] == cli.METRICS_COLUMNS and len(rows) == 2 and rows[1][0] == "252"


def test_an_export_holds_no_copy_of_its_text(tmp_path):
    # traced obj export of N=122,882 with its hull cached: one 65,536-row
    # block's formatting, 12.5 MiB for the 12.2 MiB file; a copy of the
    # whole text would double it
    cfg = generate("icosa", [(1, 1), (4, 0), (4, 0), (4, 0)])
    cfg.hull()
    out = tmp_path / "cfg.obj"
    tracemalloc.start()
    try:
        cli._write_export(cfg, "obj", None, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * out.stat().st_size


def test_points_off_the_origin_exit_3(tmp_path, capsys):
    probes = spiral_points(3200)
    cap = tmp_path / "cap.csv"
    np.savetxt(cap, probes[probes[:, 2] > 0.5], delimiter=",", fmt="%.17g")
    assert run_cli("metrics", "--in", str(cap)) == 3
    assert "surround the origin" in capsys.readouterr().err


def test_non_finite_config_file_exit_3(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text("1,0,0\n0,1,0\n0,0,1\nnan,nan,nan\n")
    with pytest.raises(GeometryError):
        read_config_csv(bad)
    assert run_cli("metrics", "--in", str(bad)) == 3
    assert run_cli("export", "--in", str(bad)) == 3


def test_obj_output_builds_one_hull_per_pass(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.csv"
    with counting_qhull() as calls:
        # both passes come with their certified lattice meshes, so generate
        # needs no qhull; export reads points only and builds one hull
        assert run_cli("generate", "--seq", "1,1;2,0", "--out", str(cfg_path)) == 0
        assert calls == []
        assert run_cli("generate", "--seq", "1,1;2,0", "--format", "obj",
                       "--out", str(tmp_path / "gen.obj")) == 0
        assert calls == []
        assert run_cli("export", "--in", str(cfg_path), "--format", "obj",
                       "--out", str(tmp_path / "exp.obj")) == 0
        assert calls == [(122, "Q5", False)]
    assert (tmp_path / "gen.obj").read_bytes() == (tmp_path / "exp.obj").read_bytes()


def test_read_side_hulls_a_file_in_lunes(tmp_path, capsys):
    # a turned, permuted icosa 64,0 (N = 40,962): metrics --in and export
    # hull it in lunes, and give the bytes of the whole-set qhull
    points = turned_icosa_64()
    cfg_path = tmp_path / "cfg.csv"
    with open(cfg_path, "w", encoding="utf-8") as fh:
        write_config_csv(points, fh)

    def outputs(tag):
        record, obj = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.obj"
        assert run_cli("metrics", "--in", str(cfg_path), "--out", str(record)) == 0
        assert run_cli("export", "--in", str(cfg_path), "--format", "obj",
                       "--out", str(obj)) == 0
        return record.read_bytes(), obj.read_bytes()

    with counting_qhull() as calls:
        lunes = outputs("lunes")
    # one lune hull for each command, and no call on all the points
    assert sum(options == "Q5 Q0 Q7" for _, options, _ in calls) == 2 * meshgen._LUNES
    assert all(n < len(points) for n, _, _ in calls)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(meshgen, "_LUNE_GATE", len(points) + 1)
        assert outputs("whole") == lunes


def test_writers_match_per_value_formatting():
    # the row-by-row f-string writers on numpy scalars are the reference
    awkward = [-0.0, 5e-324, 1.0 - 2.0**-53, 1e-300, -1.0, 0.1, np.pi]
    rng = np.random.default_rng(5)
    points = np.concatenate([np.array(awkward)[rng.integers(0, 7, size=(70_000, 3))],
                             rng.normal(size=(1_000, 3))])
    faces = rng.integers(0, 2**40, size=(70_000, 3)) + 2**31
    csv_text, obj_text = io.StringIO(), io.StringIO()
    write_config_csv(points, csv_text)
    write_obj(points, faces, obj_text)
    assert csv_text.getvalue() == "".join(
        f"{x:.17g},{y:.17g},{z:.17g}\n" for x, y, z in points
    )
    assert obj_text.getvalue() == "".join(
        f"v {x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in points
    ) + "".join(f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in faces)


def test_io_error_exit_4(capsys):
    code = run_cli("generate", "--base", "tetra", "--seq", "1,0",
                   "--out", "/nonexistent-dir/x.csv")
    assert code == 4


@pytest.mark.parametrize("argv", [
    ["generate", "--base", "icosa", "--seq", "1,1;4,0"],
    ["metrics", "--seq", "1,1;4,0"],
    ["sweep", "--family", "l,0", "--l-min", "1", "--l-max", "2"],
])
def test_a_missing_out_directory_fails_before_any_work(argv, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the --out check")

    for name in ("generate", "evaluate", "run_sweep"):
        monkeypatch.setattr(cli, name, no_work)
    assert run_cli(*argv, "--out", "/nonexistent-dir/m.csv") == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: [Errno 2] No such file or directory: '/nonexistent-dir/m.csv'\n"


def test_malformed_config_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,0\n")
    assert run_cli("metrics", "--in", str(bad)) == 2
    bad.write_text("a,b,c\n")
    assert run_cli("metrics", "--in", str(bad)) == 2


def test_console_entry_point_runs():
    proc = run_module("generate", "--base", "tetra", "--seq", "1,0")
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 4


def test_generation_deterministic_across_processes(capsys):
    proc = run_module("generate", "--base", "octa", "--seq", "2,1")
    assert proc.returncode == 0
    assert run_cli("generate", "--base", "octa", "--seq", "2,1") == 0
    assert proc.stdout == capsys.readouterr().out


def test_sweep_deterministic():
    a = run_sweep("icosa", "1,1;l,0", 1, 4)
    b = run_sweep("icosa", "1,1;l,0", 1, 4)
    for ra, rb in zip(a, b):
        assert {k: v for k, v in ra.items() if k != "seconds"} == {
            k: v for k, v in rb.items() if k != "seconds"
        }


def test_sweep_jobs_give_the_rows_of_one_process():
    # l = 28 stays below the scans' two-chunk gate (15,680 faces), l = 29
    # and 30 pass it: one process runs their scans on two threads, each of
    # two jobs on its share of the CPUs
    without_seconds = [
        [{k: v for k, v in row.items() if k != "seconds"} for row in run_sweep(
            "icosa", "l,0", 28, 30, jobs=jobs)]
        for jobs in (1, 2)
    ]
    assert without_seconds[0] == without_seconds[1]
    assert [row["N"] for row in without_seconds[0]] == [7_842, 8_412, 9_002]


def test_sweep_stops_at_its_first_instance_over_the_cap(monkeypatch):
    # N never falls as l grows, so l = 4 (N = 1,966,082) ends the sweep
    calls = []

    def counting(base, pairs):
        calls.append(len(pairs))
        return expected_cardinality(base, pairs)

    monkeypatch.setattr(cli, "expected_cardinality", counting)
    rows = run_sweep("icosa", "1,1;(4,0)^l", 1, 3000, n_cap=10**6)
    assert calls == [2, 3, 4, 5]
    assert [r["N"] for r in rows] == [482, 7_682, 122_882]
    without_seconds = [[{k: v for k, v in row.items() if k != "seconds"} for row in r]
                       for r in (rows, run_sweep("icosa", "1,1;(4,0)^l", 1, 10, n_cap=10**6))]
    assert without_seconds[0] == without_seconds[1]


def test_sweep_starts_no_more_workers_than_instances(monkeypatch):
    seen = {}

    class SerialPool:
        def __init__(self, processes, initializer, initargs):
            seen.update(processes=processes, initargs=initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(task) for task in tasks]

    monkeypatch.setattr(cli, "Pool", SerialPool)
    monkeypatch.setattr(cli, "_sweep_instance", worker_processes)
    rows = run_sweep("icosa", "l,0", 1, 3, jobs=64)
    assert seen == {"processes": 3, "initargs": (3,)} and len(rows) == 3


def worker_processes(task):
    """A sweep row holding the process count its worker shares the CPUs with."""
    return {"N": 0, "l": task[2], "processes": meshgen._processes}


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="a spawned worker imports the unpatched sweep task")
def test_sweep_workers_take_their_share_of_the_cpus(monkeypatch):
    monkeypatch.setattr(cli, "_sweep_instance", worker_processes)
    rows = run_sweep("icosa", "l,0", 1, 3, jobs=3)
    assert [r["processes"] for r in rows] == [3, 3, 3]
    assert meshgen._processes == 1


def test_sweep_error_row_continues(tmp_path):
    # l=1 instantiates (1,2) which is invalid -> skipped at instantiation;
    # remaining rows still computed.
    rows = run_sweep("icosa", "l,2", 1, 3, n_cap=10**6)
    assert [r["l"] for r in rows] == [2, 3]
    assert all(r["N"] != "" for r in rows)


def raising(error):
    def fail(base, pairs):
        raise error("injected")
    return fail


def test_sweep_error_row_on_a_library_error(monkeypatch, capsys):
    monkeypatch.setattr(cli, "generate", raising(ConsistencyError))
    rows = run_sweep("icosa", "l,0", 2, 2, jobs=1)
    assert [(r["l"], r["N"], r["mesh_ratio"]) for r in rows] == [(2, "", "")]
    assert "sweep instance l=2 failed: injected" in capsys.readouterr().err


def test_a_failed_instance_row_sorts_first(monkeypatch):
    def fail_at_3(base, pairs):
        if pairs == ((3, 0),):
            raise ConsistencyError("injected")
        return generate(base, pairs)

    monkeypatch.setattr(cli, "generate", fail_at_3)
    rows = run_sweep("icosa", "l,0", 1, 4)
    assert [(r["l"], r["N"]) for r in rows] == [(3, ""), (1, 12), (2, 42), (4, 162)]


def test_sweep_stops_where_its_family_stops_validating(monkeypatch):
    # (3,l) is invalid for every l > 3, the family's largest written integer
    calls = []
    instantiate = spheregrid.Family.instantiate

    def counting(family, l):
        calls.append(l)
        return instantiate(family, l)

    monkeypatch.setattr(spheregrid.Family, "instantiate", counting)
    rows = run_sweep("icosa", "3,l", 1, 10**5)
    assert [(r["l"], r["N"]) for r in rows] == [(1, 132), (2, 192), (3, 272)]
    assert calls == [1, 2, 3, 4]


def test_sweep_lets_a_program_error_through(monkeypatch):
    monkeypatch.setattr(cli, "generate", raising(TypeError))
    with pytest.raises(TypeError, match="injected"):
        run_sweep("icosa", "l,0", 2, 2, jobs=1)


def test_a_pass_short_of_its_closed_form_count_is_refused(monkeypatch, capsys):
    lattice = meshgen.lattice_points

    def one_interior_node_short(m, n):
        pts = lattice(m, n)
        alpha, beta = _bary_numerators(pts, m, n)
        inside = (alpha > 0) & (beta > 0) & (alpha + beta < m * m + m * n + n * n)
        return np.delete(pts, np.argmax(inside), axis=0)

    monkeypatch.setattr(meshgen, "lattice_points", one_interior_node_short)
    with pytest.raises(ConsistencyError, match=r"subdivision produced 12 points, expected 32 "):
        generate("icosa", [(1, 1), (4, 0)])
    assert run_cli("generate", "--seq", "1,1;4,0") == 3
    assert "error: subdivision produced 12 points" in capsys.readouterr().err


def test_predicted_cardinality_matches_generate():
    assert expected_cardinality("icosa", [(1, 1), (4, 0)]) == 482
    assert generate("icosa", [(1, 1), (4, 0)]).n == 482


def config_file(tmp_path, text):
    path = tmp_path / "cfg.csv"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "text,message",
    [
        ("1,0,0\n0,1,0\n0,1\n", ":3: expected 3 fields, got 2"),
        ("1,0,0\n\n0,x,1\n", ":3: non-numeric field"),
        ("0,1\n0,0\n", ":1: expected 3 fields, got 2"),
        ("", ": empty configuration file"),
        ("\n  \n\t\n", ": empty configuration file"),
    ],
)
def test_reader_names_the_bad_line(tmp_path, text, message):
    path = config_file(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError) as info:
            read_config_csv(path)
    assert str(info.value) == path + message


def test_reader_skips_blank_and_whitespace_lines(tmp_path):
    path = config_file(tmp_path, "\n1,0,0\n   \n0,1,0\n\t\n\n0,0,1\n \n")
    assert np.array_equal(read_config_csv(path), np.eye(3))


def test_reader_parses_whitespace_lines_like_a_clean_file(tmp_path):
    # numpy refuses the " " and "\t" lines; the line reader gives the bits
    # numpy gives the clean file
    rows = np.random.default_rng(13).standard_normal((50, 3))
    lines = ["%.17g,%.17g,%.17g\n" % tuple(r / np.linalg.norm(r)) for r in rows]
    clean = config_file(tmp_path, "".join(lines))
    expected = read_config_csv(clean)
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("".join(lines[:10] + [" \n"] + lines[10:30] + ["\t\n"] + lines[30:]))
    assert read_config_csv(spaced).tobytes() == expected.tobytes()


@pytest.mark.parametrize("tail", ["", " \n"])  # numpy's parse, the line reader's
def test_reader_takes_a_utf8_byte_order_mark(tmp_path, capsys, tail):
    # spreadsheet "CSV UTF-8" exports start with one
    cfg = generate("octa", [(3, 1)])
    buf = io.StringIO()
    write_config_csv(cfg.points, buf)
    plain = config_file(tmp_path, buf.getvalue())
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + (buf.getvalue() + tail).encode())
    assert read_config_csv(str(bom)).tobytes() == read_config_csv(plain).tobytes()
    assert run_cli("metrics", "--in", str(bom)) == 0
    assert "n=54" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["metrics", "export"])
def test_a_file_that_is_not_utf8_names_its_bad_line(tmp_path, capsys, command):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"0,0,1\n\xff\xfe,0,0\n")
    assert run_cli(command, "--in", str(path)) == 2
    assert f"{path}:2: non-numeric field" in capsys.readouterr().err


def test_reader_parses_like_float_bit_for_bit(tmp_path):
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((40, 3))
    lines = [
        "-0.0,0,1", "0,-0.0,-1", "5e-324,0,1", "0,-5e-324,1",
        f"{1 - 2**-53!r},0,0", f"0,0,{-(1 - 2**-53)!r}",
    ] + ["%.17g,%.17g,%.17g" % tuple(r / np.linalg.norm(r)) for r in rows]
    path = config_file(tmp_path, "\n".join(lines) + "\n")
    expected = np.array([[float(x) for x in line.split(",")] for line in lines])
    assert read_config_csv(path).tobytes() == expected.tobytes()


# N = 2 + 10 * 3 * 16^9, about 2.1e12 points; never generated
OVERSIZED = "1,1;(4,0)^9"


@pytest.fixture
def no_allocation(monkeypatch):
    """Fail the test if a generate call gets past its guard."""
    def refuse(name):
        raise AssertionError("generate went on to build the base mesh")

    monkeypatch.setattr(meshgen, "base_polyhedron", refuse)


def test_generate_refuses_a_sequence_beyond_physical_memory(no_allocation, capsys):
    pairs = spheregrid.parse_sequence(OVERSIZED)
    with pytest.raises(ParameterError, match="GiB of physical memory"):
        generate("icosa", pairs)
    assert run_cli("generate", "--seq", OVERSIZED) == 2
    assert run_cli("metrics", "--seq", OVERSIZED) == 2
    n = expected_cardinality("icosa", pairs)
    assert capsys.readouterr().err.count(f"error: N={n} points need about") == 2


@pytest.mark.parametrize(
    "seq,n,gib,ids",
    [("(4,0)^300", "1.72e+362", "7.84e+355", "1.03e+363"),
     ("(4,0)^4000", "3.02e+4817", "1.38e+4811", "1.81e+4818")],
)
def test_an_n_no_float_or_str_holds_is_refused_with_exit_2(
        no_allocation, monkeypatch, capsys, seq, n, gib, ids):
    # N = 2 + 10 * 16^k overflows a float from k = 256 on, and passes
    # Python's 4,300 digits of an int's str at k = 4,000
    for command in ("generate", "metrics"):
        assert run_cli(command, "--seq", seq) == 2
    assert capsys.readouterr().err.count(f"error: N={n} points need about {gib} GiB") == 2
    # memory enough, so only the index range refuses
    figures = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 10**5000}
    monkeypatch.setattr(os, "sysconf", figures.__getitem__)
    for command in ("generate", "metrics"):
        assert run_cli(command, "--seq", seq) == 2
    assert capsys.readouterr().err.count(f"error: N={n} points have {ids} half-edge ids") == 2


def test_a_million_pair_sequence_is_refused_at_once(no_allocation, capsys):
    # one power 16^1000000 for the run, not a million big-int products
    for command in ("generate", "metrics"):
        assert run_cli(command, "--seq", "(4,0)^1000000") == 2
    message = "error: N=9.61e+1204120 points need about 4.38e+1204114 GiB"
    assert capsys.readouterr().err.count(message) == 2


def test_sweep_turns_an_oversized_instance_into_an_error_row(no_allocation, capsys):
    rows = run_sweep("icosa", "1,1;(4,0)^l", 9, 9, n_cap=10**13)
    assert [(r["l"], r["N"], r["mesh_ratio"]) for r in rows] == [(9, "", "")]
    assert "physical memory" in capsys.readouterr().err


def test_generate_refuses_what_the_memory_figure_cannot_hold(monkeypatch):
    figures = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 48}  # 192 KiB
    monkeypatch.setattr(os, "sysconf", figures.__getitem__)
    # 482 points at 489 B a point need 235,698 B
    with pytest.raises(ParameterError, match=r"N=482 .* 0\.00022 GiB, .* 0\.000183 GiB"):
        generate("icosa", [(1, 1), (4, 0)])


def test_subdivide_mesh_refuses_an_oversized_pass_before_it_lays_the_lattice(monkeypatch):
    def tripwire(m, n):
        raise AssertionError("subdivide_mesh went on to lay the lattice")

    figures = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16}  # 64 KiB
    monkeypatch.setattr(os, "sysconf", figures.__getitem__)
    monkeypatch.setattr(meshgen, "lattice_points", tripwire)
    # 162 points at 489 B a point need 79,218 B
    message = "N=162 points need about 7.38e-05 GiB, more than the 6.1e-05 GiB"
    for build in (lambda: generate("icosa", [(4, 0)]),
                  lambda: subdivide_mesh(base_polyhedron("icosa"), (4, 0))):
        with pytest.raises(ParameterError, match=message):
            build()
    figures["SC_PHYS_PAGES"] = 2**38  # 1 PiB, so only the index range refuses
    message = "N=357941770 points have 2147650608 half-edge ids; int32 holds 2"
    for build in (lambda: generate("tetra", [(13378, 0)]),
                  lambda: subdivide_mesh(base_polyhedron("tetra"), (13378, 0))):
        with pytest.raises(ParameterError, match=message):
            build()


def test_generate_refuses_more_points_than_int32_indices_allow(
        no_allocation, monkeypatch, capsys):
    # 1 PiB of memory, so only the index range refuses: a pass's 6 N - 12
    # half-edge ids are int32, so N <= 357,913,943; tetra (m,0) has
    # N = 2 m^2 + 2, 357,888,260 at m = 13,377 and 357,941,770 at 13,378
    figures = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**38}
    monkeypatch.setattr(os, "sysconf", figures.__getitem__)
    assert run_cli("generate", "--base", "tetra", "--seq", "13378,0") == 2
    assert "error: N=357941770 points have 2147650608 half-edge ids" in capsys.readouterr().err
    rows = run_sweep("tetra", "l,0", 13378, 13378, n_cap=10**9)
    assert [(r["l"], r["N"], r["mesh_ratio"]) for r in rows] == [(13378, "", "")]
    assert "int32 holds 2^31" in capsys.readouterr().err
    with pytest.raises(AssertionError, match="went on to build the base mesh"):
        generate("tetra", [(13377, 0)])
