import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spheregrid
import spheregrid.meshgen as meshgen
import spheregrid.cli as cli
from spheregrid import ConsistencyError, GeometryError, expected_cardinality, generate
from spheregrid.cli import main, read_config_csv, run_sweep, write_config_csv, write_obj
from oracle import spiral_points


def run_cli(*args):
    return main(list(args))


def run_module(*args):
    """``python -m spheregrid.cli`` in a child that imports this same package."""
    src = str(Path(spheregrid.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "spheregrid.cli", *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )


def test_generate_csv_line_count(tmp_path, capsys):
    out = tmp_path / "cfg.csv"
    assert run_cli("generate", "--base", "icosa", "--seq", "5,0", "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 252
    assert "N=252" in capsys.readouterr().out
    sidecar = json.loads((tmp_path / "cfg.csv.json").read_text())
    assert sidecar["n"] == 252 and sidecar["base"] == "icosahedron"


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


def test_obj_output_builds_one_hull_per_pass(tmp_path, monkeypatch, capsys):
    calls = []
    real = meshgen.ConvexHull

    def counting(points):
        calls.append(len(points))
        return real(points)

    monkeypatch.setattr(meshgen, "ConvexHull", counting)
    cfg_path = tmp_path / "cfg.csv"
    # both passes come with their certified lattice meshes, so generate
    # needs no qhull; export reads points only and builds one hull
    assert run_cli("generate", "--seq", "1,1;2,0", "--out", str(cfg_path)) == 0
    assert calls == []
    assert run_cli("generate", "--seq", "1,1;2,0", "--format", "obj",
                   "--out", str(tmp_path / "gen.obj")) == 0
    assert calls == []
    assert run_cli("export", "--in", str(cfg_path), "--format", "obj",
                   "--out", str(tmp_path / "exp.obj")) == 0
    assert calls == [122]
    assert (tmp_path / "gen.obj").read_bytes() == (tmp_path / "exp.obj").read_bytes()


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


def test_sweep_lets_a_program_error_through(monkeypatch):
    monkeypatch.setattr(cli, "generate", raising(TypeError))
    with pytest.raises(TypeError, match="injected"):
        run_sweep("icosa", "l,0", 2, 2, jobs=1)


def test_predicted_cardinality_matches_generate():
    assert expected_cardinality("icosa", [(1, 1), (4, 0)]) == 482
    assert generate("icosa", [(1, 1), (4, 0)]).n == 482
