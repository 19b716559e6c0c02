"""Export formats: CSV point lists, OBJ hull meshes, JSON metadata.

CSV files carry one x,y,z line per point at 17 significant digits, which
round-trips float64 exactly: re-importing an exported configuration gives
bit-identical metrics.  OBJ files carry the hull triangulation and open
directly in any mesh viewer.  A JSON sidecar records provenance next to
every file export.

Run:  python demos/export_formats.py
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from spheregrid import evaluate, generate
from spheregrid.cli import main, read_config_csv

with tempfile.TemporaryDirectory(prefix="spheregrid-demo-") as tmp:
    workdir = Path(tmp)
    csv_path = workdir / "config.csv"
    obj_path = workdir / "config.obj"

    main(["generate", "--base", "icosa", "--seq", "1,1;4,0", "--out", str(csv_path)])
    main(["export", "--in", str(csv_path), "--format", "obj", "--out", str(obj_path)])

    print()
    print(f"files in {workdir}:")
    for p in sorted(workdir.iterdir()):
        print(f"  {p.name:18s} {p.stat().st_size:8d} bytes")

    sidecar = json.loads((workdir / "config.csv.json").read_text())
    print()
    print("sidecar metadata:", sidecar)

    pts = read_config_csv(str(csv_path))
    head = obj_path.read_text().splitlines()

cfg = generate("icosa", [(1, 1), (4, 0)])
assert np.array_equal(pts, cfg.points)
print()
print("re-imported configuration is bit-identical to the generated one")

a, b = evaluate(pts), evaluate(cfg)
assert (a.separation, a.covering, a.mesh_ratio) == (b.separation, b.covering, b.mesh_ratio)
print(f"metrics from file match exactly: mesh ratio {a.mesh_ratio:.9f}")

print()
print("OBJ head:", head[0], "|", head[482], f"| {len(head)} lines total")
