"""Smoke test of the benchmark on tiny inputs.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402

import spheregrid as sg  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def case(pairs):
    report = sg.evaluate(sg.generate("icosa", pairs))
    ref = {k: getattr(report, k) for k in ("separation", "covering", "mesh_ratio")}
    return {"pairs": pairs, "ref": ref}


SPECS = {
    "generate": {"kind": "generate", "base": "icosa",
                 "cases": [case([(1, 1), (2, 0)]), case([(3, 1)])]},
    "metrics-in": {"kind": "metrics-in", "base": "icosa", "input_seed": 7,
                   "cases": [case([(1, 1), (2, 0)])]},
}


def emitted(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("kind", sorted(SPECS))
@pytest.mark.parametrize("trace, table", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(kind, trace, table):
    _, result = run.measure(SPECS[kind], kind, 0.2, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert emitted(result) == {m["name"]: m["unit"] for m in BENCHMARK[table]}
    if trace:
        assert result["metrics"]["trace.overhead"]["value"] > 0.0
    if trace and kind == "generate":
        assert 0.0 < result["metrics"]["spherical.max_residual"]["value"] <= 1e-12
        rest = result["metrics"]["meshgen.subdivide_rest_s"]["value"]
        assert 0.0 < rest < result["metrics"]["meshgen.subdivide_mesh_s"]["value"]


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_wrong_reference_counts_as_failure(kind):
    spec = json.loads(json.dumps(SPECS[kind]))
    for c in spec["cases"]:
        c["ref"]["covering"] *= 1.0 + 1e-6
    lines, result = run.measure(spec, kind, 0.2, 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert "fail_ratio = 1" in lines[0]
    assert any("covering" in line for line in lines)


def test_refuses_to_run_without_the_package():
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, *BENCHMARK["command"][1:], "--workload", "recursive-n0",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
