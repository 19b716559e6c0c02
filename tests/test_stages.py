"""Smoke test of ``bench/stages.py`` on its smallest configuration (N = 7,682)."""

import json
import subprocess
import sys
from pathlib import Path

from util import child_env

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "stages.py"


def test_stage_benchmark_runs_and_checks_the_smallest_configuration(tmp_path):
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--config", "icosa 1,1;(4,0)^2", "--out", str(out)],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text())
    [run] = record["runs"]
    assert record["correct"] and run["correct"] and run["n"] == 7_682
    assert run["generate_s"] > 0.0 and run["rss_evaluate_mib"] >= run["rss_generate_mib"] > 0.0
    # three certified passes, each with its certificate nested under it, and no qhull
    assert [p["pair"] for p in run["passes"]] == [[1, 1], [4, 0], [4, 0]]
    assert run["qhull"] == {}
    for k in range(3):
        assert run["stages"][f"generate/subdivide_mesh[{k}]/_is_hull/_half_edges"]["calls"] == 1
    assert run["stages"]["evaluate/_face_scan"]["calls"] == 1
    [tree] = record["trees"].values()
    assert tree["src_lines"] > 0 and len(tree["src_sha256"]) == 64
    assert record["machine"]["thread_pins"]["OPENBLAS_NUM_THREADS"] == "1"
