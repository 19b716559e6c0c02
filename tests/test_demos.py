"""Every script in ``demos/`` runs to completion against this package."""

import subprocess
import sys
from pathlib import Path

import pytest

from util import child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # quality_sweep.py runs its short sweep, without --full; the demo's
    # working and temporary directories are both tmp_path, left empty
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True,
        cwd=tmp_path, env=dict(child_env(), TMPDIR=str(tmp_path)),
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
