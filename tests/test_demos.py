"""Every demo script runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # bricard_flex.py writes its CSV to the working directory.
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
