"""Every demo script, and the Quick start example of README.md, runs to
completion."""

import re
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


def test_readme_quick_start_runs_and_prints_what_it_says(tmp_path):
    """README's one python block runs, and each print prints the value its
    comment names: that value itself, or for ``~x`` a magnitude below 10x."""
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    proc = subprocess.run(
        [sys.executable, "-c", block], cwd=tmp_path, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    claims = re.findall(r"^print\(.*\)\s+#\s*(\S+)$", block, re.M)
    printed = proc.stdout.splitlines()
    assert len(printed) == len(claims) > 0
    for out, claim in zip(printed, claims):
        if claim.startswith("~"):
            assert abs(float(out)) < 10 * float(claim[1:]), (out, claim)
        else:
            assert out == claim.strip('"'), (out, claim)
