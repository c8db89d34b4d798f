"""Byte-for-byte guard on the command-line outputs.

Each case runs ``rigiditylab.cli.main`` in process and compares its exit
code, its stdout and every file it writes with the files under
``tests/golden/``: ``<case>.stdout`` holds stdout, ``<case>.json`` and
``<case>.csv`` the ``--out-json`` and ``--out-csv`` files.

The golden files pin the output of the program as it stands.  Regenerating
them, with ``PYTHONPATH=src python tests/test_golden.py``, is a declared
re-baseline of that output: a change that does it says so in CHANGES.md,
with the reason the bytes moved.

A case may also read an input file from ``tests/golden/``: ``<case>.off``
is a fixed OFF mesh, written once from a seeded spec and never regenerated.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from rigiditylab.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
OUT_FILES = {"--out-json": ".json", "--out-csv": ".csv"}

# case name -> (argv, output-file flags)
CASES = {
    "validate-cube": (["validate", "--model", "cube"], ()),
    "analyze-exact-octahedron-distinct": (
        ["analyze", "--model", "octahedron-distinct", "--mode", "exact"], ()
    ),
    "analyze-numeric-octahedron-distinct": (
        ["analyze", "--model", "octahedron-distinct", "--mode", "numeric"], ()
    ),
    "analyze-exact-bricard-default": (
        ["analyze", "--model", "bricard-default", "--mode", "exact"], ()
    ),
    "analyze-numeric-bricard-default": (
        ["analyze", "--model", "bricard-default", "--mode", "numeric"], ()
    ),
    "flex-bricard-default": (
        ["flex", "--model", "bricard-default", "--steps", "60"],
        ("--out-json", "--out-csv"),
    ),
    # 601 samples: two full blocks of 256 configurations and a partial third.
    "flex-bricard-default-600": (
        ["flex", "--model", "bricard-default", "--steps", "600"],
        ("--out-json", "--out-csv"),
    ),
    "oracle-octahedron":(["oracle", "--model", "octahedron", "--samples", "2000"], ()),
    # A Bricard octahedron from perfbench.inputs.bricard_spec(random.Random(2026)),
    # as the benchmark's command-line workload flexes it: numeric mode, OFF input.
    "flex-numeric-bricard-off": (
        ["flex", "--input", str(GOLDEN / "flex-numeric-bricard-off.off"),
         "--mode", "numeric", "--steps", "60"],
        ("--out-json", "--out-csv"),
    ),
    # An octahedron from perfbench.inputs.rational_octahedron(random.Random(2026)),
    # sampled in three blocks.
    "oracle-octahedron-off": (
        ["oracle", "--input", str(GOLDEN / "oracle-octahedron-off.off"),
         "--samples", "20000"],
        ("--out-json",),
    ),
    # 30001 directions: three full blocks and a partial fourth.
    "oracle-cube": (
        ["oracle", "--model", "cube", "--samples", "30001"],
        ("--out-json",),
    ),
}


def _invoke(case: str, out_dir: Path) -> tuple[int, dict[str, bytes]]:
    """Run one case; returns the exit code and the written files by golden name."""
    argv, flags = CASES[case]
    paths = {}
    for flag in flags:
        suffix = OUT_FILES[flag]
        paths[f"{case}{suffix}"] = out_dir / f"out{suffix}"
        argv = argv + [flag, str(out_dir / f"out{suffix}")]
    code = main(argv)
    return code, {name: path.read_bytes() for name, path in paths.items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, capsys, tmp_path):
    code, files = _invoke(case, tmp_path)
    files[f"{case}.stdout"] = capsys.readouterr().out.encode("utf-8")
    assert code == EXIT_OK
    for name, data in files.items():
        assert data == (GOLDEN / name).read_bytes(), f"{name} differs from its golden file"


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        stdout = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(stdout):
            code, files = _invoke(case, Path(tmp))
        if code != EXIT_OK:
            sys.exit(f"{case}: exit code {code}")
        files[f"{case}.stdout"] = stdout.getvalue().encode("utf-8")
        for name, data in files.items():
            (GOLDEN / name).write_bytes(data)


if __name__ == "__main__":
    regenerate()
