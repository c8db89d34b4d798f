import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from rigiditylab import cli
from rigiditylab.flex import polyhedron_from_config
from rigiditylab.models import OCTAHEDRON_FACES, make_bricard_type1, save_off
from rigiditylab.surfaces import SimplicialSurface

from oracles import PROJECTIVE_PLANE_FACES, relabeled_faces, subdivided_faces

SINGLE_TRIANGLE_OFF = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
# Octahedron whose vertex 2 lies on the segment between vertices 0 and 1,
# so face (0, 1, 2) is flat although the surface is combinatorially closed.
FLAT_FACE_OCTAHEDRON_OFF = (
    "OFF\n6 8 0\n"
    "1 0 0\n0 1 0\n0.5 0.5 0\n0 0 -1\n0 -1 0\n-1 0 0\n"
    "3 0 1 2\n3 0 2 4\n3 0 4 3\n3 0 3 1\n"
    "3 5 2 1\n3 5 4 2\n3 5 3 4\n3 5 1 3\n"
)


def off_text(faces) -> str:
    """An OFF file for ``faces``; the checks it feeds never read the points."""
    n = 1 + max(v for f in faces for v in f)
    points = (f"{v} {v * v} {v ** 3}" for v in range(n))
    triangles = (f"3 {a} {b} {c}" for a, b, c in faces)
    return "\n".join(["OFF", f"{n} {len(faces)} 0", *points, *triangles]) + "\n"


INVALID_SURFACES = {
    "single-triangle": ([(0, 1, 2)], {"iv"}),
    "flipped-face": ([(2, 1, 0), *OCTAHEDRON_FACES[1:]], {"orientation"}),
    "duplicate-face": ([*OCTAHEDRON_FACES, (2, 1, 0)], {"ii", "iv"}),
    "projective-plane": (PROJECTIVE_PLANE_FACES, {"orientation"}),
    "pinched-sphere": (relabeled_faces(subdivided_faces(OCTAHEDRON_FACES), {5: 0}), {"vi"}),
}


def run_cli(*args, env_extra=None):
    env = dict(os.environ, RIGIDITYLAB_LOG="error")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "rigiditylab.cli", *args],
        capture_output=True,
        env=env,
    )


def test_validate_builtin_model():
    proc = run_cli("validate", "--model", "octahedron")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["passed"] is True


def test_validate_builds_one_surface(monkeypatch, capsys):
    """validate checks the surface the model was built as: no second surface,
    and its plain per-edge status, not the wing table's arrays."""
    built, init = [], SimplicialSurface.__init__

    def counted(self, faces):
        built.append(self)
        init(self, faces)

    monkeypatch.setattr(SimplicialSurface, "__init__", counted)
    assert cli.main(["validate", "--model", "octahedron"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert len(built) == 1 and "edge_status" in vars(built[0])
    assert "wing_table" not in vars(built[0])


def test_validate_boundary_edges_exit_1(tmp_path):
    bad = tmp_path / "bad.off"
    bad.write_text(SINGLE_TRIANGLE_OFF)
    proc = run_cli("validate", "--input", str(bad))
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert not report["passed"]
    assert {v["condition"] for v in report["violations"]} == {"iv"}


def test_validate_parse_error_exit_2(tmp_path):
    bad = tmp_path / "broken.off"
    bad.write_text("definitely not an OFF file\n")
    proc = run_cli("validate", "--input", str(bad))
    assert proc.returncode == 2
    assert b"ParseError" in proc.stderr


@pytest.mark.parametrize("command", ["validate", "analyze", "flex", "oracle"])
@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_coordinate_exit_2(tmp_path, command, token):
    off = tmp_path / "non-finite.off"
    off.write_text("\n".join(["OFF", "6 8 0", f"{token} 0 0", "0 1 0", "0 0 1", "0 0 -1",
                              "0 -1 0", "-1 0 0",
                              *(f"3 {a} {b} {c}" for a, b, c in OCTAHEDRON_FACES)]) + "\n")
    proc = run_cli(command, "--input", str(off))
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode().splitlines() == [
        f"error: ParseError: line 3: non-finite coordinate in '{token} 0 0'"
    ]


def test_flex_with_overflowing_edge_bounds_exit_2(tmp_path):
    """The default Bricard octahedron scaled by 2^255 has its longest edge,
    (1, 2), beyond 2^256, where the tracer's bounds in the fourth power of
    that length overflow: a typed error, not a traceback."""
    P = make_bricard_type1()
    off = tmp_path / "huge.off"
    off.write_text(save_off(polyhedron_from_config(P.surface, P.vertex_array() * 2.0**255)))
    proc = run_cli("flex", "--input", str(off), "--mode", "numeric")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert re.fullmatch(r"error: ValueError: longest edge \(1, 2\) has length 2\.29\d+e\+77; "
                        r"[^\n]*2\*\*256[^\n]*\n", proc.stderr.decode())


def test_flex_with_overflowing_tol_exit_2():
    """A finite tol whose square overflows is refused before any bound is
    formed from it: a typed error, not an OverflowError traceback."""
    proc = run_cli("flex", "--model", "bricard-default", "--tol", "1e200", "--steps", "5")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert re.fullmatch(r"error: ValueError: tol is 1e\+200; [^\n]*2\*\*512[^\n]*\n",
                        proc.stderr.decode())


def test_overflowing_squared_lengths_exit_2(tmp_path):
    """Coordinates near 1e300 are finite, and validate passes them, but
    their squared edge lengths overflow: the certificate names the first
    such edge, in either mode, with no numpy warning before it."""
    P = make_bricard_type1()
    off = tmp_path / "huge.off"
    off.write_text(save_off(polyhedron_from_config(P.surface, P.vertex_array() * 1e300)))
    assert run_cli("validate", "--input", str(off)).returncode == 0
    for command in ("analyze", "flex"):
        proc = run_cli(command, "--input", str(off), "--mode", "numeric")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.decode() == (
            "error: ValueError: edge (0, 1) has squared length inf, which is not finite\n"
        )


@pytest.mark.parametrize("scale", [1e300, 2.0**256, 2.0**255], ids=["1e300", "2^256", "2^255"])
def test_oracle_with_overflowing_frames_exit_2(tmp_path, scale):
    """validate passes the scaled default Bricard octahedron, but its edge
    vectors or face normals overflow: the oracle names the first such edge
    in one line instead of printing every angle as a fold."""
    P = make_bricard_type1()
    off = tmp_path / "huge.off"
    off.write_text(save_off(polyhedron_from_config(P.surface, P.vertex_array() * scale)))
    assert run_cli("validate", "--input", str(off)).returncode == 0
    proc = run_cli("oracle", "--input", str(off), "--samples", "1000")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert re.fullmatch(r"error: ValueError: edge \(\d+, \d+\) [^\n]* not finite\n",
                        proc.stderr.decode())


@pytest.mark.parametrize("command", ["validate", "analyze", "flex", "oracle"])
@pytest.mark.parametrize("name", sorted(INVALID_SURFACES))
def test_invalid_surface_exit_1_with_report(tmp_path, command, name):
    faces, conditions = INVALID_SURFACES[name]
    off = tmp_path / f"{name}.off"
    off.write_text(off_text(faces))
    proc = run_cli(command, "--input", str(off))
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    report = json.loads(proc.stdout if command == "validate" else proc.stderr)
    assert report["passed"] is False
    assert {v["condition"] for v in report["violations"]} == conditions


def test_pinch_verdict_does_not_depend_on_assert(tmp_path):
    off = tmp_path / "pinched-sphere.off"
    off.write_text(off_text(INVALID_SURFACES["pinched-sphere"][0]))
    plain = run_cli("validate", "--input", str(off))
    optimized = subprocess.run(
        [sys.executable, "-O", "-m", "rigiditylab.cli", "validate", "--input", str(off)],
        capture_output=True,
    )
    assert plain.returncode == optimized.returncode == 1
    assert optimized.stdout == plain.stdout
    assert json.loads(plain.stdout)["violations"] == [{"condition": "vi", "simplices": [0]}]


def test_missing_input_exit_2():
    proc = run_cli("validate", "--input", "/nonexistent/file.off")
    assert proc.returncode == 2


def test_analyze_bricard_exact():
    proc = run_cli("analyze", "--model", "bricard-default", "--mode", "exact")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["verdict"] == "inconclusive"
    assert len(report["combinations"]) == 6
    assert report["relations"]


def test_analyze_distinct_octahedron_rigid():
    proc = run_cli("analyze", "--model", "octahedron-distinct")
    report = json.loads(proc.stdout)
    assert report["verdict"] == "rigid"
    assert len(report["constant_angle_edges"]) == 12


def test_analyze_numeric_mode():
    proc = run_cli("analyze", "--model", "octahedron-distinct", "--mode", "numeric")
    report = json.loads(proc.stdout)
    assert report["verdict"] == "rigid_presumed"
    assert report["height"] == 10**6


def test_flex_writes_series_and_report(tmp_path):
    out_csv = tmp_path / "series.csv"
    out_json = tmp_path / "report.json"
    proc = run_cli(
        "flex", "--model", "bricard-default", "--steps", "15", "--step", "0.01",
        "--out-csv", str(out_csv), "--out-json", str(out_json),
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report == json.loads(out_json.read_text())
    assert all(c["max_deviation"] is not None for c in report["combinations"])
    lines = out_csv.read_text().strip().split("\n")
    assert len(lines) == 2 + 16  # comment, header, 15 steps + initial sample


def test_flex_info_log_reports_corrector_iterations(tmp_path):
    """RIGIDITYLAB_LOG=info adds one stderr line with the mean corrector
    iterations per step and the rejected attempts; stdout and the written
    files keep their bytes."""
    outputs = {}
    for level in ("error", "info"):
        out_json, out_csv = tmp_path / f"{level}.json", tmp_path / f"{level}.csv"
        proc = run_cli("flex", "--model", "bricard-default", "--steps", "60",
                       "--out-json", str(out_json), "--out-csv", str(out_csv),
                       env_extra={"RIGIDITYLAB_LOG": level})
        assert proc.returncode == 0
        outputs[level] = (proc.stdout, out_json.read_bytes(), out_csv.read_bytes(), proc.stderr)
    assert outputs["info"][:3] == outputs["error"][:3]
    assert outputs["error"][3] == b""
    assert re.fullmatch(
        r"INFO rigiditylab: traced 61 samples, max length drift \d\.\d{3}e-\d\d, "
        r"mean corrector iterations 1\.0000, rejected attempts 0\n",
        outputs["info"][3].decode(),
    )


def test_flex_rigid_model_exit_2():
    proc = run_cli("flex", "--model", "octahedron", "--steps", "5")
    assert proc.returncode == 2
    assert b"SingularPoint" in proc.stderr


def test_oracle_output():
    proc = run_cli("oracle", "--model", "tetrahedron", "--samples", "20000")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert len(report["edges"]) == 6
    for row in report["edges"]:
        assert row["abs_difference"] < 0.1


def test_reproducible_outputs(tmp_path):
    for args in (["oracle", "--model", "cube", "--samples", "5000", "--seed", "9"],
                 ["flex", "--model", "bricard-default", "--steps", "8"]):
        runs = [run_cli(*args) for _ in range(2)]
        for proc in runs:
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout
        assert runs[0].stdout == runs[1].stdout


def test_unknown_flag_rejected():
    proc = run_cli("oracle", "--model", "cube", "--frobnicate")
    assert proc.returncode != 0


def test_model_and_input_mutually_exclusive(tmp_path):
    proc = run_cli("validate")
    assert proc.returncode == 2
    off = tmp_path / "triangle.off"
    off.write_text(SINGLE_TRIANGLE_OFF)
    proc = run_cli("validate", "--model", "cube", "--input", str(off))
    assert proc.returncode == 2
    assert b"not allowed with argument" in proc.stderr


def test_help_lists_flags():
    for sub, flags in [
        ("analyze", ["--model", "--input", "--mode", "--height", "--out-json"]),
        ("flex", ["--steps", "--step", "--tol", "--out-csv"]),
        ("oracle", ["--samples", "--seed"]),
    ]:
        proc = run_cli(sub, "--help")
        assert proc.returncode == 0
        for flag in flags:
            assert flag.encode() in proc.stdout


def test_oracle_flat_face_exit_2(tmp_path):
    flat = tmp_path / "flat.off"
    flat.write_text(FLAT_FACE_OCTAHEDRON_OFF)
    proc = run_cli("oracle", "--input", str(flat), "--samples", "100")
    assert proc.returncode == 2
    assert proc.stderr.decode().splitlines()[-1] == (
        "error: DegenerateFaceError: face (0, 1, 2) has area 0.000e+00"
    )
    assert b"Traceback" not in proc.stderr


# Six points within 1e-13 of the x axis on the octahedron's faces: every
# face check passes, but the rotation about that axis vanishes.
NEAR_COLLINEAR_POINTS = ("0 0 0", "0.1 1e-13 0", "0.2 0 1e-13", "0.3 -1e-13 0",
                         "0.4 0 -1e-13", "0.5 1e-13 1e-13")


def test_numeric_flex_near_collinear_exit_2(tmp_path):
    off = tmp_path / "collinear.off"
    off.write_text("\n".join(["OFF", "6 8 0", *NEAR_COLLINEAR_POINTS,
                              *(f"3 {a} {b} {c}" for a, b, c in OCTAHEDRON_FACES)]) + "\n")
    proc = run_cli("flex", "--input", str(off), "--mode", "numeric", "--steps", "3")
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.decode().splitlines()[-1] == (
        "error: DegenerateConfigurationError: vertices are collinear"
    )


@pytest.mark.parametrize(
    "args",
    [
        ["validate", "--model", "cube", "--out-json", "{missing}/x.json"],
        ["flex", "--model", "bricard-default", "--steps", "3", "--out-csv", "{missing}/x.csv"],
    ],
    ids=["validate-json", "flex-csv"],
)
def test_output_in_missing_directory_exit_2(tmp_path, args):
    missing = tmp_path / "missing"
    proc = run_cli(*(a.format(missing=missing) for a in args))
    assert proc.returncode == 2
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: FileNotFoundError: ")


def test_import_loads_no_test_dependency():
    """``import rigiditylab.cli`` loads none of the packages of the ``test``
    extra in pyproject.toml."""
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    names = sorted(re.match(r"[A-Za-z0-9_.-]+", spec)[0].lower() for spec in extra)
    assert {"scipy", "mpmath"} <= set(names)
    code = (
        f"import sys, rigiditylab.cli; names = {names!r}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in names))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True)
    assert proc.stdout.decode().strip() == "[]"


@pytest.mark.parametrize(
    "args, message",
    [
        (["oracle", "--model", "octahedron", "--samples", "0"], "n_samples=0"),
        (["flex", "--model", "bricard-default", "--steps", "-1"], "n_steps must be nonnegative"),
        (["oracle", "--model", "octahedron", "--samples", "-5"], "n_samples=-5"),
        (["flex", "--model", "bricard-default", "--step", "0"], "step must be positive"),
        (["flex", "--model", "bricard-default", "--step", "-0.01"], "step must be positive"),
        (["analyze", "--model", "octahedron", "--mode", "numeric", "--height", "0"],
         "height must be at least 1"),
    ],
)
def test_meaningless_counts_exit_2(args, message):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: ValueError: ")
    assert message.encode() in proc.stderr


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_meaningless_tol_exit_2(tol):
    """A tolerance no residual can meet is refused up front, not reported as
    a step size underflow after the corrector has failed at every step."""
    proc = run_cli("flex", "--model", "bricard-default", "--steps", "20", f"--tol={tol}")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode() == (
        f"error: ValueError: tol must be positive and finite, got {float(tol)}\n"
    )


# Runs one command through cli.main in a fresh interpreter in which every
# import of mpmath fails.
NO_MPMATH_PROBE = (
    "import sys\n"
    "sys.modules['mpmath'] = None\n"
    "from rigiditylab.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize(
    "args",
    [
        ["validate", "--model", "cube"],
        ["analyze", "--model", "bricard-default", "--mode", "exact"],
        ["flex", "--model", "bricard-default", "--steps", "5"],
        ["oracle", "--model", "octahedron", "--samples", "100"],
        ["analyze", "--model", "bricard-default", "--mode", "numeric"],
        ["flex", "--model", "bricard-default", "--steps", "5", "--mode", "numeric"],
    ],
)
def test_no_subcommand_needs_mpmath(args):
    proc = subprocess.run(
        [sys.executable, "-c", NO_MPMATH_PROBE, *args],
        capture_output=True,
        env=dict(os.environ, RIGIDITYLAB_LOG="error"),
    )
    assert proc.returncode == 0
    assert proc.stderr == b""


def test_numeric_analyze_golden_in_fresh_process():
    golden = Path(__file__).parent / "golden" / "analyze-numeric-bricard-default.stdout"
    proc = run_cli("analyze", "--model", "bricard-default", "--mode", "numeric")
    assert proc.returncode == 0
    assert proc.stdout == golden.read_bytes()


# Reaps the command given as its arguments with os.wait4 and prints the exit
# code and peak RSS.  A process's ru_maxrss counts the image it was forked
# from, so the command starts from this small interpreter: started from the
# test process, every command would peak at least at the test process's size.
RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_kb(*args) -> int:
    """Peak RSS of a fresh command-line process on one BLAS thread."""
    threads = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, RIGIDITYLAB_LOG="error", **threads)
    launched = subprocess.run(
        [sys.executable, "-c", RSS_LAUNCHER, sys.executable, "-m", "rigiditylab.cli", *args],
        capture_output=True, text=True, env=env, check=True,
    )
    code, kb = map(int, launched.stdout.split())
    assert code == 0
    return kb


def test_oracle_memory_does_not_grow_with_samples():
    """Directions are drawn one block at a time, so a million samples peak
    at about the resident size of a single one."""
    def peak(samples):
        return _peak_rss_kb("oracle", "--model", "octahedron", "--samples", str(samples))

    assert peak(10**6) - peak(1) <= 4 * 1024


def test_flex_memory_grows_only_with_the_path(tmp_path):
    """Every whole-path stage runs in blocks and the series goes to its file
    block by block, so 3000 steps peak within 5 MB of 60 steps, which fit in
    one block."""
    def peak(steps):
        return _peak_rss_kb("flex", "--model", "bricard-default", "--steps", str(steps),
                            "--out-csv", str(tmp_path / "series.csv"))

    assert peak(3000) - peak(60) <= 5 * 1024
