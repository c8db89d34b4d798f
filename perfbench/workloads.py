"""The three closed-loop workloads: one client, one operation at a time.

Each workload builds its inputs from the seed, runs rounds of operations
until the measuring time is used up, and checks every operation's output.
Only the calls into the library are timed; the checks run between them.

- ``flex-cycle``: full-cycle flexes of Bricard octahedra, the first one the
  default spec, through trace, analysis, monitoring and both renderings.
- ``certify``: rational octahedra, triangulated cubes and Bricard
  octahedra, each validated, certified in exact and numeric mode, analyzed
  and rendered.  The flex tracer is never called.
- ``cli``: every subcommand run as a fresh process, on built-in models and
  on seeded OFF files, so interpreter start and import dominate.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from rigiditylab import (
    DEFAULT_BRICARD_SPEC,
    DEPENDENT,
    RIGID_PRESUMED,
    half_turn_edge_pairs,
    initial_principal_angles,
    invariant_combinations,
    is_trivial_flex,
    make_bricard_type1,
    make_distinct_length_octahedron,
    make_model,
    monitor_flex,
    q_basis,
    rigidity_certificate,
    save_off,
    save_report_json,
    save_series_csv,
    trace_flex,
    validate_complex,
)
from rigiditylab.lengths import relation_residual_exact

import calibrate
import inputs
from spans import NullTracer

STEP = 0.01
# The default spec's flex closes within 1.1e-4 of its start at sample 3252.
FULL_CYCLE_STEPS = 3300
CLOSURE_SAMPLE = 3252
CLOSURE_TOL = 1e-3
FLEX_TOL = 1e-9
CLI_TIMEOUT_S = 120


@dataclass
class Outcome:
    """One operation: its timed seconds, work done and failed checks."""

    input_id: str
    seconds: float
    work: int
    problems: list[str] = field(default_factory=list)
    overclaim: bool = False
    peak_rss_kb: int = 0
    relation_found: bool | None = None
    numeric_s: float | None = None
    ref_s: float | None = None


def overclaims(exact_cert, numeric_verdict, numeric_height) -> bool:
    """Numeric mode presumes rigidity up to height H although exact mode
    holds a relation of height at most H."""
    if numeric_verdict != RIGID_PRESUMED or exact_cert.evidence.kind != DEPENDENT:
        return False
    return max(abs(c) for c in exact_cert.evidence.relation) <= numeric_height


def exact_witness_problems(P, cert) -> list[str]:
    if cert.evidence.kind != DEPENDENT:
        return []
    if relation_residual_exact(P.exact_edge_lengths(), cert.evidence.relation):
        return []
    return [f"exact witness {cert.evidence.relation} does not annihilate the lengths"]


# ---------------------------------------------------------------------------
# Pipelines shared by the workloads and the traced replays
# ---------------------------------------------------------------------------


@dataclass
class FlexRun:
    valid: bool
    path: object
    combinations: list
    report_json: str
    series_csv: str


def flex_pipeline(P, steps: int, tracer) -> FlexRun:
    """What ``rigiditylab flex`` does, rendered in memory."""
    with tracer.span("surfaces.validate"):
        valid = validate_complex(P.surface.faces).passed
    with tracer.span("invariants.certificate_exact"):
        cert = rigidity_certificate(P, mode="exact")
    with tracer.span("flex.trace") as s:
        path = trace_flex(P.vertex_array(), P.surface, n_steps=steps, step=STEP)
        s.units = path.n_samples - 1
    with tracer.span("lengths.exact_lengths"):
        exact = P.exact_edge_lengths()
    with tracer.span("lengths.q_basis"):
        span = q_basis(exact)
    with tracer.span("invariants.combinations"):
        combinations = invariant_combinations(span, path.raw_angles[0])
    with tracer.span("invariants.monitor") as s:
        monitoring = monitor_flex(path, combinations, P)
        s.units = path.n_samples
    with tracer.span("models.report_json"):
        report = save_report_json(
            cert, combinations, monitoring=monitoring, edges=P.surface.edges
        )
    with tracer.span("models.series_csv") as s:
        csv = save_series_csv(path)
        s.units = path.n_samples
    return FlexRun(valid, path, combinations, report, csv)


def check_flex(run: FlexRun, closes: bool) -> list[str]:
    """Checks computed from the path's arrays, not from the library's own
    monitors: length drift, conserved combinations, non-triviality, the
    rendered report and series, and closure of a full default cycle."""
    problems = []
    path = run.path
    if not run.valid:
        problems.append("surface failed validation")
    idx = [(path.surface.vertex_index(a), path.surface.vertex_index(b))
           for a, b in path.surface.edges]
    i, j = np.array(idx).T
    lengths = np.linalg.norm(path.configs[:, i] - path.configs[:, j], axis=2)
    drift = float(np.max(np.abs(lengths / lengths[0] - 1.0)))
    if drift > FLEX_TOL:
        problems.append(f"relative length drift {drift:.3e}")
    for comb in run.combinations:
        series = path.lifted_angles @ np.asarray(comb.coeffs, dtype=float)
        dev = float(np.max(np.abs(series - comb.claimed_constant)))
        if dev > FLEX_TOL:
            problems.append(f"combination {comb.label} deviates by {dev:.3e}")
    if is_trivial_flex(path):
        problems.append("path is a rigid motion")
    report = json.loads(run.report_json)
    if len(report["combinations"]) != len(run.combinations) or any(
        c["max_deviation"] > FLEX_TOL for c in report["combinations"]
    ):
        problems.append("report JSON combinations disagree")
    rows = run.series_csv.splitlines()[2:]
    if len(rows) != path.n_samples or not all(
        math.isfinite(float(x)) for x in rows[-1].split(",")
    ):
        problems.append("series CSV rows are missing or not finite")
    if closes:
        x0 = path.configs[0]
        misfit = np.max(np.linalg.norm(path.configs - x0, axis=2), axis=1)
        back = float(np.min(misfit[CLOSURE_SAMPLE // 2:]))
        if back > CLOSURE_TOL:
            problems.append(f"default flex does not close (nearest {back:.3e})")
    return problems


@dataclass
class CertifyRun:
    valid: bool
    exact: object
    numeric: object
    reports: tuple[str, str]
    numeric_s: float


def certify_pipeline(P, tracer, clock=perf_counter) -> CertifyRun:
    """Validate, certify in both modes, analyze and render both reports."""
    with tracer.span("surfaces.validate"):
        valid = validate_complex(P.surface.faces).passed
    with tracer.span("invariants.certificate_exact"):
        exact = rigidity_certificate(P, mode="exact")
    with tracer.span("invariants.certificate_numeric"):
        t0 = clock()
        numeric = rigidity_certificate(P, mode="numeric")
        numeric_s = clock() - t0
    with tracer.span("lengths.exact_lengths"):
        lengths = P.exact_edge_lengths()
    with tracer.span("lengths.q_basis"):
        span = q_basis(lengths)
    with tracer.span("invariants.initial_angles"):
        angles = initial_principal_angles(P)
    with tracer.span("invariants.combinations"):
        combinations = invariant_combinations(span, angles)
    with tracer.span("models.report_json"):
        exact_json = save_report_json(exact, combinations, edges=P.surface.edges)
    with tracer.span("models.report_json"):
        numeric_json = save_report_json(numeric, [], edges=P.surface.edges)
    return CertifyRun(valid, exact, numeric, (exact_json, numeric_json), numeric_s)


def check_certify(P, run: CertifyRun) -> list[str]:
    problems = [] if run.valid else ["surface failed validation"]
    problems += exact_witness_problems(P, run.exact)
    for text, cert in zip(run.reports, (run.exact, run.numeric)):
        if json.loads(text)["verdict"] != cert.verdict:
            problems.append("report JSON verdict disagrees with the certificate")
    return problems


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class FlexCycle:
    """Round 0 traces the default spec, round i a seeded spec near it."""

    name = "flex-cycle"
    work_unit = "accepted flex steps"
    in_children = False

    def __init__(self, seed: int, steps: int, tracer, work_dir, log):
        self.rng = random.Random(seed)
        self.steps = steps
        self.tracer = tracer
        self.clock = log.clock
        self.first = [self._build(0), self._build(1)]
        self.last_path = None
        # Warms the prime sieve, as any first exact-length call does.
        q_basis(self.first[0][1].exact_edge_lengths())

    def _build(self, i):
        spec = DEFAULT_BRICARD_SPEC if i == 0 else inputs.bricard_spec(self.rng)
        with self.tracer.span("models.bricard_build", input_id=f"spec{i}"):
            return f"spec{i}", make_bricard_type1(spec)

    def round(self, i):
        return [self.first[i] if i < len(self.first) else self._build(i)]

    def run(self, item) -> Outcome:
        input_id, P = item
        with self.tracer.span("op", input_id=input_id):
            t0 = self.clock()
            try:
                run = flex_pipeline(P, self.steps, self.tracer)
            except Exception as exc:  # a typed library error fails this input only
                return Outcome(input_id, self.clock() - t0, 0,
                               [f"{type(exc).__name__}: {exc}"])
            seconds = self.clock() - t0
        self.last_path = run.path
        closes = input_id == "spec0" and self.steps >= FULL_CYCLE_STEPS
        return Outcome(input_id, seconds, run.path.n_samples - 1, check_flex(run, closes))

    def determinism(self, tracer_second):
        """The default spec over a short path, twice; JSON and CSV compared."""
        P = self.first[0][1]
        steps = min(self.steps, 150)
        runs, seconds = [], []
        for tracer in (NullTracer(), tracer_second):
            t0 = perf_counter()
            runs.append(flex_pipeline(P, steps, tracer))
            seconds.append(perf_counter() - t0)
        same = (runs[0].report_json, runs[0].series_csv) == (
            runs[1].report_json, runs[1].series_csv)
        return same, seconds

    def sample_polyhedra(self):
        return [P for _, P in self.first]

    def sample_path(self, tracer):
        if self.last_path is None:
            return flex_pipeline(self.first[0][1], min(self.steps, 100), tracer).path
        return self.last_path


class Certify:
    """Rounds of two rational octahedra, one cube and one Bricard octahedron;
    the distinct-length octahedron opens the first round."""

    name = "certify"
    work_unit = "inputs certified"
    in_children = False

    def __init__(self, seed: int, steps: int, tracer, work_dir, log):
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.clock = log.clock
        self.replay_steps = min(steps, 100)
        with tracer.span("models.distinct_octahedron"):
            distinct = make_distinct_length_octahedron()
        self.first = [("distinct", distinct)] + self._generate(0)
        q_basis(distinct.exact_edge_lengths())

    def _generate(self, i):
        with self.tracer.span("models.bricard_build", input_id=f"r{i}.bricard"):
            bricard = make_bricard_type1(inputs.bricard_spec(self.rng))
        return [
            (f"r{i}.octa0", inputs.rational_octahedron(self.rng)),
            (f"r{i}.octa1", inputs.rational_octahedron(self.rng)),
            (f"r{i}.cube", inputs.rational_cube(self.rng)),
            (f"r{i}.bricard", bricard),
        ]

    def round(self, i):
        return self.first if i == 0 else self._generate(i)

    def run(self, item) -> Outcome:
        input_id, P = item
        with self.tracer.span("op", input_id=input_id):
            t0 = self.clock()
            try:
                run = certify_pipeline(P, self.tracer, self.clock)
            except Exception as exc:  # a typed library error fails this input only
                return Outcome(input_id, self.clock() - t0, 1,
                               [f"{type(exc).__name__}: {exc}"])
            seconds = self.clock() - t0
        return Outcome(
            input_id, seconds, 1, check_certify(P, run),
            overclaim=overclaims(run.exact, run.numeric.verdict, run.numeric.height),
            relation_found=run.numeric.evidence.kind == DEPENDENT,
            numeric_s=run.numeric_s,
        )

    def determinism(self, tracer_second):
        P = self.first[1][1]
        runs, seconds = [], []
        for tracer in (NullTracer(), tracer_second):
            t0 = perf_counter()
            runs.append(certify_pipeline(P, tracer).reports)
            seconds.append(perf_counter() - t0)
        return runs[0] == runs[1], seconds

    def sample_polyhedra(self):
        return [P for _, P in self.first]

    def sample_path(self, tracer):
        P = self.first[-1][1]
        return flex_pipeline(P, self.replay_steps, tracer).path


# ---------------------------------------------------------------------------
# The command line, one process per invocation
# ---------------------------------------------------------------------------


@dataclass
class CliRun:
    returncode: int
    stdout: bytes
    seconds: float
    peak_rss_kb: int
    files: dict


def cli_env() -> dict:
    """This process's environment (library path and pinned thread counts
    included) with library logging limited to errors."""
    return dict(os.environ, RIGIDITYLAB_LOG="error")


def run_cli(args, env, work_dir, outputs=()) -> CliRun:
    """Start ``python -m rigiditylab.cli`` and wait for it.

    The child is reaped with ``os.wait4`` so its own peak RSS is known.
    ``outputs`` names files the invocation writes; they are read back and
    removed.
    """
    out_path = os.path.join(work_dir, "stdout")
    with open(out_path, "wb") as out:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "rigiditylab.cli", *args],
            stdout=out, stderr=subprocess.DEVNULL, env=env, cwd=work_dir,
        )
        killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    files = {}
    for name in outputs:
        full = os.path.join(work_dir, name)
        if os.path.exists(full):
            with open(full, "rb") as fh:
                files[name] = fh.read()
            os.remove(full)
    return CliRun(proc.returncode, stdout, seconds, usage.ru_maxrss, files)


def write_off(P, work_dir, name) -> str:
    full = os.path.join(work_dir, name)
    with open(full, "w", encoding="utf-8") as fh:
        fh.write(save_off(P))
    return full


@dataclass
class Invocation:
    input_id: str
    args: list
    check: object  # (CliRun) -> (problems, overclaim)
    outputs: tuple = ()


def _json_or_none(raw: bytes):
    try:
        return json.loads(raw)
    except ValueError:
        return None


def check_validate(run):
    report = _json_or_none(run.stdout)
    ok = report is not None and report["passed"] is True
    return ([] if ok else ["validate did not pass"]), False


def check_analyze(exact_cert):
    """Numeric CLI verdicts are cross-checked against the in-process exact
    certificate of the generating polyhedron."""

    def check(run):
        report = _json_or_none(run.stdout)
        if report is None:
            return ["analyze printed no JSON"], False
        if report["mode"] == "exact":
            ok = report["verdict"] == exact_cert.verdict
            return ([] if ok else [f"exact verdict {report['verdict']}"]), False
        return [], overclaims(exact_cert, report["verdict"], report["height"])

    return check


def check_flex_cli(steps):
    """Report monitors, CSV shape, and the half-turn symmetry of the lifted
    angles: the half turn reverses the orientation of a Bricard octahedron,
    so the two angles of a mirror pair keep a constant sum."""

    def check(run):
        problems = []
        report = _json_or_none(run.files.get("report.json", b""))
        if report is None or _json_or_none(run.stdout) != report:
            return ["flex report missing or differs from stdout"], False
        if any(c["max_deviation"] > FLEX_TOL for c in report["combinations"]):
            problems.append("flex combination deviates")
        if report["monitors"]["weighted_angle_sum"] > 1e-8:
            problems.append("weighted angle sum drifts")
        lines = run.files.get("series.csv", b"").decode().splitlines()
        if len(lines) != steps + 3:
            return problems + ["series CSV has the wrong number of rows"], False
        series = np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]])
        for i, j in half_turn_edge_pairs():
            pair_sum = series[:, 1 + i] + series[:, 1 + j]
            if pair_sum.max() - pair_sum.min() > FLEX_TOL:
                problems.append(f"mirror edges {i},{j} disagree")
        return problems, False

    return check


def check_oracle(samples):
    def check(run):
        report = _json_or_none(run.stdout)
        if report is None:
            return ["oracle printed no JSON"], False
        bad = []
        for row in report["edges"]:
            p = row["deterministic"] / (2 * math.pi)
            sigma = 2 * math.pi * math.sqrt(max(p * (1 - p), 0.0) / samples)
            if row["abs_difference"] > 6 * sigma + 1e-9:
                bad.append(tuple(row["edge"]))
        return ([f"oracle disagrees at {bad}"] if bad else []), False

    return check


class Cli:
    """Rounds of seven invocations of fixed kinds; only the OFF files change
    from round to round, so every complete round costs the same.

    Each invocation is followed by a reference child, whose time is the
    invocation's reference time: both are interpreter start-up and import.
    """

    name = "cli"
    work_unit = "invocations"
    in_children = True
    ROUNDS_WRITTEN = 16
    FLEX_STEPS = 60
    ORACLE_SAMPLES = 100_000

    def __init__(self, seed: int, steps: int, tracer, work_dir, log):
        self.tracer = tracer
        self.work_dir = work_dir
        self.env = cli_env()
        self.flex_steps = min(steps, self.FLEX_STEPS)
        rng = random.Random(seed)
        self.models = {
            name: make_model(name) for name in ("octahedron-distinct", "bricard-default")
        }
        self.expected = {
            name: rigidity_certificate(P, mode="exact") for name, P in self.models.items()
        }
        self.files = []
        for i in range(self.ROUNDS_WRITTEN):
            with tracer.span("models.bricard_build", input_id=f"r{i}.bricard"):
                bricard = make_bricard_type1(inputs.bricard_spec(rng))
            entry = {}
            for kind, P in (("octa", inputs.rational_octahedron(rng)),
                            ("cube", inputs.rational_cube(rng)),
                            ("bricard", bricard)):
                entry[kind] = (write_off(P, work_dir, f"r{i}.{kind}.off"), P,
                               rigidity_certificate(P, mode="exact"))
            self.files.append(entry)
        self.first_flex = None

    def round(self, i):
        i %= self.ROUNDS_WRITTEN
        f = self.files[i]
        steps = str(self.flex_steps)
        flex_out = ("--out-json", "report.json", "--out-csv", "series.csv")
        return [
            Invocation("model:cube", ["validate", "--model", "cube"], check_validate),
            Invocation(f"r{i}.cube", ["validate", "--input", f["cube"][0]], check_validate),
            Invocation("model:octahedron-distinct",
                       ["analyze", "--model", "octahedron-distinct", "--mode", "exact"],
                       check_analyze(self.expected["octahedron-distinct"])),
            Invocation(f"r{i}.octa", ["analyze", "--input", f["octa"][0], "--mode", "numeric"],
                       check_analyze(f["octa"][2])),
            Invocation("model:bricard-default",
                       ["flex", "--model", "bricard-default", "--steps", steps, *flex_out],
                       check_flex_cli(self.flex_steps), ("report.json", "series.csv")),
            Invocation(f"r{i}.bricard",
                       ["flex", "--input", f["bricard"][0], "--mode", "numeric",
                        "--steps", steps, *flex_out],
                       check_flex_cli(self.flex_steps), ("report.json", "series.csv")),
            Invocation(f"r{i}.octa", ["oracle", "--input", f["octa"][0],
                                      "--samples", str(self.ORACLE_SAMPLES)],
                       check_oracle(self.ORACLE_SAMPLES)),
        ]

    def run(self, inv: Invocation) -> Outcome:
        with self.tracer.span(f"cli.{inv.args[0]}", input_id=inv.input_id) as s:
            run = run_cli(inv.args, self.env, self.work_dir, inv.outputs)
            s.units = 1
        if run.returncode != 0:
            problems, over = [f"{inv.args[0]} exited {run.returncode}"], False
        else:
            problems, over = inv.check(run)
        if inv.args[0] == "flex" and self.first_flex is None:
            self.first_flex = (inv, run)
        ref_s = calibrate.reference_child(self.env, self.work_dir)
        return Outcome(inv.input_id, run.seconds, 1, problems, over, run.peak_rss_kb,
                       ref_s=ref_s)

    def determinism(self, tracer_second):
        """The first flex invocation again; stdout, JSON and CSV compared."""
        inv, first = self.first_flex
        with tracer_second.span(f"cli.{inv.args[0]}", input_id=inv.input_id):
            again = run_cli(inv.args, self.env, self.work_dir, inv.outputs)
        same = (first.returncode, first.stdout, first.files) == (
            again.returncode, again.stdout, again.files)
        return same, [first.seconds, again.seconds]

    def sample_polyhedra(self):
        f = self.files[0]
        return [self.models["octahedron-distinct"], f["octa"][1], f["cube"][1], f["bricard"][1]]

    def sample_path(self, tracer):
        P = self.models["bricard-default"]
        return flex_pipeline(P, min(self.flex_steps, 100), tracer).path


WORKLOADS = {w.name: w for w in (FlexCycle, Certify, Cli)}
