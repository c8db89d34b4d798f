"""Benchmark for rigiditylab: one closed-loop workload per run.

    python3 perfbench/run.py --workload flex-cycle --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  The library is imported from ``src/`` of
that checkout; without it the run stops with exit code 2 and prints no
result.  With ``--trace 0`` the last line of standard output holds the
end-to-end metrics; with ``--trace 1`` spans are recorded around every call
into a layer and the last line holds the per-layer metrics, while the spans
themselves are written to ``.perfbench/``.  The line before it describes
the run: environment, seed, workload-specific metric names and failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
# Seconds between reference-kernel samples inside in-process operations,
# and the kernel window of a traced run.
SAMPLE_INTERVAL_S = 0.25
TRACED_WINDOW_S = 0.5
# An operation's reference time is the mean kernel time within this many
# seconds of it.
MARGIN_S = 2.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
WORKLOAD_NAMES = ("flex-cycle", "certify", "cli")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--flex-steps", type=int, default=3300,
        help="path length of each flex-cycle trace (a full cycle by default)",
    )
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def prepare_environment() -> None:
    """Pin BLAS/OpenMP to one thread and put the checkout's library first on
    the path, for this process and every child it starts."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))


def setup_probe(args) -> int:
    """Child mode: time import and workload set-up in a fresh interpreter."""
    t0 = perf_counter()
    import rigiditylab  # noqa: F401

    t1 = perf_counter()
    import calibrate
    from spans import NullTracer
    from workloads import WORKLOADS

    work_dir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        WORKLOADS[args.workload](args.seed, args.flex_steps, NullTracer(), work_dir,
                                 calibrate.SpeedLog())
        t2 = perf_counter()
    finally:
        shutil.rmtree(work_dir)
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))
    return 0


def measure_setup(args) -> tuple[float, float]:
    """Median set-up and import time over fresh child interpreters."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--flex-steps", str(args.flex_steps)]
    setups, imports = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        setups.append(probe["setup_s"])
        imports.append(probe["import_s"])
    return statistics.median(setups), statistics.median(imports)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def closed_loop(wl, seconds: float, reference) -> tuple[list, list, int]:
    """Whole rounds, one operation at a time, until the operations have
    taken ``seconds`` at nominal machine speed.

    Counting nominal rather than wall time keeps the number of operations in
    a run independent of how fast the machine happens to be, which matters
    where one operation takes half the run.  ``reference(outcome, start,
    end)`` gives an operation's time at nominal speed.  Returns the
    outcomes, each operation's perf_counter interval, and the rounds run.
    """
    outcomes, intervals = [], []
    rounds = 0
    used = 0.0
    while used < seconds:
        for item in wl.round(rounds):
            start = perf_counter()
            outcome = wl.run(item)
            end = perf_counter()
            outcomes.append(outcome)
            intervals.append((start, end))
            used += reference(outcome, start, end)
        rounds += 1
    return outcomes, intervals, rounds


def measure(wl, args, log, calibrate) -> tuple[list, list, int]:
    """Run the closed loop; return its outcomes, each operation's reference
    time, and the rounds run.

    Untraced in-process operations are sampled by the reference kernel
    while they run.  Traced runs are not sampled, so spans hold library time
    only, and one kernel window after the loop gives their reference time.
    Each CLI invocation brings the time of a reference child (see
    ``workloads.Cli``).
    """
    if wl.in_children:
        outcomes, _, rounds = closed_loop(
            wl, args.seconds,
            lambda o, start, end: o.seconds * calibrate.NOMINAL_CHILD_S / o.ref_s)
        return outcomes, [o.ref_s for o in outcomes], rounds

    def nominal(o, start, end):
        return o.seconds * calibrate.NOMINAL_KERNEL_S / log.around(start, end, MARGIN_S)

    if args.trace:
        outcomes, intervals, rounds = closed_loop(wl, args.seconds, nominal)
        log.window(TRACED_WINDOW_S)
    else:
        with log.sampling(SAMPLE_INTERVAL_S):
            outcomes, intervals, rounds = closed_loop(wl, args.seconds, nominal)
    return outcomes, [log.around(s, e, MARGIN_S) for s, e in intervals], rounds


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rigiditylab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no rigiditylab sources under {SRC}\n")
        return 2
    prepare_environment()
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)
    if not args.trace:
        setup_s, import_s = measure_setup(args)

    import calibrate
    from layers import per_layer_metrics, replay, tail
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS, cli_env

    tracer = Tracer() if args.trace else NullTracer()
    log = calibrate.SpeedLog()
    work_dir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.flex_steps, tracer, work_dir, log)
        outcomes, refs, rounds = measure(wl, args, log, calibrate)
        same, pair_s = wl.determinism(tracer)
        if args.trace:
            replayed = replay(wl, tracer, args.seed, cli_env(), work_dir)
            tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(work_dir)

    problems = [f"{o.input_id}: {p}" for o in outcomes for p in o.problems]
    if not same:
        problems.append("determinism: repeated input gave different bytes")
    attempted = len(outcomes) + 1
    failed = sum(bool(o.problems) for o in outcomes) + (not same)
    overclaimed = sum(o.overclaim for o in outcomes)
    fail_frac = (sum(bool(o.problems) or o.overclaim for o in outcomes) + (not same)) / attempted
    times = [o.seconds for o in outcomes]
    work = sum(o.work for o in outcomes)
    work_per_s = work / sum(times)
    times_ref = [t / r for t, r in zip(times, refs)]
    op_tail, tail_pct = tail(times)
    if wl.in_children:
        peak_kb = max(o.peak_rss_kb for o in outcomes)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if args.trace:
        metrics = per_layer_metrics(tracer, outcomes, replayed, pair_s[1] - pair_s[0], fail_frac)
        metrics["reference_s"] = {"value": statistics.mean(refs), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "work_per_ref": {"value": work / sum(times_ref), "unit": "1/ref"},
            "op_ref_p50": {"value": statistics.median(times_ref), "unit": "ref"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
    if args.workload == "flex-cycle":
        named = {"flex_steps_per_s": (work_per_s, "steps/s")}
    elif args.workload == "certify":
        numeric = [o.numeric_s for o in outcomes if o.numeric_s is not None]
        named = {
            "certs_per_s": (work_per_s, "inputs/s"),
            "cert_numeric_s_p50": (statistics.median(numeric), "s"),
            "cert_numeric_s_tail": (tail(numeric)[0], "s"),
        }
    else:
        named = {"cli_s_p50": (statistics.median(times), "s"), "cli_s_tail": (op_tail, "s")}
    named["fail_frac"] = (fail_frac, "failed/attempted")
    named["peak_rss_mb"] = (peak_kb / 1024, "MB")
    named["work_per_s"] = (work_per_s, "1/s")
    named["op_s_p50"] = (statistics.median(times), "s")
    named["reference_s"] = (statistics.mean(refs), "s")
    if not args.trace:
        named["import_s"] = (import_s, "s")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "work_unit": wl.work_unit,
        "rounds": rounds,
        "operations": len(outcomes),
        "first_operations": [
            {"input": o.input_id, "seconds": o.seconds, "ref_s": ref}
            for o, ref in zip(outcomes[:8], refs)
        ],
        "tail": {"percentile": tail_pct, "samples": len(outcomes)},
        "numeric_overclaims": overclaimed,
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "problems": problems[:10],
        "environment": environment(),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
