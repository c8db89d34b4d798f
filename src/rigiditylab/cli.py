"""Command-line front end.

Subcommands: ``validate`` (closed-surface checks), ``analyze`` (rigidity
certificate plus conserved angle combinations), ``flex`` (trace a flex and
monitor every conserved quantity), ``oracle`` (Monte-Carlo cross-check of
the dihedral angles).  Outputs are deterministic machine-readable JSON/CSV;
identical invocations, including the seed, produce byte-identical bytes.

Exit codes: 0 success, 1 validation failure, 2 usage, I/O or numeric
failure.  Every library error derives from ValueError, so one handler maps
it, or an OSError, to code 2 with one ``error: <type>: <message>`` line on
stderr; argparse exits 2 on a usage error itself.
The RIGIDITYLAB_LOG environment variable (error, info, debug) controls
diagnostic logging on stderr; the library logs nothing at error level, so
logging is set up only for info and debug.

A subcommand imports only the modules it runs: ``validate`` loads neither
numpy nor the geometry kernel, ``oracle`` needs neither the flex tracer nor
the length algebra, and ``analyze`` needs no tracer.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import models
from .surfaces import validate_surface

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_FAILURE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigiditylab",
        description=(
            "Rigidity analysis of closed triangulated surfaces: validation, "
            "length-independence certificates, flex tracing and conserved-"
            "quantity monitoring."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument(
            "--model",
            choices=sorted(models.BUILTIN_MODELS),
            help="built-in model name",
        )
        source.add_argument("--input", metavar="FILE", help="OFF mesh file")

    p = sub.add_parser("validate", help="check the closed-surface conditions")
    add_source(p)
    p.add_argument("--out-json", metavar="FILE", help="also write the report here")

    p = sub.add_parser("analyze", help="rigidity certificate and invariant combinations")
    add_source(p)
    p.add_argument("--mode", choices=("exact", "numeric"), default="exact")
    p.add_argument("--height", type=int, default=10**6, help="coefficient height bound")
    p.add_argument("--out-json", metavar="FILE")

    p = sub.add_parser("flex", help="trace a flex and monitor conserved quantities")
    add_source(p)
    p.add_argument("--mode", choices=("exact", "numeric"), default="exact")
    p.add_argument("--steps", type=int, default=200, help="accepted steps to trace")
    p.add_argument("--step", type=float, default=0.01, help="arc-length step cap")
    p.add_argument("--tol", type=float, default=None, help="corrector residual tolerance")
    p.add_argument("--height", type=int, default=10**6)
    p.add_argument("--out-json", metavar="FILE")
    p.add_argument("--out-csv", metavar="FILE")

    p = sub.add_parser("oracle", help="Monte-Carlo vs deterministic dihedral angles")
    add_source(p)
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-json", metavar="FILE")
    return parser


def _load(args):
    if args.model:
        return models.make_model(args.model)
    with open(args.input, "r", encoding="utf-8") as fh:
        return models.load_off(fh.read())


def _emit(text: str, out_path: str | None):
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _validation_report_json(report) -> str:
    return models.versioned_json({
        "passed": report.passed,
        "violations": [
            {"condition": cond, "simplices": simplices}
            for cond, simplices in report.violations
        ],
    })


def _require_valid(P):
    report = validate_surface(P.surface)
    if not report.passed:
        sys.stderr.write(_validation_report_json(report))
        raise SystemExit(EXIT_INVALID)


def cmd_validate(args) -> int:
    P = _load(args)
    report = validate_surface(P.surface)
    _emit(_validation_report_json(report), args.out_json)
    return EXIT_OK if report.passed else EXIT_INVALID


def _analysis(P, mode, height):
    from .invariants import initial_principal_angles, invariant_combinations, rigidity_certificate

    cert = rigidity_certificate(P, mode=mode, height=height)
    combinations = []
    if mode == "exact":
        combinations = invariant_combinations(cert._span, initial_principal_angles(P))
    return cert, combinations


def cmd_analyze(args) -> int:
    P = _load(args)
    _require_valid(P)
    cert, combinations = _analysis(P, args.mode, args.height)
    text = models.save_report_json(cert, combinations, edges=P.surface.edges)
    _emit(text, args.out_json)
    return EXIT_OK


def cmd_flex(args) -> int:
    P = _load(args)
    _require_valid(P)
    import logging

    from .flex import logger, trace_flex
    from .invariants import monitor_flex

    cert, combinations = _analysis(P, args.mode, args.height)
    path = trace_flex(
        P.vertex_array(),
        P.surface,
        n_steps=args.steps,
        step=args.step,
        tol=args.tol,
    )
    monitoring = monitor_flex(path, combinations, P)
    if logger.isEnabledFor(logging.INFO):
        iters = path.corrector_iters
        logger.info(
            "traced %d samples, max length drift %.3e, mean corrector iterations %.4f, "
            "rejected attempts %d", path.n_samples, path.length_drift(),
            iters.mean() if iters.size else 0.0, path.rejected_attempts,
        )
    text = models.save_report_json(
        cert, combinations, monitoring=monitoring, edges=P.surface.edges
    )
    _emit(text, args.out_json)
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            fh.writelines(models.series_csv_blocks(path))
    return EXIT_OK


def cmd_oracle(args) -> int:
    P = _load(args)
    _require_valid(P)
    from .geometry import all_dihedrals, monte_carlo_dihedrals

    edges = P.surface.edges
    values, flags = all_dihedrals(P)
    mcs = monte_carlo_dihedrals(P, edges, n_samples=args.samples, seed=args.seed)
    rows = []
    for edge, det, flag, mc in zip(edges, values.tolist(), flags.tolist(), mcs):
        rows.append(
            {
                "edge": list(edge),
                "deterministic": det,
                "monte_carlo": mc,
                "abs_difference": abs(det - mc),
                "degenerate": flag,
            }
        )
    payload = {"samples": args.samples, "seed": args.seed, "edges": rows}
    _emit(models.versioned_json(payload), args.out_json)
    return EXIT_OK


def main(argv=None) -> int:
    level = os.environ.get("RIGIDITYLAB_LOG", "error").lower()
    if level in ("info", "debug"):
        import logging

        logging.basicConfig(stream=sys.stderr, level=level.upper(),
                            format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "validate": cmd_validate,
        "analyze": cmd_analyze,
        "flex": cmd_flex,
        "oracle": cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
