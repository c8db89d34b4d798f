"""Traced replays and the per-layer metrics computed from the spans.

Some layers are reachable only through another: the dihedral, rigidity
matrix and SVD work inside ``trace_flex``, and ``find_integer_relation``
inside ``rigidity_certificate``.  The replay feeds the same configurations
and values through each layer's public function, so every layer gets a
span on every workload; ``flex.replay_coverage`` says how much of a traced
step the replayed pieces account for.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from rigiditylab import (
    all_dihedrals,
    check_nondegenerate,
    edge_length_vector,
    find_integer_relation,
    infinitesimal_flex_dim,
    lift_angles,
    load_off,
    make_distinct_length_octahedron,
    monte_carlo_dihedral,
    oriented_volume,
    polyhedron_from_config,
    rigidity_certificate,
    rigidity_matrix,
    save_off,
    save_report_json,
    trivial_motion_basis,
    validate_complex,
)
from rigiditylab.flex import squared_length_residual

from workloads import overclaims, run_cli, write_off

LAYERS = ("surfaces", "geometry", "lengths", "flex", "invariants", "models", "cli")
REPLAY_CONFIGS = 40
MC_SAMPLES = 200_000
PROBE_SAMPLES = 20_000
PROBE_FLEX_STEPS = 20


def replay(wl, tracer, seed: int, env, work_dir) -> dict:
    """Replay the workload's own inputs through every layer, with spans."""
    path = wl.sample_path(tracer)
    surface = path.surface
    i, j = np.array([(surface.vertex_index(a), surface.vertex_index(b))
                     for a, b in surface.edges]).T
    targets = np.sum((path.configs[0][i] - path.configs[0][j]) ** 2, axis=1)
    stride = max(1, path.n_samples // REPLAY_CONFIGS)
    for k in range(0, path.n_samples, stride):
        x = path.configs[k]
        P = polyhedron_from_config(surface, x)
        with tracer.span("geometry.dihedrals", input_id=f"config{k}"):
            all_dihedrals(P)
        with tracer.span("geometry.face_check", input_id=f"config{k}"):
            check_nondegenerate(P)
        with tracer.span("geometry.volume", input_id=f"config{k}"):
            oriented_volume(P)
        with tracer.span("geometry.edge_lengths", input_id=f"config{k}"):
            edge_length_vector(P)
        with tracer.span("flex.rigidity_matrix", input_id=f"config{k}"):
            rigidity_matrix(x, surface)
        with tracer.span("flex.flex_dim", input_id=f"config{k}"):
            infinitesimal_flex_dim(x, surface)
        with tracer.span("flex.trivial_basis", input_id=f"config{k}"):
            trivial_motion_basis(x)
        with tracer.span("flex.residual", input_id=f"config{k}"):
            squared_length_residual(x, surface, targets)
    with tracer.span("flex.lift", input_id="path") as s:
        lift_angles(path.raw_angles, path.degenerate_flags)
        s.units = path.n_samples
    with tracer.span("flex.length_drift", input_id="path") as s:
        path.length_drift()
        s.units = path.n_samples

    found, over = [], 0
    samples = wl.sample_polyhedra()
    for i, P in enumerate(samples):
        with tracer.span("op.replay", input_id=f"sample{i}"):
            with tracer.span("surfaces.validate"):
                validate_complex(P.surface.faces)
            with tracer.span("lengths.exact_lengths"):
                P.exact_edge_lengths()
            values = [repr(float(v)) for v in edge_length_vector(P)]
            with tracer.span("lengths.relation") as s:
                found.append(find_integer_relation(values) is not None)
                s.units = len(values)
            with tracer.span("invariants.certificate_exact"):
                exact = rigidity_certificate(P, mode="exact")
            with tracer.span("invariants.certificate_numeric"):
                numeric = rigidity_certificate(P, mode="numeric")
            over += overclaims(exact, numeric.verdict, numeric.height)
            with tracer.span("models.report_json"):
                save_report_json(numeric, [], edges=P.surface.edges)
            text = save_off(P)
            with tracer.span("models.load_off"):
                load_off(text)
    with tracer.span("geometry.monte_carlo", input_id="sample0") as s:
        monte_carlo_dihedral(samples[0], samples[0].surface.edges[0],
                             n_samples=MC_SAMPLES, seed=seed)
        s.units = MC_SAMPLES
    with tracer.span("models.distinct_octahedron"):
        make_distinct_length_octahedron.__wrapped__()
    if wl.name != "cli":
        _probe_cli(samples[0], polyhedron_from_config(surface, path.configs[0]),
                   tracer, env, work_dir)
    return {"path": path, "relation_found": found, "overclaims": over}


def _probe_cli(rigid, flexible, tracer, env, work_dir):
    """One invocation of each subcommand on this workload's own inputs."""
    a = write_off(rigid, work_dir, "probe.rigid.off")
    b = write_off(flexible, work_dir, "probe.flexible.off")
    for args in (
        ["validate", "--input", a],
        ["analyze", "--input", a, "--mode", "numeric"],
        ["flex", "--input", b, "--mode", "numeric", "--steps", str(PROBE_FLEX_STEPS)],
        ["oracle", "--input", a, "--samples", str(PROBE_SAMPLES)],
    ):
        with tracer.span(f"cli.{args[0]}", input_id="probe"):
            run_cli(args, env, work_dir)
    os.remove(a)
    os.remove(b)


def tail(values: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least 10 samples beyond it, and
    its value; with fewer than 20 samples no percentile above the median
    qualifies and the median is reported."""
    n = len(values)
    pct = max(50, int(100 * (1 - 10 / n))) if n >= 20 else 50
    if pct == 50:
        return statistics.median(values), 50
    return float(np.percentile(values, pct)), pct


def per_layer_metrics(tracer, outcomes, replayed: dict, overhead_s: float,
                      fail_frac: float) -> dict:
    groups = tracer.by_name()

    def spans(name):
        if name not in groups:
            raise RuntimeError(f"no span named {name} was recorded")
        return groups[name]

    def per_call(name):
        return statistics.median(own for _, own in spans(name))

    def per_units(name, scale):
        pairs = spans(name)
        return scale * sum(own for _, own in pairs) / sum(s.units for s, _ in pairs)

    path = replayed["path"]
    iters = float(np.mean([d["corrector_iters"] for d in path.diagnostics]))
    trace_per_step = per_units("flex.trace", 1.0)
    replayed_step = (
        per_call("geometry.dihedrals") + per_call("geometry.face_check")
        + per_call("flex.trivial_basis") + per_call("flex.flex_dim")
        + (iters + 1) * per_call("flex.residual") + iters * per_call("flex.rigidity_matrix")
    )
    found = replayed["relation_found"] + [
        o.relation_found for o in outcomes if o.relation_found is not None]
    overclaimed = sum(o.overclaim for o in outcomes)
    op_tail, pct = tail([o.seconds for o in outcomes])

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("surfaces.validate_s", per_call("surfaces.validate"), "s")
    put("geometry.dihedrals_s", per_call("geometry.dihedrals"), "s")
    put("geometry.face_check_s", per_call("geometry.face_check"), "s")
    put("geometry.volume_s", per_call("geometry.volume"), "s")
    put("geometry.edge_lengths_s", per_call("geometry.edge_lengths"), "s")
    put("geometry.mc_s_per_1e6", per_units("geometry.monte_carlo", 1e6), "s")
    put("lengths.relation_s", per_call("lengths.relation"), "s")
    put("lengths.relation_n", statistics.median(s.units for s, _ in spans("lengths.relation")), "count")
    put("lengths.relation_found_ratio", sum(found) / len(found), "ratio")
    put("lengths.exact_lengths_s", per_call("lengths.exact_lengths"), "s")
    put("lengths.q_basis_s", per_call("lengths.q_basis"), "s")
    put("flex.trace_s_per_100_steps", 100 * trace_per_step, "s")
    put("flex.rigidity_matrix_s", per_call("flex.rigidity_matrix"), "s")
    put("flex.flex_dim_s", per_call("flex.flex_dim"), "s")
    put("flex.trivial_basis_s", per_call("flex.trivial_basis"), "s")
    put("flex.residual_s", per_call("flex.residual"), "s")
    put("flex.lift_s_per_1k_samples", per_units("flex.lift", 1e3), "s")
    put("flex.length_drift_s_per_1k_samples", per_units("flex.length_drift", 1e3), "s")
    put("flex.corrector_iters_per_step", iters, "count")
    put("flex.accepted_steps", sum(s.units for s, _ in spans("flex.trace")), "count")
    put("flex.min_step", min(d["step"] for d in path.diagnostics), "length")
    put("flex.replay_coverage", replayed_step / trace_per_step, "ratio")
    put("invariants.monitor_s_per_1k_samples", per_units("invariants.monitor", 1e3), "s")
    put("invariants.certificate_exact_s", per_call("invariants.certificate_exact"), "s")
    put("invariants.certificate_numeric_s", per_call("invariants.certificate_numeric"), "s")
    put("invariants.numeric_overclaims", overclaimed + replayed["overclaims"], "count")
    put("models.series_csv_s_per_1k_samples", per_units("models.series_csv", 1e3), "s")
    put("models.report_json_s", per_call("models.report_json"), "s")
    put("models.load_off_s", per_call("models.load_off"), "s")
    put("models.bricard_build_s", per_call("models.bricard_build"), "s")
    put("models.distinct_octahedron_s", per_call("models.distinct_octahedron"), "s")
    for sub in ("validate", "analyze", "flex", "oracle"):
        put(f"cli.{sub}_s", per_call(f"cli.{sub}"), "s")
    for layer in LAYERS:
        put(f"{layer}.calls", sum(len(v) for k, v in groups.items()
                                  if k.startswith(layer + ".")), "count")
    put("op_s_tail", op_tail, "s")
    put("op_tail_percentile", pct, "%")
    put("op_samples", len(outcomes), "count")
    put("fail_frac", fail_frac, "ratio")
    put("trace.overhead_s", overhead_s, "s")
    return m
