"""The library calls that the benchmark in perfbench/ makes, run once each.

perfbench/ imports its modules by bare name, so its directory is on
sys.path while they are imported; nothing there is written.  A name the
benchmark still calls but the library no longer has fails here, not only
in a benchmark run.
"""

import random
import sys
from pathlib import Path

import pytest

from rigiditylab import lift_angles, make_bricard_type1

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
try:
    import inputs
    import spans
    import workloads
finally:
    del sys.path[0]


def test_flex_pipeline_passes_its_checks():
    run = workloads.flex_pipeline(make_bricard_type1(), 30, spans.NullTracer())
    assert workloads.check_flex(run, closes=False) == []


@pytest.mark.parametrize("kind", ["octahedron", "cube", "bricard"])
def test_certify_pipeline_passes_its_checks(kind):
    rng = random.Random(7)
    P = {
        "octahedron": inputs.rational_octahedron,
        "cube": inputs.rational_cube,
        "bricard": lambda r: make_bricard_type1(inputs.bricard_spec(r)),
    }[kind](rng)
    run = workloads.certify_pipeline(P, spans.NullTracer())
    assert workloads.check_certify(P, run) == []


def test_flex_pipeline_passes_through_a_fold():
    """The 16th seeded Bricard spec of seed 2 passes 6.2e-9 past the fold of
    edge 4 at sample 816; the angle there reads that small value, not 2*pi
    minus it, so every conserved combination holds through the fold."""
    rng = random.Random(2)
    for _ in range(16):
        spec = inputs.bricard_spec(rng)
    run = workloads.flex_pipeline(make_bricard_type1(spec), 820, spans.NullTracer())
    assert workloads.check_flex(run, closes=False) == []
    assert run.path.raw_angles[816, 4] < 1e-8


def test_benchmark_lift_call_equals_the_path_lift(bricard_path):
    """perfbench/layers.py times lift_angles(path.raw_angles,
    path.degenerate_flags); the flags are not read, so the call gives the
    path's own lifted angles byte for byte."""
    lifted = lift_angles(bricard_path.raw_angles, bricard_path.degenerate_flags)
    assert lifted.shape == bricard_path.lifted_angles.shape
    assert lifted.tobytes() == bricard_path.lifted_angles.tobytes()
