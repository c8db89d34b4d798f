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

from rigiditylab import make_bricard_type1

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
