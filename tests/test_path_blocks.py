"""Whole-path stages run block by block.

Each stage that walks a whole flex path takes PATH_BLOCK configurations at a
time.  On paths that end just before, at and just after a block boundary,
and two blocks further on, each stage gives the bytes of its one-pass form in
``oracles.py``.  Its memory is the path's own plus a fixed amount.
"""

import tracemalloc

import numpy as np
import pytest

from rigiditylab import (
    CorrectorDivergenceError,
    FlexPath,
    invariant_combinations,
    is_trivial_flex,
    make_bricard_type1,
    monitor_flex,
    q_basis,
    save_series_csv,
    trace_flex,
)
from rigiditylab import flex
from rigiditylab.geometry import PATH_BLOCK
from rigiditylab.models import series_csv_blocks

from oracles import (
    assert_same_path,
    reference_trace_flex,
    whole_path_is_trivial_flex,
    whole_path_length_drift,
    whole_path_monitor_series,
    whole_path_series_csv,
)

SIZES = (PATH_BLOCK - 1, PATH_BLOCK, PATH_BLOCK + 1, 2 * PATH_BLOCK + 3)
MB = 1 << 20


@pytest.fixture(scope="module")
def bricard_long():
    P = make_bricard_type1()
    return P, trace_flex(P.vertex_array(), P.surface, n_steps=max(SIZES) - 1)


def head(path, k, last=None):
    """The first k samples of ``path``; ``last`` replaces the k-th configuration."""
    configs = path.configs[:k].copy()
    if last is not None:
        configs[-1] = last
    return FlexPath(path.surface, configs)


def rigid_path(path, k, last=None):
    """k rigid motions of the first configuration of ``path``; ``last``
    replaces the k-th configuration."""
    x0 = path.configs[0]
    configs = []
    for angle in np.linspace(0.0, 0.5, k):
        c, s = np.cos(angle), np.sin(angle)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        configs.append(x0 @ R.T + np.array([0.1, -0.2, 0.05]) * angle)
    if last is not None:
        configs[-1] = last
    return FlexPath(path.surface, np.array(configs))


@pytest.mark.parametrize("k", SIZES)
def test_trace_across_blocks(bricard_long, k):
    """The tracer's sample blocks hold what a list of samples holds."""
    P, long = bricard_long
    path = trace_flex(P.vertex_array(), P.surface, n_steps=k - 1)
    assert_same_path(path, reference_trace_flex(P.vertex_array(), P.surface, n_steps=k - 1))
    assert path.configs.flags.c_contiguous
    assert path.configs.tobytes() == long.configs[:k].tobytes()


@pytest.mark.parametrize("k", SIZES)
def test_monitor_series_across_blocks(bricard_long, k):
    path = head(bricard_long[1], k)
    got = path.monitor_series
    want = whole_path_monitor_series(path.surface, path.configs, path.lifted_angles)
    for a, b in zip(got, want):
        assert a.shape == (k,) and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("k", SIZES)
def test_series_csv_across_blocks(bricard_long, k):
    path = head(bricard_long[1], k)
    pieces = list(series_csv_blocks(path))
    assert len(pieces) == 1 + -(-k // PATH_BLOCK)  # the header, then one per block
    assert "".join(pieces) == save_series_csv(path) == whole_path_series_csv(path)


@pytest.mark.parametrize("k", SIZES)
def test_length_drift_across_blocks(bricard_long, k):
    path = head(bricard_long[1], k)
    assert path.length_drift() == whole_path_length_drift(path)
    # A stretched last sample sets the maximum from the last block.
    stretched = head(bricard_long[1], k, last=1.001 * path.configs[-1])
    assert stretched.length_drift() == whole_path_length_drift(stretched) > 1e-4


@pytest.mark.parametrize("k", SIZES)
def test_trivial_flex_across_blocks(bricard_long, k):
    long = bricard_long[1]
    x0 = long.configs[0]
    # A flexed, mirrored or scaled last sample makes the path nontrivial from
    # the last block: the mirror keeps every length, the scaling every angle.
    cases = [(head(long, k), False), (rigid_path(long, k), True)]
    for last in (long.configs[k - 1], x0 * [1.0, 1.0, -1.0], 1.001 * x0):
        cases.append((rigid_path(long, k, last=last), False))
    for path, trivial in cases:
        assert is_trivial_flex(path) == whole_path_is_trivial_flex(path) == trivial


def test_each_block_is_evaluated_once(spy):
    """Tracing 600 steps, then monitoring, writing the CSV and the triviality
    test take the angles and the volumes of each block of the path once; the
    trace itself takes the angles of its start only."""
    P = make_bricard_type1()
    angles, volumes = spy("principal_angles"), spy("oriented_volumes")
    path = trace_flex(P.vertex_array(), P.surface, n_steps=600)
    monitor_flex(path, [], P)
    save_series_csv(path)
    is_trivial_flex(path)
    blocks = [path.configs[k : k + PATH_BLOCK].tobytes() for k in range(0, 601, PATH_BLOCK)]
    assert path.n_samples == 601 and len(blocks) == 3
    assert [x.tobytes() for x in angles] == [P.vertex_array().tobytes(), *blocks]
    assert [x.tobytes() for x in volumes] == blocks


@pytest.mark.filterwarnings("error")
def test_trace_never_sizes_a_buffer_from_n_steps(bricard, monkeypatch):
    """A corrector that never converges ends a trace of 10**12 requested
    steps with its one-sample path, not with a MemoryError."""

    original = flex._inv

    def singular(a, out=None):
        return original(np.zeros_like(a), out)

    # Every inverse fails, and no predicted point meets tol on its own.
    monkeypatch.setattr(flex, "_inv", singular)
    with pytest.raises(CorrectorDivergenceError) as exc:
        trace_flex(bricard.vertex_array(), bricard.surface, n_steps=10**12, tol=1e-300)
    assert exc.value.path.n_samples == 1


# Memory of each whole-path stage on the default spec's full flex cycle.


@pytest.fixture(scope="module")
def bricard_cycle():
    P = make_bricard_type1()
    path = trace_flex(P.vertex_array(), P.surface, n_steps=3300)
    combos = invariant_combinations(q_basis(P.exact_edge_lengths()), path.raw_angles[0])
    return P, path, combos


def traced_peak(fn):
    """Peak bytes that ``fn()`` holds at once, and its result."""
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("stage", ["monitor_flex", "is_trivial_flex", "length_drift"])
def test_stage_memory_is_fixed(bricard_cycle, stage):
    P, path, combos = bricard_cycle
    run = {
        "monitor_flex": lambda: monitor_flex(path, combos, P),
        "is_trivial_flex": lambda: is_trivial_flex(path),
        "length_drift": path.length_drift,
    }[stage]
    assert path.n_samples == 3301
    peak, _ = traced_peak(run)
    assert peak <= 1 * MB


def test_series_csv_memory_is_its_output(bricard_cycle):
    peak, text = traced_peak(lambda: save_series_csv(bricard_cycle[1]))
    assert peak <= len(text) + 1.5 * MB


def test_default_cycle_closes_with_one_corrector_iteration(bricard_cycle):
    """The second-order predictor leaves a residual that one Newton step
    removes, and the path still closes where it did: after half the cycle,
    the nearest return to the start is sample 3252 +- 1, within 1e-3 in the
    largest vertex distance."""
    _, path, _ = bricard_cycle
    misfit = np.max(np.linalg.norm(path.configs - path.configs[0], axis=2), axis=1)
    half = (path.n_samples - 1) // 2
    nearest = half + int(np.argmin(misfit[half:]))
    assert abs(nearest - 3252) <= 1 and misfit[nearest] <= 1e-3
    assert path.length_drift() <= 1e-10
    assert np.mean(path.corrector_iters == 1) >= 0.99
