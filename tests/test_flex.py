import random
from dataclasses import dataclass

import numpy as np
import pytest

from perfbench import inputs
from rigiditylab import (
    CorrectorDivergenceError,
    DegenerateConfigurationError,
    FlexPath,
    LiftAmbiguityError,
    SimplicialSurface,
    SingularPointError,
    infinitesimal_flex_dim,
    is_trivial_flex,
    lift_angles,
    make_bricard_type1,
    polyhedron_from_config,
    rigidity_matrix,
    trace_flex,
    trivial_motion_basis,
)
from rigiditylab import flex
from rigiditylab.flex import MAX_CORRECTOR_ITERS, _kernel_beyond_trivial, _start_direction
from rigiditylab.geometry import PATH_BLOCK, face_areas, principal_angles
from rigiditylab.models import OCTAHEDRON_FACES

from oracles import (
    exact_flex_dim,
    reference_kernel_beyond_trivial,
    reference_rigidity_matrix,
    reference_trace_flex,
    reference_trivial_motion_basis,
)

TWO_PI = 2.0 * np.pi


@dataclass
class EdgeOnly:
    """Minimal stand-in for a surface: a bare edge list."""

    edges: tuple
    vertices: tuple

    @property
    def n_edges(self):
        return len(self.edges)

    def vertex_index(self, v):
        return self.vertices.index(v)


def test_single_edge_matrix():
    stub = EdgeOnly(edges=((0, 1),), vertices=(0, 1))
    x = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    R = rigidity_matrix(x, stub)
    assert R.shape == (1, 6)
    delta = 2.0 * (x[0] - x[1])
    assert np.allclose(R[0, :3], delta)
    assert np.allclose(R[0, 3:], -delta)


def test_trivial_motions_in_kernel(octahedron, bricard):
    for P in (octahedron, bricard):
        x = P.vertex_array()
        R = rigidity_matrix(x, P.surface)
        T = trivial_motion_basis(x)
        assert np.max(np.abs(R @ T)) < 1e-12


def test_rows_match_finite_differences(bricard):
    x = bricard.vertex_array()
    surface = bricard.surface
    R = rigidity_matrix(x, surface)
    h = 1e-6

    def sq_lengths(y):
        out = np.empty(surface.n_edges)
        for row, (a, b) in enumerate(surface.edges):
            d = y[surface.vertex_index(a)] - y[surface.vertex_index(b)]
            out[row] = float(np.dot(d, d))
        return out

    flat = x.reshape(-1)
    fd = np.empty_like(R)
    for k in range(flat.size):
        plus = flat.copy()
        minus = flat.copy()
        plus[k] += h
        minus[k] -= h
        fd[:, k] = (sq_lengths(plus.reshape(-1, 3)) - sq_lengths(minus.reshape(-1, 3))) / (
            2 * h
        )
    scale = np.max(np.abs(R))
    assert np.max(np.abs(R - fd)) <= 1e-6 * scale


def test_flex_dims_match_exact_oracle(octahedron, cube, bricard):
    for P, expected in ((octahedron, 0), (cube, 0), (bricard, 1)):
        assert exact_flex_dim(P.exact_coords, P.surface) == expected
        assert infinitesimal_flex_dim(P.vertex_array(), P.surface) == expected


def test_collinear_configuration_rejected(octahedron):
    x = octahedron.vertex_array()
    x[:, 1:] = 0.0
    with pytest.raises(DegenerateConfigurationError):
        infinitesimal_flex_dim(x, octahedron.surface)


def test_trivial_basis_rejects_collinear_input(octahedron):
    x = octahedron.vertex_array()
    x[:, 1:] = 0.0
    with pytest.raises(DegenerateConfigurationError):
        trivial_motion_basis(x)
    with pytest.raises(DegenerateConfigurationError):
        trivial_motion_basis(octahedron.vertex_array()[:2])


def test_path_angles_across_blocks(bricard):
    """Angles computed block by block from the finished path equal the
    per-configuration values bit for bit, in row-major arrays."""
    path = trace_flex(bricard.vertex_array(), bricard.surface, n_steps=PATH_BLOCK + 44)
    one_by_one = [principal_angles(bricard.surface, x) for x in path.configs]
    assert path.n_samples > PATH_BLOCK
    assert np.array_equal(path.raw_angles, np.array([v for v, _ in one_by_one]))
    assert np.array_equal(path.degenerate_flags, np.array([f for _, f in one_by_one]))
    for a in (path.raw_angles, path.degenerate_flags, path.lifted_angles):
        assert a.flags.c_contiguous


def test_trace_rigid_model_aborts(octahedron):
    with pytest.raises(SingularPointError) as exc:
        trace_flex(octahedron.vertex_array(), octahedron.surface, n_steps=5)
    assert exc.value.flex_dim == 0
    assert exc.value.path.n_samples == 1


def test_traced_path_properties(bricard, bricard_path):
    path = bricard_path
    assert path.n_samples == 61
    max_len = float(path.initial_lengths.max())
    assert path.length_drift() <= 10 * (1e-11 * max_len**2)
    variation = path.lifted_angles.max(axis=0) - path.lifted_angles.min(axis=0)
    assert variation.max() > 0.1
    # lifted series are continuous: consecutive increments stay below pi
    assert np.max(np.abs(np.diff(path.lifted_angles, axis=0))) < np.pi
    # lifted series start at the principal values
    assert np.allclose(path.lifted_angles[0], path.raw_angles[0])
    assert not is_trivial_flex(path)


def test_trace_deterministic(bricard):
    x0 = bricard.vertex_array()
    a = trace_flex(x0, bricard.surface, n_steps=10)
    b = trace_flex(x0, bricard.surface, n_steps=10)
    assert np.array_equal(a.configs, b.configs)


def test_direction_hint_flips_path(bricard):
    x0 = bricard.vertex_array()
    fwd = trace_flex(x0, bricard.surface, n_steps=5)
    hint = -(fwd.configs[1] - fwd.configs[0]).reshape(-1)
    back = trace_flex(x0, bricard.surface, direction_hint=hint, n_steps=5)
    d_f = (fwd.configs[1] - fwd.configs[0]).reshape(-1)
    d_b = (back.configs[1] - back.configs[0]).reshape(-1)
    assert float(np.dot(d_f, d_b)) < 0


def test_lift_constant_series():
    raw = np.full((5, 1), 1.2345)
    assert np.allclose(lift_angles(raw), 1.2345)


def test_lift_unwraps_branch_crossing():
    raw = np.array([[0.1], [6.2], [6.0]])
    lifted = lift_angles(raw)[:, 0]
    assert lifted == pytest.approx([0.1, 6.2 - TWO_PI, 6.0 - TWO_PI], abs=1e-12)


def test_lift_ambiguous_jump_rejected():
    raw = np.array([[0.0], [np.pi]])
    with pytest.raises(LiftAmbiguityError):
        lift_angles(raw)


def test_lift_bridges_degenerate_samples():
    raw = np.array([0.3, 0.0, TWO_PI - 0.1])
    flags = np.array([False, True, False])
    # One edge's series, as a column and as a 1-D array with 1-D flags.
    for shape in ((3, 1), (3,)):
        lifted = lift_angles(raw.reshape(shape), flags.reshape(shape))[:, 0]
        # the middle sample interpolates between 0.3 and -0.1 on the lifted line
        assert lifted[0] == pytest.approx(0.3)
        assert lifted[2] == pytest.approx(-0.1, abs=1e-12)
        assert lifted[1] == pytest.approx(0.1, abs=1e-12)


def test_lift_refinement_consistency(bricard_path):
    fine = bricard_path
    coarse_raw = fine.raw_angles[::2]
    coarse_flags = fine.degenerate_flags[::2]
    coarse = lift_angles(coarse_raw, coarse_flags)
    assert np.max(np.abs(coarse - fine.lifted_angles[::2])) <= 1e-6


def test_trivial_flex_detection(octahedron):
    x0 = octahedron.vertex_array()
    configs = [x0]
    for angle in (0.3, 0.6, 0.9):
        c, s = np.cos(angle), np.sin(angle)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        configs.append(x0 @ R.T + np.array([0.1, -0.2, 0.05]) * angle)
    E = octahedron.surface.n_edges
    path = FlexPath(
        surface=octahedron.surface,
        ts=np.linspace(0, 1, 4),
        configs=np.array(configs),
        raw_angles=np.zeros((4, E)),
        lifted_angles=np.zeros((4, E)),
        degenerate_flags=np.zeros((4, E), dtype=bool),
        initial_lengths=np.full(E, np.sqrt(2)),
    )
    assert is_trivial_flex(path)


def test_single_sample_path_trivial(bricard_path):
    single = FlexPath(
        surface=bricard_path.surface,
        ts=bricard_path.ts[:1],
        configs=bricard_path.configs[:1],
        raw_angles=bricard_path.raw_angles[:1],
        lifted_angles=bricard_path.lifted_angles[:1],
        degenerate_flags=bricard_path.degenerate_flags[:1],
        initial_lengths=bricard_path.initial_lengths,
    )
    assert is_trivial_flex(single)


def step_move_ratios(path):
    """|x_{k+1} - x_k| / h_k for every accepted step k."""
    moves = np.diff(path.configs, axis=0).reshape(len(path.step_sizes), -1)
    return np.linalg.norm(moves, axis=1) / path.step_sizes


def test_accepted_steps_move_about_their_size(bricard_path):
    assert step_move_ratios(bricard_path).min() >= 0.5


def test_step_cap_bounds_accepted_steps(bricard):
    path = trace_flex(bricard.vertex_array(), bricard.surface, n_steps=12, step=256.0)
    assert step_move_ratios(path).min() >= 0.5


# Two octahedra (OCTAHEDRON_FACES, vertex i on row i) on which a
# minimum-norm corrector, free to move along the flex, stepped back and
# forth: a genuine Bricard type-1 octahedron, where the path zig-zagged and
# drifted 0.055 in 1000 steps, and a nearly flat asymmetric one, where it
# stood still (2.2e-7).  The pseudo-arclength row keeps every step going
# forward.
ZIGZAG = np.array([
    [-0.2833082234230908, 0.21324557506731326, 0.10964250098753983],
    [-1.9145649441110815, 0.5549549427177971, 0.175588971164231],
    [-0.4983818977036038, 0.9797079457980331, -0.6305723653916457],
    [-0.05753885363425368, 1.839915692799422, 0.608887356948591],
    [0.44320255578664824, 3.067826167305465, -0.4290815937513143],
    [0.8997407687834291, 1.577820620494147, 0.16553513004259843],
])
STALL = np.array([
    [-0.05428910526659912, 0.2968083719909556, 0.2646561643014911],
    [-1.450170938484149, -0.06424086807288931, -0.019070139289368224],
    [-0.025207319922007813, 1.2757137343671312, -0.5133691142880428],
    [-1.3583410397033164, 0.022208549841149, -0.05094087170251718],
    [-1.5965226572012545, -0.20156943971373414, 0.03164840260715853],
    [-0.1843805761225096, 2.668940007388191, 0.28707555837127857],
])


@pytest.mark.parametrize("x0, displacement", [(ZIGZAG, 0.5), (STALL, 0.1)],
                         ids=["zigzag", "stall"])
def test_flex_never_reverses(x0, displacement):
    path = trace_flex(x0, SimplicialSurface(OCTAHEDRON_FACES), n_steps=1000)
    moves = np.diff(path.configs, axis=0).reshape(1000, -1)
    assert np.count_nonzero(np.vecdot(moves[1:], moves[:-1]) < 0) == 0
    assert np.abs(path.configs[-1] - path.configs[0]).max() >= displacement


def test_start_direction_ignores_rounding_of_ties(bricard):
    """The default spec's start tangent has two entries of equal magnitude
    and opposite sign, the half-turn images of one motion; nudging either
    by one ulp does not change the direction chosen."""
    tangent = _kernel_beyond_trivial(bricard.vertex_array(), bricard.surface)[:, 0]
    i, j = sorted(np.argsort(np.abs(tangent))[-2:])
    assert np.sign(tangent[i]) == -np.sign(tangent[j])
    for a in (-np.inf, 0.0, np.inf):
        for b in (-np.inf, 0.0, np.inf):
            nudged = tangent.copy()
            if a:
                nudged[i] = np.nextafter(nudged[i], a)
            if b:
                nudged[j] = np.nextafter(nudged[j], b)
            for t in (nudged, -nudged):
                chosen = _start_direction(t)
                assert chosen[i] > 0 and np.abs(chosen).tobytes() == np.abs(t).tobytes()


# The tracer reuses one bordered matrix, refilled in place.  The reference
# tracer builds every matrix afresh; both must agree to the last bit.

PATH_ARRAYS = ("configs", "ts", "raw_angles", "lifted_angles", "degenerate_flags")


def assert_same_path(path, ref):
    for name in PATH_ARRAYS:
        a, b = getattr(path, name), getattr(ref, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert path.diagnostics == ref.diagnostics


def traced_pair(P, **kwargs):
    x0 = P.vertex_array()
    return (trace_flex(x0, P.surface, **kwargs),
            reference_trace_flex(x0, P.surface, **kwargs))


def test_trace_matches_reference_default_spec(bricard):
    assert_same_path(*traced_pair(bricard, n_steps=400))


@pytest.mark.parametrize("seed", [5, 13])
def test_trace_matches_reference_seeded_spec(seed):
    P = make_bricard_type1(inputs.bricard_spec(random.Random(seed)))
    assert_same_path(*traced_pair(P, n_steps=150))


def test_trace_matches_reference_through_halving(bricard):
    cap = 256.0
    path, ref = traced_pair(bricard, n_steps=12, step=cap)
    assert min(d["step"] for d in path.diagnostics) < cap
    assert_same_path(path, ref)


@pytest.fixture
def two_octahedra(octahedron):
    """Two disjoint octahedra: 30 slice directions against 24 edges, and a
    kernel of dimension 6 (their relative rigid motions)."""
    faces = octahedron.surface.faces
    surface = SimplicialSurface([*faces, *(tuple(v + 6 for v in f) for f in faces)])
    x = octahedron.vertex_array()
    return polyhedron_from_config(surface, np.vstack([x, 1.3 * x + [5.0, 0.2, 0.1]]))


@pytest.mark.parametrize(
    "model, kwargs, error",
    [
        ("octahedron", {"n_steps": 5}, SingularPointError),
        # Newton meets tol = 1e-300 on the first seven steps, with exactly
        # zero residuals, and then no step size works.
        ("bricard", {"n_steps": 50, "tol": 1e-300}, CorrectorDivergenceError),
        ("two_octahedra", {"n_steps": 5}, SingularPointError),
    ],
)
def test_trace_failures_match_reference(model, kwargs, error, request):
    P = request.getfixturevalue(model)
    x0 = P.vertex_array()
    with pytest.raises(error) as got:
        trace_flex(x0, P.surface, **kwargs)
    with pytest.raises(error) as want:
        reference_trace_flex(x0, P.surface, **kwargs)
    assert str(got.value) == str(want.value)
    assert getattr(got.value, "flex_dim", None) == getattr(want.value, "flex_dim", None)
    assert_same_path(got.value.path, want.value.path)


def test_flex_matrices_match_reference(octahedron, cube, bricard_path):
    cases = [(P.surface, P.vertex_array()) for P in (octahedron, cube)]
    cases += [(bricard_path.surface, x) for x in bricard_path.configs[::15]]
    for surface, x in cases:
        for got, want in (
            (rigidity_matrix(x, surface), reference_rigidity_matrix(x, surface)),
            (trivial_motion_basis(x), reference_trivial_motion_basis(x)),
            (_kernel_beyond_trivial(x, surface), reference_kernel_beyond_trivial(x, surface)),
        ):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_edge_stub_matrix_matches_reference():
    stub = EdgeOnly(edges=((0, 1), (1, 3), (0, 2)), vertices=(0, 1, 2, 3))
    x = np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 3.0], [0.5, 0.25, -1.0], [-0.0, 4.0, 1.5]])
    R = rigidity_matrix(x, stub)
    assert R.shape == (3, 12)
    assert R.tobytes() == reference_rigidity_matrix(x, stub).tobytes()


def test_lapack_call_counts(bricard, monkeypatch, caplog):
    """Per attempted step: one complete QR (the slice at the predicted point)
    and one LU solve of the bordered system per corrector iteration; per
    accepted step, one SVD (the tangent and the next left null space); the
    start adds one QR and one SVD."""
    counts = dict.fromkeys(("qr", "svd", "solve"), 0)
    for name in counts:
        original = getattr(flex, f"_{name}")

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(flex, f"_{name}", counted)
    with caplog.at_level("DEBUG", logger="rigiditylab"):
        path = trace_flex(bricard.vertex_array(), bricard.surface, n_steps=200)
    failed = sum("corrector failed" in r.getMessage() for r in caplog.records)
    assert failed == 0  # so no failed attempt adds its iterations below
    accepted = path.n_samples - 1
    assert counts == {
        "qr": accepted + 1 + failed,
        "svd": accepted + 1,
        "solve": sum(d["corrector_iters"] for d in path.diagnostics)
        + MAX_CORRECTOR_ITERS * failed,
    }


def fail_once(solve, call):
    """``solve`` that raises LinAlgError on its ``call``-th call."""
    calls = 0

    def patched(*args):
        nonlocal calls
        calls += 1
        if calls == call:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(*args)

    return patched


def test_failed_solve_halves_the_step(bricard, monkeypatch):
    """A singular bordered system fails its attempt like a diverging
    iterate: the step halves and the trace goes on.  Each default step
    takes one solve, so the fifth solve belongs to the fifth step."""
    monkeypatch.setattr(flex, "_solve", fail_once(flex._solve, 5))
    monkeypatch.setattr(np.linalg, "solve", fail_once(np.linalg.solve, 5))
    path, ref = traced_pair(bricard, n_steps=20)
    assert path.n_samples == 21
    assert path.step_sizes[3] == 0.01 and path.step_sizes[4] == 0.005
    assert_same_path(path, ref)


def test_side_areas_equal_face_areas(octahedron, cube, bricard_path):
    """Signed zeros included: the regular models have equal coordinates."""
    cases = [(P.surface, P.vertex_array()) for P in (octahedron, cube)]
    cases += [(bricard_path.surface, x) for x in bricard_path.configs[::15]]
    for surface, x in cases:
        ends = surface.edge_table
        areas = flex._side_areas(surface, ends[:, 0], ends[:, 1])
        want = face_areas(surface, x)
        assert areas(x[ends[:, 0]] - x[ends[:, 1]]).tobytes() == want.tobytes()
