import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import inputs
from rigiditylab import (
    DEFAULT_BRICARD_SPEC,
    CorrectorDivergenceError,
    DegenerateConfigurationError,
    FaceDegenerationError,
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
from rigiditylab.flex import (
    MAX_CORRECTOR_ITERS,
    SV_THRESHOLD,
    _motion_rows,
    _rank_test,
    _start_direction,
)
from rigiditylab.geometry import PATH_BLOCK, face_areas, principal_angles, squared_lengths
from rigiditylab.models import BUILTIN_MODELS, OCTAHEDRON_FACES, make_model

import oracles
from oracles import (
    assert_same_path,
    exact_flex_dim,
    reference_kernel_beyond_trivial,
    reference_rigidity_matrix,
    reference_trace_flex,
    reference_trivial_motion_basis,
)

TWO_PI = 2.0 * np.pi


def _signed_zero_tetrahedron(tetrahedron):
    """The regular tetrahedron with vertices 0 and 1 moved to x = -0.0 and
    x = 0.0, so edge (0, 1)'s vector starts with -0.0."""
    x = tetrahedron.vertex_array()
    x[0, 0], x[1, 0] = -0.0, 0.0
    return x, tetrahedron.surface


def test_single_edge_matrix(tetrahedron):
    x, surface = _signed_zero_tetrahedron(tetrahedron)
    R = rigidity_matrix(x, surface)
    assert R.shape == (6, 12)
    blocks = R[surface.edge_index((0, 1))].reshape(4, 3)
    delta = 2.0 * (x[0] - x[1])
    assert np.array_equal(blocks[0], delta)
    assert np.array_equal(blocks[1], -delta)
    assert not blocks[2:].any()


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


def test_lift_ambiguity_names_the_first_column_and_row():
    """Of several ambiguous steps, the error names the first column that has
    one, and that column's first; a later row in an earlier column wins."""
    raw = np.full((6, 4), 1.0)
    raw[4:, 1] = 1.0 + np.pi  # column 1, rows 3 and 4
    raw[2:, 2] = 1.0 + np.pi  # column 2, rows 1 and 2
    raw[1, 3] = 1.0 + np.pi  # column 3, rows 0 and 1
    with pytest.raises(LiftAmbiguityError, match=r"^edge column 1: consecutive principal "
                       r"values 1\.000000 and 4\.141593 differ by pi$"):
        lift_angles(raw)


def test_lift_reads_a_fold_as_zero():
    """A folded sample reads 0, within 1e-9 of its angle modulo 2*pi, and is
    unwrapped like any other value; the flags change nothing."""
    cases = [
        ([0.3, 0.0, TWO_PI - 0.1], [False, True, False], [0.3, 0.0, -0.1]),
        ([0.0, TWO_PI - 0.01, TWO_PI - 0.02], [True, False, False], [0.0, -0.01, -0.02]),
        ([0.0, 0.0, 0.0], [True, True, True], [0.0, 0.0, 0.0]),
    ]
    for raw, flags, want in cases:
        raw, flags = np.array(raw), np.array(flags)
        # One edge's series, as a column and as a 1-D array with 1-D flags.
        for shape in ((3, 1), (3,)):
            lifted = lift_angles(raw.reshape(shape), flags.reshape(shape))
            assert lifted.shape == (3, 1)
            assert lifted[:, 0] == pytest.approx(want, abs=1e-12)
            assert np.array_equal(lifted, lift_angles(raw.reshape(shape)))
    empty = lift_angles(np.empty((0, 4)), np.empty((0, 4), dtype=bool))
    assert empty.shape == (0, 4)


# A first turn count and up to 60 steps under pi/6, each of which may ask
# for a fold.
WINDING_STEPS = st.tuples(
    st.integers(-3, 3),
    st.lists(st.tuples(st.floats(-np.pi / 6, np.pi / 6), st.booleans()),
             min_size=1, max_size=60),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(WINDING_STEPS)
def test_lift_follows_a_winding_series_through_folds(case):
    """A series theta that winds with steps under pi/2 lifts to theta plus one
    multiple of 2*pi, where the samples at multiples of 2*pi, the first one
    among them, read 0 and are flagged as the kernel flags a fold."""
    turns, steps = case
    theta, folds = [TWO_PI * turns], [True]
    for step, fold in steps:
        t = theta[-1] + step
        near = TWO_PI * round(t / TWO_PI)
        fold = fold and abs(t - near) < np.pi / 6  # so steps stay under pi/2
        theta.append(near if fold else t)
        folds.append(fold)
    theta, folds = np.array(theta), np.array(folds)
    raw = np.where(folds, 0.0, np.mod(theta, TWO_PI))
    lifted = lift_angles(raw, folds)[:, 0]
    assert np.array_equal(lifted, lift_angles(raw)[:, 0])
    offset = lifted - theta
    assert np.max(np.abs(offset - TWO_PI * np.round(offset[0] / TWO_PI))) <= 1e-12


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
    assert is_trivial_flex(FlexPath(octahedron.surface, np.array(configs)))


def test_single_sample_path_trivial(bricard_path):
    assert is_trivial_flex(FlexPath(bricard_path.surface, bricard_path.configs[:1]))


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
    C, kernel, _ = rank_test_at(bricard.vertex_array(), bricard.surface)
    tangent = C @ kernel[0]
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
# tracer builds every matrix afresh and derives its own series; both must
# agree to the last bit.


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


def test_trace_matches_reference_with_per_step_face_test(bricard):
    """At tol = 5e-2 L^2 no face starts clear of the Heron bound, so every
    accepted point runs the face test, which the default tol never does."""
    x0 = bricard.vertex_array()
    L2 = float(np.sqrt(squared_lengths(bricard.surface, x0)).max()) ** 2
    assert_same_path(*traced_pair(bricard, n_steps=300, tol=5e-2 * L2))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_start_is_rejected_up_front(bricard, value):
    """As a bad step, tol or n_steps is: a ValueError naming the row,
    before any numpy warning or LAPACK call."""
    x0 = bricard.vertex_array()
    x0[2, 1] = value
    with pytest.raises(ValueError, match=rf"^start must be finite, got .*{value}.* in row 2$"):
        trace_flex(x0, bricard.surface)


_DEFAULT = make_bricard_type1()
# The default spec's squared longest edge, L^2, as trace_flex computes it.
DEFAULT_L2 = float(np.sqrt(squared_lengths(_DEFAULT.surface, _DEFAULT.vertex_array())).max()) ** 2


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
        # Below the rounding of the residual itself (a few eps L^2), no Newton
        # step may vouch for its own residual test: these fail at steps 23 and 7.
        ("bricard", {"n_steps": 30, "tol": 1e-16 * DEFAULT_L2}, CorrectorDivergenceError),
        ("bricard", {"n_steps": 30, "tol": 1e-20 * DEFAULT_L2}, CorrectorDivergenceError),
    ],
)
def test_trace_failures_match_reference(model, kwargs, error, request, spy):
    """A failed trace takes no angle past its start check; the partial path it
    attaches derives the reference's series, and those of the path rebuilt
    from its configurations and step record."""
    P = request.getfixturevalue(model)
    x0 = P.vertex_array()
    angles = spy("principal_angles")
    with pytest.raises(error) as got:
        trace_flex(x0, P.surface, **kwargs)
    assert len(angles) == 1
    with pytest.raises(error) as want:
        reference_trace_flex(x0, P.surface, **kwargs)
    assert str(got.value) == str(want.value)
    assert getattr(got.value, "flex_dim", None) == getattr(want.value, "flex_dim", None)
    path = got.value.path
    assert_same_path(path, want.value.path)
    rebuilt = FlexPath(P.surface, path.configs, path.step_sizes, path.corrector_iters)
    assert_same_path(path, rebuilt)
    for a, b in zip(path.monitor_series, rebuilt.monitor_series):
        assert a.shape == (path.n_samples,) and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [None, 13])
def test_samples_keep_the_start_lengths_exactly(seed):
    """Every sample's squared edge lengths, in Fraction arithmetic on its
    float coordinates, lie within tol of the start's, plus 1e-15 L^2 for the
    rounding of the tracer's own residual test: what a step promises, checked
    without a copy of the tracer's algorithm."""
    spec = DEFAULT_BRICARD_SPEC if seed is None else inputs.bricard_spec(random.Random(seed))
    P = make_bricard_type1(spec)
    path = trace_flex(P.vertex_array(), P.surface, n_steps=600)
    assert path.n_samples == 601

    def exact_squared_lengths(x):
        x = [[Fraction(c) for c in row] for row in x.tolist()]
        return [sum((a - b) ** 2 for a, b in zip(x[i], x[j])) for i, j in P.surface.edge_table]

    start = exact_squared_lengths(path.configs[0])
    L2 = max(start)
    allowed = Fraction(1e-11) * L2 + Fraction(1e-15) * L2  # the default tol, and rounding
    for k, x in enumerate(path.configs):
        worst = max(abs(a - b) for a, b in zip(exact_squared_lengths(x), start))
        assert worst <= allowed, (k, float(worst / L2))


def test_flex_matrices_match_reference(octahedron, cube, bricard_path):
    cases = [(P.surface, P.vertex_array()) for P in (octahedron, cube)]
    cases += [(bricard_path.surface, x) for x in bricard_path.configs[::15]]
    for surface, x in cases:
        C, kernel, stresses = rank_test_at(x, surface)
        dim, tangent, want_stresses = oracles.reference_rank_test(
            reference_rigidity_matrix(x, surface), oracles.reference_motion_rows(x))
        assert len(kernel) == dim
        pairs = [
            (rigidity_matrix(x, surface), reference_rigidity_matrix(x, surface)),
            (trivial_motion_basis(x), reference_trivial_motion_basis(x)),
            (stresses, want_stresses),
        ]
        if dim:
            pairs.append((C @ kernel[-1], tangent))
        for got, want in pairs:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def rank_test_at(x, surface):
    """The tracer's rank test at x: C, the kernel rows and the stresses."""
    x = np.asarray(x, dtype=float)
    return _rank_test(rigidity_matrix(x, surface), _motion_rows(x))


def test_flex_dim_decides_whether_a_trace_starts(bricard_path):
    """One rank test serves infinitesimal_flex_dim and the tracer's start:
    a trace of no steps fails exactly where the dimension is not 1, and
    reports that dimension.  The [R; T.T] oracle agrees on every case: the
    built-in models, seeded rational octahedra, cubes and Bricard specs, and
    samples of the default path."""
    models = [(name, make_model(name)) for name in sorted(BUILTIN_MODELS)]
    for seed in range(8):
        rng = random.Random(seed)
        models += [(f"octahedron{seed}", inputs.rational_octahedron(rng)),
                   (f"cube{seed}", inputs.rational_cube(rng)),
                   (f"bricard{seed}", make_bricard_type1(inputs.bricard_spec(rng)))]
    cases = [(name, P.vertex_array(), P.surface) for name, P in models]
    cases += [(f"sample{k}", bricard_path.configs[k], bricard_path.surface)
              for k in range(0, bricard_path.n_samples, 6)]
    dims = set()
    for name, x, surface in cases:
        dim = infinitesimal_flex_dim(x, surface)
        assert dim == reference_kernel_beyond_trivial(x, surface).shape[1], name
        if dim == 1:
            assert trace_flex(x, surface, n_steps=0).n_samples == 1, name
        else:
            with pytest.raises(SingularPointError) as exc:
                trace_flex(x, surface, n_steps=0)
            assert exc.value.flex_dim == dim, name
        dims.add(dim)
    assert dims == {0, 1}


def test_signed_zero_matrix_matches_reference(tetrahedron):
    x, surface = _signed_zero_tetrahedron(tetrahedron)
    R = rigidity_matrix(x, surface)
    assert np.signbit(R[surface.edge_index((0, 1)), 0])
    assert R.tobytes() == reference_rigidity_matrix(x, surface).tobytes()


def counting(counts, name, function):
    """``function``, counting its calls in ``counts[name]``."""

    def counted(*args, **kwargs):
        counts[name] += 1
        return function(*args, **kwargs)

    return counted


def test_lapack_call_counts(bricard, monkeypatch, caplog):
    """The start takes one complete QR and one SVD (the rank test).  Past
    it, each corrector iteration takes one inverse of the bordered matrix,
    and an accepted step's last one also gives the tangent, the next
    self-stresses and the screen; a step that took no iteration takes one
    inverse at its accepted point.  No QR, no SVD and no solve.  Steps of
    0.01 take one corrector iteration each, of 0.1 two each, and of 3e-4
    mostly none."""
    counts = {}
    for name in ("svd", "inv"):
        monkeypatch.setattr(flex, f"_{name}", counting(counts, name, getattr(flex, f"_{name}")))
    monkeypatch.setattr(np.linalg, "qr", counting(counts, "qr", np.linalg.qr))
    monkeypatch.setattr(np.linalg, "solve", counting(counts, "solve", np.linalg.solve))
    for step, iters in [(0.01, {1}), (0.1, {2}), (3e-4, {0, 1})]:
        counts.update(dict.fromkeys(("svd", "inv", "solve", "qr"), 0))
        caplog.clear()
        with caplog.at_level("DEBUG", logger="rigiditylab"):
            path = trace_flex(bricard.vertex_array(), bricard.surface, n_steps=200, step=step)
        failed = sum("corrector failed" in r.getMessage() for r in caplog.records)
        assert failed == path.rejected_attempts == 0  # so no failed attempt adds iterations
        assert set(path.corrector_iters.tolist()) == iters
        assert counts == {
            "svd": 1,
            "inv": sum(max(d["corrector_iters"], 1) for d in path.diagnostics)
            + MAX_CORRECTOR_ITERS * failed,
            "solve": 0,
            "qr": 1,
        }


def test_face_test_decided_once_from_the_lengths(bricard, monkeypatch):
    """The start's face areas decide whether a step tests them: at the
    default tol every face clears area_tol by twice the Heron bound on
    16 A^2, 12 L^2 tol + 9 tol^2, and so at 1e-2 L^2 (0.67 L^4 against
    0.24 L^4 on the default spec); at 5e-2 L^2 (1.25 L^4) it does not, and
    each accepted step evaluates the areas once more."""
    counts = {}
    monkeypatch.setattr(flex, "face_areas", counting(counts, "areas", flex.face_areas))
    x0 = bricard.vertex_array()
    L2 = float(np.sqrt(squared_lengths(bricard.surface, x0)).max()) ** 2
    for tol, per_step in [(None, 0), (1e-2 * L2, 0), (5e-2 * L2, 1)]:
        counts["areas"] = 0
        path = trace_flex(x0, bricard.surface, n_steps=200, tol=tol)
        assert path.n_samples == 201
        assert counts["areas"] == 1 + per_step * 200, tol


def dip_at(areas_of, call):
    """``areas_of`` whose ``call``-th result reads face 3 as 1e-300."""
    calls = 0

    def patched(*args):
        nonlocal calls
        calls += 1
        areas = areas_of(*args)
        if calls == call:
            areas = areas.copy()
            areas[3] = 1e-300
        return areas

    return patched


@pytest.mark.parametrize("k", [1, 37])
def test_face_degeneration_fires_where_the_bound_fails(bricard, monkeypatch, k):
    """Where the start does not clear the bound, a face that dips to
    area_tol at accepted step k raises FaceDegenerationError with that face
    and the partial path of k samples, as the reference's per-step test does
    under the same dip."""
    x0 = bricard.vertex_array()
    tol = 5e-2 * float(np.sqrt(squared_lengths(bricard.surface, x0)).max()) ** 2
    monkeypatch.setattr(flex, "face_areas", dip_at(flex.face_areas, k + 1))
    with pytest.raises(FaceDegenerationError) as got:
        trace_flex(x0, bricard.surface, n_steps=60, tol=tol)
    monkeypatch.setattr(oracles, "face_areas", dip_at(oracles.face_areas, k))
    with pytest.raises(FaceDegenerationError) as want:
        reference_trace_flex(x0, bricard.surface, n_steps=60, tol=tol)
    assert str(got.value) == str(want.value)
    assert got.value.face == bricard.surface.faces[3]
    assert got.value.path.n_samples == k
    assert_same_path(got.value.path, want.value.path)


@pytest.fixture(scope="module")
def cycles():
    """Full 3300-step paths of the default spec and seeded specs 5 and 13."""
    specs = [DEFAULT_BRICARD_SPEC, *(inputs.bricard_spec(random.Random(s)) for s in (5, 13))]
    paths = []
    for spec in specs:
        P = make_bricard_type1(spec)
        paths.append(trace_flex(P.vertex_array(), P.surface, n_steps=3300))
    return paths


def test_face_areas_stay_within_the_heron_bound(cycles):
    """What skipping the per-step face test rests on: no face's 16 A^2 moves
    from the start's by more than 12 L^2 tol + 9 tol^2, so neither does the
    smallest."""
    for path in cycles:
        x0 = path.configs[0]
        L2 = float(np.sqrt(squared_lengths(path.surface, x0)).max()) ** 2
        tol = 1e-11 * L2
        bound = 12.0 * L2 * tol + 9.0 * tol**2
        q = 16.0 * face_areas(path.surface, path.configs) ** 2
        assert path.n_samples == 3301
        assert np.abs(q - q[0]).max() <= bound
        assert np.abs(q.min(axis=1) - q[0].min()).max() <= bound


def test_centroid_stays_at_the_start(cycles):
    """The rotations about the start's centroid c0 are those about each
    predicted point's centroid: the tangent and every Newton step have no
    translation part, so every sample's centroid stays at c0."""
    for path in cycles:
        x0 = path.configs[0]
        diameter = max(np.linalg.norm(a - b) for a in x0 for b in x0)
        drift = np.linalg.norm(path.configs.mean(axis=1) - x0.mean(axis=0), axis=1)
        assert drift.max() <= 1e-12 * diameter


def test_fixed_centre_rows_give_the_centroid_rows_steps(bricard_path):
    """The bordered matrix's columns for the residual and the tangent row do
    not see which centre the rotations turn about: at 20 samples, the Newton
    step M^-1[:3v, :E]*g and the tangent column M^-1[:3v, -1] with rotations
    about the start's centroid, or about a point a diameter away, match those
    with rotations about the sample's centroid to 1e-12 relative."""
    surface, x0 = bricard_path.surface, bricard_path.configs[0]
    diameter = max(np.linalg.norm(a - b) for a in x0 for b in x0)
    n_edges, n3 = len(surface.edges), x0.size
    rng = np.random.default_rng(3)
    for k in np.linspace(0, bricard_path.n_samples - 1, 20).astype(int):
        y = bricard_path.configs[k]
        R = reference_rigidity_matrix(y, surface)
        _, t, W = oracles.reference_rank_test(R, oracles.reference_motion_rows(y))
        g = rng.normal(size=n_edges)

        def columns(T):
            inverse = np.linalg.inv(np.block([[R, W], [np.vstack([T, t]), np.zeros((7, 1))]]))
            return inverse[:n3, :n_edges] @ g, inverse[:n3, -1]

        want = columns(oracles.reference_motion_rows(y))
        for centre in (x0.mean(axis=0), x0.mean(axis=0) + diameter * np.array([1.0, 2.0, 3.0])):
            for a, b in zip(columns(oracles.reference_slice_rows(y, centre)), want):
                assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b), k


@pytest.mark.parametrize("seed", [None, 5, 13])
def test_tangent_lag_is_harmless(monkeypatch, seed):
    """Each step's tangent comes from the inverse at its last corrector
    iterate, O(h^3) from the accepted sample.  Over a full cycle, at every
    50th sample it still agrees, up to sign, with the unit kernel vector of
    R*C at that sample within 1e-6."""
    spec = DEFAULT_BRICARD_SPEC if seed is None else inputs.bricard_spec(random.Random(seed))
    P = make_bricard_type1(spec)
    screened, original = [], flex._screen

    def screen(kf2, inverse, n3):
        screened.append(inverse[:n3, -1] / np.linalg.norm(inverse[:n3, -1]))
        return original(kf2, inverse, n3)

    monkeypatch.setattr(flex, "_screen", screen)
    path = trace_flex(P.vertex_array(), P.surface, n_steps=3300)
    assert len(screened) == path.n_samples - 1  # one screen per accepted sample, 1, 2, ...
    for k in range(50, path.n_samples, 50):
        x = path.configs[k]
        _, kernel, _ = oracles.reference_rank_test(
            reference_rigidity_matrix(x, P.surface), oracles.reference_motion_rows(x))
        t = screened[k - 1]
        assert min(np.linalg.norm(t - kernel), np.linalg.norm(t + kernel)) <= 1e-6, k


# The screen decides when the rank test runs past the start.  Forcing it to
# fire at accepted step k covers both outcomes of the rank test there.


def fire_at(screen, call):
    """``screen`` that fires on its ``call``-th call."""
    calls = 0

    def patched(*args):
        nonlocal calls
        calls += 1
        return calls == call or screen(*args)

    return patched


def moved_singular_values(svd, call, flex_dim):
    """``svd`` whose ``call``-th singular values read a kernel of dimension
    ``flex_dim``, 0 or 2, to the rank test."""
    calls = 0

    def patched(*args, **kwargs):
        nonlocal calls
        calls += 1
        u, s, vt = svd(*args, **kwargs)
        if calls == call:
            s = s.copy()
            if flex_dim == 0:
                s[-1] = s[0]
            else:
                s[-2:] = 0.0
        return u, s, vt

    return patched


@pytest.mark.parametrize("singular", [False, True])
@pytest.mark.parametrize("k", [1, 2, 37])
def test_screen_fired_mid_path_goes_on_by_svd(bricard, monkeypatch, k, singular):
    """Where the screen fires, or the bordered matrix has no inverse at an
    accepted point, and the rank test finds dimension 1, the trace takes
    that SVD's tangent and left null space and goes on, as the reference
    does under the same patch.  Only a step that took no corrector iteration
    inverts at its accepted point: at steps of 1e-4 every step past the
    first, so the (k + 1)-th inverse is step k + 1's."""
    counts = {"svd": 0}
    monkeypatch.setattr(flex, "_svd", counting(counts, "svd", flex._svd))
    kwargs = {}
    if singular:
        kwargs["step"] = 1e-4
        monkeypatch.setattr(flex, "_inv", singular_once(flex._inv, k + 1))
        monkeypatch.setattr(np.linalg, "inv", fail_once(np.linalg.inv, k + 1))
    else:
        monkeypatch.setattr(flex, "_screen", fire_at(flex._screen, k))
        monkeypatch.setattr(oracles, "reference_screen", fire_at(oracles.reference_screen, k))
    path, ref = traced_pair(bricard, n_steps=60, **kwargs)
    if singular:
        assert path.corrector_iters[1:].max() == 0
    assert counts["svd"] == 2 and path.n_samples == 61
    assert_same_path(path, ref)


@pytest.mark.parametrize("flex_dim", [0, 2])
@pytest.mark.parametrize("k", [1, 37])
def test_singular_point_mid_path(bricard, monkeypatch, spy, k, flex_dim):
    """Where the screen fires and the rank test finds another dimension, the
    trace raises with the reference's message and kernel dimension and a
    partial path of k + 1 samples, and takes no angle past its start."""
    monkeypatch.setattr(flex, "_svd", moved_singular_values(flex._svd, 2, flex_dim))
    monkeypatch.setattr(flex, "_screen", fire_at(flex._screen, k))
    angles = spy("principal_angles")
    x0 = bricard.vertex_array()
    with pytest.raises(SingularPointError) as got:
        trace_flex(x0, bricard.surface, n_steps=60)
    assert len(angles) == 1
    monkeypatch.setattr(np.linalg, "svd", moved_singular_values(np.linalg.svd, 2, flex_dim))
    monkeypatch.setattr(oracles, "reference_screen", fire_at(oracles.reference_screen, k))
    with pytest.raises(SingularPointError) as want:
        reference_trace_flex(x0, bricard.surface, n_steps=60)
    assert str(got.value) == str(want.value)
    assert str(got.value) == f"kernel dimension beyond rigid motions is {flex_dim}, not 1"
    assert got.value.flex_dim == want.value.flex_dim == flex_dim
    assert got.value.path.n_samples == k + 1
    assert_same_path(got.value.path, want.value.path)


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diagonal(r))


def test_screen_fires_wherever_the_rank_test_finds_no_unique_tangent():
    """Bordered matrices M = [[R, W], [T.T, 0], [t, 0]] whose R*C has
    prescribed singular values, C spanning the complement of the rigid
    motions T: a kernel of dimension 2 or 3 just inside the cutoff, full
    rank just outside it, and dimension 1.  W has unit columns, random or
    R*C's last left singular vectors; t is random or near the kernel."""
    rng = np.random.default_rng(29)
    verdicts = []
    for _ in range(300):
        nv, n_w = int(rng.choice([6, 8])), int(rng.choice([1, 2]))
        n3 = 3 * nv
        n_edges = n3 - 7 + n_w
        T = oracles.reference_motion_rows(rng.normal(size=(nv, 3)))
        Q = np.linalg.qr(T.T, mode="complete").Q
        C = Q[:, 6:]
        s = np.sort(rng.uniform(0.2, 1.0, size=n_edges))[::-1] * 10.0 ** rng.uniform(-2, 2)
        cutoff = SV_THRESHOLD * max(s[0], 1.0)
        dim = int(rng.choice([0, 1, 2, 3]))
        near = 10.0 ** rng.uniform(-6, 0)  # how far inside the cutoff a kernel lies
        if dim == 0:
            s[-1] = cutoff * (1.0 + 10.0 ** rng.uniform(-3, 3))
        else:
            s[-dim:] = cutoff * near * rng.uniform(0, 1, size=dim)
            s[-dim] = cutoff * (1.0 - near)
        U, V = random_orthogonal(rng, n_edges), random_orthogonal(rng, n3 - 6)
        RC = (U[:, : n3 - 6] * s[: n3 - 6]) @ V.T
        R = RC @ C.T + rng.normal(size=(n_edges, 6)) @ Q[:, :6].T
        if rng.random() < 0.5:
            W = U[:, n3 - 7 :]
        else:
            W = rng.normal(size=(n_edges, n_w))
            W /= np.linalg.norm(W, axis=0)
        t = C @ V[:, -1] + 10.0 ** rng.uniform(-8, 0) * rng.normal(size=n3)
        t /= np.linalg.norm(t)
        M = np.block([[R, W], [np.vstack([T, t]), np.zeros((7, n_w))]])
        flex_dim, _, _ = oracles.reference_rank_test(R, T)
        try:
            inverse = np.linalg.inv(M)
            fired = flex._screen(np.vdot(M, M) * np.vdot(inverse, inverse), inverse, n3)
        except np.linalg.LinAlgError:
            fired = True
        verdicts.append((flex_dim, fired))
        assert fired or flex_dim == 1, (flex_dim, s[-3:], cutoff)
    found = {d for d, _ in verdicts}
    assert {0, 1, 2, 3} <= found
    assert not all(fired for d, fired in verdicts if d == 1)


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


def singular_once(inverse, call):
    """``inverse`` that inverts a zero matrix, which LAPACK finds singular,
    on its ``call``-th call."""
    calls = 0

    def patched(a, out=None):
        nonlocal calls
        calls += 1
        return inverse(np.zeros_like(a) if calls == call else a, out)

    return patched


def test_failed_solve_halves_the_step(bricard, monkeypatch):
    """A singular bordered system fails its attempt like a diverging
    iterate: the step halves, the attempt is counted and the trace goes on.
    Each default step takes one inverse, so the fifth belongs to the fifth
    step."""
    monkeypatch.setattr(flex, "_inv", singular_once(flex._inv, 5))
    monkeypatch.setattr(np.linalg, "inv", fail_once(np.linalg.inv, 5))
    path, ref = traced_pair(bricard, n_steps=20)
    assert path.n_samples == 21
    assert path.step_sizes[3] == 0.01 and path.step_sizes[4] == 0.005
    assert_same_path(path, ref)
    assert path.rejected_attempts == ref.rejected_attempts == 1


def spoiled_once(inverse, call, value, where=...):
    """``inverse`` whose ``call``-th result has ``value`` written into it at
    ``where``, everywhere by default, raising nothing."""
    calls = 0

    def patched(*args):
        nonlocal calls
        calls += 1
        out = inverse(*args)
        if calls == call:
            out[where] = value
        return out

    return patched


# An inverse all NaN or all +-inf makes the Newton step's edge vectors NaN
# (the incidence product meets 0 * inf); one huge finite entry makes one
# coordinate huge, so the residual is infinite at its edges and finite at
# the others.
SPOILS = {"": (np.nan,), "inf": (np.inf,), "-inf": (-np.inf,), "overflow": (1e300, (0, 0))}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("step, call, spoil", [
    pytest.param(step, call, spoil, id="-".join(filter(None, [str(step), str(call), spoil])))
    for step, call in [(0.01, 5), (1e-4, 3)] for spoil in SPOILS])
def test_nan_inverse_fails_like_a_singular_one(bricard, monkeypatch, step, call, spoil):
    """An inverse that comes back NaN, infinite or overflowing acts as the
    inverse of a matrix LAPACK finds singular does at the same call, and
    neither warns.  In the corrector (steps of 0.01, one inverse a step, so
    the fifth is step 5's) its Newton step makes the residual NaN or
    infinite, which fails the attempt: the step halves and one attempt is
    counted.  At a tangent (steps of 1e-4, where every step past the first
    inverts at its accepted point) the screen fires and the rank test
    decides.  Either way the path, and the count of inverses and SVDs,
    equal those at the singular matrix."""
    original, x0 = flex._inv, bricard.vertex_array()
    traced = []
    for patched in (spoiled_once(original, call, *SPOILS[spoil]), singular_once(original, call)):
        counts = {"svd": 0, "inv": 0}
        monkeypatch.setattr(flex, "_svd", counting(counts, "svd", flex._svd))
        monkeypatch.setattr(flex, "_inv", counting(counts, "inv", patched))
        traced.append((trace_flex(x0, bricard.surface, n_steps=20, step=step), counts))
        monkeypatch.undo()
    (path, counts), (singular, singular_counts) = traced
    assert path.n_samples == 21
    assert_same_path(path, singular)
    assert counts == singular_counts and path.rejected_attempts == singular.rejected_attempts
    if step == 0.01:
        assert path.step_sizes[3] == 0.01 and path.step_sizes[4] == 0.005
        assert path.rejected_attempts == 1 and counts == {"svd": 1, "inv": 21}
    else:
        assert path.rejected_attempts == 0 and counts["svd"] == 2


def test_failing_attempts_leak_no_warning(bricard, monkeypatch):
    """Corrector iterates far outside the octahedron (a step cap of 256,
    which halves eight times) and a bordered matrix that LAPACK finds
    singular at every attempt warn of nothing: the inverse's singular
    signal is its NaN, under the tracer's own error state."""
    x0 = bricard.vertex_array()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert trace_flex(x0, bricard.surface, n_steps=12, step=256.0).rejected_attempts == 8
        original = flex._inv
        monkeypatch.setattr(flex, "_inv", lambda M, out: original(np.zeros_like(M), out))
        with pytest.raises(CorrectorDivergenceError) as exc:
            trace_flex(x0, bricard.surface, n_steps=10, tol=1e-300)
    assert exc.value.path.n_samples == 1


CALLER_STATES = {"raise": lambda: np.errstate(all="raise"),
                 "warnings-as-errors": lambda: warnings.catch_warnings(action="error")}


@pytest.mark.parametrize("state", CALLER_STATES)
def test_trace_ignores_the_callers_error_state(bricard, monkeypatch, state):
    """An overflowing Newton step (a 1e300 entry in the fifth inverse, which
    _inv returns without raising) fails its attempt whatever error state
    the caller sets: under np.errstate(all="raise"), and with warnings as
    errors, the path, its step sizes and rejected count equal those under
    the default state.  The caller's error state is back afterwards, also
    after a CorrectorDivergenceError."""
    x0, original = bricard.vertex_array(), flex._inv

    def traced():
        monkeypatch.setattr(flex, "_inv", spoiled_once(original, 5, *SPOILS["overflow"]))
        return trace_flex(x0, bricard.surface, n_steps=20)

    want = traced()
    with CALLER_STATES[state]():
        caller = np.geterr()
        got = traced()
        assert np.geterr() == caller
        monkeypatch.setattr(flex, "_inv", lambda a, out=None: original(np.zeros_like(a), out))
        with pytest.raises(CorrectorDivergenceError):
            trace_flex(x0, bricard.surface, n_steps=10, tol=1e-300)
        assert np.geterr() == caller
    assert_same_path(got, want)
    assert got.step_sizes.tolist() == want.step_sizes.tolist()
    assert got.rejected_attempts == want.rejected_attempts == 1


def test_residual_just_below_tol_everywhere_needs_no_iteration(bricard, monkeypatch):
    """Targets moved by +-0.9 tol at alternate edges, and a step short enough
    that the predicted point keeps that residual: every |g_e| is just below
    tol, yet |g|^2 = 0.81 E tol^2.  The |g|^2 shortcut may decide only above
    2 E tol^2, where some |g_e| > tol for certain, so |g|_inf decides here
    and accepts the predicted point without a corrector iteration."""
    tol, step = 1e-8, 1e-7
    x0 = bricard.vertex_array()
    offsets = 0.9 * tol * (-1.0) ** np.arange(len(bricard.surface.edges))
    monkeypatch.setattr(flex, "squared_lengths", lambda surface, x: squared_lengths(surface, x)
                        + offsets)
    path = trace_flex(x0, bricard.surface, n_steps=1, step=step, tol=tol)
    assert path.corrector_iters.tolist() == [0] and path.rejected_attempts == 0
    C, kernel, _ = rank_test_at(x0, bricard.surface)
    tangent = _start_direction(C @ kernel[0])
    assert path.configs[1].tobytes() == (x0.reshape(-1) + step * tangent).tobytes()
    g = squared_lengths(bricard.surface, path.configs[1]) - squared_lengths(bricard.surface, x0)
    g -= offsets
    assert np.abs(g).max() <= tol < 2**0.5 * np.sqrt(g.dot(g) / len(g))


def damped(inverse, calls, n3, alpha=0.25):
    """``inverse`` whose first ``calls`` results give a Newton step damped by
    ``alpha`` and a NaN stress multiplier, so no bound vouches for it."""
    count = 0

    def patched(*args):
        nonlocal count
        count += 1
        out = inverse(*args)
        if count <= calls:
            out[:n3] *= alpha
            out[n3:] = np.nan
        return out

    return patched


def test_newton_step_meeting_tol_only_at_the_last_iteration_fails(bricard, monkeypatch):
    """The first attempt's first MAX_CORRECTOR_ITERS - 1 Newton steps are
    damped, so its residual stays above tol, and only the last, exact, step
    would meet it.  No residual test follows the last step, so that attempt
    fails as in the reference tracer, and the halved step succeeds."""
    n3 = bricard.vertex_array().size
    monkeypatch.setattr(flex, "_inv", damped(flex._inv, MAX_CORRECTOR_ITERS - 1, n3))
    monkeypatch.setattr(np.linalg, "inv", damped(np.linalg.inv, MAX_CORRECTOR_ITERS - 1, n3))
    path, ref = traced_pair(bricard, n_steps=3)
    assert_same_path(path, ref)
    assert path.rejected_attempts == ref.rejected_attempts == 1
    assert path.step_sizes.tolist() == [0.005] * 3
    assert MAX_CORRECTOR_ITERS not in path.corrector_iters.tolist()
