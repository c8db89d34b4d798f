"""The batched geometry kernel against a per-edge reference.

The reference below is plain Python over 3-tuples (``math`` only); it
shares no helper with ``rigiditylab.geometry``.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from rigiditylab import (
    DegenerateFaceError,
    Polyhedron,
    SimplicialSurface,
    initial_principal_angles,
    invariant_combinations,
    make_bricard_type1,
    make_regular_octahedron,
    make_regular_tetrahedron,
    make_triangulated_cube,
    monitor_flex,
    monte_carlo_dihedral,
    q_basis,
    rigidity_matrix,
    save_series_csv,
    trivial_motion_basis,
    validate_complex,
)
from rigiditylab.geometry import (
    face_areas,
    oriented_volumes,
    principal_angles,
    squared_lengths,
    weighted_angle_sums,
)
from rigiditylab.flex import _inv, _svd
from rigiditylab.models import OCTAHEDRON_FACES

from oracles import reference_motion_rows, whole_path_monitor_series

TWO_PI = 2.0 * math.pi


def sub(p, q):
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2])


def dot(p, q):
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def cross(p, q):
    return (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )


def scale(s, p):
    return (s * p[0], s * p[1], s * p[2])


def unit(p):
    return scale(1.0 / math.sqrt(dot(p, p)), p)


def walks(face, a, b):
    return any(face[k] == a and face[(k + 1) % 3] == b for k in range(3))


def ref_angle(faces, pos, a, b):
    """Oriented-slice dihedral angle at edge (a, b), a < b, and its flag."""
    (f0,) = [f for f in faces if walks(f, a, b)]
    (f1,) = [f for f in faces if walks(f, b, a)]
    e = unit(sub(pos[b], pos[a]))

    def in_face(f):
        (c,) = [v for v in f if v not in (a, b)]
        v = sub(pos[c], pos[a])
        return unit(sub(v, scale(dot(v, e), e)))

    def normal(f):
        p, q, r = (pos[v] for v in f)
        return unit(cross(sub(q, p), sub(r, p)))

    u1, u2 = in_face(f0), in_face(f1)
    n0, n1 = normal(f0), normal(f1)
    w = (n0[0] + n1[0], n0[1] + n1[1], n0[2] + n1[2])
    if math.sqrt(dot(w, w)) <= 1e-9:
        return 0.0, True
    e2 = cross(e, u1)
    a2 = math.atan2(dot(u2, e2), dot(u2, u1)) % TWO_PI
    aw = math.atan2(dot(w, e2), dot(w, u1)) % TWO_PI
    return (a2 if aw <= a2 else TWO_PI - a2), False


def ref_area(pos, f):
    p, q, r = (pos[v] for v in f)
    n = cross(sub(q, p), sub(r, p))
    return 0.5 * math.sqrt(dot(n, n))


def ref_volume(faces, pos):
    return sum(dot(pos[f[0]], cross(pos[f[1]], pos[f[2]])) for f in faces) / 6.0


def as_positions(surface, x):
    return {v: tuple(float(c) for c in x[i]) for i, v in enumerate(surface.vertices)}


MODELS = [make_regular_octahedron, make_triangulated_cube, make_regular_tetrahedron,
          make_bricard_type1]


@pytest.mark.parametrize("make", MODELS)
def test_kernel_matches_reference_on_random_configurations(make):
    P = make()
    S = P.surface
    rng = np.random.default_rng(2024)
    configs = P.vertex_array() + rng.normal(scale=0.3, size=(8, S.n_vertices, 3))
    for x in configs:
        pos = as_positions(S, x)
        values, flags = principal_angles(S, x)
        expected = [ref_angle(S.faces, pos, a, b) for a, b in S.edges]
        assert flags.tolist() == [f for _, f in expected]
        assert values == pytest.approx([v for v, _ in expected], abs=1e-10)
        lengths = [math.dist(pos[a], pos[b]) for a, b in S.edges]
        assert np.sqrt(squared_lengths(S, x)) == pytest.approx(lengths, rel=1e-14)
        assert face_areas(S, x) == pytest.approx(
            [ref_area(pos, f) for f in S.faces], rel=1e-12)
        assert float(oriented_volumes(S, x)) == pytest.approx(
            ref_volume(S.faces, pos), rel=1e-12, abs=1e-12)
        assert float(weighted_angle_sums(S, x, values)) == pytest.approx(
            sum(ell * v for ell, (v, _) in zip(lengths, expected)), rel=1e-12)


def test_path_batch_equals_per_configuration(bricard_path):
    """A (K, V, 3) stack gives, bit for bit, what each configuration gives."""
    S = bricard_path.surface
    configs = bricard_path.configs[::7]
    values, flags = principal_angles(S, configs)
    one_by_one = [principal_angles(S, x) for x in configs]
    assert np.array_equal(values, np.array([v for v, _ in one_by_one]))
    assert np.array_equal(flags, np.array([f for _, f in one_by_one]))
    for fn in (squared_lengths, face_areas, oriented_volumes):
        assert np.array_equal(fn(S, configs), np.array([fn(S, x) for x in configs]))
    angles = bricard_path.lifted_angles[::7]
    assert np.array_equal(
        weighted_angle_sums(S, configs, angles),
        np.array([weighted_angle_sums(S, x, a) for x, a in zip(configs, angles)]),
    )
    assert np.array_equal(values, bricard_path.raw_angles[::7])


def test_folded_edge_flagged():
    # Vertex 3 lies in the plane of face (0, 1, 2) on vertex 2's side of
    # edge (0, 1): faces (0, 1, 2) and (0, 3, 1) fold onto each other there.
    S = SimplicialSurface([(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)])
    x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.3, 1.0, 0.0], [0.7, 0.5, 0.0]])
    values, flags = principal_angles(S, x)
    k = S.edge_index((0, 1))
    assert flags[k] and values[k] == 0.0
    pos = as_positions(S, x)
    expected = [ref_angle(S.faces, pos, a, b) for a, b in S.edges]
    assert flags.tolist() == [f for _, f in expected]


FOLD_SURFACE = SimplicialSurface([(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)])


def near_fold(rng, eps):
    """The surface of test_folded_edge_flagged with wing c1 turned by eps
    (either sign) about edge (0, 1) from wing c0, at random radii and
    offsets along the edge, then moved by a random proper rigid motion.
    Also returns det(b - a, c0 - a, c1 - a) of the float points, exactly."""
    phi = rng.uniform(0.0, TWO_PI)
    r, t = rng.uniform(0.5, 2.0, size=2), rng.uniform(-1.0, 2.0, size=2)
    x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                  [t[0], r[0] * np.cos(phi), r[0] * np.sin(phi)],
                  [t[1], r[1] * np.cos(phi + eps), r[1] * np.sin(phi + eps)]])
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.linalg.det(q))
    x = x @ q.T + rng.normal(size=3)
    a, b, c0, c1 = ([Fraction(float(v)) for v in p] for p in x)
    return x, dot(sub(b, a), cross(sub(c0, a), sub(c1, a)))


NEAR_FOLD_EPS = [1e-6, 1e-7, 1e-8, 5e-9, 2e-9, 1e-9, 1e-10, 1e-12]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("eps", NEAR_FOLD_EPS)
def test_near_fold_angle_is_the_oriented_angle(eps, sign):
    """Just past a fold the angle is eps on the side where the oriented
    tetrahedron on the edge and its wings is positive, 2*pi - eps on the
    other, or 0 where the summed normals cancel and the edge is flagged."""
    rng = np.random.default_rng(NEAR_FOLD_EPS.index(eps))
    k = FOLD_SURFACE.edge_index((0, 1))
    for _ in range(25):
        x, det = near_fold(rng, sign * eps)
        assert (det > 0) == (sign > 0)
        (value,), (flag,) = principal_angles(FOLD_SURFACE, x, [k])
        if flag:
            assert value == 0.0
        elif det > 0:
            assert abs(value - eps) <= 1e-12
        else:
            assert abs(value - (TWO_PI - eps)) <= 1e-12


def test_monte_carlo_reads_the_small_angle_near_a_fold():
    """The oracle counts the directions within the oriented angle, so 5e-9
    past a fold on the small side it reads about 0, not about 2*pi."""
    rng = np.random.default_rng(5)
    for _ in range(6):
        x, det = near_fold(rng, 5e-9)
        assert det > 0
        P = Polyhedron(FOLD_SURFACE, dict(enumerate(x)))
        assert monte_carlo_dihedral(P, (0, 1), n_samples=10_000) < 0.1


def test_mis_oriented_faces_raise_value_error():
    faces = list(OCTAHEDRON_FACES)
    faces[0] = (faces[0][0], faces[0][2], faces[0][1])
    S = SimplicialSurface(faces)
    assert "orientation" in validate_complex(faces).conditions_failed()
    _, status = S.wing_table  # building the tables does not raise
    assert status.any()
    x = make_regular_octahedron().vertex_array()
    with pytest.raises(ValueError, match="opposite orientations"):
        principal_angles(S, x)


def test_open_surface_and_degenerate_face_errors():
    S = SimplicialSurface([(0, 1, 2)])
    x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="exactly two faces"):
        principal_angles(S, x)
    octa = make_regular_octahedron()
    x = octa.vertex_array()
    x[octa.surface.vertex_index(2)] = 0.5 * (x[0] + x[1])  # face (0, 1, 2) flat
    with pytest.raises(DegenerateFaceError) as exc:
        principal_angles(octa.surface, x)
    assert exc.value.face == (0, 1, 2)


def test_trivial_basis_equals_cross_product_construction():
    """Bit for bit, signed zeros included: with exact zero coordinates the
    sign of a zero can flip a column of the QR factor."""
    rng = np.random.default_rng(5)
    mirrored = [M().vertex_array() * [1.0, s, -1.0]
                for M in (make_regular_octahedron, make_triangulated_cube) for s in (1.0, -1.0)]
    for x in [*mirrored, rng.normal(size=(7, 3))]:
        q = np.linalg.qr(np.ascontiguousarray(reference_motion_rows(x).T)).Q
        assert trivial_motion_basis(x).tobytes() == q.tobytes()


def bordered_systems(bricard_path):
    """The tracer's square matrix [[R, W], [T.T, 0], [t, 0]] at every tenth
    configuration of the path and at the cube, where T holds the rigid
    motions, C spans their complement, t is the unit kernel vector of R*C
    and W its left null space."""
    cube = make_triangulated_cube()
    configs = [(bricard_path.surface, x) for x in bricard_path.configs[::10]]
    for surface, x in [*configs, (cube.surface, cube.vertex_array())]:
        T = reference_motion_rows(x)
        C = np.linalg.qr(T.T, mode="complete").Q[:, 6:]
        R = rigidity_matrix(x, surface)
        u, _, vt = np.linalg.svd(R @ C)
        yield np.block([[R, u[:, -1:]], [np.vstack([T, C @ vt[-1]]), np.zeros((7, 1))]])


def test_direct_lapack_calls_equal_numpy_linalg(bricard_path):
    for B in bordered_systems(bricard_path):
        for got, want in zip(_svd(B), np.linalg.svd(B)):
            assert got.tobytes() == want.tobytes()
        assert _inv(B).tobytes() == np.linalg.inv(B).tobytes()


def test_direct_lapack_calls_raise_on_nan(bricard_path):
    B = next(bordered_systems(bricard_path))
    B[3, 4] = np.nan
    with pytest.raises(np.linalg.LinAlgError) as got:
        _svd(B)
    with pytest.raises(np.linalg.LinAlgError) as want:
        np.linalg.svd(B)
    assert str(got.value) == str(want.value)


def test_direct_inverse_raises_on_singular_matrix(bricard_path):
    B = next(bordered_systems(bricard_path))
    B[:, 7] = 0.0
    with pytest.raises(np.linalg.LinAlgError) as got:
        _inv(B)
    with pytest.raises(np.linalg.LinAlgError) as want:
        np.linalg.inv(B)
    assert str(got.value) == str(want.value)


def test_series_csv_columns_equal_monitor_series(bricard, bricard_path):
    """The CSV's monitor columns are the one-pass series and set the report's deviations."""
    combos = invariant_combinations(
        q_basis(bricard.exact_edge_lengths()), initial_principal_angles(bricard)
    )
    report = monitor_flex(bricard_path, combos, bricard)
    lines = save_series_csv(bricard_path).splitlines()
    header = lines[1].split(",")
    rows = [[float(c) for c in line.split(",")] for line in lines[2:]]
    volume = np.array([r[header.index("volume")] for r in rows])
    weighted = np.array([r[header.index("weighted_angle_sum")] for r in rows])
    path = bricard_path
    want = whole_path_monitor_series(path.surface, path.configs, path.lifted_angles)
    assert volume.tobytes() == want[0].tobytes()
    assert weighted.tobytes() == want[1].tobytes()
    assert report.volume_deviation == np.max(np.abs(volume - volume[0]))
    assert report.weighted_angle_sum_deviation == np.max(np.abs(weighted - weighted[0]))


def test_length_drift_matches_direct_recomputation(bricard_path):
    S = bricard_path.surface
    worst = 0.0
    x0 = as_positions(S, bricard_path.configs[0])
    for x in bricard_path.configs:
        pos = as_positions(S, x)
        for a, b in S.edges:
            start = math.dist(x0[a], x0[b])
            worst = max(worst, abs(math.dist(pos[a], pos[b]) - start) / start)
    assert bricard_path.length_drift() == pytest.approx(worst, abs=1e-14)


def test_weighted_sums_independent_of_angle_layout(bricard_path):
    """Column-major angles give the same bytes as the row-major ones."""
    S, configs = bricard_path.surface, bricard_path.configs
    angles = bricard_path.lifted_angles
    assert angles.flags.c_contiguous
    assert (weighted_angle_sums(S, configs, np.asfortranarray(angles)).tobytes()
            == weighted_angle_sums(S, configs, angles).tobytes())
