import numpy as np
import pytest

from rigiditylab import (
    DegenerateFaceError,
    Polyhedron,
    SimplicialSurface,
    check_nondegenerate,
    edge_length_vector,
    edge_lengths,
    make_regular_octahedron,
    monte_carlo_dihedral,
    oriented_volume,
    principal_dihedral,
    save_off,
    weighted_angle_sum,
)

from oracles import hull_volume

TWO_PI = 2.0 * np.pi


def pillow():
    """Doubly covered triangle: valid complex, every edge folds onto itself."""
    S = SimplicialSurface([(0, 1, 2), (0, 2, 1)])
    coords = {0: (0.0, 0.0, 0.0), 1: (1.0, 0.0, 0.0), 2: (0.0, 1.0, 0.0)}
    return Polyhedron(S, coords)


def test_octahedron_face_areas(octahedron):
    areas = check_nondegenerate(octahedron)
    assert np.allclose(areas, np.sqrt(3) / 2, atol=1e-14)


def test_right_triangle_area():
    S = SimplicialSurface([(0, 1, 2)])
    P = Polyhedron(S, {0: (0, 0, 0), 1: (1, 0, 0), 2: (0, 1, 0)})
    assert check_nondegenerate(P, tol=0.0) == [pytest.approx(0.5)]


def test_collinear_face_rejected():
    S = SimplicialSurface([(0, 1, 2)])
    P = Polyhedron(S, {0: (0, 0, 0), 1: (1, 0, 0), 2: (2, 0, 0)})
    with pytest.raises(DegenerateFaceError) as exc:
        check_nondegenerate(P)
    assert exc.value.face == (0, 1, 2)
    assert exc.value.area == 0.0


def test_octahedron_edge_lengths(octahedron):
    lengths = edge_lengths(octahedron)
    assert len(lengths) == 12
    assert np.allclose(list(lengths.values()), np.sqrt(2), atol=1e-15)


def test_three_four_five_length():
    S = SimplicialSurface([(0, 1, 2)])
    P = Polyhedron(S, {0: (0, 0, 0), 1: (3, 4, 0), 2: (0, 1, 1)})
    assert edge_lengths(P)[(0, 1)] == pytest.approx(5.0)


def test_zero_length_edge_allowed_in_lengths():
    S = SimplicialSurface([(0, 1, 2)])
    P = Polyhedron(S, {0: (0, 0, 0), 1: (0, 0, 0), 2: (0, 1, 0)})
    assert edge_lengths(P)[(0, 1)] == 0.0


def test_coords_are_views_of_the_one_coordinate_array():
    P = make_regular_octahedron()  # a fresh model: the edit below changes it
    for v in P.surface.vertices:
        assert P.point(v) is P.coords[v]
        assert np.shares_memory(P.point(v), P._vertex_array)
    assert not np.shares_memory(P.vertex_array(), P._vertex_array)
    P.coords[0][0] = 3.0
    assert save_off(P).splitlines()[3] == "3.0 0.0 0.0"
    assert edge_length_vector(P)[P.surface.edge_index((0, 1))] == np.sqrt(10.0)


def test_cube_true_edge_and_diagonal(cube):
    assert principal_dihedral(cube, (0, 1)).principal_value == pytest.approx(
        1.5 * np.pi, abs=1e-12
    )
    # the split diagonal of the bottom face is flat
    assert principal_dihedral(cube, (0, 3)).principal_value == pytest.approx(
        np.pi, abs=1e-12
    )


def test_reversed_orientation_complements(cube):
    reversed_faces = [(f[0], f[2], f[1]) for f in cube.surface.faces]
    flipped = Polyhedron(SimplicialSurface(reversed_faces), cube.coords)
    assert principal_dihedral(flipped, (0, 1)).principal_value == pytest.approx(
        0.5 * np.pi, abs=1e-12
    )
    for edge in cube.surface.edges:
        a = principal_dihedral(cube, edge).principal_value
        b = principal_dihedral(flipped, edge).principal_value
        assert a + b == pytest.approx(TWO_PI, abs=1e-9)


def test_octahedron_angle_closed_form(octahedron):
    expected = TWO_PI - np.arccos(-1.0 / 3.0)
    for edge in octahedron.surface.edges:
        assert principal_dihedral(octahedron, edge).principal_value == pytest.approx(
            expected, abs=1e-12
        )


def test_tetrahedron_angle_closed_form(tetrahedron):
    expected = TWO_PI - np.arccos(1.0 / 3.0)
    for edge in tetrahedron.surface.edges:
        assert principal_dihedral(tetrahedron, edge).principal_value == pytest.approx(
            expected, abs=1e-12
        )


def test_angle_invariant_under_translation_along_edge(bricard):
    edge = (0, 1)
    base = principal_dihedral(bricard, edge).principal_value
    direction = bricard.point(1) - bricard.point(0)
    direction /= np.linalg.norm(direction)
    shifted = Polyhedron(
        bricard.surface,
        {v: p + 0.37 * direction for v, p in bricard.coords.items()},
    )
    assert principal_dihedral(shifted, edge).principal_value == pytest.approx(
        base, abs=1e-12
    )


def test_degenerate_fold_flagged():
    P = pillow()
    for edge in P.surface.edges:
        d = principal_dihedral(P, edge)
        assert d.degenerate_flag
        assert d.principal_value == 0.0


def test_monte_carlo_matches_deterministic(cube, octahedron):
    n = 10**5
    for P, edge in [(cube, (0, 1)), (cube, (0, 3)), (octahedron, (0, 1))]:
        det = principal_dihedral(P, edge).principal_value
        mc = monte_carlo_dihedral(P, edge, n_samples=n, seed=3)
        p_hat = mc / TWO_PI
        bound = 3.0 * TWO_PI * np.sqrt(max(p_hat * (1 - p_hat), 1e-6) / n)
        assert abs(det - mc) <= bound


def test_cube_volume_and_reversal(cube):
    assert oriented_volume(cube) == pytest.approx(1.0, abs=1e-14)
    reversed_faces = [(f[0], f[2], f[1]) for f in cube.surface.faces]
    flipped = Polyhedron(SimplicialSurface(reversed_faces), cube.coords)
    assert oriented_volume(flipped) == pytest.approx(-1.0, abs=1e-14)


def test_octahedron_volume_against_hull(octahedron):
    assert oriented_volume(octahedron) == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert oriented_volume(octahedron) == pytest.approx(
        hull_volume(octahedron.vertex_array()), abs=1e-9
    )


def test_volume_rigid_motion_invariant(octahedron):
    rng = np.random.default_rng(11)
    base = oriented_volume(octahedron)
    for _ in range(5):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0, TWO_PI)
        K = np.array(
            [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
        )
        R = np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)
        t = rng.normal(size=3)
        moved = Polyhedron(
            octahedron.surface,
            {v: R @ p + t for v, p in octahedron.coords.items()},
        )
        assert abs(oriented_volume(moved) - base) <= 1e-9 * abs(base)


def test_volume_negates_under_point_reflection(octahedron):
    base = oriented_volume(octahedron)
    mirrored = Polyhedron(
        octahedron.surface, {v: -p for v, p in octahedron.coords.items()}
    )
    assert oriented_volume(mirrored) == pytest.approx(-base, abs=1e-12)


def test_weighted_angle_sum_cube(cube):
    expected = 12 * 1.5 * np.pi + 6 * np.sqrt(2) * np.pi
    assert weighted_angle_sum(cube) == pytest.approx(expected, abs=1e-9)


def test_weighted_angle_sum_octahedron(octahedron):
    phi = TWO_PI - np.arccos(-1.0 / 3.0)
    assert weighted_angle_sum(octahedron) == pytest.approx(
        12 * np.sqrt(2) * phi, abs=1e-9
    )


def test_weighted_angle_sum_warns_on_degenerate():
    P = pillow()
    with pytest.warns(UserWarning, match="degenerate"):
        assert weighted_angle_sum(P) == 0.0
