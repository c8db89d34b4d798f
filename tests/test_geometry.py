import numpy as np
import pytest

from rigiditylab import (
    DegenerateFaceError,
    Polyhedron,
    SimplicialSurface,
    all_dihedrals,
    check_nondegenerate,
    edge_length_vector,
    monte_carlo_dihedral,
    oriented_volume,
    polyhedron_from_config,
    principal_dihedral,
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale, message", [
    (1e150, r"^face \(0, 1, 2\) has an area that is not finite$"),
    (1e160, r"^edge \(0, 1\) has a length that is not finite$"),
], ids=["area", "length"])
def test_overflowing_length_or_area_is_named(octahedron, scale, message):
    """Scaled by 1e150 the octahedron's face areas overflow, and by 1e160
    its edge lengths too, so the default tolerance would be infinite: a
    plain ValueError names the first such edge or face, with no numpy
    warning, where an area of inf was returned or called degenerate."""
    P = Polyhedron(octahedron.surface, dict(enumerate(scale * octahedron.vertex_array())))
    with pytest.raises(ValueError, match=message) as exc:
        check_nondegenerate(P)
    assert type(exc.value) is ValueError


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_point_is_named_at_construction(octahedron, value):
    """A float point that is not finite raises at construction and names
    its vertex, before any kernel reads it."""
    coords = dict(enumerate(octahedron.vertex_array()))
    coords[4] = (0.0, value, 0.0)
    message = rf"^vertex 4: point \[0\.0, {value}, 0\.0\] is not finite$"
    with pytest.raises(ValueError, match=message):
        Polyhedron(octahedron.surface, coords)


def test_octahedron_edge_lengths(octahedron):
    lengths = edge_length_vector(octahedron)
    assert len(lengths) == 12
    assert np.allclose(lengths, np.sqrt(2), atol=1e-15)


def test_three_four_five_length():
    S = SimplicialSurface([(0, 1, 2)])
    P = Polyhedron(S, {0: (0, 0, 0), 1: (3, 4, 0), 2: (0, 1, 1)})
    assert edge_length_vector(P)[S.edge_index((0, 1))] == pytest.approx(5.0)


def test_zero_length_edge_allowed_in_lengths():
    S = SimplicialSurface([(0, 1, 2)])
    P = Polyhedron(S, {0: (0, 0, 0), 1: (0, 0, 0), 2: (0, 1, 0)})
    assert edge_length_vector(P)[S.edge_index((0, 1))] == 0.0


def test_cube_true_edge_and_diagonal(cube):
    assert principal_dihedral(cube, (0, 1)) == pytest.approx(
        1.5 * np.pi, abs=1e-12
    )
    # the split diagonal of the bottom face is flat
    assert principal_dihedral(cube, (0, 3)) == pytest.approx(
        np.pi, abs=1e-12
    )


def test_reversed_orientation_complements(cube):
    reversed_faces = [(f[0], f[2], f[1]) for f in cube.surface.faces]
    flipped = polyhedron_from_config(SimplicialSurface(reversed_faces), cube.vertex_array())
    assert principal_dihedral(flipped, (0, 1)) == pytest.approx(
        0.5 * np.pi, abs=1e-12
    )
    for edge in cube.surface.edges:
        a = principal_dihedral(cube, edge)
        b = principal_dihedral(flipped, edge)
        assert a + b == pytest.approx(TWO_PI, abs=1e-9)


def test_octahedron_angle_closed_form(octahedron):
    expected = TWO_PI - np.arccos(-1.0 / 3.0)
    for edge in octahedron.surface.edges:
        assert principal_dihedral(octahedron, edge) == pytest.approx(
            expected, abs=1e-12
        )


def test_tetrahedron_angle_closed_form(tetrahedron):
    expected = TWO_PI - np.arccos(1.0 / 3.0)
    for edge in tetrahedron.surface.edges:
        assert principal_dihedral(tetrahedron, edge) == pytest.approx(
            expected, abs=1e-12
        )


def test_angle_invariant_under_translation_along_edge(bricard):
    edge = (0, 1)
    base = principal_dihedral(bricard, edge)
    x = bricard.vertex_array()
    S = bricard.surface
    direction = x[S.vertex_index(1)] - x[S.vertex_index(0)]
    direction /= np.linalg.norm(direction)
    shifted = polyhedron_from_config(S, x + 0.37 * direction)
    assert principal_dihedral(shifted, edge) == pytest.approx(
        base, abs=1e-12
    )


def test_degenerate_fold_flagged():
    P = pillow()
    values, flags = all_dihedrals(P)
    for edge in P.surface.edges:
        i = P.surface.edge_index(edge)
        assert flags[i]
        assert values[i] == 0.0


def test_monte_carlo_matches_deterministic(cube, octahedron):
    n = 10**5
    for P, edge in [(cube, (0, 1)), (cube, (0, 3)), (octahedron, (0, 1))]:
        det = principal_dihedral(P, edge)
        mc = monte_carlo_dihedral(P, edge, n_samples=n, seed=3)
        p_hat = mc / TWO_PI
        bound = 3.0 * TWO_PI * np.sqrt(max(p_hat * (1 - p_hat), 1e-6) / n)
        assert abs(det - mc) <= bound


def test_cube_volume_and_reversal(cube):
    assert oriented_volume(cube) == pytest.approx(1.0, abs=1e-14)
    reversed_faces = [(f[0], f[2], f[1]) for f in cube.surface.faces]
    flipped = polyhedron_from_config(SimplicialSurface(reversed_faces), cube.vertex_array())
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
        moved = polyhedron_from_config(
            octahedron.surface, octahedron.vertex_array() @ R.T + t
        )
        assert abs(oriented_volume(moved) - base) <= 1e-9 * abs(base)


def test_volume_negates_under_point_reflection(octahedron):
    base = oriented_volume(octahedron)
    mirrored = polyhedron_from_config(octahedron.surface, -octahedron.vertex_array())
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
