"""Exact edge lengths: the cached integer path equals per-edge Fraction arithmetic."""

import random
from fractions import Fraction

import pytest

from perfbench import inputs
from rigiditylab import (
    ExactLength,
    Polyhedron,
    make_bricard_type1,
    make_model,
    make_regular_tetrahedron,
    polyhedron_from_config,
)

from oracles import fraction_exact_lengths

TETRAHEDRON = make_regular_tetrahedron().surface


def exact_polyhedron(surface, exact):
    floats = {v: [float(Fraction(c)) for c in p] for v, p in exact.items()}
    return Polyhedron(surface, floats, exact_coords=exact)


@pytest.mark.parametrize("seed", [5, 9001])
def test_seeded_inputs_match_oracle(seed):
    rng = random.Random(seed)
    for _ in range(8):
        for P in (
            inputs.rational_octahedron(rng),
            inputs.rational_cube(rng),
            make_bricard_type1(inputs.bricard_spec(rng)),
        ):
            assert P.exact_edge_lengths() == fraction_exact_lengths(P)


@pytest.mark.parametrize("name", ["cube", "octahedron", "tetrahedron", "bricard-default"])
def test_builtin_models_match_oracle(name):
    P = make_model(name)
    assert P.exact_edge_lengths() == fraction_exact_lengths(P)


def test_mixed_coordinate_types():
    P = exact_polyhedron(
        TETRAHEDRON,
        {
            0: (0, "3/7", Fraction(1, 2)),
            1: ("-2", 1.5, 0),
            2: (0.25, Fraction(-5, 3), "1/3"),
            3: (1, -0.75, "2"),
        },
    )
    assert P.exact_edge_lengths() == fraction_exact_lengths(P)


def test_calls_return_fresh_equal_lists(cube):
    first = cube.exact_edge_lengths()
    second = cube.exact_edge_lengths()
    assert first == second
    assert first is not second
    first[0] = ExactLength(Fraction(7), 7)
    first.append(first[1])
    assert cube.exact_edge_lengths() == second == fraction_exact_lengths(cube)


def test_coincident_vertices_raise_on_every_call():
    P = exact_polyhedron(
        TETRAHEDRON, {0: (0, 0, 0), 1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 0)}
    )
    for _ in range(2):
        with pytest.raises(ValueError, match="expected a positive rational"):
            P.exact_edge_lengths()


def test_no_exact_data_raises_on_every_call(tetrahedron):
    P = polyhedron_from_config(tetrahedron.surface, tetrahedron.vertex_array())
    for _ in range(2):
        with pytest.raises(ValueError, match="no exact coordinate or length data"):
            P.exact_edge_lengths()


def test_exact_points_are_checked_at_construction(tetrahedron):
    x = dict(enumerate(tetrahedron.vertex_array()))
    exact = dict(tetrahedron.exact_coords)
    del exact[3]
    with pytest.raises(ValueError, match=r"exact coordinates .* \(missing \[3\], extra \[\]\)"):
        Polyhedron(tetrahedron.surface, x, exact_coords=exact)
    exact[3], exact[7] = tetrahedron.exact_coords[3], (0, 0, 0)
    with pytest.raises(ValueError, match=r"\(missing \[\], extra \[7\]\)"):
        Polyhedron(tetrahedron.surface, x, exact_coords=exact)
    del exact[7]
    exact[2] = exact[2][:2]
    with pytest.raises(ValueError, match=r"vertex 2: expected a 3-vector, got shape \(2,\)"):
        Polyhedron(tetrahedron.surface, x, exact_coords=exact)


@pytest.mark.parametrize("vertex, point, reason", [
    (0, ("a", 0, 0), "Invalid literal for Fraction: 'a'"),
    (2, (0, float("nan"), 0), "cannot convert NaN to integer ratio"),
    (3, (0, 0, float("inf")), "cannot convert Infinity to integer ratio"),
    (1, (0, None, 0), ""),
])
def test_non_rational_exact_point_is_named_at_construction(tetrahedron, vertex, point, reason):
    """Each exact point becomes Fractions once, when the polyhedron is built:
    a coordinate that is not a rational number raises there and names its
    vertex, not at the first exact read."""
    x = dict(enumerate(tetrahedron.vertex_array()))
    exact = {**tetrahedron.exact_coords, vertex: point}
    message = rf"^vertex {vertex}: exact point .* is not rational"
    with pytest.raises(ValueError, match=message) as got:
        Polyhedron(tetrahedron.surface, x, exact_coords=exact)
    assert reason in str(got.value)


def test_exact_coords_are_the_polyhedrons_own(tetrahedron):
    """The polyhedron keeps the Fraction points it took at construction:
    changing the caller's mapping, or a point in it, afterwards changes
    neither ``exact_coords`` nor the exact lengths, which stay one form."""
    exact = {v: list(p) for v, p in tetrahedron.exact_coords.items()}
    P = exact_polyhedron(tetrahedron.surface, exact)
    exact[0] = (5, 5, 5)
    exact[1][0] = 7
    assert P.exact_coords == {0: (1, 1, 1), 1: (1, -1, -1), 2: (-1, 1, -1), 3: (-1, -1, 1)}
    assert all(type(c) is Fraction for p in P.exact_coords.values() for c in p)
    assert P.exact_edge_lengths() == fraction_exact_lengths(P)
    assert P.exact_edge_lengths() == fraction_exact_lengths(make_regular_tetrahedron())
