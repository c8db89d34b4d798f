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
