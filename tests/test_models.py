import json
import math
from fractions import Fraction

import numpy as np
import pytest

from rigiditylab import (
    BricardSpec,
    DegenerateSpecError,
    ExactLength,
    NonTriangularFaceError,
    ParseError,
    check_nondegenerate,
    edge_length_vector,
    half_turn_edge_pairs,
    infinitesimal_flex_dim,
    invariant_combinations,
    load_off,
    make_bricard_type1,
    make_model,
    monitor_flex,
    oriented_volume,
    polyhedron_from_config,
    q_basis,
    rigidity_certificate,
    save_off,
    save_report_json,
    save_series_csv,
    validate_complex,
)
from rigiditylab.models import BRICARD_VERTEX_SYMMETRY

from oracles import hull_volume


def test_generators_validate_and_stay_oriented(
    octahedron, cube, tetrahedron, bricard, distinct_octahedron
):
    for P in (octahedron, cube, tetrahedron, bricard, distinct_octahedron):
        assert validate_complex(P.surface.faces).passed
    with pytest.raises(ValueError, match=r"^unknown model 'nope'; available: \['bricard-default'"):
        make_model("nope")


def test_octahedron_model(octahedron):
    assert octahedron.surface.n_edges == 12
    assert oriented_volume(octahedron) == pytest.approx(4 / 3, abs=1e-12)
    exact = octahedron.exact_edge_lengths()
    assert all(ell == ExactLength(Fraction(1), 2) for ell in exact)


def test_cube_model(cube):
    assert cube.surface.n_edges == 18
    assert cube.surface.n_faces == 12
    assert oriented_volume(cube) == pytest.approx(1.0, abs=1e-14)


def test_tetrahedron_model(tetrahedron):
    assert oriented_volume(tetrahedron) == pytest.approx(8 / 3, abs=1e-12)
    assert oriented_volume(tetrahedron) == pytest.approx(
        hull_volume(tetrahedron.vertex_array()), abs=1e-9
    )


def test_bricard_edge_pairs_exactly_equal(bricard):
    exact = bricard.exact_edge_lengths()
    pairs = half_turn_edge_pairs(bricard.surface)
    assert len(pairs) == 6
    for i, j in pairs:
        assert exact[i] == exact[j]
    radicands = {exact[i].d for i, _ in pairs}
    assert len(radicands) == 6  # six distinct radicands for the default spec


def test_bricard_default_is_flexible(bricard):
    assert infinitesimal_flex_dim(bricard.vertex_array(), bricard.surface) == 1
    # Float entries are read through their repr, so they give the default's points.
    floats = BricardSpec(a=(2.0, 0.3, 1.1), b=(-0.4, 1.7, -0.9), n=(0.5, -0.6, 2.2))
    assert floats.points() == bricard.exact_coords
    assert make_bricard_type1(floats).exact_coords == bricard.exact_coords


def test_bricard_degenerate_specs():
    with pytest.raises(DegenerateSpecError):
        make_bricard_type1(BricardSpec(a=("2.0", "0.3", "1.1"),
                                       b=("-0.4", "1.7", "-0.9"),
                                       n=(0, 0, "2.2")))
    with pytest.raises(DegenerateSpecError):
        make_bricard_type1(BricardSpec(a=(0, 0, 1), b=("-0.4", "1.7", "-0.9"),
                                       n=("0.5", "-0.6", "2.2")))
    with pytest.raises(DegenerateSpecError, match=r"^face \(2, 0, 1\) is degenerate$"):
        make_bricard_type1(BricardSpec(a=(1, 0, 0), b=(2, 0, 0), n=(3, 0, 0)))


def test_bricard_mirrored_angle_series(bricard, bricard_path):
    """The half turn reverses the surface orientation, so paired lifted
    series mirror each other: their sum stays constant along the flex."""
    eidx = {e: i for i, e in enumerate(bricard.surface.edges)}
    raw0 = bricard_path.raw_angles[0]
    for e in bricard.surface.edges:
        a, b = BRICARD_VERTEX_SYMMETRY[e[0]], BRICARD_VERTEX_SYMMETRY[e[1]]
        image = (a, b) if a < b else (b, a)
        i, j = eidx[e], eidx[image]
        assert raw0[i] + raw0[j] == pytest.approx(2 * np.pi, abs=1e-9)
        pair_sum = bricard_path.lifted_angles[:, i] + bricard_path.lifted_angles[:, j]
        assert pair_sum.max() - pair_sum.min() <= 1e-9


def test_distinct_length_octahedron(distinct_octahedron):
    P = distinct_octahedron
    exact = P.exact_edge_lengths()
    radicands = [ell.d for ell in exact]
    assert len(set(radicands)) == 12
    assert all(ell.r == 1 for ell in exact)
    assert all(d % (k * k) for d in radicands for k in range(2, math.isqrt(d) + 1))
    lengths = edge_length_vector(P)
    assert np.allclose(lengths, [ell.value() for ell in exact], rtol=0, atol=1e-12)
    assert infinitesimal_flex_dim(P.vertex_array(), P.surface) == 0
    assert min(check_nondegenerate(P)) >= 1e-2 * float(np.max(lengths)) ** 2


def test_off_round_trip(octahedron, bricard):
    for P in (octahedron, bricard):
        text = save_off(P)
        loaded = load_off(text)
        assert save_off(loaded) == text
        assert loaded.surface.n_faces == P.surface.n_faces
        assert oriented_volume(loaded) == pytest.approx(oriented_volume(P), abs=1e-12)
    # vertex_array() is a copy, and save_off writes the points a polyhedron stores.
    x = octahedron.vertex_array()
    x[0, 0] = 3.0
    assert not np.shares_memory(x, octahedron.vertex_array())
    assert save_off(octahedron).splitlines()[3] == "1.0 0.0 0.0"
    moved = polyhedron_from_config(octahedron.surface, x)
    assert save_off(moved).splitlines()[3] == "3.0 0.0 0.0"
    assert edge_length_vector(moved)[moved.surface.edge_index((0, 1))] == np.sqrt(10.0)


def test_off_comments_and_header():
    P = load_off("# a comment\nOFF\n3 1 0\n0 0 0\n1 0 0 # inline\n0 1 0\n3 0 1 2\n")
    assert P.surface.n_faces == 1

    with pytest.raises(ParseError) as exc:
        load_off("NOT_OFF\n3 1 0\n")
    assert exc.value.line == 1


def test_off_non_triangular_face():
    text = "OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n4 0 1 2 3\n"
    with pytest.raises(NonTriangularFaceError):
        load_off(text)


def test_off_bad_counts_and_indices():
    with pytest.raises(ParseError):
        load_off("OFF\n3 1\n")
    with pytest.raises(ParseError):
        load_off("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n")


TRIANGLE = "0 0 0\n1 0 0\n0 1 0\n"


@pytest.mark.parametrize("text, line, message", [
    ("", 1, "empty file"),
    ("# a comment\n\n", 1, "empty file"),
    ("OFF\n", 1, "missing counts line"),
    ("OFF\n3 one 0\n", 2, "counts must be integers, got '3 one 0'"),
    ("OFF\n3 -1 0\n" + TRIANGLE, 2, "counts must be nonnegative, got '3 -1 0'"),
    ("OFF\n-1 1 0\n3 0 1 2\n", 2, "counts must be nonnegative, got '-1 1 0'"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n", 4, "expected 3 vertex and 1 face lines"),
    ("OFF\n3 1 0\n0 0 0\n1 0\n0 1 0\n3 0 1 2\n", 4, "expected 3 coordinates, got '1 0'"),
    ("OFF\n3 1 0\n0 0 0\n1 0 x\n0 1 0\n3 0 1 2\n", 4, "bad coordinate in '1 0 x'"),
    ("OFF\n3 1 0\n" + TRIANGLE + "3 0 1 2.0\n", 6, "bad face line '3 0 1 2.0'"),
])
def test_off_parse_errors_name_their_line(text, line, message):
    with pytest.raises(ParseError) as exc:
        load_off(text)
    assert type(exc.value) is ParseError
    assert exc.value.line == line and str(exc.value) == f"line {line}: {message}"


def test_report_json_schema(bricard, bricard_path):
    cert = rigidity_certificate(bricard, mode="exact")
    span = q_basis(bricard.exact_edge_lengths())
    combs = invariant_combinations(span, bricard_path.raw_angles[0])
    monitoring = monitor_flex(bricard_path, combs, bricard)
    text = save_report_json(cert, combs, monitoring, edges=bricard.surface.edges)
    report = json.loads(text)
    assert report["format_version"] == 1
    assert report["verdict"] == "inconclusive"
    assert report["mode"] == "exact"
    assert len(report["relations"]) == 1
    assert report["constant_angle_edges"] == []
    assert len(report["combinations"]) == 6
    for comb in report["combinations"]:
        assert set(comb) == {"label", "coeffs", "constant", "max_deviation"}
        assert comb["max_deviation"] is not None
    assert set(report["monitors"]) == {"volume", "weighted_angle_sum"}


def test_report_json_without_monitoring(octahedron):
    cert = rigidity_certificate(octahedron, mode="exact")
    text = save_report_json(cert, [], edges=octahedron.surface.edges)
    report = json.loads(text)
    assert report["verdict"] == "inconclusive"
    assert report["monitors"] is None


def test_series_csv(bricard_path):
    text = save_series_csv(bricard_path)
    lines = text.strip().split("\n")
    assert lines[0] == "# format_version: 1"
    header = lines[1].split(",")
    assert header[0] == "t"
    assert header[-2:] == ["volume", "weighted_angle_sum"]
    assert len(header) == 2 + 12 + 1
    assert len(lines) == 2 + bricard_path.n_samples
    first = lines[2].split(",")
    assert float(first[0]) == 0.0
