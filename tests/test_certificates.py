import random
from fractions import Fraction

import numpy as np
import pytest

from perfbench import inputs
from rigiditylab import (
    BUILTIN_MODELS,
    FlexPath,
    INCONCLUSIVE,
    INDEPENDENT_EXACT,
    InvariantCombination,
    OCTAHEDRON_FACES,
    Polyhedron,
    RIGID,
    RIGID_PRESUMED,
    SimplicialSurface,
    constant_angle_edges,
    edge_length_vector,
    half_turn_edge_pairs,
    initial_principal_angles,
    invariant_combinations,
    is_q_independent,
    make_bricard_type1,
    make_model,
    monitor_flex,
    normalize_sqrt,
    q_basis,
    rigidity_certificate,
)
from rigiditylab import lengths as lengths_module

from oracles import full_scan_constant_angle_edges, full_scan_invariant_combinations


def test_constant_edges_all_distinct():
    lengths = [normalize_sqrt(d) for d in (2, 3, 5, 7)]
    assert constant_angle_edges(q_basis(lengths)) == (0, 1, 2, 3)


def test_constant_edges_paired_lengths_empty(bricard):
    span = q_basis(bricard.exact_edge_lengths())
    assert constant_angle_edges(span) == ()


def test_constant_edges_single_unique():
    lengths = [normalize_sqrt(2), normalize_sqrt(2), normalize_sqrt(3)]
    assert constant_angle_edges(q_basis(lengths)) == (2,)


def test_certificate_distinct_octahedron(distinct_octahedron):
    cert = rigidity_certificate(distinct_octahedron, mode="exact")
    assert cert.verdict == RIGID
    assert cert.evidence.kind == "independent_exact"
    # every edge has a unique radicand, so every angle is predicted constant
    assert cert.constant_angle_edges == tuple(range(12))


def test_certificate_regular_octahedron(octahedron):
    cert = rigidity_certificate(octahedron, mode="exact")
    assert cert.verdict == INCONCLUSIVE
    assert cert.caveat is not None
    relation = cert.evidence.relation
    assert relation is not None
    nz = [c for c in relation if c]
    assert sorted(nz) == [-1, 1]


def test_certificate_numeric_mode(distinct_octahedron, octahedron):
    cert = rigidity_certificate(distinct_octahedron, mode="numeric", height=10**6)
    assert cert.verdict == RIGID_PRESUMED
    assert cert.height == 10**6
    cert = rigidity_certificate(octahedron, mode="numeric")
    assert cert.verdict == INCONCLUSIVE
    assert cert.evidence.relation is not None


def test_certificate_rejects_inconsistent_declared_lengths(octahedron):
    doubled = {v: tuple(2 * c for c in p) for v, p in octahedron.exact_coords.items()}
    coords = dict(enumerate(octahedron.vertex_array()))
    bogus = Polyhedron(octahedron.surface, coords, exact_coords=doubled)
    with pytest.raises(ValueError, match="disagrees"):
        rigidity_certificate(bogus, mode="exact")


# A Bricard type-1 octahedron found by collocation, vertex i on row i, read
# as the exact decimals printed: squared lengths with up to 68 digits.
FLEXIBLE_OCTAHEDRON_DECIMALS = """
-0.2833082234230908 0.21324557506731326 0.10964250098753983
-1.9145649441110815 0.5549549427177971 0.175588971164231
-0.4983818977036038 0.9797079457980331 -0.6305723653916457
-0.05753885363425368 1.839915692799422 0.608887356948591
0.44320255578664824 3.067826167305465 -0.4290815937513143
0.8997407687834291 1.577820620494147 0.16553513004259843
"""


def _exact_octahedron(points: dict) -> Polyhedron:
    return Polyhedron(SimplicialSurface(OCTAHEDRON_FACES), points, exact_coords=points)


def test_certificate_exact_on_full_precision_decimals():
    rows = FLEXIBLE_OCTAHEDRON_DECIMALS.strip().splitlines()
    P = _exact_octahedron(
        {v: tuple(Fraction(t) for t in row.split()) for v, row in enumerate(rows)}
    )
    # The decimals only approximate the flexible octahedron; as exact
    # rationals its twelve lengths are independent, so the paper's test
    # certifies that nearby polyhedron rigid.
    cert = rigidity_certificate(P, mode="exact")
    assert cert.verdict == RIGID
    assert cert.constant_angle_edges == tuple(range(12))


@pytest.mark.parametrize("digits", [160, 400])
def test_certificate_exact_on_long_coordinates(digits):
    rng = random.Random(digits)
    scale = 10**digits
    P = _exact_octahedron({
        v: tuple(Fraction(rng.randint(-scale, scale), scale // 10) for _ in range(3))
        for v in range(6)
    })
    cert = rigidity_certificate(P, mode="exact")
    assert cert.verdict == RIGID
    assert cert.constant_angle_edges == tuple(range(12))
    lengths = P.exact_edge_lengths()
    assert [ell.value() for ell in lengths] == pytest.approx(edge_length_vector(P), rel=1e-12)


def test_combinations_regular_octahedron(octahedron):
    span = q_basis(octahedron.exact_edge_lengths())
    combs = invariant_combinations(span, initial_principal_angles(octahedron))
    assert len(combs) == 1
    assert combs[0].coeffs == (1,) * 12
    phi = 2 * np.pi - np.arccos(-1.0 / 3.0)
    assert combs[0].claimed_constant == pytest.approx(12 * phi, abs=1e-9)


def test_combinations_mixed_lengths():
    lengths = [normalize_sqrt(2), normalize_sqrt(8), normalize_sqrt(3)]
    combs = invariant_combinations(q_basis(lengths), np.zeros(3))
    assert [c.coeffs for c in combs] == [(1, 2, 0), (0, 0, 1)]


def test_combinations_bricard_pairs(bricard):
    span = q_basis(bricard.exact_edge_lengths())
    combs = invariant_combinations(span, initial_principal_angles(bricard))
    assert len(combs) == 6
    pairs = half_turn_edge_pairs(bricard.surface)
    for comb in combs:
        support = tuple(i for i, c in enumerate(comb.coeffs) if c)
        assert support in pairs
        a, b = support
        assert comb.coeffs[a] == comb.coeffs[b] > 0


def test_combination_coefficients_nonzero_integers():
    with pytest.raises(AssertionError):
        InvariantCombination(label="x", coeffs=(0, 0), claimed_constant=0.0)


def test_span_readers_match_full_scan():
    models = [make_model(name) for name in sorted(BUILTIN_MODELS)]
    for seed in (3, 17):
        rng = random.Random(seed)
        for _ in range(4):
            models += [
                inputs.rational_octahedron(rng),
                inputs.rational_cube(rng),
                make_bricard_type1(inputs.bricard_spec(rng)),
            ]
    for P in models:
        span = q_basis(P.exact_edge_lengths())
        angles = initial_principal_angles(P)
        assert constant_angle_edges(span) == full_scan_constant_angle_edges(span)
        got = [(c.label, c.coeffs, c.claimed_constant.hex())
               for c in invariant_combinations(span, angles)]
        want = [(label, coeffs, constant.hex())
                for label, coeffs, constant in full_scan_invariant_combinations(span, angles)]
        assert got == want


def seeded_polyhedra(seeds):
    """Rational octahedra, cubes and Bricard specs drawn from each seed."""
    for seed in seeds:
        rng = random.Random(seed)
        for _ in range(3):
            yield inputs.rational_octahedron(rng)
            yield inputs.rational_cube(rng)
            yield make_bricard_type1(inputs.bricard_spec(rng))


def test_exact_certificate_partitions_the_lengths_once(distinct_octahedron, bricard,
                                                       monkeypatch):
    """The verdict, its witness and the constant-angle edges all come from
    one partition of the lengths into classes."""
    partition, calls = lengths_module._classes, []

    def counted(lengths):
        calls.append(len(lengths))
        return partition(lengths)

    monkeypatch.setattr(lengths_module, "_classes", counted)
    for P in (distinct_octahedron, bricard, *seeded_polyhedra([4])):
        calls.clear()
        rigidity_certificate(P, mode="exact")
        assert calls == [P.surface.n_edges]


def test_rigid_exactly_when_every_angle_is_constant():
    """Lengths are independent iff each is alone in its class, iff no
    rational combination of the others reaches it."""
    verdicts = set()
    for P in (*(make_model(name) for name in sorted(BUILTIN_MODELS)), *seeded_polyhedra([0, 1])):
        cert = rigidity_certificate(P, mode="exact")
        all_edges = tuple(range(P.surface.n_edges))
        assert (cert.verdict == RIGID) == (cert.constant_angle_edges == all_edges)
        verdicts.add(cert.verdict)
    assert verdicts == {RIGID, INCONCLUSIVE}
    assert is_q_independent([]).kind == INDEPENDENT_EXACT


def test_branch_shift_changes_value_by_multiple_of_two_pi(bricard):
    span = q_basis(bricard.exact_edge_lengths())
    angles = initial_principal_angles(bricard)
    combs = invariant_combinations(span, angles)
    for comb in combs:
        for edge in range(len(angles)):
            shifted = angles.copy()
            shifted[edge] += 2 * np.pi
            diff = comb.value(shifted) - comb.value(angles)
            assert diff == pytest.approx(2 * np.pi * comb.coeffs[edge], abs=1e-9)
            ratio = diff / (2 * np.pi)
            assert abs(ratio - round(ratio)) < 1e-12


def test_monitor_trivial_rotation_path(octahedron):
    x0 = octahedron.vertex_array()
    configs = []
    for angle in (0.0, 0.4, 0.8):
        c, s = np.cos(angle), np.sin(angle)
        configs.append(x0 @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]).T)
    path = FlexPath(octahedron.surface, np.array(configs))
    span = q_basis(octahedron.exact_edge_lengths())
    combs = invariant_combinations(span, initial_principal_angles(octahedron))
    report = monitor_flex(path, combs, octahedron)
    assert max(report.combination_deviations) <= 1e-9
    assert report.volume_deviation <= 1e-9
    assert report.weighted_angle_sum_deviation <= 1e-9


def test_monitor_bricard_path(bricard, bricard_path):
    span = q_basis(bricard.exact_edge_lengths())
    combs = invariant_combinations(span, bricard_path.raw_angles[0])
    report = monitor_flex(bricard_path, combs, bricard)
    for comb, dev in zip(combs, report.combination_deviations):
        assert dev <= 1e-6 * sum(abs(c) for c in comb.coeffs)
    total_length = float(bricard_path.initial_lengths.sum())
    assert report.weighted_angle_sum_deviation <= 1e-6 * total_length
