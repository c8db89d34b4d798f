"""The Bricard conservation checks test the tracer and the symmetry.

A half turn (type 1) or a plane reflection (type 2) maps these octahedra
onto themselves with the face orientation reversed, so every pair of edges
it swaps has theta_e + theta_sigma(e) = 2*pi whether the octahedron flexes
or not.  Every combination predicted for them has equal coefficients on
such a pair, so its conservation follows from the symmetry alone; these
tests pin that identity on unflexed configurations.  The negative control
shows that ``monitor_flex`` does report a combination the symmetry does
not fix.
"""

from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rigiditylab import (
    BRICARD_FACES,
    BricardSpec,
    DegenerateFaceError,
    DegenerateSpecError,
    InvariantCombination,
    Polyhedron,
    SimplicialSurface,
    check_nondegenerate,
    half_turn_edge_pairs,
    make_bricard_type1,
    monitor_flex,
    trace_flex,
)
from rigiditylab.geometry import principal_angles

TWO_PI = 2.0 * np.pi
SYMMETRY_TOL = 1e-12

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=7)
points = st.tuples(rationals, rationals, rationals)


def assert_pairs_sum_to_two_pi(surface, x, pairs):
    angles, folded = principal_angles(surface, x)
    assume(not folded.any())
    for i, j in pairs:
        assert abs(angles[i] + angles[j] - TWO_PI) <= SYMMETRY_TOL


@settings(max_examples=50, deadline=None, derandomize=True)
@given(points, points, points)
def test_half_turn_pairs_sum_to_two_pi(a, b, n):
    try:
        P = make_bricard_type1(BricardSpec(a=a, b=b, n=n))
    except DegenerateSpecError:
        assume(False)
    assert_pairs_sum_to_two_pi(P.surface, P.vertex_array(), half_turn_edge_pairs(P.surface))


# The reflection x -> -x fixes the opposite vertices 2 and 3 (they lie in
# its plane) and swaps the opposite pairs 0 <-> 4 and 1 <-> 5, which maps
# BRICARD_FACES onto itself with the face orientation kept.
REFLECTION = {0: 4, 1: 5, 2: 2, 3: 3, 4: 0, 5: 1}


@settings(max_examples=50, deadline=None, derandomize=True)
@given(points, points, st.tuples(rationals, rationals), st.tuples(rationals, rationals))
def test_reflection_pairs_sum_to_two_pi(p, q, yz2, yz3):
    mirror = lambda r: (-r[0], r[1], r[2])
    exact = {0: p, 1: q, 2: (Fraction(0), *yz2), 3: (Fraction(0), *yz3),
             4: mirror(p), 5: mirror(q)}
    surface = SimplicialSurface(BRICARD_FACES)
    P = Polyhedron(surface, {v: [float(c) for c in r] for v, r in exact.items()})
    try:
        check_nondegenerate(P)
    except DegenerateFaceError:
        assume(False)
    pairs = set()
    for a, b in surface.edges:
        i = surface.edge_index((a, b))
        j = surface.edge_index(tuple(sorted((REFLECTION[a], REFLECTION[b]))))
        pairs.add((min(i, j), max(i, j)))
    assert len(pairs) == 6 and all(i != j for i, j in pairs)
    assert_pairs_sum_to_two_pi(surface, P.vertex_array(), sorted(pairs))


def test_monitor_reports_unpredicted_combination():
    P = make_bricard_type1()
    path = trace_flex(P.vertex_array(), P.surface, n_steps=300, step=0.01)
    combinations = []
    for i, j in half_turn_edge_pairs(P.surface):
        coeffs = [0] * P.surface.n_edges
        coeffs[i], coeffs[j] = 1, -1
        start = float(path.lifted_angles[0, i] - path.lifted_angles[0, j])
        combinations.append(InvariantCombination(f"e{i} - e{j}", tuple(coeffs), start))
    report = monitor_flex(path, combinations)
    assert min(report.combination_deviations) > 0.1
