"""The integer LLL reproduces the rational-arithmetic reduction exactly."""

import math
import random
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from perfbench import inputs
from rigiditylab import edge_length_vector, make_bricard_type1, make_model
from rigiditylab.lengths import _lll_reduce, _relation_lattice

from oracles import fraction_lll, rational_rank


def relation_lattice(values):
    """The lattice find_integer_relation reduces for these values."""
    return _relation_lattice([Fraction(v) for v in values])


def length_lattice(P):
    return relation_lattice([repr(float(v)) for v in edge_length_vector(P)])


def gram_schmidt(rows):
    """Squared Gram-Schmidt norms B and coefficients mu, in Fractions."""
    bstar, B = [], []
    mu = [[Fraction(0)] * len(rows) for _ in rows]
    for k, row in enumerate(rows):
        v = [Fraction(x) for x in row]
        for j in range(k):
            mu[k][j] = sum(Fraction(x) * y for x, y in zip(row, bstar[j])) / B[j]
            v = [x - mu[k][j] * y for x, y in zip(v, bstar[j])]
        bstar.append(v)
        B.append(sum(x * x for x in v))
    return B, mu


def test_matches_fraction_lll_on_relation_lattices():
    lattices = []
    for seed in (5, 11):
        rng = random.Random(seed)
        for _ in range(3):
            for P in (
                inputs.rational_octahedron(rng),
                inputs.rational_cube(rng),
                make_bricard_type1(inputs.bricard_spec(rng)),
            ):
                lattices.append(length_lattice(P))
    # bricard-default has equal-length pairs, so its reduction meets exact
    # half-integer mu values: the tie rule is exercised there.
    lattices.append(length_lattice(make_model("bricard-default")))
    lattices.append(relation_lattice([repr(math.sqrt(k)) for k in range(2, 20)]))
    for rows in lattices:
        assert _lll_reduce(rows) == fraction_lll(rows)


def test_matches_fraction_lll_on_larger_bases():
    # Generic bases of 6 to 10 rows with entries up to 1e4, beyond what
    # integer_bases draws: swaps two or more rows below kmax and long
    # size-reduction chains.
    rng = random.Random(21)
    for n in range(6, 11):
        for _ in range(3):
            m = n + rng.randint(0, 2)
            rows = [[rng.randint(-10**4, 10**4) for _ in range(m)] for _ in range(n)]
            assert rational_rank([[Fraction(x) for x in row] for row in rows]) == n
            assert _lll_reduce(rows) == fraction_lll(rows)


@st.composite
def integer_bases(draw):
    n = draw(st.integers(2, 5))
    m = draw(st.integers(n, 6))
    entry = st.integers(-30, 30)
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    assume(rational_rank([[Fraction(x) for x in row] for row in rows]) == n)
    return rows


@settings(max_examples=150, deadline=None, derandomize=True)
@given(integer_bases())
def test_reduced_and_equal_to_oracle(rows):
    reduced = _lll_reduce(rows)
    assert reduced == fraction_lll(rows)
    B, mu = gram_schmidt(reduced)
    for k in range(1, len(reduced)):
        assert all(abs(mu[k][j]) <= Fraction(1, 2) for j in range(k))
        assert B[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * B[k - 1]


def test_single_row_unchanged():
    assert _lll_reduce([[3, -7, 12]]) == [[3, -7, 12]]
