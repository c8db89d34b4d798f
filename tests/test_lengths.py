import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import inputs
from rigiditylab import (
    BUILTIN_MODELS,
    ExactLength,
    constant_angle_edges,
    edge_length_vector,
    find_integer_relation,
    is_q_independent,
    make_bricard_type1,
    make_model,
    normalize_sqrt,
    q_basis,
)
from rigiditylab.lengths import (
    _relation_lattice,
    clear_to_integers,
    relation_residual_exact,
)

from oracles import fraction_clear_to_integers, mpmath_integer_relation

SQUAREFREE = [1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23]


def render(ell: ExactLength, digits: int = 30) -> str:
    with mp.workdps(digits + 10):
        value = mp.mpf(ell.r.numerator) / ell.r.denominator * mp.sqrt(ell.d)
        return mp.nstr(value, digits + 1)


def test_normalize_examples():
    assert normalize_sqrt(8) == ExactLength(Fraction(2), 2)
    assert normalize_sqrt(1) == ExactLength(Fraction(1), 1)
    assert normalize_sqrt(Fraction(9, 2)) == ExactLength(Fraction(3, 2), 2)
    with pytest.raises(ValueError, match="^radicand must be positive$"):
        ExactLength(Fraction(1), 0)


def test_normalize_roundtrip_random():
    rng = np.random.default_rng(23)
    for _ in range(200):
        q = Fraction(int(rng.integers(1, 5000)), int(rng.integers(1, 5000)))
        ell = normalize_sqrt(q)
        assert ell.squared() == q
        assert ell.r > 0


def test_normalize_large_prime_cofactor():
    p = 15485863  # prime beyond the trial-division bound
    ell = normalize_sqrt(4 * p)
    assert ell == ExactLength(Fraction(2), p)


def test_normalize_square_of_large_prime():
    p = 1000003
    assert normalize_sqrt(p * p) == ExactLength(Fraction(p), 1)


def test_normalize_large_semiprime():
    p, q = 1000003, 1000033
    ell = normalize_sqrt(p * q)
    assert ell == ExactLength(Fraction(1), p * q)


def test_normalize_large_inputs_are_decided():
    p = 2000003  # p**3 has no prime factor below 1000 and is not a square
    assert normalize_sqrt(p**3) == ExactLength(Fraction(1), p**3)
    assert normalize_sqrt(2**63) == ExactLength(Fraction(2**31), 2)


def test_q_basis_examples():
    span = q_basis([normalize_sqrt(2), normalize_sqrt(8), normalize_sqrt(3)])
    assert [b.d for b in span.basis] == [2, 3]
    assert span.coefficients == [
        [Fraction(1), Fraction(0)],
        [Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(1)],
    ]

    span = q_basis([ExactLength(Fraction(1), 2)] * 12)
    assert [b.d for b in span.basis] == [2]
    assert all(row == [Fraction(1)] for row in span.coefficients)

    span = q_basis([ExactLength(Fraction(3), 1), ExactLength(Fraction(5, 2), 1)])
    assert [b.d for b in span.basis] == [1]
    assert [row[0] for row in span.coefficients] == [Fraction(3), Fraction(5, 2)]

    with pytest.raises(ValueError, match="^empty length list$"):
        q_basis([])


def test_q_basis_reconstruction_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        lengths = [
            ExactLength(
                Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 12))),
                int(SQUAREFREE[rng.integers(0, len(SQUAREFREE))]),
            )
            for _ in range(int(rng.integers(1, 10)))
        ]
        span = q_basis(lengths)
        for row, ell in zip(span.coefficients, lengths):
            # exactly one nonzero coefficient, on the length's own radicand,
            # so the row reconstructs its length exactly
            assert sum(1 for c in row if c) == 1
            j = next(k for k, c in enumerate(row) if c)
            assert span.basis[j].d == ell.d
            assert row[j] == ell.r


def test_independence_examples():
    assert (
        is_q_independent([normalize_sqrt(2), normalize_sqrt(3), normalize_sqrt(5)]).kind
        == "independent_exact"
    )
    verdict = is_q_independent([normalize_sqrt(2), normalize_sqrt(8)])
    assert verdict.kind == "dependent"
    assert verdict.relation == (2, -1)
    verdict = is_q_independent(
        [ExactLength(Fraction(1), 1), ExactLength(Fraction(2), 1)]
    )
    assert verdict.relation == (2, -1)


def test_relation_annihilates_exactly():
    lengths = [normalize_sqrt(Fraction(9, 2)), normalize_sqrt(2), normalize_sqrt(5)]
    verdict = is_q_independent(lengths)
    assert verdict.kind == "dependent"
    assert relation_residual_exact(lengths, verdict.relation)


# Primes above the trial-division table: a radicand p**2 * q keeps its square
# factor, yet its length is a rational multiple of one with radicand q.
BIG_PRIMES = [1009, 1013, 10007, 1000003]
PARTITION_RADICANDS = st.one_of(
    st.sampled_from(SQUAREFREE),
    st.sampled_from(BIG_PRIMES),
    st.builds(lambda p, q: p * p * q, st.sampled_from(BIG_PRIMES), st.sampled_from(BIG_PRIMES)),
    st.builds(lambda p, d: p * p * d, st.sampled_from(BIG_PRIMES), st.sampled_from(SQUAREFREE)),
)
PARTITION_LENGTHS = st.lists(
    st.builds(
        ExactLength,
        st.builds(Fraction, st.integers(1, 30), st.integers(1, 30)),
        PARTITION_RADICANDS,
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(PARTITION_LENGTHS)
def test_length_classes_match_sympy_squarefree_parts(lengths):
    factors = [sympy.factorint(ell.d) for ell in lengths]
    keys = [math.prod(p ** (e % 2) for p, e in f.items()) for f in factors]
    # length i is scaled[i] * sqrt(keys[i])
    scaled = [
        ell.r * math.prod(p ** (e // 2) for p, e in f.items()) for ell, f in zip(lengths, factors)
    ]

    span = q_basis(lengths)
    radicands = [b.d for b in span.basis]
    assert radicands == sorted(radicands) and all(b.r == 1 for b in span.basis)
    columns = []
    for ell, row in zip(lengths, span.coefficients):
        (j,) = [k for k, c in enumerate(row) if c]
        assert row[j] > 0 and row[j] ** 2 * radicands[j] == ell.squared()
        columns.append(j)
    assert len(set(zip(keys, columns))) == len(set(keys)) == len(radicands)

    unique = tuple(i for i, k in enumerate(keys) if keys.count(k) == 1)
    assert constant_angle_edges(span) == unique

    verdict = is_q_independent(lengths)
    repeats = [i for i, k in enumerate(keys) if k in keys[:i]]
    if not repeats:
        assert verdict.kind == "independent_exact"
    else:
        j = repeats[0]
        i0 = keys.index(keys[j])
        assert verdict.kind == "dependent"
        assert [i for i, c in enumerate(verdict.relation) if c] == [i0, j]
        a, b = verdict.relation[i0], verdict.relation[j]
        assert a > 0 and math.gcd(a, b) == 1 and a * scaled[i0] + b * scaled[j] == 0
        assert relation_residual_exact(lengths, verdict.relation)

    n = len(lengths)
    for relation in ([1] * n, [(-1) ** i for i in range(n)], [i + 1 for i in range(n)]):
        vanishes = all(
            sum(c * v for c, v, k in zip(relation, scaled, keys) if k == key) == 0
            for key in set(keys)
        )
        assert relation_residual_exact(lengths, relation) == vanishes


def test_find_relation_examples():
    assert find_integer_relation([1.0, 0.5], height=10**3) == (1, -2)

    with mp.workdps(40):
        s2 = mp.nstr(mp.sqrt(2), 31)
        s3 = mp.nstr(mp.sqrt(3), 31)
        one_plus = mp.nstr(1 + mp.sqrt(2), 31)
    assert find_integer_relation(["1.0", s2, one_plus]) == (1, 1, -1)
    assert find_integer_relation(["1.0", s2, s3], height=10**6) is None


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: the search tries only single rows of the reduced "
    "basis, and here the relation is the difference of two of them",
)
def test_find_relation_that_is_a_sum_of_reduced_rows():
    # v0 + 2*v1 - v2 == 0 exactly, yet each short reduced row leaves 5e-13.
    values = ["0.0000000000005", "1.0000000000005", "2.0000000000015"]
    assert find_integer_relation(values) == (1, 2, -1)


def test_find_relation_input_validation():
    with pytest.raises(ValueError):
        find_integer_relation([])
    with pytest.raises(ValueError):
        find_integer_relation([1.0] * 65)
    with pytest.raises(ValueError):
        find_integer_relation([float("nan"), 1.0])
    for bad in (float("inf"), "nan", "inf"):
        with pytest.raises(ValueError, match="values must be finite"):
            find_integer_relation([bad, 1.0])
    with pytest.raises(ValueError, match="^coefficient height must be at least 1, got 0$"):
        find_integer_relation([1.0, 2.0], height=0)


def relation_search_inputs():
    """Value lists as callers pass them, three exact ties of the column, and
    relations on either side of the tight and of the loose residual bound."""
    builtin = [make_model(name) for name in sorted(BUILTIN_MODELS)]
    seeded = []
    for seed in (5, 9001):
        rng = random.Random(seed)
        for _ in range(4):
            seeded += [
                inputs.rational_octahedron(rng),
                inputs.rational_cube(rng),
                make_bricard_type1(inputs.bricard_spec(rng)),
            ]
    cases = [[repr(float(v)) for v in edge_length_vector(P)] for P in builtin + seeded]
    cases += [list(edge_length_vector(P)) for P in builtin]
    cases += [[render(ell) for ell in P.exact_edge_lengths()] for P in builtin]
    ties = ["0.0000000000005", "1.0000000000005", "2.0000000000015"]
    bounds = [
        ["1", "1.0000000000000000000000001"],
        ["1", "1.0000000000000000000000003"],
        ["100000000000000000000", "100000000000000000000.0000019"],
        ["100000000000000000000", "100000000000000000000.000003"],
    ]
    return cases + [[t] for t in ties] + [ties] + bounds


def test_relation_search_matches_mpmath_rule():
    for values in relation_search_inputs():
        column, relation = mpmath_integer_relation(values)
        lattice = _relation_lattice([Fraction(v) for v in values])
        assert [row[-1] for row in lattice] == column
        assert find_integer_relation(values) == relation


def test_heuristic_agrees_with_exact_random():
    rng = np.random.default_rng(17)
    for trial in range(25):
        n = int(rng.integers(2, 7))
        with_duplicate = trial % 2 == 0
        radicands = list(rng.choice(SQUAREFREE[1:], size=n, replace=False))
        if with_duplicate:
            radicands[-1] = radicands[0]
        lengths = [
            ExactLength(
                Fraction(int(rng.integers(1, 12)), int(rng.integers(1, 8))), int(d)
            )
            for d in radicands
        ]
        exact = is_q_independent(lengths)
        numeric = find_integer_relation([render(ell) for ell in lengths])
        if exact.kind == "dependent":
            assert numeric is not None
            assert relation_residual_exact(lengths, numeric)
        else:
            assert numeric is None


MIXED_RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.integers(-10**6, 10**6).map(Fraction),
    st.builds(Fraction, st.integers(-10**9, 10**9), st.sampled_from([2, 3, 5, 7, 11, 13, 49])),
    st.fractions(max_denominator=10**6),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(MIXED_RATIONALS, max_size=12))
def test_clear_to_integers_matches_fraction_products(values):
    assert clear_to_integers(values) == fraction_clear_to_integers(values)
