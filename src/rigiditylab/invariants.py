"""Rigidity certificates and flex-invariant angle combinations.

A polyhedron whose edge lengths are linearly independent over the rationals
is rigid; exact lengths are independent iff no two are rational multiples
of each other, and for numeric lengths a lattice search gives a "presumed"
verdict qualified by the coefficient height it checked.  Whenever lengths
are rationally dependent, each basis element of their rational span yields
an integer combination of lifted dihedral angles that must stay constant
along any flex; monitoring those combinations (plus enclosed volume and the
length-weighted angle sum) is the numerical check of that prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flex import FlexPath
from .geometry import Polyhedron, edge_length_vector, monitor_series, principal_angles
from .lengths import (
    DEPENDENT,
    INDEPENDENT_EXACT,
    INDEPENDENT_UP_TO_HEIGHT,
    IndependenceVerdict,
    SpanBasis,
    clear_to_integers,
    find_integer_relation,
    is_q_independent,
    q_basis,
)

# Relative tolerance of the exact-versus-measured edge-length cross-check.
LENGTH_TOL = 1e-9

RIGID = "rigid"
RIGID_PRESUMED = "rigid_presumed"
INCONCLUSIVE = "inconclusive"

DEPENDENCE_CAVEAT = (
    "a rational dependence among edge lengths does not imply flexibility; "
    "the independence condition is sufficient for rigidity only"
)


@dataclass
class RigidityCertificate:
    """Verdict of the length-independence rigidity test.

    ``verdict`` is one of RIGID, RIGID_PRESUMED, INCONCLUSIVE.  RIGID is
    only ever issued on exact evidence; RIGID_PRESUMED carries the height
    bound of the heuristic search.  ``constant_angle_edges`` lists canonical
    edge indices whose length lies outside the rational span of the others,
    so their lifted dihedral angle cannot move during any flex.
    """

    verdict: str
    mode: str
    evidence: IndependenceVerdict
    constant_angle_edges: tuple[int, ...] = ()
    height: int | None = None
    caveat: str | None = None

    def __post_init__(self):
        if self.verdict == RIGID:
            assert self.evidence.kind == INDEPENDENT_EXACT
        if self.verdict == RIGID_PRESUMED:
            assert self.height is not None


@dataclass
class InvariantCombination:
    """Integer coefficient vector over edges whose angle sum is conserved.

    One combination arises per basis element of the rational span of the
    edge lengths: the rational coefficients of the lengths on that basis
    element, cleared to integers by their common denominator.  Coefficients
    are integers and never all zero.
    """

    label: str
    coeffs: tuple[int, ...]
    claimed_constant: float

    def __post_init__(self):
        assert any(self.coeffs), "coefficients must not be all zero"
        assert all(isinstance(c, int) for c in self.coeffs)

    def value(self, angles: np.ndarray) -> float:
        return float(np.dot(self.coeffs, angles))


def _basis_edges(span: SpanBasis) -> list[list[int]]:
    """The edges on each basis element, in one scan of the coefficients:
    every length r*sqrt(d) has exactly one nonzero coefficient."""
    edges: list[list[int]] = [[] for _ in span.basis]
    for i, row in enumerate(span.coefficients):
        (j,) = [k for k, c in enumerate(row) if c]
        edges[j].append(i)
    return edges


def constant_angle_edges(span: SpanBasis) -> tuple[int, ...]:
    """Edges whose length no rational combination of the others can reach,
    the sole members of their length classes (one basis element each);
    their dihedral angles are predicted constant along every flex."""
    return tuple(sorted(edges[0] for edges in _basis_edges(span) if len(edges) == 1))


def rigidity_certificate(
    P: Polyhedron, mode: str = "exact", height: int = 10**6
) -> RigidityCertificate:
    """Decide rigidity from rational (in)dependence of the edge lengths.

    Exact mode requires exact lengths on the polyhedron (from its exact
    coordinates); they are cross-checked against the float edge lengths,
    so exact points that differ from the float ones cannot go unnoticed.
    Numeric mode runs the lattice-reduction relation search on the float
    lengths and can only ever certify rigidity "up to height".
    """
    if mode not in ("exact", "numeric"):
        raise ValueError(f"mode must be 'exact' or 'numeric', got {mode!r}")
    float_lengths = edge_length_vector(P)
    if mode == "exact":
        exact = P.exact_edge_lengths()
        for ell, f in zip(exact, float_lengths):
            if abs(ell.value() - f) > LENGTH_TOL * max(f, 1.0):
                raise ValueError(
                    f"exact length {ell} disagrees with measured length {f:.12g}"
                )
        verdict = is_q_independent(exact)
        constant = constant_angle_edges(q_basis(exact))
        if verdict.kind == INDEPENDENT_EXACT:
            return RigidityCertificate(RIGID, "exact", verdict, constant)
        return RigidityCertificate(
            INCONCLUSIVE, "exact", verdict, constant, caveat=DEPENDENCE_CAVEAT
        )
    relation = find_integer_relation([repr(float(v)) for v in float_lengths], height)
    if relation is None:
        verdict = IndependenceVerdict(INDEPENDENT_UP_TO_HEIGHT, height=height)
        return RigidityCertificate(
            RIGID_PRESUMED, "numeric", verdict, height=height
        )
    verdict = IndependenceVerdict(DEPENDENT, relation=relation)
    return RigidityCertificate(
        INCONCLUSIVE, "numeric", verdict, caveat=DEPENDENCE_CAVEAT
    )


def invariant_combinations(
    span: SpanBasis, initial_angles: np.ndarray
) -> list[InvariantCombination]:
    """One conserved integer combination per basis element of the span.

    ``initial_angles`` are the principal dihedral values at the starting
    configuration, in canonical edge order; they fix the claimed constant of
    each combination.
    """
    initial_angles = np.asarray(initial_angles, dtype=float)
    out = []
    for j, (lam, edges) in enumerate(zip(span.basis, _basis_edges(span))):
        # Zeros add nothing to the lcm and clear to 0.
        coeffs = [0] * len(span.coefficients)
        for i, c in zip(edges, clear_to_integers([span.coefficients[i][j] for i in edges])):
            coeffs[i] = c
        coeffs = tuple(coeffs)
        out.append(
            InvariantCombination(
                label=str(lam),
                coeffs=coeffs,
                claimed_constant=float(np.dot(coeffs, initial_angles)),
            )
        )
    return out


@dataclass
class MonitoringReport:
    """Largest deviations of the conserved quantities along a flex path."""

    combination_deviations: list[float]
    volume_deviation: float
    weighted_angle_sum_deviation: float
    volume_initial: float
    weighted_angle_sum_initial: float
    n_samples: int
    volume_series: np.ndarray = field(repr=False, default=None)
    weighted_angle_sum_series: np.ndarray = field(repr=False, default=None)


def monitor_flex(
    path: FlexPath,
    combinations: list[InvariantCombination],
    P: Polyhedron | None = None,
) -> MonitoringReport:
    """Track every conserved quantity along a traced path.

    For each combination the maximal absolute deviation of its lifted-angle
    sum from the claimed constant is recorded, together with the deviations
    of the enclosed oriented volume and of the length-weighted angle sum.
    ``P`` is unused; it stays only because the CLI, the Bricard demo and the
    benchmark harness pass it, and goes at the next change to the harness.
    """
    if path.n_samples == 0:
        raise ValueError("empty path")
    comb_dev = []
    for comb in combinations:
        series = path.lifted_angles @ np.asarray(comb.coeffs, dtype=float)
        comb_dev.append(float(np.max(np.abs(series - comb.claimed_constant))))

    volumes, weighted = monitor_series(path.surface, path.configs, path.lifted_angles)
    return MonitoringReport(
        combination_deviations=comb_dev,
        volume_deviation=float(np.max(np.abs(volumes - volumes[0]))),
        weighted_angle_sum_deviation=float(np.max(np.abs(weighted - weighted[0]))),
        volume_initial=float(volumes[0]),
        weighted_angle_sum_initial=float(weighted[0]),
        n_samples=path.n_samples,
        volume_series=volumes,
        weighted_angle_sum_series=weighted,
    )


def initial_principal_angles(P: Polyhedron) -> np.ndarray:
    """Principal dihedral values in canonical edge order."""
    return principal_angles(P.surface, P.vertex_array())[0]
