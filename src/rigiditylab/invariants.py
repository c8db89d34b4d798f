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
from typing import TYPE_CHECKING

import numpy as np

from .geometry import Polyhedron, all_dihedrals, squared_lengths
from .lengths import (
    _n_lengths,
    _span_verdict,
    DEPENDENT,
    INDEPENDENT_EXACT,
    INDEPENDENT_UP_TO_HEIGHT,
    IndependenceVerdict,
    SpanBasis,
    clear_to_integers,
    find_integer_relation,
    q_basis,
)

if TYPE_CHECKING:  # the tracer is imported only where a path is traced
    from .flex import FlexPath

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
    so their lifted dihedral angle cannot move during any flex.  An exact
    certificate keeps the ``SpanBasis`` it was read from in ``_span``.
    """

    verdict: str
    mode: str
    evidence: IndependenceVerdict
    constant_angle_edges: tuple[int, ...] = ()
    height: int | None = None
    caveat: str | None = None
    _span: SpanBasis | None = field(default=None, repr=False, compare=False)

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


def constant_angle_edges(span: SpanBasis) -> tuple[int, ...]:
    """Edges whose length no rational combination of the others can reach,
    the sole members of their length classes (one basis element each);
    their dihedral angles are predicted constant along every flex."""
    return tuple(sorted(i for members in span._members if len(members) == 1 for i in members))


def rigidity_certificate(
    P: Polyhedron, mode: str = "exact", height: int = 10**6
) -> RigidityCertificate:
    """Decide rigidity from rational (in)dependence of the edge lengths.

    Exact mode requires exact lengths on the polyhedron (from its exact
    coordinates); they are cross-checked against the float edge lengths,
    so exact points that differ from the float ones cannot go unnoticed.
    Numeric mode runs the lattice-reduction relation search on the float
    lengths and can only ever certify rigidity "up to height".  In either
    mode a squared float length that overflows raises ValueError naming
    its edge.
    """
    if mode not in ("exact", "numeric"):
        raise ValueError(f"mode must be 'exact' or 'numeric', got {mode!r}")
    with np.errstate(over="ignore"):
        squared = squared_lengths(P.surface, P._vertex_array)
    if not (finite := np.isfinite(squared)).all():
        i = int(np.argmin(finite))
        raise ValueError(f"edge {P.surface.edges[i]} has squared length {squared[i]}, "
                         f"which is not finite")
    float_lengths = np.sqrt(squared)
    if mode == "exact":
        exact = P.exact_edge_lengths()
        for ell, f in zip(exact, float_lengths):
            if abs(ell.value() - f) > LENGTH_TOL * max(f, 1.0):
                raise ValueError(
                    f"exact length {ell} disagrees with measured length {f:.12g}"
                )
        span = q_basis(exact)
        verdict, constant = _span_verdict(span), constant_angle_edges(span)
        if verdict.kind == INDEPENDENT_EXACT:
            return RigidityCertificate(RIGID, "exact", verdict, constant, _span=span)
        return RigidityCertificate(
            INCONCLUSIVE, "exact", verdict, constant, caveat=DEPENDENCE_CAVEAT, _span=span
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
    out, n = [], _n_lengths(span)
    for lam, members in zip(span.basis, span._members):
        # Lengths off this class have coefficient 0, which adds nothing to the lcm.
        coeffs = [0] * n
        for i, c in zip(members, clear_to_integers(list(members.values()))):
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

    volumes, weighted = path.monitor_series
    return MonitoringReport(
        combination_deviations=comb_dev,
        volume_deviation=float(np.max(np.abs(volumes - volumes[0]))),
        weighted_angle_sum_deviation=float(np.max(np.abs(weighted - weighted[0]))),
        volume_initial=float(volumes[0]),
        weighted_angle_sum_initial=float(weighted[0]),
        n_samples=path.n_samples,
    )


def initial_principal_angles(P: Polyhedron) -> np.ndarray:
    """Principal dihedral values in canonical edge order."""
    return all_dihedrals(P)[0]
