"""Seeded input generators for the benchmark workloads.

Every generator draws from a ``random.Random`` owned by the caller, so one
workload seed always yields the same inputs.  Coordinates are exact
rationals, which keeps the exact length algebra applicable to every input.
"""

from __future__ import annotations

import random
from fractions import Fraction

from rigiditylab import (
    DEFAULT_BRICARD_SPEC,
    OCTAHEDRON_FACES,
    BricardSpec,
    DegenerateFaceError,
    Polyhedron,
    SimplicialSurface,
    check_nondegenerate,
    make_triangulated_cube,
)

CUBE_FACES = make_triangulated_cube().surface.faces


def bricard_spec(rng: random.Random) -> BricardSpec:
    """The default spec with every coordinate moved by k/20, |k| <= 4.

    Staying near the default keeps each spec on a smooth flex cycle of the
    same kind, so a full-cycle trace meets no singular point.
    """

    def move(point):
        return tuple(
            str(Fraction(c) + Fraction(rng.randint(-4, 4), 20)) for c in point
        )

    d = DEFAULT_BRICARD_SPEC
    return BricardSpec(a=move(d.a), b=move(d.b), n=move(d.n))


def _exact_polyhedron(faces, exact: dict) -> Polyhedron:
    surface = SimplicialSurface(faces)
    floats = {v: [float(c) for c in p] for v, p in exact.items()}
    return Polyhedron(surface, floats, exact_coords=exact)


def _nondegenerate(faces, make_coords, rng) -> Polyhedron:
    """Redraw until every face has a non-negligible area."""
    while True:
        P = _exact_polyhedron(faces, make_coords(rng))
        try:
            check_nondegenerate(P, tol=1e-3 * P.max_edge_length() ** 2)
        except DegenerateFaceError:
            continue
        return P


def _rational(rng, numer: int) -> Fraction:
    return Fraction(rng.randint(-numer, numer), rng.randint(1, 3))


def rational_octahedron(rng: random.Random) -> Polyhedron:
    """Octahedron with small rational coordinates; its twelve lengths are
    mostly independent over the rationals, sometimes dependent."""

    def coords(r):
        return {v: tuple(_rational(r, 12) for _ in range(3)) for v in range(6)}

    return _nondegenerate(OCTAHEDRON_FACES, coords, rng)


def rational_cube(rng: random.Random) -> Polyhedron:
    """Triangulated cube of side 6 with every corner moved by a small
    rational offset; eighteen lengths, mostly independent."""

    def coords(r):
        return {
            v: tuple(
                Fraction(6 * ((v >> k) & 1)) + _rational(r, 4) for k in range(3)
            )
            for v in range(8)
        }

    return _nondegenerate(CUBE_FACES, coords, rng)
