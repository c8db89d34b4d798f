"""Built-in model generators and file formats.

Generators produce polyhedra with exact rational coordinates, so squared
edge lengths are exact rationals and the exact length algebra applies.
File I/O covers OFF meshes (text in, canonical text out), JSON analysis
reports and CSV flex time series; all formats carry a format_version
marker.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .flex import FlexPath
from .geometry import Polyhedron, path_blocks
from .surfaces import SimplicialSurface, _canonical_face

FORMAT_VERSION = 1

OCTAHEDRON_FACES = (
    (0, 1, 2), (0, 2, 4), (0, 4, 3), (0, 3, 1),
    (5, 2, 1), (5, 4, 2), (5, 3, 4), (5, 1, 3),
)

# Bricard vertex ids: 0 and 4, 1 and 5, 2 and 3 are the half-turn pairs.
BRICARD_FACES = (
    (2, 0, 1), (2, 1, 4), (2, 4, 5), (2, 5, 0),
    (3, 1, 0), (3, 4, 1), (3, 5, 4), (3, 0, 5),
)
BRICARD_VERTEX_SYMMETRY = {0: 4, 1: 5, 2: 3, 3: 2, 4: 0, 5: 1}


class DegenerateSpecError(ValueError):
    """Construction parameters produce coincident vertices or flat faces."""


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class NonTriangularFaceError(ParseError):
    pass


def _to_fraction(x) -> Fraction:
    """Exact rational from int/Fraction/str; floats go via their repr."""
    if isinstance(x, float):
        return Fraction(repr(x))
    return Fraction(x)


def _exact_polyhedron(faces, points: dict) -> Polyhedron:
    """Polyhedron on exact rational points (ints or Fractions), which are
    also its float coordinates: numpy rounds each to the nearest float."""
    return Polyhedron(SimplicialSurface(faces), points, exact_coords=points)


@dataclass(frozen=True)
class BricardSpec:
    """Three free points of a line-symmetric flexible octahedron.

    The remaining vertices are the images of a, b, n under the half turn
    (x, y, z) -> (-x, -y, z).  Entries may be ints, Fractions, decimal
    strings, or floats (converted through their shortest decimal form).
    """

    a: tuple
    b: tuple
    n: tuple

    def points(self) -> dict:
        half_turn = lambda p: (-p[0], -p[1], p[2])
        a = tuple(_to_fraction(x) for x in self.a)
        b = tuple(_to_fraction(x) for x in self.b)
        n = tuple(_to_fraction(x) for x in self.n)
        return {0: a, 1: b, 2: n, 3: half_turn(n), 4: half_turn(a), 5: half_turn(b)}


DEFAULT_BRICARD_SPEC = BricardSpec(
    a=("2.0", "0.3", "1.1"),
    b=("-0.4", "1.7", "-0.9"),
    n=("0.5", "-0.6", "2.2"),
)


def _exact_cross_is_zero(p, q, r) -> bool:
    u = tuple(q[i] - p[i] for i in range(3))
    v = tuple(r[i] - p[i] for i in range(3))
    cross = (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )
    return all(c == 0 for c in cross)


def make_bricard_type1(spec: BricardSpec = DEFAULT_BRICARD_SPEC) -> Polyhedron:
    """Line-symmetric octahedron: generically flexible with paired edge lengths.

    The half turn maps the configuration to itself while swapping opposite
    vertices, so the twelve edges come in six pairs of exactly equal length.
    Raises :class:`DegenerateSpecError` on coincident vertices (for example
    n on the symmetry axis) or flat faces.
    """
    exact = spec.points()
    pts = list(exact.values())
    for i in range(6):
        for j in range(i + 1, 6):
            if pts[i] == pts[j]:
                raise DegenerateSpecError(
                    f"vertices {i} and {j} coincide at {tuple(map(str, pts[i]))}"
                )
    for face in BRICARD_FACES:
        if _exact_cross_is_zero(*(exact[v] for v in face)):
            raise DegenerateSpecError(f"face {face} is degenerate")
    return _exact_polyhedron(BRICARD_FACES, exact)


def half_turn_edge_pairs(surface: SimplicialSurface | None = None) -> list[tuple[int, int]]:
    """Canonical-edge-index pairs swapped by the Bricard half turn."""
    if surface is None:
        surface = SimplicialSurface(BRICARD_FACES)
    pairs = set()
    for e in surface.edges:
        a, b = BRICARD_VERTEX_SYMMETRY[e[0]], BRICARD_VERTEX_SYMMETRY[e[1]]
        image = (a, b) if a < b else (b, a)
        i, j = surface.edge_index(e), surface.edge_index(image)
        pairs.add((min(i, j), max(i, j)))
    return sorted(pairs)


def make_regular_octahedron() -> Polyhedron:
    """Octahedron with vertices at the signed unit axis points."""
    points = {0: (1, 0, 0), 1: (0, 1, 0), 2: (0, 0, 1),
              3: (0, 0, -1), 4: (0, -1, 0), 5: (-1, 0, 0)}
    return _exact_polyhedron(OCTAHEDRON_FACES, points)


def make_triangulated_cube() -> Polyhedron:
    """Unit cube, each square face split along the diagonal from the first
    vertex of its outward-oriented loop.

    Vertex v has coordinates (v & 1, (v >> 1) & 1, (v >> 2) & 1); the split
    rule sends the loop (v0, v1, v2, v3) to triangles (v0, v1, v2) and
    (v0, v2, v3).
    """
    squares = [
        (0, 2, 3, 1),  # z = 0, seen from below
        (4, 5, 7, 6),  # z = 1, seen from above
        (0, 4, 6, 2),  # x = 0
        (1, 3, 7, 5),  # x = 1
        (0, 1, 5, 4),  # y = 0
        (2, 6, 7, 3),  # y = 1
    ]
    faces = []
    for v0, v1, v2, v3 in squares:
        faces += [(v0, v1, v2), (v0, v2, v3)]
    points = {v: (v & 1, (v >> 1) & 1, (v >> 2) & 1) for v in range(8)}
    return _exact_polyhedron(faces, points)


def make_regular_tetrahedron() -> Polyhedron:
    """Regular tetrahedron on alternating cube corners, edge length 2*sqrt(2)."""
    points = {0: (1, 1, 1), 1: (1, -1, -1), 2: (-1, 1, -1), 3: (-1, -1, 1)}
    faces = [(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)]
    return _exact_polyhedron(faces, points)


@lru_cache(maxsize=1)
def make_distinct_length_octahedron() -> Polyhedron:
    """Octahedron on six integer points whose twelve squared edge lengths
    are the distinct squarefree integers 6, 14, 17, 21, 22, 29, 33, 34, 35,
    42, 61 and 62, so the length set is independent over the rationals."""
    points = {
        0: (-2, 3, -3),
        1: (1, 2, -1),
        2: (3, -3, -3),
        3: (-2, 0, 2),
        4: (1, -2, -2),
        5: (2, 2, 3),
    }
    return _exact_polyhedron(OCTAHEDRON_FACES, points)


BUILTIN_MODELS = {
    "octahedron": make_regular_octahedron,
    "cube": make_triangulated_cube,
    "tetrahedron": make_regular_tetrahedron,
    "bricard-default": make_bricard_type1,
    "octahedron-distinct": make_distinct_length_octahedron,
}


def make_model(name: str) -> Polyhedron:
    try:
        return BUILTIN_MODELS[name]()
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; available: {sorted(BUILTIN_MODELS)}"
        ) from None


# ---------------------------------------------------------------------------
# OFF meshes
# ---------------------------------------------------------------------------


def load_off(text: str) -> Polyhedron:
    """Parse an OFF mesh (triangles only, 0-based indices, '#' comments)."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            lines.append((lineno, content))
    if not lines:
        raise ParseError(1, "empty file")
    lineno, header = lines[0]
    if header != "OFF":
        raise ParseError(lineno, f"expected 'OFF' header, got {header!r}")
    if len(lines) < 2:
        raise ParseError(lineno, "missing counts line")
    lineno, counts = lines[1]
    parts = counts.split()
    if len(parts) != 3:
        raise ParseError(lineno, f"expected 'nV nF nE', got {counts!r}")
    try:
        nv, nf, _ = (int(p) for p in parts)
    except ValueError:
        raise ParseError(lineno, f"counts must be integers, got {counts!r}") from None
    body = lines[2:]
    if len(body) < nv + nf:
        last = body[-1][0] if body else lineno
        raise ParseError(last, f"expected {nv} vertex and {nf} face lines")
    coords = {}
    for i in range(nv):
        lineno, line = body[i]
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(lineno, f"expected 3 coordinates, got {line!r}")
        try:
            coords[i] = np.array([float(p) for p in parts])
        except ValueError:
            raise ParseError(lineno, f"bad coordinate in {line!r}") from None
        if not np.isfinite(coords[i]).all():
            raise ParseError(lineno, f"non-finite coordinate in {line!r}")
    faces = []
    for i in range(nf):
        lineno, line = body[nv + i]
        parts = line.split()
        try:
            nums = [int(p) for p in parts]
        except ValueError:
            raise ParseError(lineno, f"bad face line {line!r}") from None
        if not nums or nums[0] != 3 or len(nums) != 4:
            raise NonTriangularFaceError(lineno, f"only triangles are supported: {line!r}")
        if any(v < 0 or v >= nv for v in nums[1:]):
            raise ParseError(lineno, f"vertex index out of range in {line!r}")
        faces.append(tuple(nums[1:]))
    surface = SimplicialSurface(faces)
    used = set(surface.vertices)
    return Polyhedron(surface, {v: coords[v] for v in used})


def save_off(P: Polyhedron) -> str:
    """Canonical OFF text: vertices renumbered in sorted-id order, faces
    rotated to start at their smallest vertex and sorted; round trips
    byte-identically."""
    vmap = {v: i for i, v in enumerate(P.surface.vertices)}
    canon_faces = sorted(
        _canonical_face(tuple(vmap[v] for v in f)) for f in P.surface.faces
    )
    out = ["OFF", f"# format_version: {FORMAT_VERSION}"]
    out.append(f"{P.surface.n_vertices} {P.surface.n_faces} 0")
    for row in P.vertex_array().tolist():
        out.append(" ".join(map(repr, row)))
    for f in canon_faces:
        out.append(f"3 {f[0]} {f[1]} {f[2]}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def save_report_json(certificate, combinations, monitoring=None, *, edges) -> str:
    """Analysis report as deterministic JSON.

    ``edges`` (canonical edge list) translates edge indices into vertex pairs.
    """
    relations = []
    if certificate.evidence.relation is not None:
        relations.append(list(certificate.evidence.relation))
    combs = []
    for k, comb in enumerate(combinations):
        entry = {
            "label": comb.label,
            "coeffs": list(comb.coeffs),
            "constant": comb.claimed_constant,
            "max_deviation": (
                monitoring.combination_deviations[k] if monitoring is not None else None
            ),
        }
        combs.append(entry)
    monitors = None
    if monitoring is not None:
        monitors = {
            "volume": monitoring.volume_deviation,
            "weighted_angle_sum": monitoring.weighted_angle_sum_deviation,
        }
    report = {
        "format_version": FORMAT_VERSION,
        "verdict": certificate.verdict,
        "mode": certificate.mode,
        "height": certificate.height,
        "relations": relations,
        "constant_angle_edges": [list(edges[i]) for i in certificate.constant_angle_edges],
        "caveat": certificate.caveat,
        "combinations": combs,
        "monitors": monitors,
    }
    return json.dumps(report, indent=2) + "\n"


def series_csv_blocks(path: FlexPath | None):
    """The text of :func:`save_series_csv` in pieces: the header lines, then
    the rows of one block of configurations at a time."""
    if path is None or path.n_samples == 0:
        yield f"# format_version: {FORMAT_VERSION}\nt,volume,weighted_angle_sum\n"
        return
    cols = [f"phi_{a}_{b}" for a, b in path.surface.edges]
    yield f"# format_version: {FORMAT_VERSION}\nt,{','.join(cols)},volume,weighted_angle_sum\n"
    # %-formatting a whole row of Python floats gives format(v, ".17g")'s digits.
    row = ",".join(["%.17g"] * (len(cols) + 3)) + "\n"
    volumes, weighted = path.monitor_series
    for b in path_blocks(path.n_samples):
        table = np.column_stack([path.ts[b], path.lifted_angles[b], volumes[b], weighted[b]])
        yield "".join([row % tuple(r) for r in table.tolist()])


def save_series_csv(path: FlexPath | None) -> str:
    """Flex time series as CSV: parameter, lifted angle per edge, volume and
    length-weighted angle sum, 17 significant digits."""
    return "".join(series_csv_blocks(path))
