"""Combinatorial closed triangulated surfaces and their realizations.

A surface is stored purely combinatorially: a list of vertex triples whose
cyclic order encodes the orientation of each triangle.  A
:class:`Polyhedron` realizes one with a point per vertex; it lives here,
and :mod:`rigiditylab.geometry`, which holds every metric quantity,
re-exports it.  Building a surface or a polyhedron and checking the surface
conditions is plain Python: numpy is imported where an index table or a
polyhedron's (V, 3) array is first read, so ``validate`` never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy is imported where a table or array is first built
    import numpy as np


def _canonical_face(face: tuple[int, int, int]) -> tuple[int, int, int]:
    """Rotate a cyclic triple so the smallest vertex comes first."""
    k = face.index(min(face))
    return face[k:] + face[:k]


@dataclass
class SimplicialSurface:
    """Finite two-dimensional simplicial complex given by oriented triangles.

    Vertices, edges and the one incidence map are derived from the face
    list in one pass: each directed edge (a, b) maps to the faces walking
    it, each with its third vertex.  Edges are kept in lexicographic order
    of their sorted vertex pairs; this order is the canonical edge indexing
    used by every downstream coefficient vector and report.  Index tables
    are built on first use.
    """

    faces: tuple[tuple[int, int, int], ...]
    vertices: tuple[int, ...] = field(init=False, repr=False)
    edges: tuple[tuple[int, int], ...] = field(init=False, repr=False)

    def __init__(self, faces):
        self.faces = tuple(tuple(int(v) for v in f) for f in faces)
        walks: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for fi, (u, v, w) in enumerate(self.faces):
            for a, b, c in ((u, v, w), (v, w, u), (w, u, v)):
                walks.setdefault((a, b), []).append((fi, c))
        self.vertices = tuple(sorted({a for a, _ in walks}))
        self.edges = tuple(sorted({(a, b) if a < b else (b, a) for a, b in walks}))
        self._walks = walks
        self._edge_index = {e: i for i, e in enumerate(self.edges)}
        self._vertex_index = {v: i for i, v in enumerate(self.vertices)}

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces

    def edge_index(self, edge: tuple[int, int]) -> int:
        a, b = edge
        key = (a, b) if a < b else (b, a)
        return self._edge_index[key]

    def vertex_index(self, vertex: int) -> int:
        return self._vertex_index[vertex]

    def faces_of_edge(self, edge: tuple[int, int]) -> list[int]:
        """Indices of the faces walking the edge either way, in face order,
        a face once per time it walks it."""
        a, b = edge
        walks = self._walks.get((a, b), []) + (self._walks.get((b, a), []) if a != b else [])
        return sorted(fi for fi, _ in walks)

    @cached_property
    def edge_status(self) -> tuple[int, ...]:
        """Per edge (a, b), a < b: 0 when one face walks it as (a, b) and one
        as (b, a), 1 when it is not in exactly two faces, 2 when both of its
        two faces walk it the same way."""
        status = []
        for a, b in self.edges:
            fwd, bwd = len(self._walks.get((a, b), ())), len(self._walks.get((b, a), ()))
            status.append(0 if fwd == bwd == 1 else 1 if fwd + bwd != 2 else 2)
        return tuple(status)

    @cached_property
    def edge_table(self) -> np.ndarray:
        """Vertex indices of each edge's endpoints, shape (E, 2)."""
        return _index_table(self._vertex_index, self.edges, 2)

    @cached_property
    def face_table(self) -> np.ndarray:
        """Vertex indices of each face in its cyclic order, shape (F, 3)."""
        return _index_table(self._vertex_index, self.faces, 3)

    @cached_property
    def wing_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows (f0, f1, c0, c1) per edge (a, b), a < b: the face walking it as
        (a, b), the other face, and their third vertices' indices; shape (E, 4);
        and :attr:`edge_status` as an array.  An edge of nonzero status gets a
        placeholder row.  Building never raises."""
        import numpy as np

        rows, walks = [], self._walks
        for (a, b), s in zip(self.edges, self.edge_status):
            (f0, c0), (f1, c1) = (walks[a, b][0], walks[b, a][0]) if s == 0 else ((0, a), (0, a))
            rows.append((f0, f1, self._vertex_index[c0], self._vertex_index[c1]))
        return (np.array(rows, dtype=np.intp).reshape(-1, 4),
                np.array(self.edge_status, dtype=np.int8))


def _index_table(index: dict, simplices, width: int) -> np.ndarray:
    """Column-major, so each column is a contiguous index array."""
    import numpy as np

    table = np.array([[index[v] for v in s] for s in simplices], dtype=np.intp)
    return np.asfortranarray(table.reshape(-1, width))


def _shape(point) -> tuple:
    """np.shape(point); a list or tuple of three numbers or strings is
    (3,) without importing numpy."""
    if (isinstance(point, (list, tuple)) and len(point) == 3
            and all(isinstance(c, (int, float, str, Fraction)) for c in point)):
        return (3,)
    import numpy as np

    return np.shape(point)


def _point_rows(surface: SimplicialSurface, points: dict, name: str) -> list:
    """The 3-vectors of a vertex -> point mapping in canonical vertex order;
    ValueError when its vertex ids are not the surface's or a point is not
    a 3-vector."""
    points = {int(v): p for v, p in points.items()}
    missing, extra = set(surface.vertices) - set(points), set(points) - set(surface.vertices)
    if missing or extra:
        raise ValueError(
            f"{name} do not match surface vertices "
            f"(missing {sorted(missing)}, extra {sorted(extra)})"
        )
    for v, p in points.items():
        if (shape := _shape(p)) != (3,):
            raise ValueError(f"vertex {v}: expected a 3-vector, got shape {shape}")
    return [points[v] for v in surface.vertices]


def _rational_row(v: int, point) -> tuple[Fraction, ...]:
    """An exact point as Fractions; ValueError naming vertex v when a
    coordinate is not a rational number (a bad string, NaN, inf, None)."""
    try:
        return tuple(Fraction(c) for c in point)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(
            f"vertex {v}: exact point {tuple(point)!r} is not rational ({exc})"
        ) from None


class Polyhedron:
    """Vertex coordinates realizing a combinatorial surface.

    Arguments ``coords`` and ``exact_coords`` map each vertex id to a point.  The
    float points, which must be finite, are each coordinate's ``float()``,
    kept as rows in canonical vertex order.  The (n_vertices, 3) float64
    array of those rows, which every kernel reads and :meth:`vertex_array`
    copies, is built on first read: numpy rounds each coordinate as
    ``float()`` does, so it equals ``np.array(rows, dtype=float)`` bit for
    bit.  ``exact_coords`` optionally carries the same points as exact
    rationals, the only source of exact edge lengths; they are checked and
    converted to Fractions once, here, into the polyhedron's own
    ``exact_coords``.
    """

    def __init__(
        self, surface: SimplicialSurface, coords: dict, exact_coords: dict | None = None
    ):
        self.surface = surface
        # Every row is converted before any is tested, so a coordinate that
        # float() rejects raises before a non-finite one elsewhere.
        rows = [[float(c) for c in p] for p in _point_rows(surface, coords, "coordinates")]
        for v, row in zip(surface.vertices, rows):
            if not all(map(math.isfinite, row)):
                raise ValueError(f"vertex {v}: point {row} is not finite")
        self._float_rows = rows
        self.exact_coords = None
        if exact_coords is not None:
            rows = _point_rows(surface, exact_coords, "exact coordinates")
            self.exact_coords = {v: _rational_row(v, p) for v, p in zip(surface.vertices, rows)}

    @cached_property
    def _vertex_array(self) -> np.ndarray:
        import numpy as np

        return np.array(self._float_rows, dtype=float)

    def vertex_array(self) -> np.ndarray:
        """Coordinates as an (n_vertices, 3) array in canonical vertex order."""
        return self._vertex_array.copy()

    def max_edge_length(self) -> float:
        from .geometry import edge_length_vector

        return float(edge_length_vector(self).max())

    def exact_edge_lengths(self):
        """Exact edge lengths in canonical edge order, from ``exact_coords``.

        Computed once per polyhedron; every call returns a new list.  The
        rational coordinates are scaled by the lcm D of their denominators to
        integer points X_v, so edge (a, b) has squared length
        sum((X_a - X_b)**2) / D**2, and each distinct numerator is split once.
        """
        return list(self._exact_lengths)

    @cached_property
    def _exact_lengths(self) -> list:  # a raise caches nothing
        if self.exact_coords is None:
            raise ValueError("polyhedron carries no exact coordinate or length data")
        from .lengths import clear_to_integers, normalize_sqrt

        verts = self.surface.vertices
        exact = [c for v in verts for c in self.exact_coords[v]]
        # The common denominator D is what 1 clears to.
        *flat, D = clear_to_integers([*exact, Fraction(1)])
        X = {v: flat[3 * i : 3 * i + 3] for i, v in enumerate(verts)}
        split = {}
        out = []
        for a, b in self.surface.edges:
            n = sum((x - y) ** 2 for x, y in zip(X[a], X[b]))
            if n not in split:
                split[n] = normalize_sqrt(Fraction(n, D * D))
            out.append(split[n])
        return out


@dataclass
class ValidationReport:
    """Outcome of the closed-surface checks.

    ``violations`` holds (condition id, offending simplices) pairs with
    condition ids drawn from {"i", "ii", "iii", "iv", "v", "orientation",
    "vi"}; the simplices of "vi" are vertex ids.
    """

    passed: bool
    violations: list[tuple[str, list]]

    def conditions_failed(self) -> set[str]:
        return {cond for cond, _ in self.violations}


def validate_complex(faces) -> ValidationReport:
    """Check that a face list describes a closed oriented triangulated surface.

    Conditions checked, all reported instead of raised:

    - "i": every triple consists of three distinct vertex ids;
    - "ii": no two faces share the same vertex set (for triangle lists the
      remaining simplex-intersection requirements hold by derivation);
    - "iii": every derived vertex and edge lies in some triangle (this holds
      by construction, since both are derived from the triangles);
    - "iv": every edge is contained in exactly two faces;
    - "v": the face graph (adjacency = shared edge) is connected;
    - "orientation": the two faces at each edge traverse it in opposite
      directions;
    - "vi": once "iv" and "orientation" hold, the link of every vertex is a
      single cycle, so no vertex pinches two sheets of the surface together.
    """
    return _validate(faces, None)


def validate_surface(surface: SimplicialSurface) -> ValidationReport:
    """validate_complex(surface.faces), the same report, checked on
    ``surface`` itself rather than on a second surface built from its faces."""
    return _validate(surface.faces, surface)


def _validate(faces, built: SimplicialSurface | None) -> ValidationReport:
    faces = [tuple(int(v) for v in f) for f in faces]
    if not faces:
        raise ValueError("face list is empty")
    violations: list[tuple[str, list]] = []

    bad_triples = [f for f in faces if len(f) != 3 or len(set(f)) != 3]
    if bad_triples:
        violations.append(("i", bad_triples))
    ok_faces = [f for f in faces if len(f) == 3 and len(set(f)) == 3]

    seen: dict[frozenset, tuple[int, int, int]] = {}
    duplicates = []
    for f in ok_faces:
        key = frozenset(f)
        if key in seen:
            duplicates.append([seen[key], f])
        else:
            seen[key] = f
    if duplicates:
        violations.append(("ii", duplicates))

    if not ok_faces:
        return ValidationReport(False, violations)
    # Without bad triples the surface of ok_faces is the one already built.
    surface = built if built is not None and not bad_triples else SimplicialSurface(ok_faces)

    edge_status = list(zip(surface.edges, surface.edge_status))
    bad_edges = [(e, len(surface.faces_of_edge(e))) for e, s in edge_status if s == 1]
    if bad_edges:
        violations.append(("iv", bad_edges))

    component = _faces_reached_from_first(surface)
    if len(component) != surface.n_faces:
        stranded = sorted(set(range(surface.n_faces)) - component)
        violations.append(("v", [surface.faces[i] for i in stranded]))

    mis_oriented = [e for e, s in edge_status if s == 2]
    if mis_oriented:
        violations.append(("orientation", mis_oriented))

    if not bad_edges and not mis_oriented:
        pinched = _pinched_vertices(surface)
        if pinched:
            violations.append(("vi", pinched))

    passed = not violations
    if passed:
        # Closed oriented surface: Euler characteristic is even and at most 2.
        chi = surface.euler_characteristic
        assert chi % 2 == 0 and chi <= 2, f"impossible Euler characteristic {chi}"
    return ValidationReport(passed, violations)


def _faces_reached_from_first(surface: SimplicialSurface) -> set[int]:
    """Faces joined to face 0 by a chain of shared edges, face 0 included."""
    seen, stack = {0}, [0]
    while stack:
        u, v, w = surface.faces[stack.pop()]
        for walk in ((u, v), (v, w), (w, u), (v, u), (w, v), (u, w)):
            for gi, _ in surface._walks.get(walk, ()):
                if gi not in seen:
                    seen.add(gi)
                    stack.append(gi)
    return seen


def _pinched_vertices(surface: SimplicialSurface) -> list[int]:
    """Sorted vertices whose link is more than one cycle.

    Needs each directed edge walked by exactly one face.  Face (v, a, c)
    gives the link of v the edge a -> c, so following the third vertex of
    the face walking (v, a) runs round one cycle of the link of v.
    """
    seen: set[tuple[int, int]] = set()
    cycles = dict.fromkeys(surface.vertices, 0)
    for v, a in surface._walks:
        if (v, a) in seen:
            continue
        cycles[v] += 1
        while (v, a) not in seen:
            seen.add((v, a))
            (_, a), = surface._walks[v, a]
    return [v for v, n in cycles.items() if n > 1]
