"""Combinatorial closed triangulated surfaces.

A surface is stored purely combinatorially: a list of vertex triples whose
cyclic order encodes the orientation of each triangle.  All geometric data
lives in :mod:`rigiditylab.geometry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


def _canonical_face(face: tuple[int, int, int]) -> tuple[int, int, int]:
    """Rotate a cyclic triple so the smallest vertex comes first."""
    k = face.index(min(face))
    return face[k:] + face[:k]


@dataclass
class SimplicialSurface:
    """Finite two-dimensional simplicial complex given by oriented triangles.

    Vertices, edges and incidence maps are derived from the face list in
    one pass: each directed edge (a, b) maps to the faces walking it, each
    with its third vertex, and each edge to the faces containing it.  Edges
    are kept in lexicographic order of their sorted vertex pairs;
    this order is the canonical edge indexing used by every downstream
    coefficient vector and report.  Index tables are built on first use.
    """

    faces: tuple[tuple[int, int, int], ...]
    vertices: tuple[int, ...] = field(init=False, repr=False)
    edges: tuple[tuple[int, int], ...] = field(init=False, repr=False)

    def __init__(self, faces):
        self.faces = tuple(tuple(int(v) for v in f) for f in faces)
        walks: dict[tuple[int, int], list[tuple[int, int]]] = {}
        edge_faces: dict[tuple[int, int], list[int]] = {}
        for fi, (u, v, w) in enumerate(self.faces):
            for a, b, c in ((u, v, w), (v, w, u), (w, u, v)):
                walks.setdefault((a, b), []).append((fi, c))
                edge_faces.setdefault((a, b) if a < b else (b, a), []).append(fi)
        self.vertices = tuple(sorted({a for a, _ in walks}))
        self.edges = tuple(sorted(edge_faces))
        self._walks = walks
        self._edge_faces = edge_faces
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
        a, b = edge
        key = (a, b) if a < b else (b, a)
        return list(self._edge_faces.get(key, []))

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
        (a, b), the other face, and their third vertices' indices; shape (E, 4).
        Status 1 (edge not in exactly two faces) or 2 (both faces walk it the
        same way) gets a placeholder row.  Building never raises."""
        rows, status = [], []
        for a, b in self.edges:
            fwd, bwd = self._walks.get((a, b), []), self._walks.get((b, a), [])
            ok = len(fwd) == len(bwd) == 1
            status.append(0 if ok else 1 if len(fwd) + len(bwd) != 2 else 2)
            (f0, c0), (f1, c1) = (fwd[0], bwd[0]) if ok else ((0, a), (0, a))
            rows.append((f0, f1, self._vertex_index[c0], self._vertex_index[c1]))
        return np.array(rows, dtype=np.intp).reshape(-1, 4), np.array(status, dtype=np.int8)


def _index_table(index: dict, simplices, width: int) -> np.ndarray:
    """Column-major, so each column is a contiguous index array."""
    table = np.array([[index[v] for v in s] for s in simplices], dtype=np.intp)
    return np.asfortranarray(table.reshape(-1, width))


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

    _, status = surface.wing_table
    edge_status = list(zip(surface.edges, status))
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
        for edge in ((u, v), (v, w), (w, u)):
            for gi in surface.faces_of_edge(edge):
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
