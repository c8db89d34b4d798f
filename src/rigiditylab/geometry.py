"""Metric quantities of a realized triangulated surface.

A polyhedron is a surface plus one (V, 3) array of vertex coordinates in
R^3, in canonical vertex order, which every function here reads; per-edge
results come back in canonical edge order.  :class:`Polyhedron` is defined
in :mod:`rigiditylab.surfaces`, which checks its points in plain Python,
and re-exported here; its array is built when a function here first reads
it.  Faces may self-intersect in space; the only geometric requirement is
that every triangle is nondegenerate.  The dihedral angle at an edge is the oriented angle, in
[0, 2*pi), from the first face's in-face direction u0 to the second's u1
about the edge, in the frame (u0, e x u0): e is the unit edge direction,
and the first face is the one that walks the edge as (a, b), a < b.  The
summed face normals point at half that angle in the same frame, so it is
also the angle of the wedge on the normals' side.  When the two normals
cancel (the faces fold onto each other) the angle is 0, within 1e-9 of
the angle modulo 2*pi, and unwrapped like any other value; it is also
flagged as degenerate.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .surfaces import Polyhedron  # re-exported: defined in surfaces

DEGENERATE_NORMAL_TOL = 1e-9
# Unit directions the Monte-Carlo oracle draws and classifies at a time.  A
# power of two, so block boundaries keep each sample's matvec rounding.
_MC_BLOCK = 8192
# Configurations of a path that one batched evaluation takes at a time, so
# temporaries stay fixed in size however long the path is.
PATH_BLOCK = 256


class DegenerateFaceError(ValueError):
    def __init__(self, face, area):
        self.face = face
        self.area = area
        super().__init__(f"face {face} has area {area:.3e}")


# Batched kernel over (..., V, 3) coordinates in canonical vertex order: one
# configuration (V, 3) or a whole path (K, V, 3).  np.vecdot runs the BLAS
# dot of np.dot on every row and _cross forms np.cross's products, so the
# results equal those of a loop over 3-vectors to the last bit.

_dot = np.vecdot
_CROSS_A = np.array([1, 2, 0, 2, 0, 1])
_CROSS_B = np.array([2, 0, 1, 1, 2, 0])


def _cross(a, b):
    """np.cross over the last axis: the same products, without its set-up.

    Component k is a_i*b_j - a_j*b_i for (i, j) the cyclic successors of k;
    both products of every component come from one gather of each factor.
    """
    p = a[..., _CROSS_A] * b[..., _CROSS_B]
    return p[..., :3] - p[..., 3:]


def _corners(surface, x):
    f = surface.face_table
    return x[..., f[:, 0], :], x[..., f[:, 1], :], x[..., f[:, 2], :]


def _wrap_2pi(t):
    """Angles of arctan2, in [-pi, pi], mapped into [0, 2*pi) to the bit as
    np.remainder(t, 2*pi) maps them, at a tenth of its cost: its fmod leaves
    each one, and it adds 2*pi to a negative one and turns -0.0 into +0.0,
    as adding 2*pi or +0.0 does.  An array is mapped in place.  A masked add
    (``where=``) costs five times as much."""
    return np.add(t, (t < 0.0) * (2.0 * np.pi), out=t if isinstance(t, np.ndarray) else None)


def _plane_angle(z, e1, e2):
    """Angle of z in the (e1, e2) frame, mapped to [0, 2*pi)."""
    return _wrap_2pi(np.arctan2(_dot(z, e2), _dot(z, e1)))


def squared_lengths(surface, x) -> np.ndarray:
    """Squared edge lengths of a SimplicialSurface, shape (..., E)."""
    ends = surface.edge_table
    d = x[..., ends[:, 0], :] - x[..., ends[:, 1], :]
    return _dot(d, d)


def face_areas(surface, x) -> np.ndarray:
    """Triangle areas, shape (..., F)."""
    a, b, c = _corners(surface, x)
    n = _cross(b - a, c - a)
    return 0.5 * np.sqrt(_dot(n, n))


def oriented_volumes(surface, x) -> np.ndarray:
    """Signed enclosed volume (divergence formula), shape (...)."""
    a, b, c = _corners(surface, x)
    terms = _dot(a, _cross(b, c))
    total = 0.0
    for k in range(terms.shape[-1]):  # face by face, in stored order
        total = total + terms[..., k]
    return total / 6.0


def weighted_angle_sums(surface, x, angles) -> np.ndarray:
    """Sum over edges of length times angle, shape (...)."""
    # A path's lengths come out column-major; BLAS sums strided rows in
    # another order than contiguous ones, so make both operands' rows
    # contiguous and the sums independent of the caller's layout.
    lengths = np.ascontiguousarray(np.sqrt(squared_lengths(surface, x)))
    return _dot(lengths, np.ascontiguousarray(angles))


def path_blocks(n: int):
    """Slices of ``range(n)`` that hold PATH_BLOCK configurations each, the
    last one fewer.  A block is a run of contiguous rows, so each
    configuration goes through the same operations as in one whole-path
    call and its numbers do not change."""
    return (slice(k, k + PATH_BLOCK) for k in range(0, n, PATH_BLOCK))


def _edge_frames(surface, x, edges=None):
    """Unit edge directions (..., E, 3), in-face unit directions and unit
    normals of the two incident faces (..., E, 2, 3), at every edge or at the
    edge indices ``edges``; the first face walks the edge as (a, b), a < b.
    The first failing edge raises ValueError (not two oppositely oriented
    faces, a length or a face normal that is not finite, zero length) or
    DegenerateFaceError (zero direction or normal).
    """
    wings, status = surface.wing_table
    ends = surface.edge_table
    if edges is not None:
        wings, status, ends = wings[edges], status[edges], ends[edges]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        pa = x[..., ends[:, 0], :]
        e = x[..., ends[:, 1], :] - pa
        e_len = np.sqrt(_dot(e, e))
        a, b, c = _corners(surface, x)
        normals = _cross(b - a, c - a)
        n_len = np.sqrt(_dot(normals, normals))
        e_hat = e / e_len[..., None]
        v = x[..., wings[:, 2:], :] - pa[..., None, :]
        u = v - _dot(v, e_hat[..., None, :])[..., None] * e_hat[..., None, :]
        u_len = np.sqrt(_dot(u, u))
        u = u / u_len[..., None]
        n = (normals / n_len[..., None])[..., wings[:, :2], :]
        n_len = n_len[..., wings[:, :2]]
        # Each finite norm is below 2**512, so the sum is finite exactly when
        # every norm is.
        finite = math.isfinite(e_len.sum() + n_len.sum())
    if status.any() or not (finite and e_len.all() and u_len.all() and n_len.all()):
        non_finite = ~(np.isfinite(e_len) & np.isfinite(n_len).all(axis=-1))
        checks = (status == 1, status == 2, non_finite, e_len == 0.0,
                  *np.moveaxis(u_len == 0.0, -1, 0), *np.moveaxis(n_len == 0.0, -1, 0))
        *_, row, check = np.argwhere(np.stack(np.broadcast_arrays(*checks), axis=-1))[0]
        edge = surface.edges[row if edges is None else edges[row]]
        if check < 4:
            raise ValueError(("edge {} is not shared by exactly two faces",
                              "faces at edge {} do not induce opposite orientations",
                              "edge {} has a length or face normal that is not finite",
                              "edge {} has zero length")[check].format(edge))
        raise DegenerateFaceError(surface.faces[wings[row, (check - 4) % 2]], 0.0)
    return e_hat, u, n


def _dihedral_frames(surface, x, edges=None):
    """The frame (e1, e2) = (u0, e x u0) at each edge, shapes (..., E, 3),
    the turn a2 in [0, 2*pi) of u1 in it and the fold flags, shapes (..., E).

    The one place a fold is decided: the flag is set where the unit normals
    cancel, |n0 + n1| = |u0 - u1| = 2|sin(a2/2)| <= DEGENERATE_NORMAL_TOL.
    """
    e_hat, u, n = _edge_frames(surface, x, edges)
    w = n[..., 0, :] + n[..., 1, :]
    flags = np.sqrt(_dot(w, w)) <= DEGENERATE_NORMAL_TOL
    e1, e2 = u[..., 0, :], _cross(e_hat, u[..., 0, :])
    return e1, e2, _plane_angle(u[..., 1, :], e1, e2), flags


def principal_angles(surface, x, edges=None):
    """Principal dihedral values and degenerate flags, shapes (..., E).

    The angle is the turn a2 from the first face's in-face unit direction u0
    to the second's u1 about the edge, in the frame (u0, e x u0).  The first
    face walks the edge as (a, b) and the second as (b, a), so the summed
    unit normals point at angle a2/2 in that frame: a2 is also the angle of
    the wedge on the normals' side.  Where the normals cancel (the faces
    fold onto each other) the angle is 0, within 1e-9 of a2 modulo 2*pi,
    and the flag is set.
    """
    *_, a2, flags = _dihedral_frames(surface, x, edges)
    return np.where(flags, 0.0, a2), flags


def check_nondegenerate(P: Polyhedron, tol: float | None = None) -> list[float]:
    """Areas of all faces; raises DegenerateFaceError on the first tiny one.

    Default tolerance is 1e-12 times the squared maximum edge length, which
    makes the check scale invariant.  An edge length or face area that
    overflows raises ValueError naming the first such edge or face.
    """
    with np.errstate(all="ignore"):  # an overflow is named below, not warned of
        if tol is None:
            lengths = edge_length_vector(P)
            if not (finite := np.isfinite(lengths)).all():
                edge = P.surface.edges[int(np.argmin(finite))]
                raise ValueError(f"edge {edge} has a length that is not finite")
            tol = 1e-12 * float(lengths.max()) ** 2
        areas = face_areas(P.surface, P._vertex_array)
    if not (finite := np.isfinite(areas)).all():
        face = P.surface.faces[int(np.argmin(finite))]
        raise ValueError(f"face {face} has an area that is not finite")
    small = np.flatnonzero(areas <= tol)
    if small.size:
        raise DegenerateFaceError(P.surface.faces[small[0]], float(areas[small[0]]))
    return areas.tolist()


def edge_length_vector(P: Polyhedron) -> np.ndarray:
    """Euclidean edge lengths in canonical edge order."""
    return np.sqrt(squared_lengths(P.surface, P._vertex_array))


def _edge_row(P: Polyhedron, edge) -> int:
    key = tuple(sorted(edge))
    if key not in P.surface.edges:
        raise ValueError(f"edge {key} is not shared by exactly two faces")
    return P.surface.edge_index(key)


def principal_dihedral(P: Polyhedron, edge: tuple[int, int]) -> float:
    """Principal dihedral angle at an edge, in [0, 2*pi); see
    :func:`principal_angles`."""
    return float(principal_angles(P.surface, P._vertex_array, [_edge_row(P, edge)])[0][0])


def all_dihedrals(P: Polyhedron) -> tuple[np.ndarray, np.ndarray]:
    """Principal dihedral values and degenerate flags in canonical edge
    order, shapes (E,); see :func:`principal_angles`."""
    return principal_angles(P.surface, P._vertex_array)


def monte_carlo_dihedral(
    P: Polyhedron,
    edge: tuple[int, int],
    n_samples: int = 10**6,
    seed: int = 0,
) -> float:
    """Monte-Carlo estimate of the dihedral angle at an edge.

    The two incident faces bound two wedges about the edge's line, and a
    wedge is a cone about every point of that line.  So the share of a ball
    around the edge midpoint that lies in the wedge swept by the oriented
    angle of :func:`principal_angles` is the share of directions that do,
    at any radius, and no other simplex enters.  The returned value is 2*pi
    times the fraction of ``n_samples`` uniformly drawn unit directions in
    that wedge.  Serves as the sampled check of :func:`principal_dihedral`.

    The directions come from one generator seeded by ``seed``, so a fixed
    (seed, n_samples) pair gives the same value.  They are drawn in blocks
    of a fixed size, so memory does not grow with ``n_samples``.
    """
    return monte_carlo_dihedrals(P, [edge], n_samples, seed)[0]


def monte_carlo_dihedrals(
    P: Polyhedron,
    edges,
    n_samples: int = 10**6,
    seed: int = 0,
) -> list[float]:
    """:func:`monte_carlo_dihedral` at each of ``edges``, from one draw.

    A direction counts at an edge when its angle about the edge, in the
    frame of :func:`principal_angles`, is at most that edge's angle.  Every
    edge classifies the same unit directions in its own frame, so each
    block is drawn once for all edges and each value equals that of a
    separate call.  The blocks continue one generator, so they hold
    exactly the directions of one whole draw, and memory stays fixed
    whatever ``n_samples`` is.  Every edge is looked up, and then all
    frames are found in one pass, before any draw: an edge outside the
    surface raises first, and otherwise the first failing edge raises as a
    loop of separate calls would.  A folded edge reads 0.0.
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got n_samples={n_samples}")
    rows = [_edge_row(P, edge) for edge in edges]
    values = [0.0] * len(rows)
    e1, e2, a2, flags = _dihedral_frames(P.surface, P._vertex_array, rows)
    live = np.flatnonzero(~flags).tolist()
    if not live:
        return values

    counts = [0] * len(live)
    x, theta = np.empty(_MC_BLOCK), np.empty(_MC_BLOCK)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    for start in range(0, n_samples, _MC_BLOCK):
        m = min(n_samples - start, _MC_BLOCK)
        dirs = rng.normal(size=(m, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        xm, tm = x[:m], theta[:m]
        for j, i in enumerate(live):
            np.matmul(dirs, e1[i], out=xm)
            np.matmul(dirs, e2[i], out=tm)
            _wrap_2pi(np.arctan2(tm, xm, out=tm))
            counts[j] += int(np.count_nonzero(tm <= a2[i]))
    for i, count in zip(live, counts):
        values[i] = 2.0 * np.pi * count / n_samples
    return values


def oriented_volume(P: Polyhedron) -> float:
    """Signed volume enclosed by the oriented surface (divergence formula)."""
    return float(oriented_volumes(P.surface, P._vertex_array))


def weighted_angle_sum(P: Polyhedron) -> float:
    """Sum over edges of length times principal dihedral angle.

    A warning is emitted when any principal value is degenerate; such an
    edge contributes 0.
    """
    x = P._vertex_array
    angles, flags = principal_angles(P.surface, x)
    if flags.any():
        flagged = [e for e, f in zip(P.surface.edges, flags) if f]
        warnings.warn(f"degenerate dihedral angle at edges {flagged}; their "
                      f"contribution is 0 by convention", stacklevel=2)
    return float(weighted_angle_sums(P.surface, x, angles))
