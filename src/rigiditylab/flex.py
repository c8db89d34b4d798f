"""Numerical flexes on the edge-length constraint variety.

Configurations live in R^(3v).  The rigidity matrix is the Jacobian of the
squared edge lengths; its kernel beyond the six rigid motions measures
infinitesimal flexibility.  Flexes are traced by adaptive predictor-corrector
continuation that moves only within the slice of the rigid motions at the
predicted point.  The predictor is second order, along the unit tangent and
bent by its change over the last step; the corrector is Newton on a square
bordered system (Allgower & Georg): the rigidity matrix completed by the
self-stresses, closed by the six rigid motions and the pseudo-arclength
row.  A step costs one inverse of that matrix per corrector iteration and
none beyond it, as the last also gives the next tangent and self-stresses;
an SVD decides the kernel dimension at the start and where a screen fires.
A traced path is its configurations and step record; dihedral angles,
lifted series, arc lengths and monitor series are derived from them once,
on first read.  Every whole-path pass runs over blocks of PATH_BLOCK
configurations, so its memory is the path's own plus a fixed amount.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.linalg import _umath_linalg

from .geometry import (
    PATH_BLOCK,
    Polyhedron,
    face_areas,
    oriented_volumes,
    path_blocks,
    principal_angles,
    squared_lengths,
    weighted_angle_sums,
)
from .surfaces import SimplicialSurface

logger = logging.getLogger("rigiditylab")

SV_THRESHOLD = 1e-8
LIFT_AMBIGUITY_TOL = 1e-9
MAX_CORRECTOR_ITERS = 25
TRIVIAL_FLEX_TOL = 1e-7


class DegenerateConfigurationError(ValueError):
    """All vertices collinear; the rigid-motion space degenerates."""


class SingularPointError(ValueError):
    """Kernel dimension is not 1 where the tracer needs a unique tangent."""

    def __init__(self, message, flex_dim=None, path=None):
        super().__init__(message)
        self.flex_dim = flex_dim
        self.path = path


class CorrectorDivergenceError(ValueError):
    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path


class FaceDegenerationError(ValueError):
    def __init__(self, face, area, path=None):
        super().__init__(f"face {face} degenerated (area {area:.3e})")
        self.face = face
        self.area = area
        self.path = path


class LiftAmbiguityError(ValueError):
    """Consecutive principal values differ by exactly pi; lifting is ambiguous."""


def as_config(x) -> np.ndarray:
    """Coerce to an (n, 3) coordinate array."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 3)
    return x


def polyhedron_from_config(surface: SimplicialSurface, x) -> Polyhedron:
    rows = as_config(x).tolist()
    return Polyhedron(surface, {v: rows[i] for i, v in enumerate(surface.vertices)})


_svd = np.linalg.svd  # the rank test's, once per trace and where the screen fires

# The per-step inverse calls numpy's LAPACK gufunc as numpy 2.4's np.linalg.inv
# does (same gufunc and signature), so its result equals np.linalg.inv's to
# the bit, without the wrapper's dtype checks, result copy and error state.  A
# matrix LAPACK finds singular comes back all NaN, with numpy's invalid flag
# set, which the tracer's error state ignores; CHANGES.md records what each
# route costs.
def _inv(a, out=None):
    """np.linalg.inv(a), written into ``out`` when it is given; NaN where
    np.linalg.inv raises LinAlgError."""
    return _umath_linalg.inv(a, out, signature="d->d")


def _motion_rows(x) -> np.ndarray:
    """The six rigid motions at x as the rows of a (6, 3n) matrix: the
    translations, then the rotations e_k x (x_i - centroid), np.cross's
    products, signed zeros included."""
    rotations = np.cross(np.eye(3)[:, None], x - x.mean(axis=0)).reshape(3, -1)
    return np.vstack([np.tile(np.eye(3), len(x)), rotations])


def _slice_rows(T: np.ndarray, centre: np.ndarray):
    """A writer of the rotations e_k x (y - c) about a fixed centre c into
    rows 3-5 of the rigid motions T, a (6, 3*nv) view, for a flat
    configuration y: one signed gather from [y - c, -(y - c), 0], so their
    zero entries are +0."""
    n3 = T.shape[1]
    centre = np.tile(centre, n3 // 3)
    signed = np.zeros((3, n3))
    # Component i of e_k x d is entry source[k, 0, i] of [d, -d, 0].
    source = np.array([[6, 5, 1], [2, 6, 3], [4, 0, 6]])[:, None]
    entries = (n3 * (source // 3) + np.arange(0, n3, 3)[:, None] + source % 3).reshape(3, -1)
    rotations = T[3:]

    def write(y):
        np.subtract(y, centre, out=signed[0])
        np.negative(signed[0], out=signed[1])
        rotations[...] = signed.take(entries)

    return write


def _motion_qr(rows: np.ndarray, mode: str) -> np.ndarray:
    """Q of np.linalg.qr(rows.T, mode), ``rows`` the six rigid motions;
    collinear vertices zero the rotation about their line, and R's diagonal."""
    q, r = np.linalg.qr(rows.T, mode=mode)
    diag = np.abs(r.diagonal())
    if diag.min() <= 1e-12 * max(diag.max(), 1.0):
        raise DegenerateConfigurationError("vertices are collinear")
    return q


# Edge (i, j) writes 2*d in vertex i's block and -2*d in vertex j's block,
# d = x_i - x_j; -2.0*d is -(2.0*d) to the bit, signed zeros included.
_EDGE_SIGNS = np.array([2.0, -2.0])[:, None, None]


class _RigidityScatter:
    """Writes the rigidity matrix into the first E rows and 3*nv columns of a
    row-major matrix ``width`` columns wide, through flat positions built
    once; the zero entries are never written."""

    def __init__(self, surface, width: int):
        ends = surface.edge_table
        self.n_edges = len(ends)
        # Coordinate k of edge e's head (tail) is entry entries[0 (1), e, k] of
        # x.reshape(-1); its block in row e starts at width*e + 3*vertex.
        self.entries = 3 * ends.T[:, :, None] + np.arange(3)  # (head/tail, E, 3)
        self.positions = self.entries + width * np.arange(self.n_edges)[:, None]
        self.values = np.empty(self.positions.shape)

    def incidence(self, n3: int) -> np.ndarray:
        """The (3E, n3) +-1 matrix whose product with a flat configuration is
        its edge vectors: row 3e + k adds x_i and -x_j, coordinate k of edge
        e = (i, j), to zeros, so it rounds once, as x_i - x_j does; only a
        zero difference may come out with the other sign."""
        D = np.zeros((self.n_edges, 3, n3))
        rows, coords = np.arange(self.n_edges)[:, None], np.arange(3)
        D[rows, coords, self.entries[0]] = 1.0
        D[rows, coords, self.entries[1]] = -1.0
        return D.reshape(-1, n3)

    def write(self, out: np.ndarray, d) -> None:
        """Write the rows for the edge vectors d, x_i - x_j at edge (i, j)."""
        np.multiply(_EDGE_SIGNS, d, out=self.values)
        out.put(self.positions, self.values)


def rigidity_matrix(x, surface: SimplicialSurface) -> np.ndarray:
    """Jacobian of the squared edge lengths of ``surface`` at the
    configuration x, shape (n_edges, 3*n_vertices).

    The row of edge (i, j) carries 2*(x_i - x_j) in vertex i's block and the
    negative in vertex j's block.
    """
    x = as_config(x)
    scatter = _RigidityScatter(surface, x.size)
    R = np.zeros((scatter.n_edges, x.size))
    scatter.write(R, np.subtract(*x.take(scatter.entries)))
    return R


def trivial_motion_basis(x) -> np.ndarray:
    """Orthonormal basis of the rigid motions at x, shape (3n, 6).

    Three translations and three rotations linearized about the centroid;
    collinear vertices raise :class:`DegenerateConfigurationError`.
    """
    x = as_config(x)
    if x.shape[0] < 3:
        raise DegenerateConfigurationError("vertices are collinear")
    return _motion_qr(_motion_rows(x), "reduced")


def _rank_test(R: np.ndarray, motion_rows: np.ndarray):
    """The kernel of R beyond the rigid motions ``motion_rows``.

    A complete QR of the motions gives C, whose columns span their
    complement, and one SVD of R*C decides the rank with the cutoff
    SV_THRESHOLD * max(s[0], 1), that of [R; T.T], whose border adds six
    unit singular values.  Returns C, the kernel as rows in C's coordinates
    (one per dimension) and the left null space of R*C, the self-stresses.
    """
    C = _motion_qr(motion_rows, "complete")[:, 6:]
    u, s, vt = _svd(R @ C)
    rank = int(np.count_nonzero(s > SV_THRESHOLD * max(s[0], 1.0)))
    return C, vt[rank:], u[:, rank:]


def infinitesimal_flex_dim(x, surface: SimplicialSurface) -> int:
    """Kernel dimension of the rigidity matrix beyond the six rigid motions,
    from the rank test :func:`trace_flex` starts with: it is 1 exactly
    where a trace can start."""
    x = as_config(x)
    _, kernel, _ = _rank_test(rigidity_matrix(x, surface), _motion_rows(x))
    return len(kernel)


def squared_length_residual(x, surface, targets_sq) -> np.ndarray:
    return squared_lengths(surface, as_config(x)) - targets_sq


@dataclass(frozen=True)
class FlexPath:
    """Sampled one-parameter deformation: configurations and step record.

    ``configs`` has shape (K, n_vertices, 3); ``step_sizes`` and
    ``corrector_iters``, shape (K - 1,), hold each accepted step's size and
    corrector iterations; ``rejected_attempts`` counts the halved steps.
    Every other series derives from ``configs`` once, on first read; angle
    series have shape (K, n_edges), canonical edge order.
    """

    surface: SimplicialSurface
    configs: np.ndarray
    step_sizes: np.ndarray = field(default_factory=lambda: np.empty(0))
    corrector_iters: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    rejected_attempts: int = 0

    @property
    def n_samples(self) -> int:
        return len(self.configs)

    @property
    def diagnostics(self) -> list[dict]:
        """One ``{"step", "corrector_iters"}`` dict per accepted step."""
        return [{"step": h, "corrector_iters": n}
                for h, n in zip(self.step_sizes.tolist(), self.corrector_iters.tolist())]

    @cached_property
    def ts(self) -> np.ndarray:
        """Arc-length parameter of each sample, rescaled to [0, 1]."""
        x = self.configs
        arcs = np.empty(len(x[1:]))  # step k's length, |sample k+1 - sample k|
        for b in path_blocks(len(x)):
            d = (x[1:][b] - x[:-1][b]).reshape(-1, 3 * x.shape[1])
            arcs[b] = np.sqrt(np.vecdot(d, d))  # np.linalg.norm's arithmetic
        ts = np.concatenate([[0.0], np.cumsum(arcs)])
        return ts / ts[-1] if ts[-1] > 0 else ts

    @cached_property
    def _principal(self) -> tuple[np.ndarray, np.ndarray]:
        # Row-major, unlike the kernel's own output: each sample's angles are contiguous.
        raw = np.empty((self.n_samples, len(self.surface.edges)))
        flags = np.empty(raw.shape, dtype=bool)
        for b in path_blocks(self.n_samples):
            raw[b], flags[b] = principal_angles(self.surface, self.configs[b])
        return raw, flags

    raw_angles = property(lambda self: self._principal[0], doc="Principal values in [0, 2*pi).")
    degenerate_flags = property(lambda self: self._principal[1], doc="Where a value is 0 by fiat.")

    @cached_property
    def lifted_angles(self) -> np.ndarray:
        """Continuous lifts of the principal values, see :func:`lift_angles`."""
        return lift_angles(self.raw_angles)

    @cached_property
    def initial_lengths(self) -> np.ndarray:
        return np.sqrt(squared_lengths(self.surface, self.configs[0]))

    @cached_property
    def monitor_series(self) -> tuple[np.ndarray, np.ndarray]:
        """Oriented volume and length-weighted lifted-angle sum per sample."""
        x, angles = self.configs, self.lifted_angles
        volumes, weighted = np.empty(len(x)), np.empty(len(x))
        for b in path_blocks(len(x)):
            volumes[b] = oriented_volumes(self.surface, x[b])
            weighted[b] = weighted_angle_sums(self.surface, x[b], angles[b])
        return volumes, weighted

    def length_drift(self) -> float:
        """Maximum relative edge-length drift over the whole path."""
        L = self.initial_lengths
        worst = 0.0
        for b in path_blocks(self.n_samples):
            ell = np.sqrt(squared_lengths(self.surface, self.configs[b]))
            worst = np.max(np.abs(ell - L) / L, initial=worst)
        return float(worst)


def lift_angles(raw: np.ndarray, degenerate: np.ndarray | None = None) -> np.ndarray:
    """Unwrap principal-value series into continuous lifted series.

    ``raw`` has shape (K, n_edges), or (K,) for one edge, with values in
    [0, 2*pi).  Each lifted series starts at the raw value at the first
    sample and accumulates increments wrapped into (-pi, pi].  A fold reads
    0, within 1e-9 of the angle modulo 2*pi, and is unwrapped like any other
    value.  ``degenerate`` is not read; it stays only because the benchmark
    harness passes it, and goes at the next change to the harness.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim == 1:
        raw = raw[:, None]
    # The steps, then their running sums, are written into the result, so a
    # lift holds the result and one more array of its size.
    lifted = np.empty_like(raw)
    steps = np.subtract(raw[1:], raw[:-1], out=lifted[1:])  # np.diff's bits
    np.subtract(np.pi, steps, out=steps)  # wrapped into (-pi, pi] as pi - mod(pi - step, 2*pi)
    np.subtract(np.pi, np.mod(steps, 2.0 * np.pi, out=steps), out=steps)
    miss = np.abs(steps)  # then | |step| - pi |
    ambiguous = np.abs(np.subtract(miss, np.pi, out=miss), out=miss) <= LIFT_AMBIGUITY_TOL
    if ambiguous.any():
        e = int(np.flatnonzero(ambiguous.any(axis=0))[0])
        bad = int(np.flatnonzero(ambiguous[:, e])[0])
        raise LiftAmbiguityError(
            f"edge column {e}: consecutive principal values "
            f"{raw[bad, e]:.6f} and {raw[bad + 1, e]:.6f} differ by pi"
        )
    lifted[:1] = raw[:1]
    np.add(raw[:1], np.cumsum(steps, axis=0, out=steps), out=steps)
    return lifted


def _start_direction(tangent: np.ndarray) -> np.ndarray:
    """``tangent`` or its negative, whichever has a positive leading entry.

    The leading entry is the first whose magnitude lies within 1e-9
    (relative) of the largest, so entries tied by symmetry choose the same
    sign however their last bits round.
    """
    mag = np.abs(tangent)
    lead = int(np.argmax(mag >= (1.0 - 1e-9) * mag.max()))
    return -tangent if tangent[lead] < 0 else tangent


def _screen(kf2: float, inverse: np.ndarray, n3: int) -> bool:
    """Whether the rank test must decide at the square bordered matrix
    M = [[R, W], [T.T, 0], [t, 0]], R with n3 columns and W unit columns,
    from kf2 = |M|_F^2 |M^-1|_F^2 and ``inverse``, M^-1:
    kappa_F(M) >= 1/SV_THRESHOLD, border multipliers mu (M^-1's last column
    below row n3) with sum |mu_i| >= SV_THRESHOLD, or a NaN.  It fires
    wherever that test finds no unique tangent.  A kernel of R*C of
    dimension 2 has s[-2] <= SV_THRESHOLD*max(s[0], 1): M maps some unit
    [d; 0] to |R*d| <= s[-2], and [t; 0] and C's first singular vector to at
    least 1 and s[0].  Full rank has s[-1] > SV_THRESHOLD*max(s[0], 1), and
    the last column [v; mu], t.v = 1, has s[-1] <= |R*v| = |W*mu| <= sum |mu_i|.
    """
    return not (kf2 < SV_THRESHOLD**-2 and np.add.reduce(np.abs(inverse[n3:, -1])) < SV_THRESHOLD)


def trace_flex(
    x0,
    surface: SimplicialSurface,
    n_steps: int = 200,
    step: float = 0.01,
    tol: float | None = None,
) -> FlexPath:
    """Trace a flex from a flexible configuration.

    The step size starts at ``step`` (also its cap), halves on corrector
    failure and doubles after three consecutive easy corrections.  Tracing
    aborts with :class:`SingularPointError` when the kernel dimension leaves
    1, with :class:`FaceDegenerationError` when a face area collapses, and
    with :class:`CorrectorDivergenceError` when no step size works; the
    partial path is attached to the exception.  A path, whole or partial,
    is its configurations and step record, and the tracer computes no angle
    past the start check; a start that is not finite, or whose longest edge
    is 2**256 or longer, raises ValueError.
    The corrector stops when every residual is at most ``tol``, positive and
    below 2**512 (a larger one raises ValueError), by default 1e-11 times
    the squared longest edge.  That bounds
    how far a face's area can move from the start's, so face_areas runs
    once, at the start, and at each accepted point only if some face starts
    within twice that bound of collapse.

    The predictor is x_pred = x + h*t + (h*h/2)*kappa, where t is the unit
    tangent and kappa = (t - t_prev) / h_prev is the tangent's change over
    the last accepted step (zero before the first), so the corrector starts
    O(h^3) from the curve and one Newton step usually meets ``tol``.

    A step stays in the slice T.T*(y - x_pred) = 0, T the rigid motions at
    x_pred with rotations about the start's centroid, where the tangent and
    every Newton step, free of translation, keep the centroid; and on the
    row t.(y - x_pred) = 0 (Allgower & Georg).  Each corrector iteration
    adds M^-1[:3v, :E]*(-g), g the squared-length residual,
    M = [[R(y), W], [T.T, 0], [t, 0]] and W the self-stresses from the last
    accepted point (one column on a sphere); a singular M, or a Newton step
    to a non-finite y (whose residual is NaN or infinite), fails the
    attempt.  A residual test takes |g|_inf only where |g|^2 leaves it open,
    and a Newton step d is accepted untested where 2|d|^2 + sqrt(c)|mu|,
    mu = M^-1[3v:, :E]*(-g) and c the columns of W, plus rounding is at
    most tol/2, a bound on the residual at y + d.  The last inverse, or one at
    the accepted point if no iteration ran, gives the next tangent, its
    last column's first 3v entries normalized (t.v = 1 keeps the sign), and
    the next W, its rows at W's columns normalized.  At the start, and
    where the screen on M^-1 fires (see ``_screen``), the rank test that
    :func:`infinitesimal_flex_dim` also runs decides at the accepted point
    (see ``_rank_test``); where the kernel dimension is 1, its SVD gives the
    tangent and W.

    Configurations, the tangent and kappa are flat 3v-vectors, one product
    with a fixed +-1 incidence matrix gives the edge vectors, and every
    inverse is written into one buffer, so a step of one corrector iteration
    makes 34 small numpy calls, among them one inverse, one residual pass,
    and the bound and the screen, which read one kappa_F(M) per inverse.
    CHANGES.md records what each costs.
    """
    if not 0.0 < step < np.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    if tol is not None and not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if tol is not None and not tol < 2.0**512:  # the bounds below take tol**2
        raise ValueError(f"tol is {tol}; the tracer takes its square, which overflows "
                         f"from 2**512 on")
    x = as_config(x0).copy()
    if not (finite := np.isfinite(x).all(axis=1)).all():
        i = int(np.argmin(finite))
        raise ValueError(f"start must be finite, got {x[i].tolist()} in row {i}")
    nv = x.shape[0]
    targets_sq = squared_lengths(surface, x)
    max_len = float(np.sqrt(targets_sq).max())
    if not max_len < 2.0**256:  # the bounds below take max_len**4, which overflows from here
        edge = surface.edges[int(np.argmax(targets_sq))]
        raise ValueError(f"longest edge {edge} has length {max_len:.6e}; "
                         f"the tracer takes its fourth power, which overflows from 2**256 on")
    if tol is None:
        tol = 1e-11 * max_len**2
    area_tol = 1e-12 * max_len**2

    principal_angles(surface, x)  # a bad surface or start raises before tracing
    # 16 A^2 = 2(ab + bc + ca) - a^2 - b^2 - c^2 in a face's squared sides, which
    # the corrector holds within tol of the start's: no face's 16 A^2 moves by more
    # than 12 L^2 tol + 9 tol^2 (L the longest edge) and rounding.  If every face
    # starts clear of area_tol by twice that, none is tested again.
    drift = 12.0 * max_len**2 * tol + 9.0 * tol**2 + 1e-12 * max_len**4
    check_faces = 16.0 * (face_areas(surface, x).min() ** 2 - area_tol**2) <= 2.0 * drift
    centre, start_motions = x.mean(axis=0), _motion_rows(x)
    x = x.reshape(-1)  # configurations, tangents and kappa are flat 3v-vectors from here on
    # Per accepted step, its size and corrector iterations: objects that
    # already exist, so a step leaves no new small object behind.
    sizes, iters = [], []
    # Accepted samples, PATH_BLOCK to an array; sample k is row k % PATH_BLOCK
    # of block k // PATH_BLOCK, and blocks are added as the path grows.
    store: list[np.ndarray] = []

    def keep(y):  # y is sample len(sizes): the start or the last step's end
        k = len(sizes) % PATH_BLOCK
        if k == 0:
            store.append(np.empty((PATH_BLOCK, x.size)))
        store[-1][k] = y

    keep(x)
    # One bordered matrix M = [[R, W], [T.T, 0], [t, 0]], zeroed once, serves
    # every iteration and tangent: R is rewritten at each configuration, T's
    # rotations and t at each step, W at each tangent.  With flex dimension 1,
    # 3v <= E + 7 and M is square; a wider M stops the trace at the start.
    n_edges, n3 = len(targets_sq), x.size
    M = np.zeros((n_edges + 7, max(n_edges + 7, n3)))
    R, W, T, t_row = M[:n_edges, :n3], M[:n_edges, n3:], M[n_edges:-1, :n3], M[-1, :n3]
    scatter, motions = _RigidityScatter(surface, M.shape[1]), _slice_rows(T, centre)
    # The current configuration's edge vectors, written in place by one product
    # with the incidence matrix.
    incidence, dy = scatter.incidence(n3), np.empty((n_edges, 3))
    dy_flat = dy.reshape(-1)
    neg_g = np.empty(n_edges)  # -g, written in place
    inverse = np.empty_like(M)  # every inverse of M; the Newton, stress and tangent blocks
    newton, stress, tangent_col = inverse[:n3, :n_edges], inverse[n3:, :n_edges], inverse[:n3, -1]
    far = 2.0 * n_edges * (tol * tol)  # a sum of g_e^2 above it, rounding and all, has |g_e| > tol
    # M [d; mu] = [-g; 0; 0] leaves g(y + d)_e = -(W mu)_e + |d_i - d_j|^2, at most
    # sqrt(c)|mu| + 2|d|^2 as W's c columns are unit.  Rounding adds about eps kappa_F(M) |g|
    # in the solve and a few eps L (L + |y|_inf) in y + d and g; the slice keeps the
    # centroid, and a connected surface's vertices lie within nv L of it.  A step whose
    # bound is at most tol/2 is accepted untested.
    eps, root_c = np.finfo(float).eps, math.sqrt(M.shape[1] - n3)
    slack = 16.0 * eps * max_len * ((nv + 1) * max_len + float(np.abs(centre).max()))
    solve_eps = 4.0 * len(M) * eps
    rejected = 0

    def path():
        # The path ends the trace, so its copy replaces the blocks.
        configs = np.concatenate([*store[:-1], store[-1][: len(sizes) % PATH_BLOCK + 1]])
        store.clear()
        return FlexPath(surface, configs.reshape(-1, nv, 3), np.array(sizes, float),
                        np.array(iters, int), rejected)

    def rank_test():
        """The unit tangent and W from the rank test at x and T."""
        incidence.dot(x, out=dy_flat)
        scatter.write(M, dy)
        C, kernel, stresses = _rank_test(R, T)
        if (dim := len(kernel)) != 1:
            raise SingularPointError(f"kernel dimension beyond rigid motions is {dim}, not 1",
                                     flex_dim=dim, path=path())
        W[:] = stresses
        return C @ kernel[0]

    T[:] = start_motions  # translations kept; the start's rank test is infinitesimal_flex_dim's
    tangent = _start_direction(rank_test())

    h, easy_run = step, 0
    kappa = np.zeros_like(tangent)  # the tangent's change per unit step; Euler first
    # A singular M, an overflowing Newton step and the iterates past it fail
    # by their NaN or infinite values, whatever the caller's error state.
    with np.errstate(all="ignore"):
        while len(sizes) < n_steps:
            if h < step * 2.0**-24:
                raise CorrectorDivergenceError(
                    f"step size underflow at accepted step {len(sizes)}", path=path())
            x_pred = x + (h * tangent + (h * h / 2) * kappa)
            motions(x_pred)
            t_row[:] = tangent
            y = x_pred  # no array is changed in place below
            gn_iters = None
            for it in range(MAX_CORRECTOR_ITERS):
                # The edge vectors feed the residual and the Jacobian.
                incidence.dot(y, out=dy_flat)
                np.subtract(targets_sq, np.vecdot(dy, dy), out=neg_g)
                if not far < (gg := neg_g.dot(neg_g)) < np.inf:
                    if (worst := np.maximum.reduce(np.abs(neg_g))) <= tol:
                        gn_iters = it
                        break
                    if not worst < np.inf:  # a NaN or inf residual, from a non-finite y, fails
                        break
                scatter.write(M, dy)
                _inv(M, inverse)  # a singular M's NaN inverse makes the next residual NaN
                kf2 = np.vdot(M, M) * np.vdot(inverse, inverse)  # kappa_F(M)^2, for the screen too
                y = y + (d := newton.dot(neg_g))
                mu = stress.dot(neg_g)
                bound = root_c * math.sqrt(mu.dot(mu)) + 2.0 * d.dot(d) + slack
                rounding = solve_eps * math.sqrt(kf2 * gg)  # >= 0, or NaN
                # No test follows the last step.
                if it + 1 < MAX_CORRECTOR_ITERS and bound + rounding <= 0.5 * tol:
                    gn_iters = it + 1
                    break
            if gn_iters is None:
                rejected, h, easy_run = rejected + 1, 0.5 * h, 0
                logger.debug("corrector failed, halving step to %.3e", h)
                continue

            if check_faces:
                areas = face_areas(surface, y.reshape(nv, 3))
                if (smallest := np.minimum.reduce(areas)) <= area_tol:
                    fi = int(np.argmin(areas))
                    raise FaceDegenerationError(surface.faces[fi], float(smallest), path=path())

            sizes.append(h)
            iters.append(gn_iters)
            x = y
            keep(x)

            # The last inverse gives the tangent: T in M is x_pred's and R the
            # last iterate's, O(h^3) from x.  A step that took no iteration
            # inverts at x.
            if gn_iters == 0:
                scatter.write(M, dy)
                _inv(M, inverse)
                kf2 = np.vdot(M, M) * np.vdot(inverse, inverse)
            if _screen(kf2, inverse, n3):
                new_tangent = rank_test()  # the rank test decides at x
            else:
                np.divide(stress.T, np.sqrt(np.vecdot(stress, stress)), out=W)
                new_tangent = tangent_col / math.sqrt(tangent_col.dot(tangent_col))
            if new_tangent.dot(tangent) < 0:
                new_tangent = -new_tangent
            kappa = (new_tangent - tangent) / h
            tangent = new_tangent

            easy_run = easy_run + 1 if gn_iters <= 3 else 0
            if easy_run >= 3:
                h, easy_run = min(2.0 * h, step), 0

    return path()


def is_trivial_flex(path: FlexPath) -> bool:
    """True when every sample is a rigid motion of the first one.

    Edge lengths and oriented dihedral angles fix a closed triangulated
    surface up to proper congruence, so the path is trivial iff no lifted
    angle moves by more than TRIVIAL_FLEX_TOL radians and no edge length
    drifts by more than TRIVIAL_FLEX_TOL of its initial value.  Both halves
    are needed: a scaled sample keeps every angle, a mirrored one every
    length.
    """
    spread = np.ptp(path.lifted_angles, axis=0).max()
    return spread <= TRIVIAL_FLEX_TOL and path.length_drift() <= TRIVIAL_FLEX_TOL
