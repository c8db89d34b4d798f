"""Numerical flexes on the edge-length constraint variety.

Configurations live in R^(3v).  The rigidity matrix is the Jacobian of the
squared edge lengths; its kernel beyond the six rigid motions measures
infinitesimal flexibility.  Flexes are traced by adaptive predictor-corrector
continuation in slice coordinates: each step factors the rigid motions at
the predicted point once, and moves only along the 3v - 6 orthonormal
directions C orthogonal to them.  The predictor is second order, along the
unit tangent and bent by its change over the last step; the corrector is
Newton on a square bordered system, the reduced rigidity matrix R*C
completed by its left null space and closed by the pseudo-arclength row
(Allgower & Georg), so a step costs one complete QR, one SVD of R*C for the
next tangent and, on a smooth flex, one LU solve.
The tracer keeps only configurations, in fixed-size blocks; dihedral angles
are computed from the finished path and unwrapped into continuous lifted
series.  Every whole-path pass runs over blocks of PATH_BLOCK configurations,
so its memory is the path's own plus a fixed amount.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.linalg import _linalg, _umath_linalg

from .geometry import (
    _CROSS_A,
    _CROSS_B,
    PATH_BLOCK,
    Polyhedron,
    path_blocks,
    principal_angles,
    squared_lengths,
)
from .surfaces import SimplicialSurface, edge_table

logger = logging.getLogger("rigiditylab")

SV_THRESHOLD = 1e-8
LIFT_AMBIGUITY_TOL = 1e-9
MAX_CORRECTOR_ITERS = 25
TRIVIAL_FLEX_TOL = 1e-7


class DegenerateConfigurationError(Exception):
    """All vertices collinear; the rigid-motion space degenerates."""


class SingularPointError(Exception):
    """Kernel dimension is not 1 where the tracer needs a unique tangent."""

    def __init__(self, message, flex_dim=None, path=None):
        super().__init__(message)
        self.flex_dim = flex_dim
        self.path = path


class CorrectorDivergenceError(Exception):
    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path


class FaceDegenerationError(Exception):
    def __init__(self, face, area, path=None):
        super().__init__(f"face {face} degenerated (area {area:.3e})")
        self.face = face
        self.area = area
        self.path = path


class LiftAmbiguityError(Exception):
    """Consecutive principal values differ by exactly pi; lifting is ambiguous."""


def as_config(x) -> np.ndarray:
    """Coerce to an (n, 3) coordinate array."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 3)
    return x


def polyhedron_from_config(surface: SimplicialSurface, x) -> Polyhedron:
    x = as_config(x)
    return Polyhedron(surface, {v: x[i] for i, v in enumerate(surface.vertices)})


# The tracer's factorizations call numpy's LAPACK gufuncs as numpy 2.4's
# np.linalg.qr, svd and solve do (same gufuncs, signatures, input copies,
# error states and LinAlgError handlers), so their results equal the public
# functions' to the bit without the wrappers' dtype checks, triu and result
# copies.
_QR_R_RAW, _QR_REDUCED = _umath_linalg.qr_r_raw, _umath_linalg.qr_reduced
_QR_COMPLETE = _umath_linalg.qr_complete
_SVD_F, _SOLVE1 = _umath_linalg.svd_f, _umath_linalg.solve1
_lapack_errors = partial(
    np.errstate, invalid="call", over="ignore", divide="ignore", under="ignore"
)


def _qr(a: np.ndarray, complete: bool = False):
    """Q of np.linalg.qr(a), or of mode="complete", for a float (m, n)
    matrix, m > n, and |diag R|."""
    a = a.copy()  # factored in place into R above the diagonal and reflectors below
    with _lapack_errors(call=_linalg._raise_linalgerror_qr):
        tau = _QR_R_RAW(a, signature="d->d")
    with _lapack_errors(call=_linalg._raise_linalgerror_qr):
        q = (_QR_COMPLETE if complete else _QR_REDUCED)(a, tau, signature="dd->d")
    return q, np.abs(a.diagonal())


def _svd(a: np.ndarray):
    """np.linalg.svd(a) of a float matrix: u, s, vt."""
    with _lapack_errors(call=_linalg._raise_linalgerror_svd_nonconvergence):
        return _SVD_F(a, signature="d->ddd")


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) for a float square matrix and a vector b."""
    with _lapack_errors(call=_linalg._raise_linalgerror_singular):
        return _SOLVE1(a, b, signature="dd->d")


# Rotation k is e_k x c.  Columns 0-2 of cz hold c, columns 3-5 the signed
# zeros 0*c; component i of rotation k is cz[:, PLUS[i][k]] - cz[:, MINUS[i][k]],
# np.cross's products.
_ROT_PAIRS = np.array([
    [[5, 2, 5], [3, 3, 0], [1, 4, 4]],  # PLUS
    [[4, 4, 1], [2, 5, 5], [3, 0, 3]],  # MINUS
])


class _MotionBasis:
    """Orthonormal rigid motions of nv-vertex configurations.

    The (nv, 3, 6) basis scaffold carries its translation columns from the
    start; each call refills the rotation columns in place and factors the
    scaffold.  A complete factorization's last 3*nv - 6 columns span the
    motions' orthogonal complement.
    """

    def __init__(self, nv: int):
        self.nv = nv
        self.basis = np.zeros((nv, 3, 6))
        for i in range(3):
            self.basis[:, i, i] = 1.0
        self.cz = np.empty((nv, 6))
        self.rot = np.empty((nv, *_ROT_PAIRS.shape))
        # Views into the buffers above, taken once.
        self.c, self.zeros = self.cz[:, :3], self.cz[:, 3:]
        self.plus, self.minus = self.rot[:, 0], self.rot[:, 1]
        self.rotations = self.basis[:, :, 3:]
        self.matrix = self.basis.reshape(3 * nv, 6)

    def __call__(self, x, complete: bool = False) -> np.ndarray:
        if self.nv < 3:
            raise DegenerateConfigurationError("vertices are collinear")
        np.subtract(x, np.add.reduce(x, axis=0) / self.nv, out=self.c)  # x - x.mean(axis=0), bit for bit
        np.multiply(0.0, self.c, out=self.zeros)
        # The table is in range by construction; "clip" skips the bounds
        # check that buffers take's output.
        self.cz.take(_ROT_PAIRS, axis=1, out=self.rot, mode="clip")
        np.subtract(self.plus, self.minus, out=self.rotations)
        q, diag = _qr(self.matrix, complete)
        if np.minimum.reduce(diag) <= 1e-12 * max(np.maximum.reduce(diag), 1.0):
            raise DegenerateConfigurationError("vertices are collinear")
        return q


# Edge (i, j) writes 2*d in vertex i's block and -2*d in vertex j's block,
# d = x_i - x_j; -2.0*d is -(2.0*d) to the bit, signed zeros included.
_EDGE_SIGNS = np.array([2.0, -2.0])[:, None, None]


class _RigidityScatter:
    """Writes the rigidity matrix into the first E rows of a row-major
    (rows, 3*nv) matrix, through flat positions built once; the zero entries
    are never written."""

    def __init__(self, surface, nv: int):
        ends = edge_table(surface)
        self.n_edges = len(ends)
        self.heads, self.tails = ends[:, 0], ends[:, 1]
        # Entry k of vertex v's block in row e sits at 3*(nv*e + v) + k.
        blocks = ends.T + nv * np.arange(self.n_edges)
        self.positions = 3 * blocks[:, :, None] + np.arange(3)  # (head/tail, E, 3)
        self.values = np.empty(self.positions.shape)

    def write(self, out: np.ndarray, d) -> None:
        """Write the rows for the edge vectors d = x[heads] - x[tails]."""
        np.multiply(_EDGE_SIGNS, d, out=self.values)
        np.put(out, self.positions, self.values)


def _kernel(A: np.ndarray) -> np.ndarray:
    """Right singular vectors of A beyond its numerical rank, as columns."""
    _, s, vt = _svd(A)
    cutoff = SV_THRESHOLD * s[0] if s.size else 0.0
    rank = int(np.count_nonzero(s > cutoff))
    null_dim = A.shape[1] - rank
    return vt[A.shape[1] - null_dim :].T if null_dim else np.zeros((A.shape[1], 0))


def rigidity_matrix(x, surface: SimplicialSurface) -> np.ndarray:
    """Jacobian of the squared edge lengths, shape (n_edges, 3*n_vertices).

    The row of edge (i, j) carries 2*(x_i - x_j) in vertex i's block and the
    negative in vertex j's block.
    """
    x = as_config(x)
    scatter = _RigidityScatter(surface, x.shape[0])
    R = np.zeros((scatter.n_edges, 3 * x.shape[0]))
    scatter.write(R, x[scatter.heads] - x[scatter.tails])
    return R


def trivial_motion_basis(x) -> np.ndarray:
    """Orthonormal basis of the rigid motions at x, shape (3n, 6).

    Three translations and three rotations linearized about the centroid.
    Collinear vertices zero the rotation about their line, which shows as a
    vanishing diagonal entry of the QR factor.
    """
    x = as_config(x)
    return _MotionBasis(x.shape[0])(x)


def _kernel_beyond_trivial(x, surface):
    """Kernel vectors of the rigidity matrix orthogonal to rigid motions."""
    return _kernel(np.vstack([rigidity_matrix(x, surface), trivial_motion_basis(x).T]))


def infinitesimal_flex_dim(x, surface: SimplicialSurface) -> int:
    """Kernel dimension of the rigidity matrix beyond the six rigid motions."""
    return _kernel_beyond_trivial(x, surface).shape[1]


def squared_length_residual(x, surface, targets_sq) -> np.ndarray:
    return squared_lengths(surface, as_config(x)) - targets_sq


@dataclass
class FlexPath:
    """Sampled one-parameter deformation with continuous lifted angles.

    ``ts`` is arc-length-proportional, rescaled to [0, 1].  ``configs`` has
    shape (K, n_vertices, 3); ``raw_angles`` and ``lifted_angles`` have shape
    (K, n_edges) in canonical edge order.  ``step_sizes`` and
    ``corrector_iters`` have shape (K - 1,): the size of each accepted step
    and the corrector iterations it took.
    """

    surface: SimplicialSurface
    ts: np.ndarray
    configs: np.ndarray
    raw_angles: np.ndarray
    lifted_angles: np.ndarray
    degenerate_flags: np.ndarray
    initial_lengths: np.ndarray
    step_sizes: np.ndarray = field(default_factory=lambda: np.empty(0))
    corrector_iters: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    @property
    def n_samples(self) -> int:
        return len(self.ts)

    @property
    def diagnostics(self) -> list[dict]:
        """One ``{"step", "corrector_iters"}`` dict per accepted step."""
        return [{"step": h, "corrector_iters": n}
                for h, n in zip(self.step_sizes.tolist(), self.corrector_iters.tolist())]

    def length_drift(self) -> float:
        """Maximum relative edge-length drift over the whole path."""
        L = self.initial_lengths
        worst = 0.0
        for b in path_blocks(self.n_samples):
            ell = np.sqrt(squared_lengths(self.surface, self.configs[b]))
            worst = np.max(np.abs(ell - L) / L, initial=worst)
        return float(worst)


def _wrap_to_pi(delta: np.ndarray) -> np.ndarray:
    """Map angle differences into (-pi, pi]."""
    return np.pi - np.mod(np.pi - delta, 2.0 * np.pi)


def lift_angles(raw: np.ndarray, degenerate: np.ndarray | None = None) -> np.ndarray:
    """Unwrap principal-value series into continuous lifted series.

    ``raw`` has shape (K, n_edges), or (K,) for one edge, with values in
    [0, 2*pi); ``degenerate`` has the same shape.  Each lifted series starts
    at the raw value at the first sample and accumulates increments wrapped
    into (-pi, pi].  Samples flagged degenerate carry the artificial
    principal value 0; they are bridged by skipping them in the unwrap and
    filling linearly between their lifted neighbours, which picks the
    0 / 2*pi branch consistent with continuity.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim == 1:
        raw = raw[:, None]
    K, E = raw.shape
    if degenerate is None:
        degenerate = np.zeros_like(raw, dtype=bool)
    degenerate = np.reshape(degenerate, raw.shape)
    lifted = np.empty_like(raw)
    for e in range(E):
        good = np.flatnonzero(~degenerate[:, e])
        if good.size == 0:
            lifted[:, e] = 0.0
            continue
        series = raw[good, e]
        deltas = _wrap_to_pi(np.diff(series))
        ambiguous = np.abs(np.abs(deltas) - np.pi) <= LIFT_AMBIGUITY_TOL
        if np.any(ambiguous):
            bad = int(np.flatnonzero(ambiguous)[0])
            raise LiftAmbiguityError(
                f"edge column {e}: consecutive principal values "
                f"{series[bad]:.6f} and {series[bad + 1]:.6f} differ by pi"
            )
        unwrapped = np.concatenate([[series[0]], series[0] + np.cumsum(deltas)])
        col = np.interp(np.arange(K), good, unwrapped)
        # np.interp holds boundary values constant, which keeps a leading
        # degenerate sample at the defined principal value 0 only if raw says
        # so; the first sample is never altered when it is non-degenerate.
        if degenerate[0, e]:
            col[0] = raw[0, e]
        lifted[:, e] = col
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


def _side_areas(surface, heads, tails):
    """face_areas(surface, y) from the edge vectors dy = y[heads] - y[tails].

    Each face (a, b, c)'s sides b - a and c - a are +-dy at one edge each.
    A sign flips the cross product exactly and leaves its square, so one
    take of the entries that _cross multiplies gives face_areas' bits.
    """
    row = {}
    for e, ends in enumerate(zip(heads.tolist(), tails.tolist())):
        row[ends] = row[ends[::-1]] = e
    entries = np.array([[3 * row[a, b] + _CROSS_A, 3 * row[a, c] + _CROSS_B]
                        for a, b, c in surface.face_table.tolist()])

    def areas(dy):
        sides = dy.reshape(-1).take(entries)
        p = sides[:, 0] * sides[:, 1]
        n = p[:, :3] - p[:, 3:]
        return 0.5 * np.sqrt(np.vecdot(n, n))

    return areas


def trace_flex(
    x0,
    surface: SimplicialSurface,
    direction_hint: np.ndarray | None = None,
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
    partial path is attached to the exception.  The corrector stops when
    every residual is at most ``tol``, positive and finite, by default
    1e-11 times the squared longest edge.

    The predictor is x_pred = x + h*t + (h*h/2)*kappa, where t is the unit
    tangent and kappa = (t - t_prev) / h_prev is the tangent's change over
    the last accepted step (zero before the first), so the corrector starts
    O(h^3) from the curve and one Newton step usually meets ``tol``.

    A step works in slice coordinates: a complete QR of the rigid motions
    at x_pred gives the orthonormal complement C, shape (3v, 3v - 6), and
    the corrector moves y = x_pred + C*z.  Each iteration solves the square
    bordered system [[R(y)*C, W], [t_c, 0]] [z; mu] = [-g; 0], where g is
    the squared-length residual, t_c = C.T*t makes the pseudo-arclength
    row t.(y - x_pred) = 0, and W is the left null space of R*C from the
    last accepted point (one column on a sphere).  A singular system counts
    as a failed attempt.  At the accepted point, one SVD of R(y)*C gives
    the next tangent, from the last right singular vector, and the next W.
    Its cutoff is SV_THRESHOLD * max(s[0], 1), the cutoff of the bordered
    Jacobian [R; T.T], whose border adds six unit singular values, so the
    kernel dimension is the same.

    Each step therefore costs one QR, one SVD and, on a smooth flex, one LU
    solve, on matrices of order 3v - 6 or E + 1 that are set up once per
    trace and refilled in place.  These calls bypass numpy.linalg's Python
    wrappers and go straight to the same LAPACK gufuncs with the same
    arguments, so every result is the public functions' to the bit.
    """
    if not 0.0 < step < np.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    if tol is not None and not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    x = as_config(x0).copy()
    nv = x.shape[0]
    targets_sq = squared_lengths(surface, x)
    initial_lengths = np.sqrt(targets_sq)
    max_len = float(initial_lengths.max())
    if tol is None:
        tol = 1e-11 * max_len**2
    area_tol = 1e-12 * max_len**2

    principal_angles(surface, x)  # a bad surface or start raises before tracing
    # Per accepted step, its size and corrector iterations: objects that
    # already exist, so a step leaves no new small object behind.
    sizes: list[float] = []
    iters: list[int] = []
    # Accepted samples, PATH_BLOCK to an array; sample k is row k % PATH_BLOCK
    # of block k // PATH_BLOCK, and blocks are added as the path grows.
    store: list[np.ndarray] = []

    def keep(y):  # y is sample len(sizes): the start or the last step's end
        k = len(sizes) % PATH_BLOCK
        if k == 0:
            store.append(np.empty((PATH_BLOCK, nv, 3)))
        store[-1][k] = y

    keep(x)
    # One bordered matrix B = [[R*C, W], [t_c, 0]], zeroed once, serves every
    # corrector iteration and tangent: R*C is rewritten in place at each
    # configuration, t_c once per step and W after each tangent.  Where the
    # flex dimension is 1, 3v - 6 <= E + 1 and B is square; elsewhere it may
    # be wider, and the trace stops at the tangent before B is solved.
    scatter, motions = _RigidityScatter(surface, nv), _MotionBasis(nv)
    heads, tails = scatter.heads, scatter.tails
    side_areas = _side_areas(surface, heads, tails)
    n_edges, n_slice = len(targets_sq), 3 * nv - 6
    R = np.zeros((n_edges, 3 * nv))  # the rigidity matrix, zeros never written
    B = np.zeros((n_edges + 1, max(n_edges + 1, n_slice)))
    RC, W, t_c = B[:n_edges, :n_slice], B[:n_edges, n_slice:], B[n_edges, :n_slice]
    rhs = np.zeros(n_edges + 1)  # [-g; 0], -g written in place
    neg_g = rhs[:n_edges]

    def path():
        # The path ends the trace, so its copy replaces the blocks.
        configs = np.concatenate([*store[:-1], store[-1][: len(sizes) % PATH_BLOCK + 1]])
        store.clear()
        # Row-major, so each configuration's angles are contiguous; the
        # batched kernel itself returns column-major arrays.
        raw = np.empty((len(configs), len(surface.edges)))
        flags = np.empty(raw.shape, dtype=bool)
        arcs = np.empty(len(sizes))  # step k's length, |sample k+1 - sample k|
        for b in path_blocks(len(configs)):
            raw[b], flags[b] = principal_angles(surface, configs[b])
            d = (configs[1:][b] - configs[:-1][b]).reshape(-1, 3 * nv)
            arcs[b] = np.sqrt(np.vecdot(d, d))  # np.linalg.norm's arithmetic
        ts = np.concatenate([[0.0], np.cumsum(arcs)])
        if ts[-1] > 0:
            ts = ts / ts[-1]
        return FlexPath(
            surface=surface,
            ts=ts,
            configs=configs,
            raw_angles=raw,
            lifted_angles=lift_angles(raw, flags),
            degenerate_flags=flags,
            initial_lengths=initial_lengths,
            step_sizes=np.array(sizes, dtype=float),
            corrector_iters=np.array(iters, dtype=int),
        )

    def tangent_at(dy, C):  # dy = y[heads] - y[tails]; C spans a slice near y
        scatter.write(R, dy)
        np.matmul(R, C, out=RC)
        u, s, vt = _svd(RC)
        rank = int(np.count_nonzero(s > SV_THRESHOLD * max(s[0], 1.0)))
        if rank != n_slice - 1:
            raise SingularPointError(
                f"kernel dimension beyond rigid motions is {n_slice - rank}, not 1",
                flex_dim=n_slice - rank,
                path=path(),
            )
        W[:] = u[:, rank:]
        return C @ vt[rank]

    tangent = tangent_at(x[heads] - x[tails], motions(x, complete=True)[:, 6:])
    if direction_hint is not None:
        hint = np.asarray(direction_hint, dtype=float).reshape(-1)
        if float(np.dot(tangent, hint)) < 0:
            tangent = -tangent
    else:
        tangent = _start_direction(tangent)

    h = step
    easy_run = 0
    kappa = np.zeros_like(tangent)  # the tangent's change per unit step; Euler first
    while len(sizes) < n_steps:
        if h < step * 2.0**-24:
            raise CorrectorDivergenceError(
                f"step size underflow at accepted step {len(sizes)}", path=path()
            )
        x_pred = x + (h * tangent + (h * h / 2) * kappa).reshape(nv, 3)
        C = motions(x_pred, complete=True)[:, 6:]
        np.matmul(tangent, C, out=t_c)
        y = x_pred  # no array is changed in place below
        ok = False
        for it in range(MAX_CORRECTOR_ITERS):
            # The edge vectors feed the residual, the Jacobian and the areas.
            dy = y[heads] - y[tails]
            np.subtract(targets_sq, np.vecdot(dy, dy), out=neg_g)
            if np.abs(neg_g).max() <= tol:
                ok = True
                gn_iters = it
                break
            scatter.write(R, dy)
            np.matmul(R, C, out=RC)
            try:
                z = _solve(B, rhs)
            except np.linalg.LinAlgError:
                break
            y = y + (C @ z[:n_slice]).reshape(nv, 3)
            if not np.isfinite(y).all():
                break
        if not ok:
            h *= 0.5
            easy_run = 0
            logger.debug("corrector failed, halving step to %.3e", h)
            continue

        areas = side_areas(dy)
        if areas.min() <= area_tol:
            fi = int(np.argmin(areas))
            raise FaceDegenerationError(surface.faces[fi], float(areas.min()), path=path())

        sizes.append(h)
        iters.append(gn_iters)
        x = y
        keep(x)

        # C spans the slice at x_pred, O(h^3) from x.
        new_tangent = tangent_at(dy, C)
        if float(np.dot(new_tangent, tangent)) < 0:
            new_tangent = -new_tangent
        kappa = (new_tangent - tangent) / h
        tangent = new_tangent

        if gn_iters <= 3:
            easy_run += 1
            if easy_run >= 3:
                h = min(2.0 * h, step)
                easy_run = 0
        else:
            easy_run = 0

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
