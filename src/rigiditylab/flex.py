"""Numerical flexes on the edge-length constraint variety.

Configurations live in R^(3v).  The rigidity matrix is the Jacobian of the
squared edge lengths; its kernel beyond the six rigid motions measures
infinitesimal flexibility.  Flexes are traced by adaptive predictor-corrector
continuation: the predictor follows a unit kernel vector orthogonal to the
rigid motions, the corrector projects back onto the constraint set by
Gauss-Newton inside the affine slice orthogonal to the rigid motions.
The tracer keeps only configurations; dihedral angles are computed from the
finished path and unwrapped into continuous lifted series.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .geometry import Polyhedron, face_areas, principal_angles, squared_lengths
from .surfaces import SimplicialSurface, edge_table

logger = logging.getLogger("rigiditylab")

SV_THRESHOLD = 1e-8
LIFT_AMBIGUITY_TOL = 1e-9
MAX_CORRECTOR_ITERS = 25
TRIVIAL_FLEX_TOL = 1e-7
ANGLE_BLOCK = 256  # configurations per batched angle evaluation; bounds peak memory


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


def rigidity_matrix(x, surface: SimplicialSurface) -> np.ndarray:
    """Jacobian of the squared edge lengths, shape (n_edges, 3*n_vertices).

    The row of edge (i, j) carries 2*(x_i - x_j) in vertex i's block and the
    negative in vertex j's block.
    """
    x = as_config(x)
    ends = edge_table(surface)
    rows = np.arange(len(ends))
    d = 2.0 * (x[ends[:, 0]] - x[ends[:, 1]])
    R = np.zeros((len(ends), x.shape[0], 3))
    R[rows, ends[:, 0]] = d
    R[rows, ends[:, 1]] = -d
    return R.reshape(len(ends), -1)


def trivial_motion_basis(x) -> np.ndarray:
    """Orthonormal basis of the rigid motions at x, shape (3n, 6).

    Three translations and three rotations linearized about the centroid.
    Collinear vertices zero the rotation about their line, which shows as a
    vanishing diagonal entry of the QR factor.
    """
    x = as_config(x)
    nv = x.shape[0]
    if nv < 3:
        raise DegenerateConfigurationError("vertices are collinear")
    centered = x - x.mean(axis=0)
    basis = np.zeros((nv, 3, 6))
    basis[:, [0, 1, 2], [0, 1, 2]] = 1.0
    # Rotation k is e_k x c.  Rows 0-2 of cz hold c, rows 3-5 the signed
    # zeros 0*c; the 3x3 (k, component) pairs below are np.cross's products.
    cz = np.concatenate([centered.T, 0.0 * centered.T])
    rot = cz[[5, 3, 1, 2, 3, 4, 5, 0, 4]] - cz[[4, 2, 3, 4, 5, 0, 1, 5, 3]]
    basis[:, :, 3:] = rot.reshape(3, 3, nv).T
    q, r = np.linalg.qr(basis.reshape(3 * nv, 6))
    diag = np.abs(np.diagonal(r))
    if diag.min() <= 1e-12 * max(diag.max(), 1.0):
        raise DegenerateConfigurationError("vertices are collinear")
    return q


def _kernel_beyond_trivial(x, surface):
    """Kernel vectors of the rigidity matrix orthogonal to rigid motions."""
    x = as_config(x)
    R = rigidity_matrix(x, surface)
    T = trivial_motion_basis(x)
    A = np.vstack([R, T.T])
    _, s, vt = np.linalg.svd(A)
    cutoff = SV_THRESHOLD * s[0] if s.size else 0.0
    rank = int(np.count_nonzero(s > cutoff))
    null_dim = A.shape[1] - rank
    return vt[A.shape[1] - null_dim :].T if null_dim else np.zeros((A.shape[1], 0))


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
    (K, n_edges) in canonical edge order.
    """

    surface: SimplicialSurface
    ts: np.ndarray
    configs: np.ndarray
    raw_angles: np.ndarray
    lifted_angles: np.ndarray
    degenerate_flags: np.ndarray
    initial_lengths: np.ndarray
    diagnostics: list[dict] = field(default_factory=list)

    @property
    def n_samples(self) -> int:
        return len(self.ts)

    def length_drift(self) -> float:
        """Maximum relative edge-length drift over the whole path."""
        ell = np.sqrt(squared_lengths(self.surface, self.configs))
        L = self.initial_lengths
        return float(np.max(np.abs(ell - L) / L, initial=0.0))


def _wrap_to_pi(delta: np.ndarray) -> np.ndarray:
    """Map angle differences into (-pi, pi]."""
    return np.pi - np.mod(np.pi - delta, 2.0 * np.pi)


def lift_angles(raw: np.ndarray, degenerate: np.ndarray | None = None) -> np.ndarray:
    """Unwrap principal-value series into continuous lifted series.

    ``raw`` has shape (K, n_edges) with values in [0, 2*pi).  Each lifted
    series starts at the raw value at the first sample and accumulates
    increments wrapped into (-pi, pi].  Samples flagged degenerate carry the
    artificial principal value 0; they are bridged by skipping them in the
    unwrap and filling linearly between their lifted neighbours, which picks
    the 0 / 2*pi branch consistent with continuity.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim == 1:
        raw = raw[:, None]
    K, E = raw.shape
    if degenerate is None:
        degenerate = np.zeros_like(raw, dtype=bool)
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
    partial path is attached to the exception.
    """
    if not 0.0 < step < np.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    x = as_config(x0).copy()
    nv = x.shape[0]
    targets_sq = squared_lengths(surface, x)
    initial_lengths = np.sqrt(targets_sq)
    max_len = float(initial_lengths.max())
    if tol is None:
        tol = 1e-11 * max_len**2
    area_tol = 1e-12 * max_len**2

    principal_angles(surface, x)  # a bad surface or start raises before tracing
    samples = [x.copy()]
    ds: list[float] = []
    diags: list[dict] = []

    def path():
        ts = np.concatenate([[0.0], np.cumsum(ds)]) if ds else np.array([0.0])
        if ts[-1] > 0:
            ts = ts / ts[-1]
        configs = np.array(samples)
        # Row-major, so each configuration's angles are contiguous; the
        # batched kernel itself returns column-major arrays.
        raw = np.empty((len(configs), len(surface.edges)))
        flags = np.empty(raw.shape, dtype=bool)
        for k in range(0, len(configs), ANGLE_BLOCK):
            block = slice(k, k + ANGLE_BLOCK)
            raw[block], flags[block] = principal_angles(surface, configs[block])
        return FlexPath(
            surface=surface,
            ts=ts,
            configs=configs,
            raw_angles=raw,
            lifted_angles=lift_angles(raw, flags),
            degenerate_flags=flags,
            initial_lengths=initial_lengths,
            diagnostics=diags,
        )

    def tangent_at(y):
        kernel = _kernel_beyond_trivial(y, surface)
        if kernel.shape[1] != 1:
            raise SingularPointError(
                f"kernel dimension beyond rigid motions is {kernel.shape[1]}, not 1",
                flex_dim=kernel.shape[1],
                path=path(),
            )
        return kernel[:, 0]

    tangent = tangent_at(x)
    if direction_hint is not None:
        hint = np.asarray(direction_hint, dtype=float).reshape(-1)
        if float(np.dot(tangent, hint)) < 0:
            tangent = -tangent
    elif tangent[int(np.argmax(np.abs(tangent)))] < 0:
        tangent = -tangent

    h = step
    easy_run = 0
    accepted = 0
    while accepted < n_steps:
        if h < step * 2.0**-24:
            raise CorrectorDivergenceError(
                f"step size underflow at accepted step {accepted}", path=path()
            )
        x_pred = x + h * tangent.reshape(nv, 3)
        T_pred = trivial_motion_basis(x_pred)
        y = x_pred.copy()
        ok = False
        for it in range(MAX_CORRECTOR_ITERS):
            g = squared_length_residual(y, surface, targets_sq)
            slice_res = T_pred.T @ (y - x_pred).reshape(-1)
            res = np.concatenate([g, slice_res])
            if np.max(np.abs(g)) <= tol and np.max(np.abs(slice_res)) <= tol:
                ok = True
                gn_iters = it
                break
            J = np.vstack([rigidity_matrix(y, surface), T_pred.T])
            delta, *_ = np.linalg.lstsq(J, -res, rcond=None)
            y = y + delta.reshape(nv, 3)
            if not np.all(np.isfinite(y)):
                break
        if not ok:
            h *= 0.5
            easy_run = 0
            logger.debug("corrector failed, halving step to %.3e", h)
            continue

        areas = face_areas(surface, y)
        if areas.min() <= area_tol:
            fi = int(np.argmin(areas))
            raise FaceDegenerationError(surface.faces[fi], float(areas.min()), path=path())

        ds.append(float(np.linalg.norm((y - x).reshape(-1))))
        x = y
        samples.append(x.copy())
        diags.append({"step": h, "corrector_iters": gn_iters})
        accepted += 1

        new_tangent = tangent_at(x)
        if float(np.dot(new_tangent, tangent)) < 0:
            new_tangent = -new_tangent
        tangent = new_tangent

        if gn_iters <= 3:
            easy_run += 1
            if easy_run >= 3:
                h = min(2.0 * h, step)
                easy_run = 0
        else:
            easy_run = 0

    return path()


def best_fit_rigid_motion(source: np.ndarray, target: np.ndarray):
    """Rotation (det +1) and translation minimizing |R*source + t - target|.

    ``target`` is one configuration (V,3) or a stack (K,V,3); for a stack,
    R is (K,3,3) and t is (K,3), one orthogonal Procrustes fit per slice
    from a single batched SVD.
    """
    src = as_config(source)
    dst = as_config(target)
    c_src = src.mean(axis=0)
    c_dst = dst.mean(axis=-2)
    H = (src - c_src).T @ (dst - c_dst[..., None, :])
    U, _, Vt = np.linalg.svd(H)
    V = Vt.mT
    d = np.sign(np.linalg.det(V @ U.mT))
    V[..., :, 2] *= d[..., None]
    R = V @ U.mT
    t = c_dst - R @ c_src
    return R, t


def is_trivial_flex(path: FlexPath) -> bool:
    """True when every sample is a rigid motion of the first one.

    Each sample is aligned to the initial configuration by orthogonal
    Procrustes (proper rotations only); the path is trivial iff the largest
    vertex misfit stays below TRIVIAL_FLEX_TOL times the configuration
    diameter.
    """
    if path.n_samples <= 1:
        return True
    x0 = path.configs[0]
    d = x0[:, None] - x0[None]
    diam = float(np.sqrt(np.vecdot(d, d)).max())
    rest = path.configs[1:]
    R, t = best_fit_rigid_motion(x0, rest)
    moved = x0 @ R.mT + t[:, None, :]
    worst = float(np.max(np.linalg.norm(moved - rest, axis=-1)))
    return worst <= TRIVIAL_FLEX_TOL * diam
