"""Independent oracles used by the test suite.

These deliberately avoid the library's own numerical paths: ranks are
computed in exact rational arithmetic, volumes come from convex hulls, and
expected angles from closed forms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace

import mpmath as mp
import numpy as np
from scipy.spatial import ConvexHull

from rigiditylab import geometry, lengths, normalize_sqrt
from rigiditylab.flex import (
    MAX_CORRECTOR_ITERS,
    SV_THRESHOLD,
    TRIVIAL_FLEX_TOL,
    CorrectorDivergenceError,
    DegenerateConfigurationError,
    FaceDegenerationError,
    SingularPointError,
    as_config,
)
from rigiditylab.geometry import PATH_BLOCK, face_areas, principal_angles, squared_lengths


def fraction_exact_lengths(P) -> list:
    """Exact edge lengths by Fraction arithmetic on every edge's endpoints."""
    out = []
    for a, b in P.surface.edges:
        pa, pb = P.exact_coords[a], P.exact_coords[b]
        sq = sum((Fraction(x) - Fraction(y)) ** 2 for x, y in zip(pa, pb))
        out.append(normalize_sqrt(sq))
    return out


def fraction_clear_to_integers(values: list[Fraction]) -> tuple[int, ...]:
    """The rationals times the lcm of their denominators, by Fraction products."""
    lcm = 1
    for v in values:
        lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
    return tuple(int(v * lcm) for v in values)


def rational_rigidity_matrix(exact_coords: dict, surface) -> list[list[Fraction]]:
    """Jacobian of the squared edge lengths with exact rational entries."""
    verts = list(surface.vertices)
    vidx = {v: i for i, v in enumerate(verts)}
    rows = []
    for a, b in surface.edges:
        row = [Fraction(0)] * (3 * len(verts))
        pa = [Fraction(x) for x in exact_coords[a]]
        pb = [Fraction(x) for x in exact_coords[b]]
        for k in range(3):
            d = 2 * (pa[k] - pb[k])
            row[3 * vidx[a] + k] = d
            row[3 * vidx[b] + k] = -d
        rows.append(row)
    return rows


def rational_rank(matrix: list[list[Fraction]]) -> int:
    """Rank by fraction-exact Gaussian elimination."""
    m = [row[:] for row in matrix]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    rank = 0
    col = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(n_rows):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def exact_flex_dim(exact_coords: dict, surface) -> int:
    """Kernel dimension of the rigidity matrix beyond the six rigid motions,
    via exact rank (valid when the vertices are not collinear)."""
    matrix = rational_rigidity_matrix(exact_coords, surface)
    rank = rational_rank(matrix)
    return 3 * surface.n_vertices - rank - 6


def hull_volume(points: np.ndarray) -> float:
    """Convex hull volume; independent check for convex models."""
    return float(ConvexHull(points).volume)


# Six-vertex triangulation of the real projective plane: every pair of the
# six vertices is an edge, each edge lies in exactly two of the ten faces,
# and no consistent orientation of the faces exists.
PROJECTIVE_PLANE_FACES = [
    (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 6), (1, 5, 6),
    (2, 3, 5), (2, 3, 6), (2, 4, 6), (3, 4, 5), (4, 5, 6),
]


def _grid(i: int, j: int) -> int:
    return 3 * (i % 3) + j % 3


# Torus from the 3x3 grid on Z/3 x Z/3, each square cut along its diagonal:
# 9 vertices, 27 edges, 18 faces, Euler characteristic 0.
GRID_TORUS_FACES = [
    face
    for i in range(3)
    for j in range(3)
    for face in (
        (_grid(i, j), _grid(i + 1, j), _grid(i + 1, j + 1)),
        (_grid(i, j), _grid(i + 1, j + 1), _grid(i, j + 1)),
    )
]


def subdivided_faces(faces) -> list[tuple[int, int, int]]:
    """Split each oriented triangle into four at its edge midpoints; the
    midpoints get new ids above the existing ones, in order of first use."""
    midpoints: dict[frozenset, int] = {}
    n = 1 + max(v for f in faces for v in f)

    def mid(a, b):
        return midpoints.setdefault(frozenset((a, b)), n + len(midpoints))

    out = []
    for a, b, c in faces:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        out += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
    return out


def relabeled_faces(faces, relabel: dict[int, int]) -> list[tuple[int, int, int]]:
    """``faces`` with vertex ids renamed by ``relabel``: merging two vertices
    that share no edge or face pinches the surface at the merged vertex."""
    return [tuple(relabel.get(v, v) for v in f) for f in faces]


# The rational LLL that lengths._lll_reduce replaced: the integer version
# must reproduce its reduced basis row for row.
def fraction_lll(basis: list[list[int]], delta: Fraction = Fraction(3, 4)) -> list[list[int]]:
    """Lattice basis reduction with exact rational Gram-Schmidt.

    Classic formulation with incremental mu/B bookkeeping; rows must be
    linearly independent (always true for the identity-plus-column lattices
    built by :func:`find_integer_relation`).
    """
    b = [[Fraction(x) for x in row] for row in basis]
    n = len(b)
    if n == 1:
        return [[int(x) for x in row] for row in b]

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    mu = [[Fraction(0)] * n for _ in range(n)]
    B = [Fraction(0)] * n
    bstar: list[list[Fraction]] = [[] for _ in range(n)]
    bstar[0] = b[0][:]
    B[0] = dot(bstar[0], bstar[0])

    def size_reduce(k, l):
        if abs(mu[k][l]) > Fraction(1, 2):
            q = round(mu[k][l])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            mu[k][l] -= q
            for i in range(l):
                mu[k][i] -= q * mu[l][i]

    def swap(k, kmax):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
        m = mu[k][k - 1]
        Bk = B[k] + m * m * B[k - 1]
        mu[k][k - 1] = m * B[k - 1] / Bk
        bs = bstar[k - 1][:]
        bstar[k - 1] = [x + m * y for x, y in zip(bstar[k], bs)]
        bstar[k] = [
            -mu[k][k - 1] * x + (B[k] / Bk) * y for x, y in zip(bstar[k], bs)
        ]
        B[k] = B[k - 1] * B[k] / Bk
        B[k - 1] = Bk
        for i in range(k + 1, kmax + 1):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - m * t
            mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]

    k = 1
    kmax = 0
    while k < n:
        if k > kmax:
            kmax = k
            bstar[k] = b[k][:]
            for j in range(k):
                mu[k][j] = dot(b[k], bstar[j]) / B[j]
                bstar[k] = [x - mu[k][j] * y for x, y in zip(bstar[k], bstar[j])]
            B[k] = dot(bstar[k], bstar[k])
        size_reduce(k, k - 1)
        while B[k] < (delta - mu[k][k - 1] ** 2) * B[k - 1]:
            swap(k, kmax)
            k = max(k - 1, 1)
            size_reduce(k, k - 1)
        for l in range(k - 2, -1, -1):
            size_reduce(k, l)
        k += 1
    return [[int(x) for x in row] for row in b]


# The span readers as they were before they shared one scan: every row of
# the coefficient matrix is read for every basis element, and the radicand
# counts are kept per radicand, not per column.
def full_scan_constant_angle_edges(span) -> tuple[int, ...]:
    """Edges whose radicand occurs once among all the lengths."""
    counts: dict[int, int] = {}
    owner: dict[int, list[int]] = {}
    for i, row in enumerate(span.coefficients):
        (j,) = [k for k, c in enumerate(row) if c != 0]
        d = span.basis[j].d
        counts[d] = counts.get(d, 0) + 1
        owner.setdefault(d, []).append(i)
    return tuple(sorted(owner[d][0] for d, c in counts.items() if c == 1))


def full_scan_invariant_combinations(span, initial_angles) -> list[tuple]:
    """(label, coefficients, claimed constant) per basis element, the
    coefficients cleared over the whole column, zeros included."""
    initial_angles = np.asarray(initial_angles, dtype=float)
    out = []
    for j, lam in enumerate(span.basis):
        coeffs = fraction_clear_to_integers([row[j] for row in span.coefficients])
        out.append((str(lam), coeffs, float(np.dot(coeffs, initial_angles))))
    return out


# The relation search as it ran in 50-digit mpmath before it read its values
# as exact rationals.  It shares the integer LLL with the library, which
# tests/test_lll.py checks against fraction_lll; the parsing, the lattice
# column and both acceptance bounds are mpmath's.
def mpmath_integer_relation(values, height: int = 10**6):
    """The lattice column and the first accepted row, in 50-digit mpmath.

    Each value is parsed as a 50-digit mpf.  The column is mp.nint(v * 1e12)
    and the rows of the reduced lattice are tried shortest first.  A row c
    with 0 < max|c_i| <= height is accepted when |sum(c_i * v_i)| is at most
    n * height / 1e12 and at most 1e-25 * max(1, |c|_1 * max|v_i|).  Returns
    (column, relation), the relation made primitive with a positive lead,
    or None when no row is accepted.
    """
    n = len(values)
    with mp.workdps(50):
        vals = [mp.mpf(v) for v in values]
        column = [int(mp.nint(v * 10**12)) for v in vals]
        lattice = [[int(j == i) for j in range(n)] + [column[i]] for i in range(n)]
        reduced = lengths._lll_reduce(lattice)
        max_abs = max(abs(v) for v in vals) or mp.mpf(1)
        for row in sorted(reduced, key=lambda row: sum(x * x for x in row)):
            c = row[:n]
            if not any(c) or max(abs(x) for x in c) > height:
                continue
            residual = abs(mp.fsum(ci * vi for ci, vi in zip(c, vals)))
            if residual > mp.mpf(n) * height / 10**12:
                continue
            one_norm = sum(abs(x) for x in c)
            if residual <= mp.mpf(10) ** -25 * max(1, one_norm * max_abs):
                g = math.gcd(*c)
                sign = 1 if next(x for x in c if x) > 0 else -1
                return column, tuple(sign * x // g for x in c)
    return column, None


# The code that the cold-start work replaced, so that tests can require equal
# results: one whole Monte-Carlo draw per edge, from the same seeded stream.
# It shares the library's helpers on purpose; it checks that nothing moved,
# not that it is right.


def per_edge_monte_carlo_dihedral(P, edge, n_samples: int = 10**6, seed: int = 0) -> float:
    """Volume-ratio estimate of the dihedral angle at one edge, drawing its
    own sample of points in a ball around the edge midpoint.  The radius, a
    quarter of the shortest edge, is this oracle's own choice; the wedge is
    a cone about the midpoint, so any radius classifies alike."""
    row = [geometry._edge_row(P, edge)]
    e_hat, u, n = (f[0] for f in geometry._edge_frames(P.surface, P.vertex_array(), row))
    w = n[0] + n[1]
    if np.linalg.norm(w) <= geometry.DEGENERATE_NORMAL_TOL:
        return 0.0
    radius = 0.25 * min(geometry.edge_length_vector(P))

    e1 = u[0]
    e2 = np.cross(e_hat, e1)
    a2 = geometry._plane_angle(u[1], e1, e2)
    aw = geometry._plane_angle(w, e1, e2)
    ref_in_first = aw <= a2

    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    dirs = rng.normal(size=(n_samples, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = radius * np.cbrt(rng.random(n_samples))
    pts = radii[:, None] * dirs  # offsets from the midpoint
    theta = np.arctan2(pts @ e2, pts @ e1) % (2.0 * np.pi)
    in_first = theta <= a2
    return 2.0 * np.pi * int(np.count_nonzero(in_first == ref_in_first)) / n_samples


# The flex tracer's algorithm without its reused workspace: every matrix is
# built afresh, by the (E, V, 3) scatter, np.cross, the fancy-index motion
# basis and np.block, and factored by the public numpy.linalg functions.  A
# step corrects by Newton on the full-coordinate bordered system
# [[R, W], [T.T, 0], [t, 0]], T the rigid motions at its predicted point
# with rotations about the start's centroid, and takes the next tangent
# and self-stresses from that matrix's inverse, unless the screen fires.
# Tests compare the library's tracer with it bit for bit.


def reference_rigidity_matrix(x, surface) -> np.ndarray:
    x = as_config(x)
    ends = surface.edge_table
    rows = np.arange(len(ends))
    d = 2.0 * (x[ends[:, 0]] - x[ends[:, 1]])
    R = np.zeros((len(ends), x.shape[0], 3))
    R[rows, ends[:, 0]] = d
    R[rows, ends[:, 1]] = -d
    return R.reshape(len(ends), -1)


def reference_trivial_motion_basis(x, mode="reduced") -> np.ndarray:
    """Q of the rigid motions at x; with mode="complete", its last 3n - 6
    columns span their orthogonal complement."""
    x = as_config(x)
    nv = x.shape[0]
    if nv < 3:
        raise DegenerateConfigurationError("vertices are collinear")
    centered = x - x.mean(axis=0)
    basis = np.zeros((nv, 3, 6))
    basis[:, [0, 1, 2], [0, 1, 2]] = 1.0
    cz = np.concatenate([centered.T, 0.0 * centered.T])
    rot = cz[[5, 3, 1, 2, 3, 4, 5, 0, 4]] - cz[[4, 2, 3, 4, 5, 0, 1, 5, 3]]
    basis[:, :, 3:] = rot.reshape(3, 3, nv).T
    q, r = np.linalg.qr(basis.reshape(3 * nv, 6), mode=mode)
    diag = np.abs(np.diagonal(r))
    if diag.min() <= 1e-12 * max(diag.max(), 1.0):
        raise DegenerateConfigurationError("vertices are collinear")
    return q


def reference_kernel_beyond_trivial(x, surface):
    """Kernel of [R(x); T.T], T the rigid motions at x."""
    x = as_config(x)
    A = np.vstack([reference_rigidity_matrix(x, surface), reference_trivial_motion_basis(x).T])
    _, s, vt = np.linalg.svd(A)
    cutoff = SV_THRESHOLD * s[0] if s.size else 0.0
    rank = int(np.count_nonzero(s > cutoff))
    null_dim = A.shape[1] - rank
    return vt[A.shape[1] - null_dim :].T if null_dim else np.zeros((A.shape[1], 0))


def reference_motion_rows(x) -> np.ndarray:
    """The six rigid motions at x as the rows of a (6, 3n) matrix: the
    translations, then the rotations e_k x (x_i - centroid)."""
    x = as_config(x)
    centered = x - x.mean(axis=0)
    rows = np.zeros((6, x.size))
    for k in range(3):
        rows[k, k::3] = 1.0
        rows[3 + k] = np.cross(np.eye(3)[k], centered).reshape(-1)
    return rows


def reference_slice_rows(x, centre) -> np.ndarray:
    """The six rigid motions about a fixed ``centre`` as the rows of a
    (6, 3n) matrix: the translations, then the rotations e_k x (x_i - centre),
    whose entries are d_j = x_ij - centre_j, -d_j or +0."""
    d = as_config(x) - centre
    rows = np.zeros((6, d.shape[0], 3))
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        rows[k, :, k] = 1.0
        rows[3 + k, :, i] = -d[:, j]
        rows[3 + k, :, j] = d[:, i]
    return rows.reshape(6, -1)


def reference_screen(M, inverse, n3) -> bool:
    """Whether the rank test must decide at the bordered matrix M: its
    Frobenius condition number reaches 1/SV_THRESHOLD, the border
    multipliers (the last column of M^-1 below row n3) sum to SV_THRESHOLD
    in absolute value, or either is NaN."""
    kappa = np.linalg.norm(M) * np.linalg.norm(inverse)
    multipliers = np.sum(np.abs(inverse[n3:, -1]))
    return not (kappa < 1.0 / SV_THRESHOLD and multipliers < SV_THRESHOLD)


def reference_rank_test(R, motion_rows):
    """Kernel dimension beyond rigid motions of R on the complement of the
    motions, from one SVD with the cutoff SV_THRESHOLD * max(s[0], 1); with
    the unit kernel vector and the left null space."""
    Q, Rf = np.linalg.qr(motion_rows.T, mode="complete")
    diag = np.abs(np.diagonal(Rf))
    if diag.min() <= 1e-12 * max(diag.max(), 1.0):
        raise DegenerateConfigurationError("vertices are collinear")
    C = Q[:, 6:]
    u, s, vt = np.linalg.svd(R @ C)
    rank = int(np.count_nonzero(s > SV_THRESHOLD * max(s[0], 1.0)))
    return C.shape[1] - rank, C @ vt[-1], u[:, rank:]


def reference_lift(raw: np.ndarray) -> np.ndarray:
    """Each column of a (K, E) principal-value series unwrapped: its first
    value plus the running sum of its steps, each step d taken into
    (-pi, pi] as pi - mod(pi - d, 2*pi).  A fold's 0 is a value like any."""
    steps = np.pi - np.mod(np.pi - np.diff(raw, axis=0), 2.0 * np.pi)
    return np.concatenate([raw[:1], raw[:1] + np.cumsum(steps, axis=0)])


def reference_trace_flex(x0, surface, n_steps=200, step=0.01, tol=None) -> SimpleNamespace:
    """The traced path's configurations, steps and series, every series
    computed here, in the attributes of a FlexPath."""
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

    principal_angles(surface, x)
    samples = [x.copy()]
    ds: list[float] = []
    diags: list[dict] = []
    rejected = 0

    def path():
        ts = np.concatenate([[0.0], np.cumsum(ds)]) if ds else np.array([0.0])
        if ts[-1] > 0:
            ts = ts / ts[-1]
        configs = np.array(samples)
        raw = np.empty((len(configs), len(surface.edges)))
        flags = np.empty(raw.shape, dtype=bool)
        for k in range(0, len(configs), PATH_BLOCK):
            block = slice(k, k + PATH_BLOCK)
            raw[block], flags[block] = principal_angles(surface, configs[block])
        return SimpleNamespace(
            configs=configs, ts=ts, raw_angles=raw, degenerate_flags=flags,
            lifted_angles=reference_lift(raw), initial_lengths=initial_lengths,
            diagnostics=list(diags), rejected_attempts=rejected,
        )

    def rank_tested(y, motion_rows):
        """The unit tangent at y and the left null space of R(y)*C."""
        flex_dim, kernel, stresses = reference_rank_test(
            reference_rigidity_matrix(y, surface), motion_rows)
        if flex_dim != 1:
            raise SingularPointError(
                f"kernel dimension beyond rigid motions is {flex_dim}, not 1",
                flex_dim=flex_dim,
                path=path(),
            )
        return kernel, stresses

    tangent, W = rank_tested(x, reference_motion_rows(x))
    centre = x.mean(axis=0)  # the slice's rotations stay about the start's centroid
    mag = np.abs(tangent)
    lead = next(i for i, m in enumerate(mag) if m >= (1.0 - 1e-9) * mag.max())
    if tangent[lead] < 0:
        tangent = -tangent

    n3 = 3 * nv
    h = step
    easy_run = 0
    accepted = 0
    kappa = np.zeros_like(tangent)
    while accepted < n_steps:
        if h < step * 2.0**-24:
            raise CorrectorDivergenceError(
                f"step size underflow at accepted step {accepted}", path=path()
            )
        x_pred = x + (h * tangent + (h * h / 2) * kappa).reshape(nv, 3)
        motion_rows = reference_slice_rows(x_pred, centre)
        zeros = np.zeros((7, W.shape[1]))

        def bordered(y):
            return np.block([
                [reference_rigidity_matrix(y, surface), W],
                [np.vstack([motion_rows, tangent]), zeros],
            ])

        y = x_pred.copy()
        ok = False
        for it in range(MAX_CORRECTOR_ITERS):
            neg_g = targets_sq - squared_lengths(surface, y)
            if np.max(np.abs(neg_g)) <= tol:
                ok = True
                gn_iters = it
                break
            # The last iterate's inverse also gives the next tangent and W.
            inverted_at = y
            try:
                inverse = np.linalg.inv(bordered(y))
            except np.linalg.LinAlgError:
                break
            y = y + (inverse[:n3, : len(targets_sq)] @ neg_g).reshape(nv, 3)
            if not np.all(np.isfinite(y)):
                break
        if not ok:
            rejected += 1
            h *= 0.5
            easy_run = 0
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

        try:
            if gn_iters == 0:
                inverted_at = x
                inverse = np.linalg.inv(bordered(x))
            fired = reference_screen(bordered(inverted_at), inverse, n3)
        except np.linalg.LinAlgError:
            fired = True
        if fired:
            new_tangent, W = rank_tested(x, motion_rows)
        else:
            stress = inverse[n3:, : len(targets_sq)]
            W = (stress / np.sqrt(np.vecdot(stress, stress))[:, None]).T
            v = inverse[:n3, -1]
            new_tangent = v / np.sqrt(np.dot(v, v))
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


def assert_same_path(path, ref):
    """``path``'s configurations, derived series and steps have the bytes of
    the reference's own."""
    for name in ("configs", "ts", "raw_angles", "degenerate_flags", "lifted_angles",
                 "initial_lengths"):
        a, b = getattr(path, name), getattr(ref, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert path.diagnostics == ref.diagnostics


# The whole-path stages as they were before they ran block by block: every
# (K, V, 3) path goes through each kernel in one call.  Tests compare the
# blocked stages with them bit for bit at and around block boundaries.


def whole_path_monitor_series(surface, configs, angles):
    return (geometry.oriented_volumes(surface, configs),
            geometry.weighted_angle_sums(surface, configs, angles))


def whole_path_series_csv(path) -> str:
    cols = [f"phi_{a}_{b}" for a, b in path.surface.edges]
    rows = ["# format_version: 1", "t," + ",".join(cols) + ",volume,weighted_angle_sum"]
    volumes, weighted = whole_path_monitor_series(path.surface, path.configs, path.lifted_angles)
    table = np.column_stack([path.ts, path.lifted_angles, volumes, weighted])
    rows += [",".join(format(v, ".17g") for v in row) for row in table]
    return "\n".join(rows) + "\n"


def whole_path_length_drift(path) -> float:
    ell = np.sqrt(squared_lengths(path.surface, path.configs))
    L = path.initial_lengths
    return float(np.max(np.abs(ell - L) / L, initial=0.0))


def kabsch_misfit(source, target) -> float:
    """Largest vertex distance between target and the proper rigid motion of
    source that fits it best in the least-squares sense (Kabsch)."""
    p = source - source.mean(axis=0)
    q = target - target.mean(axis=0)
    U, _, Vt = np.linalg.svd(p.T @ q)
    flip = np.diag([1.0, 1.0, np.sign(np.linalg.det(U @ Vt))])
    R = U @ flip @ Vt  # p @ R rotates the source onto the target
    return float(np.linalg.norm(p @ R - q, axis=1).max())


def whole_path_is_trivial_flex(path) -> bool:
    """Every sample is a rigid motion of the first, by one Kabsch fit per
    sample; the diameter is the largest pairwise vertex distance."""
    if path.n_samples <= 1:
        return True
    x0 = path.configs[0]
    diam = max(np.linalg.norm(a - b) for a in x0 for b in x0)
    worst = max(kabsch_misfit(x0, x) for x in path.configs[1:])
    return worst <= TRIVIAL_FLEX_TOL * diam
