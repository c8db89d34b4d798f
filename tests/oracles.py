"""Independent oracles used by the test suite.

These deliberately avoid the library's own numerical paths: ranks are
computed in exact rational arithmetic, volumes come from convex hulls, and
expected angles from closed forms.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.spatial import ConvexHull

from rigiditylab import normalize_sqrt


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
