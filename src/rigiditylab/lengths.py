"""Exact and heuristic rational linear algebra over edge lengths.

Exact mode works with lengths of the form r*sqrt(d), r a positive rational
and d a positive integer.  sqrt(a) and sqrt(b) are rational multiples of
each other iff a*b is a square, and distinct classes of that relation are
linearly independent over the rationals (Besicovitch 1940), so one integer
square root per pair of class representatives yields a basis of the
lengths' rational span and decides independence exactly.  For lengths known
only numerically, an integer-only LLL lattice reduction looks for small
integer relations among the exact rationals their decimal or float forms
denote; absence of a relation up to a coefficient height bound is reported
as such, never as a proof of independence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

# Lattice column scale of find_integer_relation, and the inverse of the
# relative residual its accepted relations must meet.
RELATION_SCALE = 10**12
RELATION_TIGHT = 10**25


def _primes_below(n: int) -> tuple[int, ...]:
    sieve = bytearray(2) + bytearray([1]) * (n - 2)
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(i for i, f in enumerate(sieve) if f)


_SMALL_PRIMES = _primes_below(1000)


def _square_split(n: int) -> tuple[int, int]:
    """Write n = s**2 * d; returns (s, d).

    Trial division by the primes below 1000 leaves a cofactor free of them,
    which goes to s if it is a perfect square and to d otherwise.  Below
    1009**3 such a cofactor is 1, a prime, a product of two distinct primes
    or a prime squared, so d is squarefree; above it, d may keep the square
    of a prime above 1000.
    """
    if n <= 0:
        raise ValueError("expected a positive integer")
    s, d, c = 1, 1, n
    for p in _SMALL_PRIMES:
        if p * p > c:
            break
        if c % p:
            continue
        e = 0
        while c % p == 0:
            c //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    r = math.isqrt(c)
    return (s * r, d) if r * r == c else (s, d * c)


@dataclass(frozen=True)
class ExactLength:
    """A length r*sqrt(d) with r rational and d a positive integer, which
    :func:`normalize_sqrt` makes squarefree when it is small enough."""

    r: Fraction
    d: int

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError("radicand must be positive")

    def value(self) -> float:
        return math.sqrt(self.squared())

    def squared(self) -> Fraction:
        return self.r * self.r * self.d

    def __str__(self):
        if self.d == 1:
            return str(self.r)
        r = "" if self.r == 1 else f"{self.r}*"
        return f"{r}sqrt({self.d})"


def normalize_sqrt(q) -> ExactLength:
    """Canonical form r*sqrt(d) of sqrt(q) for a positive rational q.

    sqrt(num/den) = sqrt(num*den)/den, and :func:`_square_split` moves the
    squares it finds in num*den into r; d is squarefree below 1009**3.
    """
    q = Fraction(q)
    if q <= 0:
        raise ValueError(f"expected a positive rational, got {q}")
    num, den = q.numerator, q.denominator
    s, d = _square_split(num * den)
    return ExactLength(Fraction(s, den), d)


def _classes(lengths: list[ExactLength]) -> list[tuple[int, dict[int, Fraction]]]:
    """Classes (d, {i: c_i}) of rational multiples, length i = c_i*sqrt(d).

    d is the radicand of the class's first member.  Length i joins the first
    class with d*d_i a square, as sqrt(d_i) = isqrt(d*d_i)/d*sqrt(d), or else
    opens its own; members stay in index order.
    """
    classes: list[tuple[int, dict[int, Fraction]]] = []
    for i, ell in enumerate(lengths):
        for d, members in classes:
            m = d * ell.d
            root = math.isqrt(m)
            if root * root == m:
                members[i] = ell.r * root / d
                break
        else:
            classes.append((ell.d, {i: ell.r}))
    return classes


@dataclass
class SpanBasis:
    """Basis of the rational span of a length set, with coefficients.

    ``basis[j]`` is sqrt(d_j) for one radicand d_j per length class, in
    increasing order; ``_members[j]`` maps each length i of that class, in
    index order, to its rational coefficient c_i: length i = c_i*sqrt(d_j).
    """

    basis: list[ExactLength]
    _members: list[dict[int, Fraction]]

    @property
    def coefficients(self) -> list[list[Fraction]]:
        """``coefficients[i][j]``, length i's coefficient on basis element j;
        every row reconstructs its length exactly."""
        rows = [[Fraction(0)] * len(self.basis) for _ in range(_n_lengths(self))]
        for j, members in enumerate(self._members):
            for i, c in members.items():
                rows[i][j] = c
        return rows


def _n_lengths(span: SpanBasis) -> int:
    return sum(map(len, span._members))


def q_basis(lengths: list[ExactLength]) -> SpanBasis:
    """Basis {sqrt(d)} over the length classes, with each class's members."""
    if not lengths:
        raise ValueError("empty length list")
    classes = sorted(_classes(lengths), key=lambda cls: cls[0])
    return SpanBasis([ExactLength(Fraction(1), d) for d, _ in classes], [m for _, m in classes])


INDEPENDENT_EXACT = "independent_exact"
INDEPENDENT_UP_TO_HEIGHT = "independent_up_to_height"
DEPENDENT = "dependent"


@dataclass
class IndependenceVerdict:
    """Outcome of a rational-independence test.

    ``kind`` is one of the module constants; a dependent verdict carries an
    explicit nonzero integer relation, a heuristic one carries the height
    bound it was checked up to.
    """

    kind: str
    relation: tuple[int, ...] | None = None
    height: int | None = None

    def __post_init__(self):
        if self.kind == DEPENDENT:
            assert self.relation is not None and any(self.relation)
        if self.kind == INDEPENDENT_UP_TO_HEIGHT:
            assert self.height is not None


def clear_to_integers(values: list[Fraction]) -> tuple[int, ...]:
    """The rationals times the lcm of their denominators, as integers."""
    lcm = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (lcm // v.denominator) for v in values)


def is_q_independent(lengths: list[ExactLength]) -> IndependenceVerdict:
    """Exact independence test: independent iff every length class has one
    member, so the empty list is independent.  A dependent verdict carries
    the witness described at :func:`_span_verdict`."""
    return _span_verdict(q_basis(lengths)) if lengths else IndependenceVerdict(INDEPENDENT_EXACT)


def _span_verdict(span: SpanBasis) -> IndependenceVerdict:
    """Independent iff every length class of ``span`` has one member.

    The first length to join an earlier class, c_j*sqrt(d), and that class's
    first member, c_0*sqrt(d), satisfy the integer relation (c_j, -c_0)
    after clearing denominators; it is returned as the witness.
    """
    pairs = [list(m.items())[:2] for m in span._members if len(m) > 1]
    if not pairs:
        return IndependenceVerdict(INDEPENDENT_EXACT)
    (i0, c0), (j, cj) = min(pairs, key=lambda pair: pair[1][0])
    coeffs = [Fraction(0)] * _n_lengths(span)
    coeffs[i0], coeffs[j] = cj, -c0
    relation = clear_to_integers(coeffs)
    g = math.gcd(*relation)
    return IndependenceVerdict(DEPENDENT, relation=tuple(c // g for c in relation))


def relation_residual_exact(lengths: list[ExactLength], relation) -> bool:
    """True iff the relation annihilates the lengths exactly.

    The combination sum(rel_i * c_i * sqrt(d)) vanishes iff its rational
    coefficient on every length class vanishes.
    """
    return all(
        sum(relation[i] * c for i, c in members.items()) == 0
        for _, members in _classes(lengths)
    )


def _lll_reduce(basis: list[list[int]]) -> list[list[int]]:
    """LLL reduction (delta = 3/4) in integer arithmetic only.

    Cohen's integral LLL (A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7): ``d[j]`` is the Gram determinant of the first j
    rows and ``lam[k][j] = mu[k][j] * d[j + 1]``; every division in the
    Gram-Schmidt update and in the swap is exact.  Rows must be linearly
    independent (always true for the identity-plus-column lattices built by
    :func:`find_integer_relation`).  Ties follow the rational formulation:
    size reduction only when |mu| > 1/2, and mu rounded half to even, so
    the reduced basis equals that of exact Fraction Gram-Schmidt.

    Only ``lam[i][j]`` with j < i is ever read.  A swap of rows k-1 and k
    therefore exchanges the two ``lam`` row objects whole and then sets the
    new ``lam[k][k - 1]``; what a row holds at j >= i is never used.
    """
    b = [[int(x) for x in row] for row in basis]
    n = len(b)
    if n == 1:
        return b
    lam = [[0] * n for _ in range(n)]
    d = [1, sum(map(mul, b[0], b[0]))] + [0] * (n - 1)
    k = 1
    kmax = 0
    while k < n:
        if k > kmax:
            kmax = k
            bk, lk = b[k], lam[k]
            for j in range(k + 1):
                u = sum(map(mul, bk, b[j]))
                lj = lam[j]
                for i in range(j):
                    u = (d[i + 1] * u - lk[i] * lj[i]) // d[i]
                if j < k:
                    lk[j] = u
                else:
                    d[k + 1] = u
        while True:
            # Size-reduce row k against row k - 1, then test Lovasz.
            lk, d0, d1, d2 = lam[k], d[k - 1], d[k], d[k + 1]
            m = lk[k - 1]
            if 2 * abs(m) > d1:
                q, r = divmod(2 * m + d1, 2 * d1)
                if r == 0 and q % 2:
                    q -= 1  # an exact half rounds to even
                b[k] = [x - q * y for x, y in zip(b[k], b[k - 1])]
                m -= q * d1
                lk[k - 1] = m
                ll = lam[k - 1]
                for i in range(k - 1):
                    lk[i] -= q * ll[i]
            if 4 * d2 * d0 >= 3 * d1 * d1 - 4 * m * m:
                break
            b[k], b[k - 1] = b[k - 1], b[k]
            lam[k], lam[k - 1] = lam[k - 1], lk
            lam[k][k - 1] = m
            dk = (d0 * d2 + m * m) // d1
            for li in lam[k + 1 : kmax + 1]:
                t = li[k]
                li[k] = v = (d2 * li[k - 1] - m * t) // d1
                li[k - 1] = (dk * t + m * v) // d2
            d[k] = dk
            if k > 1:
                k -= 1
        bk, lk = b[k], lam[k]
        for l in range(k - 2, -1, -1):
            c, dl = lk[l], d[l + 1]
            if 2 * abs(c) > dl:
                q, r = divmod(2 * c + dl, 2 * dl)
                if r == 0 and q % 2:
                    q -= 1  # an exact half rounds to even
                bk = [x - q * y for x, y in zip(bk, b[l])]
                lk[l] = c - q * dl
                ll = lam[l]
                for i in range(l):
                    lk[i] -= q * ll[i]
        b[k] = bk
        k += 1
    return b


def _relation_lattice(vals: list[Fraction]) -> list[list[int]]:
    """Rows of the identity extended by the values times RELATION_SCALE,
    rounded half to even."""
    n = len(vals)
    return [
        [1 if j == i else 0 for j in range(n)] + [round(vals[i] * RELATION_SCALE)]
        for i in range(n)
    ]


def find_integer_relation(values, height: int = 10**6) -> tuple[int, ...] | None:
    """Search for a small integer relation among numerically given reals.

    Each value is read as the exact rational it denotes.  The integer
    lattice whose rows are the identity extended by a column of the values
    scaled by RELATION_SCALE and rounded is reduced, and a short vector c
    is accepted when |sum(c_i * v_i)| is at most n*height/RELATION_SCALE
    with every |c_i| <= height.  Candidates must then meet the much tighter
    bound max(1, |c|_1 * max|v_i|) / RELATION_TIGHT, which guards against
    near-relations that only look small at the lattice scale.  Both bounds
    are checked exactly, in integers over the values' common denominator.

    Values may be ints, floats, Fractions or decimal strings, not mpmath
    numbers or ExactLength values; pass strings to retain more than double
    precision.  Returns the relation with the first nonzero entry positive,
    or None when no relation of height at most ``height`` was found (this
    is not an independence proof).
    """
    if height < 1:
        raise ValueError(f"coefficient height must be at least 1, got {height}")
    n = len(values)
    if n == 0:
        raise ValueError("empty value list")
    if n > 64:
        raise ValueError("at most 64 values are supported")
    try:
        vals = [Fraction(v) for v in values]
    except (OverflowError, ValueError) as exc:
        raise ValueError("values must be finite") from exc
    # D * v_i = N_i for the common denominator D, which 1 clears to.
    *N, D = clear_to_integers([*vals, Fraction(1)])
    reduced = _lll_reduce(_relation_lattice(vals))
    max_abs = max(map(abs, N))
    candidates = sorted(reduced, key=lambda row: sum(x * x for x in row))
    for row in candidates:
        c = row[:n]
        if not any(c) or max(abs(x) for x in c) > height:
            continue
        residual = abs(sum(ci * Ni for ci, Ni in zip(c, N)))  # D*|sum(c_i*v_i)|
        if residual * RELATION_SCALE > n * height * D:
            continue
        one_norm = sum(abs(x) for x in c)
        if residual * RELATION_TIGHT <= max(D, one_norm * max_abs):
            g = math.gcd(*c) if next(x for x in c if x) > 0 else -math.gcd(*c)
            return tuple(x // g for x in c)
    return None
