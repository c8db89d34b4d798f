"""Exact and heuristic rational linear algebra over edge lengths.

Exact mode works with lengths of the form r*sqrt(d), r a positive rational
and d a squarefree positive integer.  Square roots of distinct squarefree
integers are linearly independent over the rationals, so grouping lengths by
radicand yields a basis of their rational span and decides independence
exactly.  For lengths known only numerically, an integer-only LLL lattice
reduction looks for small integer relations among the exact rationals their
decimal or float forms denote; absence of a relation up to a coefficient
height bound is reported as such, never as a proof of independence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import mul

MAX_FACTOR_INPUT = 2**63
TRIAL_LIMIT = 10**6
# Lattice column scale of find_integer_relation, and the inverse of the
# relative residual its accepted relations must meet.
RELATION_SCALE = 10**12
RELATION_TIGHT = 10**25


class FactorizationTooLargeError(Exception):
    """Input exceeds the desk-scale factorization budget."""


@cache
def _small_primes(limit: int) -> tuple[int, ...]:
    """Primes up to ``limit``, sieved once per limit."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(i for i, f in enumerate(sieve) if f)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 2**64."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _square_split(n: int) -> tuple[int, int]:
    """Write n = s**2 * d with d squarefree; returns (s, d)."""
    if n <= 0:
        raise ValueError("expected a positive integer")
    if n >= MAX_FACTOR_INPUT:
        raise FactorizationTooLargeError(f"{n} exceeds the factorization budget")
    s, d, c = 1, 1, n
    # Trial division needs primes p with p*p <= c <= n only.  The power of
    # two above isqrt(n) bounds them, so a table is sieved at most once per
    # doubling and only inputs that reach it pay for the 1e6 one.
    for p in _small_primes(min(TRIAL_LIMIT, 2 ** math.isqrt(n).bit_length())):
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
    if c > 1:
        prime = _is_prime(c)
        if c < TRIAL_LIMIT**2 and not prime:
            # Trial division already removed every factor below sqrt(c).
            raise AssertionError(f"unexpected composite cofactor {c}")
        if prime:
            d *= c
        else:
            r = math.isqrt(c)
            if r * r == c:
                s *= r
            elif c < TRIAL_LIMIT**3:
                # All prime factors exceed 1e6, so a non-square below 1e18
                # is a product of two distinct primes, hence squarefree.
                d *= c
            else:
                raise FactorizationTooLargeError(
                    f"cannot certify the squarefree part of {c}"
                )
    return s, d


@dataclass(frozen=True)
class ExactLength:
    """A length r*sqrt(d) with r rational and d a squarefree positive integer."""

    r: Fraction
    d: int

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError("radicand must be positive")

    def value(self) -> float:
        return float(self.r) * math.sqrt(self.d)

    def squared(self) -> Fraction:
        return self.r * self.r * self.d

    def __str__(self):
        if self.d == 1:
            return str(self.r)
        r = "" if self.r == 1 else f"{self.r}*"
        return f"{r}sqrt({self.d})"


def normalize_sqrt(q) -> ExactLength:
    """Canonical form r*sqrt(d) of sqrt(q) for a positive rational q.

    sqrt(num/den) = sqrt(num*den)/den, and the integer radicand splits into
    a square part and a squarefree part by trial division up to 1e6 plus a
    deterministic primality test on the cofactor.
    """
    q = Fraction(q)
    if q <= 0:
        raise ValueError(f"expected a positive rational, got {q}")
    num, den = q.numerator, q.denominator
    s, d = _square_split(num * den)
    return ExactLength(Fraction(s, den), d)


@dataclass
class SpanBasis:
    """Basis of the rational span of a length set, with coefficients.

    ``basis[j]`` is sqrt(d_j) for the distinct radicands d_j in increasing
    order; ``coefficients[i][j]`` is the rational coefficient of length i on
    basis element j.  Every row reconstructs its length exactly.
    """

    basis: list[ExactLength]
    coefficients: list[list[Fraction]]


def q_basis(lengths: list[ExactLength]) -> SpanBasis:
    """Basis {sqrt(d)} over the distinct radicands, plus the coefficient matrix."""
    if not lengths:
        raise ValueError("empty length list")
    radicands = sorted({ell.d for ell in lengths})
    col = {d: j for j, d in enumerate(radicands)}
    basis = [ExactLength(Fraction(1), d) for d in radicands]
    coefficients = []
    for ell in lengths:
        row = [Fraction(0)] * len(radicands)
        row[col[ell.d]] = ell.r
        coefficients.append(row)
    return SpanBasis(basis, coefficients)


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
    """Exact independence test: independent iff all radicands are distinct.

    Two lengths sharing a radicand d, r1*sqrt(d) and r2*sqrt(d), satisfy the
    integer relation (r2, -r1) after clearing denominators; the first such
    pair is returned as the witness.
    """
    seen: dict[int, int] = {}
    for i, ell in enumerate(lengths):
        if ell.d in seen:
            j = i
            i0 = seen[ell.d]
            coeffs = [Fraction(0)] * len(lengths)
            coeffs[i0] = lengths[j].r
            coeffs[j] = -lengths[i0].r
            relation = clear_to_integers(coeffs)
            g = math.gcd(*(abs(c) for c in relation if c)) if any(relation) else 1
            relation = tuple(c // g for c in relation)
            return IndependenceVerdict(DEPENDENT, relation=relation)
        seen[ell.d] = i
    return IndependenceVerdict(INDEPENDENT_EXACT)


def relation_residual_exact(lengths: list[ExactLength], relation) -> bool:
    """True iff the relation annihilates the lengths exactly.

    The combination sum(c_i * r_i * sqrt(d_i)) vanishes iff the rational
    coefficient of every radicand group vanishes.
    """
    groups: dict[int, Fraction] = {}
    for c, ell in zip(relation, lengths):
        groups[ell.d] = groups.get(ell.d, Fraction(0)) + c * ell.r
    return all(v == 0 for v in groups.values())


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
