# Rational linear algebra over edge lengths
#
# Lengths of the form r*sqrt(d) (r rational, d a positive integer) admit
# exact independence tests: sqrt(a) and sqrt(b) are rational multiples of
# each other iff a*b is a square, and square roots from distinct classes of
# that relation are linearly independent over the rationals, so grouping the
# lengths into those classes settles everything.  For lengths given only as
# decimals, a lattice reduction searches for small integer relations
# instead; finding none up to a coefficient height is evidence, not proof.

from decimal import Context
from fractions import Fraction

from rigiditylab import (
    find_integer_relation,
    is_q_independent,
    normalize_sqrt,
    q_basis,
)

# ----------------------------------------------------------------------
# Canonical forms: sqrt(8) = 2*sqrt(2), sqrt(9/2) = (3/2)*sqrt(2).
# ----------------------------------------------------------------------

for q in (8, 1, Fraction(9, 2), Fraction(293, 25)):
    print(f"sqrt({q}) = {normalize_sqrt(q)}")

# ----------------------------------------------------------------------
# A basis of the rational span, and the coefficient matrix on it.
# ----------------------------------------------------------------------

lengths = [normalize_sqrt(2), normalize_sqrt(8), normalize_sqrt(3)]
span = q_basis(lengths)
print()
print("lengths:", [str(ell) for ell in lengths])
print("basis:  ", [str(b) for b in span.basis])
for ell, row in zip(lengths, span.coefficients):
    print(f"  {str(ell):>10} -> {[str(c) for c in row]}")

print()
print("independence of {sqrt(2), sqrt(3), sqrt(5)}:",
      is_q_independent([normalize_sqrt(d) for d in (2, 3, 5)]).kind)
verdict = is_q_independent([normalize_sqrt(2), normalize_sqrt(8)])
print("dependence of {sqrt(2), sqrt(8)}:", verdict.kind, verdict.relation,
      "(2*sqrt(2) - sqrt(8) = 0)")

# ----------------------------------------------------------------------
# Numeric mode: the same verdicts from 30-digit decimal renderings.  The
# identity 1 + sqrt(2) - (1 + sqrt(2)) = 0 is found immediately; for
# (1, sqrt(2), sqrt(3)) no relation with coefficients up to 1e6 exists.
# ----------------------------------------------------------------------

digits31 = Context(prec=31)
s2 = str(digits31.sqrt(2))
s3 = str(digits31.sqrt(3))
s = str(digits31.add(1, digits31.sqrt(2)))

print()
print("relation in (1, sqrt(2), 1 + sqrt(2)):",
      find_integer_relation(["1.0", s2, s]))
print("relation in (1, sqrt(2), sqrt(3)) up to height 1e6:",
      find_integer_relation(["1.0", s2, s3], height=10**6))
