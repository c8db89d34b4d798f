# Rigidity certificates from edge lengths alone
#
# If the edge lengths of an oriented closed triangulated surface are
# linearly independent over the rationals, the surface is rigid: no edge
# length is reachable from the others, so no dihedral angle can move.  The
# certificate needs only the length set, not the rigidity matrix.

from rigiditylab import (
    constant_angle_edges,
    edge_length_vector,
    infinitesimal_flex_dim,
    make_bricard_type1,
    make_distinct_length_octahedron,
    make_regular_octahedron,
    q_basis,
    rigidity_certificate,
)

# ----------------------------------------------------------------------
# An octahedron on integer points whose twelve edges are sqrt(6),
# sqrt(14), ..., sqrt(62): twelve distinct squarefree radicands, hence a
# rigid certificate.  The rigidity matrix agrees (no infinitesimal flex),
# but the certificate did not need it.
# ----------------------------------------------------------------------

P = make_distinct_length_octahedron()
cert = rigidity_certificate(P, mode="exact")
print("distinct-radicand octahedron")
print("  lengths:", [f"{v:.4f}" for v in edge_length_vector(P)])
print("  verdict:", cert.verdict)
print("  edges with provably constant angles:", cert.constant_angle_edges)
print("  infinitesimal flex dimension:", infinitesimal_flex_dim(P.vertex_array(), P.surface))

# ----------------------------------------------------------------------
# The regular octahedron has twelve equal lengths: maximally dependent.
# The verdict is inconclusive; dependence never implies flexibility (this
# octahedron is in fact rigid).
# ----------------------------------------------------------------------

octa = make_regular_octahedron()
cert = rigidity_certificate(octa, mode="exact")
print()
print("regular octahedron")
print("  verdict:", cert.verdict)
print("  witness relation:", cert.evidence.relation)
print("  caveat:", cert.caveat)
print("  infinitesimal flex dimension:",
      infinitesimal_flex_dim(octa.vertex_array(), octa.surface))

# ----------------------------------------------------------------------
# Numeric mode works from measured lengths: absence of a lattice relation
# up to a height bound yields a presumed verdict, qualified by that bound.
# ----------------------------------------------------------------------

cert = rigidity_certificate(P, mode="numeric", height=10**6)
print()
print("distinct-radicand octahedron, numeric mode")
print("  verdict:", cert.verdict, "up to coefficient height", cert.height)

# ----------------------------------------------------------------------
# The Bricard octahedron pairs its lengths by the half-turn symmetry, so
# no edge length is unique and no angle is predicted constant: exactly
# the room a flexible polyhedron needs.
# ----------------------------------------------------------------------

bricard = make_bricard_type1()
span = q_basis(bricard.exact_edge_lengths())
print()
print("line-symmetric (Bricard) octahedron")
print("  constant-angle predictions:", constant_angle_edges(span), "(none)")
print("  infinitesimal flex dimension:",
      infinitesimal_flex_dim(bricard.vertex_array(), bricard.surface))
