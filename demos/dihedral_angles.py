# Dihedral angles of oriented triangulated surfaces
#
# The angle at an edge is measured in [0, 2*pi): in the plane orthogonal to
# the edge, it is the oriented angle from the first face's in-face direction
# to the second's.  The summed face normals point at half that angle, so it
# is also the wedge on the normals' side.  A Monte-Carlo estimate samples
# unit directions and counts the share inside the same wedge; the wedge is a
# cone about the edge, so that is its volume fraction in any ball around the
# edge midpoint.  This gives a sampled check of the closed-form value.

import numpy as np

from rigiditylab import (
    SimplicialSurface,
    make_regular_tetrahedron,
    make_triangulated_cube,
    monte_carlo_dihedral,
    polyhedron_from_config,
    principal_dihedral,
)

# ----------------------------------------------------------------------
# A convex edge of the unit cube reads 3*pi/2: with outward normals the
# turn from one face to the other sweeps the outside wedge, on the normals'
# side.  The face diagonals introduced by the triangulation are flat edges
# and read exactly pi.
# ----------------------------------------------------------------------

cube = make_triangulated_cube()
print("unit cube, outward orientation")
print(f"{'edge':>10} {'deterministic':>14} {'monte carlo':>12} {'difference':>11}")
for edge in cube.surface.edges:
    det = principal_dihedral(cube, edge)
    mc = monte_carlo_dihedral(cube, edge, n_samples=200_000, seed=0)
    print(f"{str(edge):>10} {det:14.6f} {mc:12.6f} {abs(det - mc):11.2e}")

print()
print(f"3*pi/2 = {1.5 * np.pi:.6f}   (true cube edges)")
print(f"pi     = {np.pi:.6f}   (flat face diagonals)")

# ----------------------------------------------------------------------
# Reversing the global orientation swaps the two wedges at every edge, so
# the two readings always sum to 2*pi.
# ----------------------------------------------------------------------

flipped = polyhedron_from_config(
    SimplicialSurface([(f[0], f[2], f[1]) for f in cube.surface.faces]),
    cube.vertex_array(),
)
edge = (0, 1)
a = principal_dihedral(cube, edge)
b = principal_dihedral(flipped, edge)
print()
print(f"edge {edge}: outward {a:.6f} + reversed {b:.6f} = {a + b:.6f} = 2*pi")

# ----------------------------------------------------------------------
# The regular tetrahedron has interior dihedral arccos(1/3); with outward
# orientation the measured angle is its complement to a full turn.
# ----------------------------------------------------------------------

tetra = make_regular_tetrahedron()
det = principal_dihedral(tetra, (0, 1))
mc = monte_carlo_dihedral(tetra, (0, 1), n_samples=500_000, seed=1)
print()
print("regular tetrahedron, edge (0, 1)")
print(f"  closed form 2*pi - arccos(1/3) = {2 * np.pi - np.arccos(1 / 3):.6f}")
print(f"  deterministic                  = {det:.6f}")
print(f"  monte carlo (5e5 samples)      = {mc:.6f}")
