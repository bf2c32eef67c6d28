"""
Whitney cubes and the smooth partition of unity
===============================================

The complement of the data set is tiled by dyadic cubes whose size tracks
the distance to the set.  On top of the tiling sits a family of compactly
supported smooth weights that sum to one — the scaffolding that turns local
Taylor polynomials into one global function.
"""

import math

import numpy as np

from whitneyext import decomp, pou

A = decomp.make_closed_set(points=[[0.0], [1.0]])
dec = decomp.Decomposition(A)

###############################################################################
# Locating cubes
# --------------
# Far from A the cubes have side 1 (the coarsest allowed); approaching A they
# halve again and again.  Each query point lands in exactly one cube.

for x in (6.3, 2.1, 0.52, 0.501):
    c = dec.locate((x,))
    print(f"x={x:<6} level={c.level}  cube=[{c.lo[0]}, {c.hi[0]}]  side={c.side}")

###############################################################################
# Geometry
# --------
# Every cube keeps a sized distance to A: at least 4*sqrt(n) sides away, and
# (below level 0) less than 10*sqrt(n) sides.  Touching cubes differ in side
# by at most a factor of two.  The anchor is a nearest point of A; a point
# set is held as zero-width boxes [p, p], whose rows `lo` are its points.

c = dec.locate((0.52,))
print("\ncube distance to A:", dec.cube_distance(c), "(side", c.side, ")")
print("anchor:", tuple(float(v) for v in A.lo[A.nearest([c.center])[0]]))
reach = 2 * c.side
nearby = dec.enumerate_in_box([0.52 - reach], [0.52 + reach], c.level + 1)
print("touching cubes:", [(nb.level, nb.corner) for nb in nearby if nb.touches(c)])

###############################################################################
# The partition of unity
# ----------------------
# Each cube C carries a bump supported in the slightly enlarged cube D_C.
# At any point off A only a handful of bumps are active, and their normalized
# versions phi_C sum to one — including all derivative coefficients at the
# query point.

x = (0.37,)
(live,), phi = pou.phi_taylor([dec.supporting_cubes(x)], [x], 0)  # order 0: the weights
print("\nactive cubes at x=0.37 and their weights:")
total = 0.0
for (cube, _), w in zip(live, phi.coeffs[0]):
    print(f"  level {cube.level} [{cube.lo[0]}, {cube.hi[0]}] -> {w:.6f}")
    total += w
print("sum:", total)

# the same identity holds for whole Taylor series of the weights
series_sum = None
for _, phi in pou.partition_taylor(x, dec, 2):
    series_sum = phi.coeffs if series_sum is None else series_sum + phi.coeffs
print("series of sum(phi) :", np.round(series_sum, 12), "(constant 1, rest 0)")

###############################################################################
# Support is exact: outside its enlarged cube a bump is identically zero,
# not merely small.

far_cube = dec.locate((6.3,))
print("\npsi of a far cube at x=0.37 is exactly zero:",
      np.all(pou.psi_taylor([far_cube], x, 2).coeffs == 0.0))

###############################################################################
# Derivative growth
# -----------------
# Near A the weights stay in [0,1] but their derivatives necessarily grow
# like 1/d(x,A)^order; the constant in front can be estimated by sampling.

# Sample densely: the derivatives live in the narrow overlap zones between
# neighbouring bumps, and a sparse sample sees only the flat plateaus.
samples = [(0.5 + 0.4 * math.cos(t),) for t in np.linspace(0, 3, 400)]
n2 = pou.estimate_derivative_constant(dec, 2, samples)
print("\nestimated order-2 derivative constant:", round(n2))
