"""
The smooth cutoff and the Whitney partition of unity.

The 1-D profile is the standard smooth step built from B(t) = exp(-1/t)
(t > 0, else 0):

    s(t) = B(3/4 - |t|) / (B(3/4 - |t|) + B(|t| - 1/2))

so s = 1 on [-1/2, 1/2], s = 0 outside (-3/4, 3/4), and s is C-infinity
with every derivative vanishing at the four junction points.  The cutoff
for a cube C with center y_C and side l_C is

    psi_C(x) = prod_i s((x_i - y_C_i) / l_C),

which is identically 1 on C itself (the plateau covers sup-norm radius
l_C/2) and supported in the enlarged box D_C (sup-norm radius (3/4) l_C).
The partition functions are phi_C = psi_C / sum of psi over all cubes;
only the cubes whose enlarged box D_C holds x contribute to the sum
(``Decomposition.supporting_cubes``), and the denominator's constant term
is at least 1 because x lies on its own cube's plateau.  The float weights
and the series weights share that cube search and normalization; only the
cutoff differs (``psi_cube_real`` or ``psi_cube``).

All derivatives are taken in Taylor arithmetic.  The piecewise branch of
s is decided from the (exact) base point before any series is built: on
the closed plateau the expansion is exactly the constant-1 series, outside
the open support it is exactly the zero series, so the essential
singularity of B is never evaluated at its boundary.  (On the closed
plateau boundary the true expansion *is* the constant series — the
junctions are flat.)
"""

import math

from . import taylorarith
from .decomp import ResolutionExceeded
from .taylorarith import constant


def _B_real(t):
    return math.exp(-1.0 / t) if t > 0.0 else 0.0


def bump_real(t):
    """The 1-D profile s(t) as a plain float."""
    t = abs(t)
    if t <= 0.5:
        return 1.0
    if t >= 0.75:
        return 0.0
    up = _B_real(0.75 - t)
    return up / (up + _B_real(t - 0.5))


def bump_taylor(u):
    """
    s applied to a Taylor value u (the expansion of some smooth quantity).

    The branch is chosen from u's constant term: constant-1 series on the
    closed plateau, zero series at or beyond the support boundary, and the
    smooth-step formula in between (where |.| is smooth because the
    constant term is bounded away from 0).
    """
    t0 = u.const
    if abs(t0) <= 0.5:
        return constant(1.0, u.n, u.k)
    if abs(t0) >= 0.75:
        return constant(0.0, u.n, u.k)
    a = u if t0 > 0 else -u
    up = taylorarith.exp(-1.0 / (0.75 - a))
    down = taylorarith.exp(-1.0 / (a - 0.5))
    return up / (up + down)


def psi_cube_real(cube, x):
    """psi_C(x) = psi((x - y_C) / l_C) as a float."""
    s = cube.side
    out = 1.0
    for xi, ci in zip(x, cube.center):
        out *= bump_real((xi - ci) / s)
        if out == 0.0:
            break
    return out


def psi_cube(cube, x, k):
    """Order-k expansion of psi_C at x, built coordinate by coordinate."""
    n = len(x)
    s = cube.side
    out = constant(1.0, n, k)
    for i, ci in enumerate(cube.center):
        u = (taylorarith.seed_variable(x, i, n, k) - ci) / s
        out = out * bump_taylor(u)
    return out


def _normalize(pairs):
    """[(cube, psi_C)] -> [(cube, psi_C / sum of the psi_C)], in order."""
    total = pairs[0][1]
    for _, p in pairs[1:]:
        total = total + p
    return [(c, p / total) for c, p in pairs]


def phi_weights_real(x, dec):
    """
    The partition weights at x as floats: a list of (cube, phi_C(x)) over
    the cubes supporting x.  The weights are non-negative and sum to 1.
    Cubes whose psi_C(x) underflows to 0 near the edge of D_C are left out.
    """
    pairs = [(c, psi_cube_real(c, x)) for c in dec.supporting_cubes(x)]
    return _normalize([(c, p) for c, p in pairs if p != 0.0])


def partition_taylor(x, dec, k):
    """
    Order-k expansions of every phi_C at x, as a list of (cube, series)
    over the supporting cubes.  The series of all other cubes are exactly
    zero, so the returned list carries the whole local partition: the sum
    of the series is the constant-1 series up to rounding.
    """
    return _normalize([(c, psi_cube(c, x, k)) for c in dec.supporting_cubes(x)])


def phi_cube(cube, x, dec, k):
    """
    Order-k expansion of phi_C at x.  Exactly the zero series when x is
    outside the enlarged box D_C (the support of psi_C); otherwise
    psi_C / sum psi over the cubes supporting x.
    """
    if not cube.enlarged_contains(x):
        dec.locate(x)  # raises on A or beyond resolution, as for any query
        return constant(0.0, dec.n, k)
    for c, series in partition_taylor(x, dec, k):
        if c == cube:
            return series
    # x in D_C always places C among the supporting cubes
    raise AssertionError(f"cube {cube} not found among supporting cubes of {x}")


def estimate_derivative_constant(dec, k, sample_points):
    """
    Empirical bound for the partition derivatives: the maximum over the
    sample of |d^a phi_C(y)| * d(y, A)^|a| for all supporting cubes C and
    all |a| <= k.  The true constant exists but is not constructive; this
    estimate is reported as a diagnostic and should be stable under sample
    refinement.
    """
    worst = 0.0
    for y in sample_points:
        dy = dec.A.distance(y)
        if dy == 0.0:
            continue
        try:
            parts = partition_taylor(y, dec, k)
        except ResolutionExceeded:
            continue
        for _, series in parts:
            derivs = taylorarith.derivatives(series)
            for a, d in zip(series.ctx.indices, derivs):
                worst = max(worst, abs(float(d)) * dy ** sum(a))
    return worst
