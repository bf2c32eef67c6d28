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
is at least 1 because x lies on its own cube's plateau.  A cube whose
psi_C(x) is exactly 0 (it underflows near the edge of D_C) is left out, as
its weight adds nothing to F(x).

There is one weights routine, ``phi_taylor``, and no separate float path:
the weights phi_C(x) are the order-0 series, whose single coefficient is
the plain float quotient psi_C(x) / sum of psi.

All derivatives are taken in Taylor arithmetic, on arrays.  As psi_C is a
product of one-variable profiles, its series is a tensor product: the
profile series s(t0 + h/l_C) of every supporting cube and coordinate form
one univariate batch (``bump_taylor`` on (k+1, n·C) coefficients), and the
coefficient of psi_C at the multi-index a is prod_i s_i[a_i], s_i the
profile series of coordinate i, gathered from the batch (``psi_taylor``).
All phi_C then come from a single series division of the (ncoef, C) psi
matrix by its column sum (``phi_taylor``).  The per-column arithmetic is
that of a 1-D call, so psi_C has the same bits as the product of n
profile series in n variables.

The piecewise branch of s is decided per row from the (exact) base value
before any series is built: on the closed plateau the expansion is
exactly the constant-1 series, outside the open support it is exactly the
zero series, so the essential singularity of B is never evaluated at its
boundary.  (On the closed plateau boundary the true expansion *is* the
constant series — the junctions are flat.)  In the transition band the
argument is linear, and ``_step_series`` forms the series of s(t + tau) by
three O(k^2) recurrences: g = -1/p for p = p0 -/+ tau (g_j = g_0 (+/-1/p0)^j),
E = exp(g) (E_j = (1/j) sum_{i=1..j} i g_i E_{j-i} from E_0 = math.exp(g_0))
and the quotient up/(up + down).  Each step j of the last two is one
``np.add.reduce`` over its j products, divided into its row in place.  Row
0 does the float operations of the scalar formula, so every s(t) keeps its
bits (``np.exp`` would move the last bit of some); the derivative rows
round as the recurrences do.  What depends only on the shape, the degree
|a|, the multinomial |a|!/a! and the exponent columns of every index a,
``bump_taylor`` reads from the shared ``taylorarith.Context``.
"""

import itertools
import math

import numpy as np

from . import taylorarith
from .decomp import ResolutionExceeded
from .taylorarith import TaylorValue, constant


def bump_taylor(u):
    """
    s applied to a linear Taylor value u = t0 + a.h, column by column for
    (ncoef, B) coefficients (a nonzero coefficient of degree >= 2 is a
    ValueError): constant-1 series on the closed plateau, zero series at or
    beyond the support boundary, and on the transition columns the series
    s_j of s(|t0| + tau) (``_step_series``) in tau = sign(t0) a.h, that is
    coeff_alpha = s_|alpha| (|alpha|!/alpha!) (sign(t0) a)^alpha.  Row 0 is
    s_0, and for a slope that is a power of 2 the scaling is exact.
    """
    ctx, c = u.ctx, u.coeffs.reshape(len(u.coeffs), -1)
    if c[ctx.n + 1 :].any():  # the rows of degree >= 2, after row n in graded-lex order
        raise ValueError("the profile takes a linear argument: u has a nonzero coefficient of degree >= 2")
    t0 = np.abs(c[0])
    out = np.zeros_like(c)
    out[0] = t0 <= 0.5
    mid = np.flatnonzero((0.5 < t0) & (t0 < 0.75))
    if mid.size:
        slopes = c[1 : ctx.n + 1].take(mid, axis=1) * np.sign(c[0, mid])  # the rows e_i; none for k = 0
        powers = np.multiply.reduce(slopes**ctx.slope_exponents, axis=1)
        out[:, mid] = _step_series(t0[mid], ctx.k).take(ctx.degrees, axis=0) * (ctx.multinomials * powers)
    return TaylorValue(ctx, out.reshape(u.coeffs.shape))


def _step_series(t, k):
    """The (k+1, len(t)) Taylor coefficients of s(t + tau) in tau at the
    transition-band values t, by the recurrences of the module docstring."""
    g0 = -1.0 / np.concatenate([0.75 - t, t - 0.5])
    e0 = np.array([math.exp(v) for v in g0.tolist()])
    # where B underflows to 0 its whole series is 0; g0 = -1 keeps the signs
    # of those zeros and keeps the powers of g0 from overflowing
    g0[e0 == 0] = -1.0
    i = np.arange(k + 1)[:, None]
    ig = i * g0 * np.concatenate([-g0[: t.size], g0[t.size :]]) ** i  # i g_i
    e = np.empty_like(ig)
    e[0] = e0
    for j in range(1, k + 1):
        np.divide(np.add.reduce(ig[1 : j + 1] * e[j - 1 :: -1], axis=0), j, out=e[j])
    up, total = e[:, : t.size], e[:, : t.size] + e[:, t.size :]
    s = up / total[0]  # row 0 is final
    for j in range(1, k + 1):
        np.divide(up[j] - np.add.reduce(total[1 : j + 1] * s[j - 1 :: -1], axis=0), total[0], out=s[j])
    return s


def _profiles(cubes, x, k):
    """
    The order-k profile series s(t0 + h/l_C) of every cube and coordinate,
    t0 = (x_i - y_C_i) / l_C, as one univariate batch: a (k+1, len(cubes), n)
    coefficient array.  x is one point, or one point per cube.
    """
    sides = np.array([c.side for c in cubes])
    t0 = (np.asarray(x, dtype=float) - np.array([c.center for c in cubes])) / sides[:, None]
    u = np.zeros((k + 1, t0.size))
    u[0] = t0.ravel()
    if k >= 1:
        u[1] = np.repeat(1.0 / sides, t0.shape[1])
    profiles = bump_taylor(TaylorValue(taylorarith.context(1, k), u)).coeffs
    return profiles.reshape(k + 1, *t0.shape)


def psi_taylor(cubes, x, k):
    """
    Order-k expansions of psi_C at x for every cube of `cubes` (x one
    point, or one point per cube), as one TaylorValue with
    (ncoef, len(cubes)) coefficients: the tensor product
    coeff_a = prod_i s_i[a_i] of the profile series s_i of the coordinates,
    gathered from one batch.
    """
    profiles = _profiles(cubes, x, k)
    ctx = taylorarith.context(profiles.shape[2], k)
    out = profiles[:, :, 0].take(ctx.exponents[:, 0], axis=0)
    for i in range(1, ctx.n):
        out = out * profiles[:, :, i].take(ctx.exponents[:, i], axis=0)
    return TaylorValue(ctx, out)


def psi_cube(cube, x, k):
    """
    Order-k expansion of psi_C at x, built coordinate by coordinate: the
    constant 1 times the profile series of each coordinate as a series in
    n variables.  Its nonzero coefficients have the bits of the column of
    ``psi_taylor``, which gathers the same products for many cubes at once.
    """
    profiles = _profiles([cube], x, k)[:, 0]
    ctx = taylorarith.context(len(x), k)
    out = constant(1.0, ctx.n, k)
    for i, e in enumerate(ctx.exponents.T):
        alone = e == ctx.degrees  # the indices j·e_i
        out = out * TaylorValue(ctx, np.where(alone, profiles[e, i], 0.0))
    return out


def partition_taylor(x, dec, k):
    """
    Order-k expansions of every phi_C at x, as a list of (cube, series)
    over the supporting cubes with psi_C(x) != 0.  The series of all other
    cubes are zero, so the returned list carries the whole local partition:
    the sum of the series is the constant-1 series up to rounding.
    """
    (live,), phi = phi_taylor([dec.supporting_cubes(x)], [x], k)
    return [(c, TaylorValue(phi.ctx, phi.coeffs[:, j])) for j, (c, _) in enumerate(live)]


def phi_taylor(groups, xs, k):
    """
    Order-k expansions of phi_C at each query x of `xs`, for the (cube,
    anchor) pairs of its group in `groups` (those supporting x) whose
    psi_C(x) is not 0, as (those pairs, one list per query; one TaylorValue
    with a column per cube, query after query).  The psi matrix of all
    queries is one batch, and each query's columns are divided once by
    their sum, added in cube order (``group_sums``); every column has the
    bits of a one-query call.  Row 0 holds the weights phi_C(x).
    """
    psi = psi_taylor(
        [c for g in groups for c, _ in g], np.repeat(xs, [len(g) for g in groups], axis=0), k
    )
    alive = (psi.coeffs[0] != 0.0).tolist()
    live, start = [], 0
    for g in groups:
        live.append([pair for pair, keep in zip(g, alive[start:]) if keep])
        start += len(g)
    cols, counts = psi.coeffs.compress(alive, axis=1), [len(g) for g in live]
    total = np.repeat(group_sums(cols, counts), counts, axis=1)
    return live, taylorarith.div(TaylorValue(psi.ctx, cols), TaylorValue(psi.ctx, total))


def group_sums(cols, counts):
    """
    The sum of each run of consecutive columns of `cols` (runs of the
    lengths `counts`, each at least 1), one column per run: every run's
    columns are added in column order, so each element of a sum sees the
    additions of a one-run call, in the same order.
    """
    firsts = list(itertools.accumulate(counts, initial=0))[:-1]
    total = cols.take(firsts, axis=1)
    for q, (first, count) in enumerate(zip(firsts, counts)):
        for j in range(first + 1, first + count):
            total[:, q] += cols[:, j]
    return total


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
