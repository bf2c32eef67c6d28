"""
The Whitney extension operator.

Given a k-jet f on a finite closed set A ⊂ ℝⁿ, the extension is

    F(x) = f_0(x)                                   for x ∈ A,
    F(x) = Σ_C φ_C(x) · T^k_{x_C} f(x)              for x ∉ A,

where the sum runs over the Whitney cubes supporting x, φ_C is the smooth
partition of unity subordinate to the enlarged cubes, and x_C is the
anchor of C (a nearest point of A to its center).  F is C^k, its jet on A
is exactly the prescribed one, it depends linearly on f, and it reproduces
every polynomial of degree ≤ k whose jet induced f.

F and its derivatives off A come from one computation, the whole sum run
in Taylor arithmetic; the value F(x) is row 0 of that blend at order 0,
and ``eval``, ``eval_adaptive`` and ``derivs`` differ only in the order
and in the degree each cube contributes.  The series of each anchored
Taylor polynomial at the query point x comes from the shift identity

    ∂^β T^k_y f(x) = Σ_{|γ| ≤ k−|β|} (x−y)^γ/γ! · f_{β+γ}(y),

which reads its coefficients straight off the jet (``jets.Jet.taylor_series``,
one array computation for all anchors of one degree).  As Σ_C φ_C = 1,
the sum is formed as

    F = T_{C₀} + Σ_{C≠C₀} φ_C·(T_C − T_{C₀}),      C₀ the first cube,

on (ncoef, m) coefficient arrays: the φ_C series of every supporting cube
come from one ``pou.phi_taylor`` call (one series division of the ψ
matrix by Σ ψ), and the products are one batched series product, added
in cube order.  Cubes whose ψ_C(x) is 0 contribute nothing and are left
out.  Near A the derivatives of φ_C grow like side^−|α|, and so they
multiply only differences of the polynomials, not a common part that
would have to cancel in rounding.  A difference T_C − T_{C₀} can leave
the float range where F does not (T = ±1e308 at two anchors), so the
blend runs on halved rows and doubles the result; halving is exact in the
normal float range.  Normalizing ψ before the product rather than
dividing the summed numerator by Σ ψ afterwards costs the same single
division and keeps the rounding of the per-cube sum.  A result beyond the
float range is a ValueError, not inf.  On A the values and derivatives
are read from the jet, which the theorem guarantees is the restriction
of F.

The adaptive variant assigns each cube a degree from a schedule of radii
δ_1 > δ_2 > … (with δ_{i+1} < δ_i/2): the cube with center y_C uses the
largest i with d(y_C, A) < δ_i, or 0 when even δ_1 is too small
(d(y_C, A) is read off the anchor row of C, a nearest point to y_C).  Cubes
far from A therefore use low-degree polynomials and cubes near A use the
full stored order; requesting a degree beyond the stored jet raises
``ScheduleExhausted``.

Every evaluation is one call of ``Extension.blend`` on a batch of queries;
``eval``, ``derivs``, ``eval_derivs`` and ``eval_adaptive`` are its batch
of one, ``eval_batch`` its order-0 rows.  The cubes of the batch's
queries and the rows of their anchors come from one
``Decomposition.supporting_cubes_batch`` call, which names the row of a
query on A.  It searches a batch of three or more queries by blocks in
shared array passes (one distance scan, then one candidate scan for the
home levels and one for the cubes next to them and their anchors), and
a smaller batch one query at a time, with the same bits.  The series
work of the batch is one array computation over its (query, cube)
columns: one ψ/φ batch with a single division of
each query's columns by its own Σ ψ, one anchored Taylor computation per
distinct degree, and one batched product for the halved blend.  Every
column has the arithmetic of a one-query call, and each query's sums run
in cube order, so a row has the bits of the query evaluated alone.  A
failing batch is re-run one query at a time, in row order, and so raises
what its first failing query raises alone.

An Extension is not changed by evaluation; concurrent calls give the same
results as sequential ones.
"""

import itertools
import math

import numpy as np

from . import decomp, jets, pou, taylorarith


class ScheduleExhausted(Exception):
    """The degree schedule demands a higher order than the jet stores at
    the query `point`."""

    def __init__(self, needed, stored, point):
        super().__init__(
            f"schedule requires degree {needed} near the set, "
            f"but the jet stores order {stored}"
        )
        self.needed = needed
        self.stored = stored
        self.point = tuple(point)


class Extension:
    """
    The extension F of a jet on a finite set, with exact derivatives.

    Parameters
    ----------
    jet : jets.Jet
        The Whitney jet to extend; its points form the closed set A.
    k : int, optional
        Degree of the anchored Taylor polynomials (default: the jet's own
        order).  Must not exceed the stored order.
    schedule : sequence of float, optional
        Radii δ_1 > δ_2 > … for ``eval_adaptive``, each less than half
        the previous.
    """

    def __init__(self, jet, k=None, schedule=None):
        self.jet = jet
        self.k = jet.k if k is None else int(k)
        if not 0 <= self.k <= jet.k:
            raise ValueError(f"degree {self.k} not available in an order-{jet.k} jet")
        self.n = jet.n
        self.m = jet.m
        self.A = decomp.FinitePoints(jet.X)
        self.dec = decomp.Decomposition(self.A)
        if schedule is None:
            self.schedule = None
        else:
            sched = tuple(float(d) for d in schedule)
            if not sched:
                raise ValueError("empty degree schedule")
            if sched[0] <= 0.0:
                raise ValueError("schedule radii must be positive")
            for prev, cur in zip(sched, sched[1:]):
                if not cur < prev / 2:
                    raise ValueError(
                        f"schedule must shrink by more than half at each step "
                        f"({cur} after {prev})"
                    )
            self.schedule = sched

    # -- evaluation ----------------------------------------------------------

    def eval(self, x):
        """F(x) as an (m,) array: row 0 of the blend at order 0."""
        return self.blend([x])[0, 0]

    def eval_batch(self, xs):
        """
        F at every query of xs (a sequence of points, or a (Q, n) array),
        as a (Q, m) array: row 0 of one blend of the whole batch at order 0.
        Each row has the bits of ``eval`` at that query, and a batch with a
        failing query raises the error of the first one, as ``eval`` would.
        """
        return self.blend(xs)[:, 0]

    def eval_derivs(self, x, upto=None):
        """
        All partial derivatives ∂^α F(x) for |α| ≤ upto, as a dict mapping
        multi-index tuples to (m,) arrays (the rows of ``derivs``).
        """
        upto = self.k if upto is None else int(upto)
        ders = self.derivs(x, upto)
        return dict(zip(taylorarith.context(self.n, upto).indices, ders))

    def derivs(self, x, upto=None):
        """
        All partial derivatives ∂^α F(x) for |α| ≤ upto, as a
        (C(n+upto, n), m) array in graded-lex order of α.  On A the values
        are the stored jet entries; off A the defining sum is run in Taylor
        arithmetic, as F = T_{C₀} + Σ_C φ_C·(T_C − T_{C₀}) (see the module
        docstring).  A result beyond the float range is a ValueError.
        """
        upto = self.k if upto is None else int(upto)
        return self.blend([x], upto)[0]

    def blend(self, xs, upto=0, adaptive=False):
        """
        The rows ∂^α F(x) for |α| ≤ upto at every query x of xs (a sequence
        of points, or a (Q, n) array), as a (Q, C(n+upto, n), m) array; the
        cube C contributes its anchored Taylor polynomial of degree k, or of
        its schedule degree when `adaptive` (see the module docstring).  A
        failing batch is re-run one query at a time, in row order, so it
        raises what its first failing query raises alone.
        """
        if not 0 <= upto <= self.k:
            raise ValueError(f"order {upto} exceeds evaluation degree {self.k}")
        if adaptive and self.schedule is None:
            raise ValueError("extension was built without a degree schedule")
        ctx = taylorarith.context(self.n, upto)
        xs = [tuple(float(c) for c in x) for x in xs]
        return taylorarith._run_batch(lambda batch: self._blend(batch, ctx, adaptive), xs)

    def _blend(self, xs, ctx, adaptive):
        """
        The rows at the queries xs, as a (len(xs), ncoef, m) array: on A the
        jet's row there, off A the blend T_{C₀} + Σ_{C≠C₀} φ_C·(T_C − T_{C₀})
        over the query's supporting cubes, summed in cube order by
        ``pou.group_sums``.  A failing batch raises at its first failing
        stage (a result beyond the float range is a ValueError); ``blend``
        re-runs it one query at a time.
        """
        out = np.empty((len(xs), ctx.ncoef, self.m))
        off, found = [], []  # the queries off A and their (cube, anchor row) pairs
        for q, got in enumerate(self.dec.supporting_cubes_batch(xs)):
            if isinstance(got, decomp.OnSet):
                out[q] = self.jet.F[got.row, : ctx.ncoef]
            else:
                found.append(got)
                off.append(q)
        if not off:
            return out
        xs = [xs[q] for q in off]
        cubes, phi = pou.phi_taylor(found, xs, ctx.k)
        counts = [len(live) for live in cubes]
        flat = [
            self._cube_degree(c, row, x) if adaptive else self.k
            for x, live in zip(xs, cubes)
            for c, row in live
        ]
        rows = [row for live in cubes for _, row in live]
        at = [x for x, c in zip(xs, counts) for _ in range(c)]
        series = np.empty((ctx.ncoef, len(flat), self.m))
        for g in dict.fromkeys(flat):  # one Taylor computation per degree
            cols = [j for j, d in enumerate(flat) if d == g]
            series[:, cols] = self.jet.taylor_series(
                [rows[j] for j in cols], g, [at[j] for j in cols], ctx.k
            )
        firsts = list(itertools.accumulate(counts, initial=0))[:-1]  # each query's C₀
        with np.errstate(over="ignore", invalid="ignore"):
            series *= 0.5  # so that T_C − T_{C₀} is finite wherever F is
            diffs = series - np.repeat(series.take(firsts, axis=1), counts, axis=1)
            terms = taylorarith.mul(
                taylorarith.TaylorValue(ctx, np.repeat(phi.coeffs, self.m, axis=1)),
                taylorarith.TaylorValue(ctx, diffs.reshape(ctx.ncoef, -1)),
            ).coeffs.reshape(diffs.shape)
            terms[:, firsts] = series.take(firsts, axis=1)
            ders = pou.group_sums(terms, counts) * (2.0 * ctx.factorials)[:, None, None]
        if not np.isfinite(ders).all():
            q = np.isfinite(ders).all(axis=(0, 2)).argmin()
            raise ValueError(f"the derivatives of the extension overflow at {xs[q]}")
        out[off] = ders.transpose(1, 0, 2)
        return out

    # -- adaptive degree ------------------------------------------------------

    def _cube_degree(self, cube, row, x):
        """
        Largest schedule index whose radius still exceeds d(y_C, A); raises
        ScheduleExhausted (at the query x) when that degree is beyond the
        stored jet.  The anchor of C, at `row` of the jet, is a nearest point
        of A to y_C, so d(y_C, A) is the norm of their difference, computed
        as the scans of A compute it.
        """
        d = math.sqrt(decomp._squares(self.jet.X[row] - cube.center))
        g = 0
        for i, delta in enumerate(self.schedule, start=1):
            if d < delta:
                g = i
            else:
                break
        if g > self.jet.k:
            raise ScheduleExhausted(g, self.jet.k, x)
        return g

    def eval_adaptive(self, x):
        """
        F(x) with per-cube polynomial degree taken from the schedule:
        each supporting cube contributes T^{g_C}_{x_C} f(x).
        """
        return self.blend([x], adaptive=True)[0, 0]

    def supporting_count(self, x):
        """Number of cubes with psi_C(x) != 0, which contribute at x
        (locality probe)."""
        x = tuple(float(c) for c in x)
        return len(pou.phi_taylor([self.dec.supporting_cubes(x)], [x], 0)[0][0])


def linearity_probe(f, g, a, b, x, k=None):
    """
    ‖Φ(af+bg)(x) − aΦ(f)(x) − bΦ(g)(x)‖_max — zero up to rounding, since
    the extension is linear in the jet.
    """
    combined = Extension(jets.linear_combination(a, f, b, g), k=k)
    ext_f = Extension(f, k=k)
    ext_g = Extension(g, k=k)
    r = combined.eval(x) - a * ext_f.eval(x) - b * ext_g.eval(x)
    return float(np.max(np.abs(r)))


def continuity_ratio(ext, sample_points, q="max"):
    """
    Empirical continuity constant: the largest q(∂^α F(y)) over the sample
    and |α| ≤ k, divided by the jet seminorm.  Finite and stable under
    sample refinement; scales homogeneously of degree 0 under jet rescaling
    (numerator and denominator are both degree 1).
    """
    num = 0.0
    for y in sample_points:
        for v in ext.eval_derivs(y, ext.k).values():
            num = max(num, jets.apply_seminorm(q, v))
    den = ext.jet.seminorm(ext.k, q)
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den
