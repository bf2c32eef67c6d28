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
largest i with d(y_C, A) < δ_i, or 0 when even δ_1 is too small.  Cubes
far from A therefore use low-degree polynomials and cubes near A use the
full stored order; requesting a degree beyond the stored jet raises
``ScheduleExhausted``.

Evaluation is pure: an Extension is immutable after construction and
batches of query points may be evaluated concurrently (the only shared
mutation is an idempotent anchor memo).
"""

import math

import numpy as np

from . import decomp, jets, pou, taylorarith


class ScheduleExhausted(Exception):
    """The degree schedule demands a higher order than the jet stores."""

    def __init__(self, needed, stored):
        super().__init__(
            f"schedule requires degree {needed} near the set, "
            f"but the jet stores order {stored}"
        )
        self.needed = needed
        self.stored = stored


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
    j_max : int, optional
        Finest dyadic level for cube location; queries off A but closer
        than the resolvable scale raise ``decomp.ResolutionExceeded``.
    schedule : sequence of float, optional
        Radii δ_1 > δ_2 > … for ``eval_adaptive``, each less than half
        the previous.
    """

    def __init__(self, jet, k=None, j_max=52, schedule=None):
        self.jet = jet
        self.k = jet.k if k is None else int(k)
        if not 0 <= self.k <= jet.k:
            raise ValueError(f"degree {self.k} not available in an order-{jet.k} jet")
        self.n = jet.n
        self.m = jet.m
        self.A = decomp.FinitePoints(jet.point_array())
        self.dec = decomp.Decomposition(self.A, j_max=j_max)
        self._pid_of = {jet.coords[pid]: pid for pid in jet.ids}
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

    # -- plumbing -----------------------------------------------------------

    def _anchor_id(self, cube):
        return self._pid_of[self.dec.anchor(cube)]

    def _on_set(self, x):
        return self._pid_of.get(tuple(float(c) for c in x))

    # -- evaluation ----------------------------------------------------------

    def eval(self, x):
        """F(x) as an (m,) array: row 0 of the blend at order 0."""
        return self._blend(x, 0, lambda cube: self.k)[0]

    def eval_batch(self, xs):
        """F on every row of xs, stacked; rows are independent."""
        return np.array([self.eval(x) for x in np.asarray(xs, dtype=float)])

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
        if not 0 <= upto <= self.k:
            raise ValueError(f"order {upto} exceeds evaluation degree {self.k}")
        return self._blend(x, upto, lambda cube: self.k)

    def _blend(self, x, upto, degree):
        """
        The rows ∂^α F(x) for |α| ≤ upto, the cube C contributing its
        anchored Taylor polynomial of degree `degree(C)` ≥ upto.
        """
        ctx = taylorarith.context(self.n, upto)
        x = tuple(float(c) for c in x)
        pid = self._on_set(x)
        if pid is not None:
            return self.jet.values[pid][: ctx.ncoef].copy()
        cubes, phi = pou.phi_taylor(self.dec.supporting_cubes(x), x, upto)
        degrees = [degree(c) for c in cubes]
        rows = np.empty((ctx.ncoef, len(cubes), self.m))
        for g in dict.fromkeys(degrees):  # one taylor_series call per degree
            cols = [j for j, d in enumerate(degrees) if d == g]
            ids = [self._anchor_id(cubes[j]) for j in cols]
            rows[:, cols] = self.jet.taylor_series(ids, g, x, upto)
        rows *= 0.5  # so that T_C − T_{C₀} is finite wherever F is
        total = rows[:, 0].copy()
        with np.errstate(over="ignore", invalid="ignore"):
            if len(cubes) > 1:
                diffs = rows[:, 1:] - rows[:, :1]
                weights = np.repeat(phi.coeffs[:, 1:], self.m, axis=1)
                terms = taylorarith.mul(
                    taylorarith.TaylorValue(ctx, weights),
                    taylorarith.TaylorValue(ctx, diffs.reshape(ctx.ncoef, -1)),
                )
                for term in np.moveaxis(terms.coeffs.reshape(diffs.shape), 1, 0):  # in cube order
                    total += term
            ders = total * (2.0 * ctx.factorials)[:, None]
        if not np.isfinite(ders).all():
            raise ValueError(f"the derivatives of the extension overflow at {x}")
        return ders

    # -- adaptive degree ------------------------------------------------------

    def _cube_degree(self, cube):
        """
        Largest schedule index whose radius still exceeds d(y_C, A); raises
        ScheduleExhausted when that degree is beyond the stored jet.
        """
        d = self.A.distance(np.asarray(cube.center))
        g = 0
        for i, delta in enumerate(self.schedule, start=1):
            if d < delta:
                g = i
            else:
                break
        if g > self.jet.k:
            raise ScheduleExhausted(g, self.jet.k)
        return g

    def eval_adaptive(self, x):
        """
        F(x) with per-cube polynomial degree taken from the schedule:
        each supporting cube contributes T^{g_C}_{x_C} f(x).
        """
        if self.schedule is None:
            raise ValueError("extension was built without a degree schedule")
        return self._blend(x, 0, self._cube_degree)[0]

    def supporting_count(self, x):
        """Number of cubes with psi_C(x) != 0, which contribute at x
        (locality probe)."""
        x = tuple(float(c) for c in x)
        return len(pou.phi_taylor(self.dec.supporting_cubes(x), x, 0)[0])


def linearity_probe(f, g, a, b, x, k=None, j_max=52):
    """
    ‖Φ(af+bg)(x) − aΦ(f)(x) − bΦ(g)(x)‖_max — zero up to rounding, since
    the extension is linear in the jet.
    """
    combined = Extension(jets.linear_combination(a, f, b, g), k=k, j_max=j_max)
    ext_f = Extension(f, k=k, j_max=j_max)
    ext_g = Extension(g, k=k, j_max=j_max)
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
