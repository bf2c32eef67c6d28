"""
Whitney k-jets on finite point sets.

A jet stores, for every point of a finite set A in R^n and every
multi-index a with |a| <= k, a value in R^m — the candidate mixed partial
derivatives of a C^k function.  The module provides the anchored Taylor
polynomial and remainder of a jet, the order shift and projection, the
jet seminorms (sup of values plus sup of normalized remainder quotients),
a smallness modulus for the remainder condition, and gluing of jets given
on overlapping subsets.

Any finite set is closed, so the remainder condition proper is vacuous in
the limit; the modulus is still reported as a diagnostic.  Values use the
coordinate seminorms q_i(v) = |v_i| and their maximum q_max.
"""

import functools
import math

import numpy as np

from . import multiindex, taylorarith
from .exprlang import VectorExpr


def _power(v, e):
    """v**e for a float v and an int e >= 0; inf past the float range."""
    try:
        return v**e
    except OverflowError:
        return math.inf


class GlueMismatch(ValueError):
    """Pieces disagree on an overlap point beyond tolerance."""


def apply_seminorm(which, v):
    """Apply q_i (`which` an int) or q_max (`which` == "max") to a vector."""
    v = np.asarray(v, dtype=float)
    if which == "max":
        return float(np.max(np.abs(v)))
    return float(abs(v[int(which)]))


class Jet:
    """
    A k-jet on a finite point set.

    Parameters
    ----------
    n, k, m : int
        Domain dimension, jet order, value dimension.
    points : list of (id, coords)
        Point ids (strings) with pairwise distinct coordinates.
    values : dict id -> ndarray of shape (C(n+k,n), m)
        Rows follow the graded-lex multi-index enumeration.
    """

    def __init__(self, n, k, m, points, values):
        self.n = n
        self.k = k
        self.m = m
        self.indices = multiindex.enumerate_upto(n, k)
        self.pos = {a: i for i, a in enumerate(self.indices)}
        self.ids = [pid for pid, _ in points]
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("duplicate point ids")
        self.coords = {pid: tuple(map(float, x)) for pid, x in points}
        xs = list(self.coords.values())
        try:  # checked on the stacked coordinates; a failure is named below
            stacked = np.array(xs)
            clean = stacked.shape == (len(xs), n) and np.isfinite(stacked).all()
        except ValueError:  # points of different dimensions
            clean = False
        if not (clean and len(set(xs)) == len(xs)):
            seen = set()
            for pid, x in self.coords.items():
                if len(x) != n:
                    raise ValueError(f"point {pid} has dimension {len(x)}, expected {n}")
                if not all(math.isfinite(c) for c in x):
                    raise ValueError(f"point {pid} has non-finite coordinates {x}")
                if x in seen:
                    raise ValueError(f"point coordinates {x} appear twice")
                seen.add(x)
        ncoef = len(self.indices)
        self.values = {}
        for pid in self.ids:
            if pid not in values:
                raise ValueError(f"no values for point {pid}")
            arr = np.asarray(values[pid], dtype=float)
            if arr.shape != (ncoef, m):
                raise ValueError(
                    f"values for point {pid} have shape {arr.shape}, expected {(ncoef, m)}"
                )
            self.values[pid] = arr
        if self.ids:
            finite = np.isfinite(np.array(list(self.values.values()))).all(axis=(1, 2))
            if not finite.all():
                pid = self.ids[int(finite.argmin())]
                raise ValueError(f"values for point {pid} are not all finite")

    # -- basic queries ----------------------------------------------------

    def npoints(self):
        return len(self.ids)

    def value(self, pid, alpha):
        """f_alpha at the point with the given id, as an (m,) array."""
        return self.values[pid][self.pos[tuple(alpha)]]

    def point_array(self):
        return np.array([self.coords[pid] for pid in self.ids])

    def diameter(self, ids=None):
        """Largest pairwise distance of the selected points."""
        ids = list(ids) if ids is not None else self.ids
        pts = np.array([self.coords[p] for p in ids])
        d = 0.0
        for i in range(len(pts) - 1):
            d = max(d, float(np.max(np.linalg.norm(pts[i + 1 :] - pts[i], axis=1))))
        return d

    # -- construction -----------------------------------------------------

    @classmethod
    def from_expr(cls, f, points, k):
        """
        Induce a jet from a smooth vector expression: f_alpha(p) is the exact
        mixed partial of f at p, obtained through Taylor arithmetic.  Each
        component is expanded at all the points in one series evaluation,
        with the bits of one-point calls.  A failing batch is expanded again
        one point at a time (:func:`taylorarith._run_batch`), so it raises
        what its first failing point raises alone.
        """
        if isinstance(f, (list, tuple)):
            raise TypeError("f must be a VectorExpr; parse the components first")
        rows = taylorarith._run_batch(lambda b: _induced(f, b, k), list(points)) if points else []
        return cls(f.n, k, f.m, points, dict(zip([pid for pid, _ in points], rows)))

    # -- Taylor polynomial and remainder -----------------------------------

    def taylor_poly(self, y_id, l, x):
        """
        The order-l Taylor polynomial anchored at the stored point y,
        evaluated at an arbitrary point x: sum over |a| <= l of
        (x-y)^a / a! * f_a(y), added in graded-lex order.
        """
        return self.taylor_series([y_id], l, x, 0)[0, 0]

    def taylor_series(self, y_ids, l, x, upto):
        """
        T = T^l_y f, the order-l Taylor polynomial anchored at the stored
        point y, expanded at x, for every y of `y_ids` (x one point, or one
        point per anchor): the Taylor-normalized rows d^b T(x) / b! for
        |b| <= upto <= l, as a (C(n+upto, n), len(y_ids), m) array in
        graded-lex order of b.

        The rows come from the shift identity
            d^b T^l_y f(x) = sum over |g| <= l - |b| of (x-y)^g / g! * f_{b+g}(y):
        the pair table of ``taylorarith.context(n, l)`` lists every (b, g)
        with |b| + |g| <= l, and its pairs with |b| <= upto gather the
        monomials (x-y)^g / g! against the values f_{b+g}(y).  The
        monomials are products of the powers (x_i-y_i)^e, each taken by the
        float power of Python, so every anchor's row 0 keeps the bits of
        the plain graded-lex sum, and every column has the bits of a
        one-anchor call.  A monomial, term or row beyond the float range is
        a ValueError naming the first anchor whose column it leaves
        non-finite.
        """
        if l > self.k:
            raise ValueError(f"order {l} exceeds jet order {self.k}")
        if not 0 <= upto <= l:
            raise ValueError(f"derivative order {upto} outside 0..{l}")
        ctx = taylorarith.context(self.n, l)
        h = np.asarray(x, dtype=float) - np.array([self.coords[y] for y in y_ids])
        powers = [_power(v, e) for v in h.ravel().tolist() for e in range(l + 1)]
        powers = np.array(powers).reshape(len(y_ids), self.n, l + 1)
        rows = multiindex.count_upto(self.n, upto)
        p = int(np.searchsorted(ctx.pair_i, rows))  # the pairs with |b| <= upto
        values = np.stack([self.values[y] for y in y_ids], axis=1)
        width = len(y_ids) * self.m
        keys = (ctx.pair_i[:p, None] * width + np.arange(width)).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            mono = powers[:, 0, ctx.exponents[:, 0]]
            for i in range(1, self.n):
                mono = mono * powers[:, i, ctx.exponents[:, i]]
            mono = mono / ctx.factorials
            terms = mono.T[ctx.pair_j[:p], :, None] * values[ctx.pair_t[:p]]
            out = np.bincount(keys, weights=terms.ravel(), minlength=rows * width)
            out = out.reshape(rows, len(y_ids), self.m) / ctx.factorials[:rows, None, None]
        if not np.isfinite(out).all():
            j = int(np.isfinite(out).all(axis=(0, 2)).argmin())
            at = np.broadcast_to(np.asarray(x, dtype=float), h.shape)[j]
            raise ValueError(
                f"the order-{l} Taylor polynomial anchored at {self.coords[y_ids[j]]} "
                f"overflows at {tuple(at.tolist())}"
            )
        return out

    def remainder(self, y_id, l, x_id):
        """f_0(x) - T^l_y f(x) for stored points x, y."""
        return self.value(x_id, (0,) * self.n) - self.taylor_poly(
            y_id, l, self.coords[x_id]
        )

    # -- structural maps ----------------------------------------------------

    def shift(self, alpha):
        """
        The shifted jet whose beta-value is f_{alpha+beta}, of order
        k - |alpha|.  Shifting by alpha models differentiating the jet.
        """
        alpha = tuple(alpha)
        if sum(alpha) > self.k:
            raise ValueError(f"|{alpha}| exceeds jet order {self.k}")
        knew = self.k - sum(alpha)
        new_indices = multiindex.enumerate_upto(self.n, knew)
        rows = [self.pos[multiindex.add(alpha, b)] for b in new_indices]
        values = {pid: self.values[pid][rows] for pid in self.ids}
        return Jet(self.n, knew, self.m, [(p, self.coords[p]) for p in self.ids], values)

    def project(self, l):
        """Truncate to order l <= k (drop the higher-order values)."""
        if l > self.k:
            raise ValueError(f"order {l} exceeds jet order {self.k}")
        ncoef = multiindex.count_upto(self.n, l)
        values = {pid: self.values[pid][:ncoef] for pid in self.ids}
        return Jet(self.n, l, self.m, [(p, self.coords[p]) for p in self.ids], values)

    # -- seminorms ----------------------------------------------------------

    def seminorm_prime(self, l, q="max", K=None):
        """max over |a| <= l and points of K of q(f_a)."""
        if l > self.k:
            raise ValueError(f"order {l} exceeds jet order {self.k}")
        K = list(K) if K is not None else self.ids
        ncoef = multiindex.count_upto(self.n, l)
        out = 0.0
        for pid in K:
            for row in self.values[pid][:ncoef]:
                out = max(out, apply_seminorm(q, row))
        return out

    def seminorm_dprime(self, l, q="max", K=None):
        """
        max over |a| <= l and distinct points x != y of K of
        q(R^{l-|a|}_y (shifted jet)(x)) / |x-y|^{l-|a|}; 0 when K has
        fewer than two points.
        """
        if l > self.k:
            raise ValueError(f"order {l} exceeds jet order {self.k}")
        K = list(K) if K is not None else self.ids
        if len(K) < 2:
            return 0.0
        out = 0.0
        shifted = {}
        for a in self.indices:
            if sum(a) > l:
                break
            shifted[a] = self.shift(a)
        for a, sj in shifted.items():
            la = l - sum(a)
            for y_id in K:
                for x_id in K:
                    if x_id == y_id:
                        continue
                    rem = sj.remainder(y_id, la, x_id)
                    dist = math.dist(self.coords[x_id], self.coords[y_id])
                    out = max(out, apply_seminorm(q, rem) / dist**la)
        return out

    def seminorm(self, l, q="max", K=None):
        """The jet seminorm: sup of values plus sup of remainder quotients."""
        return self.seminorm_prime(l, q, K) + self.seminorm_dprime(l, q, K)

    def whitney_modulus(self, l, delta):
        """
        The remainder-condition diagnostic: the largest normalized remainder
        quotient (with q = q_max) over point pairs at distance < delta.
        Returns 0 when no pair is that close.
        """
        if l > self.k:
            raise ValueError(f"order {l} exceeds jet order {self.k}")
        if delta <= 0:
            raise ValueError("delta must be positive")
        out = 0.0
        for a in self.indices:
            if sum(a) > l:
                break
            sj = self.shift(a)
            la = l - sum(a)
            for y_id in self.ids:
                for x_id in self.ids:
                    if x_id == y_id:
                        continue
                    dist = math.dist(self.coords[x_id], self.coords[y_id])
                    if 0.0 < dist < delta:
                        rem = sj.remainder(y_id, la, x_id)
                        out = max(out, apply_seminorm("max", rem) / dist**la)
        return out

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        pts = []
        for pid in self.ids:
            vals = {
                multiindex.fmt(a): [float(v) for v in self.values[pid][i]]
                for i, a in enumerate(self.indices)
            }
            pts.append({"id": pid, "x": list(self.coords[pid]), "values": vals})
        return {"dim": self.n, "order": self.k, "outdim": self.m, "points": pts}

    @classmethod
    def from_dict(cls, d):
        """
        A jet from its file form.  The key layout of a point (each index's
        position among its keys, the last spelling of an index winning) is
        resolved once per distinct tuple of key spellings, and the values
        of all points become one (N, ncoef, m) array; errors name the first
        bad point, in the order of the per-point checks.
        """
        n, k, m = int(d["dim"]), int(d["order"]), int(d["outdim"])
        indices = multiindex.enumerate_upto(n, k)
        parse = functools.cache(lambda key: multiindex.parse(key, n))  # once per spelling
        layouts = {}
        points, rows = [], []
        try:
            for p in d["points"]:
                pid = str(p["id"])
                points.append((pid, tuple(map(float, p["x"]))))
                vals = p["values"]
                keys = tuple(vals)
                if keys not in layouts:
                    got = {parse(key): i for i, key in enumerate(keys)}
                    missing = [a for a in indices if a not in got]
                    if missing:
                        raise ValueError(
                            f"point {pid} is missing values for indices {missing[:4]}"
                        )
                    pos = [got[a] for a in indices]
                    layouts[keys] = None if pos == list(range(len(keys))) else pos
                pos = layouts[keys]  # None: the keys are the indices in order
                v = list(vals.values())
                rows.append(v if pos is None else [v[i] for i in pos])
        except Exception:
            for (pid, _), r in zip(points, rows):  # an earlier point's values fail first
                _point_values(pid, r, indices, m)
            raise
        try:
            values = np.array(rows, dtype=float)
        except (ValueError, TypeError):
            values = [_point_values(pid, r, indices, m) for (pid, _), r in zip(points, rows)]
        return cls(n, k, m, points, dict(zip([pid for pid, _ in points], values)))


def _induced(f, points, k):
    """The jet rows of the vector expression f at the points, as a
    (len(points), ncoef, m) array; a point of another dimension than f's is
    a ValueError naming it."""
    for pid, x in points:
        if len(x) != f.n:
            raise ValueError(f"point {pid} has dimension {len(x)}, expected {f.n}")
    # series that overflow are rejected by the finiteness check of Jet
    with np.errstate(over="ignore", invalid="ignore"):
        tvs = f.eval_taylor([x for _, x in points], k)
        return np.stack([tv.coeffs.T * tv.ctx.factorials for tv in tvs], axis=2)


def _point_values(pid, rows, indices, m):
    """One point's values as an array, or a ValueError naming the first
    malformed row."""
    try:
        return np.array(rows, dtype=float)
    except ValueError:
        for a, row in zip(indices, rows):
            if not (isinstance(row, list) and len(row) == m
                    and all(isinstance(v, (int, float)) for v in row)):
                raise ValueError(
                    f"values for point {pid} at index {multiindex.fmt(a)} "
                    f"are {row!r}, expected a list of outdim = {m} numbers"
                ) from None
        raise


def glue(pieces, tol=1e-12):
    """
    Merge jets given on (possibly overlapping) id sets into one jet.

    `pieces` is a list of (jet, ids) with ids a subset of the jet's points.
    On shared ids all pieces must agree on every value to within `tol`
    (absolute, per coordinate) and carry matching point coordinates; the
    result restricts back to each piece.
    """
    if not pieces:
        raise ValueError("nothing to glue")
    first = pieces[0][0]
    n, k, m = first.n, first.k, first.m
    points, values, owner = [], {}, {}
    for jet, ids in pieces:
        if (jet.n, jet.k, jet.m) != (n, k, m):
            raise ValueError("pieces have mismatched shape (n, k, m)")
        for pid in ids:
            if pid not in jet.coords:
                raise KeyError(f"piece does not contain point id {pid!r}")
            if pid in values:
                if jet.coords[pid] != owner[pid]:
                    raise GlueMismatch(
                        f"point {pid} has conflicting coordinates "
                        f"{jet.coords[pid]} vs {owner[pid]}"
                    )
                dev = float(np.max(np.abs(jet.values[pid] - values[pid])))
                if dev > tol:
                    raise GlueMismatch(
                        f"pieces disagree at point {pid}: max deviation {dev:.3e} > {tol:.3e}"
                    )
            else:
                points.append((pid, jet.coords[pid]))
                values[pid] = jet.values[pid]
                owner[pid] = jet.coords[pid]
    return Jet(n, k, m, points, values)


def linear_combination(a, f, b, g):
    """a*f + b*g for jets on the same points (same ids and coordinates)."""
    if (f.n, f.k, f.m) != (g.n, g.k, g.m):
        raise ValueError("jets have mismatched shape")
    if f.coords != g.coords:
        raise ValueError("jets live on different point sets")
    values = {pid: a * f.values[pid] + b * g.values[pid] for pid in f.ids}
    return Jet(f.n, f.k, f.m, [(p, f.coords[p]) for p in f.ids], values)
