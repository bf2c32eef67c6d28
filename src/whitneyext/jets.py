"""
Whitney k-jets on finite point sets.

A jet stores, for every point of a finite set A in R^n and every
multi-index a with |a| <= k, a value in R^m — the candidate mixed partial
derivatives of a C^k function.  The module provides the anchored Taylor
polynomial and remainder of a jet, the order shift and projection, the
jet seminorms (sup of values plus sup of normalized remainder quotients)
and a smallness modulus for the remainder condition, both maxima of one
table of remainder quotients over point pairs, and gluing of jets given
on overlapping subsets.

Any finite set is closed, so the remainder condition proper is vacuous in
the limit; the modulus is still reported as a diagnostic.  Values use the
coordinate seminorms q_i(v) = |v_i| and their maximum q_max.
"""

import functools
import itertools
import math
import sys
import types

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

    The jet is held as two stacked arrays in the order of ``ids``: ``X``,
    the (N, n) points, and ``F``, the (N, C(n+k,n), m) values; ``row`` maps
    an id to its row.  The read-only mappings ``coords`` (id -> tuple of
    floats) and ``values`` (id -> a view of the point's row of F) are built
    from them on first use.
    """

    def __init__(self, n, k, m, points, values):
        points = list(points)
        ids = [pid for pid, _ in points]
        self._set(n, k, m, ids, [x for _, x in points],
                  [values[pid] if pid in values else None for pid in ids])

    @classmethod
    def _from_arrays(cls, n, k, m, ids, xs, vs):
        """The jet on the ids with points xs and values vs, in row order,
        through the checks of ``__init__``."""
        jet = cls.__new__(cls)
        jet._set(n, k, m, ids, xs, vs)
        return jet

    def _set(self, n, k, m, ids, xs, vs):
        """
        Hold the points xs and values vs of the ids, each an array stacked in
        row order or a sequence of per-point entries that stacks to one (an
        entry of vs is None when its point has no values).  Every check runs
        once, on the whole arrays; when one fails, the per-point checks of
        :func:`_name_bad_point` name the first failing point, as
        ``taylorarith._run_batch`` does for a batch.
        """
        self.n, self.k, self.m = n, k, m
        self.indices = multiindex.enumerate_upto(n, k)
        self.pos = {a: i for i, a in enumerate(self.indices)}
        self.ids = list(ids)
        self.row = {pid: r for r, pid in enumerate(self.ids)}
        N, ncoef = len(self.ids), len(self.indices)
        try:
            X = np.asarray(xs, dtype=float) if N else np.empty((0, n))
            # row-major, as the hot gathers take whole rows of F
            F = np.ascontiguousarray(vs, dtype=float) if N else np.empty((0, ncoef, m))
            if not (len(self.row) == N and X.shape == (N, n) and F.shape == (N, ncoef, m)
                    and np.isfinite(X).all() and np.isfinite(F).all() and not _repeats(X)):
                raise ValueError("the stacked jet fails a check")
        except (TypeError, ValueError):
            _name_bad_point(n, ncoef, m, self.ids, xs, vs)
            raise
        self.X, self.F = X, F

    @functools.cached_property
    def coords(self):
        return types.MappingProxyType(dict(zip(self.ids, map(tuple, self.X.tolist()))))

    @functools.cached_property
    def values(self):
        return types.MappingProxyType(dict(zip(self.ids, self.F)))

    # -- basic queries ----------------------------------------------------

    def npoints(self):
        return len(self.ids)

    def value(self, pid, alpha):
        """f_alpha at the point with the given id, as an (m,) array."""
        return self.F[self.row[pid], self.pos[tuple(alpha)]]

    def diameter(self, ids=None):
        """Largest pairwise distance of the selected points; a distance
        beyond the float range is a ValueError naming its pair.  Where the
        squared differences overflow or fall below 2^-1000 and lose bits,
        ``math.dist``, which scales, measures the pairs."""
        pts = self.X if ids is None else self.X[[self.row[p] for p in ids]]
        d = 0.0
        with np.errstate(over="ignore"):
            for i in range(len(pts) - 1):
                d = max(d, float(np.max(np.linalg.norm(pts[i + 1 :] - pts[i], axis=1))))
        if len(pts) > 1 and not 2.0**-500 <= d < math.inf:
            pairs = itertools.combinations(map(tuple, pts.tolist()), 2)
            d, y, x = max((math.dist(y, x), y, x) for y, x in pairs)
            if d == math.inf:
                raise ValueError(f"the distance between points {y} and {x} is beyond the float range")
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
        points = list(points)
        rows = taylorarith._run_batch(lambda b: _induced(f, b, k), points) if points else []
        ids, xs = [pid for pid, _ in points], [x for _, x in points]
        return cls._from_arrays(f.n, k, f.m, ids, xs, rows)

    # -- Taylor polynomial and remainder -----------------------------------

    def taylor_poly(self, y_id, l, x):
        """
        The order-l Taylor polynomial anchored at the stored point y,
        evaluated at an arbitrary point x: sum over |a| <= l of
        (x-y)^a / a! * f_a(y), added in graded-lex order.
        """
        return self.taylor_series([self.row[y_id]], l, x, 0)[0, 0]

    def taylor_series(self, rows, l, x, upto):
        """
        T = T^l_y f, the order-l Taylor polynomial anchored at the stored
        point y, expanded at x, for the point y of every row of `rows` (x one
        point, or one point per anchor): the Taylor-normalized rows
        d^b T(x) / b! for |b| <= upto <= l, as a (C(n+upto, n), len(rows), m)
        array in graded-lex order of b.

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
        h = np.asarray(x, dtype=float) - self.X.take(rows, axis=0)
        hs, es = h.ravel().tolist(), range(l + 1)
        try:
            powers = [v**e for v in hs for e in es]
        except OverflowError:
            powers = [_power(v, e) for v in hs for e in es]
        powers = np.array(powers).reshape(len(rows), self.n, l + 1)
        width = len(rows) * self.m
        nrows, p, keys = ctx.shift_keys(upto, width)  # p: the pairs with |b| <= upto
        # contiguous, as gathering rows from the transposed view is slower
        values = np.ascontiguousarray(self.F.take(rows, axis=0).transpose(1, 0, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            mono = powers[:, 0].take(ctx.exponents[:, 0], axis=1)
            for i in range(1, self.n):
                mono = mono * powers[:, i].take(ctx.exponents[:, i], axis=1)
            mono = mono / ctx.factorials
            terms = mono.T.take(ctx.pair_j[:p], axis=0)[:, :, None] * values.take(ctx.pair_t[:p], axis=0)
            out = np.bincount(keys, weights=terms.ravel(), minlength=nrows * width)
            out = out.reshape(nrows, len(rows), self.m) / ctx.factorials[:nrows, None, None]
        if not np.isfinite(out).all():
            j = int(np.isfinite(out).all(axis=(0, 2)).argmin())
            at = np.broadcast_to(np.asarray(x, dtype=float), h.shape)[j]
            raise ValueError(
                f"the order-{l} Taylor polynomial anchored at {tuple(self.X[rows[j]].tolist())} "
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
        return Jet._from_arrays(self.n, knew, self.m, self.ids, self.X, self.F[:, rows])

    def project(self, l):
        """Truncate to order l <= k (drop the higher-order values)."""
        if l > self.k:
            raise ValueError(f"order {l} exceeds jet order {self.k}")
        ncoef = multiindex.count_upto(self.n, l)
        return Jet._from_arrays(self.n, l, self.m, self.ids, self.X, self.F[:, :ncoef])

    # -- seminorms ----------------------------------------------------------

    def seminorm_prime(self, l, q="max", K=None):
        """max over |a| <= l and points of K of q(f_a)."""
        if l > self.k:
            raise ValueError(f"order {l} exceeds jet order {self.k}")
        F = self.F[:, : multiindex.count_upto(self.n, l)]
        F = F if K is None else F[[self.row[pid] for pid in K]]
        return float(np.abs(F if q == "max" else F[..., int(q)]).max(initial=0.0))

    def seminorm_dprime(self, l, q="max", K=None):
        """max over |a| <= l and distinct points x != y of K of
        q(R^{l-|a|}_y (shifted jet)(x)) / |x-y|^{l-|a|}, the maximum of the
        remainder table; 0 when K has fewer than two points."""
        if l > self.k:
            raise ValueError(f"order {l} exceeds jet order {self.k}")
        rows = range(len(self.ids)) if K is None else [self.row[pid] for pid in K]
        return float(self._quotients(l, q, rows)[0].max(initial=0.0))

    def seminorm(self, l, q="max", K=None):
        """The jet seminorm: sup of values plus sup of remainder quotients."""
        return self.seminorm_prime(l, q, K) + self.seminorm_dprime(l, q, K)

    def whitney_modulus(self, l, delta):
        """The remainder-condition diagnostic: the largest normalized remainder
        quotient (q = q_max) over point pairs at distance < delta, from the
        remainder table of those pairs; 0 when no pair is that close."""
        if l > self.k:
            raise ValueError(f"order {l} exceeds jet order {self.k}")
        if delta <= 0:
            raise ValueError("delta must be positive")
        return float(self._quotients(l, "max", range(len(self.ids)), delta)[0].max(initial=0.0))

    def remainder_maxima(self, l, deltas):
        """``seminorm_dprime(l)`` and the list of ``whitney_modulus(l, delta)``
        for the deltas, from one remainder table of all pairs: a modulus is
        its maximum over the pairs at distance below delta."""
        if l > self.k:
            raise ValueError(f"order {l} exceeds jet order {self.k}")
        table, dist = self._quotients(l, "max", range(len(self.ids)))
        if min(deltas, default=1.0) <= 0:
            raise ValueError("delta must be positive")
        moduli = [float(table[dist < delta].max(initial=0.0)) for delta in deltas]
        return float(table.max(initial=0.0)), moduli

    def _quotients(self, l, q, rows, delta=None):
        """
        The remainder table: for the ordered pairs (y, x) of distinct `rows`
        (y outer, x inner) at distances below delta, if given, the largest
        q(R^{l-|a|}_y (shift_a f)(x)) / |x-y|^{l-|a|} over |a| <= l, and
        the distances (``math.dist``) of those pairs, as two arrays.  The
        pairs are formed by blocks of anchors whose series hold about 2^18
        numbers, so that a pair keeps only its two results; per block and
        a, one taylor_series call expands each anchor y at its x with the
        bits of a one-pair call.  The errors are those of a per-pair loop
        with a outer: a distance, or its float power l, out of range is a
        ValueError naming the first such pair, and else the first failing
        Taylor polynomial of the least failing a raises.
        """
        rows = np.asarray(rows, dtype=int)
        P, N = self.X.tolist(), len(rows)
        shifts = [(l - sum(a), self.shift(a)) for a in self.indices[: multiindex.count_upto(self.n, l)]]
        by = max(1, 2**18 // (len(self.indices) * self.m * max(N, 1)))  # anchors per block
        out, dists, size = np.zeros(N * N), np.empty(N * N), 0  # the pairs kept so far
        failed = None  # (a's position, error) of the least failing a
        for s in range(0, N, by):
            ys, xs = np.repeat(rows[s : s + by], N), np.tile(rows, len(rows[s : s + by]))
            dist = np.array([math.dist(P[x], P[y]) for y, x in zip(ys.tolist(), xs.tolist())])
            keep = (ys != xs) if delta is None else (0.0 < dist) & (dist < delta)
            ys, xs, dist = ys[keep], xs[keep], dist[keep]
            # the powers 0 .. l; for l < 0, which takes no shift, the power 0
            power = [np.array([_power(d, e) for d in dist.tolist()]) for e in range(max(l, 0) + 1)]
            bad = ~((dist < math.inf) & (0.0 < power[-1]) & (power[-1] < math.inf))
            if bad.any():
                j = int(bad.argmax())
                y, x = (tuple(self.X[r[j]].tolist()) for r in (ys, xs))
                what = "" if dist[j] == math.inf else f" to the power {l}"
                raise ValueError(f"the distance between points {y} and {x}{what} is beyond the float range")
            if not len(ys):
                continue
            block = slice(size, size + len(ys))
            dists[block], size = dist, block.stop
            for i, (la, sj) in enumerate(shifts[: failed[0] if failed else len(shifts)]):
                try:
                    T = sj.taylor_series(ys, la, self.X.take(xs, axis=0), 0)[0]
                except ValueError as e:  # a later block may fail at an earlier a
                    failed = (i, e)
                    break
                with np.errstate(over="ignore"):  # a remainder or quotient beyond the float range is inf
                    r = np.abs(self.F[xs, i] - T)
                    r = r.max(axis=1) if q == "max" else r[:, int(q)]
                    out[block] = np.maximum(out[block], r / power[la])
        if failed:
            raise failed[1]
        return out[:size], dists[:size]

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        keys = [multiindex.fmt(a) for a in self.indices]
        pts = [
            {"id": pid, "x": x, "values": dict(zip(keys, rows))}
            for pid, x, rows in zip(self.ids, self.X.tolist(), self.F.tolist())
        ]
        return {"dim": self.n, "order": self.k, "outdim": self.m, "points": pts}

    @classmethod
    def from_dict(cls, d):
        """
        A jet from its file form.  In the usual case every point spells the
        same keys and each value entry is a list of outdim = m numbers: the
        values are then converted in one flat pass and put in index order by
        the key layout (each index's position among the keys, the last
        spelling of an index winning), and the coordinates, when each "x" is
        a list of dim = n numbers, in another.  Any other jet, mixed key
        layouts included, is read one point at a time (:func:`_read_points`),
        so that a malformed jet is a ValueError naming the first bad point
        and field, in the order of the per-point checks.
        """
        if not isinstance(d, dict):
            raise ValueError(f"the jet is {_kind(d)}, expected an object")
        n, k, m = _integer(d, "dim", "the jet"), _order(d), _integer(d, "outdim", "the jet")
        indices = multiindex.enumerate_upto(n, k)
        parse = functools.cache(lambda key: multiindex.parse(key, n))  # once per spelling
        layouts = {}

        def layout(keys, pid):
            """The position of each index among the keys, or None when the
            keys are the indices in order."""
            if keys not in layouts:
                got = {parse(key): i for i, key in enumerate(keys)}
                missing = [a for a in indices if a not in got]
                if missing:
                    raise ValueError(f"point {pid} is missing values for indices {missing[:4]}")
                pos = [got[a] for a in indices]
                layouts[keys] = None if pos == list(range(len(keys))) else pos
            return layouts[keys]

        try:
            pts = d["points"]
            ids = [str(p["id"]) for p in pts]
            xs, vals = [p["x"] for p in pts], [p["values"] for p in pts]
            keys = tuple(vals[0]) if vals else ()
            pos = layout(keys, ids[0]) if vals else None
            # lists only, here and below: a string or an object would be
            # read as its characters or keys ("" or {} as no points)
            if isinstance(pts, list) and all(tuple(v) == keys for v in vals):
                rows = [row for v in vals for row in v.values()]
                if set(map(type, rows)) <= {list} and set(map(len, rows)) <= {m}:
                    F = _flat(rows, (len(ids), len(keys), m))
                    if all(type(x) is list and len(x) == n for x in xs):
                        xs = _flat(xs, (len(ids), n))
                    return cls._from_arrays(n, k, m, ids, xs, F if pos is None else F[:, pos])
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError):
            pass
        return cls._from_arrays(n, k, m, *_read_points(d, n, m, indices, layout))


def _flat(lists, shape):
    """The equal-length lists of numbers as one float array of the shape."""
    return np.fromiter(itertools.chain.from_iterable(lists), float, math.prod(shape)).reshape(shape)


def _repeats(X):
    """Whether two rows of X are equal coordinate by coordinate (-0.0 equals
    0.0): a lexicographic sort puts equal rows next to each other."""
    if len(X) < 2:
        return False
    X = X[np.lexsort(X.T[::-1])]
    return bool((X[1:] == X[:-1]).all(axis=1).any())


def _name_bad_point(n, ncoef, m, ids, xs, vs):
    """
    The checks of a jet one point at a time, in their order: duplicate ids,
    then each point's dimension, finiteness and repetition, then each
    point's values (present, of shape (ncoef, m)), then their finiteness.
    The first that fails is a ValueError naming its point; the function
    returns when none fails.
    """
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate point ids")
    seen = set()
    for pid, x in zip(ids, [tuple(map(float, x)) for x in xs]):
        if len(x) != n:
            raise ValueError(f"point {pid} has dimension {len(x)}, expected {n}")
        if not all(math.isfinite(c) for c in x):
            raise ValueError(f"point {pid} has non-finite coordinates {x}")
        if x in seen:
            raise ValueError(f"point coordinates {x} appear twice")
        seen.add(x)
    arrays = []
    for pid, v in zip(ids, vs):
        if v is None:
            raise ValueError(f"no values for point {pid}")
        arrays.append(np.asarray(v, dtype=float))
        if arrays[-1].shape != (ncoef, m):
            raise ValueError(
                f"values for point {pid} have shape {arrays[-1].shape}, expected {(ncoef, m)}"
            )
    for pid, v in zip(ids, arrays):
        if not np.isfinite(v).all():
            raise ValueError(f"values for point {pid} are not all finite")


def _kind(v):
    """What a value decoded from JSON is, for messages."""
    kinds = {dict: "an object", list: "a list", str: "a string", bool: "a boolean"}
    return "null" if v is None else kinds.get(type(v), "a number")


def _integer(d, field, owner):
    """The integer field of the object `owner` of a document; a missing field
    or a value int() does not take is a ValueError."""
    v = _field(d, field, owner)
    try:
        return int(v)
    except TypeError:
        raise ValueError(f'"{field}" is {_kind(v)}, expected an integer') from None


def _field(d, field, owner):
    """The field of the object `owner` of a document; a missing field is a
    ValueError naming both."""
    try:
        return d[field]
    except KeyError:
        raise ValueError(f'{owner} has no "{field}"') from None


def _strings(d, field, owner):
    """The field of the object `owner` of a document that lists expressions;
    anything but a list of strings is a ValueError naming both."""
    v = _field(d, field, owner)
    if not (isinstance(v, list) and all(isinstance(e, str) for e in v)):
        raise ValueError(f'"{field}" of {owner} is {v!r}, expected a list of strings')
    return v


def _order(d):
    """The "order" field of a jet file, at most ``taylorarith.MAX_ORDER``,
    the largest order of a series context."""
    k = _integer(d, "order", "the jet")
    if k > taylorarith.MAX_ORDER:
        raise ValueError(f"order {k} exceeds the largest supported jet order {taylorarith.MAX_ORDER}")
    return k


def _read_points(d, n, m, indices, layout):
    """
    The points of a jet file read one at a time: their ids, coordinate
    tuples and value arrays, for ``Jet._from_arrays``.  The first malformed
    point is a ValueError naming it and its field; the values of an earlier
    point fail first.
    """
    if "points" not in d:
        raise ValueError('the jet has no "points"')
    if not isinstance(d["points"], list):
        raise ValueError(f'"points" is {_kind(d["points"])}, expected a list')
    ids, xs, rows = [], [], []
    try:
        for i, p in enumerate(d["points"]):
            if not isinstance(p, dict):
                raise ValueError(f"points[{i}] is {_kind(p)}, expected an object")
            if "id" not in p:
                raise ValueError(f'points[{i}] has no "id"')
            pid = str(p["id"])
            if "x" not in p:
                raise ValueError(f'point {pid} has no "x"')
            try:
                x = tuple(map(float, p["x"])) if isinstance(p["x"], list) else None
            except (OverflowError, TypeError, ValueError):
                x = None
            if x is None:
                raise ValueError(
                    f'"x" of point {pid} is {p["x"]!r}, expected a list of dim = {n} numbers'
                )
            vals = p.get("values")
            if not isinstance(vals, dict):
                raise ValueError(
                    f'point {pid} has no "values"' if "values" not in p
                    else f'"values" of point {pid} is {_kind(vals)}, expected an object'
                )
            pos = layout(tuple(vals), pid)
            v = list(vals.values())
            ids.append(pid)
            xs.append(x)
            rows.append(v if pos is None else [v[i] for i in pos])
    except ValueError:
        for pid, r in zip(ids, rows):  # an earlier point's values fail first
            _point_values(pid, r, indices, m)
        raise
    return ids, xs, [_point_values(pid, r, indices, m) for pid, r in zip(ids, rows)]


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
    except (OverflowError, TypeError, ValueError):
        for a, row in zip(indices, rows):
            if not (isinstance(row, list) and len(row) == m and all(
                isinstance(v, float) or isinstance(v, int) and abs(v) <= sys.float_info.max
                for v in row
            )):
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
    result restricts back to each piece.  Its rows are taken from each
    piece's arrays, in the order the ids first appear.
    """
    if not pieces:
        raise ValueError("nothing to glue")
    first = pieces[0][0]
    n, k, m = first.n, first.k, first.m
    ids, parts, owner = [], [], {}  # owner: id -> (jet, row)
    for jet, piece_ids in pieces:
        if (jet.n, jet.k, jet.m) != (n, k, m):
            raise ValueError("pieces have mismatched shape (n, k, m)")
        rows = []
        for pid in piece_ids:
            r = jet.row.get(pid)
            if r is None:
                raise KeyError(f"piece does not contain point id {pid!r}")
            if pid in owner:
                other, s = owner[pid]
                if (jet.X[r] != other.X[s]).any():
                    raise GlueMismatch(
                        f"point {pid} has conflicting coordinates "
                        f"{tuple(jet.X[r].tolist())} vs {tuple(other.X[s].tolist())}"
                    )
                dev = float(np.max(np.abs(jet.F[r] - other.F[s])))
                if dev > tol:
                    raise GlueMismatch(
                        f"pieces disagree at point {pid}: max deviation {dev:.3e} > {tol:.3e}"
                    )
            else:
                owner[pid] = (jet, r)
                ids.append(pid)
                rows.append(r)
        parts.append((jet, rows))
    X = np.concatenate([jet.X[rows] for jet, rows in parts])
    F = np.concatenate([jet.F[rows] for jet, rows in parts])
    return Jet._from_arrays(n, k, m, ids, X, F)


def linear_combination(a, f, b, g):
    """a*f + b*g for jets on the same points (same ids and coordinates)."""
    if (f.n, f.k, f.m) != (g.n, g.k, g.m):
        raise ValueError("jets have mismatched shape")
    if f.coords != g.coords:
        raise ValueError("jets live on different point sets")
    F = a * f.F + b * g.F[[g.row[pid] for pid in f.ids]]
    return Jet._from_arrays(f.n, f.k, f.m, f.ids, f.X, F)
