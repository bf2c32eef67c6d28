"""
Whitney cube decomposition of R^n \\ A.

The complement of a non-empty closed set A is tiled by dyadic cubes whose
side length is comparable to their distance to A: a cube C of level j
(side 2^-j) belongs to the family W exactly when d(C, A) >= 4*sqrt(n)/2^j
and no coarser dyadic ancestor of C satisfies its own threshold.  Level 0
is the coarsest level used, so all far-field cubes have side 1.

W is infinite, so it is never materialized: the cube containing a query
point is resolved lazily from the point's dyadic ancestor chain
(:meth:`Decomposition.locate`), which depends only on the point and A.
Geometric consequences used elsewhere: touching cubes differ by at most
one level, a cube's distance to A at level j >= 1 is below 10*sqrt(n)/2^j,
and the enlarged boxes D_C (sup-norm radius (3/4) * side around the
center) of two cubes overlap exactly when the cubes touch.

Qualification is inherited downward: a child lies inside its parent, so
it is no nearer A, while its threshold is half the parent's.  The
qualifying cubes of an ancestor chain are thus all those from some level
on, and a cube is in W exactly when it qualifies and its parent does not
(distances are monotone rounded operations on exact dyadic bounds, so the
computed verdicts inherit too).  The level-j ancestor C of x has
d(x,A) - sqrt(n)/2^j <= d(C,A) <= d(x,A), so the home level of x (the
level of its cube in W) is one of three consecutive levels that d(x,A)
gives (`Decomposition._start_level` states and proves the bound).
A cube C of side s has x in D_C exactly when C meets the open box
x ± s/4; such cubes touch the cube of W holding x, so they lie at most one
level above or below it.

A closed set is the union of closed boxes B_i = [lo_i, hi_i], the rows of
two (N, n) arrays; a point p is the zero-width box [p, p].  The gap of a
box [lo, hi] to B_i is max(0, lo_i - hi, lo - hi_i) per axis, and their
distance its norm; between points the gap is exactly |p - y|.  A query's
cubes are measured in two array passes.  ``A.reach(x)`` checks the query
and measures d = d(x,A) from the squared distances d(x, B_i)^2 of all
rows, computed once.  Pass 1 stacks the ancestors of x on the levels
`_start_level` .. + 2 and measures their distances to A at once; the home
level is the first that qualifies, and where none does, the block has
reached j_max and the query raises ResolutionExceeded.  Pass 2 lists, on
the levels home - 1 .. home + 1, the cubes whose D_C holds x and measures
them and their parents at once; the anchors (rows of A) of the cubes
returned come from the same scan.  A pass scans only the rows with
d(x, B_i) <= d + 2 rho, rho the largest distance from x to the farthest
point of any box of its stack.  For one box C of farthest-point distance rho_C <= rho, q
a point of A nearest x, B a row nearest C and (b, c) a nearest pair of B x
C: d(x,B) <= |b - c| + |c - x| <= d(q,C) + rho_C <= d + 2 rho_C; for a row
B nearest a centre y of C (|y - x| <= rho_C): d(x,B) <= d(y,B) + |y - x|
<= |q - y| + rho_C <= d + 2 rho_C.  So the candidates at the widest radius
hold every minimizer and tie of every box; as each row's norm is computed
as in the full scan, the distances, verdicts and anchors come out
identical.  The radius carries a small relative slack that covers the
rounding of the squared distances it is compared with.

A batch of queries (`supporting_cubes_batch`) runs these passes on
blocks of _BLOCK // (N n) queries, in bounded memory: one distance scan
for the block; pass 1 against each query's own candidate rows; pass 2 on
the window cubes, per axis the at most two corners ceil(2^lv (x - s/4))
- 1 + {0, 1} whose D_C holds x, multiplied out in (level, corner) order
and measured with their parents and centres (the anchors) in one scan of
(box, candidate row) pairs, by chunks of _BLOCK / 16 numbers.  Arrays are
coordinate-major, so each operation runs over long contiguous rows.
Float corners are exact below 2^51; a query whose corners reach that, one
at distance 0 (on A), or one none of whose three levels qualifies (its
block ends at j_max) is searched alone, as is every query of a batch below
BATCH_MIN = 3: at one query the block form costs about two one-query
searches, at two it breaks even.

Coordinates of the set and of queries must stay below MAX_COORD =
2^500 in magnitude: distances are formed from squared differences, which
then stay finite, and so do the dyadic corners of every level up to 520.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

MAX_COORD = math.ldexp(1.0, 500)


class ResolutionExceeded(RuntimeError):
    """No admissible cube at any level up to j_max — the query point is
    closer to A than the dyadic resolution limit."""

    def __init__(self, x, j_max):
        super().__init__(
            f"no admissible cube for point {tuple(x)} up to level {j_max}"
        )
        self.point = tuple(x)
        self.j_max = j_max


class OnSet(ValueError):
    """The query point lies in A, in the box of `row`; the decomposition
    covers only the complement."""

    def __init__(self, x, row):
        super().__init__(f"point {tuple(x)} lies in the closed set")
        self.point = tuple(x)
        self.row = row


# -- closed sets -----------------------------------------------------------


def _check_query(x, n):
    """Raise ValueError unless x has dimension n, is finite and is within
    MAX_COORD."""
    if len(x) != n:
        raise ValueError(f"query point {tuple(x)} has dimension {len(x)}, expected {n}")
    if not all(math.isfinite(xi) for xi in x):
        raise ValueError(f"query point {tuple(x)} is not finite")
    if max(abs(xi) for xi in x) >= MAX_COORD:
        raise ValueError(
            f"query point {tuple(x)} is too large: coordinates must stay below 2^500"
        )


def _check_rows(a, shown):
    """Raise ValueError, naming the row as shown(i), for the first row i of
    a that is not finite, and else for the first beyond MAX_COORD."""
    for bad, what in (
        (~np.isfinite(a), "is not finite"),
        (np.abs(a) >= MAX_COORD, "is too large: coordinates must stay below 2^500"),
    ):
        if bad.any():
            i = np.flatnonzero(bad.reshape(len(a), -1).any(axis=1))[0]
            raise ValueError(f"{shown(i)} of the closed set {what}")


class FinitePoints:
    """A closed set held as the union of the closed boxes [lo[i], hi[i]],
    the rows of two (N, n) arrays; a finite point set is its zero-width
    boxes, lo = hi = the points.  They are stored coordinate-major, as (n,
    N) arrays _lo and _hi (one array for a point set), which every
    distance (`_gap_squares`) reads by contiguous rows.  Distance and
    nearest-box queries name boxes by their rows."""

    def __init__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            raise ValueError("closed set must be non-empty")
        _check_rows(pts, lambda i: f"point {tuple(pts[i].tolist())}")
        cols = np.ascontiguousarray(pts.T)
        self._hold(cols, cols, np.arange(len(pts)))

    def _hold(self, lo, hi, rows):
        self._lo, self._hi, self.n, self.rows = lo, hi, len(lo), rows

    lo = property(lambda self: self._lo.T)  # the (N, n) rows
    hi = property(lambda self: self._hi.T)

    def distance(self, x):
        return self.reach(x)[0]

    def reach(self, x):
        """d(x, A) and a function giving, for a radius r, the boxes of the
        set within r of x (as a FinitePoints that keeps their rows), from
        one vector of squared distances; checks the query."""
        _check_query(x, self.n)
        x = np.asarray(x, float)[:, None]
        d2 = _gap_squares(x, x, self._lo, self._hi)
        return math.sqrt(d2.min()), lambda r: self._subset(d2 <= r * r)

    def _subset(self, keep):
        sub = object.__new__(FinitePoints)  # rows of a checked set
        lo = self._lo.compress(keep, axis=1)
        hi = lo if self._hi is self._lo else self._hi.compress(keep, axis=1)  # a point set's one array
        sub._hold(lo, hi, self.rows.compress(keep))
        return sub

    def _contains(self, x):
        """Exact membership: the first row whose box holds x, or None."""
        x = np.asarray(x, float)[:, None]
        hits = np.flatnonzero(np.all((self._lo <= x) & (x <= self._hi), axis=0))
        return int(self.rows[hits[0]]) if hits.size else None

    def nearest(self, ys):
        """For each point y of ys (rows of an (M, n) array), the row of a
        box nearest y; ties break to the lexicographically smallest nearest
        point clip(y, lo, hi) (a point set's own points), then to the first
        row."""
        ys = np.asarray(ys, float)
        y, lo = ys.T[:, :, None], self._lo[:, None]
        d2 = _gap_squares(y, y, lo, lo if self._hi is self._lo else self._hi[:, None])
        ties = d2 == d2.min(axis=1, keepdims=True)
        out = ties.argmax(axis=1)
        for i in np.flatnonzero(ties.sum(axis=1) > 1).tolist():
            out[i] = min(np.flatnonzero(ties[i]).tolist(), key=lambda k: tuple(np.clip(ys[i], self.lo[k], self.hi[k])))
        return self.rows.take(out).tolist()

    def box_distances(self, lo, hi):
        """Distances from the closed boxes [lo[i], hi[i]] to the set, for
        (M, n) arrays lo and hi: the least of each box's squared distances
        to the rows (the root is monotone)."""
        lo, hi = np.asarray(lo).T[:, :, None], np.asarray(hi).T[:, :, None]
        return np.sqrt(_gap_squares(lo, hi, self._lo[:, None], self._hi[:, None]).min(axis=-1))


def _squares(v, out=None):
    """Sums of squares of v over its first axis (the coordinates of a
    coordinate-major array), formed in `out` and added in coordinate order,
    as numpy's row reduction adds below 8 coordinates (from 8 on, pairwise)."""
    w = np.multiply(v, v, out=out)
    total = w[0] + w[1] if len(w) > 1 else w[0]
    for c in w[2:]:
        total += c
    return total


def _gap_squares(lo, hi, alo, ahi):
    """The squared distances between the boxes [lo, hi] and [alo, ahi] of
    coordinate-major arrays, broadcast: the `_squares` of the gaps max(0,
    lo - ahi, alo - hi), which between points are their differences."""
    if lo is hi and alo is ahi:
        g = lo - alo
    else:
        g = lo - ahi
        np.maximum(g, alo - hi, out=g)
        np.maximum(g, 0.0, out=g)
    return _squares(g, g)


# Candidate radii are widened by this factor and this term, far beyond the
# few-ulp rounding of the distances they compare and the underflow of
# squared differences below 2^-537.
_SLACK = 1.0 + 2.0**-40
_TINY = 2.0**-500

# Batches below BATCH_MIN queries are searched a query at a time, larger
# ones by blocks (see the module docstring); `enumerate_in_box` measures
# cubes in blocks of _BLOCK gaps.
BATCH_MIN = 3
_BLOCK = 2**18


class BoxUnion(FinitePoints):
    """A finite union of axis-aligned closed boxes, each given as n (lo, hi)
    pairs."""

    def __init__(self, boxes):
        if len(boxes) == 0:  # a list of (n, 2) arrays, or one (N, n, 2) array
            raise ValueError("closed set must be non-empty")
        parsed = [np.asarray(b, dtype=float) for b in boxes]  # each (n, 2): rows (lo, hi)
        for b in parsed:
            if b.ndim != 2 or b.shape[1] != 2 or np.any(b[:, 0] > b[:, 1]):
                raise ValueError(f"malformed box {b!r}")
        if any(b.shape[0] != parsed[0].shape[0] for b in parsed):
            raise ValueError("boxes have mixed dimensions")
        b = np.stack(parsed)
        _check_rows(b, lambda i: f"box {b[i].tolist()}")
        self._hold(np.ascontiguousarray(b[:, :, 0].T), np.ascontiguousarray(b[:, :, 1].T), np.arange(len(b)))


def make_closed_set(points=None, boxes=None):
    if (points is None) == (boxes is None):
        raise ValueError("give exactly one of points= or boxes=")
    return FinitePoints(points) if points is not None else BoxUnion(boxes)


# -- cubes -------------------------------------------------------------------


class _once:
    """A property computed on first access and then kept in the instance
    dict, which later lookups read directly (``functools.cached_property``
    without its lock, which costs a microsecond a call on CPython 3.11)."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True, order=True)
class WhitneyCube:
    """A dyadic cube: level j and integer corner z, covering
    prod [z_i/2^j, (z_i+1)/2^j].  Its geometry is computed once per cube,
    on first use; equality, hashing and order use (level, corner) only."""

    level: int
    corner: tuple

    @_once
    def side(self):
        return math.ldexp(1.0, -self.level)

    @_once
    def lo(self):
        s = self.side
        return tuple([z * s for z in self.corner])

    @_once
    def hi(self):
        s = self.side
        return tuple([(z + 1) * s for z in self.corner])

    @_once
    def center(self):
        s = self.side
        return tuple([(z + 0.5) * s for z in self.corner])

    def contains(self, x):
        """Closed containment (geometric tests use closed cubes)."""
        return all(l <= xi <= h for l, xi, h in zip(self.lo, x, self.hi))

    def touches(self, other):
        """Closed boxes intersect (shared faces/edges/corners count)."""
        return all(
            l1 <= h2 and l2 <= h1
            for l1, h1, l2, h2 in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def enlarged_contains(self, x):
        """Strict sup-norm test against the enlarged box D_C of half-width
        (3/4) * side around the center."""
        r = 0.75 * self.side
        return all(abs(xi - ci) < r for xi, ci in zip(x, self.center))


# -- the decomposition --------------------------------------------------------


class Decomposition:
    """
    Lazy Whitney cube decomposition relative to a closed set.

    All queries are pure functions of (query, A), and nothing is kept
    between them, so a decomposition is safe to share between threads.

    Parameters
    ----------
    A : FinitePoints or BoxUnion
    j_max : int
        Finest level `locate` will try before raising ResolutionExceeded.
        The default 52 sits at the dyadic resolution of double precision.
    """

    def __init__(self, A, j_max=52):
        self.A = A
        self.n = A.n
        self.j_max = j_max
        self._sqrt_n = math.sqrt(self.n)

    def threshold(self, j):
        """Membership threshold 4*sqrt(n)/2^j at level j."""
        return math.ldexp(4.0 * self._sqrt_n, -j)

    def cube_distance(self, cube):
        return float(self.A.box_distances(np.array([cube.lo]), np.array([cube.hi]))[0])

    def _start_level(self, d):
        """The first level s of the three, s .. s + 2, that hold the home
        level at d = d(x,A): s = floor(T), T = log2(4 sqrt(n)) - log2(d),
        clamped to 0..j_max (j_max if d underflows to 0).  No level l <= s
        - 1 <= T - 1 qualifies: its threshold 4 sqrt(n)/2^l is >= 2d, and
        the level-l ancestor of x is no farther from A than x (its computed
        gaps are no larger than those of x, and what follows is monotone).
        Level s + 2 <= j_max qualifies: its ancestor, of side <= 2^-(T+1)
        = d/(8 sqrt(n)), is at least d - sqrt(n) side >= 7d/8 from A, and
        its threshold at most d/2; so do the finer levels, and level 2 when
        the clamp lifts s to 0.  The margins, about 2 and 1.75, are far
        beyond the few-ulp rounding of the distances and of log2, so a
        floor that rounding moves by one near an integer T changes nothing."""
        # a log difference, as 4*sqrt(n)/d is inf for a subnormal d
        j = math.floor(math.log2(4.0 * self._sqrt_n) - math.log2(d)) if d else self.j_max
        return min(max(j, 0), self.j_max)

    def _measure(self, levels, corners, near=None):
        """Whether each cube (levels[i], corners[i]) qualifies, as a bool
        array, from one stacked scan, and the part of A scanned: all of A,
        or, given near = (x, d(x,A), the set's `reach` for x), the part
        that `_candidates` gives for the cubes.  `levels` may be one level
        for all the cubes."""
        levels = np.asarray(levels)
        sides = np.ldexp(1.0, -levels)[..., None]
        z = np.asarray(corners, float)
        lo, hi = z * sides, (z + 1.0) * sides
        scan = self.A if near is None else _candidates(*near, lo, hi)
        return scan.box_distances(lo, hi) >= np.ldexp(4.0 * self._sqrt_n, -levels), scan

    def _home(self, x):
        """
        The home level of x (the level of its cube in W) and near = (x,
        d(x,A), the set's `reach` for x), which scopes the query's scans:
        the first level of `_start_level`'s block whose ancestor of x
        qualifies, from one pass over the block.
        """
        d, reach = self.A.reach(x)  # checks the query
        if d == 0.0 and (row := self.A._contains(x)) is not None:  # A is at distance 0
            raise OnSet(x, row)
        near = (x, d, reach)
        j = self._start_level(d)
        levels = np.arange(j, min(j + 2, self.j_max) + 1)
        corners = np.floor(np.ldexp(np.asarray(x, float), levels[:, None]))
        ok = self._measure(levels, corners, near)[0].tolist()
        if not any(ok):  # the block reached j_max
            raise ResolutionExceeded(x, self.j_max)
        return j + ok.index(True), near

    def locate(self, x):
        """
        The unique cube of W containing x under the half-open convention
        [z/2^j, (z+1)/2^j): the dyadic ancestor of x at the smallest level
        whose distance to A meets the threshold, found by `_home`.
        Membership in A is decided exactly, so a query a subnormal distance
        away is not on the set.  A query of the wrong dimension, a
        non-finite one, or one beyond MAX_COORD is a ValueError.
        """
        j = self._home(x)[0]
        return WhitneyCube(j, tuple(math.floor(math.ldexp(xi, j)) for xi in x))

    def in_family(self, cube):
        """Membership test: the cube qualifies and is at level 0 or its
        parent does not qualify (see the module docstring); the two are
        measured together."""
        keys = [(cube.level, cube.corner)]
        if cube.level:
            keys.append((cube.level - 1, tuple(z >> 1 for z in cube.corner)))
        ok = self._measure(*zip(*keys))[0].tolist() + [False]
        return ok[0] and not ok[1]

    def supporting_cubes(self, x):
        """
        All cubes of W whose enlarged box D_C contains x, in (level, corner)
        order, as (cube, anchor) pairs: on the levels next to the home
        level, the cubes meeting the box x ± side/4 whose D_C holds x,
        measured with their parents in one pass; a cube is in W when it
        qualifies and is at level 0 or its parent does not.  The anchor of
        C, the row of A nearest its center, comes from the same part of A,
        for all the cubes at once.
        """
        home, near = self._home(x)
        found = []
        for lv in range(max(0, home - 1), home + 2):
            s = math.ldexp(1.0, -lv)
            r, half = 0.25 * s, 0.75 * s
            window = _window([xi - r for xi in x], [xi + r for xi in x], lv)
            # D_C holds x exactly when every axis does (WhitneyCube.enlarged_contains)
            axes = [[z for z in w if abs(xi - (z + 0.5) * s) < half] for xi, w in zip(x, window)]
            found += [(lv, z) for z in itertools.product(*axes)]
        parents = [(lv - 1, tuple(zi >> 1 for zi in z)) for lv, z in found if lv]
        keys = list(dict.fromkeys(found + parents))
        ok, scan = self._measure(*zip(*keys), near)
        ok = dict(zip(keys, ok.tolist()))
        out = [
            WhitneyCube(lv, z)
            for lv, z in found
            if ok[lv, z] and (lv == 0 or not ok[lv - 1, tuple(zi >> 1 for zi in z)])
        ]
        return list(zip(out, scan.nearest([cube.center for cube in out])))

    def supporting_cubes_batch(self, xs):
        """
        `supporting_cubes` at every query of xs (a sequence of points), as a
        list with one item per query: its (cube, anchor row) pairs, or the
        OnSet it raises, returned.  A failing batch raises what its first
        failing query raises alone.
        """
        found = [None] * len(xs)
        if len(xs) >= BATCH_MIN and all(len(x) == self.n for x in xs):
            pts = np.array(xs, float)
            good = np.flatnonzero((np.abs(pts) < MAX_COORD).all(axis=1))  # finite and in range
            block = max(1, _BLOCK // self.A._lo.size)
            for i in range(0, len(good), block):
                qs = good[i : i + block]
                for q, item in zip(qs.tolist(), self._search_block(pts[qs])):
                    found[q] = item
        for q, x in enumerate(xs):
            if found[q] is None:
                try:
                    found[q] = self.supporting_cubes(x)
                except OnSet as on:
                    # without its traceback, whose frame holds `found`
                    found[q] = on.with_traceback(None)
        return found

    def _search_block(self, xs):
        """The (cube, anchor row) pairs at the checked queries, the rows of
        the (Q, n) array xs, or None for a query to search alone (see the
        module docstring)."""
        Q = len(xs)
        x = np.ascontiguousarray(xs.T)  # (n, Q)
        xq, lo = x[:, :, None], self.A._lo[:, None]
        d2 = _gap_squares(xq, xq, lo, lo if self.A._hi is self.A._lo else self.A._hi[:, None])
        d = np.sqrt(d2.min(axis=1))
        # pass 1: the ancestors on the levels `_start_level` .. + 2, clamped
        # (a clamped level repeats the last)
        j = np.array([self._start_level(v) for v in d.tolist()])
        levels = np.minimum(j[:, None] + np.arange(3), self.j_max).ravel()
        side = np.ldexp(1.0, -levels)
        z = np.floor(np.ldexp(np.repeat(x, 3, axis=1), levels))
        least, _ = self._block_scan(x, d, d2, z * side, (z + 1.0) * side, np.repeat(np.arange(Q), 3))
        ok = (np.sqrt(least) >= np.ldexp(4.0 * self._sqrt_n, -levels)).reshape(Q, 3)
        home = j + ok.argmax(axis=1)
        settled = ok.any(axis=1) & (d > 0.0)
        settled &= np.ldexp(np.abs(xs).max(axis=1), home + 1) < 2.0**51
        out = [None] * Q
        qs = np.flatnonzero(settled)
        if not qs.size:
            return out
        # pass 2: on the levels home - 1 .. home + 1, per axis the corners
        # ceil(2^lv (x - s/4)) - 1 + {0, 1} of the window, kept where D_C
        # holds x, and their product over the axes in (level, corner) order
        x, d, d2 = x[:, qs], d[qs], d2[qs]
        lv = home[qs, None] + np.arange(-1, 2)  # (Q, 3)
        s = np.ldexp(1.0, -lv)
        r = 0.25 * s
        xq = x[:, :, None]
        z = np.ceil(np.ldexp(xq - r, lv)) - np.array([1.0, 0.0])[:, None, None, None]  # (2, n, Q, 3)
        inside = (z <= np.floor(np.ldexp(xq + r, lv))) & (np.abs(xq - (z + 0.5) * s) < 0.75 * s) & (lv >= 0)
        bits = np.array(list(itertools.product((0, 1), repeat=self.n))).T  # (n, 2^n)
        axes = np.arange(self.n)[:, None]
        inside = np.logical_and.reduce(inside[bits, axes], axis=0)  # (2^n, Q, 3)
        q, k, c = np.nonzero(inside.transpose(1, 2, 0))
        z = z[bits[:, c], axes, q, k]  # (n, M)
        lv, s = lv[q, k], s[q, k]
        up = lv > 0
        pz, ps = np.where(up, np.floor(0.5 * z), z), np.where(up, 2.0 * s, s)  # a level-0 cube is its own parent
        mid = (z + 0.5) * s  # the centres, whose nearest rows are the anchors
        M = len(q)
        lo, hi = np.hstack([z * s, pz * ps, mid]), np.hstack([(z + 1.0) * s, (pz + 1.0) * ps, mid])
        least, anchors = self._block_scan(x, d, d2, lo, hi, np.tile(q, 3), 2 * M)
        ok = np.sqrt(least[: 2 * M]) >= np.ldexp(4.0 * self._sqrt_n, -np.concatenate([lv, lv - 1]))
        fam = np.flatnonzero(ok[:M] & ~(up & ok[M:]))
        for i in qs.tolist():
            out[i] = []
        for i, level, corner, row in zip(
            qs[q[fam]].tolist(), lv[fam].tolist(), z[:, fam].T.astype(np.int64).tolist(), anchors[2 * M + fam].tolist()
        ):
            out[i].append((WhitneyCube(level, tuple(corner)), row))
        return out

    def _block_scan(self, x, d, d2, lo, hi, owner, tail=None):
        """
        The least squared distance from each box [lo[:, i], hi[:, i]] to the
        candidate rows (`_candidates`) of its query owner[i], a column of x
        at distance d from A and squared distances d2 to the rows; and the
        anchor rows of the boxes from `tail` on, which are points, by the
        rule of `FinitePoints.nearest` on the candidates.
        """
        A = self.A
        xo = x.take(owner, axis=1)
        rho2 = np.zeros(len(d))
        np.maximum.at(rho2, owner, _squares(np.maximum(xo - lo, hi - xo)))
        r = (d + 2.0 * np.sqrt(rho2)) * _SLACK + _TINY
        q, near = np.divmod(np.flatnonzero(d2 <= (r * r)[:, None]), d2.shape[1])  # np.nonzero is slower
        counts = np.bincount(q, minlength=len(d))
        kb = counts.take(owner)  # the candidate rows of each box, at least its nearest
        start = (np.cumsum(counts) - counts).take(owner)  # and where they begin in near
        cuts = np.flatnonzero(np.diff((np.cumsum(kb) - kb) // max(1, _BLOCK // (16 * self.n)), prepend=-1))
        least = np.empty(len(owner))
        anchors = np.zeros(len(owner), np.int64)
        for b0, b1 in itertools.pairwise(cuts.tolist() + [len(owner)]):
            k = kb[b0:b1]
            seg = np.cumsum(k) - k
            box = np.repeat(np.arange(b0, b1), k)
            rows = near.take(np.arange(len(box)) + np.repeat(start[b0:b1] - seg, k))
            alo = A._lo.take(rows, axis=1)
            ahi = alo if A._hi is A._lo else A._hi.take(rows, axis=1)
            sq = _gap_squares(np.repeat(lo[:, b0:b1], k, axis=1), np.repeat(hi[:, b0:b1], k, axis=1), alo, ahi)
            least[b0:b1] = np.minimum.reduceat(sq, seg)
            if tail is None or b1 <= tail:
                continue
            # the first nearest row of each point; where rows tie, the
            # tie-break of `FinitePoints.nearest` on its candidates
            p0 = seg[max(tail - b0, 0)]
            hits = p0 + np.flatnonzero(sq[p0:] == least.take(box[p0:]))
            heads = np.flatnonzero(np.diff(box.take(hits), prepend=-1))
            h = hits.take(heads)
            anchors[box.take(h)] = A.rows.take(rows.take(h))
            for t in np.flatnonzero(np.diff(heads, append=len(hits)) > 1).tolist():
                i = box[h[t]]
                keep = np.zeros(len(A.rows), bool)
                keep[rows[seg[i - b0] : seg[i - b0] + k[i - b0]]] = True
                anchors[i] = A._subset(keep).nearest(lo[:, i, None].T)[0]
        return least, anchors

    def enumerate_in_box(self, lo, hi, max_level):
        """
        All cubes of W intersecting the closed box [lo, hi], up to the given
        level, in deterministic (level, corner) order.  Descends the dyadic
        tree a level at a time, measuring a level's cubes in blocks of
        about 2^18 gaps: a qualifying cube is emitted and not refined;
        anything still unqualified at max_level is dropped.  A box corner
        of the wrong dimension or beyond MAX_COORD is a ValueError.
        """
        _check_query(lo, self.n)
        _check_query(hi, self.n)
        out = []
        block = max(1, _BLOCK // self.A._lo.size)
        level, corners = 0, list(itertools.product(*_window(lo, hi, 0)))
        while corners:
            ok = []
            for i in range(0, len(corners), block):
                ok += self._measure(level, corners[i : i + block])[0].tolist()
            out += [WhitneyCube(level, z) for z, q in zip(corners, ok) if q]
            if level >= max_level:
                break
            level += 1
            window = _window(lo, hi, level)
            corners = [
                kid
                for z, q in zip(corners, ok)
                if not q
                for kid in itertools.product(
                    *[range(max(2 * zi, w.start), min(2 * zi + 2, w.stop)) for zi, w in zip(z, window)]
                )
            ]
        out.sort()
        return out


def _candidates(x, d, reach, lo, hi):
    """The part of A that decides the distances of the boxes [lo[i], hi[i]]
    (rows of (M, n) arrays) and the nearest points to any point of them,
    given d = d(x,A) and the set's `reach` for x: the points within
    d + 2 rho of x, rho the farthest any of the boxes reaches from x (see
    the module docstring)."""
    x = np.asarray(x, float)
    rho = math.sqrt(_squares(np.maximum(x - lo, hi - x).T).max())
    return reach((d + 2.0 * rho) * _SLACK + _TINY)


def _window(lo, hi, level):
    """Per axis, the corners z of the level's dyadic cubes that meet the
    closed box [lo, hi]: z <= hi/side and z + 1 >= lo/side."""
    return [
        range(math.ceil(math.ldexp(l, level)) - 1, math.floor(math.ldexp(h, level)) + 1)
        for l, h in zip(lo, hi)
    ]
