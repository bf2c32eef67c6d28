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
level of its cube in W) follows from d(x,A) to within about one level:
`locate` starts just below it and steps coarser while the parent
qualifies, otherwise finer until a cube qualifies.  A cube C of side s
has x in D_C exactly when C meets the open box x ± s/4; such cubes touch
the cube of W holding x, so they lie at most one level above or below it.

One query's tests see A through a view (``A.around(x)``), which holds
all of that query's state: d = d(x,A), the box distances it has measured
(so the tests of one query share their verdicts), and for a finite set
the distances |p - x| of all points, computed once, and its candidate
rows.  Every scan after the first runs only on the candidates
|p - x| <= d + 2 rho, rho the distance from x to the farthest point of
the box being tested (for a nearest point to a centre y, rho = |y - x|).
With q a point nearest x and p nearest the box C, c the point of C
nearest p: |p - x| <= d(p,C) + |c - x| <= d(q,C) + rho <= d + 2 rho, and
with p nearest y: |p - x| <= |p - y| + rho <= |q - y| + rho <= d + 2 rho.
So the candidates hold every minimizer and every tie, and as each row's
norm is computed as in the full scan, the distances, verdicts and anchors
come out identical.  The radius carries a small relative slack that
covers the rounding of the distances it compares.

Coordinates of a point set and of queries must stay below MAX_COORD =
2^500 in magnitude: distances are formed from squared differences, which
then stay finite, and so do the dyadic corners of every level up to 520.
"""

import itertools
import math
import operator
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
    """The query point lies in A; the decomposition covers only the complement."""

    def __init__(self, x):
        super().__init__(f"point {tuple(x)} lies in the closed set")
        self.point = tuple(x)


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


class FinitePoints:
    """A finite point set with exact distance and nearest-point queries."""

    def __init__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            raise ValueError("closed set must be non-empty")
        if not np.all(np.isfinite(pts)):
            p = pts[~np.all(np.isfinite(pts), axis=1)][0]
            raise ValueError(f"point {tuple(p.tolist())} of the closed set is not finite")
        big = np.any(np.abs(pts) >= MAX_COORD, axis=1)
        if big.any():
            raise ValueError(
                f"point {tuple(pts[big][0].tolist())} of the closed set is too large: "
                f"coordinates must stay below 2^500"
            )
        self.points = pts
        self.n = pts.shape[1]

    def distance(self, x):
        _check_query(x, self.n)
        return math.sqrt(_squares(self.points - np.asarray(x, float)).min())

    def _contains(self, x):
        """Exact membership: x equals one of the points coordinate by coordinate."""
        return bool(np.any(np.all(self.points == np.asarray(x, float), axis=1)))

    def nearest(self, x):
        """A nearest point; ties break to the lexicographically smallest."""
        return _nearest(self.points, x)

    def box_distance(self, lo, hi):
        """Distance from the closed box [lo, hi] to the set."""
        return _box_distance(self.points, lo, hi)

    def around(self, x):
        """The set as seen from the query x (see :class:`PointsAround`)."""
        return PointsAround(self, x)


def _squares(v):
    """Row sums of squares of v; their roots are the row norms that
    np.linalg.norm(v, axis=1) computes."""
    return np.add.reduce(v * v, axis=1)


def _nearest(points, x):
    d2 = _squares(points - np.asarray(x, float))
    return min(tuple(points[i]) for i in np.flatnonzero(d2 == d2.min()))


def _box_distance(points, lo, hi):
    gaps = np.maximum(0.0, np.maximum(np.subtract(lo, points), np.subtract(points, hi)))
    return math.sqrt(_squares(gaps).min())  # the least norm, as the root is monotone


class Around:
    """
    A closed set as seen from one query x, holding the query's state:
    `distance` is d(x, A), measured once (which checks the query), and
    `cube_distance` keeps every cube distance it measures, so that the
    tests made around x share their verdicts.  `box_distance` and `nearest`
    serve those tests; this base scans the whole set every time, as a union
    of a few boxes is cheap to scan.
    """

    def __init__(self, A, x):
        self.A = A
        self.x = tuple(x)
        self.distance = self._measure()
        self._cubes = {}

    def _measure(self):
        return self.A.distance(self.x)

    def cube_distance(self, cube):
        """d(C, A), measured once per cube for this query."""
        key = (cube.level, cube.corner)  # not the cube, which keeps its geometry
        d = self._cubes.get(key)
        if d is None:
            d = self._cubes[key] = self.box_distance(cube.lo, cube.hi)
        return d

    def box_distance(self, lo, hi):
        return self.A.box_distance(lo, hi)

    def nearest(self, c):
        return self.A.nearest(c)


# Candidate radii are widened by this factor and this term, far beyond the
# few-ulp rounding of the distances they compare and the underflow of
# squared differences below 2^-537.
_SLACK = 1.0 + 2.0**-40
_TINY = 2.0**-500


class PointsAround(Around):
    """
    A finite set as seen from one query x: the distances |p - x| of all
    points p are computed once, and a later scan runs only on the
    candidates |p - x| <= d + 2 rho, where rho is the distance from x to
    the farthest point of the box being tested, or to the centre given to
    `nearest`.  They hold every minimizer and every tie (see the module
    docstring), so the minimum, the tie set and the lexicographic
    tie-break come out as in the full scan.
    """

    def _measure(self):
        _check_query(self.x, self.A.n)
        self._dists = np.sqrt(_squares(self.A.points - np.asarray(self.x, float)))
        self._limit = -math.inf
        return float(self._dists.min())

    def _candidates(self, rho):
        """The points within d + 2 rho of x, or the superset kept from the
        widest radius asked before (a superset gives the same minimum)."""
        limit = (self.distance + 2.0 * rho) * _SLACK + _TINY
        if limit > self._limit:
            self._limit = limit
            self._rows = self.A.points[self._dists <= limit]
        return self._rows

    def box_distance(self, lo, hi):
        # rho = |(max(x_i - lo_i, hi_i - x_i))_i|, the farthest point of the box
        rho = math.hypot(*map(max, map(operator.sub, self.x, lo), map(operator.sub, hi, self.x)))
        return _box_distance(self._candidates(rho), lo, hi)

    def nearest(self, c):
        return _nearest(self._candidates(math.dist(self.x, c)), c)


class BoxUnion:
    """A finite union of axis-aligned closed boxes."""

    def __init__(self, boxes):
        if not boxes:
            raise ValueError("closed set must be non-empty")
        self.boxes = []
        for b in boxes:
            b = np.asarray(b, dtype=float)  # shape (n, 2): rows (lo, hi)
            if b.ndim != 2 or b.shape[1] != 2 or np.any(b[:, 0] > b[:, 1]):
                raise ValueError(f"malformed box {b!r}")
            self.boxes.append(b)
        self.n = self.boxes[0].shape[0]
        if any(b.shape[0] != self.n for b in self.boxes):
            raise ValueError("boxes have mixed dimensions")

    def distance(self, x):
        _check_query(x, self.n)
        return self.box_distance(x, x)

    def _contains(self, x):
        """Exact membership: lo <= x <= hi in some box."""
        x = np.asarray(x, float)
        return any(np.all((b[:, 0] <= x) & (x <= b[:, 1])) for b in self.boxes)

    def nearest(self, x):
        """Clamping x into each box gives that box's unique nearest point;
        ties across boxes break to the lexicographically smallest point."""
        x = np.asarray(x, float)
        best, cands = math.inf, []
        for b in self.boxes:
            p = np.clip(x, b[:, 0], b[:, 1])
            d = float(np.linalg.norm(p - x))
            if d < best:
                best, cands = d, [tuple(p)]
            elif d == best:
                cands.append(tuple(p))
        return min(cands)

    def around(self, x):
        """The set as seen from the query x (see :class:`Around`)."""
        return Around(self, x)

    def box_distance(self, lo, hi):
        best = math.inf
        for b in self.boxes:
            gap = np.maximum(0.0, np.maximum(b[:, 0] - hi, lo - b[:, 1]))
            best = min(best, float(np.linalg.norm(gap)))
        return best


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

    All queries are pure functions of (query, A); the anchor memo is a
    transparent cache and safe to share between threads (recomputation is
    idempotent).

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
        self._anchors = {}

    def threshold(self, j):
        """Membership threshold 4*sqrt(n)/2^j at level j."""
        return math.ldexp(4.0 * self._sqrt_n, -j)

    def cube_distance(self, cube):
        return self.A.box_distance(cube.lo, cube.hi)

    def _qualifies(self, cube, near=None):
        d = self.cube_distance(cube) if near is None else near.cube_distance(cube)
        return d >= self.threshold(cube.level)

    def _start_level(self, d):
        """The level just below the home level that d = d(x,A) implies: as
        d(x,A) - sqrt(n)/2^j <= d(C,A) <= d(x,A) for the level-j ancestor C
        of x, no level with 4*sqrt(n)/2^j > d(x,A) qualifies, so the search
        starts at floor(log2(4*sqrt(n)/d)) - 1, clamped to 0..j_max (at
        j_max if d underflows to 0)."""
        # a log difference, as 4*sqrt(n)/d is inf for a subnormal d
        j = math.floor(math.log2(4.0 * self._sqrt_n) - math.log2(d)) - 1 if d else self.j_max
        return min(max(j, 0), self.j_max)

    def locate(self, x, near=None):
        """
        The unique cube of W containing x under the half-open convention
        [z/2^j, (z+1)/2^j): the dyadic ancestor of x at the smallest level
        whose distance to A meets the threshold.  Membership in A is decided
        exactly, so a query a subnormal distance away is not on the set.
        A query of the wrong dimension, a non-finite one, or one beyond
        MAX_COORD is a ValueError.

        The search starts at `_start_level`, then steps coarser while the
        parent qualifies, else finer until a cube qualifies.  `near` is the
        query's view of A (``A.around(x)``), which narrows the scans and
        keeps their verdicts.
        """
        near = self.A.around(x) if near is None else near  # checks the query
        if near.distance == 0.0 and self.A._contains(x):  # a point of A is at distance 0
            raise OnSet(x)

        def ancestor(j):
            return WhitneyCube(j, tuple(math.floor(math.ldexp(xi, j)) for xi in x))

        j = self._start_level(near.distance)
        if self._qualifies(ancestor(j), near):
            while j > 0 and self._qualifies(ancestor(j - 1), near):
                j -= 1
            return ancestor(j)
        while j < self.j_max:
            j += 1
            cube = ancestor(j)
            if self._qualifies(cube, near):
                return cube
        raise ResolutionExceeded(x, self.j_max)

    def in_family(self, cube, near=None):
        """Membership test: the cube qualifies and is at level 0 or its
        parent does not qualify (see the module docstring).  `near`, a
        query's view of A, narrows the scans and keeps their verdicts."""
        if not self._qualifies(cube, near):
            return False
        if cube.level == 0:
            return True
        parent = WhitneyCube(cube.level - 1, tuple(z >> 1 for z in cube.corner))
        return not self._qualifies(parent, near)

    def anchor(self, cube, near=None):
        """A fixed nearest point of A to the cube's center (memoized;
        ties break lexicographically so the choice is reproducible).
        `near`, a query's view of A, only narrows the scan."""
        key = (cube.level, cube.corner)  # not the cube, which keeps its geometry
        a = self._anchors.get(key)
        if a is None:
            scans = self.A if near is None else near
            a = self._anchors[key] = scans.nearest(cube.center)
        return a

    def supporting_cubes(self, x):
        """
        All cubes of W whose enlarged box D_C contains x, in (level, corner)
        order: the cubes meeting the box x ± side/4 on the levels next to
        the cube holding x, filtered by D_C and by membership.  All tests
        run through one view of A around x, which also fixes the anchors of
        the cubes returned.
        """
        near = self.A.around(x)
        home = self.locate(x, near)
        out = []
        for lv in range(max(0, home.level - 1), home.level + 2):
            r = math.ldexp(0.25, -lv)
            window = _window([xi - r for xi in x], [xi + r for xi in x], lv)
            for corner in itertools.product(*window):
                cube = WhitneyCube(lv, corner)
                if cube.enlarged_contains(x) and self.in_family(cube, near):
                    out.append(cube)
        for cube in out:
            self.anchor(cube, near)
        return out

    def enumerate_in_box(self, lo, hi, max_level):
        """
        All cubes of W intersecting the closed box [lo, hi], up to the given
        level, in deterministic (level, corner) order.  Descends the dyadic
        tree: a qualifying cube is emitted and not refined; anything still
        unqualified at max_level is dropped.  A box corner of the wrong
        dimension or beyond MAX_COORD is a ValueError.
        """
        _check_query(lo, self.n)
        _check_query(hi, self.n)
        out = []
        stack = [WhitneyCube(0, z) for z in itertools.product(*_window(lo, hi, 0))]
        while stack:
            cube = stack.pop()
            if self._qualifies(cube):
                out.append(cube)
            elif cube.level < max_level:
                lv = cube.level + 1
                kids = [
                    range(max(2 * z, w.start), min(2 * z + 2, w.stop))
                    for z, w in zip(cube.corner, _window(lo, hi, lv))
                ]
                stack.extend(WhitneyCube(lv, z) for z in itertools.product(*kids))
        out.sort()
        return out


def _window(lo, hi, level):
    """Per axis, the corners z of the level's dyadic cubes that meet the
    closed box [lo, hi]: z <= hi/side and z + 1 >= lo/side."""
    return [
        range(math.ceil(math.ldexp(l, level)) - 1, math.floor(math.ldexp(h, level)) + 1)
        for l, h in zip(lo, hi)
    ]
