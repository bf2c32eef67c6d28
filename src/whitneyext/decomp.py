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
level of its cube in W) follows from d(x,A) to within about one level,
and the first qualifying level is found from a few levels around it.
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
`_start_level` - 1 .. + 3 and measures their distances to A at once; the
home level is the first that qualifies (a block that does not decide it is
followed by the next block of levels).  Pass 2 lists, on the levels
home - 1 .. home + 1, the cubes whose D_C holds x and measures them and
their parents at once; the anchors (rows of A) of the cubes returned come
from the same scan.  A pass scans only the rows with d(x, B_i) <=
d + 2 rho, rho the largest distance from x to the farthest point of any
box of its stack.  For one box C of farthest-point distance rho_C <= rho, q
a point of A nearest x, B a row nearest C and (b, c) a nearest pair of B x
C: d(x,B) <= |b - c| + |c - x| <= d(q,C) + rho_C <= d + 2 rho_C; for a row
B nearest a centre y of C (|y - x| <= rho_C): d(x,B) <= d(y,B) + |y - x|
<= |q - y| + rho_C <= d + 2 rho_C.  So the candidates at the widest radius
hold every minimizer and tie of every box; as each row's norm is computed
as in the full scan, the distances, verdicts and anchors come out
identical.  The radius carries a small relative slack that covers the
rounding of the squared distances it is compared with.

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
    boxes, lo = hi = the points.  Distance and nearest-box queries are
    array expressions over the rows, and name boxes by their rows."""

    def __init__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            raise ValueError("closed set must be non-empty")
        _check_rows(pts, lambda i: f"point {tuple(pts[i].tolist())}")
        self._hold(pts, pts, np.arange(len(pts)))

    def _hold(self, lo, hi, rows):
        self.lo, self.hi, self.n, self.rows = lo, hi, lo.shape[1], rows

    def _gaps(self, lo, hi):
        """The gaps of the box [lo, hi] (broadcast against the rows) to the
        rows' boxes, per axis (see the module docstring)."""
        return np.maximum(0.0, np.maximum(lo - self.hi, self.lo - hi))

    def distance(self, x):
        return self.reach(x)[0]

    def reach(self, x):
        """d(x, A) and a function giving, for a radius r, the boxes of the
        set within r of x (as a FinitePoints that keeps their rows), from
        one vector of squared distances; checks the query."""
        _check_query(x, self.n)
        # x copied to every row: a short row broadcast over many costs more
        x = np.repeat(np.asarray(x, float)[None], len(self.lo), axis=0)
        d2 = _squares(self._gaps(x, x))
        return math.sqrt(d2.min()), lambda r: self._subset(d2 <= r * r)

    def _subset(self, keep):
        sub = object.__new__(FinitePoints)  # rows of a checked set
        lo = self.lo.compress(keep, axis=0)
        hi = lo if self.hi is self.lo else self.hi.compress(keep, axis=0)  # a point set's one array
        sub._hold(lo, hi, self.rows.compress(keep))
        return sub

    def _contains(self, x):
        """Exact membership: the first row whose box holds x, or None."""
        x = np.asarray(x, float)
        hits = np.flatnonzero(np.all((self.lo <= x) & (x <= self.hi), axis=1))
        return int(self.rows[hits[0]]) if hits.size else None

    def nearest(self, ys):
        """For each point y of ys (rows of an (M, n) array), the row of a
        box nearest y; ties break to the lexicographically smallest nearest
        point clip(y, lo, hi) (a point set's own points), then to the first
        row.  clip(y, lo, hi) - y is the gap up to sign."""
        ys = np.asarray(ys, float)[:, None]
        pts = np.minimum(np.maximum(ys, self.lo), self.hi)  # clip(y, lo, hi)
        d2 = _squares(pts - ys)
        ties = d2 == d2.min(axis=1, keepdims=True)
        return [int(self.rows[min(np.flatnonzero(t), key=lambda i: tuple(p[i]))]) for t, p in zip(ties, pts)]

    def box_distances(self, lo, hi):
        """Distances from the closed boxes [lo[i], hi[i]] to the set, for
        (M, n) arrays lo and hi: the least row norm of each box's gaps (the
        root is monotone)."""
        return np.sqrt(_squares(self._gaps(lo[:, None], hi[:, None])).min(axis=-1))


def _squares(v):
    """Sums of squares of v along its last axis; their roots are the norms
    that np.linalg.norm(v, axis=-1) computes."""
    return np.add.reduce(v * v, axis=-1)


# Candidate radii are widened by this factor and this term, far beyond the
# few-ulp rounding of the distances they compare and the underflow of
# squared differences below 2^-537.
_SLACK = 1.0 + 2.0**-40
_TINY = 2.0**-500


class BoxUnion(FinitePoints):
    """A finite union of axis-aligned closed boxes, each given as n (lo, hi)
    pairs."""

    def __init__(self, boxes):
        if not boxes:
            raise ValueError("closed set must be non-empty")
        parsed = [np.asarray(b, dtype=float) for b in boxes]  # each (n, 2): rows (lo, hi)
        for b in parsed:
            if b.ndim != 2 or b.shape[1] != 2 or np.any(b[:, 0] > b[:, 1]):
                raise ValueError(f"malformed box {b!r}")
        if any(b.shape[0] != parsed[0].shape[0] for b in parsed):
            raise ValueError("boxes have mixed dimensions")
        b = np.stack(parsed)
        _check_rows(b, lambda i: f"box {b[i].tolist()}")
        self._hold(np.ascontiguousarray(b[:, :, 0]), np.ascontiguousarray(b[:, :, 1]), np.arange(len(b)))


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
        """The level just below the home level that d = d(x,A) implies: as
        d(x,A) - sqrt(n)/2^j <= d(C,A) <= d(x,A) for the level-j ancestor C
        of x, no level with 4*sqrt(n)/2^j > d(x,A) qualifies, so the search
        starts at floor(log2(4*sqrt(n)/d)) - 1, clamped to 0..j_max (at
        j_max if d underflows to 0)."""
        # a log difference, as 4*sqrt(n)/d is inf for a subnormal d
        j = math.floor(math.log2(4.0 * self._sqrt_n) - math.log2(d)) - 1 if d else self.j_max
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
        d(x,A), the set's `reach` for x), which scopes the query's scans.
        The home level is the first level whose ancestor of x qualifies;
        the ancestors on `_start_level` - 1 .. + 3 are measured in one
        pass, and a block that does not decide it is followed by the next
        five levels finer, or coarser.
        """
        d, reach = self.A.reach(x)  # checks the query
        if d == 0.0 and (row := self.A._contains(x)) is not None:  # A is at distance 0
            raise OnSet(x, row)
        near = (x, d, reach)

        def qualifying(lo, hi):
            levels = np.arange(lo, hi + 1)
            corners = np.floor(np.ldexp(np.asarray(x, float), levels[:, None]))
            return self._measure(levels, corners, near)[0].tolist()

        j = self._start_level(d)
        lo, hi = max(j - 1, 0), min(j + 3, self.j_max)
        ok = qualifying(lo, hi)
        while not any(ok):  # the home level is finer
            if hi == self.j_max:
                raise ResolutionExceeded(x, self.j_max)
            lo, hi = hi + 1, min(hi + 5, self.j_max)
            ok = qualifying(lo, hi)
        home = lo + ok.index(True)
        while home == lo > 0:  # the home level may be coarser
            lo, hi = max(lo - 5, 0), lo - 1
            ok = qualifying(lo, hi)
            if any(ok):
                home = lo + ok.index(True)
        return home, near

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
        block = max(1, 2**18 // self.A.lo.size)
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
    rho = math.sqrt(_squares(np.maximum(x - lo, hi - x)).max())
    return reach((d + 2.0 * rho) * _SLACK + _TINY)


def _window(lo, hi, level):
    """Per axis, the corners z of the level's dyadic cubes that meet the
    closed box [lo, hi]: z <= hi/side and z + 1 >= lo/side."""
    return [
        range(math.ceil(math.ldexp(l, level)) - 1, math.floor(math.ldexp(h, level)) + 1)
        for l, h in zip(lo, hi)
    ]
