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
"""

import math
from dataclasses import dataclass

import numpy as np


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


class FinitePoints:
    """A finite point set with exact distance and nearest-point queries."""

    def __init__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            raise ValueError("closed set must be non-empty")
        self.points = pts
        self.n = pts.shape[1]

    def distance(self, x):
        return float(np.min(np.linalg.norm(self.points - np.asarray(x, float), axis=1)))

    def _contains(self, x):
        """Exact membership: x equals one of the points coordinate by coordinate."""
        return bool(np.any(np.all(self.points == np.asarray(x, float), axis=1)))

    def nearest(self, x):
        """A nearest point; ties break to the lexicographically smallest."""
        d2 = np.sum((self.points - np.asarray(x, float)) ** 2, axis=1)
        best = d2.min()
        cands = [tuple(p) for p, d in zip(self.points, d2) if d == best]
        return min(cands)

    def box_distance(self, lo, hi):
        """Distance from the closed box [lo, hi] to the set."""
        gaps = np.maximum(0.0, np.maximum(lo - self.points, self.points - hi))
        return float(np.min(np.linalg.norm(gaps, axis=1)))


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
        x = np.asarray(x, float)
        best = math.inf
        for b in self.boxes:
            gap = np.maximum(0.0, np.maximum(b[:, 0] - x, x - b[:, 1]))
            best = min(best, float(np.linalg.norm(gap)))
        return best

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


@dataclass(frozen=True, order=True)
class WhitneyCube:
    """A dyadic cube: level j and integer corner z, covering
    prod [z_i/2^j, (z_i+1)/2^j]."""

    level: int
    corner: tuple

    @property
    def side(self):
        return math.ldexp(1.0, -self.level)

    @property
    def lo(self):
        s = self.side
        return tuple(z * s for z in self.corner)

    @property
    def hi(self):
        s = self.side
        return tuple((z + 1) * s for z in self.corner)

    @property
    def center(self):
        s = self.side
        return tuple((z + 0.5) * s for z in self.corner)

    @property
    def diam(self):
        return math.sqrt(len(self.corner)) * self.side

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
        return self.A.box_distance(np.array(cube.lo), np.array(cube.hi))

    def _qualifies(self, cube):
        return self.cube_distance(cube) >= self.threshold(cube.level)

    def locate(self, x, j_max=None):
        """
        The unique cube of W containing x under the half-open convention
        [z/2^j, (z+1)/2^j): the dyadic ancestor of x at the smallest level
        whose distance to A meets the threshold.  Membership in A is decided
        exactly, so a query a subnormal distance away is not on the set.
        """
        j_max = self.j_max if j_max is None else j_max
        if not all(math.isfinite(xi) for xi in x):
            raise ValueError(f"query point {tuple(x)} is not finite")
        if self.A._contains(x):
            raise OnSet(x)
        for j in range(j_max + 1):
            corner = tuple(math.floor(math.ldexp(xi, j)) for xi in x)
            cube = WhitneyCube(j, corner)
            if self._qualifies(cube):
                return cube
        raise ResolutionExceeded(x, j_max)

    def in_family(self, cube):
        """Membership test: the cube qualifies and is the first qualifying
        cube on its own ancestor chain."""
        for l in range(cube.level + 1):
            anc = WhitneyCube(
                l, tuple(z >> (cube.level - l) for z in cube.corner)
            )
            if self._qualifies(anc):
                return l == cube.level
        return False

    def neighbors(self, cube):
        """
        All cubes of W touching the given cube, including the cube itself.
        Touching members of W can only live one level up or down (side
        ratios of touching cubes are 1/2, 1, or 2), so three levels are
        scanned and every candidate is resolved through the membership
        test.
        """
        out = []
        lo, hi = cube.lo, cube.hi
        for lv in range(max(0, cube.level - 1), cube.level + 2):
            ranges = []
            for i in range(self.n):
                shift = lv - cube.level
                if shift >= 0:
                    base = cube.corner[i] << shift
                    span = 1 << shift
                else:
                    base = cube.corner[i] >> 1
                    span = 1
                ranges.append(range(base - 1, base + span + 1))
            for corner in _iter_product(ranges):
                cand = WhitneyCube(lv, corner)
                if not cand.touches(cube):
                    continue
                if self.in_family(cand):
                    out.append(cand)
        out.sort()
        return out

    def anchor(self, cube):
        """A fixed nearest point of A to the cube's center (memoized;
        ties break lexicographically so the choice is reproducible)."""
        a = self._anchors.get(cube)
        if a is None:
            a = self._anchors[cube] = self.A.nearest(cube.center)
        return a

    def supporting_cubes(self, x, j_max=None):
        """
        All cubes of W whose enlarged box D_C contains x.  Any such cube
        touches the cube containing x (overlapping D-boxes force touching
        cubes), so the neighbor scan is exhaustive.
        """
        home = self.locate(x, j_max)
        return [c for c in self.neighbors(home) if c.enlarged_contains(x)]

    def enumerate_in_box(self, lo, hi, max_level):
        """
        All cubes of W intersecting the closed box [lo, hi], up to the given
        level, in deterministic (level, corner) order.  Descends the dyadic
        tree: a qualifying cube is emitted and not refined; anything still
        unqualified at max_level is dropped.
        """
        lo = tuple(float(v) for v in lo)
        hi = tuple(float(v) for v in hi)
        out = []
        roots = []
        ranges = [
            range(math.floor(l) - 1, math.floor(h) + 2) for l, h in zip(lo, hi)
        ]
        for corner in _iter_product(ranges):
            cube = WhitneyCube(0, corner)
            if _box_overlap(cube.lo, cube.hi, lo, hi):
                roots.append(cube)
        stack = list(reversed(roots))
        while stack:
            cube = stack.pop()
            if self._qualifies(cube):
                out.append(cube)
                continue
            if cube.level >= max_level:
                continue
            children = []
            for corner in _iter_product(
                [range(2 * z, 2 * z + 2) for z in cube.corner]
            ):
                child = WhitneyCube(cube.level + 1, corner)
                if _box_overlap(child.lo, child.hi, lo, hi):
                    children.append(child)
            stack.extend(reversed(children))
        out.sort()
        return out


def _box_overlap(lo1, hi1, lo2, hi2):
    return all(l1 <= h2 and l2 <= h1 for l1, h1, l2, h2 in zip(lo1, hi1, lo2, hi2))


def _iter_product(ranges):
    """Cartesian product of integer ranges as tuples, lexicographic order."""
    if not ranges:
        yield ()
        return
    for first in ranges[0]:
        for rest in _iter_product(ranges[1:]):
            yield (first,) + rest
