"""Dyadic cube decomposition of the complement of a closed set."""

import gc
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whitneyext import decomp, extend, jets


A0 = decomp.make_closed_set(points=[[0.0]])


def test_make_closed_set_exactly_one_kind():
    with pytest.raises(ValueError):
        decomp.make_closed_set()
    with pytest.raises(ValueError):
        decomp.make_closed_set(points=[[0.0]], boxes=[[[0.0, 1.0]]])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_finite_points_reject_non_finite_point(bad):
    with pytest.raises(ValueError, match=r"point \(1\.0, (nan|inf)\) .* not finite"):
        decomp.FinitePoints([[0.0, 0.0], [1.0, bad]])


@pytest.mark.parametrize(
    "box, shown",
    [
        ([[0.0, math.nan]], "[[0.0, nan]]"),
        ([[0.0, math.inf]], "[[0.0, inf]]"),
        ([[-math.inf, 0.0]], "[[-inf, 0.0]]"),
    ],
)
def test_box_union_rejects_non_finite_box(box, shown):
    msg = rf"^box {re.escape(shown)} of the closed set is not finite$"
    with pytest.raises(ValueError, match=msg):
        decomp.BoxUnion([[[-1.0, -0.5]], box])


@pytest.mark.parametrize(
    "boxes, message",
    [
        ([[[1.0, 0.0]]], "malformed box"),  # lo > hi
        ([[0.0, 1.0]], "malformed box"),  # one pair, not n pairs
        ([[[0.0, 1.0, 2.0]]], "malformed box"),
        ([[[0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]], "boxes have mixed dimensions"),
    ],
)
def test_box_union_rejects_malformed_boxes(boxes, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        decomp.BoxUnion(boxes)


def test_box_union_rejects_huge_box():
    msg = r"box \[\[0\.0, 1e\+200\]\] of the closed set is too large"
    with pytest.raises(ValueError, match=msg):
        decomp.BoxUnion([[[-1.0, -0.5]], [[0.0, 1e200]]])
    with pytest.raises(ValueError, match="too large"):
        decomp.BoxUnion([[[-decomp.MAX_COORD, 0.0]]])
    assert decomp.BoxUnion([[[0.0, 0.9 * decomp.MAX_COORD]]]).distance((-1.0,)) == 1.0


def test_huge_coordinates_are_rejected_without_warnings():
    # at 2^500 and beyond, squared distances (and dyadic corners at 1e308)
    # would overflow: a query or a point there is a ValueError, and no
    # numpy overflow warning escapes on either side of the limit
    dec = decomp.Decomposition(A0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1e308, -1e200, decomp.MAX_COORD):
            with pytest.raises(ValueError, match="too large"):
                dec.locate((x,))
            with pytest.raises(ValueError, match="too large"):
                dec.supporting_cubes((x,))
            with pytest.raises(ValueError, match="too large"):
                A0.distance((x,))
        with pytest.raises(ValueError, match=r"point \(1e\+200, 0\.0\) .* too large"):
            decomp.FinitePoints([[0.0, 0.0], [1e200, 0.0]])
        x = (0.9 * decomp.MAX_COORD,)
        assert dec.locate(x).level == 0
        assert dec.supporting_cubes(x)
        assert A0.distance(x) == x[0]


@pytest.mark.parametrize(
    "A",
    [
        decomp.make_closed_set(points=[[0.0, 0.0], [1.0, 0.5]]),
        decomp.make_closed_set(boxes=[[[0.0, 1.0], [0.0, 0.5]]]),
    ],
)
def test_wrong_dimension_query_is_a_value_error(A):
    dec = decomp.Decomposition(A)
    for x in [(0.3,), (), (0.3, 0.4, 0.5)]:
        msg = rf"^query point {re.escape(str(x))} has dimension {len(x)}, expected 2$"
        for probe in (A.distance, A.reach, dec.locate, dec.supporting_cubes):
            with pytest.raises(ValueError, match=msg):
                probe(x)
        with pytest.raises(ValueError, match=msg):
            dec.enumerate_in_box(x, (2.0, 2.0), 3)
        with pytest.raises(ValueError, match=msg):
            dec.enumerate_in_box((-2.0, -2.0), x, 3)


def test_distance_point_set():
    assert A0.distance((3.0,)) == 3.0
    two = decomp.make_closed_set(points=[[0.0, 0.0], [3.0, 4.0]])
    assert two.distance((3.0, 0.0)) == 3.0


def test_distance_box_clamp():
    B = decomp.make_closed_set(boxes=[[[0.0, 1.0], [0.0, 1.0]]])
    assert B.distance((2.0, 0.0)) == 1.0
    assert B.distance((0.5, 0.5)) == 0.0
    assert B.distance((2.0, 2.0)) == pytest.approx(math.sqrt(2.0))


def test_cube_distance():
    c = decomp.WhitneyCube(0, (2,))  # [2, 3]
    assert decomp.Decomposition(A0).cube_distance(c) == 2.0


def test_locate_level0():
    c = decomp.Decomposition(A0).locate((4.5,))
    assert c.level == 0 and c.corner == (4,)
    assert c.lo == (4.0,) and c.hi == (5.0,)


def test_locate_level1():
    c = decomp.Decomposition(A0).locate((2.25,))
    assert c.level == 1 and c.side == 0.5
    assert c.lo == (2.0,) and c.hi == (2.5,)


def test_locate_on_set_raises():
    with pytest.raises(decomp.OnSet):
        decomp.Decomposition(A0).locate((0.0,))
    # the error names where A holds the query: its row, -0.0 == 0.0, or its box
    pts = decomp.make_closed_set(points=[[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    with pytest.raises(decomp.OnSet) as info:
        decomp.Decomposition(pts).supporting_cubes((-0.0, 0.0))
    assert info.value.row == 2
    B = decomp.make_closed_set(boxes=[[[0.0, 1.0]], [[3.0, 4.0]]])
    with pytest.raises(decomp.OnSet) as info:
        decomp.Decomposition(B).locate((3.5,))
    assert info.value.row == 1


def test_locate_resolution_exceeded():
    with pytest.raises(decomp.ResolutionExceeded):
        decomp.Decomposition(A0, j_max=52).locate((1e-30,))


def test_locate_on_set_is_exact_membership():
    # |x - a| underflows to 0 in the Euclidean norm, yet x is not in A
    with pytest.raises(decomp.ResolutionExceeded):
        decomp.Decomposition(A0).locate((1e-170,))
    B = decomp.make_closed_set(boxes=[[[0.0, 1.0], [0.0, 1.0]]])
    with pytest.raises(decomp.OnSet):
        decomp.Decomposition(B).locate((1.0, 0.5))
    with pytest.raises(decomp.ResolutionExceeded):
        decomp.Decomposition(B).locate((-1e-300, 0.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_locate_rejects_non_finite_query(bad):
    with pytest.raises(ValueError, match="not finite") as info:
        decomp.Decomposition(A0).locate((bad,))
    assert not isinstance(info.value, decomp.OnSet)


def test_locate_maximality():
    # every coarser dyadic ancestor of the located cube fails the criterion
    dec = decomp.Decomposition(A0)
    for x in (2.25, 0.7, 1.3, 5.5, 17.2):
        c = dec.locate((x,))
        assert dec.cube_distance(c) >= dec.threshold(c.level)
        for j in range(c.level):
            anc = decomp.WhitneyCube(j, tuple(z >> (c.level - j) for z in c.corner))
            assert dec.cube_distance(anc) < dec.threshold(j)


def test_neighbor_count_bounded_1d():
    dec = decomp.Decomposition(A0)
    rng = np.random.default_rng(3)
    worst = 0
    for x in rng.uniform(-20, 20, size=300):
        if abs(x) < 1e-6:
            continue
        worst = max(worst, len(dec.supporting_cubes((float(x),))))
    assert worst <= 3 * 2**1


def test_anchor_single_candidate():
    dec = decomp.Decomposition(A0)
    found = dec.supporting_cubes((4.5,))
    assert found and all(row == 0 for _, row in found)


def test_anchor_tie_break_lexicographic():
    pm = decomp.make_closed_set(points=[[-1.0], [1.0]])
    c = decomp.WhitneyCube(2, (-1,))  # [-0.25, 0], center -0.125: 0.875 from -1, 1.125 from 1
    assert pm.nearest([c.center])[0] == 0
    far = decomp.make_closed_set(points=[[9.5], [-10.0]])
    mid = decomp.WhitneyCube(0, (-1,))  # [-1, 0], center -0.5: 9.5 from -10, 10 from 9.5
    assert far.nearest([mid.center])[0] == 1
    # the center -0.25 of [-0.5, 0] is 0.75 from both points: the anchor is
    # the lexicographically smaller point, in either row order
    sym = decomp.WhitneyCube(1, (-1,))
    for pts in ([[-1.0], [0.5]], [[0.5], [-1.0]]):
        A = decomp.make_closed_set(points=pts)
        assert pts[A.nearest([sym.center])[0]] == [-1.0]
    # through the cube search: the center (0.5, 6.5) of the cube [0, 1] x
    # [6, 7] of W is equidistant from both points, and the second row is
    # the smaller
    two = decomp.make_closed_set(points=[[1.0, 0.0], [0.0, 0.0]])
    found = decomp.Decomposition(two).supporting_cubes((0.5, 6.5))
    assert [(c.level, c.corner, row) for c, row in found] == [(0, (0, 6), 1)]


def test_enlarged_cube():
    c = decomp.WhitneyCube(1, (4,))  # [2, 2.5], center 2.25, half-width 3/8
    assert c.enlarged_contains((2.6,))
    assert not c.enlarged_contains((2.625,))  # boundary is out
    assert c.enlarged_contains((1.876,))
    assert not c.enlarged_contains((1.875,))
    assert c.enlarged_contains(tuple(c.center))


def test_supporting_cubes_deep_interior():
    dec = decomp.Decomposition(A0)
    sup = dec.supporting_cubes((10.5,))
    assert len(sup) == 1
    assert sup[0][0].corner == (10,)


def test_supporting_cubes_never_empty_and_contain_x():
    dec = decomp.Decomposition(A0)
    rng = np.random.default_rng(4)
    for x in rng.uniform(0.01, 8.0, size=100):
        sup = dec.supporting_cubes((float(x),))
        assert sup
        assert any(c.contains((float(x),)) for c, _ in sup)
        for c, _ in sup:
            assert c.enlarged_contains((float(x),))


def _supporting_by_enumeration(dec, x, reach, max_level):
    """Family cubes meeting the box x ± reach, up to max_level, whose
    enlarged box holds x."""
    lo = [xi - reach for xi in x]
    hi = [xi + reach for xi in x]
    return {
        (c.level, c.corner)
        for c in dec.enumerate_in_box(lo, hi, max_level)
        if c.enlarged_contains(x)
    }


def _near_set_queries(A, rng, count, farthest=-3):
    """Points 1e-9 .. 10^farthest away from A, off A."""
    out = []
    while len(out) < count:
        i = rng.integers(len(A.rows))
        if isinstance(A, decomp.BoxUnion):
            base = rng.uniform(A.lo[i], A.hi[i])
            axis = rng.integers(A.n)
            base[axis] = (A.lo, A.hi)[rng.integers(2)][i, axis]  # a point on a face
        else:
            base = A.lo[i]
        u = rng.normal(size=A.n)
        step = 10.0 ** rng.uniform(-9, farthest) * u / np.linalg.norm(u)
        x = tuple(float(v) for v in base + step)
        if A.distance(x) > 0.0:
            out.append(x)
    return out


def test_supporting_cubes_match_brute_force():
    pts = decomp.make_closed_set(points=[[0.0, 0.0], [2.0, 1.0]])
    dec = decomp.Decomposition(pts)
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 200:
        x = tuple(rng.uniform(-4.0, 5.0, size=2))
        if pts.distance(x) < 1e-3:
            continue
        checked += 1
        fast = {(c.level, c.corner) for c, _ in dec.supporting_cubes(x)}
        # any cube whose enlarged box reaches x lies within 1.25 sides of it
        assert fast == _supporting_by_enumeration(dec, x, 1.5, 14), x
    # Near A, a cube C with x in D_C meets the box x ± side_C / 4, so the box
    # x ± 2 side around the home cube meets every such C from three levels
    # coarser than the home cube down to the enumeration's finest level.
    fixtures = [
        pts,
        decomp.make_closed_set(points=rng.uniform(-1.0, 1.0, size=(5, 3))),
        decomp.make_closed_set(
            boxes=[[[-1.0, 0.0], [-1.0, 0.0]], [[0.5, 1.5], [-0.25, 0.75]]]
        ),
    ]
    for A in fixtures:
        dec = decomp.Decomposition(A)
        for x in _near_set_queries(A, rng, 40):
            home = dec.locate(x)
            fast = [c for c, _ in dec.supporting_cubes(x)]
            assert fast == sorted(fast)
            slow = _supporting_by_enumeration(dec, x, 2.0 * home.side, home.level + 2)
            assert {(c.level, c.corner) for c in fast} == slow, x


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_supporting_cubes_match_walk_and_enumeration(n):
    # the two passes against the oracles: the cubes around the home cube of
    # the level-0 walk, found by enumeration, in (level, corner) order, and
    # as their anchors the nearest points of the whole set by the list rule
    # (the rows of a point set), on 360 queries per dimension, half of them
    # 1e-9 .. 1e-1 from A
    rng = np.random.default_rng(300 + n)
    lo = rng.uniform(-1.0, 1.0, size=(4, n))
    fixtures = [
        decomp.make_closed_set(points=rng.uniform(-1.0, 1.0, size=(50, n))),
        decomp.make_closed_set(boxes=[np.stack([l, l + 0.2], axis=1) for l in lo]),
    ]
    for A in fixtures:
        dec = decomp.Decomposition(A)
        far = []
        while len(far) < 90:
            x = tuple(float(v) for v in rng.uniform(-2.5, 2.5, size=n))
            if A.distance(x) > 0.0:
                far.append(x)
        for x in _near_set_queries(A, rng, 90, farthest=-1) + far:
            home = _locate_by_walk(dec, x, 52)
            got = dec.supporting_cubes(x)
            # a cube C with x in D_C meets x ± side_C / 4, and is no coarser
            # than one level above the home cube (module docstring)
            want = _supporting_by_enumeration(dec, x, 0.5 * home.side, home.level + 2)
            assert [(c.level, c.corner) for c, _ in got] == sorted(want), x
            for c, anchor in got:
                assert anchor == _nearest_row_by_list(A, c.center), (x, c)


def test_an_extension_keeps_nothing_per_query():
    # anchors travel with their cubes and nothing is kept between queries:
    # after 2000 scattered queries at n = 3, N = 50, a live Extension holds
    # no more traced memory than after its first 100, up to a fixed slack
    rng = np.random.default_rng(29)
    pts = [(f"p{i}", tuple(rng.uniform(-1, 1, 3))) for i in range(50)]
    jet = jets.Jet(3, 1, 2, pts, {pid: rng.normal(size=(4, 2)) for pid, _ in pts})
    queries = [tuple(float(v) for v in rng.uniform(-1.2, 1.2, 3)) for _ in range(2000)]
    tracemalloc.start()
    try:
        F = extend.Extension(jet)
        for x in queries[:100]:
            F.eval(x)
        gc.collect()
        first = tracemalloc.get_traced_memory()[0]
        for x in queries[100:]:
            F.eval(x)
        gc.collect()
        last = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert last - first < 64 * 1024, (first, last)


def test_supporting_cubes_leave_out_the_boundary_of_d_c():
    # D_C is open: a query exactly 3/4 side from a cube's centre (on an
    # axis) is not in its D_C, as |10.75 - 11.5| = 3/4 for the cube [11, 12];
    # queries snapped to a quarter of the finest window side meet such
    # boundaries often
    dec = decomp.Decomposition(A0)
    assert [c.corner for c, _ in dec.supporting_cubes((10.75,))] == [(10,)]
    rng = np.random.default_rng(12)
    fixtures = [
        decomp.make_closed_set(points=[[0.0, 0.0], [0.75, 0.5]]),
        decomp.make_closed_set(boxes=[[[-1.0, 0.0], [-1.0, 0.0]], [[0.5, 1.5], [0.25, 0.75]]]),
    ]
    for A in fixtures:
        dec = decomp.Decomposition(A)
        for x in _near_set_queries(A, rng, 60, farthest=-1):
            j = dec.locate(x).level + 3
            x = tuple(math.ldexp(round(math.ldexp(xi, j)), -j) for xi in x)
            if A.distance(x) == 0.0:
                continue
            home = dec.locate(x)
            want = _supporting_by_enumeration(dec, x, 0.5 * home.side, home.level + 2)
            assert [(c.level, c.corner) for c, _ in dec.supporting_cubes(x)] == sorted(want), x


def _in_family_by_ancestors(dec, cube):
    """The definition of W: the cube is the first qualifying cube on its own
    ancestor chain."""
    for l in range(cube.level + 1):
        anc = decomp.WhitneyCube(l, tuple(z >> (cube.level - l) for z in cube.corner))
        if dec.cube_distance(anc) >= dec.threshold(l):
            return l == cube.level
    return False


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_in_family_matches_ancestor_walk(n):
    rng = np.random.default_rng(100 + n)
    fixtures = [
        decomp.make_closed_set(points=rng.uniform(-1.0, 1.0, size=(6, n))),
        decomp.make_closed_set(
            boxes=[[[-1.0, 0.0]] * n, [[0.5, 1.5]] + [[-0.25, 0.75]] * (n - 1)]
        ),
    ]
    for A in fixtures:
        dec = decomp.Decomposition(A)
        far = [tuple(float(v) for v in rng.uniform(-3.0, 3.0, size=n)) for _ in range(20)]
        queries = [x for x in far if A.distance(x) > 0.0] + _near_set_queries(A, rng, 20)
        members = 0
        for x in queries:
            home = dec.locate(x)
            for lv in range(max(0, home.level - 2), home.level + 3):
                for _ in range(6):
                    corner = tuple(
                        math.floor(math.ldexp(xi, lv)) + int(o)
                        for xi, o in zip(x, rng.integers(-2, 3, size=n))
                    )
                    cube = decomp.WhitneyCube(lv, corner)
                    expected = _in_family_by_ancestors(dec, cube)
                    assert dec.in_family(cube) == expected, (x, cube)
                    members += expected
        assert members > 0


def test_geometry_invariants_on_enumeration():
    fixtures = [
        decomp.make_closed_set(points=[[-1.0], [1.0]]),
        decomp.make_closed_set(boxes=[[[3.0, 4.0]]]),
        decomp.make_closed_set(points=[[0.0, 0.0], [2.0, 1.0]]),
        decomp.make_closed_set(boxes=[[[-1.0, 0.0], [-1.0, 0.0]]]),
    ]
    for A in fixtures:
        n = A.n
        dec = decomp.Decomposition(A)
        max_level = 6 if n == 1 else 5
        cubes = dec.enumerate_in_box([-3.0] * n, [4.0] * n, max_level)
        assert cubes
        for c in cubes:
            d = dec.cube_distance(c)
            # membership: d >= 4 sqrt(n) / 2^j, maximality gives the upper bound
            assert d >= 4.0 * math.sqrt(n) * c.side
            if c.level >= 1:
                assert d < 10.0 * math.sqrt(n) * c.side
        # touching cubes differ by at most one level; bucket by unit cell so
        # the pair scan stays local
        buckets = {}
        for c in cubes:
            cell = tuple(math.floor(v) for v in c.center)
            buckets.setdefault(cell, []).append(c)
        offsets = [
            tuple(d) for d in np.ndindex(*([3] * n))
        ]
        for cell, group in buckets.items():
            for off in offsets:
                other_cell = tuple(ci + oi - 1 for ci, oi in zip(cell, off))
                for c in group:
                    for other in buckets.get(other_cell, ()):
                        if (c.level, c.corner) < (other.level, other.corner) \
                                and c.touches(other):
                            assert c.side / other.side in (0.5, 1.0, 2.0)


def test_partition_tiles_complement():
    # distinct located cubes never overlap; cube of x always contains x
    dec = decomp.Decomposition(A0)
    rng = np.random.default_rng(6)
    xs = rng.uniform(0.05, 6.0, size=60)
    cubes = {}
    for x in xs:
        c = dec.locate((float(x),))
        assert c.lo[0] <= x < c.hi[0]
        cubes[(c.level, c.corner)] = c
    items = list(cubes.values())
    for i, c in enumerate(items):
        for other in items[i + 1:]:
            overlap = min(c.hi[0], other.hi[0]) - max(c.lo[0], other.lo[0])
            assert overlap <= 0.0 or math.isclose(overlap, 0.0)


def test_locate_determinism():
    dec = decomp.Decomposition(A0)
    a = dec.locate((3.3,))
    for _ in range(5):
        dec.locate((float(np.random.uniform(1, 5)),))
    b = dec.locate((3.3,))
    assert (a.level, a.corner) == (b.level, b.corner)


@given(st.floats(0.01, 100.0))
@settings(max_examples=300, deadline=None)
def test_located_cube_side_comparable_to_distance(x):
    dec = decomp.Decomposition(A0)
    c = dec.locate((x,))
    d = A0.distance((x,))
    assert dec.cube_distance(c) >= 4.0 * c.side
    # below level 0 the side tracks the distance; side-1 cubes cover the far field
    if c.level >= 1:
        assert c.side > d / 16.0


def test_box_union_nearest_point():
    # (2, 0.5) is 1 from both boxes: the row of the lexicographically
    # smaller nearest point (1, 0.5) wins, and that point is its clip
    B = decomp.make_closed_set(boxes=[[[0.0, 1.0], [0.0, 1.0]], [[3.0, 4.0], [0.0, 2.0]]])
    row = B.nearest([(2.0, 0.5)])[0]
    assert row == 0
    assert np.clip((2.0, 0.5), B.lo[row], B.hi[row]).tolist() == [1.0, 0.5]
    assert B.nearest([(2.5, 0.5)])[0] == 1
    assert B.distance((2.0, 0.5)) == 1.0
    assert B.distance((3.5, 1.0)) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_points_as_zero_width_boxes_keep_the_bits(n):
    # a point set spelled as boxes [p, p] is the same set, held the same way:
    # every query gives the bits of the point set
    rng = np.random.default_rng(60 + n)
    pts = rng.uniform(-1.0, 1.0, size=(12, n))
    P = decomp.FinitePoints(pts)
    B = decomp.BoxUnion([np.stack([p, p], axis=1) for p in pts])
    dp, db = decomp.Decomposition(P), decomp.Decomposition(B)
    queries = _near_set_queries(P, rng, 15, farthest=-1)
    queries += [tuple(float(v) for v in rng.uniform(-2.0, 2.0, size=n)) for _ in range(15)]
    for x in queries:
        assert B.distance(x) == P.distance(x)
        (d1, near1), (d2, near2) = P.reach(x), B.reach(x)
        assert d1 == d2
        assert near1(2.0 * d1).rows.tolist() == near2(2.0 * d2).rows.tolist()
        assert B.nearest([x])[0] == P.nearest([x])[0]
        assert db.locate(x) == dp.locate(x)
        assert db.supporting_cubes(x) == dp.supporting_cubes(x)
    assert db.supporting_cubes_batch(queries) == dp.supporting_cubes_batch(queries)
    lo, hi = [-1.5] * n, [1.5] * n
    cubes = dp.enumerate_in_box(lo, hi, 3 if n < 3 else 2)
    assert db.enumerate_in_box(lo, hi, 3 if n < 3 else 2) == cubes
    assert [db.cube_distance(c) for c in cubes] == [dp.cube_distance(c) for c in cubes]


def test_box_union_distances_match_references():
    # at non-dyadic queries and bounds, the distance to a union of boxes is
    # within 2 ulp of the 50-digit distance to the exact float bounds
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 4):
        lo = rng.uniform(-1.0, 1.0, size=(5, n)) * 0.7
        hi = lo + rng.uniform(0.0, 0.3, size=(5, n))
        B = decomp.BoxUnion(list(np.stack([lo, hi], axis=-1)))
        for _ in range(200):
            x = (rng.uniform(-2.0, 2.0, size=n) / 3.0).tolist()
            ref = min(
                mpmath.sqrt(sum(max(0, mpmath.mpf(l) - xi, xi - mpmath.mpf(h)) ** 2 for l, xi, h in zip(lr, x, hr)))
                for lr, hr in zip(lo.tolist(), hi.tolist())
            )
            got = B.distance(tuple(x))
            assert abs(got - ref) <= 2 * math.ulp(float(ref)), (x, got, ref)


def _locate_by_walk(dec, x, j_max):
    """The level-0 walk: the first qualifying dyadic ancestor of x."""
    row = dec.A._contains(x)
    if row is not None:
        raise decomp.OnSet(x, row)
    for j in range(j_max + 1):
        cube = decomp.WhitneyCube(j, tuple(math.floor(math.ldexp(xi, j)) for xi in x))
        if dec.cube_distance(cube) >= dec.threshold(j):
            return cube
    raise decomp.ResolutionExceeded(x, j_max)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (decomp.OnSet, decomp.ResolutionExceeded) as err:
        return type(err)


def _locate_queries(A, rng, count):
    """Queries 1e-9 .. 1e-1 from A, some snapped to dyadic boundaries; far
    ones, whose level-0 cube already qualifies (A lies within 1.3 sqrt(n)
    of the origin); points of A; and points a subnormal step or 1e-160 from
    the origin, which is in A."""
    n = A.n
    near = _near_set_queries(A, rng, count)
    near += [
        tuple(float(v) for v in a + 10.0 ** rng.uniform(-3, -1) * rng.choice([-1, 1], n))
        for a in (np.array(x) for x in near[: count // 2])
    ]
    snapped = []
    for x in near[: count // 2]:
        j = int(rng.integers(0, 34))
        snapped.append(tuple(math.ldexp(math.floor(math.ldexp(xi, j)), -j) for xi in x))
    far = []
    for _ in range(count // 4):
        u = rng.normal(size=n)
        far.append(tuple(float(v) for v in (2.0 + 7.0 * math.sqrt(n)) * u / np.linalg.norm(u)))
    on = [tuple(float(v) for v in (l + h) / 2.0) for l, h in zip(A.lo[:3], A.hi[:3])]
    tiny = [
        tuple(s if i == axis else 0.0 for i in range(n))
        for axis in range(n)
        for s in (5e-324, -5e-324, 1e-160)
    ]
    return near + snapped + far + on + tiny


def _closed_sets(n, size, rng):
    pts = rng.uniform(-1.0, 1.0, size=(size, n))
    pts[0] = 0.0
    yield decomp.make_closed_set(points=pts)
    lo = rng.uniform(-1.0, 1.0, size=(size, n))
    lo[0] = 0.0
    wide = rng.uniform(0.0, 0.3 / size, size=(size, n))  # leave room for queries off A
    yield decomp.make_closed_set(boxes=[np.stack([l, l + w], axis=1) for l, w in zip(lo, wide)])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_locate_matches_level0_walk(n):
    # the block of `_start_level` must hold the cube the walk from level 0
    # finds, or raise the same OnSet / ResolutionExceeded, at the default
    # j_max and at small ones, with one stacked pass per query off A at the
    # default j_max
    rng = np.random.default_rng(200 + n)
    calls = off_set = 0
    outcomes = set()
    for size in (1, 8, 200):
        for A in _closed_sets(n, size, rng):
            reach = A.reach

            def counted(x):
                # d(x,A) and the set's reach, counting the stacked passes
                d, near = reach(x)

                def scan(r):
                    nonlocal calls
                    calls += 1
                    return near(r)

                return d, scan

            queries = _locate_queries(A, rng, 40 if size < 200 else 8)
            for j_max in (52, 0, 3, 9):
                dec = decomp.Decomposition(A, j_max=j_max)
                for x in queries:
                    expected = _outcome(_locate_by_walk, dec, x, j_max)
                    A.reach = counted if j_max == 52 else reach
                    try:
                        got = _outcome(dec.locate, x)
                    finally:
                        del A.reach
                    off_set += j_max == 52 and got is not decomp.OnSet
                    assert got == expected, (x, j_max)
                    if isinstance(got, decomp.WhitneyCube):
                        start = dec._start_level(A.distance(x))
                        assert start <= got.level <= start + 2, (x, j_max)
                    outcomes.add(got.level if isinstance(got, decomp.WhitneyCube) else got)
    assert {0, decomp.OnSet, decomp.ResolutionExceeded} <= outcomes
    assert max(o for o in outcomes if isinstance(o, int)) > 30
    assert calls == off_set, (calls, off_set)


def _threshold_queries(n):
    """Points at the distances 4 sqrt(n) 2^-k f from the origin, for k =
    -2..47 and f at and around the factors where a level's threshold meets
    d(x,A) (1) or where level s + 2 is closest to failing (0.8, 1.25,
    0.625), on an axis, the diagonal and a fixed direction."""
    rng = np.random.default_rng(40 + n)
    dirs = [np.eye(n)[0], np.ones(n) / math.sqrt(n), rng.normal(size=n)]
    dirs[2] /= np.linalg.norm(dirs[2])
    factors = (1.0 - 2.0**-50, 1.0, 1.0 + 2.0**-50, 0.8, 0.7999, 0.8001, 1.25, 0.625)
    return [
        tuple((math.ldexp(4.0 * math.sqrt(n) * f, -k) * u).tolist())
        for k in range(-2, 48)
        for f in factors
        for u in dirs
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_home_level_lies_in_the_start_block(n):
    # `_start_level` proves that the home level is one of s .. s + 2; at
    # distances where a threshold meets d(x,A), or where level s + 2 is
    # closest to failing, both searches find a home cube of W there: the
    # one-query search a cube that qualifies and whose parent does not,
    # and the block search, which settles every query, the same cube among
    # the supporting cubes of the query
    A = decomp.FinitePoints([[0.0] * n, [100.0] * n])
    dec = decomp.Decomposition(A)
    xs = _threshold_queries(n)
    found = dec._search_block(np.array(xs))
    assert all(f is not None for f in found)
    assert dec.supporting_cubes_batch(xs) == found
    levels = set()
    for x, cubes in zip(xs, found):
        start = dec._start_level(A.distance(x))
        home = dec.locate(x)
        assert start <= home.level <= start + 2 and dec.in_family(home), x
        holding = [c for c, _ in cubes if c.corner == tuple(math.floor(math.ldexp(xi, c.level)) for xi in x)]
        assert holding == [home], x
        levels.add(home.level - start)
    assert levels == ({0, 1} if n == 1 else {0, 1, 2})  # on the line, level s + 1 qualifies at all of them


def _nearest_row_by_list(A, x):
    """The list rule: the first row holding the lexicographically smallest
    of the nearest points clip(x, lo, hi) of all boxes of A (the points of
    a point set)."""
    x = np.asarray(x, float)
    points = np.clip(x, A.lo, A.hi)
    d2 = np.sum((points - x) ** 2, axis=1)
    p = min(tuple(q) for q, d in zip(points, d2) if d == d2.min())
    return next(i for i, (q, d) in enumerate(zip(points, d2)) if tuple(q) == p and d == d2.min())


def _integer_sets(n, size, rng):
    """A point set of small integers, and a union of boxes whose bounds are
    integers and half-integers, some of zero width, so that ties are exact."""
    yield decomp.FinitePoints(rng.integers(-3, 4, size=(size, n)).astype(float))
    lo = rng.integers(-6, 7, size=(size, n)) / 2.0
    hi = lo + rng.integers(0, 3, size=(size, n)) / 2.0
    yield decomp.BoxUnion(list(np.stack([lo, hi], axis=-1)))


def test_candidate_scans_match_full_scans():
    # a pass scans only the rows within d + 2 rho of x, rho the widest
    # reach of its stack of boxes; the stacked box distances must be the
    # full scans' bit for bit, and the nearest rows to the points of the
    # boxes (the anchor pass) the full scans' too, on small-integer point
    # sets and box unions (duplicate rows, exact ties) queried at integer
    # and half-integer points, boxes and centres, each box alone and the
    # whole stack at once
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        for size in (1, 6, 40):
            for A in _integer_sets(n, size, rng):
                for _ in range(12):
                    x = tuple(float(v) for v in rng.integers(-8, 9, size=n) / 2.0)
                    if A._contains(x) is not None:
                        continue
                    d, reach = A.reach(x)
                    assert d == A.distance(x)
                    lo = rng.integers(-8, 9, size=(8, n)) / 2.0
                    hi = lo + rng.integers(0, 4, size=(8, n)) / 2.0
                    want = [A.box_distances(lo[i : i + 1], hi[i : i + 1])[0] for i in range(len(lo))]
                    stack = decomp._candidates(x, d, reach, lo, hi)
                    assert stack.box_distances(lo, hi).tolist() == want, (A.lo, A.hi, x, lo, hi)
                    for i in range(len(lo)):
                        alone = decomp._candidates(x, d, reach, lo[i : i + 1], hi[i : i + 1])
                        assert alone.box_distances(lo[i : i + 1], hi[i : i + 1])[0] == want[i]
                        c = tuple((lo[i] + (hi[i] - lo[i]) * rng.integers(0, 3, size=n) / 2.0).tolist())
                        assert alone.nearest([c])[0] == A.nearest([c])[0], (A.lo, A.hi, x, c)
                        assert stack.nearest([c])[0] == A.nearest([c])[0], (A.lo, A.hi, x, c)
    # a tie exactly at the candidate radius: from x = 0 with d = 1, the
    # centre -2 of the box [-2, -2] (rho = 2) is 3 from both 1 and -5, and
    # -5 = -(d + 2 rho) wins the lexicographic tie-break; the box is 3 from
    # both too
    A = decomp.FinitePoints([[1.0], [-5.0], [9.0]])
    d, reach = A.reach((0.0,))
    box = np.array([[-2.0]])
    scan = decomp._candidates((0.0,), d, reach, box, box)
    assert scan.nearest([(-2.0,)])[0] == 1 == A.nearest([(-2.0,)])[0]
    assert scan.box_distances(box, box).tolist() == [3.0]
    assert scan.lo.tolist() == scan.hi.tolist() == [[1.0], [-5.0]]
    # the same tie from boxes: from x = 0, [1, 3] is at d = 1, the centre -2
    # is 3 from both [1, 3] and [-6, -5], and the nearest point -5 =
    # -(d + 2 rho) of [-6, -5] wins the tie-break
    A = decomp.BoxUnion([[[1.0, 3.0]], [[-6.0, -5.0]], [[9.0, 10.0]]])
    d, reach = A.reach((0.0,))
    scan = decomp._candidates((0.0,), d, reach, box, box)
    assert scan.nearest([(-2.0,)])[0] == 1 == A.nearest([(-2.0,)])[0]
    assert scan.box_distances(box, box).tolist() == [3.0]
    assert scan.rows.tolist() == [0, 1]


def test_nearest_tie_break_matches_list_rule():
    # exact ties: the corners of a square around the query, duplicated rows,
    # and small-integer point sets and box unions queried at integer and
    # half-integer points
    square = decomp.FinitePoints([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
    assert square.nearest([(0.0, 0.0)])[0] == 3  # (-1, -1)
    dup = decomp.FinitePoints([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0], [0.0, 2.0]])
    assert dup.nearest([(1.0, 1.0)])[0] == 1  # the first row of (0, 2)
    # the same for boxes: four unit squares at the corners of [-2, 2]^2,
    # each sqrt(2) from the origin, and repeated boxes
    square = decomp.BoxUnion(
        [[[1.0, 2.0], [1.0, 2.0]], [[-2.0, -1.0], [1.0, 2.0]], [[1.0, 2.0], [-2.0, -1.0]], [[-2.0, -1.0], [-2.0, -1.0]]]
    )
    assert square.nearest([(0.0, 0.0)])[0] == 3  # nearest point (-1, -1)
    dup = decomp.BoxUnion([[[2.0, 3.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 3.0]]] * 2)
    assert dup.nearest([(1.0, 1.0)])[0] == 1  # the first row of nearest point (0, 2)
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        for size in (1, 5, 40):
            for A in _integer_sets(n, size, rng):
                xs = [tuple(float(v) for v in rng.integers(-6, 7, size=n) / 2.0) for _ in range(30)]
                got = A.nearest(xs)  # all the points at once
                assert got == [_nearest_row_by_list(A, x) for x in xs], (A.lo, A.hi, xs)
                assert all(type(row) is int for row in got)


@pytest.mark.parametrize("n", range(1, 8))
def test_squares_keep_the_bits_of_numpys_row_reduction(n):
    # below 8 coordinates numpy's reduction along a row adds in coordinate
    # order, as _squares does, so the norms keep their bits
    rng = np.random.default_rng(70 + n)
    v = rng.standard_normal((200_000, n)) * 10.0 ** rng.uniform(-150, 150, (200_000, n))
    want = np.add.reduce(v * v, axis=-1)
    assert np.array_equal(decomp._squares(np.ascontiguousarray(v.T)), want)
    assert np.array_equal(decomp._squares(v.T), want)


def test_box_union_takes_its_boxes_as_one_array():
    boxes = np.array([[[0.0, 1.0], [2.0, 3.0]], [[4.0, 5.0], [-1.0, 0.0]]])
    A, B = decomp.BoxUnion(boxes), decomp.BoxUnion(list(boxes))
    assert A.lo.tolist() == B.lo.tolist() == [[0.0, 2.0], [4.0, -1.0]]
    assert A.hi.tolist() == B.hi.tolist() == [[1.0, 3.0], [5.0, 0.0]]
    assert decomp.BoxUnion(np.zeros((2, 1, 2))).lo.tolist() == [[0.0], [0.0]]
    with pytest.raises(ValueError, match="^closed set must be non-empty$"):
        decomp.BoxUnion(np.zeros((0, 1, 2)))


def _search_alone(dec, x):
    try:
        return dec.supporting_cubes(x)
    except decomp.OnSet as on:
        return ("on", on.row)


def _search_batch(dec, xs):
    return [("on", g.row) if isinstance(g, decomp.OnSet) else g for g in dec.supporting_cubes_batch(xs)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batch_search_matches_per_query_search(n, monkeypatch):
    # the block passes give every query the cubes, their order and the
    # anchor rows of its own search, on point sets and box unions: queries
    # 1e-9 .. 1e-1 from A, on dyadic boundaries, far away, on A, at
    # half-integers next to small-integer sets (exact distance ties), near
    # a cube centre equidistant from 2^n points (an anchor tie), and with
    # corners beyond 2^51 (searched alone); batches of 1, 2, 3 and 16
    # queries, and a batch of several blocks
    rng = np.random.default_rng(80 + n)
    ties = decomp.FinitePoints(list(itertools.product((21.0, -20.0), repeat=n)))  # (-20, ...) last
    for A in [*_closed_sets(n, 30, rng), *_integer_sets(n, 12, rng), ties]:
        dec = decomp.Decomposition(A)
        xs = _locate_queries(A, rng, 12)
        xs += [tuple(float(v) for v in rng.integers(-8, 9, size=n) / 2.0) for _ in range(10)]
        xs += [tuple(float(v) for v in 0.5 + rng.uniform(-0.7, 0.7, size=n)) for _ in range(10)]
        xs += [(1e17,) * n, (-3e15,) + (0.5,) * (n - 1)]
        xs = [x for x in xs if _outcome(dec.supporting_cubes, x) is not decomp.ResolutionExceeded]
        want = [_search_alone(dec, x) for x in xs]
        # a block settles every query off A whose corners stay below 2^51
        alone = [A.distance(x) == 0.0 or max(map(abs, x)) > 1e10 for x in xs]
        for size in (1, 2, 3, 16):
            for i in range(0, len(xs), size):
                got = dec._search_block(np.array(xs[i : i + size]))
                assert [g is None for g in got] == alone[i : i + size]
                assert all(g == w for g, w in zip(got, want[i : i + size]) if g is not None)
        assert _search_batch(dec, xs) == want
        monkeypatch.setattr(decomp, "_BLOCK", 4 * A.lo.size)  # blocks of 4 queries
        assert _search_batch(dec, xs) == want
        monkeypatch.undo()
    # the equidistant centre anchors to the lexicographically smallest point
    found = decomp.Decomposition(ties).supporting_cubes_batch([(0.5,) * n] * 3)
    assert all((decomp.WhitneyCube(0, (0,) * n), 2**n - 1) in f for f in found)


def test_batch_search_raises_what_its_first_failing_query_raises():
    dec = decomp.Decomposition(decomp.FinitePoints([[0.0, 0.0], [1.0, 0.5]]))
    fine = [(0.3, 0.2), (2.0, 2.0), (0.5, 0.5), (0.0, 0.0)]
    deep = (1e-160, 0.0)
    with pytest.raises(decomp.ResolutionExceeded) as alone:
        dec.supporting_cubes(deep)
    for xs in (fine[:2] + [deep] + fine[2:], fine + [deep, (math.nan, 0.0)]):
        with pytest.raises(decomp.ResolutionExceeded) as batch:
            dec.supporting_cubes_batch(xs)
        assert str(batch.value) == str(alone.value) and batch.value.point == alone.value.point
    with pytest.raises(ValueError, match="not finite"):
        dec.supporting_cubes_batch(fine + [(math.nan, 0.0), deep])
    with pytest.raises(ValueError, match="has dimension 1, expected 2"):
        dec.supporting_cubes_batch(fine + [(0.5,), deep])


@pytest.mark.parametrize(
    "n, span, counts",
    [(2, (-1.2, 1.2), (400, 4000)), (2, (5.0, 10.0), (200, 2000)), (4, (5.0, 10.0), (65, 260))],
    ids=["near-2d", "far-2d", "far-4d"],
)
def test_batch_search_memory_is_bounded_in_the_query_count(n, span, counts):
    # a batch is searched by blocks of queries, and a block's (box,
    # candidate row) pairs by chunks: beyond the result, a search of many
    # queries at N = 1000 holds what one of a tenth or a quarter as many
    # holds, also far from A, where every row is a candidate of every box
    # (the whole batch at once would need 64 MB for its distance scan
    # alone, and far queries' pairs at once 150 MB and more)
    rng = np.random.default_rng(8)
    dec = decomp.Decomposition(decomp.FinitePoints(rng.uniform(-1.0, 1.0, (1000, n))))
    working = {}
    for count in counts:
        xs = [tuple(v) for v in rng.uniform(*span, (count, n)).tolist()]
        tracemalloc.start()
        try:
            found = dec.supporting_cubes_batch(xs)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(found) == count and all(found)
        working[count] = peak - held
    small, large = counts
    assert working[large] < 8 * 2**20 and working[large] < 1.5 * working[small] + 2**18, working
