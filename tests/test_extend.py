"""The extension operator: fixed degree, adaptive degree, linearity,
derivative consistency, boundary recovery."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whitneyext import decomp, extend, jets, pou, taylorarith
from whitneyext import exprlang as el
from whitneyext import multiindex as mi


def jet_of(src, pts, k, n=1):
    f = el.VectorExpr.parse([src] if isinstance(src, str) else src, n)
    return jets.Jet.from_expr(f, [(f"p{i}", tuple(p)) for i, p in enumerate(pts)], k)


def test_single_anchor_forces_taylor_polynomial():
    # A={0}, jet (f0,f1) = (0,1): every anchor is 0, so F(x) = x off A
    j = jets.Jet(1, 1, 1, [("o", (0.0,))], {"o": np.array([[0.0], [1.0]])})
    F = extend.Extension(j)
    for x in (0.3, -1.7, 5.0, 123.25):
        assert F.eval((x,))[0] == pytest.approx(x, rel=1e-14)


def test_values_on_set_are_stored_values():
    j = jet_of("exp(x0)", [(0.0,), (1.0,), (-2.0,)], 2)
    F = extend.Extension(j)
    for pid in j.ids:
        x = j.coords[pid]
        assert F.eval(x)[0] == j.values[pid][0, 0]
        ders = F.eval_derivs(x)
        for alpha in j.indices:
            assert np.array_equal(ders[alpha], j.value(pid, alpha))


def test_order_zero_convex_combination():
    j = jets.Jet(1, 0, 1, [("a", (-1.0,)), ("b", (1.0,))],
                 {"a": np.array([[0.0]]), "b": np.array([[1.0]])})
    F = extend.Extension(j)
    rng = np.random.default_rng(15)
    for x in rng.uniform(-4, 4, size=50):
        if abs(x + 1) < 1e-9 or abs(x - 1) < 1e-9:
            continue
        v = F.eval((float(x),))[0]
        assert -1e-12 <= v <= 1.0 + 1e-12
    assert F.eval((-1.0,))[0] == 0.0
    assert F.eval((1.0,))[0] == 1.0


def test_polynomial_reproduction():
    src = "1 + 2*x0 - x0^2 + x0*x1 - 3*x1^2"
    j = jet_of(src, [(0.0, 0.0), (1.0, 0.5), (-1.0, 2.0)], 2, n=2)
    F = extend.Extension(j)
    p = el.parse(src, 2)
    rng = np.random.default_rng(16)
    for _ in range(300):
        x = tuple(rng.uniform(-3, 3, size=2))
        want = el.eval_real(p, x)
        got = F.eval(x)[0]
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_second_derivative_of_quadratic_everywhere_two():
    j = jet_of("x0^2", [(0.0,)], 2)
    F = extend.Extension(j)
    for x in (0.5, -2.0, 7.3):
        d = F.eval_derivs((x,))
        assert d[(2,)][0] == pytest.approx(2.0, rel=1e-12)


def test_eval_derivs_match_finite_differences():
    j = jet_of("sin(x0)", [(-1.0,), (0.5,), (2.0,)], 3)
    F = extend.Extension(j)
    h = 1e-5
    for x in (0.1, 1.4, -0.4, 3.0):
        d = F.eval_derivs((x,), upto=1)
        fd = (F.eval((x + h,))[0] - F.eval((x - h,))[0]) / (2 * h)
        assert d[(1,)][0] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_eval_derivs_upto_truncates():
    j = jet_of("exp(x0)", [(0.0,), (1.0,)], 3)
    F = extend.Extension(j)
    d = F.eval_derivs((0.4,), upto=1)
    assert set(d) == {(0,), (1,)}
    with pytest.raises(ValueError):
        F.eval_derivs((0.4,), upto=4)


def test_requested_degree_below_jet_order():
    j = jet_of("exp(x0)", [(0.0,), (1.0,)], 3)
    F1 = extend.Extension(j, k=1)
    assert F1.k == 1
    with pytest.raises(ValueError):
        extend.Extension(j, k=4)
    with pytest.raises(ValueError):
        extend.Extension(j, k=-1)


def test_jet_recovery_near_set():
    # offset 1e-4 pairs with the 1e-3 bound: the order-2 derivative columns
    # carry cancellation noise ~eps * max|s''| / d^2, which stays below the
    # bound at this distance but would exceed it by 1e-5
    j = jet_of("exp(x0)*sin(x1)", [(0.0, 0.0), (1.0, 0.5), (-0.5, 1.0)], 2, n=2)
    F = extend.Extension(j)
    norm = j.seminorm(2)
    rng = np.random.default_rng(17)
    for pid in j.ids:
        p = np.array(j.coords[pid])
        for _ in range(8):
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            x = tuple(p + 1e-4 * u)
            ders = F.eval_derivs(x)
            for alpha in j.indices:
                dev = np.max(np.abs(ders[alpha] - j.value(pid, alpha)))
                assert dev < 1e-3 * (1.0 + norm)


def test_resolution_exceeded_off_set_but_too_close():
    j = jet_of("x0", [(0.0,)], 1)
    F = extend.Extension(j)
    with pytest.raises(decomp.ResolutionExceeded):
        F.eval((1e-30,))


def test_eval_batch_matches_eval():
    j = jet_of("sin(x0)", [(-1.0,), (2.0,)], 2)
    F = extend.Extension(j)
    xs = [(0.3,), (1.1,), (-0.2,), (4.0,)]
    batch = F.eval_batch(xs)
    for row, x in zip(batch, xs):
        assert np.array_equal(row, F.eval(x))


_KINDS = ("on", "near", "far", "between", "same", "close", "huge", "nan")


def _batch_query(kind, pts, rng, earlier):
    a = np.array(pts[int(rng.integers(len(pts)))][1])
    if kind == "on":
        return tuple(a)
    if kind == "near":
        return tuple(a + rng.normal(size=a.size) * 1e-4)
    if kind == "far":
        return tuple(rng.uniform(-4, 4, a.size))
    if kind == "between":  # on the segment from p0 to p1
        p0, p1 = np.array(pts[0][1]), np.array(pts[1][1])
        return tuple(p0 + rng.uniform(0.2, 0.8) * (p1 - p0))
    if kind == "same":
        return earlier[-1] if earlier else tuple(a + 0.25)
    if kind == "close":  # off A, an ulp away: below the dyadic resolution
        return (float(np.nextafter(a[0], np.inf)),) + tuple(a[1:])
    if kind == "huge":  # the second-order Taylor terms overflow here
        return (1e150,) * a.size
    return (math.nan,) * a.size


@given(
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(_KINDS), min_size=1, max_size=8),
    st.sampled_from(["values", "derivs", "adaptive"]),
)
@settings(max_examples=150, deadline=None)
def test_batch_rows_match_singleton_calls(n, seed, kinds, mode):
    # a batch is its rows: each row has the bits of the call on its query
    # alone, on A, near it, far from it and repeated; and a batch with
    # failing queries raises what the first of them raises alone, whichever
    # stage a later one fails at.  The second-order values are large, so
    # that the Taylor rows at 1e150 overflow; the first-order values at p0
    # and p1 are +-1.7e308, so that their Taylor rows, or the derivatives of
    # the blend between them, overflow; and the schedule asks for degree 3
    # of the order-2 jet within 0.05 of A.  (A point of A is no error: its row is the jet there, so
    # OnSet cannot reach a caller.)
    rng = np.random.default_rng(seed)
    k, m = 2, 2
    pts = [(f"p{i}", tuple(rng.uniform(-1, 1, n))) for i in range(5)]
    scale = np.where(np.sum(mi.enumerate_upto(n, k), axis=1) == 2, 1e10, 1.0)[:, None]
    values = {pid: rng.normal(size=(len(scale), m)) * scale for pid, _ in pts}
    values["p0"][1 : n + 1] = 1.7e308
    values["p1"][1 : n + 1] = -1.7e308
    F = extend.Extension(jets.Jet(n, k, m, pts, values), schedule=(8.0, 2.0, 0.05))
    xs = []
    for kind in kinds:
        xs.append(_batch_query(kind, pts, rng, xs))
    one, batch = {
        "values": (F.eval, F.eval_batch),
        "derivs": (lambda x: F.derivs(x, 1), lambda xs: F.blend(xs, 1)),
        "adaptive": (F.eval_adaptive, lambda xs: F.blend(xs, adaptive=True)[:, 0]),
    }[mode]
    rows = []
    for x in xs:
        try:
            rows.append(one(x))
        except (ValueError, decomp.ResolutionExceeded, extend.ScheduleExhausted) as err:
            with pytest.raises(type(err)) as info:
                batch(xs)
            assert type(info.value) is type(err) and str(info.value) == str(err)
            return
    assert batch(xs).tobytes() == np.array(rows).tobytes()


def test_batch_raises_for_the_first_failing_row():
    # slopes -+1.7e308 at 0 and 1: F'(0.51) leaves the float range in the
    # last stage, the blend, while 1e-17 fails the first, the cube search,
    # and at 2.5 the Taylor rows anchored at 1 overflow
    j = jets.Jet(1, 1, 1, [("a", (0.0,)), ("b", (1.0,))],
                 {"a": [[0.0], [-1.7e308]], "b": [[0.0], [1.7e308]]})
    F = extend.Extension(j)
    blend = r"^the derivatives of the extension overflow at \(0\.51,\)$"
    for later in [(1e-17,)], [(2.5,)], [(2.5,), (1e-17,)]:
        with pytest.raises(ValueError, match=blend):
            F.blend([(0.5,), (0.51,), *later], 1)
    taylor = r"^the order-1 Taylor polynomial anchored at \(1\.0,\) overflows at \(2\.5,\)$"
    with pytest.raises(ValueError, match=taylor):
        F.blend([(2.5,), (0.51,)], 1)
    with pytest.raises(decomp.ResolutionExceeded):
        F.blend([(0.5,), (1e-17,), (0.51,)], 1)
    assert F.blend([(0.5,), (0.0,)], 1).tolist() == [[[-8.5e307], [0.0]], [[0.0], [-1.7e308]]]


@given(
    st.integers(1, 3),
    st.integers(0, 3),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.one_of(st.none(), st.integers(1, 9)),
)
@settings(max_examples=150, deadline=None)
def test_values_are_row_zero_of_the_derivatives(n, k, npts, seed, near):
    # one blend: F(x) has the bits of the order-0 row of every derivative
    # query, near A (offset 10^-near from a point) and far from it
    rng = np.random.default_rng(seed)
    pts = [(f"p{i}", tuple(rng.uniform(-1, 1, n))) for i in range(npts)]
    ncoef = mi.count_upto(n, k)
    j = jets.Jet(n, k, 2, pts, {pid: rng.normal(size=(ncoef, 2)) for pid, _ in pts})
    F = extend.Extension(j)
    if near is None:
        x = tuple(rng.uniform(-4, 4, n))
    else:
        x = tuple(np.add(pts[0][1], rng.normal(size=n) * 10.0**-near))
    value = F.eval(x)
    assert np.array_equal(value, F.derivs(x, 0)[0])
    assert np.array_equal(value, F.eval_derivs(x)[(0,) * n])


def test_cubes_with_zero_psi_are_left_out():
    # x sits 0.7495 side lengths from the center of the cube [10, 11], where
    # its psi underflows to 0: that cube is left out, and the blend starts
    # from the cube [11, 12]
    j = jet_of("1 + x0 + x0^2", [(0.0,)], 2)
    F = extend.Extension(j)
    x = (11.2495,)
    cubes = F.dec.supporting_cubes(x)
    assert [c.corner for c, _ in cubes] == [(10,), (11,)]
    assert F.supporting_count(x) == 1
    assert np.array_equal(F.eval(x), F.derivs(x)[0])
    assert F.eval(x)[0] == pytest.approx(1 + x[0] + x[0] ** 2, rel=1e-14)


def test_supporting_count_bounded():
    j = jet_of("exp(x0)*x1", [(0.0, 0.0), (2.0, 1.0)], 2, n=2)
    F = extend.Extension(j)
    rng = np.random.default_rng(18)
    worst = 0
    n_checked = 0
    while n_checked < 200:
        x = tuple(rng.uniform(-3, 4, size=2))
        if F.A.distance(x) < 1e-6:
            continue
        n_checked += 1
        worst = max(worst, F.supporting_count(x))
    assert worst <= 12  # stable small constant in the plane


# -- adaptive degree ---------------------------------------------------------------


def test_schedule_validation():
    j = jet_of("exp(x0)", [(0.0,)], 3)
    extend.Extension(j, schedule=(4.0, 1.5, 0.5))  # fine: each < half previous
    with pytest.raises(ValueError):
        extend.Extension(j, schedule=())
    with pytest.raises(ValueError):
        extend.Extension(j, schedule=(-1.0,))
    with pytest.raises(ValueError):
        extend.Extension(j, schedule=(4.0, 2.0))  # not < half
    with pytest.raises(ValueError):
        extend.Extension(j, schedule=(1.0, 0.6))


def test_adaptive_far_field_degree_collapses_to_zero():
    j = jet_of("exp(x0)", [(0.0,)], 3)
    Fa = extend.Extension(j, schedule=(1e-6,))
    F0 = extend.Extension(j, k=0)
    for x in (0.5, -2.0, 3.3):
        assert Fa.eval_adaptive((x,))[0] == pytest.approx(F0.eval((x,))[0], rel=1e-14)


def test_adaptive_matches_fixed_when_degree_realized():
    # pick x so that d(y_C, A) selects schedule slot 2 for every contributing
    # cube: then adaptive equals the fixed k=2 evaluation.  At x=1 the cube
    # centers sit at distances ~0.9-1.4, all inside [0.5, 1.5).
    j = jet_of("exp(x0)", [(0.0,)], 3)
    Fa = extend.Extension(j, schedule=(4.0, 1.5, 0.5))
    F2 = extend.Extension(j, k=2)
    x = (1.0,)
    assert Fa.eval_adaptive(x)[0] == pytest.approx(F2.eval(x)[0], rel=1e-14)
    # quadratic of exp anchored at 0, evaluated at 1: 1 + 1 + 1/2
    assert Fa.eval_adaptive(x)[0] == pytest.approx(2.5, rel=1e-14)
    # farther out only slot 1 is realized: linearization 1 + x at x = 2
    assert Fa.eval_adaptive((2.0,))[0] == pytest.approx(3.0, rel=1e-14)


def test_adaptive_schedule_exhausted():
    j = jet_of("exp(x0)", [(0.0,)], 1)
    F = extend.Extension(j, schedule=(8.0, 3.0, 1.0))
    with pytest.raises(extend.ScheduleExhausted):
        F.eval_adaptive((0.05,))  # would need degree 3 > stored order 1


def test_adaptive_error_tracks_taylor_remainder():
    j = jet_of("exp(x0)", [(0.0,)], 4)
    F = extend.Extension(j, schedule=(2.0, 0.9, 0.4, 0.15))
    rng = np.random.default_rng(19)
    for x in rng.uniform(-0.5, 0.5, size=40):
        if abs(x) < 1e-6:
            continue
        got = F.eval_adaptive((float(x),))[0]
        # worst contributing degree bound: remainder of the order-g Taylor
        # polynomial of exp at 0, g >= 1 here since |x| < 0.4 region uses
        # higher slots; use the crude bound e^{|x|} |x|^{g+1}/(g+1)! with g=1
        bound = math.exp(abs(x)) * abs(x) ** 2 / 2.0
        assert abs(got - math.exp(x)) <= bound * 1.01


def test_queries_scan_only_their_views():
    # after d(x, A) is measured, no evaluation scans the whole set: the
    # passes of the cube search and the anchors run on candidate subsets, a
    # degree reads d(y_C, A) off the cube's anchor row, and a query off A
    # is not looked up in the set
    rng = np.random.default_rng(23)
    pts = [(f"p{i}", tuple(rng.uniform(-1, 1, 2))) for i in range(60)]
    j = jets.Jet(2, 2, 1, pts, {pid: rng.normal(size=(6, 1)) for pid, _ in pts})
    F = extend.Extension(j, schedule=(0.3, 0.05))
    grid = [(float(a), float(b)) for a in np.linspace(-1.1, 1.1, 7) for b in np.linspace(-1.1, 1.3, 5)]
    want = [F.blend(grid), F.blend(grid, 2), F.blend(grid, adaptive=True)]

    def full_scan(*args):
        raise AssertionError("a scan of the whole set")

    F = extend.Extension(j, schedule=(0.3, 0.05))
    F.A.distance = F.A.box_distances = F.A.nearest = full_scan
    F.A._contains = full_scan
    # and a successful batch is searched once: by blocks, whose passes
    # measure each box against a few candidate rows, not the set; a batch
    # of one or two queries, by one-query searches
    searches, pairs = [], [0, 0]
    batch, alone, scan = F.dec.supporting_cubes_batch, F.dec.supporting_cubes, F.dec._block_scan
    F.dec.supporting_cubes_batch = lambda xs: searches.append(list(xs)) or batch(xs)
    F.dec.supporting_cubes = lambda x: searches.append(x) or alone(x)

    def counted(x, d, d2, lo, *rest):
        pairs[0] += lo.shape[1] * len(F.A.rows)
        before = decomp._gap_squares

        def measured(lo, hi, alo, ahi):
            pairs[1] += alo.shape[-1]
            return before(lo, hi, alo, ahi)

        decomp._gap_squares = measured
        try:
            return scan(x, d, d2, lo, *rest)
        finally:
            decomp._gap_squares = before

    F.dec._block_scan = counted
    got = []
    for args in [(), (2,), (0, True)]:
        searches.clear()
        got.append(F.blend(grid, *args))
        assert searches == [grid]
        for few in (grid[:1], grid[-2:]):
            searches.clear()
            F.blend(few, *args)
            assert searches == [few, *few]
    assert 0 < pairs[1] < pairs[0] / 4, pairs
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_adaptive_degree_reads_the_set_distance_of_the_center(n):
    # d(y_C, A) from the anchor has the bits of A.distance(y_C): a schedule
    # radius of exactly that distance gives degree 0, the next float up 1
    rng = np.random.default_rng(40 + n)
    for size in (1, 7, 1000):
        pts = [(f"p{i}", tuple(rng.uniform(-1, 1, n))) for i in range(size)]
        j = jets.Jet(n, 1, 1, pts, {pid: np.zeros((n + 1, 1)) for pid, _ in pts})
        F = extend.Extension(j, schedule=(1.0,))
        for _ in range(40 if size < 1000 else 10):
            a = np.array(pts[int(rng.integers(size))][1])
            x = tuple(float(v) for v in a + rng.normal(size=n) * 10.0 ** rng.uniform(-6, 0))
            for cube, row in F.dec.supporting_cubes(x):
                d = F.A.distance(cube.center)
                F.schedule = (d,)
                assert F._cube_degree(cube, row, x) == 0, (x, cube)
                F.schedule = (float(np.nextafter(d, math.inf)),)
                assert F._cube_degree(cube, row, x) == 1, (x, cube)


def test_wrong_dimension_query_is_a_value_error():
    # a query is never broadcast to the set's dimension, nor cut to it
    j = jet_of("x0*x1", [(0.0, 0.0), (1.0, 0.5)], 2, n=2)
    F = extend.Extension(j)
    j1 = jet_of("x0", [(0.0,), (1.0,)], 1)
    F1 = extend.Extension(j1)
    for ext, x, msg in [
        (F, (0.3,), r"^query point \(0\.3,\) has dimension 1, expected 2$"),
        (F, (0.3, 0.4, 0.5), r"^query point \(0\.3, 0\.4, 0\.5\) has dimension 3, expected 2$"),
        (F1, (0.3, 0.4), r"^query point \(0\.3, 0\.4\) has dimension 2, expected 1$"),
        (F1, (), r"^query point \(\) has dimension 0, expected 1$"),
    ]:
        for evaluate in (ext.eval, ext.eval_derivs, lambda x: ext.blend([x]), ext.dec.locate):
            with pytest.raises(ValueError, match=msg):
                evaluate(x)


# -- linearity and continuity --------------------------------------------------------


def test_linearity_trivial_cases():
    f = jet_of("sin(x0)", [(-1.0,), (1.0,)], 2)
    g = jet_of("exp(x0)", [(-1.0,), (1.0,)], 2)
    assert extend.linearity_probe(f, g, 1.0, 0.0, (0.4,)) == pytest.approx(0.0, abs=1e-14)
    assert extend.linearity_probe(f, f, 1.0, -1.0, (0.4,)) == pytest.approx(0.0, abs=1e-12)


def test_linearity_random_pairs():
    rng = np.random.default_rng(20)
    pts = [(-1.0,), (0.3,), (2.0,)]
    for _ in range(20):
        f = jet_of("sin(x0)", pts, 2)
        g = jets.Jet(1, 2, 1, [(p, f.coords[p]) for p in f.ids],
                     {p: rng.standard_normal((3, 1)) for p in f.ids})
        a, b = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
        x = (float(rng.uniform(-2, 3)),)
        if min(abs(x[0] - q[0]) for q in pts) < 1e-6:
            continue
        scale = (abs(a) + abs(b)) * (1.0 + max(
            float(np.max(np.abs(f.values[p]))) for p in f.ids
        ) + max(float(np.max(np.abs(g.values[p]))) for p in g.ids))
        assert extend.linearity_probe(f, g, a, b, x) <= 1e-10 * scale


def test_continuity_ratio_homogeneous_under_scaling():
    j = jet_of("exp(x0)*sin(x1)", [(0.0, 0.0), (1.0, 0.5)], 2, n=2)
    j2 = jets.linear_combination(2.0, j, 0.0, j)
    rng = np.random.default_rng(21)
    sample = []
    while len(sample) < 60:
        x = tuple(rng.uniform(-2, 3, size=2))
        if decomp.FinitePoints(j.X).distance(x) > 1e-3:
            sample.append(x)
    e1 = extend.Extension(j)
    e2 = extend.Extension(j2)
    r1 = extend.continuity_ratio(e1, sample)
    r2 = extend.continuity_ratio(e2, sample)
    assert r1 > 0
    assert r2 == pytest.approx(r1, rel=1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_query_is_a_clear_value_error(bad):
    j = jet_of("exp(x0)*sin(x1)", [(0.0, 0.0), (1.0, 0.5)], 2, n=2)
    F = extend.Extension(j, schedule=[4.0, 1.5])
    for evaluate in (F.eval, F.eval_derivs, F.eval_adaptive):
        with pytest.raises(ValueError, match="not finite"):
            evaluate((0.5, bad))


def _random_poly(rng, n, deg):
    terms = [f"{rng.uniform(-2, 2):.6f}"]
    for alpha in np.ndindex(*([deg + 1] * n)):
        if 0 < sum(alpha) <= deg:
            mono = "*".join(f"x{i}^{a}" for i, a in enumerate(alpha) if a)
            terms.append(f"{rng.uniform(-2, 2):.6f}*{mono}")
    return " + ".join(terms)


def _bump_maxima(k):
    """S_j: the largest |s^(i)| over i <= j of the cut-off profile, sampled
    across its transition band 1/2 < t < 3/4."""
    peak = np.zeros(k + 1)
    peak[0] = 1.0
    for t in np.linspace(0.5, 0.75, 402)[1:-1]:
        s = pou.bump_taylor(taylorarith.seed_variable((float(t),), 0, 1, k))
        peak = np.maximum(peak, np.abs(taylorarith.derivatives(s)))
    return np.maximum.accumulate(peak)


@pytest.mark.parametrize("n, k, npts, queries", [(2, 3, 8, 150), (3, 4, 6, 60)])
def test_derivs_near_set_scale_aware(n, k, npts, queries):
    # A jet induced by polynomials of degree <= k is reproduced exactly, so
    # every error is rounding.  The order-j derivatives of phi_C reach
    # S_j / side^j, which gives the bound C * eps * M * S_j / side^j at
    # orders >= 1 (M the largest exact derivative at x, side that of the
    # home cube).  Measured on both shapes, seeds 1..5, 1000 / 300 queries
    # each: within 1e-2 of A, where the supporting cubes share their anchor,
    # the worst ratio is 4.0e-5 (summing phi_C * T_C directly: 0.069 .. 1.24);
    # over all queries, where the rounding of T_C - T_C0 between two anchors
    # is what the phi_C derivatives amplify, it is 0.39.
    rng = np.random.default_rng(1)
    f = el.VectorExpr.parse([_random_poly(rng, n, k), _random_poly(rng, n, k - 1)], n)
    pts = rng.uniform(-1.0, 1.0, size=(npts, n))
    ext = extend.Extension(jets.Jet.from_expr(f, [(f"p{i}", tuple(p)) for i, p in enumerate(pts)], k))
    indices = mi.enumerate_upto(n, k)
    orders = np.array([sum(a) for a in indices])
    scale = np.finfo(float).eps * _bump_maxima(k)[orders][:, None]
    worst_near = worst = 0.0
    for _ in range(queries):
        u = rng.normal(size=n)
        x = pts[rng.integers(npts)] + 10.0 ** rng.uniform(-6, 0) * u / np.linalg.norm(u)
        x = tuple(float(v) for v in x)
        got = ext.eval_derivs(x)
        want = np.stack([tv.coeffs * tv.ctx.factorials for tv in f.eval_taylor(x, k)], axis=1)
        side = ext.dec.locate(x).side
        bound = scale * float(np.max(np.abs(want))) / side ** orders[:, None]
        ratio = np.abs(np.array([got[a] for a in indices]) - want) / bound
        r = float(ratio[orders >= 1].max())
        worst = max(worst, r)
        if ext.A.distance(x) < 1e-2:
            worst_near = max(worst_near, r)
    assert worst_near < 1e-3, worst_near
    assert worst < 1.0, worst


def test_blends_of_many_batch_sizes_keep_a_bounded_key_memo():
    # every batch size gives the order-4 products new widths, whose key
    # arrays (up to 2.2 MB here) are built per call and let go: before the
    # bound, these ten blends left 25 MB of them in the memo
    rng = np.random.default_rng(5)
    ext = extend.Extension(jet_of(["x0*x1 + x2^3", "x0^2 - x1*x2"], rng.uniform(-1.0, 1.0, (50, 3)), 4, n=3))
    ext.blend([(0.3, 0.2, 0.1)], 4)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for q in range(100, 200, 10):
            ext.blend(rng.uniform(-1.2, 1.2, (q, 3)), 4)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 6e6, grown  # a context's memo holds at most 16 * 2^15 keys, 4.2 MB
    held = [
        v.size if isinstance(v, np.ndarray) else v[2].size
        for ctx in taylorarith._CONTEXTS.values()
        for v in ctx._keys.values()
    ]
    assert max(held) <= taylorarith.KEY_MEMO_ENTRIES
