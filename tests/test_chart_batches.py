"""The chart path on point batches: series, induced jets and pullbacks
computed for a whole batch have the bits of one-point calls, and a failing
batch raises what its first failing point raises alone."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whitneyext import exprlang as el, fdb, jets, multiindex, taylorarith


def components(n):
    # every elementary function, a quotient, a power and a constant component
    last = f"x{n - 1}"
    return [
        f"exp(0.3*x0) * sin({last}) + x0^3 / (2 + cos(x0*{last}))",
        f"ln(2 + x0^2) - 0.5*sqrt(1 + {last}^2)",
        "1.5",
    ]


# invertible maps of R^n to pull back along
SHEARS = {
    1: ["2*x0"],
    2: ["x0 + 0.3*sin(x1)", "x1"],
    3: ["x0 + 0.2*x1*x2", "x1", "x2"],
}


coords = st.floats(-1.2, 1.2, allow_nan=False, allow_infinity=False)


@st.composite
def batches(draw):
    """(n, k, points): n = 1..3, k <= 4, and a batch of 1, 2, ncoef (as
    many points as series coefficients) or a random number of points."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, 4))
    size = draw(st.sampled_from([1, 2, multiindex.count_upto(n, k), draw(st.integers(3, 24))]))
    pts = draw(st.lists(st.tuples(*[coords] * n), min_size=size, max_size=size))
    return n, k, pts


def rows(tv):
    return [tv.coeffs[:, j] for j in range(tv.coeffs.shape[1])]


@given(batches(), st.data())
@settings(max_examples=60, deadline=None)
def test_batch_rows_match_one_point_calls(batch, data):
    n, k, pts = batch
    f = el.VectorExpr.parse(components(n), n)
    # repeated points are allowed in series
    repeats = data.draw(st.lists(st.sampled_from(pts), max_size=3))
    xs = pts + repeats
    for e in f.exprs:
        got = rows(el.eval_taylor_env(e, taylorarith.seeds(xs, k)))
        for x, col in zip(xs, got):
            assert np.array_equal(col, el.eval_taylor(e, x, k).coeffs)
    # induced jets and pullbacks on distinct points
    distinct = [(f"p{i}", x) for i, x in enumerate(dict.fromkeys(pts))]
    induced = jets.Jet.from_expr(f, distinct, k)
    g = el.VectorExpr.parse(SHEARS[n], n)
    images = [(pid, tuple(g.eval_real(x))) for pid, x in distinct]
    if len(set(y for _, y in images)) < len(images):
        return  # two points with one image
    target = jets.Jet.from_expr(f, images, k)
    pulled = fdb.jet_pullback(g, target, distinct)
    for pid, x in distinct:
        assert np.array_equal(induced.values[pid], jets.Jet.from_expr(f, [(pid, x)], k).values[pid])
        alone = fdb.jet_pullback(g, target, [(pid, x)]).values[pid]
        assert np.array_equal(pulled.values[pid], alone)


@pytest.mark.parametrize("src, xs, message", [
    ("exp(x0)", [0.5, 800.0, 1.0, 900.0], r"^exp of 800.0 overflows$"),
    ("ln(x0)", [0.5, 2.0, -1.0, 0.0], r"^ln of series with constant term -1.0 <= 0$"),
    ("sqrt(x0)", [0.5, 0.0, 2.0], r"^sqrt of series with constant term 0.0 <= 0$"),
    # the first point's coefficient -1/(2 1e300^2) leaves the float range
    # before the second point's ln is found not positive; alone, the first
    # point fails
    ("ln(x0)", [1e300, -1.0], r"^ln of series with constant term 1e\+300: a coefficient leaves the float range$"),
])
def test_from_expr_raises_what_the_failing_point_raises_alone(src, xs, message):
    f = el.VectorExpr.parse([src], 1)
    pts = [(f"p{i}", (x,)) for i, x in enumerate(xs)]
    alone = None
    for pt in pts:
        try:
            jets.Jet.from_expr(f, [pt], 2)
        except Exception as e:
            alone = e
            break
    with pytest.raises(type(alone), match=message):
        jets.Jet.from_expr(f, pts, 2)
    assert re.search(message, str(alone))


def test_from_expr_raises_for_the_first_failing_point():
    # the batch meets the sqrt of p2 before the ln of p1; alone, p1 fails first
    f = el.VectorExpr.parse(["sqrt(x1)", "ln(x0)"], 2)
    pts = [("p0", (1.0, 1.0)), ("p1", (-2.0, 1.0)), ("p2", (1.0, -1.0))]
    with pytest.raises(el.DomainError, match=r"^ln of series with constant term -2.0 <= 0$"):
        jets.Jet.from_expr(f, pts, 2)


def test_pullback_raises_for_the_first_failing_point():
    # the row of s1 overflows (10 * 1e308); the image of s2 matches no
    # stored point, which the batch finds first
    g = el.VectorExpr.parse(["10*x0"], 1)
    values = {"a": [[0.0], [1.0]], "b": [[0.0], [1e308]], "c": [[0.0], [1.0]]}
    f = jets.Jet(1, 1, 1, [("a", (0.0,)), ("b", (10.0,)), ("c", (20.0,))], values)
    pts = [("s0", (0.0,)), ("s1", (1.0,)), ("s2", (5.0,))]
    with pytest.raises(ValueError, match=r"^the pulled-back jet overflows at point s1$"):
        fdb.jet_pullback(g, f, pts)
    with pytest.raises(ValueError, match=r"^image \(50.0,\) of point 's2' matches no stored point"):
        fdb.jet_pullback(g, f, [pts[0], pts[2], pts[1]])


def test_points_of_another_dimension_are_named():
    # a point with too few or too many coordinates is named before any
    # series is evaluated, in the batch and alone
    f = el.VectorExpr.parse(["x0*x1"], 2)
    pts = [("p0", (0.0, 0.0)), ("p1", (1.0,)), ("p2", (1.0, 1.0, 1.0))]
    with pytest.raises(ValueError, match=r"^point p1 has dimension 1, expected 2$"):
        jets.Jet.from_expr(f, pts, 2)
    with pytest.raises(ValueError, match=r"^point p2 has dimension 3, expected 2$"):
        jets.Jet.from_expr(f, [pts[0], pts[2]], 2)
    g = el.VectorExpr.parse(["2*x0"], 1)
    target = jets.Jet.from_expr(el.VectorExpr.parse(["sin(x0)"], 1), [("a", (0.0,)), ("b", (2.0,))], 2)
    for source in [[("s0", (0.0,)), ("s1", (1.0, 5.0))], [("s1", (1.0, 5.0))]]:
        with pytest.raises(ValueError, match=r"^point s1 has dimension 2, expected 1$"):
            fdb.jet_pullback(g, target, source)


def test_a_nan_image_matches_no_stored_point():
    # inf - inf: the image of p0 is NaN, which no distance test may accept;
    # p1 maps onto a
    g = el.VectorExpr.parse(["x0*x0*1e300 - x0*x0*1e300"], 1)
    f = jets.Jet(1, 1, 1, [("a", (0.0,))], {"a": [[1.0], [2.0]]})
    msg = r"^image \(nan,\) of point 'p0' matches no stored point \(closest at distance nan\)$"
    for source in [[("p1", (0.0,)), ("p0", (1e10,))], [("p0", (1e10,))]]:
        with pytest.raises(ValueError, match=msg):
            fdb.jet_pullback(g, f, source)


@pytest.mark.parametrize("order", [["b", "a", "c"], ["a", "b", "c"]])
def test_a_tie_goes_to_the_first_stored_point(order):
    # the image 5e-14 is exactly as far from a = 0 as from b = 1e-13; the
    # identity map passes the matched point's values through
    coords = {"a": (0.0,), "b": (1e-13,), "c": (2.0,)}
    values = {"a": [[1.0], [10.0]], "b": [[2.0], [20.0]], "c": [[3.0], [30.0]]}
    f = jets.Jet(1, 1, 1, [(pid, coords[pid]) for pid in order], values)
    g = el.VectorExpr.parse(["x0"], 1)
    x = 1e-13 / 2
    assert abs(coords["a"][0] - x) == abs(coords["b"][0] - x)
    for source in [[("s1", (2.0,)), ("s0", (x,))], [("s0", (x,))]]:
        pulled = fdb.jet_pullback(g, f, source)
        assert pulled.values["s0"].tolist() == values[order[0]]


def test_a_jet_without_points_matches_nothing():
    g = el.VectorExpr.parse(["2*x0"], 1)
    f = jets.Jet(1, 1, 1, [], {})
    msg = r"^image \(2.0,\) of point 's0' matches no stored point \(closest at distance None\)$"
    for source in [[("s0", (1.0,)), ("s1", (2.0,))], [("s0", (1.0,))]]:
        with pytest.raises(ValueError, match=msg):
            fdb.jet_pullback(g, f, source)


def test_images_match_across_blocks():
    # 600 images against 600 stored points are matched in more than one
    # block; each source point is its own image
    pts = [(f"p{i}", (i / 64,)) for i in range(600)]
    f = jets.Jet(1, 0, 1, pts, {pid: [[float(i)]] for i, (pid, _) in enumerate(pts)})
    pulled = fdb.jet_pullback(el.VectorExpr.parse(["x0"], 1), f, pts[::-1])
    assert all(pulled.values[pid].tolist() == f.values[pid].tolist() for pid, _ in pts)
