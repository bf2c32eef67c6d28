"""Finite atlases: transitions, correspondence, transport, projection,
manifold extension through user-supplied bumps."""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whitneyext import atlas, extend, fdb, jets
from whitneyext import taylorarith as ta
from whitneyext import exprlang as el


def doubling_atlas():
    # two charts of the same 1-D manifold; v-coordinates are twice the
    # u-coordinates
    u = atlas.Chart("u")
    v = atlas.Chart("v")
    trans = {
        ("u", "v"): el.VectorExpr.parse(["2*x0"], 1),
        ("v", "u"): el.VectorExpr.parse(["x0/2"], 1),
    }
    return atlas.FiniteAtlas(1, [u, v], trans)


def doubling_jet(k=2):
    # same function seen in both charts: g(p) = sin(u(p)); in v-coordinates
    # that is sin(x/2)
    fu = jets.Jet.from_expr(
        el.VectorExpr.parse(["sin(x0)"], 1), [("p", (1.0,)), ("q", (2.0,))], k
    )
    fv = jets.Jet.from_expr(
        el.VectorExpr.parse(["sin(x0/2)"], 1), [("p", (2.0,)), ("q", (4.0,))], k
    )
    return atlas.AtlasJet({"u": fu, "v": fv})


def test_atlas_construction_validates():
    with pytest.raises(ValueError):
        atlas.FiniteAtlas(1, [atlas.Chart("a"), atlas.Chart("a")], {})
    with pytest.raises(ValueError):
        atlas.FiniteAtlas(
            1, [atlas.Chart("a")], {("a", "b"): el.identity_vector(1)}
        )
    with pytest.raises(ValueError):
        atlas.FiniteAtlas(
            2,
            [atlas.Chart("a"), atlas.Chart("b")],
            {("a", "b"): el.VectorExpr.parse(["x0"], 1)},
        )


def test_transition_identity_and_missing():
    at = doubling_atlas()
    ident = at.transition("u", "u")
    assert np.allclose(ident.eval_real((3.7,)), [3.7])
    assert at.has_transition("u", "v")
    assert np.allclose(at.map_point("u", "v", (1.5,)), [3.0])
    only = atlas.FiniteAtlas(1, [atlas.Chart("a"), atlas.Chart("b")], {})
    with pytest.raises(atlas.MissingTransition):
        only.transition("a", "b")


def test_chart_codomain_box():
    c = atlas.Chart("c", codomain=[[0.0, 1.0], [0.0, 2.0]])
    assert c.contains((0.5, 1.0))
    assert c.contains((1.0, 2.0))
    assert not c.contains((1.1, 0.5))
    allc = atlas.Chart("d")
    assert allc.contains((1e9, -1e9))


def test_chart_contains_rejects_a_point_of_another_dimension():
    with pytest.raises(ValueError, match=r"^chart c: point \(0\.5, 7\.0\) has dimension 2, expected 1$"):
        atlas.Chart("c", [[0, 1]]).contains((0.5, 7.0))
    with pytest.raises(ValueError, match=r"has dimension 1, expected 2$"):
        atlas.Chart("c", [[0, 1], [0, 1]]).contains((0.5,))
    assert atlas.Chart("d").contains((0.5, 7.0))


def test_atlas_rejects_a_codomain_of_another_dimension():
    with pytest.raises(ValueError, match=r"^chart c: codomain box has 1 pair\(s\), expected dim = 2$"):
        atlas.FiniteAtlas(2, [atlas.Chart("d"), atlas.Chart("c", [[0, 1]])], {})
    with pytest.raises(ValueError, match=r"^chart c: codomain box has 2 pair\(s\), expected dim = 1$"):
        atlas.FiniteAtlas(1, [atlas.Chart("c", [[0, 1], [0, 1]])], {})
    at = atlas.FiniteAtlas(2, [atlas.Chart("c", [[0, 1], [0, 1]]), atlas.Chart("d")], {})
    assert not at.chart("c").contains((0.5, 7.0))


def test_check_roundtrips():
    at = doubling_atlas()
    assert at.check_roundtrips("u", "v", [(0.5,), (-2.0,), (10.0,)]) == pytest.approx(
        0.0, abs=1e-12
    )


def test_atlas_jet_shared_ids():
    aj = doubling_jet()
    assert list(aj.jets) == ["u", "v"]
    assert aj.point_ids() == ["p", "q"]
    assert aj.n == 1 and aj.k == 2 and aj.m == 1


def test_atlas_jet_shape_mismatch():
    f1 = jets.Jet.from_expr(el.VectorExpr.parse(["x0"], 1), [("p", (0.0,))], 1)
    f2 = jets.Jet.from_expr(el.VectorExpr.parse(["x0"], 1), [("p", (0.0,))], 2)
    with pytest.raises(ValueError):
        atlas.AtlasJet({"a": f1, "b": f2})


def test_coords_in_chart():
    at = doubling_atlas()
    aj = doubling_jet()
    assert aj.coords_in_chart(at, "p", "u") == (1.0,)
    assert aj.coords_in_chart(at, "p", "v") == (2.0,)
    # route through the transition when the target chart lacks the point
    fu_only = atlas.AtlasJet({"u": aj.jets["u"]})
    got = fu_only.coords_in_chart(at, "q", "v")
    assert got == pytest.approx((4.0,))


def test_correspondence_passes_on_consistent_family():
    at = doubling_atlas()
    aj = doubling_jet()
    rep = atlas.correspondence_check(aj, at, "u", "v")
    assert rep["pass"] and rep["points"] == 2
    assert rep["residual"] <= 1e-12
    reps = atlas.correspondence_check_all(aj, at)
    assert len(reps) == 2 and all(r["pass"] for r in reps)


def test_correspondence_fails_on_inconsistent_family():
    at = doubling_atlas()
    fu = jets.Jet.from_expr(
        el.VectorExpr.parse(["sin(x0)"], 1), [("p", (1.0,))], 2
    )
    # wrong v-presentation: not sin(x/2)
    fv = jets.Jet.from_expr(
        el.VectorExpr.parse(["sin(x0)"], 1), [("p", (2.0,))], 2
    )
    aj = atlas.AtlasJet({"u": fu, "v": fv})
    rep = atlas.correspondence_check(aj, at, "u", "v")
    assert not rep["pass"]
    assert rep["residual"] > 1e-3


def test_transport_reconstructs_dropped_chart():
    at = doubling_atlas()
    aj = doubling_jet()
    only_u = atlas.atlas_project(aj, at, ["u"])
    assert set(only_u.jets) == {"u"}
    fv = atlas.transport(only_u, at, "v")
    want = doubling_jet().jets["v"]
    assert set(fv.ids) == {"p", "q"}
    for pid in fv.ids:
        assert fv.coords[pid] == pytest.approx(want.coords[pid], abs=1e-12)
        assert np.allclose(fv.values[pid], want.values[pid], rtol=0, atol=1e-9)


def test_transport_to_own_chart_is_restriction():
    at = doubling_atlas()
    aj = doubling_jet()
    fu = atlas.transport(aj, at, "u")
    for pid in aj.jets["u"].ids:
        assert np.allclose(
            fu.values[pid], aj.jets["u"].values[pid], rtol=0, atol=1e-9
        )


def test_transport_mismatched_sources_raise():
    at = doubling_atlas()
    fu = jets.Jet.from_expr(
        el.VectorExpr.parse(["sin(x0)"], 1), [("p", (1.0,))], 2
    )
    fv = jets.Jet.from_expr(
        el.VectorExpr.parse(["1 + sin(x0/2)"], 1), [("p", (2.0,))], 2
    )
    bad = atlas.AtlasJet({"u": fu, "v": fv})
    with pytest.raises(jets.GlueMismatch):
        atlas.transport(bad, at, "u")


def test_atlas_project_coverage_error():
    at = atlas.FiniteAtlas(1, [atlas.Chart("a"), atlas.Chart("b")], {})
    fa = jets.Jet.from_expr(el.VectorExpr.parse(["x0"], 1), [("p", (0.0,))], 1)
    fb = jets.Jet.from_expr(el.VectorExpr.parse(["x0"], 1), [("r", (5.0,))], 1)
    aj = atlas.AtlasJet({"a": fa, "b": fb})
    with pytest.raises(atlas.CoverageError):
        atlas.atlas_project(aj, at, ["a"])  # point r only lives in chart b


def test_identity_pullback_through_trivial_transition():
    # single chart, identity transition: transport is exact identity
    at = atlas.FiniteAtlas(1, [atlas.Chart("only")], {})
    f = jets.Jet.from_expr(
        el.VectorExpr.parse(["exp(x0)"], 1), [("p", (0.0,)), ("q", (1.0,))], 2
    )
    aj = atlas.AtlasJet({"only": f})
    back = atlas.transport(aj, at, "only")
    for pid in f.ids:
        assert np.array_equal(back.values[pid], f.values[pid])


# -- manifold extension ---------------------------------------------------------


def overlap_fixture():
    # 1-D manifold with two charts; the bumps h_u + h_v = 1 near the jet
    # points (h constant per chart here, the simplest admissible partition)
    at = doubling_atlas()
    aj = doubling_jet(k=2)
    pou = [("u", el.parse("0.5", 1)), ("v", el.parse("0.5", 1))]
    return at, aj, pou


def test_manifold_extension_values_on_points():
    at, aj, pou = overlap_fixture()
    me = atlas.ManifoldExtension(aj, at, pou)
    # at stored points the extension reproduces f_0 in every chart
    assert me.eval("u", (1.0,))[0] == pytest.approx(math.sin(1.0), abs=1e-12)
    assert me.eval("v", (2.0,))[0] == pytest.approx(math.sin(1.0), abs=1e-12)
    assert me.eval("v", (4.0,))[0] == pytest.approx(math.sin(2.0), abs=1e-12)


def test_manifold_extension_derivatives_match_jet():
    at, aj, pou = overlap_fixture()
    me = atlas.ManifoldExtension(aj, at, pou)
    for chart in ("u", "v"):
        f = aj.jets[chart]
        for pid in f.ids:
            x = f.coords[pid]
            ders = me.eval_derivs(chart, x, upto=2)
            for alpha in f.indices:
                want = f.value(pid, alpha)
                assert np.allclose(ders[alpha], want, rtol=0, atol=1e-8), (
                    chart,
                    pid,
                    alpha,
                )


def test_manifold_extension_off_points_smooth_blend():
    at, aj, pou = overlap_fixture()
    me = atlas.ManifoldExtension(aj, at, pou)
    # same manifold point queried in both charts gives the same value
    for t in (1.3, 1.7, 0.5):
        a = me.eval("u", (t,))[0]
        b = me.eval("v", (2.0 * t,))[0]
        assert a == pytest.approx(b, rel=1e-10)


def sine_bump_fixture():
    # the overlap fixture with bumps that vary: h_u + h_v = 1 everywhere
    at = doubling_atlas()
    aj = doubling_jet(k=2)
    pou = [("u", el.parse("0.5 + 0.25*sin(x0)", 1)), ("v", el.parse("0.5 - 0.25*sin(x0/2)", 1))]
    return at, aj, pou


@given(st.sampled_from(["u", "v"]), st.floats(-6.0, 6.0), st.one_of(st.none(), st.integers(1, 9)))
@settings(max_examples=200, deadline=None)
def test_manifold_values_are_row_zero_of_the_derivatives(chart, t, near):
    # one computation: the value has the bits of the zero row of the
    # derivative query, near a jet point and far from it
    at, aj, pou = sine_bump_fixture()
    me = atlas.ManifoldExtension(aj, at, pou)
    x = (t,) if near is None else (aj.jets[chart].coords["p"][0] + t * 10.0**-near,)
    value = me.eval(chart, x)
    assert np.array_equal(value, me.eval_derivs(chart, x, 0)[(0,)])
    assert np.array_equal(value, me.eval_derivs(chart, x, 2)[(0,)])


def test_queries_leave_no_cyclic_garbage():
    # a query on A keeps no traceback, whose frames would hold the batch's
    # search results and, through f_back, the callers' frames and arrays
    # until the collector runs: on and off A, in batches of 1, 2 and 16 and
    # through a manifold extension, nothing is left for it
    rng = np.random.default_rng(23)
    pts = [(f"p{i}", tuple(p)) for i, p in enumerate(rng.uniform(-1.0, 1.0, (12, 2)).tolist())]
    F = extend.Extension(jets.Jet.from_expr(el.VectorExpr.parse(["exp(x0)*sin(x1)"], 2), pts, 3))
    on = [x for _, x in pts]
    off = [tuple(x) for x in rng.uniform(-1.5, 1.5, (8, 2)).tolist()]
    batches = [on[:1], off[:1], [on[1], off[1]], [off[2], on[2]], on[4:12] + off]
    at, aj, pou = overlap_fixture()
    me = atlas.ManifoldExtension(aj, at, pou)
    gc.collect()
    gc.disable()
    try:
        for xs in batches:
            F.blend(xs)
            F.blend(xs, upto=2)
        me.eval_derivs("u", aj.jets["u"].coords["p"], upto=2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _composed_in_every_chart(me, chart, x, upto):
    """The rows of ``ManifoldExtension.eval_derivs`` with every piece's
    expansion composed with its transition series, the identity seeds of
    the query's own chart included."""
    ctx, seeds = ta.context(me.n, upto), ta.seeds(x, upto)
    total = np.zeros((ctx.ncoef, me.m))
    for cid, h, ext in me.pieces:
        y = me._chart_point(chart, x, cid, ext)
        if y is None:
            continue
        tau = me.atlas.transition(chart, cid).eval_taylor_env(seeds)
        hseries = el.eval_taylor_env(h, tau)
        if hseries.coeffs.any():
            outer = ta.TaylorValue(ctx, ext.derivs(y, upto) / ctx.factorials[:, None])
            total += (hseries * ta.compose(outer, [t - t.const for t in tau])).coeffs
    return total * ctx.factorials[:, None]


def test_manifold_piece_in_the_query_chart_is_not_composed(monkeypatch):
    # a shear between two 2-D charts, a jet with zero values of both signs,
    # bumps that vary; the rows keep every bit of the composition with the
    # identity seeds, signs of zeros included
    at = atlas.FiniteAtlas(2, [atlas.Chart("u"), atlas.Chart("v")], {
        ("u", "v"): el.VectorExpr.parse(["x0 + 0.3*sin(x1)", "x1"], 2),
        ("v", "u"): el.VectorExpr.parse(["x0 - 0.3*sin(x1)", "x1"], 2),
    })
    f = el.VectorExpr.parse(["-x0*x1 + exp(x0)", "sin(x0 - x1)"], 2)
    pts = [("a", (0.0, 0.0)), ("b", (0.5, 0.0)), ("c", (-0.4, 0.7)), ("d", (0.3, -0.6))]
    F = jets.Jet.from_expr(f, pts, 3).F
    F[:, 3:6, 0], F[::2, 7:, 1] = -0.0, 0.0
    fu = jets.Jet(2, 3, 2, pts, {pid: F[r] for r, (pid, _) in enumerate(pts)})
    aj = atlas.AtlasJet({"u": fu, "v": atlas.transport(atlas.AtlasJet({"u": fu}), at, "v")})
    pou = [("u", el.parse("0.5 + 0.25*sin(x1)", 2)), ("v", el.parse("0.5 - 0.25*sin(x1)", 2))]
    me = atlas.ManifoldExtension(aj, at, pou)
    queries = [("u", x) for _, x in pts] + [("v", aj.jets["v"].coords["c"]), ("u", (0.1, 0.2)), ("v", (-0.7, 0.9))]
    calls = []
    compose = ta.compose

    def counted(outer, inners):
        calls.append(len(inners))
        return compose(outer, inners)

    for chart, x in queries:
        want = _composed_in_every_chart(me, chart, x, 3)
        monkeypatch.setattr(ta, "compose", counted)
        calls.clear()
        got = me.eval_derivs(chart, x, 3)
        monkeypatch.setattr(ta, "compose", compose)
        assert len(calls) == 1  # the piece of the other chart only
        rows = np.array([got[a] for a in ta.context(2, 3).indices])
        assert rows.tobytes() == want.tobytes(), (chart, x)


def _bumped_rows(hd, ext, x):
    """The rows of h·F at x in one dimension, for F the extension ext and
    hd the derivatives of h at x, by Leibniz's rule."""
    fd = ext.derivs(x, len(hd) - 1)
    return np.array([sum(math.comb(j, i) * hd[i] * fd[j - i] for i in range(j + 1)) for j in range(len(hd))])


def _without_derivs(monkeypatch, me, cid):
    """Make the piece of chart cid fail if its extension is evaluated."""
    ext = next(e for c, _, e in me.pieces if c == cid)
    monkeypatch.setattr(ext, "derivs", lambda *args: pytest.fail(f"the piece of chart {cid} was evaluated"))


def test_manifold_pieces_off_their_chart_are_skipped(monkeypatch):
    # the chart change u -> v only, and a codomain box [0, 5] for v: from u
    # at 3 the image 6 leaves v's box, and from v no transition reaches u,
    # so each query gets the other piece's h·F alone
    at = atlas.FiniteAtlas(1, [atlas.Chart("u"), atlas.Chart("v", [[0.0, 5.0]])], {
        ("u", "v"): el.VectorExpr.parse(["2*x0"], 1),
    })
    _, aj, pou = sine_bump_fixture()
    me = atlas.ManifoldExtension(aj, at, pou)
    bumps = {  # the derivatives of h_u = 0.5 + sin(x)/4 and h_v = 0.5 - sin(y/2)/4
        "u": lambda t: [0.5 + 0.25 * math.sin(t), 0.25 * math.cos(t), -0.25 * math.sin(t)],
        "v": lambda t: [0.5 - 0.25 * math.sin(t / 2), -0.125 * math.cos(t / 2), 0.0625 * math.sin(t / 2)],
    }
    for chart, x in [("u", (3.0,)), ("v", (4.5,)), ("v", (0.5,))]:
        ext = {c: e for c, _, e in me.pieces}[chart]
        want = _bumped_rows(bumps[chart](x[0]), ext, x)
        _without_derivs(monkeypatch, me, "v" if chart == "u" else "u")
        got = me.eval_derivs(chart, x, 2)
        monkeypatch.undo()
        np.testing.assert_allclose([got[(j,)] for j in range(3)], want, rtol=1e-13, atol=1e-15)


def test_manifold_piece_whose_bump_vanishes_is_skipped(monkeypatch):
    # h_v = (y - 6)^3 / 64 in v-coordinates and h_u = 1 - h_v(2 x): at u = 3
    # the series of h_v vanishes to order 2, so F is F_u there
    at, aj, _ = overlap_fixture()
    pou = [("u", el.parse("1 - (2*x0 - 6)^3/64", 1)), ("v", el.parse("(x0 - 6)^3/64", 1))]
    me = atlas.ManifoldExtension(aj, at, pou)
    want = _bumped_rows([1.0, 0.0, 0.0], me.pieces[0][2], (3.0,))
    _without_derivs(monkeypatch, me, "v")
    got = me.eval_derivs("u", (3.0,), 2)
    np.testing.assert_allclose([got[(j,)] for j in range(3)], want, rtol=1e-13, atol=0)


def test_manifold_extension_checks_its_bumps():
    at, aj, _ = overlap_fixture()
    scalar = [("u", el.VectorExpr.parse(["0.5"], 1)), ("v", el.parse("0.5", 1))]
    plain = [("u", el.parse("0.5", 1)), ("v", el.parse("0.5", 1))]
    for x in [(1.3,), (0.2,)]:  # a one-component VectorExpr is its expression
        want = atlas.ManifoldExtension(aj, at, plain).eval_derivs("u", x, 2)
        got = atlas.ManifoldExtension(aj, at, scalar).eval_derivs("u", x, 2)
        assert all(np.array_equal(got[a], want[a]) for a in want)
    with pytest.raises(ValueError, match=r"^bump for chart 'u' must be scalar$"):
        atlas.ManifoldExtension(aj, at, [("u", el.VectorExpr.parse(["0.5", "0.5"], 1))])
    with pytest.raises(ValueError, match=r"^bump attached to chart 'w', which carries no jet$"):
        atlas.ManifoldExtension(aj, at, plain + [("w", el.parse("0", 1))])
    with pytest.raises(ValueError, match=r"^empty partition of unity$"):
        atlas.ManifoldExtension(aj, at, [])


@pytest.mark.parametrize("box", [[[1.0, 1.0]], [[0.0, 1.0], [2.0, -2.0]]])
def test_chart_rejects_an_empty_codomain_box(box):
    with pytest.raises(ValueError, match=r"^chart c: empty codomain box \["):
        atlas.Chart("c", box)


def test_manifold_wrong_dimension_query_is_a_value_error():
    # a query with the wrong number of chart coordinates is rejected before
    # it is mapped into any chart
    at = atlas.FiniteAtlas(2, [atlas.Chart("u")], {})
    f = jets.Jet.from_expr(el.VectorExpr.parse(["x0*x1"], 2), [("p", (0.0, 0.0)), ("q", (1.0, 0.5))], 2)
    me = atlas.ManifoldExtension(atlas.AtlasJet({"u": f}), at, [("u", el.parse("1", 2))])
    for x, dim in [((0.3,), 1), ((0.3, 0.4, 0.5), 3)]:
        for query in (me.eval, me.eval_derivs):
            with pytest.raises(ValueError, match=rf"has dimension {dim}, expected 2$"):
                query("u", x)


def test_partition_deficit_detected():
    at = doubling_atlas()
    aj = doubling_jet()
    bad = [("u", el.parse("0.5", 1)), ("v", el.parse("0.25", 1))]
    with pytest.raises(atlas.PartitionDeficit):
        atlas.ManifoldExtension(aj, at, bad)


def test_manifold_extend_one_shot():
    at, aj, pou = overlap_fixture()
    a = atlas.ManifoldExtension(aj, at, pou).eval("u", (1.5,))
    b = atlas.ManifoldExtension(aj, at, pou).eval("v", (3.0,))
    assert np.allclose(a, b, rtol=1e-10)


def test_load_atlas_roundtrip():
    doc = {
        "dim": 1,
        "charts": [{"id": "u", "codomain": "all"}, {"id": "v", "codomain": "all"}],
        "transitions": [
            {"from": "u", "to": "v", "map": ["2*x0"]},
            {"from": "v", "to": "u", "map": ["x0/2"]},
        ],
        "jets": [
            {
                "chart": "u",
                "points": [
                    {
                        "id": "p",
                        "x": [1.0],
                        "values": {"[0]": [1.0], "[1]": [0.5], "[2]": [0.0]},
                    }
                ],
            }
        ],
        "pou": [{"chart": "u", "h": ["1"]}],
    }
    at, aj, bumps = atlas.load_atlas(doc)
    assert set(at.charts) == {"u", "v"}
    assert aj.jets["u"].k == 2
    assert aj.jets["u"].value("p", (1,))[0] == 0.5
    assert bumps[0][0] == "u"
    me = atlas.ManifoldExtension(aj, at, bumps)
    assert me.eval("u", (1.0,))[0] == pytest.approx(1.0)
