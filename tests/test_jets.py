"""Whitney k-jets on finite sets: Taylor polynomials, remainders, seminorms,
shift/project, moduli, gluing."""

import copy
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whitneyext import exprlang as el
from whitneyext import cli, extend, fdb, jets
from whitneyext import multiindex as mi
from whitneyext import taylorarith as ta


def _monomial(x, a):
    """x^a = prod x_i^{a_i} by the float power of Python, with 0^0 = 1."""
    out = 1.0
    for xi, ai in zip(x, a):
        if ai:
            out *= xi**ai
    return out


def jet_of(src, pts, k, n=1):
    f = el.VectorExpr.parse([src] if isinstance(src, str) else src, n)
    return jets.Jet.from_expr(f, [(f"p{i}", tuple(p)) for i, p in enumerate(pts)], k)


def test_from_expr_x_squared():
    j = jet_of("x0^2", [(0.0,), (1.0,)], 2)
    assert np.allclose(j.values["p0"][:, 0], [0.0, 0.0, 2.0])
    assert np.allclose(j.values["p1"][:, 0], [1.0, 2.0, 2.0])


def test_from_expr_constant():
    j = jet_of("3", [(0.5,), (2.0,)], 2)
    for pid in j.ids:
        assert np.allclose(j.values[pid][:, 0], [3.0, 0.0, 0.0])


def test_from_expr_exp_order3():
    j = jet_of("exp(x0)", [(0.0,)], 3)
    assert np.allclose(j.values["p0"][:, 0], [1.0, 1.0, 1.0, 1.0])


def test_duplicate_points_rejected():
    f = el.VectorExpr.parse(["x0"], 1)
    with pytest.raises(ValueError):
        jets.Jet.from_expr(f, [("a", (1.0,)), ("b", (1.0,))], 1)
    # coordinates compare as numbers, so -0.0 repeats 0.0, also among others
    pts = [("a", (0.0, 1.0)), ("b", (2.0, -0.0)), ("c", (-0.0, 1.0))]
    with pytest.raises(ValueError, match=r"point coordinates \(-0.0, 1.0\) appear twice"):
        jets.Jet(2, 0, 1, pts, {pid: [[1.0]] for pid, _ in pts})


def test_taylor_poly_quadratic_exact():
    j = jet_of("x0^2", [(0.0,), (1.0,)], 2)
    assert j.taylor_poly("p0", 2, (5.0,))[0] == pytest.approx(25.0)
    # linearization at y=1 evaluated at 3: 1 + 2*2 = 5
    assert j.taylor_poly("p1", 1, (3.0,))[0] == pytest.approx(5.0)
    # order 0 is the value at the anchor regardless of x
    assert j.taylor_poly("p1", 0, (99.0,))[0] == pytest.approx(1.0)


def test_taylor_poly_order_above_k():
    j = jet_of("x0", [(0.0,)], 1)
    with pytest.raises(ValueError):
        j.taylor_poly("p0", 2, (1.0,))


def test_remainder_exp():
    j = jet_of("exp(x0)", [(0.0,), (0.1,)], 2)
    r = j.remainder("p0", 1, "p1")
    assert r[0] == pytest.approx(0.005170918075647624, abs=1e-15)
    assert j.remainder("p0", 1, "p0")[0] == 0.0


def test_remainder_polynomial_vanishes():
    j = jet_of("1 + 2*x0 - 3*x0^2", [(0.0,), (0.7,), (-1.3,)], 2)
    for y in j.ids:
        for x in j.ids:
            assert abs(j.remainder(y, 2, x)[0]) < 1e-12


def test_shift():
    j = jet_of("x0^2", [(0.0,), (2.0,)], 2)
    d = j.shift((1,))
    assert d.k == 1
    assert np.allclose(d.values["p1"][:, 0], [4.0, 2.0])  # 2x and 2 at x=2
    top = j.shift((2,))
    assert top.k == 0
    assert np.allclose(top.values["p0"][:, 0], [2.0])
    with pytest.raises(ValueError):
        j.shift((3,))


def test_shift_zero_is_identity():
    j = jet_of("sin(x0)", [(0.3,), (1.0,)], 2)
    s = j.shift((0,))
    for pid in j.ids:
        assert np.array_equal(s.values[pid], j.values[pid])


def test_project_restrict_commute():
    j = jet_of("exp(x0)*x1", [(0.0, 1.0), (0.5, -1.0), (1.0, 0.0)], 3, n=2)
    a = jets.glue([(j.project(1), ["p0", "p2"])])
    b = jets.glue([(j, ["p0", "p2"])]).project(1)
    assert a.ids == b.ids and a.k == b.k
    for pid in a.ids:
        assert np.array_equal(a.values[pid], b.values[pid])


def test_restrict_unknown_id():
    j = jet_of("x0", [(0.0,)], 1)
    with pytest.raises(KeyError):
        jets.glue([(j, ["nope"])])


def test_seminorms_quadratic():
    j = jet_of("x0^2", [(0.0,), (1.0,)], 2)
    assert j.seminorm_prime(2) == pytest.approx(2.0)
    assert j.seminorm_dprime(2) == pytest.approx(0.0, abs=1e-12)
    assert j.seminorm(2) == pytest.approx(2.0)


def test_seminorm_zero_jet():
    j = jet_of("0", [(0.0,), (1.0,)], 2)
    assert j.seminorm_prime(2) == 0.0
    assert j.seminorm_dprime(2) == 0.0
    assert j.seminorm(2) == 0.0


def test_seminorm_singleton_dprime():
    j = jet_of("exp(x0)", [(0.0,)], 2)
    assert j.seminorm_dprime(2) == 0.0


def test_seminorm_coordinate_q():
    j = jet_of(["x0", "10*x0"], [(1.0,)], 1, n=1)
    assert jets.apply_seminorm("max", np.array([1.0, -10.0])) == 10.0
    assert j.seminorm_prime(1, q="max") == pytest.approx(10.0)
    assert j.seminorm_prime(1, q=0) == pytest.approx(1.0)
    assert j.seminorm_prime(1, q=1) == pytest.approx(10.0)


def test_whitney_modulus_monotone_exp_grid():
    pts = [(0.01 * i,) for i in range(101)]
    j = jet_of("exp(x0)", pts, 2)
    small = j.whitney_modulus(2, 0.05)
    large = j.whitney_modulus(2, 0.5)
    assert small == pytest.approx(0.1325721691431987, rel=1e-12)
    assert large == pytest.approx(1.0529906335131587, rel=1e-12)
    assert small < large


def test_whitney_modulus_polynomial_zero():
    j = jet_of("1 - x0 + x0^2", [(0.1 * i,) for i in range(11)], 2)
    assert j.whitney_modulus(2, 10.0) < 1e-10


def test_whitney_modulus_singleton():
    j = jet_of("exp(x0)", [(0.0,)], 2)
    assert j.whitney_modulus(2, 1.0) == 0.0


def test_whitney_modulus_bad_delta():
    j = jet_of("x0", [(0.0,), (1.0,)], 1)
    with pytest.raises(ValueError):
        j.whitney_modulus(1, 0.0)


def test_glue_identity_and_concat():
    j = jet_of("sin(x0)", [(0.0,), (1.0,), (2.0,)], 2)
    whole = jets.glue([(j, j.ids)])
    for pid in j.ids:
        assert np.array_equal(whole.values[pid], j.values[pid])
    left = jets.glue([(j, ["p0", "p1"])])
    right = jets.glue([(j, ["p2"])])
    merged = jets.glue([(left, left.ids), (right, right.ids)])
    assert set(merged.ids) == set(j.ids)


def test_glue_overlap_agreement_and_mismatch():
    j = jet_of("sin(x0)", [(0.0,), (1.0,), (2.0,)], 2)
    left = jets.glue([(j, ["p0", "p1"])])
    right = jets.glue([(j, ["p1", "p2"])])
    merged = jets.glue([(left, left.ids), (right, right.ids)])
    assert np.array_equal(merged.values["p1"], j.values["p1"])

    bad = jets.glue([(j, ["p1", "p2"])])
    bad.F[bad.row["p1"]] += 1e-6
    with pytest.raises(jets.GlueMismatch):
        jets.glue([(left, left.ids), (bad, bad.ids)])


def test_linear_combination():
    f = jet_of("x0^2", [(0.0,), (1.0,)], 2)
    g = jet_of("exp(x0)", [(0.0,), (1.0,)], 2)
    h = jets.linear_combination(2.0, f, -1.0, g)
    for pid in f.ids:
        assert np.allclose(h.values[pid], 2.0 * f.values[pid] - g.values[pid])


def test_to_dict_roundtrip():
    j = jet_of(["exp(x0)*sin(x1)", "x0*x1"], [(0.0, 0.0), (1.0, 0.5)], 2, n=2)
    back = jets.Jet.from_dict(j.to_dict())
    assert back.n == j.n and back.k == j.k and back.m == j.m
    assert back.ids == j.ids
    for pid in j.ids:
        assert back.coords[pid] == j.coords[pid]
        assert np.array_equal(back.values[pid], j.values[pid])


# -- Taylor polynomial identities on random jets ---------------------------------


def random_jet(rng, n, k, m, npts):
    pts = []
    seen = set()
    while len(pts) < npts:
        p = tuple(float(v) for v in np.round(rng.uniform(-2, 2, size=n), 6))
        if p not in seen:
            seen.add(p)
            pts.append((f"p{len(pts)}", p))
    vals = {pid: rng.standard_normal((mi.count_upto(n, k), m)) for pid, _ in pts}
    return jets.Jet(n, k, m, pts, vals)


def test_derivative_commutes_with_truncation():
    # polynomial differentiation of T^l_y f equals the Taylor polynomial of
    # the shifted jet at order l - |a|
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        k = int(rng.integers(1, 4))
        j = random_jet(rng, n, k, 1, 4)
        y = j.ids[0]
        alpha = tuple(int(v) for v in rng.multinomial(1, [1.0 / n] * n))
        x = tuple(float(v) for v in rng.uniform(-2, 2, size=n))
        h = 1e-6
        # directional finite difference of T^k_y f along alpha's axis
        axis = alpha.index(1)
        xp = tuple(v + (h if i == axis else 0.0) for i, v in enumerate(x))
        xm = tuple(v - (h if i == axis else 0.0) for i, v in enumerate(x))
        fd = (j.taylor_poly(y, k, xp) - j.taylor_poly(y, k, xm)) / (2 * h)
        shifted = j.shift(alpha)
        direct = shifted.taylor_poly(y, k - 1, x)
        scale = 1.0 + float(np.max(np.abs(direct)))
        assert np.allclose(fd, direct, rtol=0, atol=1e-4 * scale)


def test_taylor_poly_linearity():
    rng = np.random.default_rng(8)
    f = random_jet(rng, 2, 2, 2, 3)
    g = jets.Jet(2, 2, 2, [(p, f.coords[p]) for p in f.ids],
                 {p: rng.standard_normal(f.values[p].shape) for p in f.ids})
    s, t = 1.7, -0.4
    combo = jets.linear_combination(s, f, t, g)
    for _ in range(20):
        x = tuple(float(v) for v in rng.uniform(-3, 3, size=2))
        want = s * f.taylor_poly("p0", 2, x) + t * g.taylor_poly("p0", 2, x)
        got = combo.taylor_poly("p0", 2, x)
        assert np.allclose(got, want, rtol=0, atol=1e-12 * (1 + np.max(np.abs(want))))


def test_reanchoring_identity():
    # T^l_y f(x) = T^l_z f(x) + sum_{|a|<=l} (x-y)^a/a! R^{l-|a|}_z (shift_a f)(y)
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        k = int(rng.integers(1, 4))
        j = random_jet(rng, n, k, 1, 3)
        y, z = j.ids[0], j.ids[1]
        x = tuple(float(v) for v in rng.uniform(-2, 2, size=n))
        left = j.taylor_poly(y, k, x)
        right = j.taylor_poly(z, k, x).copy()
        yc = j.coords[y]
        for alpha in j.indices:
            a = mi.order(alpha)
            shifted = j.shift(alpha)
            rem = shifted.values[y][0] - shifted.taylor_poly(z, k - a, yc)
            right += _monomial(tuple(xi - yi for xi, yi in zip(x, yc)), alpha) \
                / mi.factorial(alpha) * rem
        scale = 1.0 + float(np.max(np.abs(left)))
        assert np.allclose(left, right, rtol=0, atol=1e-9 * scale)


def _series_from_seeds(j, y_id, l, x, upto):
    """Reference rows of T^l_y f at x: the polynomial sum over |a| <= l of
    f_a(y)/a! * prod (x_i - y_i + t_i)^a_i, built from coordinate seeds in
    Taylor arithmetic."""
    y = j.coords[y_id]
    factors = [ta.seed_variable(x, i, j.n, upto) - y[i] for i in range(j.n)]
    mons = ta.monomial_products(factors, l)
    out = np.zeros((mi.count_upto(j.n, upto), j.m))
    for a in mi.enumerate_upto(j.n, l):
        out += np.outer(mons[a].coeffs, j.value(y_id, a) / mi.factorial(a))
    return out


def _series_scale(j, y_id, l, x, upto):
    """Row b: sum over |g| <= l - |b| of |x-y|^g / g! * |f_{b+g}(y)| / b!."""
    h = tuple(abs(xi - yi) for xi, yi in zip(x, j.coords[y_id]))
    rows = []
    for b in mi.enumerate_upto(j.n, upto):
        s = np.zeros(j.m)
        for g in mi.enumerate_upto(j.n, l - mi.order(b)):
            s += _monomial(h, g) / mi.factorial(g) * np.abs(j.value(y_id, mi.add(b, g)))
        rows.append(s / mi.factorial(b))
    return np.array(rows)


def test_taylor_series_matches_seeded_series():
    rng = np.random.default_rng(10)
    eps = np.finfo(float).eps
    for n in (1, 2, 3):
        for k in range(5):
            j = random_jet(rng, n, k, 2, 2)
            y = j.ids[0]
            for l in range(k + 1):
                for upto in range(l + 1):
                    for scale in (1e-3, 1.0, 10.0):
                        x = tuple(float(v) for v in
                                  np.array(j.coords[y]) + scale * rng.standard_normal(n))
                        got = j.taylor_series([j.row[y]], l, x, upto)[:, 0]
                        want = _series_from_seeds(j, y, l, x, upto)
                        bound = 16 * eps * _series_scale(j, y, l, x, upto)
                        assert got.shape == want.shape
                        assert np.all(np.abs(got - want) <= bound), (n, k, l, upto, x)
                        # the float path is row 0, bit for bit
                        assert np.array_equal(j.taylor_poly(y, l, x), got[0])


def test_taylor_poly_is_the_graded_lex_sum():
    # T^l_y f(x) keeps the bits of the plain sum (x-y)^a / a! * f_a(y)
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        j = random_jet(rng, n, 4, 2, 2)
        y = j.ids[0]
        for l in range(5):
            x = tuple(float(v) for v in rng.uniform(-3, 3, size=n))
            h = tuple(xi - yi for xi, yi in zip(x, j.coords[y]))
            want = np.zeros(2)
            for a in mi.enumerate_upto(n, l):
                want += (_monomial(h, a) / mi.factorial(a)) * j.value(y, a)
            assert np.array_equal(j.taylor_poly(y, l, x), want)


def test_taylor_series_orders_checked():
    j = random_jet(np.random.default_rng(12), 2, 2, 1, 1)
    with pytest.raises(ValueError):
        j.taylor_series([0], 3, (0.0, 0.0), 0)
    with pytest.raises(ValueError):
        j.taylor_series([0], 1, (0.0, 0.0), 2)


def test_seminorm_order_monotonicity():
    # seminorm at lower order j is bounded by the explicit multiple of the
    # seminorm at higher order l
    rng = np.random.default_rng(10)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        jj = int(rng.integers(0, l + 1))
        jet = random_jet(rng, n, l, int(rng.integers(1, 3)), int(rng.integers(2, 5)))
        dk = jet.diameter()
        m = 1 + (1 + (l + 1) ** n) * max(1.0, dk) ** (l - jj)
        assert jet.seminorm(jj) <= m * jet.seminorm(l) * (1 + 1e-12)


def _quotient_reference(jet, l, q, K, delta=None):
    """The largest remainder quotient over the ordered pairs of the ids K
    (those at a distance below delta when it is given), by a per-pair loop."""
    out = 0.0
    for a in jet.indices[: mi.count_upto(jet.n, l)]:
        sj, la = jet.shift(a), l - sum(a)
        for y in K:
            for x in K:
                dist = math.dist(jet.coords[x], jet.coords[y])
                if x != y and (delta is None or dist < delta):
                    out = max(out, jets.apply_seminorm(q, sj.remainder(y, la, x)) / dist**la)
    return out


def _seminorm_cases():
    """Random jets of every dimension n <= 3, order k <= 3 and m <= 2, with
    each order -1 <= l <= k (l = -1 takes no index), seminorm q and point
    subset K (None: all points)."""
    rng = np.random.default_rng(19)
    for n, k, m in itertools.product(range(1, 4), range(4), range(1, 3)):
        jet = random_jet(rng, n, k, m, 5)
        for l in range(-1, k + 1):
            for q in ["max", 0, 1][: m + 1]:
                for K in (None, jet.ids[1:4]):
                    yield jet, l, q, K


def test_seminorms_and_modulus_keep_the_bits_of_a_per_pair_loop():
    for jet, l, q, K in _seminorm_cases():
        ids = jet.ids if K is None else K
        rows = [jet.value(pid, a) for pid in ids for a in jet.indices[: mi.count_upto(jet.n, l)]]
        prime = max((jets.apply_seminorm(q, v) for v in rows), default=0.0)
        assert jet.seminorm_prime(l, q, K).hex() == prime.hex()
        assert jet.seminorm_dprime(l, q, K).hex() == _quotient_reference(jet, l, q, ids).hex()
        if q == "max" and K is None:
            # the last delta is a pair distance, whose pair is left out
            for delta in (0.1, 0.5, 2.0, 10.0, math.dist(jet.coords["p0"], jet.coords["p1"])):
                want = _quotient_reference(jet, l, "max", ids, delta)
                assert jet.whitney_modulus(l, delta).hex() == want.hex()


def test_seminorms_and_modulus_make_no_per_pair_call(monkeypatch, tmp_path, capsys):
    jet = random_jet(np.random.default_rng(3), 2, 2, 2, 6)
    want = [_quotient_reference(jet, 2, "max", jet.ids), _quotient_reference(jet, 1, 1, jet.ids[:4]),
            _quotient_reference(jet, 2, "max", jet.ids, 2.0)]

    def per_pair(*args):
        raise AssertionError("a per-pair call")

    monkeypatch.setattr(jets.Jet, "remainder", per_pair)
    monkeypatch.setattr(jets.Jet, "taylor_poly", per_pair)
    got = [jet.seminorm_dprime(2), jet.seminorm_dprime(1, 1, jet.ids[:4]), jet.whitney_modulus(2, 2.0)]
    assert got == want
    assert jet.seminorm(2) == jet.seminorm_prime(2) + want[0]
    p = tmp_path / "jet.json"
    p.write_text(json.dumps(jet.to_dict()))
    assert cli.main(["check-jet", "--input", str(p)]) == 0
    assert f"seminorm''[l=2]: {want[0]!r}" in capsys.readouterr().out


def test_remainder_maxima_are_the_seminorm_and_the_moduli():
    # one table gives seminorm'' and every modulus with their bits
    for jet, l, q, K in _seminorm_cases():
        if q != "max" or K is not None:
            continue
        deltas = (0.1, 0.5, 2.0, 10.0, math.dist(jet.coords["p0"], jet.coords["p1"]))
        dprime, moduli = jet.remainder_maxima(l, deltas)
        assert dprime.hex() == jet.seminorm_dprime(l).hex()
        assert [v.hex() for v in moduli] == [jet.whitney_modulus(l, d).hex() for d in deltas]
    jet = random_jet(np.random.default_rng(5), 1, 1, 1, 3)
    with pytest.raises(ValueError, match="delta must be positive"):
        jet.remainder_maxima(1, (1.0, 0.0))


def test_check_jet_builds_one_remainder_table(monkeypatch, tmp_path, capsys):
    jet = random_jet(np.random.default_rng(4), 2, 2, 1, 6)
    p = tmp_path / "jet.json"
    p.write_text(json.dumps(jet.to_dict()))
    tables = []
    quotients = jets.Jet._quotients

    def counted(self, *args, **kwargs):
        tables.append(args)
        return quotients(self, *args, **kwargs)

    monkeypatch.setattr(jets.Jet, "_quotients", counted)
    assert cli.main(["check-jet", "--input", str(p)]) == 0
    out = capsys.readouterr().out
    assert len(tables) == 1
    d = jet.diameter()
    for delta in (2 * d, d / 2, d / 8):
        assert f"delta={cli._fmt(delta)}]: {cli._fmt(jet.whitney_modulus(2, delta))}" in out


def test_remainder_table_raises_the_first_failure_of_a_per_pair_loop():
    # with one anchor per block, the block of the anchor 0.0 fails at the
    # shift (1,) (1.5 * 1.3e308 overflows, 1.125 * 1.3e308 does not), and a
    # later block, of the anchor 1.45, at the shift (0,) (1.45 * 1.3e308):
    # a per-pair loop with the shift outer names the second
    m = 2**15  # so that a block holds one anchor
    v = {pid: np.zeros((3, m)) for pid in "abc"}
    v["a"][2], v["b"][1] = 1.3e308, 1.3e308
    jet = jets.Jet(1, 2, m, [("a", (0.0,)), ("b", (1.45,)), ("c", (1.5,))], v)
    first = r"order-2 Taylor polynomial anchored at \(1\.45,\) overflows at \(0\.0,\)"
    with pytest.raises(ValueError, match=first):
        jet.seminorm_dprime(2)
    with pytest.raises(ValueError, match=first):
        jet.remainder_maxima(2, (1.0,))
    with pytest.raises(ValueError, match=r"order-1 Taylor polynomial anchored at \(0\.0,\)"):
        jet.seminorm_dprime(2, K=["a", "c"])


def test_remainder_table_memory_grows_by_its_two_results_per_pair():
    # the peak traced memory of the table grows by the two float64 results
    # of a pair (16 bytes) and not by the row arrays, distance lists and
    # powers of all pairs at once (about 70 bytes a pair); blocks are small
    # here (m = 64), so their series are a constant of a few MB
    rng = np.random.default_rng(3)

    def peak(npts):
        pts = [(f"p{i}", tuple(x)) for i, x in enumerate(rng.uniform(-1, 1, (npts, 2)).tolist())]
        jet = jets.Jet(2, 0, 64, pts, {pid: rng.standard_normal((1, 64)) for pid, _ in pts})
        tracemalloc.start()
        try:
            jet.seminorm_dprime(0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(150), peak(300)
    assert large - small < 32 * (300 * 299 - 150 * 149)


def test_series_order_limit_is_a_value_error():
    # one limit for jet files and series: 21! leaves the 64-bit integers
    f = el.VectorExpr.parse(["x0"], 1)
    with pytest.raises(ValueError, match=r"^order 21 exceeds the largest supported series order 20$"):
        jets.Jet.from_expr(f, [("a", (0.0,))], ta.MAX_ORDER + 1)
    assert jets.Jet.from_expr(f, [("a", (0.0,))], ta.MAX_ORDER).k == ta.MAX_ORDER
    assert jets._order({"order": ta.MAX_ORDER}) == ta.MAX_ORDER
    with pytest.raises(ValueError, match=r"^order 21 exceeds the largest supported jet order 20$"):
        jets._order({"order": ta.MAX_ORDER + 1})


def test_pair_distances_at_the_ends_of_the_float_range():
    def two(k, x, y):
        """The order-k jet at x and y with f(x) = 1, all else 0."""
        v = np.eye(mi.count_upto(len(x), k), 1)
        return jets.Jet(len(x), k, 1, [("a", x), ("b", y)], {"a": v, "b": 0 * v})

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the squares of the differences overflow, the distance does not
        assert two(0, (0.0, 0.0), (1e154, 1e154)).diameter() == math.dist((0.0, 0.0), (1e154, 1e154))
        with pytest.raises(ValueError, match=r"points \(-1e\+308,\) and \(1e\+308,\) is beyond"):
            two(0, (-1e308,), (1e308,)).diameter()
        with pytest.raises(ValueError, match=r"points \(-1e\+308,\) and \(1e\+308,\) is beyond"):
            two(0, (-1e308,), (1e308,)).seminorm_dprime(0)
        # the power 2 of the distance underflows to 0; at 1e-160 it is
        # subnormal, and the quotients 1 / 1e-320 are inf
        with pytest.raises(ValueError, match=r"\(1e-200,\) to the power 2 is beyond"):
            two(2, (0.0,), (1e-200,)).whitney_modulus(2, 1.0)
        tiny = two(2, (0.0,), (1e-160,))
        assert tiny.seminorm_dprime(2) == tiny.whitney_modulus(2, 1.0) == math.inf
        # the square of the distance underflows, the distance does not
        assert two(0, (0.0,), (1e-323,)).diameter() == 1e-323
        assert two(0, (0.0, 0.0), (3e-170, 4e-170)).diameter() == math.dist((0.0, 0.0), (3e-170, 4e-170))
    assert _quotient_reference(tiny, 2, "max", tiny.ids) == math.inf


def _jet_doc(points):
    return {"dim": 2, "order": 1, "outdim": 1, "points": [
        {"id": pid, "x": x, "values": values} for pid, x, values in points
    ]}


_GOOD_VALUES = {"[0,0]": [1.0], "[1,0]": [2.0], "[0,1]": [3.0]}


@pytest.mark.parametrize("bad, message", [
    ({"[0,0]": [1.0], "[1,x]": [2.0], "[0,1]": [3.0]},
     "cannot parse multi-index from '[1,x]'"),
    ({"[0,0]": [1.0], "[1]": [2.0], "[0,1]": [3.0]},
     "multi-index '[1]' has dimension 1, expected 2"),
    ({"[0,0]": [1.0], "[1,0]": [2.0]},
     "point b is missing values for indices [(0, 1)]"),
    ({"[0,0]": [1.0], "[1,0]": [math.inf], "[0,1]": [3.0]},
     "values for point b are not all finite"),
    ({"[0,0]": [1.0, 0.0], "[1,0]": [2.0, 0.0], "[0,1]": [3.0, 0.0]},
     "values for point b have shape (3, 2), expected (3, 1)"),
    ({"[0,0]": [1.0], "[1,0]": [1.0, 2.0], "[0,1]": [3.0]},
     "values for point b at index [1,0] are [1.0, 2.0], expected a list of outdim = 1 numbers"),
    ({"[0,0]": [1.0], "[1,0]": [[2.0]], "[0,1]": [3.0]},
     "values for point b at index [1,0] are [[2.0]], expected a list of outdim = 1 numbers"),
])
def test_from_dict_error_names_the_bad_point(bad, message):
    # the second of three points is bad; the first and third are good
    doc = _jet_doc([("a", [0.0, 0.0], _GOOD_VALUES), ("b", [1.0, 0.0], bad),
                    ("c", [0.0, 1.0], _GOOD_VALUES)])
    with pytest.raises(ValueError) as info:
        jets.Jet.from_dict(doc)
    assert str(info.value) == message


def test_from_dict_key_spellings():
    # spellings of one index may differ between points and within one; at
    # a point, the last spelling of an index wins
    doc = _jet_doc([
        ("a", [0.0, 0.0], {"[0,0]": [1.0], "(1,0)": [2.0], "[0,1]": [3.0]}),
        ("b", [1.0, 0.0], {"[0, 1]": [6.0], "[1,0]": [5.0], "(0,0)": [4.0],
                           "(0,1)": [7.0]}),
    ])
    j = jets.Jet.from_dict(doc)
    assert j.values["a"][:, 0].tolist() == [1.0, 2.0, 3.0]
    assert j.values["b"][:, 0].tolist() == [4.0, 5.0, 7.0]


# -- stacked arrays against per-point construction ------------------------------


def _per_point(n, k, m, points, values):
    """A jet as each of its points converts alone: ids, coordinate tuples,
    value arrays and the file form built from them."""
    ids = [pid for pid, _ in points]
    coords = {pid: tuple(map(float, x)) for pid, x in points}
    vals = {pid: np.asarray(values[pid], dtype=float) for pid in ids}
    keys = [mi.fmt(a) for a in mi.enumerate_upto(n, k)]
    pts = [
        {"id": pid, "x": list(coords[pid]),
         "values": {key: [float(v) for v in row] for key, row in zip(keys, vals[pid])}}
        for pid in ids
    ]
    return ids, coords, vals, {"dim": n, "order": k, "outdim": m, "points": pts}


def _assert_per_point_bits(jet, n, k, m, points, values):
    ids, coords, vals, doc = _per_point(n, k, m, points, values)
    assert (jet.n, jet.k, jet.m, jet.ids) == (n, k, m, ids)
    assert list(jet.coords) == list(jet.values) == ids
    for pid in ids:
        assert all(type(c) is float for c in jet.coords[pid])
        assert np.array(jet.coords[pid]).tobytes() == np.array(coords[pid]).tobytes()
        assert jet.values[pid].shape == vals[pid].shape
        assert jet.values[pid].tobytes() == vals[pid].tobytes()
    assert json.dumps(jet.to_dict()) == json.dumps(doc)


def _layouts_doc():
    """A 2-D order-2 jet file with m = 2 whose points spell their keys in
    three layouts (in order; permuted; with parentheses and a stale first
    spelling of (1,0)), with integer and negative-zero coordinates."""
    rng = np.random.default_rng(21)
    indices = mi.enumerate_upto(2, 2)
    points = []
    for i in range(12):
        x = [int(v) for v in rng.integers(-5, 5, size=2)] if i % 4 == 3 else rng.uniform(-1, 1, 2).tolist()
        if i == 5:
            x = [-0.0, 0.25]
        rows = {a: rng.standard_normal(2).tolist() for a in indices}
        if i % 3 == 0:
            values = {mi.fmt(a): rows[a] for a in indices}
        elif i % 3 == 1:
            values = {mi.fmt(a): rows[a] for a in reversed(indices)}
        else:
            values = {"(1,0)": [99.0, 99.0]}
            values.update({"(%d,%d)" % a: rows[a] for a in indices})
        points.append({"id": f"q{i}" if i != 7 else 7, "x": x, "values": values})
    return {"dim": 2, "order": 2, "outdim": 2, "points": points}


def test_from_dict_keeps_the_bits_of_per_point_reading():
    doc = json.loads(json.dumps(_layouts_doc()))
    indices = mi.enumerate_upto(2, 2)
    points, values = [], {}
    for p in doc["points"]:
        got = {mi.parse(key, 2): v for key, v in p["values"].items()}  # last spelling wins
        points.append((str(p["id"]), p["x"]))
        values[str(p["id"])] = [got[a] for a in indices]
    _assert_per_point_bits(jets.Jet.from_dict(doc), 2, 2, 2, points, values)


def test_producers_keep_the_bits_of_per_point_construction():
    f = el.VectorExpr.parse(["exp(0.3*x0)*cos(x1)", "x0*x1^2 - x1"], 2)
    pts = [(f"p{i}", (0.4 * i - 1.0, 0.7 - 0.3 * i)) for i in range(6)]
    j = jets.Jet.from_expr(f, pts, 3)
    alone = {pid: jets.Jet.from_expr(f, [(pid, x)], 3).values[pid] for pid, x in pts}
    _assert_per_point_bits(j, 2, 3, 2, pts, alone)

    g = el.VectorExpr.parse(["x0 + 0.3*sin(x1)", "x1"], 2)
    src = [(f"s{i}", (x0 - 0.3 * math.sin(x1), x1)) for i, (_, (x0, x1)) in enumerate(pts)]
    back = fdb.jet_pullback(g, j, src)
    alone = {pid: fdb.jet_pullback(g, j, [(pid, x)]).values[pid] for pid, x in src}
    _assert_per_point_bits(back, 2, 3, 2, src, alone)

    rows = [j.pos[mi.add((1, 0), b)] for b in mi.enumerate_upto(2, 2)]
    _assert_per_point_bits(j.shift((1, 0)), 2, 2, 2, pts, {p: j.values[p][rows] for p, _ in pts})
    _assert_per_point_bits(j.project(1), 2, 1, 2, pts, {p: j.values[p][:3] for p, _ in pts})

    other = jets.Jet.from_expr(f, pts[2:] + pts[:2], 3)  # the same points in another order
    _assert_per_point_bits(
        jets.linear_combination(0.5, j, -3.0, other), 2, 3, 2, pts,
        {p: 0.5 * j.values[p] - 3.0 * other.values[p] for p, _ in pts},
    )

    glued = jets.glue([(j, ["p3", "p1"]), (other, ["p1", "p0", "p5"])])
    order = ["p3", "p1", "p0", "p5"]
    _assert_per_point_bits(glued, 2, 3, 2, [(p, j.coords[p]) for p in order],
                           {"p3": j.values["p3"], "p1": j.values["p1"],
                            "p0": other.values["p0"], "p5": other.values["p5"]})


def test_blend_of_a_read_jet_keeps_the_bits_of_per_point_construction():
    doc = json.loads(json.dumps(_layouts_doc()))
    read = jets.Jet.from_dict(doc)
    built = jets.Jet(2, 2, 2, [(pid, read.coords[pid]) for pid in read.ids],
                     {pid: np.array(read.values[pid]) for pid in read.ids})
    on = [read.coords[pid] for pid in read.ids]
    off = [tuple(x) for x in np.random.default_rng(22).uniform(-1.5, 1.5, (20, 2))]
    a = extend.Extension(read).blend(on + off, 2)
    b = extend.Extension(built).blend(on + off, 2)
    assert a.tobytes() == b.tobytes()
    assert a[: len(on)].tobytes() == np.stack([read.values[pid] for pid in read.ids]).tobytes()


# -- unusual jet files ------------------------------------------------------------


def _read_one_point_at_a_time(doc):
    """A jet file read by plain per-point code, the reference for
    ``Jet.from_dict``: "x" a list converted by float(), each index's entry
    (the last spelling of an index winning) a list of outdim numbers, a
    point's rows one numpy conversion.  A malformed file raises."""
    n, k, m = (int(doc[field]) for field in ("dim", "order", "outdim"))
    indices = mi.enumerate_upto(n, k)
    points, values = [], {}
    for p in doc["points"]:
        pid = str(p["id"])
        if not isinstance(p["x"], list):
            raise ValueError(f'"x" of point {pid} is not a list')
        got = {mi.parse(key, n): row for key, row in p["values"].items()}
        rows = [got[a] for a in indices]
        if not all(isinstance(row, list) and len(row) == m for row in rows):
            raise ValueError(f"a value entry of point {pid} is not a list of {m} numbers")
        points.append((pid, tuple(map(float, p["x"]))))
        values[pid] = np.array(rows, dtype=float)
    return jets.Jet(n, k, m, points, values)


def _unusual(points, **header):
    return {"dim": 1, "order": 1, "outdim": 1, **header, "points": points}


def _line(**second):
    """Three 1-D points with the fields of the second (id b) replaced."""
    pts = [{"id": pid, "x": [x], "values": {"[0]": [1.0], "[1]": [2.0]}}
           for pid, x in (("a", 0.0), ("b", 1.0), ("c", 2.0))]
    pts[1].update(second)
    return _unusual(pts)


_PLANE2 = {"[0,0]": [1.0, 4.0], "[1,0]": [2.0, 5.0], "[0,1]": [3.0, 6.0]}


def _plane(**second):
    """Three 2-D points with m = 2 and the fields of the second replaced."""
    pts = [{"id": pid, "x": x, "values": dict(_PLANE2)}
           for pid, x in (("a", [0.0, 0.0]), ("b", [1.0, 0.0]), ("c", [0.0, 1.0]))]
    pts[1].update(second)
    return _unusual(pts, dim=2, outdim=2)


def _alike(values, xs=(0.0, 1.0, 2.0)):
    """1-D points that all spell their values alike."""
    return _unusual([{"id": f"p{i}", "x": [x], "values": values} for i, x in enumerate(xs)])


# jet files with unusual shapes or numbers: each loads as the per-point
# reference reads it (message None) or is the ValueError with the message
# given
_UNUSUAL_JETS = {
    "x-string-of-dim-length": (
        _plane(x="12"), '"x" of point b is \'12\', expected a list of dim = 2 numbers'
    ),
    "x-object": (_line(x={"0": 1.0}), "\"x\" of point b is {'0': 1.0}, expected a list of dim = 1 numbers"),
    "x-boolean": (_line(x=True), '"x" of point b is True, expected a list of dim = 1 numbers'),
    "x-booleans": (_line(x=[True]), None),
    "x-number-string": (_line(x=["1.5"]), None),
    "x-nan": (_line(x=[math.nan]), "point b has non-finite coordinates (nan,)"),
    "x-1e400": (_line(x=[1e400]), "point b has non-finite coordinates (inf,)"),
    "value-string-of-outdim-length": (
        _plane(values={**_PLANE2, "[1,0]": "25"}),
        "values for point b at index [1,0] are '25', expected a list of outdim = 2 numbers",
    ),
    "value-object-of-outdim-length": (
        _plane(values={**_PLANE2, "[1,0]": {"a": 2.0, "b": 5.0}}),
        "values for point b at index [1,0] are {'a': 2.0, 'b': 5.0}, expected a list of outdim = 2 numbers",
    ),
    "value-boolean": (
        _line(values={"[0]": True, "[1]": [2.0]}),
        "values for point b at index [0] are True, expected a list of outdim = 1 numbers",
    ),
    "value-booleans": (_line(values={"[0]": [False], "[1]": [True]}), None),
    "values-string": (_line(values="[0][1]"), '"values" of point b is a string, expected an object'),
    "values-boolean": (_line(values=False), '"values" of point b is a boolean, expected an object'),
    "ragged-rows": (
        _plane(values={**_PLANE2, "[0,1]": [3.0]}),
        "values for point b at index [0,1] are [3.0], expected a list of outdim = 2 numbers",
    ),
    "outdim-wrong-everywhere": (
        _alike({"[0]": [1.0, 0.0], "[1]": [2.0, 0.0]}),
        "values for point p0 have shape (2, 2), expected (2, 1)",
    ),
    "value-nan": (_line(values={"[0]": [math.nan], "[1]": [2.0]}), "values for point b are not all finite"),
    "value-1e400": (_line(values={"[0]": [1.0], "[1]": [1e400]}), "values for point b are not all finite"),
    "extra-key-everywhere": (_alike({"[0]": [1.0], "[1]": [2.0], "[2]": [9.0]}), None),
    "extra-key-of-any-kind": (_alike({"[2]": "junk", "[0]": [1.0], "[1]": [2.0]}), None),
    "extra-key-at-one-point": (_line(values={"[0]": [1.0], "[1]": [2.0], "[5]": [[]]}), None),
    "reordered-keys-everywhere": (_alike({"[1]": [2.0], "[0]": [1.0]}), None),
    "mixed-key-layouts": (_line(values={"[1]": [7.0], "(0)": [8.0]}), None),
    "stale-spelling-of-any-kind": (_line(values={"(1)": "junk", "[0]": [1.0], "[1]": [2.0]}), None),
}


@pytest.mark.parametrize("case", list(_UNUSUAL_JETS))
def test_from_dict_on_unusual_documents(case, tmp_path, capsys):
    doc, message = _UNUSUAL_JETS[case]
    doc = json.loads(json.dumps(doc))
    p = tmp_path / "jet.json"
    p.write_text(json.dumps(doc))
    rc = cli.main(["extend", "--input", str(p), "--grid=" + ",".join(["0.5:1.5:0.5"] * doc["dim"])])
    err = capsys.readouterr().err
    if message is not None:
        with pytest.raises(ValueError) as info:
            jets.Jet.from_dict(doc)
        assert str(info.value) == message
        assert (rc, err) == (2, f"error: {message}\n")
        return
    got, want = jets.Jet.from_dict(doc), _read_one_point_at_a_time(doc)
    assert got.ids == want.ids
    assert got.X.tobytes() == want.X.tobytes() and got.F.tobytes() == want.F.tobytes()
    assert (rc, err) == (0, "")


_ODD = [None, True, False, "12", "1.5", "", {}, {"0": 1.0}, [], [1.0], [[1.0]],
        10**400, math.nan, math.inf, 1e300]


@st.composite
def _jet_documents(draw):
    """Jet files of 1 to 4 points, every point spelling its keys in one
    drawn order, with up to two mutations: an odd "x", value entry or
    number; a point's keys reordered; an extra or stale key; a key dropped."""
    n, k, m = draw(st.integers(1, 2)), draw(st.integers(0, 2)), draw(st.integers(1, 2))
    indices = mi.enumerate_upto(n, k)
    number = st.floats(-2, 2) | st.integers(-2, 2)
    odd = st.sampled_from(_ODD).map(copy.deepcopy)
    keys = [mi.fmt(a) for a in draw(st.permutations(indices))]
    points = [
        {"id": f"p{i}", "x": draw(st.lists(number, min_size=n, max_size=n)),
         "values": {key: draw(st.lists(number, min_size=m, max_size=m)) for key in keys}}
        for i in range(draw(st.integers(1, 4)))
    ]
    for _ in range(draw(st.integers(0, 2))):
        p = draw(st.sampled_from(points))
        key = draw(st.sampled_from(list(p["values"]))) if p["values"] else None
        kind = draw(st.sampled_from(["x", "x-number", "entry", "number", "layout", "extra", "stale", "drop"]))
        if kind == "x":
            p["x"] = draw(odd)
        elif kind == "x-number" and isinstance(p["x"], list) and p["x"]:
            p["x"][draw(st.integers(0, len(p["x"]) - 1))] = draw(odd)
        elif kind == "entry" and key is not None:
            p["values"][key] = draw(odd)
        elif kind == "number" and isinstance(p["values"].get(key), list) and p["values"][key]:
            p["values"][key][0] = draw(odd)
        elif kind == "layout":
            p["values"] = dict(draw(st.permutations(list(p["values"].items()))))
        elif kind == "extra":
            p["values"][mi.fmt((k + 1,) + (0,) * (n - 1))] = draw(odd | st.lists(number, min_size=m, max_size=m))
        elif kind == "stale":
            p["values"] = {"(" + ",".join(map(str, indices[-1])) + ")": draw(odd), **p["values"]}
        elif kind == "drop" and key is not None:
            del p["values"][key]
    return json.loads(json.dumps({"dim": n, "order": k, "outdim": m, "points": points}))


@given(_jet_documents())
@settings(max_examples=300, deadline=None)
def test_from_dict_reads_as_one_point_at_a_time(doc):
    # the flat conversion, where it applies, and the per-point reader agree
    # with the reference on every document: the same bits, or a ValueError
    try:
        want = _read_one_point_at_a_time(doc)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError):
        with pytest.raises(ValueError):
            jets.Jet.from_dict(doc)
        return
    got = jets.Jet.from_dict(doc)
    assert got.ids == want.ids
    assert got.X.shape == want.X.shape and got.F.shape == want.F.shape
    assert got.X.tobytes() == want.X.tobytes() and got.F.tobytes() == want.F.tobytes()
