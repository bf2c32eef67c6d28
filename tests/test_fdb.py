"""Set partitions, the universal chain-rule polynomials, and jet pullback."""

import itertools
import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from whitneyext import fdb, jets, taylorarith
from whitneyext import exprlang as el


# -- set partitions ---------------------------------------------------------------


def stirling2(k, j):
    return int(
        sum((-1) ** i * math.comb(j, i) * (j - i) ** k for i in range(j + 1))
        // math.factorial(j)
    )


def test_partition_counts_match_stirling():
    for k in range(1, 7):
        for j in range(1, k + 1):
            assert len(fdb.set_partitions(k, j)) == stirling2(k, j)
    assert len(fdb.set_partitions(3, 2)) == 3
    assert len(fdb.set_partitions(4, 2)) == 7


def test_partition_structure():
    for P in fdb.set_partitions(4, 2):
        blocks = [set(b) for b in P]
        assert len(blocks) == 2
        assert all(blocks[0].isdisjoint(b) for b in blocks[1:])
        assert set().union(*blocks) == {1, 2, 3, 4}
        # canonical: sorted by minimum element
        mins = [min(b) for b in P]
        assert mins == sorted(mins)


def test_partition_k_equals_j():
    parts = fdb.set_partitions(3, 3)
    assert len(parts) == 1
    assert [tuple(b) for b in parts[0]] == [(1,), (2,), (3,)]


def test_partition_out_of_range():
    with pytest.raises(ValueError):
        fdb.set_partitions(0, 1)
    with pytest.raises(ValueError):
        fdb.set_partitions(3, 4)
    with pytest.raises(ValueError):
        fdb.set_partitions(9, 2)


def test_partitions_all_distinct():
    seen = set()
    for j in range(1, 6):
        for P in fdb.set_partitions(5, j):
            key = tuple(tuple(b) for b in P)
            assert key not in seen
            seen.add(key)
    # Bell number B(5) = 52
    assert len(seen) == 52


# -- tables -----------------------------------------------------------------------


def test_table_univariate_order2():
    t = fdb.build_table((2,), 1)
    lines = fdb.table_text(t)
    assert "p[(2),(1)] = 1 * g^(2)_0" in lines
    assert "p[(2),(2)] = 1 * g^(1)_0 * g^(1)_0" in lines


def test_table_base_cases():
    t0 = fdb.build_table((0,), 1)
    assert t0.poly((0,)) == {(): 1}
    t = fdb.build_table((2,), 1)
    assert t.poly((0,)) == {}  # zero polynomial


def test_table_univariate_order3():
    # d^3(f o g) = g''' f' + 3 g' g'' f'' + (g')^3 f'''
    t = fdb.build_table((3,), 1)
    p1 = t.poly((1,))
    assert p1 == {(((3,), 0),): 1}
    p2 = t.poly((2,))
    assert p2 == {(((1,), 0), ((2,), 0)): 3}
    p3 = t.poly((3,))
    assert p3 == {(((1,), 0), ((1,), 0), ((1,), 0)): 1}


def test_table_order_cap():
    with pytest.raises(ValueError):
        fdb.build_table((9,), 1)


def test_table_memo_idempotent():
    a = fdb.build_table((2, 1), 2)
    b = fdb.build_table((2, 1), 2)
    assert a is b or a.polys == b.polys


def test_monomial_count_identity():
    # summing monomial multiplicities over all beta with |beta| = j recovers
    # S(k, j) * t^j: each partition with j blocks yields t^j assignments
    k, t = 4, 2
    table = fdb.build_table((k,), t)
    for j in range(1, k + 1):
        total = 0
        for beta in table.polys:
            if sum(beta) == j:
                total += sum(table.polys[beta].values())
        assert total == stirling2(k, j) * t**j


# -- chain rule --------------------------------------------------------------------


def test_chain_x4():
    f = el.VectorExpr.parse(["x0^2"], 1)
    g = el.VectorExpr.parse(["x0^2"], 1)
    got = fdb.chain_derivative(f, g, (2,), (1.0,))
    assert got[0] == pytest.approx(12.0, rel=1e-13)


def test_chain_identity_inner():
    f = el.VectorExpr.parse(["exp(x0)*sin(x1)"], 2)
    g = el.identity_vector(2)
    x = (0.4, -0.7)
    for alpha in [(0, 0), (1, 0), (2, 1), (0, 3)]:
        got = fdb.chain_derivative(f, g, alpha, x)
        tv = el.eval_taylor(f.exprs[0], x, sum(alpha))
        want = float(tv.coeffs[tv.ctx.pos[alpha]]) * math.prod(
            math.factorial(a) for a in alpha
        )
        assert got[0] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_chain_alpha_zero():
    f = el.VectorExpr.parse(["x0 + x1"], 2)
    g = el.VectorExpr.parse(["x0^2", "sin(x0)"], 1)
    got = fdb.chain_derivative(f, g, (0,), (0.5,))
    assert got[0] == pytest.approx(0.25 + math.sin(0.5), rel=1e-14)


def test_chain_matches_substituted_composition():
    rng = np.random.default_rng(22)
    cases = [
        (["x0^2 + x1"], ["sin(x0)", "x0*x1"], 2, (0.3, 0.8)),
        (["exp(x0)"], ["x0*x1 + x1^2"], 2, (0.5, -0.4)),
        (["x0*x1", "x0 - x1"], ["x0^2", "exp(x0)"], 1, (0.7,)),
    ]
    for fsrc, gsrc, s, x in cases:
        g = el.VectorExpr.parse(gsrc, s)
        f = el.VectorExpr.parse(fsrc, len(gsrc))
        comp = f.compose(g)
        for alpha in itertools.product(range(4), repeat=s):
            if sum(alpha) > 3:
                continue
            got = fdb.chain_derivative(f, g, alpha, x)
            want = np.array([
                el.eval_taylor(e, x, sum(alpha)).coeffs for e in comp.exprs
            ])
            ctx = el.eval_taylor(comp.exprs[0], x, sum(alpha)).ctx
            fa = math.prod(math.factorial(a) for a in alpha)
            wval = want[:, ctx.pos[alpha]] * fa
            assert np.allclose(got, wval, rtol=1e-10, atol=1e-10), (alpha, fsrc)


# -- pullback ----------------------------------------------------------------------


def pts(coords):
    return [(f"p{i}", tuple(c)) for i, c in enumerate(coords)]


def test_pullback_identity():
    f = jets.Jet.from_expr(
        el.VectorExpr.parse(["exp(x0)*x1"], 2), pts([(0.0, 1.0), (1.0, -0.5)]), 2
    )
    g = el.identity_vector(2)
    back = fdb.jet_pullback(g, f, [("q0", (0.0, 1.0)), ("q1", (1.0, -0.5))])
    assert back.k == f.k and back.m == f.m
    for qid, pid in (("q0", "p0"), ("q1", "p1")):
        assert np.allclose(back.values[qid], f.values[pid], rtol=0, atol=1e-13)


def test_pullback_matches_composed_induction():
    # pulling back the jet of F along g equals inducing the jet of F o g
    g = el.VectorExpr.parse(["2*x0", "x0^2"], 1)
    F = el.VectorExpr.parse(["sin(x0)*exp(x1)"], 2)
    base = [(-0.5,), (0.25,), (1.0,)]
    image = [tuple(g.eval_real(p)) for p in base]
    f = jets.Jet.from_expr(F, pts(image), 3)
    pulled = fdb.jet_pullback(g, f, pts(base))
    direct = jets.Jet.from_expr(F.compose(g), pts(base), 3)
    for pid in pulled.ids:
        assert np.allclose(
            pulled.values[pid], direct.values[pid], rtol=1e-10, atol=1e-10
        )


def test_pullback_functorial():
    # pulling back along h then g equals pulling back along h o g
    g = el.VectorExpr.parse(["x0 + 1"], 1)          # R -> R
    h = el.VectorExpr.parse(["x0^2", "2*x0"], 1)    # R -> R^2
    F = el.VectorExpr.parse(["exp(x0)*x1"], 2)
    base = [(0.0,), (0.5,)]
    mid = [tuple(g.eval_real(p)) for p in base]
    top = [tuple(h.eval_real(p)) for p in mid]
    f = jets.Jet.from_expr(F, pts(top), 2)
    two_step = fdb.jet_pullback(g, fdb.jet_pullback(h, f, pts(mid)), pts(base))
    one_step = fdb.jet_pullback(h.compose(g), f, pts(base))
    for pid in two_step.ids:
        assert np.allclose(
            two_step.values[pid], one_step.values[pid], rtol=1e-9, atol=1e-9
        )


def test_pullback_product_embedding_roundtrip():
    # project a product jet to the first factor, then pull back along the
    # section x -> (x, b): recovers the restriction exactly
    proj = el.VectorExpr.parse(["x0"], 2)           # (x, y) -> x
    b = 0.75
    section = el.VectorExpr.parse(["x0", str(b)], 1)  # x -> (x, b)
    F = el.VectorExpr.parse(["sin(x0)"], 1)
    base = [(0.2, b), (1.4, b)]
    f = jets.Jet.from_expr(F.compose(proj), pts(base), 2)
    down = fdb.jet_pullback(section, f, pts([(0.2,), (1.4,)]))
    up = fdb.jet_pullback(proj, down, pts(base))
    for pid in up.ids:
        assert np.allclose(up.values[pid], f.values[pid], rtol=0, atol=1e-12)


def test_pullback_unmatched_point():
    f = jets.Jet.from_expr(el.VectorExpr.parse(["x0"], 1), pts([(1.0,)]), 1)
    g = el.VectorExpr.parse(["2*x0"], 1)
    with pytest.raises(ValueError):
        fdb.jet_pullback(g, f, pts([(1.0,)]))  # image 2.0 not a stored point


def test_pullback_linear_in_jet():
    g = el.VectorExpr.parse(["x0^2"], 1)
    base = [(1.0,), (-0.5,)]
    image = [(1.0,), (0.25,)]
    fa = jets.Jet.from_expr(el.VectorExpr.parse(["sin(x0)"], 1), pts(image), 2)
    fb = jets.Jet.from_expr(el.VectorExpr.parse(["exp(x0)"], 1), pts(image), 2)
    combo = jets.linear_combination(2.0, fa, -0.5, fb)
    lhs = fdb.jet_pullback(g, combo, pts(base))
    ra = fdb.jet_pullback(g, fa, pts(base))
    rb = fdb.jet_pullback(g, fb, pts(base))
    rhs = jets.linear_combination(2.0, ra, -0.5, rb)
    for pid in lhs.ids:
        assert np.allclose(lhs.values[pid], rhs.values[pid], rtol=0, atol=1e-12)


def _random_map(rng, s, t, transcendental):
    """t random components in s variables: polynomials of degree <= 3, or
    sums of exp/sin/cos of linear forms with a polynomial term."""
    comps = []
    for _ in range(t):
        terms = [f"{rng.uniform(-1, 1):.6f}"]
        for alpha in itertools.product(range(4), repeat=s):
            if 0 < sum(alpha) <= 3 and rng.random() < 0.6:
                mono = "*".join(f"x{i}^{a}" for i, a in enumerate(alpha) if a)
                terms.append(f"{rng.uniform(-1.5, 1.5):.6f}*{mono}")
        if transcendental:
            for fn in ("exp", "sin", "cos"):
                lin = " + ".join(f"{rng.uniform(-0.8, 0.8):.6f}*x{i}" for i in range(s))
                terms.append(f"{rng.uniform(-1.5, 1.5):.6f}*{fn}({lin})")
        comps.append(" + ".join(terms))
    return el.VectorExpr.parse(comps, s)


def test_pullback_rows_match_chain_rule_tables():
    # every alpha-row of the Taylor-composition pullback against the
    # Faa di Bruno tables (chain_derivative).  Both routes read the same
    # series of g and the same jet values, so they differ by rounding only:
    # at most C * eps * S, where S = sum_beta |p_{a,b}|(|dg|) * |f_b| is the
    # chain-rule sum taken in absolute values.  Worst error / bound seen:
    # 0.08 with this seed, 0.13 over seeds 1..5.
    C = 16.0
    rng = np.random.default_rng(7)
    worst = 0.0
    for s, t in itertools.product((1, 2, 3), repeat=2):
        for transcendental in (False, True):
            k = int(rng.integers(1, 5))
            g = _random_map(rng, s, t, transcendental)
            F = _random_map(rng, t, 2, True)
            base = [(f"b{i}", tuple(rng.uniform(-0.9, 0.9, size=s))) for i in range(2)]
            image = [(pid, tuple(g.eval_real(x))) for pid, x in base]
            f = jets.Jet.from_expr(F, image, k)
            pulled = fdb.jet_pullback(g, f, base)
            for pid, x in base:
                absg = {}
                for i, tv in enumerate(g.eval_taylor(x, k)):
                    for gamma in tv.ctx.indices:
                        absg[(gamma, i)] = abs(taylorarith.extract_derivative(tv, gamma))
                absf = np.abs(f.values[pid])
                for alpha in pulled.indices:
                    want = fdb.chain_derivative(F, g, alpha, x)
                    table = fdb.build_table(alpha, t)
                    size = sum(
                        table.eval_poly(beta, absg) * absf[f.pos[beta]]
                        for beta in table.polys
                    )
                    err = np.abs(pulled.value(pid, alpha) - want)
                    bound = C * np.finfo(float).eps * np.maximum(size, np.finfo(float).tiny)
                    worst = max(worst, float(np.max(err / bound)))
    assert worst <= 1.0, worst


def test_pullback_beyond_table_order_cap():
    # the pullback never builds a Faa di Bruno table, so order 9 (above
    # the tables' cap of 8) works; the oracle is the jet induced by the
    # literal composition F o g
    with pytest.raises(ValueError):
        fdb.build_table((9, 0), 2)
    g = el.VectorExpr.parse(["x0 + 0.3*sin(x1)", "x1"], 2)
    F = el.VectorExpr.parse(["exp(0.5*x0) * sin(x1)", "x0*x1^2"], 2)
    base = pts([(0.2, -0.4), (-0.7, 0.9)])
    image = [(pid, tuple(g.eval_real(x))) for pid, x in base]
    f = jets.Jet.from_expr(F, image, 9)
    pulled = fdb.jet_pullback(g, f, base)
    direct = jets.Jet.from_expr(F.compose(g), base, 9)
    assert pulled.k == 9
    for pid in pulled.ids:
        want = direct.values[pid]
        scale = 1.0 + float(np.max(np.abs(want)))
        assert np.allclose(pulled.values[pid], want, rtol=0, atol=1e-13 * scale), pid


# -- sympy cross-check on the full chain rule ---------------------------------------


@given(st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_chain_against_sympy_random(seed):
    rng = np.random.default_rng(seed)
    s = int(rng.integers(1, 3))
    t = int(rng.integers(1, 3))
    xs = sp.symbols(f"u0:{s}")

    def rand_poly(nvars):
        syms = sp.symbols(f"u0:{nvars}")
        p = sp.Integer(0)
        for _ in range(3):
            c = int(rng.integers(-3, 4))
            mono = sp.Integer(1)
            for sym in syms:
                mono *= sym ** int(rng.integers(0, 3))
            p += c * mono
        return p

    gs = [rand_poly(s) for _ in range(t)]
    fexpr = rand_poly(t)
    gsrc = [str(e).replace("u", "x").replace("**", "^") for e in gs]
    fsrc = str(fexpr).replace("u", "x").replace("**", "^")
    try:
        g = el.VectorExpr.parse(gsrc, s)
        f = el.VectorExpr.parse([fsrc], t)
    except el.ExprError:
        return  # sympy may print forms outside the small grammar (e.g. 0)
    alpha = tuple(int(v) for v in rng.integers(0, 3, size=s))
    if sum(alpha) == 0 or sum(alpha) > 4:
        return
    x = tuple(float(v) for v in rng.uniform(-1, 1, size=s))
    got = fdb.chain_derivative(f, g, alpha, x)

    ts = sp.symbols(f"v0:{t}")
    comp = fexpr.subs({sym: sp.Symbol(f"v{i}") for i, sym in enumerate(sp.symbols(f"u0:{t}"))}, simultaneous=True)
    comp = comp.subs({v: ge for v, ge in zip(ts, gs)}, simultaneous=True)
    d = comp
    for sym, a in zip(xs, alpha):
        d = sp.diff(d, sym, a)
    want = float(d.subs(dict(zip(xs, x))))
    assert got[0] == pytest.approx(want, rel=1e-9, abs=1e-9)
