"""Truncated multivariate Taylor arithmetic against closed forms and sympy."""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from whitneyext import multiindex, taylorarith as ta


def coeff(tv, alpha):
    return float(tv.coeffs[tv.ctx.pos[tuple(alpha)]])


# -- frozen scalar oracles ------------------------------------------------------


def test_exp_series_at_zero():
    x = ta.seed_variable((0.0,), 0, 1, 3)
    e = ta.exp(x)
    assert np.allclose(e.coeffs, [1.0, 1.0, 0.5, 1.0 / 6.0], rtol=0, atol=1e-15)


def test_exp_series_at_tenth():
    # independent value: e^0.1 - 1.1 = 0.005170918075647624
    x = ta.seed_variable((0.1,), 0, 1, 2)
    e = ta.exp(x)
    assert abs(e.const - 1.1 - 0.005170918075647624) < 1e-16
    d = ta.derivatives(e)
    assert abs(d[1] - e.const) < 1e-15  # exp is its own derivative
    assert abs(d[2] - e.const) < 1e-15


def test_mercator_series():
    # ln(1+x) = x - x^2/2 + x^3/3 - ...
    x = ta.seed_variable((0.0,), 0, 1, 3)
    l = ta.ln(1.0 + x)
    assert np.allclose(l.coeffs, [0.0, 1.0, -0.5, 1.0 / 3.0], rtol=0, atol=1e-15)


def test_geometric_series():
    # 1/(1+x) = 1 - x + x^2 - ...
    x = ta.seed_variable((0.0,), 0, 1, 2)
    g = 1.0 / (1.0 + x)
    assert np.allclose(g.coeffs, [1.0, -1.0, 1.0], rtol=0, atol=1e-15)


def test_sin_cos_pythagoras():
    x = ta.seed_variable((0.7,), 0, 1, 4)
    one = ta.sin(x) * ta.sin(x) + ta.cos(x) * ta.cos(x)
    expect = np.zeros(5)
    expect[0] = 1.0
    assert np.allclose(one.coeffs, expect, rtol=0, atol=1e-14)


def test_sqrt_squares_back():
    x = ta.seed_variable((2.0,), 0, 1, 3)
    r = ta.sqrt(x)
    assert np.allclose((r * r).coeffs, x.coeffs, rtol=0, atol=1e-14)


# -- multivariate ---------------------------------------------------------------


def test_product_xy_mixed_partials():
    sx, sy = ta.seeds((0.0, 0.0), 4)
    e = ta.exp(sx * sy)
    d = ta.derivatives(e)
    ctx = e.ctx
    assert abs(d[ctx.pos[(1, 1)]] - 1.0) < 1e-15
    assert abs(d[ctx.pos[(2, 2)]] - 2.0) < 1e-15
    assert abs(d[ctx.pos[(1, 0)]]) < 1e-15
    assert abs(d[ctx.pos[(2, 1)]]) < 1e-15


def test_extract_derivative():
    sx, sy = ta.seeds((1.0, 2.0), 3)
    p = sx * sx * sy  # x^2 y
    assert ta.extract_derivative(p, (2, 1)) == pytest.approx(2.0)
    assert ta.extract_derivative(p, (1, 1)) == pytest.approx(2.0)  # 2x at x=1


def test_seed_values():
    sx, sy = ta.seeds((3.0, -1.0), 2)
    assert sx.const == 3.0 and sy.const == -1.0
    assert coeff(sx, (1, 0)) == 1.0 and coeff(sx, (0, 1)) == 0.0


# -- sympy as independent oracle ------------------------------------------------


def _sympy_coeffs_1d(expr, sym, x0, k):
    out = []
    for j in range(k + 1):
        out.append(float(sp.diff(expr, sym, j).subs(sym, x0)) / math.factorial(j))
    return np.array(out)


@pytest.mark.parametrize(
    "builder,sexpr,x0",
    [
        (lambda x: ta.exp(ta.sin(x)), "exp(sin(x))", 0.3),
        (lambda x: ta.ln(2.0 + ta.cos(x)), "log(2 + cos(x))", 1.1),
        (lambda x: (1.0 + x * x) / (3.0 - x), "(1 + x**2)/(3 - x)", 0.5),
        (lambda x: ta.sqrt(1.0 + x * x), "sqrt(1 + x**2)", -0.4),
    ],
)
def test_against_sympy_series(builder, sexpr, x0):
    sym = sp.Symbol("x")
    k = 4
    got = builder(ta.seed_variable((x0,), 0, 1, k))
    want = _sympy_coeffs_1d(sp.sympify(sexpr), sym, x0, k)
    assert np.allclose(got.coeffs, want, rtol=1e-12, atol=1e-12)


def test_compose_against_sympy():
    # outer sin(u+v), inner u = x^2+y (zero constant), v = x*y
    ctx = ta.context(2, 3)
    sx, sy = ta.seeds((0.5, -0.2), 3)
    u = sx * sx + sy - (0.5 * 0.5 - 0.2)
    v = sx * sy - (0.5 * -0.2)
    su, sv = ta.seeds((0.0, 0.0), 3)
    outer = ta.sin(su + sv)
    got = ta.compose(outer, [u, v])

    X, Y = sp.symbols("X Y")
    inner = sp.sin((X**2 + Y - 0.05) + (X * Y + 0.1))
    for alpha in ctx.indices:
        d = inner
        d = sp.diff(d, X, alpha[0])
        d = sp.diff(d, Y, alpha[1])
        val = float(d.subs({X: 0.5, Y: -0.2}))
        fa = math.factorial(alpha[0]) * math.factorial(alpha[1])
        assert abs(coeff(got, alpha) * fa / 1.0 - val / 1.0) < 1e-10 * (1 + abs(val)), alpha


def test_monomial_products_follow_the_first_factor_recurrence():
    # each product is its parent (one power fewer of the first factor
    # present) times that factor, in graded-lex order; the memoized steps
    # must reproduce that sequence bit for bit, on repeated calls too
    rng = np.random.default_rng(3)
    for s, n, k in ((1, 1, 4), (2, 2, 4), (3, 2, 3), (2, 3, 2)):
        ctx = ta.context(n, k)
        factors = []
        for _ in range(s):
            c = rng.uniform(-1.0, 1.0, ctx.ncoef)
            c[0] = 0.0
            factors.append(ta.TaylorValue(ctx, c))
        want = {(0,) * s: ta.constant(1.0, n, k)}
        for a in multiindex.enumerate_upto(s, k)[1:]:
            j = next(i for i, e in enumerate(a) if e > 0)
            parent = tuple(e - 1 if i == j else e for i, e in enumerate(a))
            want[a] = ta.mul(want[parent], factors[j])
        for _ in range(2):
            got = ta.monomial_products(factors, k)
            assert list(got) == list(want)
            for a in want:
                assert np.array_equal(got[a].coeffs, want[a].coeffs), (s, n, k, a)


def test_compose_requires_zero_constant():
    u = ta.seed_variable((1.0,), 0, 1, 2)
    outer = ta.exp(ta.seed_variable((0.0,), 0, 1, 2))
    with pytest.raises(ValueError):
        ta.compose(outer, [u])


# -- domain errors --------------------------------------------------------------


def test_division_by_zero_constant():
    x = ta.seed_variable((0.0,), 0, 1, 2)
    with pytest.raises(ta.SeriesDomainError):
        1.0 / x


def test_ln_of_nonpositive():
    x = ta.seed_variable((-1.0,), 0, 1, 2)
    with pytest.raises(ta.SeriesDomainError):
        ta.ln(x)


def test_sqrt_of_negative():
    x = ta.seed_variable((-4.0,), 0, 1, 2)
    with pytest.raises(ta.SeriesDomainError):
        ta.sqrt(x)


# -- algebraic properties -------------------------------------------------------

series_coeffs = st.lists(
    st.floats(-10, 10, allow_nan=False, allow_infinity=False), min_size=4, max_size=4
)


def _mk(cs):
    ctx = ta.context(1, 3)
    return ta.TaylorValue(ctx, np.array(cs))


@given(series_coeffs, series_coeffs)
def test_addition_commutes_exactly(a, b):
    x, y = _mk(a), _mk(b)
    assert np.array_equal((x + y).coeffs, (y + x).coeffs)


@given(series_coeffs, series_coeffs, series_coeffs)
@settings(max_examples=200)
def test_multiplication_distributes(a, b, c):
    x, y, z = _mk(a), _mk(b), _mk(c)
    left = (x * (y + z)).coeffs
    right = (x * y + x * z).coeffs
    scale = 1.0 + np.max(np.abs(left)) + np.max(np.abs(right))
    assert np.allclose(left, right, rtol=0, atol=1e-12 * scale)


@given(series_coeffs, series_coeffs)
@settings(max_examples=200)
# x / x with |x1/x0| large: a quotient formed as a * (1/b) cancels the huge
# coefficients of 1/b (for the second: roundtrip error 1.2e-10, bound 4e-12)
@example([0.08570167180115895, 7, 3, 0], [0.08570167180115895, 7, 3, 0])
@example([0.001, 1, 0.001, 0], [0.001, 1, 0.001, 0])
def test_division_inverts_multiplication(a, b):
    x, y = _mk(a), _mk(b)
    if abs(y.const) < 1e-3:
        return
    q = x / y
    back = q * y
    # error of the roundtrip is set by the quotient's magnitude, which can be
    # huge when |y1/y0| is large -- bound relative to it, not to the inputs
    scale = (1.0 + np.max(np.abs(q.coeffs))) * (1.0 + np.max(np.abs(y.coeffs)))
    assert np.allclose(back.coeffs, x.coeffs, rtol=0, atol=1e-12 * scale)


_BATCH_CTXS = {ctx.ncoef: ctx for ctx in (ta.context(2, 3), ta.context(2, 8))}
_batch_entries = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
batches = st.sampled_from(sorted(_BATCH_CTXS)).flatmap(
    lambda ncoef: st.one_of(st.integers(1, 4), st.just(ncoef)).flatmap(
        lambda w: hnp.arrays(np.float64, (ncoef, w), elements=_batch_entries)
    )
)


def _column(tv, j):
    return ta.TaylorValue(tv.ctx, tv.coeffs[:, j].copy())


@given(batches, st.data())
@settings(max_examples=200)
def test_batched_ops_match_columnwise_calls(a, data):
    # column j of a batched +, -, mul, div and elementary function has the
    # bits of the 1-D call on column j, and a 1-D operand is broadcast over
    # the other's columns, also when there are as many columns as
    # coefficients
    ctx = _BATCH_CTXS[a.shape[0]]
    b = data.draw(hnp.arrays(np.float64, a.shape, elements=_batch_entries))
    b[0] = np.where(np.abs(b[0]) < 1e-3, 1.0, b[0])  # divisors need b0 != 0
    x, y = ta.TaylorValue(ctx, a), ta.TaylorValue(ctx, b)
    x0, y0 = _column(x, 0), _column(y, 0)
    p = x.copy()
    p.coeffs[0] = np.abs(p.coeffs[0]) + 0.5  # ln and sqrt need p0 > 0
    batched = {
        "mul": (ta.mul(x, y), lambda j: ta.mul(_column(x, j), _column(y, j))),
        "div": (ta.div(x, y), lambda j: ta.div(_column(x, j), _column(y, j))),
        "exp": (ta.exp(x), lambda j: ta.exp(_column(x, j))),
        "sin": (ta.sin(x), lambda j: ta.sin(_column(x, j))),
        "cos": (ta.cos(x), lambda j: ta.cos(_column(x, j))),
        "ln": (ta.ln(p), lambda j: ta.ln(_column(p, j))),
        "sqrt": (ta.sqrt(p), lambda j: ta.sqrt(_column(p, j))),
        "add 1-D to 2-D": (x0 + y, lambda j: x0 + _column(y, j)),
        "sub 2-D minus 1-D": (x - y0, lambda j: _column(x, j) - y0),
        "sub 1-D minus 2-D": (x0 - y, lambda j: x0 - _column(y, j)),
        "mul 1-D by 2-D": (ta.mul(x0, y), lambda j: ta.mul(x0, _column(y, j))),
        "div 2-D by 1-D": (ta.div(x, y0), lambda j: ta.div(_column(x, j), y0)),
        "div 1-D by 2-D": (ta.div(x0, y), lambda j: ta.div(x0, _column(y, j))),
    }
    for name, (got, single) in batched.items():
        assert got.coeffs.shape == a.shape, name
        for j in range(a.shape[1]):
            assert np.array_equal(got.coeffs[:, j], single(j).coeffs, equal_nan=True), name


def _scalar_coefficients(name, a0, k):
    """The k+1 univariate Taylor coefficients of an elementary function at
    a0, by scalar formulas one coefficient at a time."""
    if name == "exp":
        return [math.exp(a0) / math.factorial(i) for i in range(k + 1)]
    if name in ("sin", "cos"):
        f = getattr(math, name)
        return [f(a0 + i * math.pi / 2) / math.factorial(i) for i in range(k + 1)]
    if name == "ln":
        return [math.log(a0)] + [(-1.0) ** (i + 1) / (i * a0**i) for i in range(1, k + 1)]
    r, c, coef = math.sqrt(a0), [math.sqrt(a0)], 1.0
    for i in range(1, k + 1):
        coef *= (0.5 - (i - 1)) / i
        c.append(r * coef / a0**i)
    return c


@pytest.mark.parametrize("k", [0, 1, 4, 8])
@pytest.mark.parametrize("name", ["exp", "sin", "cos", "ln", "sqrt"])
def test_elementary_coefficients_keep_the_bits_of_scalar_formulas(name, k):
    # f at the seed t0 + h has f's univariate coefficients at t0 as its
    # coefficients, exactly; a batch of points takes them in one table
    rng = np.random.default_rng(k)
    t0 = rng.uniform(-30, 30, 200) if name in ("sin", "cos") else rng.uniform(0.001, 20, 200)
    got = getattr(ta, name)(ta.seeds(t0[:, None], k)[0]).coeffs
    for j, t in enumerate(t0.tolist()):
        assert got[:, j].tolist() == _scalar_coefficients(name, t, k), (name, t)


def test_elementary_errors_name_the_first_failing_column():
    x = ta.seeds(np.array([[1.0], [800.0], [900.0]]), 2)[0]
    with pytest.raises(ta.SeriesDomainError, match=r"^exp of 800.0 overflows$"):
        ta.exp(x)
    for f in (ta.ln, ta.sqrt):
        with pytest.raises(ta.SeriesDomainError, match=r"of series with constant term -1.0 <= 0$"):
            f(ta.seeds(np.array([[2.0], [-1.0], [0.0]]), 2)[0])



@pytest.mark.parametrize("name", ["ln", "sqrt"])
@pytest.mark.parametrize("a0", [1e-200, 1e200])
def test_ln_and_sqrt_coefficients_beyond_the_float_range(name, a0):
    # 1/(i a0^i) leaves the float range at order 2 (a0^2 is 0 or overflows)
    x = ta.seeds(np.array([[1.0], [a0]]), 2)[0]
    with pytest.raises(ta.SeriesDomainError) as info:
        getattr(ta, name)(x)
    assert str(info.value) == f"{name} of series with constant term {a0!r}: a coefficient leaves the float range"
    # order 1 stays in range
    getattr(ta, name)(ta.seeds(np.array([[a0]]), 1)[0])


def test_series_order_limit():
    assert ta.context(1, ta.MAX_ORDER).k == ta.MAX_ORDER
    with pytest.raises(ValueError, match=r"^order 21 exceeds the largest supported series order 20$"):
        ta.context(1, ta.MAX_ORDER + 1)
    with pytest.raises(ValueError, match="largest supported series order 20"):
        ta.seeds((0.0, 1.0), 21)


@pytest.mark.parametrize("n, k", [(1, 0), (3, 0), (1, 4), (3, 4)])
def test_context_profile_tables(n, k):
    ctx = ta.context(n, k)
    for i, a in enumerate(ctx.indices):
        assert ctx.degrees[i] == sum(a)
        assert ctx.multinomials[i, 0] == math.factorial(sum(a)) / math.prod(map(math.factorial, a))
    assert ctx.slope_exponents.shape == (ctx.ncoef, n if k else 0, 1)
    assert np.array_equal(ctx.slope_exponents[:, :, 0], ctx.exponents[:, : n if k else 0])


def test_key_memo_keeps_only_arrays_within_its_bound():
    ctx = ta.Context(2, 3)  # not the shared one, whose memo other tests fill
    bound, pairs = ta.KEY_MEMO_ENTRIES, len(ctx.pair_t)
    small = bound // pairs
    for width in (1, small, small + 1):
        keys = ctx.scatter_keys(width)
        assert np.array_equal(keys, (ctx.pair_t[:, None] * width + np.arange(width)).ravel())
        assert (ctx.scatter_keys(width) is keys) == (width <= small)
    rows, p, keys = ctx.shift_keys(1, 5)
    assert (rows, p) == (3, np.count_nonzero(ctx.pair_i < 3))
    assert np.array_equal(keys, (ctx.pair_i[:p, None] * 5 + np.arange(5)).ravel())
    assert ctx.shift_keys(1, 5)[2] is keys
    assert ctx.shift_keys(3, small + 1)[2] is not ctx.shift_keys(3, small + 1)[2]  # built per call
    # widths whose arrays add up to many times the memo: it stays bounded
    for width in range(1, 3 * small):
        ctx.scatter_keys(width)
        ctx.shift_keys(2, width)
    held = [v.size if isinstance(v, np.ndarray) else v[2].size for v in ctx._keys.values()]
    assert max(held) <= bound and sum(held) <= 16 * bound


def test_batched_compose_matches_columnwise_calls():
    rng = np.random.default_rng(7)
    ctx = ta.context(2, 3)
    inners = [ta.TaylorValue(ctx, rng.standard_normal(ctx.ncoef)) for _ in range(2)]
    for w in inners:
        w.coeffs[0] = 0.0
    outer = ta.TaylorValue(ctx, rng.standard_normal((ctx.ncoef, 3)))
    outer.coeffs[3, 1] = 0.0  # a zero in one column only
    got = ta.compose(outer, inners).coeffs
    for j in range(3):
        assert np.array_equal(got[:, j], ta.compose(_column(outer, j), inners).coeffs)


@given(st.floats(-3, 3, allow_nan=False))
def test_exp_ln_roundtrip(t):
    x = ta.seed_variable((t,), 0, 1, 3)
    back = ta.ln(ta.exp(x))
    assert np.allclose(back.coeffs, x.coeffs, rtol=0, atol=1e-12 * math.exp(abs(t)))


def test_reflected_operators():
    x = ta.seed_variable((2.0,), 0, 1, 2)
    assert (3.0 - x).const == 1.0
    assert (3.0 - x).coeffs[1] == -1.0
    assert (6.0 / x).const == 3.0
    assert (x**3).const == 8.0


def test_truncation_order_respected():
    # multiplying two order-k series stays order k: coefficient arrays have
    # the same length and agree with the k+1 truncation of the full product
    x = ta.seed_variable((1.0,), 0, 1, 2)
    p = (x * x) * x
    assert p.coeffs.shape == x.coeffs.shape
    # x^3 around 1: 1 + 3h + 3h^2 (+ h^3 truncated)
    assert np.allclose(p.coeffs, [1.0, 3.0, 3.0], rtol=0, atol=1e-15)
