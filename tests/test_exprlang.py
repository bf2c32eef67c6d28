"""Expression language: grammar, evaluation, Taylor lift, error classes."""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from whitneyext import exprlang as el
from whitneyext import taylorarith as ta


def test_eval_real_basics():
    e = el.parse("x0^2 + sin(x1)", 2)
    assert el.eval_real(e, (2.0, 0.0)) == pytest.approx(4.0)
    assert el.eval_real(el.parse("x0*x1", 2), (3.0, 5.0)) == pytest.approx(15.0)
    assert el.eval_real(el.parse("-x0^2", 1), (3.0,)) == pytest.approx(-9.0)


def test_unary_minus_binds_looser_than_power():
    # -3^2 is -(3^2)
    assert el.eval_real(el.parse("-x0^2", 1), (3.0,)) == -9.0


def test_variable_out_of_range_is_semantic_error():
    with pytest.raises(el.SemanticError):
        el.parse("x2", 2)


def test_unknown_function_rejected():
    with pytest.raises(el.ExprError):
        el.parse("tanh(x0)", 1)


def test_arity_error():
    with pytest.raises(el.ExprError):
        el.parse("exp()", 1)


def test_syntax_error_carries_offset():
    with pytest.raises(el.ParseError) as ei:
        el.parse("x0 + * 3", 1)
    assert isinstance(ei.value.offset, int)


def test_unbalanced_parens():
    with pytest.raises(el.ParseError):
        el.parse("(x0 + 1", 1)


def test_negative_exponent_rejected():
    with pytest.raises(el.ExprError):
        el.parse("x0^-2", 1)


def test_fractional_exponent_rejected():
    with pytest.raises(el.ExprError):
        el.parse("x0^1.5", 1)


def test_no_implicit_multiplication():
    with pytest.raises(el.ParseError):
        el.parse("2 x0", 1)


def test_domain_errors():
    with pytest.raises(el.DomainError):
        el.eval_real(el.parse("1/x0", 1), (0.0,))
    with pytest.raises(el.DomainError):
        el.eval_real(el.parse("ln(x0)", 1), (-1.0,))
    # results too large for a float
    for src in ("exp(x0*1000)", "x0^400"):
        with pytest.raises(el.DomainError, match="overflows"):
            el.eval_real(el.parse(src, 1), (10.0,))
    with pytest.raises(el.DomainError, match="overflows"):
        el.eval_taylor(el.parse("exp(x0*1000)", 1), (10.0,), 2)


def test_eval_taylor_x_squared():
    e = el.parse("x0^2", 1)
    tv = el.eval_taylor(e, (3.0,), 2)
    assert np.allclose(ta.derivatives(tv), [9.0, 6.0, 2.0], atol=1e-14)


def test_eval_taylor_exp():
    tv = el.eval_taylor(el.parse("exp(x0)", 1), (0.0,), 3)
    assert np.allclose(ta.derivatives(tv), [1.0, 1.0, 1.0, 1.0], atol=1e-15)


def test_eval_taylor_sin_xy_at_1_0():
    # hand expansion: sin(xy) ~ xy near (1,0); the only nonzero derivatives
    # up to order 2 are d^(0,1) = 1 and d^(1,1) = 1
    tv = el.eval_taylor(el.parse("sin(x0*x1)", 2), (1.0, 0.0), 2)
    d = ta.derivatives(tv)
    pos = tv.ctx.pos
    assert d[pos[(1, 1)]] == pytest.approx(1.0, abs=1e-15)
    assert d[pos[(0, 1)]] == pytest.approx(1.0, abs=1e-15)
    assert d[pos[(2, 0)]] == pytest.approx(0.0, abs=1e-15)
    assert d[pos[(0, 0)]] == pytest.approx(0.0, abs=1e-15)


def test_constant_term_matches_eval_real():
    for src, n, x in [
        ("exp(x0)*sin(x1)", 2, (0.7, -0.3)),
        ("sqrt(1 + x0^2)", 1, (2.0,)),
        ("x0/(1 + x1^2)", 2, (1.5, 0.5)),
    ]:
        e = el.parse(src, n)
        for k in (0, 1, 3):
            tv = el.eval_taylor(e, x, k)
            r = el.eval_real(e, x)
            assert tv.const == pytest.approx(r, rel=1e-14)


# -- random polynomials against sympy -------------------------------------------


@st.composite
def poly_expr(draw):
    n = draw(st.integers(1, 2))
    nterms = draw(st.integers(1, 4))
    terms = []
    for _ in range(nterms):
        c = draw(st.integers(-5, 5))
        powers = [draw(st.integers(0, 3)) for _ in range(n)]
        mono = "*".join(
            f"x{i}^{p}" if p > 1 else f"x{i}" for i, p in enumerate(powers) if p > 0
        )
        terms.append(f"{c}*{mono}" if mono else str(c))
    return " + ".join(terms), n


@given(poly_expr())
@settings(max_examples=50, deadline=None)
def test_polynomial_derivatives_match_sympy(src_n):
    src, n = src_n
    e = el.parse(src, n)
    x0 = tuple(0.5 * i - 0.25 for i in range(1, n + 1))
    tv = el.eval_taylor(e, x0, 3)
    syms = sp.symbols(f"x0:{n}")
    se = sp.sympify(src.replace("^", "**"))
    subs = dict(zip(syms, x0))
    for alpha in tv.ctx.indices:
        d = se
        for s, a in zip(syms, alpha):
            d = sp.diff(d, s, a)
        want = float(d.subs(subs)) if d.free_symbols or d.is_number else 0.0
        got = float(ta.extract_derivative(tv, alpha))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


# -- vector expressions ----------------------------------------------------------


def test_vector_expr_parse_and_eval():
    v = el.VectorExpr.parse(["x0 + x1", "x0*x1"], 2)
    assert v.m == 2 and v.n == 2
    assert np.allclose(v.eval_real((2.0, 3.0)), [5.0, 6.0])


def test_vector_expr_dimension_mismatch():
    with pytest.raises(el.ExprError):
        el.VectorExpr.parse(["x1"], 1)


def test_identity_vector():
    ident = el.identity_vector(3)
    assert np.allclose(ident.eval_real((1.0, -2.0, 0.5)), [1.0, -2.0, 0.5])


def test_vector_compose():
    f = el.VectorExpr.parse(["x0^2"], 1)
    g = el.VectorExpr.parse(["2*x0"], 1)
    h = f.compose(g)
    assert el.eval_real(h.exprs[0], (3.0,)) == pytest.approx(36.0)


def test_subst():
    e = el.parse("x0 + x1^2", 2)
    r = el.subst(e, {0: el.parse("2*x0", 1), 1: el.parse("x0 + 1", 1)})
    assert el.eval_real(r, (1.0,)) == pytest.approx(2.0 + 4.0)
