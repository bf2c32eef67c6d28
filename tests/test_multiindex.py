"""Multi-index arithmetic and the graded lexicographic enumeration."""

import math

import pytest
from hypothesis import given, strategies as st

from whitneyext import multiindex as mi


def test_enumerate_n2_k2_graded_lex():
    # frozen by hand: ascending total order, ties broken so that weight on
    # earlier coordinates comes first
    assert mi.enumerate_upto(2, 2) == [
        (0, 0),
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
        (0, 2),
    ]


def test_enumerate_n1():
    assert mi.enumerate_upto(1, 3) == [(0,), (1,), (2,), (3,)]


def test_count_matches_binomial_formula():
    # number of multi-indices with |a| <= k in n variables is C(n+k, n)
    for n in (1, 2, 3, 4):
        for k in (0, 1, 2, 3, 5):
            assert mi.count_upto(n, k) == math.comb(n + k, n)
            assert len(mi.enumerate_upto(n, k)) == mi.count_upto(n, k)


def test_factorial_and_binom():
    assert mi.factorial((0, 0)) == 1
    assert mi.factorial((3, 2)) == 12
    # C((3,2), (1,1)) = 3 * 2 from the factorials
    assert mi.factorial((3, 2)) // (mi.factorial((1, 1)) * mi.factorial((2, 1))) == 6


def test_order_and_add():
    assert mi.order((2, 0, 1)) == 3
    assert mi.add((1, 0), (0, 2)) == (1, 2)


def test_parse_accepts_brackets_and_parens():
    assert mi.parse("[2,1]") == (2, 1)
    assert mi.parse("(2, 1)") == (2, 1)
    assert mi.parse("(0,)") == (0,)
    assert mi.parse("[3]", n=1) == (3,)


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        mi.parse("[2,-1]")
    with pytest.raises(ValueError):
        mi.parse("[2,1]", n=3)
    with pytest.raises(ValueError):
        mi.parse("nonsense")


def test_check_rejects_negative():
    with pytest.raises(ValueError):
        mi.check((1, -1))


@given(st.integers(1, 4), st.integers(0, 5))
def test_enumeration_is_graded(n, k):
    seq = mi.enumerate_upto(n, k)
    orders = [mi.order(a) for a in seq]
    assert orders == sorted(orders)
    assert len(set(seq)) == len(seq)
    assert all(len(a) == n for a in seq)


@given(st.integers(1, 3), st.integers(0, 4))
def test_every_index_of_each_order_appears(n, k):
    seq = set(mi.enumerate_upto(n, k))

    def gen(n, total):
        if n == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in gen(n - 1, total - head):
                yield (head,) + rest

    expect = set()
    for j in range(k + 1):
        expect.update(gen(n, j))
    assert seq == expect


@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=4),
    st.lists(st.integers(0, 4), min_size=1, max_size=4),
)
def test_binom_vandermonde_diagonal(a, b):
    # C(a+b, a) = prod_i C(a_i+b_i, a_i), and factorial is multiplicative
    if len(a) != len(b):
        a = a[: min(len(a), len(b))]
        b = b[: len(a)]
    a, b = tuple(a), tuple(b)
    s = mi.add(a, b)
    binom = math.prod(math.comb(si, ai) for si, ai in zip(s, a))
    assert binom == mi.factorial(s) // (mi.factorial(a) * mi.factorial(b))
