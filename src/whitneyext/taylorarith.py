"""
Truncated multivariate Taylor arithmetic.

This is the exact-differentiation engine of the package: every derivative
reported anywhere (bump functions, chart maps, the extension operator) is
obtained by evaluating the relevant formula in this arithmetic and reading
off coefficients.

A :class:`TaylorValue` of dimension n and order k stores the coefficients
of a Taylor expansion at some base point, one per multi-index ``a`` with
``|a| <= k``, densely in graded-lex order.  Coefficients are
Taylor-normalized: the entry for ``a`` is the derivative divided by ``a!``.
Multiplication is then a plain truncated convolution, and
:func:`extract_derivative` rescales on the way out.

The coefficients may also be an (ncoef, B) array: B expansions of the same
shape side by side, one per column (the expansions at B points, several
cutoffs at once, or the m components of a vector-valued function).
:func:`seeds` of a (B, n) batch of points gives the coordinate series at
every point as such columns, so one evaluation of a formula expands it
at the whole batch.  The ring operations, ``div``, the elementary
functions and ``compose`` act column by column, and a 1-D operand is
lifted to one column and broadcast over the columns of the other, so a
constant lands in row 0 of every column.  Each column is computed with
the same operations in the same order as a 1-D call on it, so batching
never changes a bit.  Callers that batch points run the batch through
:func:`_run_batch`, which keeps the error of the first failing point.

Gathers from arrays with columns, here and on the whole evaluation path,
use ``ndarray.take`` (``compress`` for a mask) rather than indexing with an
index array or a mask: both only copy, but at these sizes indexing costs
2-5 times as much under numpy 2.4.  Gathering the 70 pairs of
``context(2, 4)`` from 30 or 4 columns took 2.5 and 2.3 us by indexing
against 0.7 and 0.5 us by ``take`` (one CPU of a 2-CPU VM).  A 1-D
operand keeps plain indexing, which is the faster there (0.2 against
0.4 us).

The convolution runs over a pair table precomputed once per (n, k) and
shared by every value of that shape (see :class:`Context`); the tables are
immutable after construction, and a memoized key array is never changed,
so values can be used freely from multiple threads.
"""

import math

import numpy as np

from . import multiindex


class SeriesDomainError(ArithmeticError):
    """A series operation left its domain (division by a series with zero
    constant term, log/sqrt of a non-positive constant term, ...)."""


MAX_ORDER = 20
"""The largest series order: the factorials of a context of a higher order
leave the 64-bit integers (21! > 2^63)."""

KEY_MEMO_ENTRIES = 1 << 15
"""The most keys of one bincount key array that a Context memoizes."""


class Context:
    """
    Precomputed index tables for shape (n, k).

    Attributes
    ----------
    indices : list of multi-index
        Graded-lex enumeration of {a : |a| <= k}.
    pos : dict
        Inverse of `indices`.
    ncoef : int
        C(n+k, n).
    exponents : ndarray of int, shape (ncoef, n)
        `indices` as an array.
    pair_i, pair_j, pair_t : ndarray of int
        The multiplication table: coefficient i times coefficient j
        accumulates into coefficient t, listed for every pair with
        |a_i| + |a_j| <= k.
    factorials : ndarray
        a! per index, for derivative extraction.
    degrees : ndarray of int
        |a| per index.
    multinomials : ndarray, shape (ncoef, 1)
        |a|! / a! per index, as a column.
    slope_exponents : ndarray of int, shape (ncoef, n, 1)
        `exponents` as columns, one per variable (none for k = 0): the
        powers of the slopes of a linear argument (``pou.bump_taylor``).

    The bincount keys of batched products (``scatter_keys``) and of
    shifted polynomials (``shift_keys``) are memoized per width, but only
    arrays of at most KEY_MEMO_ENTRIES keys; wider ones are built per call.
    The memo is emptied when the next array would bring it past
    16 * KEY_MEMO_ENTRIES keys, so it never holds more than about 4 MB.
    """

    def __init__(self, n, k):
        self.n = n
        self.k = k
        self.indices = multiindex.enumerate_upto(n, k)
        self.pos = {a: i for i, a in enumerate(self.indices)}
        self.ncoef = len(self.indices)
        self.exponents = np.array(self.indices, dtype=np.intp)
        pi, pj, pt = [], [], []
        for i, a in enumerate(self.indices):
            oa = sum(a)
            for j, b in enumerate(self.indices):
                if oa + sum(b) <= k:
                    pi.append(i)
                    pj.append(j)
                    pt.append(self.pos[multiindex.add(a, b)])
        self.pair_i = np.array(pi, dtype=np.intp)
        self.pair_j = np.array(pj, dtype=np.intp)
        self.pair_t = np.array(pt, dtype=np.intp)
        self.factorials = np.array(
            [multiindex.factorial(a) for a in self.indices], dtype=float
        )
        self.degrees = self.exponents.sum(axis=1)
        self.multinomials = (np.array([math.factorial(d) for d in self.degrees]) / self.factorials)[:, None]
        self.slope_exponents = self.exponents[:, : n if k else 0, None]
        self._keys = {}
        self._kept = 0  # the keys the memo holds

    def scatter_keys(self, width):
        """pair_t[p] * width + c for every pair p and column c < width, flattened."""
        keys = self._keys.get(width)
        if keys is None:
            keys = (self.pair_t[:, None] * width + np.arange(width)).ravel()
            self._keep(width, keys, keys.size)
        return keys

    def shift_keys(self, upto, width):
        """
        For the rows |b| <= upto of a shifted polynomial over `width`
        columns (``jets.Jet.taylor_series``): (the row count, the count p of
        the pairs whose first index is such a row, which come first, and
        pair_i[q] * width + c for q < p and c < width, flattened).
        """
        got = self._keys.get((upto, width))
        if got is None:
            rows = multiindex.count_upto(self.n, upto)
            p = int(np.searchsorted(self.pair_i, rows))
            keys = (self.pair_i[:p, None] * width + np.arange(width)).ravel()
            got = rows, p, keys
            self._keep((upto, width), got, keys.size)
        return got

    def _keep(self, key, table, size):
        """Memoize table, of `size` keys, under key if size is at most
        KEY_MEMO_ENTRIES."""
        if size <= KEY_MEMO_ENTRIES:
            if self._kept + size > 16 * KEY_MEMO_ENTRIES:
                self._keys.clear()
                self._kept = 0
            self._keys[key] = table
            self._kept += size


_CONTEXTS = {}


def context(n, k):
    """Shared Context for shape (n, k); built once, then reused.  An order
    above MAX_ORDER is a ValueError."""
    key = (n, k)
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        if k > MAX_ORDER:
            raise ValueError(f"order {k} exceeds the largest supported series order {MAX_ORDER}")
        ctx = _CONTEXTS[key] = Context(n, k)
    return ctx


def _run_batch(run, items):
    """
    run(items) on a batch of points or queries whose results have the bits
    of one-item calls.  A failing batch is run again one item at a time, in
    order, so it raises what its first failing item raises alone; if no
    item fails alone, the batch's own error is raised.  It is private, so
    per-layer profiles that wrap public functions charge the batch to the
    layer that runs it.
    """
    try:
        return run(items)
    except Exception:
        if len(items) > 1:
            for item in items:
                run([item])
        raise


def _lift(a, b):
    """Coefficient arrays a and b with the 1-D one lifted to one column, so
    that it broadcasts over the columns of the other."""
    return (a[:, None], b) if a.ndim == 1 else (a, b[:, None])


class TaylorValue:
    """
    Order-k truncated Taylor expansion in n variables.

    Supports +, -, *, / with other values of the same shape and with plain
    numbers, unary -, and integer powers >= 0.  Values are immutable by
    convention: operations return fresh instances.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.coeffs = coeffs

    @property
    def n(self):
        return self.ctx.n

    @property
    def k(self):
        return self.ctx.k

    @property
    def const(self):
        """Constant term (the value of the expansion at its base point)."""
        return float(self.coeffs[0])

    def copy(self):
        return TaylorValue(self.ctx, self.coeffs.copy())

    def __repr__(self):
        return f"TaylorValue(n={self.n}, k={self.k}, coeffs={self.coeffs!r})"

    # -- ring operations ------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TaylorValue):
            if other.ctx is not self.ctx and (other.n, other.k) != (self.n, self.k):
                raise ValueError(
                    f"shape mismatch: (n={self.n},k={self.k}) vs (n={other.n},k={other.k})"
                )
            return other
        return constant(float(other), self.n, self.k)

    def __add__(self, other):
        if isinstance(other, (int, float)):
            out = self.coeffs.copy()
            out[0] += other
            return TaylorValue(self.ctx, out)
        a, b = self.coeffs, self._coerce(other).coeffs
        if a.ndim != b.ndim:
            a, b = _lift(a, b)
        return TaylorValue(self.ctx, a + b)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            out = self.coeffs.copy()
            out[0] -= other
            return TaylorValue(self.ctx, out)
        a, b = self.coeffs, self._coerce(other).coeffs
        if a.ndim != b.ndim:
            a, b = _lift(a, b)
        return TaylorValue(self.ctx, a - b)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return TaylorValue(self.ctx, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return TaylorValue(self.ctx, self.coeffs * float(other))
        other = self._coerce(other)
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return TaylorValue(self.ctx, self.coeffs / float(other))
        other = self._coerce(other)
        return div(self, other)

    def __rtruediv__(self, other):
        return constant(float(other), self.n, self.k) / self

    def __pow__(self, e):
        return pow_int(self, e)


# -- constructors -------------------------------------------------------


def constant(c, n, k):
    """The constant series c."""
    ctx = context(n, k)
    coeffs = np.zeros(ctx.ncoef)
    coeffs[0] = c
    return TaylorValue(ctx, coeffs)


def constant_like(c, a):
    """The constant series c in the shape of a: one column per column of a."""
    coeffs = np.zeros(a.coeffs.shape)
    coeffs[0] = c
    return TaylorValue(a.ctx, coeffs)


def seed_variable(x0, i, n, k):
    """
    The coordinate function x_i expanded at the point x0, or at every row
    of a (B, n) array x0 as (ncoef, B) columns.

    Constant term x0[i], coefficient 1 at the unit index e_i, zero
    elsewhere (for k = 0 the linear term is truncated away).
    """
    if not 0 <= i < n:
        raise IndexError(f"coordinate index {i} out of range for dimension {n}")
    ctx = context(n, k)
    x0 = np.asarray(x0, dtype=float)
    coeffs = np.zeros((ctx.ncoef,) + x0.shape[:-1])
    coeffs[0] = x0[..., i]
    if k >= 1:
        e_i = tuple(1 if j == i else 0 for j in range(n))
        coeffs[ctx.pos[e_i]] = 1.0
    return TaylorValue(ctx, coeffs)


def seeds(x0, k):
    """
    All n coordinate seeds at x0 — the usual starting point of an
    evaluation.  x0 is one point, or a (B, n) batch of points whose seeds
    have (ncoef, B) columns, one per point.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[-1]
    return [seed_variable(x0, i, n, k) for i in range(n)]


# -- ring operations ----------------------------------------------------


def mul(a, b):
    """
    Truncated product via the precomputed pair table: one gather and one
    scatter-add.  For (ncoef, B) coefficients the scatter key of pair p in
    column c is pair_t[p] * B + c, so every column sums its pairs in the
    order of the 1-D product.
    """
    ctx, y = a.ctx, b.coeffs
    # gathers by take (see the module docstring)
    return TaylorValue(ctx, _times(ctx, a.coeffs, y[ctx.pair_j] if y.ndim == 1 else y.take(ctx.pair_j, axis=0)))


def _times(ctx, x, yj):
    """The product coefficients of x and y, given the gather yj of y's
    coefficients at pair_j (1-D, or with columns)."""
    if x.ndim == yj.ndim == 1:
        return np.bincount(ctx.pair_t, weights=x[ctx.pair_i] * yj, minlength=ctx.ncoef)
    x = x[ctx.pair_i] if x.ndim == 1 else x.take(ctx.pair_i, axis=0)
    prod = x.reshape(len(x), -1) * yj.reshape(len(yj), -1)
    width = prod.shape[1]
    out = np.bincount(ctx.scatter_keys(width), weights=prod.ravel(), minlength=ctx.ncoef * width)
    return out.reshape(ctx.ncoef, width)


def div(a, b):
    """
    a / b; the series b must have a nonzero constant term (in every column).

    Truncated forward substitution: with b = b0 + w and w the
    zero-constant part, each sweep q <- (a - q*w) / b0 fixes one more
    degree, so k sweeps give the quotient; w is gathered for its products
    once.  Since the last sweep only rounds, every coefficient of q*b - a
    is within a small multiple (set by n and k) of
    eps * (1 + max|q|) * (1 + max|b|).
    """
    ctx, b0 = a.ctx, b.coeffs[0]
    if not b0.all():
        raise SeriesDomainError("division by a series with zero constant term")
    w = b.coeffs.copy()
    w[0] = 0.0
    wj = w[ctx.pair_j] if w.ndim == 1 else w.take(ctx.pair_j, axis=0)
    num = a.coeffs if a.coeffs.ndim >= w.ndim else a.coeffs[:, None]
    q = num / b0
    for _ in range(a.k):
        q = (num - _times(ctx, q, wj)) / b0
    return TaylorValue(ctx, q)


def pow_int(a, e):
    """a**e for integer e >= 0 by repeated multiplication."""
    if not isinstance(e, (int, np.integer)):
        raise TypeError("exponent must be an integer")
    if e < 0:
        raise ValueError("exponent must be >= 0")
    out = constant(1.0, a.n, a.k)
    for _ in range(int(e)):
        out = mul(out, a)
    return out


def centered(a):
    """a − a(base point), column by column: the zero-constant inner series
    that :func:`compose` takes."""
    out = a.coeffs.copy()
    out[0] -= a.coeffs[0]
    return TaylorValue(a.ctx, out)


# -- univariate composition ---------------------------------------------
#
# Every elementary function f is applied through the same route: write
# a = a0 + w with w the zero-constant part, take the order-k univariate
# Taylor coefficients of f at the constant terms a0 of all B columns as one
# (k+1, B) table (a 1-D value is the batch of one), and substitute w by
# Horner.  Truncation makes this exact for the stored orders.  Every entry
# of a table takes its transcendental part from a scalar call of the math
# library: on an AVX-512 machine np.exp, np.log and np.power differed from
# it in the last bit of 9457, 43 and 10635 of 200 000 uniform arguments.
# A table is formed row by row after the domain check of every column, so
# of a batch with several failing columns the first non-positive ln or
# sqrt argument raises before any power overflows; ``_run_batch`` still
# gives each point its own error.


def _compose_univariate(outer, a):
    """f(a), from the (k+1, B) table of f's coefficients at the constant
    terms of a's B columns."""
    outer = outer.reshape((a.k + 1,) + a.coeffs.shape[1:])
    w = a.copy()
    w.coeffs[0] = 0.0
    out = np.zeros(a.coeffs.shape)
    out[0] = outer[a.k]
    out = TaylorValue(a.ctx, out)
    for i in range(a.k - 1, -1, -1):
        out = mul(out, w)
        out.coeffs[0] += outer[i]
    return out


def _constant_terms(a):
    """The constant terms of a's columns, as floats (one for a 1-D a)."""
    return np.ravel(a.coeffs[0]).tolist()


def _factorials(k):
    """0!, ..., k! as a (k+1, 1) column of floats."""
    return context(1, k).factorials[:, None]


def _trig(f, a):
    """f(a0 + i pi/2) / i! for i = 0..k at every constant term a0: the
    coefficients of sin (f = math.sin) or cos (f = math.cos)."""
    arg = np.array(_constant_terms(a)) + (np.arange(a.k + 1) * math.pi / 2)[:, None]
    return np.array([f(v) for v in arg.ravel().tolist()]).reshape(arg.shape) / _factorials(a.k)


def exp(a):
    e0 = []
    for v in _constant_terms(a):
        try:
            e0.append(math.exp(v))
        except OverflowError:
            raise SeriesDomainError(f"exp of {v} overflows") from None
    return _compose_univariate(np.array(e0) / _factorials(a.k), a)


def sin(a):
    return _compose_univariate(_trig(math.sin, a), a)


def cos(a):
    return _compose_univariate(_trig(math.cos, a), a)


def _of_positive(a, name, column):
    """f(a) for f = ln or sqrt, from f's outer coefficients column(v) at
    each constant term v; the first v that is not positive, or whose
    coefficients leave the float range, is a SeriesDomainError naming it."""
    cols = []
    for v in _constant_terms(a):
        if v <= 0.0:
            raise SeriesDomainError(f"{name} of series with constant term {v} <= 0")
        try:
            cols.append(column(v))
            if not any(map(math.isinf, cols[-1])):
                continue
        except (ZeroDivisionError, OverflowError):
            pass
        raise SeriesDomainError(f"{name} of series with constant term {v}: a coefficient leaves the float range")
    return _compose_univariate(np.array(cols).T, a)


def ln(a):
    return _of_positive(a, "ln", lambda v: [math.log(v)] + [(-1.0) ** (i + 1) / (i * v**i) for i in range(1, a.k + 1)])


def sqrt(a):
    # binomial series sqrt(a0 + h) = sqrt(a0) * sum C(1/2, i) (h/a0)^i
    binom = [1.0]
    for i in range(1, a.k + 1):
        binom.append(binom[-1] * ((0.5 - (i - 1)) / i))
    return _of_positive(a, "sqrt", lambda v: [math.sqrt(v) * c / v**i for i, c in enumerate(binom)])


_ELEMENTARY = {
    "exp": exp,
    "sin": sin,
    "cos": cos,
    "ln": ln,
    "sqrt": sqrt,
}


def elementary(fname, a):
    """Apply one of exp/sin/cos/ln/sqrt (or pow_int via a pair) by name."""
    try:
        f = _ELEMENTARY[fname]
    except KeyError:
        raise ValueError(f"unknown elementary function {fname!r}") from None
    return f(a)


# -- extraction ----------------------------------------------------------


def extract_derivative(a, alpha):
    """
    The mixed partial derivative for multi-index alpha: alpha! times the
    stored coefficient.
    """
    alpha = tuple(alpha)
    if sum(alpha) > a.k:
        raise ValueError(f"|{alpha}| exceeds truncation order {a.k}")
    return float(a.coeffs[a.ctx.pos[alpha]]) * multiindex.factorial(alpha)


def derivatives(a):
    """All derivatives as an array in graded-lex order (coefficients times a!)."""
    return a.coeffs * a.ctx.factorials


# -- polynomial/composition helpers --------------------------------------


_PRODUCT_STEPS = {}


def _product_steps(s, degree):
    """
    For every multi-index a with 0 < |a| <= degree, in graded-lex order, the
    step (a, parent, j): a is the parent times factor j, where j is a's first
    nonzero entry.  Memoized per (s, degree).
    """
    key = (s, degree)
    steps = _PRODUCT_STEPS.get(key)
    if steps is None:
        steps = []
        for a in multiindex.enumerate_upto(s, degree)[1:]:
            j = next(i for i, e in enumerate(a) if e > 0)
            steps.append((a, tuple(e - 1 if i == j else e for i, e in enumerate(a)), j))
        _PRODUCT_STEPS[key] = steps
    return steps


def monomial_products(factors, degree):
    """
    All truncated products factors[0]^a_0 * ... * factors[-1]^a_{s-1} for
    multi-indices a of total order <= degree, as a dict a -> TaylorValue.

    Each product is obtained from a previously computed one by a single
    multiplication, so the whole table costs one mul per index.  Used to
    compose an outer expansion with inner series.  Factors with (ncoef, B)
    columns give products with columns, the constant entry included.
    """
    s = len(factors)
    table = {(0,) * s: constant_like(1.0, factors[0])}
    for a, parent, j in _product_steps(s, degree):
        table[a] = mul(table[parent], factors[j])
    return table


def compose(outer, inners):
    """
    Substitute inner series into an outer expansion.

    `outer` is a TaylorValue in s variables expanded at some base point p;
    `inners` are s TaylorValues (in a common shape) whose constant terms
    equal the coordinates of p shifted to zero — i.e. each inner must have
    constant term 0 and represents (g_i - p_i).  Returns the truncated
    expansion of outer ∘ (p + inners).  Outer coefficients of shape
    (ncoef, B) compose B outer expansions with the same inners at once.
    """
    s = outer.n
    if len(inners) != s:
        raise ValueError(f"need {s} inner series, got {len(inners)}")
    if np.any([w.coeffs[0] for w in inners]):
        raise ValueError("inner series must have zero constant term")
    table = monomial_products(inners, outer.k)
    ctx = inners[0].ctx
    out = np.zeros((ctx.ncoef,) + outer.coeffs.shape[1:])
    nonzero = outer.coeffs.reshape(len(outer.coeffs), -1).any(axis=1)
    for a, c, used in zip(outer.ctx.indices, outer.coeffs, nonzero):
        if used:
            out += np.multiply.outer(table[a].coeffs, c)
    return TaylorValue(ctx, out)
