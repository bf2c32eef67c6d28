"""
Faà di Bruno combinatorics and the pullback of jets along smooth maps.

The multivariate chain rule for g: ℝˢ → ℝᵗ and f: ℝᵗ → E reads

    ∂^α (f∘g)(x) = Σ_{|β| ≤ |α|} p_{α,β}( (∂^γ g(x))_{|γ| ≤ |α|} ) · ∂^β f(g(x)),

where p_{α,β} is an integer polynomial in the partial derivatives of g's
components.  Writing k = |α| and fixing the non-decreasing label sequence
j_1 ≤ … ≤ j_k that lists each coordinate direction d exactly α_d times,

    p_{α,β}(x) = Σ_{P = {I_1,…,I_j}} Σ_{i_1,…,i_j} x_{(I_1), i_1} ⋯ x_{(I_j), i_j},

summing over all set partitions P of {1,…,k} and all assignments of an
output component i_l ∈ {1,…,t} to each block, restricted to assignments
whose component counts equal β; the factor x_{(I), i} stands for the
partial ∂^γ g_i with γ_d = #{r ∈ I : j_r = d}.  By convention p_{0,0} = 1
and p_{α,0} = 0 for α ≠ 0.

Pulling a k-jet back along g gives a k-jet on the preimage points.  It
is computed as a truncated Taylor composition rather than from the
tables: at each source point x the jet's Taylor polynomial at g(x) is
composed with the series of g at x (:func:`jet_pullback`).  The series of
g and their monomial products are one batched series computation over
all source points, the images are matched against the stored points in
one array pass, and all rows come from one stacked matrix product.  The
pullback is linear in the jet and functorial: pulling back along g then
h equals pulling back along h∘g.

The tables remain the combinatorial object behind
:func:`chain_derivative` and the ``fdb`` subcommand, and serve as the
independent oracle for the pullback in the tests.  They are cached per
(α, t); their total orders are capped at |α| ≤ 8 because the number of
set partitions grows with the Bell numbers.  The pullback has no such
cap.
"""

import itertools

import numpy as np

from . import jets, multiindex, taylorarith

MAX_ORDER = 8


def set_partitions(k, j):
    """
    All partitions of {1, …, k} into exactly j non-empty blocks.

    Each partition is a tuple of blocks (tuples of increasing elements)
    sorted by smallest element; the count is the Stirling number S(k, j).
    """
    if not 1 <= j <= k <= MAX_ORDER:
        raise ValueError(f"need 1 <= j <= k <= {MAX_ORDER}, got k={k}, j={j}")
    return _set_partitions(k, j)


_PARTITIONS = {}


def _set_partitions(k, j):
    key = (k, j)
    cached = _PARTITIONS.get(key)
    if cached is not None:
        return cached

    out = []
    assign = [0] * k

    def place(i, nblocks):
        if k - i < j - nblocks:
            return
        if i == k:
            blocks = [[] for _ in range(j)]
            for r, b in enumerate(assign):
                blocks[b].append(r + 1)
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in range(min(nblocks + 1, j)):
            assign[i] = b
            place(i + 1, max(nblocks, b + 1))

    place(0, 0)
    _PARTITIONS[key] = out
    return out


class FdBTable:
    """
    All polynomials p_{α,β} for one source multi-index α and target
    dimension t.

    ``polys`` maps each β ∈ ℕ₀ᵗ with |β| ≤ |α| (graded-lex order) to a
    dict of monomials: keys are sorted tuples of (γ, i) factor pairs —
    each pair standing for the partial ∂^γ g_i — and values are the
    merged integer coefficients.  An empty dict is the zero polynomial.
    """

    def __init__(self, alpha, t, polys):
        self.alpha = alpha
        self.s = len(alpha)
        self.t = t
        self.polys = polys

    def poly(self, beta):
        return self.polys[tuple(int(b) for b in beta)]

    def eval_poly(self, beta, gderiv):
        """
        p_{α,β} at the point described by gderiv: a mapping from
        (γ, component) to the value of ∂^γ g_component.
        """
        total = 0.0
        for mono, coeff in self.poly(beta).items():
            term = float(coeff)
            for gamma, i in mono:
                term *= gderiv[(gamma, i)]
            total += term
        return total


_TABLES = {}


def build_table(alpha, t):
    """
    The FdBTable for source multi-index alpha and target dimension t,
    built once and memoized.  Requires |alpha| <= 8.
    """
    alpha = tuple(int(a) for a in alpha)
    multiindex.check(alpha)
    t = int(t)
    if t < 1:
        raise ValueError(f"target dimension must be >= 1, got {t}")
    if sum(alpha) > MAX_ORDER:
        raise ValueError(
            f"|alpha| = {sum(alpha)} exceeds the supported order {MAX_ORDER}"
        )
    key = (alpha, t)
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = _build_table(alpha, t)
    return table


def _build_table(alpha, t):
    s = len(alpha)
    k = sum(alpha)
    polys = {beta: {} for beta in multiindex.enumerate_upto(t, k)}
    if k == 0:
        polys[(0,) * t][()] = 1
        return FdBTable(alpha, t, polys)
    labels = []
    for d in range(s):
        labels.extend([d] * alpha[d])
    for j in range(1, k + 1):
        for partition in set_partitions(k, j):
            gammas = []
            for block in partition:
                g = [0] * s
                for r in block:
                    g[labels[r - 1]] += 1
                gammas.append(tuple(g))
            for components in itertools.product(range(t), repeat=j):
                beta = [0] * t
                for i in components:
                    beta[i] += 1
                mono = tuple(sorted(zip(gammas, components)))
                poly = polys[tuple(beta)]
                poly[mono] = poly.get(mono, 0) + 1
    return FdBTable(alpha, t, polys)


def _fmt_tuple(tp):
    return "(" + ",".join(str(int(v)) for v in tp) + ")"


def table_text(table):
    """
    Stable text rendering, one line per β:

        p[(2),(2)] = 1 * g^(1)_0 * g^(1)_0

    Monomials are listed in sorted order, factors within a monomial in
    their canonical (γ, component) order; the zero polynomial prints 0.
    """
    lines = []
    for beta, poly in table.polys.items():
        if not poly:
            rhs = "0"
        else:
            terms = []
            for mono in sorted(poly):
                parts = [str(poly[mono])]
                parts += [f"g^{_fmt_tuple(g)}_{i}" for g, i in mono]
                terms.append(" * ".join(parts))
            rhs = " + ".join(terms)
        lines.append(f"p[{_fmt_tuple(table.alpha)},{_fmt_tuple(beta)}] = {rhs}")
    return "\n".join(lines)


def _g_derivatives(g, x, k):
    """All partials of g's components at x, keyed by (γ, component)."""
    out = {}
    for i, tv in enumerate(g.eval_taylor(tuple(x), k)):
        for gamma in tv.ctx.indices:
            out[(gamma, i)] = taylorarith.extract_derivative(tv, gamma)
    return out


def chain_derivative(f, g, alpha, x):
    """
    ∂^α (f∘g)(x) as an (m,) array, for vector expressions f: ℝᵗ → ℝᵐ and
    g: ℝˢ → ℝᵗ, without ever forming the composed expression.
    """
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != g.n:
        raise ValueError(f"alpha has length {len(alpha)}, g has dimension {g.n}")
    if f.n != g.m:
        raise ValueError(f"f expects {f.n} inputs, g produces {g.m}")
    k = sum(alpha)
    table = build_table(alpha, g.m)
    x = tuple(float(c) for c in x)
    gderiv = _g_derivatives(g, x, k)
    gx = tuple(g.eval_real(x))
    ftvs = f.eval_taylor(gx, k)
    out = np.zeros(f.m)
    for beta in table.polys:
        p = table.eval_poly(beta, gderiv)
        if p == 0.0:
            continue
        fb = np.array([taylorarith.extract_derivative(tv, beta) for tv in ftvs])
        out += p * fb
    return out


def jet_pullback(g, f, points, tol=1e-12):
    """
    Pull the jet f (on a point set B ⊆ ℝᵗ) back along g: ℝˢ → ℝᵗ to a jet
    of the same order on the given source points.

    Each source point's image g(x) must match a stored point of f to
    within `tol` per coordinate (floating-point images rarely reproduce
    stored coordinates bit-exactly); the nearest stored point is used,
    the first in the jet's order among equally near ones, and an unmatched
    or NaN image is an error.  The images are matched by one sup-distance
    reduction against the stored points, taken in blocks of images so that
    its memory stays bounded.

    At x the jet's Taylor polynomial at y = g(x) is composed with the
    series of g at x: with w = g(x + h) − y truncated at order k, the
    Taylor coefficient of (f∘g) at α is Σ_β [h^α] w^β · f_β(y)/β!.  The
    series of g and the table of products w^β are computed once for all
    source points, as (ncoef, B) columns; the rows of all points are then
    one stacked matrix product W · f(y), with W[α, β] = α!/β! · [h^α] w^β
    per point, so an entry of W that is exactly 1 passes f_β through
    unrounded.  A row beyond the float range is a ValueError naming its
    source point, and so is a source point of another dimension than g's.
    A failing batch is pulled back again one point at a time
    (:func:`taylorarith._run_batch`), so it raises what its first failing
    point raises alone.
    """
    if g.m != f.n:
        raise ValueError(f"g maps into dimension {g.m}, jet lives in {f.n}")
    points = list(points)
    rows = taylorarith._run_batch(lambda b: _pulled_rows(g, f, b, tol), points) if points else []
    ids, xs = [pid for pid, _ in points], [x for _, x in points]
    return jets.Jet._from_arrays(g.n, f.k, f.m, ids, xs, rows)


def _pulled_rows(g, f, points, tol):
    """The rows of the pullback of f along g at the source points, a
    (B, ncoef, m) array in point order; see :func:`jet_pullback`."""
    k = f.k
    for pid, x in points:
        if len(x) != g.n:
            raise ValueError(f"point {pid} has dimension {len(x)}, expected {g.n}")
    xs = [tuple(float(c) for c in x) for _, x in points]
    images = np.array([g.eval_real(x) for x in xs])
    stored = f.X
    # sup distances to all stored points, for blocks of images whose
    # (block, N, t) differences hold about 2^18 floats; a NaN image fails
    # the test, and a jet without points matches nothing
    best, near = np.full(len(xs), np.inf), np.zeros(len(xs), dtype=int)
    step = max(1, 2**18 // max(1, stored.size))
    for s in range(0, len(xs) if f.ids else 0, step):
        dist = np.max(np.abs(stored - images[s : s + step, None, :]), axis=2)
        best[s : s + step] = np.min(dist, axis=1)
        near[s : s + step] = np.argmin(dist, axis=1)
    unmatched = ~(best <= tol)
    if unmatched.any():
        i = int(unmatched.argmax())
        raise ValueError(
            f"image {tuple(images[i].tolist())} of point {points[i][0]!r} matches no "
            f"stored point (closest at distance {float(best[i]) if f.ids else None})"
        )
    F = f.F.take(near, axis=0)
    fact = np.array([multiindex.factorial(b) for b in f.indices], dtype=float)
    weights = taylorarith.context(g.n, k).factorials[:, None] / fact
    with np.errstate(over="ignore", invalid="ignore"):
        inners = [taylorarith.centered(tv) for tv in g.eval_taylor(xs, k)]
        products = taylorarith.monomial_products(inners, k)
        # (B, ncoef_s, ncoef_t) @ (B, ncoef_t, m): one product of C-contiguous
        # matrices per point, with the bits of a one-point call
        W = np.stack([products[b].coeffs.T for b in f.indices], axis=2) * weights
        rows = W @ F
    finite = np.isfinite(rows).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"the pulled-back jet overflows at point {points[int(finite.argmin())][0]}")
    return rows
