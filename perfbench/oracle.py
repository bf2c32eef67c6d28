"""
Exact references and error bounds for checking the program's outputs.

Reference derivatives come from the generating expression in Taylor
arithmetic (`VectorExpr.eval_taylor`).  The extension's order-j columns
carry cancellation noise of about eps * M * max|s^(i)| / side^j: each
cut-off derivative is a bump derivative s^(i) scaled by 1/side^i, and the
blended Taylor polynomials cancel to the reference only up to rounding of
terms of size M.  `DerivBound` turns that into a bound; the constant C is
sized by measurement (see README.md), never by choosing data.
"""

import itertools
import math

import numpy as np

EPS = float(np.finfo(float).eps)

# Largest observed err / (eps * M * S_j / side^j): 4.4 over about 13 000
# derivs-3d-scatter queries on 9 seeds (99.9th percentile 1.3), and 2.9
# over the cli-grid-tiles values.  C = 32 leaves a margin of 7 above that.
C_EXTENSION = 32.0
# Transported and chart-composed jets: largest observed err / (eps * M) is
# about 8 on the atlas-transport shape.
C_CHAIN = 64.0


def random_poly(rng, n, deg):
    """A random polynomial of total degree `deg` in n variables, as source
    text with coefficients uniform in [-2, 2]."""
    terms = [f"{rng.uniform(-2, 2):.6f}"]
    for alpha in itertools.product(range(deg + 1), repeat=n):
        if 0 < sum(alpha) <= deg:
            mono = "*".join(f"x{i}^{a}" for i, a in enumerate(alpha) if a)
            terms.append(f"{rng.uniform(-2, 2):.6f}*{mono}")
    return " + ".join(terms)


def exact_derivs(vexpr, x, k):
    """All derivatives of a vector expression at x up to order k, as an
    (ncoef, m) array in graded-lex order."""
    tvs = vexpr.eval_taylor(tuple(float(c) for c in x), k)
    return np.stack([tv.coeffs * tv.ctx.factorials for tv in tvs], axis=1)


def home_side(points, x):
    """
    Side of the Whitney cube holding x, from the definition alone: the
    coarsest dyadic level j whose cube around x lies at distance at least
    4 sqrt(n) / 2^j from the point set.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[1]
    for j in range(53):
        side = math.ldexp(1.0, -j)
        lo = np.floor(np.ldexp(np.asarray(x, float), j)) * side
        gaps = np.maximum(0.0, np.maximum(lo - points, points - (lo + side)))
        if np.min(np.linalg.norm(gaps, axis=1)) >= 4.0 * math.sqrt(n) * side:
            return side
    raise ValueError(f"no Whitney cube holds {tuple(x)} up to level 52")


def bump_maxima(pou, taylorarith, k, samples=400):
    """
    S_j = max over i <= j of max_t |s^(i)(t)| for the cut-off profile s,
    from `pou.bump_taylor` sampled across the transition band
    0.5 < t < 0.75 (s is constant outside it).
    """
    peak = np.zeros(k + 1)
    peak[0] = 1.0
    for t in np.linspace(0.5, 0.75, samples + 2)[1:-1]:
        s = pou.bump_taylor(taylorarith.seed_variable((float(t),), 0, 1, k))
        peak = np.maximum(peak, np.abs(taylorarith.derivatives(s)))
    return np.maximum.accumulate(peak)


class DerivBound:
    """
    err_alpha <= C * eps * M * S_|alpha| / side^|alpha|, with M the largest
    reference derivative at the query and side that of its home cube.
    """

    def __init__(self, maxima, indices):
        self.maxima = np.asarray(maxima, dtype=float)
        self.orders = np.array([sum(a) for a in indices])

    def margins(self, got, want, side):
        """Per-entry err / bound for the leading rows of (ncoef, m)
        derivative arrays in graded-lex order."""
        rows = len(got)
        scale = float(np.max(np.abs(want)))
        per_order = C_EXTENSION * EPS * scale * self.maxima / side ** np.arange(len(self.maxima))
        bound = per_order[self.orders[:rows]][:, None]
        return np.abs(np.asarray(got) - want[:rows]) / bound


def chain_margins(got, want, scale):
    """Per-entry err / (C * eps * M) for jets produced by the chain rule."""
    return np.abs(np.asarray(got) - np.asarray(want)) / (C_CHAIN * EPS * scale)
