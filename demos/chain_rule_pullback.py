"""
Higher-order chain rule and jet pullback
========================================

Derivatives of a composition f(g(x)) expand into sums over set partitions.
A jet can also be pulled back along a smooth map: the derivative data of
f o g at a point is computed from the data of f at the image point, without
ever forming the composition.  The pullback composes the jet's Taylor
polynomial at the image point with the series of g, which the partition
tables confirm.
"""

import numpy as np

from whitneyext import fdb, jets
from whitneyext import exprlang as el

###############################################################################
# Set partitions drive everything: the order-k derivative of a composition
# has one term per partition of the k differentiation slots.

for j in (1, 2, 3):
    parts = fdb.set_partitions(3, j)
    print(f"partitions of {{1,2,3}} into {j} blocks: {len(parts)}")

###############################################################################
# The symbolic table for one multi-index can be printed directly; each line
# is a polynomial in the inner map's derivatives.

table = fdb.build_table((2,), 1)
print("\n" + fdb.table_text(table))

###############################################################################
# Numeric chain rule: d^3/dx^3 of sin(g(x)) with g = x^2 + x, against the
# substituted composition.

g = el.VectorExpr.parse(["x0^2 + x0"], 1)
f = el.VectorExpr.parse(["sin(x0)"], 1)
x = (0.4,)
got = fdb.chain_derivative(f, g, (3,), x)

comp = f.compose(g)
tv = el.eval_taylor(comp.exprs[0], x, 3)
want = tv.coeffs[tv.ctx.pos[(3,)]] * 6.0
print("chain rule :", got[0])
print("substituted:", want)

###############################################################################
# Pulling back a jet
# ------------------
# A jet of F on image points becomes a jet of F o g on source points, by
# truncated Taylor composition.  The pullback along the identity is the
# identity, and pullbacks compose.

F = el.VectorExpr.parse(["exp(x0)*x1"], 2)
gmap = el.VectorExpr.parse(["2*x0", "x0^2"], 1)
base = [("s", (0.5,)), ("t", (1.0,))]
image = [(pid, tuple(gmap.eval_real(x))) for pid, x in base]

jet_on_image = jets.Jet.from_expr(F, image, 3)
pulled = fdb.jet_pullback(gmap, jet_on_image, base)

direct = jets.Jet.from_expr(F.compose(gmap), base, 3)
for pid in pulled.ids:
    dev = np.max(np.abs(pulled.values[pid] - direct.values[pid]))
    print(f"pullback vs direct induction at {pid}: max dev {dev:.2e}")
