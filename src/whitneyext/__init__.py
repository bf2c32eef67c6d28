"""
whitneyext
==========

Constructive Whitney extension of vector-valued jets on closed subsets of
R^n.  The package stores finite k-jets, builds the dyadic Whitney cube
decomposition of the complement and a subordinate smooth partition of
unity, evaluates the extension operator and all of its derivatives through
truncated Taylor arithmetic, transports jets along smooth maps by
truncated Taylor composition, and checks chart correspondence on finite
atlases.

Submodules
----------
multiindex   multi-index arithmetic and graded-lex enumeration
taylorarith  truncated multivariate Taylor arithmetic (exact derivatives)
exprlang     small expression language over reals and Taylor values
jets         Whitney k-jets on finite sets, seminorms, gluing
decomp       Whitney cube decomposition of R^n \\ A
pou          smooth cutoff and the Whitney partition of unity
extend       the extension operator (fixed and adaptive degree)
fdb          set partitions, Faa di Bruno tables, jet pullback
atlas        finite atlases, correspondence, manifold extension
cli          command-line front end
"""

from . import multiindex, taylorarith, exprlang, jets, decomp, pou, extend, fdb, atlas

__all__ = [
    "multiindex",
    "taylorarith",
    "exprlang",
    "jets",
    "decomp",
    "pou",
    "extend",
    "fdb",
    "atlas",
]

__version__ = "0.1.0"
