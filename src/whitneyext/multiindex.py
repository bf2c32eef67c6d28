"""
Multi-index arithmetic.

A multi-index is a tuple of n non-negative integers.  Multi-indices label
mixed partial derivatives throughout the package, and the graded
lexicographic enumeration produced by :func:`enumerate_upto` is the
canonical storage order everywhere (jet values, Taylor coefficients, file
formats).
"""

import math

_INT64_MAX = 2**63 - 1


def check(a):
    """Validate a multi-index: a non-empty tuple of ints >= 0."""
    a = tuple(int(e) for e in a)
    if len(a) == 0:
        raise ValueError("multi-index must have dimension >= 1")
    if any(e < 0 for e in a):
        raise ValueError(f"negative entry in multi-index {a}")
    return a


def order(a):
    """Total order |a| = sum of the entries."""
    return sum(a)


def factorial(a):
    """a! = a_1! * ... * a_n!  Raises OverflowError beyond 64-bit range."""
    out = 1
    for e in a:
        out *= math.factorial(e)
    if out > _INT64_MAX:
        raise OverflowError(f"{a}! exceeds 64-bit integer range")
    return out


def add(a, b):
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {a} vs {b}")
    return tuple(x + y for x, y in zip(a, b))


def enumerate_upto(n, k):
    """
    All multi-indices a in N_0^n with |a| <= k, graded-lexicographically.

    Sorted by total order first; within one total order the first entry
    decreases, then the second, and so on — e.g. for n=2, order 2:
    (2,0), (1,1), (0,2).  The list has length C(n+k, n) and the zero index
    always comes first.

    Parameters
    ----------
    n : int
        Dimension, >= 1.
    k : int
        Maximum total order, >= 0.

    Returns
    -------
    list of tuple of int
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if k < 0:
        raise ValueError("order must be >= 0")
    out = []
    for g in range(k + 1):
        out.extend(_graded(n, g))
    return out


def _graded(n, g):
    """Multi-indices of exact total order g in dimension n, lex from the front."""
    if n == 1:
        return [(g,)]
    out = []
    for first in range(g, -1, -1):
        for rest in _graded(n - 1, g - first):
            out.append((first,) + rest)
    return out


def count_upto(n, k):
    """len(enumerate_upto(n, k)) without building the list: C(n+k, n)."""
    return math.comb(n + k, n)


def parse(text, n=None):
    """
    Parse a multi-index from its serialized form "[a,b,...]" or "(a,b,...)".

    Used by the file formats and the CLI.  When n is given the dimension is
    checked.
    """
    s = text.strip()
    if s and s[0] in "[(" and s[-1] in "])":
        s = s[1:-1]
    parts = [p for p in s.split(",") if p.strip() != ""]
    if not parts:
        raise ValueError(f"cannot parse multi-index from {text!r}")
    try:
        a = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"cannot parse multi-index from {text!r}") from None
    a = check(a)
    if n is not None and len(a) != n:
        raise ValueError(f"multi-index {text!r} has dimension {len(a)}, expected {n}")
    return a


def fmt(a):
    """Serialize as "[a,b,...]" — the canonical key form in JSON files."""
    return "[" + ",".join(str(e) for e in a) + "]"
