"""
A small expression language for ground-truth functions, chart maps, and
bump profiles.

Grammar (whitespace insignificant, no implicit multiplication)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := ("-")? power
    power  := atom ("^" INT)?
    atom   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

``IDENT`` is a variable ``x0 .. x{n-1}`` or one of the function names
exp, sin, cos, ln, sqrt.  Exponents are non-negative integer literals and
"^" binds tighter than unary minus, so ``-x0^2`` is ``-(x0^2)``.

Expressions evaluate over plain reals (:func:`eval_real`) and over
truncated Taylor values (:func:`eval_taylor`), which is how every exact
derivative of a user-supplied function is obtained.
"""

import math
import re

from . import taylorarith

FUNCTIONS = ("exp", "sin", "cos", "ln", "sqrt")


class ExprError(ValueError):
    """Base class for expression problems."""


class ParseError(ExprError):
    """Malformed source text; `offset` is the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class SemanticError(ExprError):
    """Well-formed but meaningless: unknown name, variable out of range, bad arity."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class DomainError(ExprError):
    """Evaluation left the domain: division by zero, ln of a non-positive
    value, sqrt of a negative value, a result too large for a float."""


# -- AST ------------------------------------------------------------------


class Num:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Var:
    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index


class Bin:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right


class Neg:
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg


class Pow:
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = exponent


class Call:
    __slots__ = ("name", "arg")

    def __init__(self, name, arg):
        self.name = name
        self.arg = arg


# -- tokenizer ------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            # trailing whitespace is fine; anything else is an error
            rest = src[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ParseError(f"unexpected character {src[bad]!r}", bad)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src, n):
        self.src = src
        self.n = n
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", off)
        return self.advance()

    def parse(self):
        e = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r} after expression", off)
        return e

    def expr(self):
        left = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                left = Bin(text, left, self.term())
            else:
                return left

    def term(self):
        left = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                left = Bin(text, left, self.factor())
            else:
                return left

    def factor(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.power())
        return self.power()

    def power(self):
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            kind, text, off = self.advance()
            if kind != "num" or not re.fullmatch(r"\d+", text):
                raise ParseError("exponent must be a non-negative integer literal", off)
            return Pow(base, int(text))
        return base

    def atom(self):
        kind, text, off = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            nxt_kind, nxt_text, _ = self.peek()
            if nxt_kind == "op" and nxt_text == "(":
                if text not in FUNCTIONS:
                    raise SemanticError(f"unknown function {text!r}", off)
                self.advance()
                # reject empty argument lists up front for a clearer message
                k2, t2, off2 = self.peek()
                if k2 == "op" and t2 == ")":
                    raise SemanticError(f"{text} takes exactly one argument", off2)
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            m = re.fullmatch(r"x(\d+)", text)
            if m is None:
                raise SemanticError(f"unknown identifier {text!r}", off)
            idx = int(m.group(1))
            if idx >= self.n:
                raise SemanticError(
                    f"variable x{idx} out of range for dimension {self.n}", off
                )
            return Var(idx)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"expected a number, variable, or '('", off)


def parse(src, n):
    """Parse source text into an AST, validating variables against dimension n."""
    return _Parser(src, n).parse()


# -- evaluation -----------------------------------------------------------


def eval_real(e, x):
    """Evaluate over plain floats at the point x."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return float(x[e.index])
    if isinstance(e, Neg):
        return -eval_real(e.arg, x)
    if isinstance(e, Pow):
        b = eval_real(e.base, x)
        try:
            return b ** e.exponent
        except OverflowError:
            raise DomainError(f"{b}^{e.exponent} overflows") from None
    if isinstance(e, Bin):
        a = eval_real(e.left, x)
        b = eval_real(e.right, x)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if b == 0.0:
            raise DomainError("division by zero")
        return a / b
    if isinstance(e, Call):
        v = eval_real(e.arg, x)
        if e.name == "exp":
            try:
                return math.exp(v)
            except OverflowError:
                raise DomainError(f"exp of {v} overflows") from None
        if e.name == "sin":
            return math.sin(v)
        if e.name == "cos":
            return math.cos(v)
        if e.name == "ln":
            if v <= 0.0:
                raise DomainError(f"ln of non-positive value {v}")
            return math.log(v)
        if e.name == "sqrt":
            if v < 0.0:
                raise DomainError(f"sqrt of negative value {v}")
            return math.sqrt(v)
    raise TypeError(f"not an expression node: {e!r}")


def eval_taylor_env(e, env):
    """
    Evaluate over TaylorValues with the given per-variable series.  Series
    with (ncoef, B) columns (seeds at B points) evaluate the expression at
    every column at once; a constant takes the shape of the columns.
    """
    if isinstance(e, Num):
        return taylorarith.constant_like(e.value, env[0])
    if isinstance(e, Var):
        return env[e.index]
    if isinstance(e, Neg):
        return -eval_taylor_env(e.arg, env)
    if isinstance(e, Pow):
        return eval_taylor_env(e.base, env) ** e.exponent
    if isinstance(e, Bin):
        a = eval_taylor_env(e.left, env)
        b = eval_taylor_env(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        try:
            return a / b
        except taylorarith.SeriesDomainError as exc:
            raise DomainError(str(exc)) from None
    if isinstance(e, Call):
        v = eval_taylor_env(e.arg, env)
        try:
            return taylorarith.elementary(e.name, v)
        except taylorarith.SeriesDomainError as exc:
            raise DomainError(str(exc)) from None
    raise TypeError(f"not an expression node: {e!r}")


def eval_taylor(e, x0, k):
    """
    Order-k Taylor expansion of the expression at the point x0, or at
    every row of a (B, n) batch x0 as (ncoef, B) columns with the bits of
    one-point calls.

    The result's :func:`taylorarith.extract_derivative` values are the exact
    mixed partials of the expression (truncation is exact through order k).
    """
    env = taylorarith.seeds(x0, k)
    if not env:
        raise ValueError("dimension must be >= 1")
    return eval_taylor_env(e, env)


# -- substitution / composition -------------------------------------------


def subst(e, replacements):
    """Replace every Var(i) with replacements[i] (an AST); pure rewrite."""
    if isinstance(e, Num):
        return e
    if isinstance(e, Var):
        return replacements[e.index]
    if isinstance(e, Neg):
        return Neg(subst(e.arg, replacements))
    if isinstance(e, Pow):
        return Pow(subst(e.base, replacements), e.exponent)
    if isinstance(e, Bin):
        return Bin(e.op, subst(e.left, replacements), subst(e.right, replacements))
    if isinstance(e, Call):
        return Call(e.name, subst(e.arg, replacements))
    raise TypeError(f"not an expression node: {e!r}")


# -- vectors ---------------------------------------------------------------


class VectorExpr:
    """A list of m component expressions over a shared input dimension n."""

    def __init__(self, exprs, n):
        if len(exprs) < 1:
            raise ValueError("a vector expression needs at least one component")
        self.exprs = list(exprs)
        self.n = n

    @property
    def m(self):
        return len(self.exprs)

    @classmethod
    def parse(cls, sources, n):
        return cls([parse(s, n) for s in sources], n)

    def eval_real(self, x):
        return [eval_real(e, x) for e in self.exprs]

    def eval_taylor(self, x0, k):
        return [eval_taylor(e, x0, k) for e in self.exprs]

    def eval_taylor_env(self, env):
        return [eval_taylor_env(e, env) for e in self.exprs]

    def compose(self, inner):
        """
        The literal composition self ∘ inner as a new VectorExpr, by
        substituting inner's components for this vector's variables.
        """
        if inner.m != self.n:
            raise ValueError(
                f"composition mismatch: outer expects {self.n} inputs, inner has {inner.m}"
            )
        return VectorExpr([subst(e, inner.exprs) for e in self.exprs], inner.n)


def identity_vector(n):
    """The identity map of R^n as a VectorExpr."""
    return VectorExpr([Var(i) for i in range(n)], n)
