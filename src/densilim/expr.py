"""Recursive-descent parser and evaluator for field/region expressions.

Grammar (loosest to tightest binding):

    or > and > not > comparisons (< <= > >=) > + - > * / > unary - > ^

Identifiers: variables ``x1..xn``, boolean literals ``true``/``false``,
functions abs, sqrt, exp, log, sin, cos, atan2, min, max, if(cond, a, b).
Division by zero, log of non-positives, and similar produce NaN, never an
exception; estimators discard those samples.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ArityError, DimensionMismatch, ExprSyntaxError, UnknownIdentifier
from .fields import ScalarField, VectorField
from .geometry import Box, Region, as_points

ATAN2_PMPI = "pmpi"      # mathematical range (-pi, pi]
ATAN2_02PI = "0..2pi"    # range [0, 2pi)

_FUNCTIONS = {"abs": 1, "sqrt": 1, "exp": 1, "log": 1, "sin": 1, "cos": 1,
              "atan2": 2, "min": 2, "max": 2, "if": 3}


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Cmp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Not:
    arg: object


@dataclass(frozen=True)
class BoolOp:
    op: str  # "and" | "or"
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|[-+*/^<>(),])
  | (?P<ws>\s+)
""", re.VERBOSE)


@dataclass(frozen=True)
class _Token:
    kind: str   # "num" | "name" | "op" | "end"
    text: str
    column: int  # 1-based


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {src[pos]!r}", pos + 1)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), pos + 1))
        pos = m.end()
    tokens.append(_Token("end", "", len(src) + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[_Token], dim: int):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind == "op" and tok.text == text:
            return self.advance()
        if tok.kind == "end":
            raise ExprSyntaxError("unexpected end of input", tok.column)
        raise ExprSyntaxError(f"expected {text!r}, found {tok.text!r}", tok.column)

    def parse(self):
        node = self.or_expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing {tok.text!r}", tok.column)
        return node

    def or_expr(self):
        node = self.and_expr()
        while self.peek().kind == "name" and self.peek().text == "or":
            self.advance()
            node = BoolOp("or", node, self.and_expr())
        return node

    def and_expr(self):
        node = self.not_expr()
        while self.peek().kind == "name" and self.peek().text == "and":
            self.advance()
            node = BoolOp("and", node, self.not_expr())
        return node

    def not_expr(self):
        if self.peek().kind == "name" and self.peek().text == "not":
            self.advance()
            return Not(self.not_expr())
        return self.comparison()

    def comparison(self):
        node = self.additive()
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("<", "<=", ">", ">="):
            self.advance()
            node = Cmp(tok.text, node, self.additive())
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text in ("<", "<=", ">", ">="):
                raise ExprSyntaxError("chained comparisons are not supported",
                                      nxt.column)
        return node

    def additive(self):
        node = self.multiplicative()
        while self.peek().kind == "op" and self.peek().text in ("+", "-"):
            op = self.advance().text
            node = Bin(op, node, self.multiplicative())
        return node

    def multiplicative(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in ("*", "/"):
            op = self.advance().text
            node = Bin(op, node, self.unary())
        return node

    def unary(self):
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            return Bin("^", base, self.unary())  # right-assoc, allows 2^-3
        return base

    def atom(self):
        tok = self.peek()
        if tok.kind == "end":
            raise ExprSyntaxError("unexpected end of input", tok.column)
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.or_expr()
            self.expect(")")
            return node
        if tok.kind == "name":
            self.advance()
            name = tok.text
            if name in ("true", "false"):
                return BoolLit(name == "true")
            if self.peek().kind == "op" and self.peek().text == "(":
                if name not in _FUNCTIONS:
                    raise UnknownIdentifier(f"unknown function {name!r}", tok.column)
                self.advance()
                args = [self.or_expr()]
                while self.peek().kind == "op" and self.peek().text == ",":
                    self.advance()
                    args.append(self.or_expr())
                self.expect(")")
                if len(args) != _FUNCTIONS[name]:
                    raise ArityError(
                        f"{name} expects {_FUNCTIONS[name]} argument(s), got {len(args)}",
                        tok.column)
                return Call(name, tuple(args))
            m = re.fullmatch(r"x(\d+)", name)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= self.dim:
                    raise UnknownIdentifier(
                        f"variable {name} out of range for dim {self.dim}", tok.column)
                return Var(idx)
            raise UnknownIdentifier(f"unknown identifier {name!r}", tok.column)
        raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.column)


def parse(src: str, dim: int):
    """Parse an expression into an AST over variables x1..x<dim>."""
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 1)
    node = _Parser(_tokenize(src), dim).parse()
    _kind(node)  # type-check eagerly
    return node


# ---------------------------------------------------------------------------
# Static kinds: "num" or "bool"


def _kind(node) -> str:
    if isinstance(node, Num):
        return "num"
    if isinstance(node, BoolLit):
        return "bool"
    if isinstance(node, Var):
        return "num"
    if isinstance(node, Neg):
        _require(node.arg, "num", "unary -")
        return "num"
    if isinstance(node, Bin):
        _require(node.left, "num", node.op)
        _require(node.right, "num", node.op)
        return "num"
    if isinstance(node, Cmp):
        _require(node.left, "num", node.op)
        _require(node.right, "num", node.op)
        return "bool"
    if isinstance(node, Not):
        _require(node.arg, "bool", "not")
        return "bool"
    if isinstance(node, BoolOp):
        _require(node.left, "bool", node.op)
        _require(node.right, "bool", node.op)
        return "bool"
    if isinstance(node, Call):
        if node.name == "if":
            _require(node.args[0], "bool", "if condition")
            _require(node.args[1], "num", "if branch")
            _require(node.args[2], "num", "if branch")
            return "num"
        for a in node.args:
            _require(a, "num", node.name)
        return "num"
    raise TypeError(f"unknown node {node!r}")


def _require(node, kind: str, context: str):
    if _kind(node) != kind:
        raise ExprSyntaxError(f"{context} expects a {kind} operand", 1)


# ---------------------------------------------------------------------------
# Evaluation (vectorized; numerical faults become NaN)


def evaluate(node, points: np.ndarray, atan2_range: str = ATAN2_PMPI) -> np.ndarray:
    """Values of the node at each row of points, shape (m,).

    Constants are numpy scalars that broadcast, so a constant exponent
    reaches ``np.power`` as a scalar and numpy's exact paths: x^2 is x*x,
    x^0.5 is sqrt(x) and x^-1 is 1/x.  A constant expression is filled out
    to the m points; a bare variable is a copy of its column of points.
    """
    with np.errstate(all="ignore"):
        return _evaluate(node, as_points(points), atan2_range)


def _evaluate(node, X: np.ndarray, mode: str):
    """``evaluate`` on float (m, n) points, without its ``np.errstate``: for
    a compiled field's ``fn``, which runs inside the field call's own; a
    view of X (a bare variable's column) leaves as a copy."""
    value = _full(_eval(node, X, mode), X)
    return value if value.base is None else value.copy()


def _full(value, X: np.ndarray):
    """An array value, or a constant one filled out to the points of X: pow
    and the transcendentals take constant operands, except pow's exponent,
    as arrays, because numpy's scalar and array loops need not agree."""
    if isinstance(value, np.ndarray) and value.ndim:
        return value
    return np.full(X.shape[0], value)


_NODES = (Num, BoolLit, Var, Neg, Bin, Cmp, Not, BoolOp, Call)


def _eval(node, X: np.ndarray, mode: str):
    kind = type(node)  # the node's class; of a subclass, the class it extends
    if kind not in _NODES:
        kind = next((k for k in _NODES if isinstance(node, k)), None)
    if kind is Bin:
        a = _eval(node.left, X, mode)
        b = _eval(node.right, X, mode)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return np.where(b != 0.0, a / np.where(b != 0.0, b, 1.0), np.nan)
        if node.op == "^":
            return np.power(_full(a, X), b)
    if kind is Var:
        if node.index > X.shape[1]:
            raise DimensionMismatch(
                f"x{node.index} undefined for points of dim {X.shape[1]}")
        return X[:, node.index - 1]
    if kind is Num:
        return np.float64(node.value)
    if kind is Call:
        if node.name == "if":
            c = _eval(node.args[0], X, mode)
            a = _eval(node.args[1], X, mode)
            b = _eval(node.args[2], X, mode)
            return np.where(c, a, b)
        args = [_eval(a, X, mode) for a in node.args]
        if node.name not in ("abs", "min", "max"):
            args = [_full(a, X) for a in args]
        if node.name == "abs":
            return np.abs(args[0])
        if node.name == "sqrt":
            return np.where(args[0] >= 0.0, np.sqrt(np.abs(args[0])), np.nan)
        if node.name == "exp":
            return np.exp(args[0])
        if node.name == "log":
            return np.where(args[0] > 0.0, np.log(np.abs(args[0]) + (args[0] <= 0.0)),
                            np.nan)
        if node.name == "sin":
            return np.sin(args[0])
        if node.name == "cos":
            return np.cos(args[0])
        if node.name == "atan2":
            t = np.arctan2(args[0], args[1])
            if mode == ATAN2_02PI:
                t = np.where(t < 0.0, t + 2.0 * math.pi, t)
            return t
        if node.name == "min":
            return np.minimum(args[0], args[1])
        if node.name == "max":
            return np.maximum(args[0], args[1])
    if kind is Neg:
        return -_eval(node.arg, X, mode)
    if kind is Cmp:
        a = _eval(node.left, X, mode)
        b = _eval(node.right, X, mode)
        if node.op == "<":
            return a < b
        if node.op == "<=":
            return a <= b
        if node.op == ">":
            return a > b
        if node.op == ">=":
            return a >= b
    if kind is BoolLit:
        return np.bool_(node.value)
    if kind is Not:
        return ~_eval(node.arg, X, mode)
    if kind is BoolOp:
        a = _eval(node.left, X, mode)
        b = _eval(node.right, X, mode)
        return (a & b) if node.op == "and" else (a | b)
    raise TypeError(f"cannot evaluate {node!r}")


# ---------------------------------------------------------------------------
# Differentiation: forward rules over the AST, evaluated by _eval


_ZERO, _ONE = Num(0.0), Num(1.0)


def _mul(a, b):
    # a zero factor is a constant's derivative: keep it exact, never 0 * inf
    return _ZERO if _ZERO in (a, b) else Bin("*", a, b)


# outer derivative g'(a) of a one-argument call g(a), given a and g(a)
_CHAIN = {"abs": lambda a, g: Call("if", (Cmp(">=", a, _ZERO), _ONE, Num(-1.0))),
          "sqrt": lambda a, g: Bin("/", Num(0.5), g),
          "exp": lambda a, g: g,
          "log": lambda a, g: Bin("/", _ONE, a),
          "sin": lambda a, g: Call("cos", (a,)),
          "cos": lambda a, g: Neg(Call("sin", (a,)))}


def derivative(node, i: int):
    """AST of the partial derivative of a numeric node in x<i> (1-based).

    min, max, abs and if differentiate the branch active at the point, so
    the value is the exact gradient wherever f is differentiable; division
    and sqrt keep the evaluator's NaN where a denominator or root vanishes.
    """
    if isinstance(node, Num):
        return _ZERO
    if isinstance(node, Var):
        return _ONE if node.index == i else _ZERO
    if isinstance(node, Neg):
        return _mul(Num(-1.0), derivative(node.arg, i))
    if not isinstance(node, (Bin, Call)):
        raise TypeError(f"cannot differentiate {node!r}")
    if isinstance(node, Call) and node.name in _CHAIN:
        a = node.args[0]
        return _mul(_CHAIN[node.name](a, node), derivative(a, i))
    a, b = node.args[-2:] if isinstance(node, Call) else (node.left, node.right)
    da, db = derivative(a, i), derivative(b, i)
    if da == db == _ZERO:
        return _ZERO
    if isinstance(node, Call) and node.name == "atan2":  # (b a' - a b') / |(a, b)|^2
        return Bin("/", Bin("-", _mul(b, da), _mul(a, db)),
                   Bin("+", Bin("*", a, a), Bin("*", b, b)))
    if isinstance(node, Call):  # if, min, max: the branch active at the point
        c = node.args[0] if node.name == "if" else \
            Cmp(">=" if node.name == "max" else "<=", a, b)
        return Call("if", (c, da, db))
    if node.op in "+-":
        return Bin(node.op, da, db)
    if node.op == "*":
        return Bin("+", _mul(da, b), _mul(a, db))
    if node.op == "/":  # (a' - (a/b) b') / b
        return Bin("/", Bin("-", da, _mul(node, db)), b)
    if db == _ZERO:  # a^c = c a^(c-1) a'
        return _mul(_mul(b, Bin("^", a, Bin("-", b, _ONE))), da)
    return _mul(node, Bin("+", _mul(db, Call("log", (a,))),
                          _mul(b, Bin("/", da, a))))


# ---------------------------------------------------------------------------
# Printing


_BIN_PREC = {"or": 1, "and": 2, "not": 3, "cmp": 4, "+": 5, "-": 5,
             "*": 6, "/": 6, "neg": 7, "^": 8, "atom": 9}


def _prec(node) -> int:
    if isinstance(node, (Num, Var, Call, BoolLit)):
        return _BIN_PREC["atom"]
    if isinstance(node, Neg):
        return _BIN_PREC["neg"]
    if isinstance(node, Bin):
        return _BIN_PREC[node.op]
    if isinstance(node, Cmp):
        return _BIN_PREC["cmp"]
    if isinstance(node, Not):
        return _BIN_PREC["not"]
    if isinstance(node, BoolOp):
        return _BIN_PREC[node.op]
    raise TypeError(f"unknown node {node!r}")


def to_source(node) -> str:
    """Unparse; output reparses to an AST equal to the input."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, BoolLit):
        return "true" if node.value else "false"
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Neg):
        return "-" + _wrap(node.arg, _BIN_PREC["neg"])
    if isinstance(node, Bin):
        p = _prec(node)
        left = _wrap(node.left, p)
        # left-assoc for + - * /, right-assoc for ^
        right = _wrap(node.right, p if node.op == "^" else p + 1)
        if node.op == "^":
            left = _wrap(node.left, p + 1)
        return f"{left} {node.op} {right}" if node.op != "^" else f"{left}^{right}"
    if isinstance(node, Cmp):
        p = _prec(node)
        return f"{_wrap(node.left, p + 1)} {node.op} {_wrap(node.right, p + 1)}"
    if isinstance(node, Not):
        return "not " + _wrap(node.arg, _BIN_PREC["not"])
    if isinstance(node, BoolOp):
        p = _prec(node)
        return f"{_wrap(node.left, p)} {node.op} {_wrap(node.right, p + 1)}"
    if isinstance(node, Call):
        return f"{node.name}({', '.join(to_source(a) for a in node.args)})"
    raise TypeError(f"unknown node {node!r}")


def _wrap(node, minimum: int) -> str:
    s = to_source(node)
    return s if _prec(node) >= minimum else f"({s})"


# ---------------------------------------------------------------------------
# Compilation to fields and regions


def compile_field(src: str, dim: int, atan2_range: str = ATAN2_PMPI,
                  label: str = "") -> ScalarField:
    node = parse(src, dim)
    if _kind(node) != "num":
        raise ExprSyntaxError("field expression must be numeric, not boolean", 1)
    partials = []

    def fn(p):  # runs inside the field call's np.errstate: enters none
        return _evaluate(node, as_points(p), atan2_range)

    def fn_grad(p):
        """The values and the exact gradient, NaN where the value is not
        finite, from one evaluation of the expression."""
        if not partials:  # built on first use, so compiling costs no more
            partials.extend(derivative(node, i) for i in range(1, dim + 1))
        values = evaluate(node, p, atan2_range)
        g = np.empty((values.shape[0], dim))
        for i, d in enumerate(partials):  # a column at a time
            g[:, i] = evaluate(d, p, atan2_range)
        g[~np.isfinite(values)] = np.nan
        return values, g

    return ScalarField(dim, fn, label=label or src, fn_grad=fn_grad)


def compile_region(src: str, dim: int, bbox: Box, label: str = "",
                   atan2_range: str = ATAN2_PMPI) -> Region:
    node = parse(src, dim)
    if _kind(node) != "bool":
        raise ExprSyntaxError("region predicate must be boolean", 1)
    return Region(dim, lambda p: evaluate(node, p, atan2_range), bbox,
                  label=label or src)


def compile_vector_field(srcs: list[str], dim: int,
                         atan2_range: str = ATAN2_PMPI) -> VectorField:
    comps = tuple(compile_field(s, dim, atan2_range) for s in srcs)
    return VectorField(dim, comps)


def split_components(src: str) -> list[str]:
    """Split comma-joined components at top parenthesis level."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(src):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(src[start:i])
            start = i + 1
    parts.append(src[start:])
    return [p.strip() for p in parts]
