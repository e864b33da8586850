"""Closed-form scalar expressions: parsing, exact differentiation, evaluation,
and second-order jets.

Grammar (EBNF):

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := ("-")? power
    power  := atom ("^" factor)?
    atom   := number | ident | ident "(" expr ")" | "(" expr ")"

Identifiers are [A-Za-z_][A-Za-z0-9_]*.  Known functions: sin cos tan exp
log sinh cosh tanh sqrt.  Known constants: pi, e.  There is no implicit
multiplication; "2x" is a syntax error.

Expressions are immutable trees, so they are safe to share between workers.
Only constant folding is performed; no canonical simplification.

``jets`` gives the values, gradients and Hessians of expressions at a point
in one pass over the trees; it is how every derivative of chart data at a
point is computed.  ``differentiate`` builds a derivative as a new tree, for
callers that need the derivative itself as an expression.
"""

import math
import re
from dataclasses import dataclass

import numpy as np


class ExprError(Exception):
    pass


class ParseError(ExprError):
    """Syntax or name error, carrying the 0-based position in the input."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(ExprError):
    """Evaluation left the real domain (log of non-positive, 1/0, ...)."""


class MissingBindingError(ExprError):
    pass


FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "sqrt": math.sqrt,
}

CONSTANTS = {"pi": math.pi, "e": math.e}


class Expr:
    """Base class of expression nodes."""

    def diff(self, sym):
        return differentiate(self, sym)

    def eval(self, bindings):
        return evaluate(self, bindings)

    def __str__(self):
        return to_string(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Sym(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


# ---------------------------------------------------------------------------
# folding constructors

def neg(a):
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _fold(op, a, b):
    """Fold a binary op on two literals; None if out of domain."""
    try:
        return Const(_apply_binop(op, a.value, b.value))
    except ExprError:
        return None


def add(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return BinOp("+", a, b)


def sub(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return neg(b)
    return BinOp("-", a, b)


def mul(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if isinstance(a, Const):
        if a.value == 0.0:
            return Const(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Const):
        if b.value == 0.0:
            return Const(0.0)
        if b.value == 1.0:
            return a
    return BinOp("*", a, b)


def div(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        folded = _fold("/", a, b)
        if folded is not None:
            return folded
    if isinstance(b, Const) and b.value == 1.0:
        return a
    return BinOp("/", a, b)


def pow_(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        folded = _fold("^", a, b)
        if folded is not None:
            return folded
    if isinstance(b, Const):
        if b.value == 1.0:
            return a
        if b.value == 0.0:
            return Const(1.0)
    return BinOp("^", a, b)


def call(fn, a):
    if isinstance(a, Const):
        try:
            return Const(_apply_call(fn, a.value))
        except ExprError:
            pass
    return Call(fn, a)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, symbols):
        self.tokens = tokens
        self.i = 0
        self.symbols = symbols

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse_expr(self):
        node = self.parse_term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.parse_term()
                node = add(node, rhs) if value == "+" else sub(node, rhs)
            else:
                return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.parse_factor()
                node = mul(node, rhs) if value == "*" else div(node, rhs)
            else:
                return node

    def parse_factor(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return neg(self.parse_power())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return pow_(base, self.parse_factor())
        return base

    def parse_atom(self):
        kind, value, pos = self.advance()
        if kind == "num":
            return Const(float(value))
        if kind == "ident":
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", pos)
                self.advance()
                arg = self.parse_expr()
                self.expect_op(")")
                return call(value, arg)
            if value in self.symbols:
                return Sym(value)
            if value in CONSTANTS:
                return Const(CONSTANTS[value])
            raise ParseError(f"unknown identifier {value!r}", pos)
        if kind == "op" and value == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)


def parse(text, symbols):
    """Parse ``text`` into an Expr over the given coordinate names."""
    names = list(symbols)
    if len(set(names)) != len(names):
        raise ValueError("coordinate names must be distinct")
    parser = _Parser(_tokenize(text), set(names))
    node = parser.parse_expr()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {value!r}", pos)
    return node


# ---------------------------------------------------------------------------
# differentiation

def differentiate(e, sym):
    """Exact partial derivative of ``e`` with respect to coordinate ``sym``."""
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Sym):
        return Const(1.0 if e.name == sym else 0.0)
    if isinstance(e, Neg):
        return neg(differentiate(e.arg, sym))
    if isinstance(e, Call):
        du = differentiate(e.arg, sym)
        return mul(_chain_factor(e.fn, e.arg), du)
    if isinstance(e, BinOp):
        a, b = e.left, e.right
        da, db = differentiate(a, sym), differentiate(b, sym)
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, b), mul(a, db))
        if e.op == "/":
            return div(sub(mul(da, b), mul(a, db)), pow_(b, Const(2.0)))
        # power
        if isinstance(b, Const):
            return mul(mul(b, pow_(a, Const(b.value - 1.0))), da)
        if isinstance(a, Const):
            return mul(mul(e, call("log", a)), db)
        # f^g with non-constant exponent: rewrite as exp(g*log f)
        rewritten = call("exp", mul(b, call("log", a)))
        return differentiate(rewritten, sym)
    raise TypeError(f"not an Expr: {e!r}")


def _chain_factor(fn, u):
    if fn == "sin":
        return call("cos", u)
    if fn == "cos":
        return neg(call("sin", u))
    if fn == "tan":
        return div(Const(1.0), pow_(call("cos", u), Const(2.0)))
    if fn == "exp":
        return call("exp", u)
    if fn == "log":
        return div(Const(1.0), u)
    if fn == "sinh":
        return call("cosh", u)
    if fn == "cosh":
        return call("sinh", u)
    if fn == "tanh":
        return div(Const(1.0), pow_(call("cosh", u), Const(2.0)))
    if fn == "sqrt":
        return div(Const(0.5), call("sqrt", u))
    raise ValueError(f"unknown function {fn!r}")


# ---------------------------------------------------------------------------
# evaluation

def _apply_binop(op, x, y):
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "*":
        return x * y
    if op == "/":
        if y == 0.0:
            raise DomainError("division by zero")
        return x / y
    try:
        return math.pow(x, y)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"pow({x!r}, {y!r}) out of domain") from exc


def _apply_call(fn, x):
    try:
        value = FUNCTIONS[fn](x)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"{fn}({x!r}) out of domain") from exc
    if fn == "log" and x <= 0.0:
        raise DomainError(f"log({x!r}) out of domain")
    return value


def evaluate(e, bindings):
    """Evaluate ``e`` at a point given as a dict coordinate -> float."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Sym):
        try:
            return float(bindings[e.name])
        except KeyError:
            raise MissingBindingError(f"no binding for {e.name!r}") from None
    if isinstance(e, Neg):
        return -evaluate(e.arg, bindings)
    if isinstance(e, Call):
        return _apply_call(e.fn, evaluate(e.arg, bindings))
    if isinstance(e, BinOp):
        return _apply_binop(e.op, evaluate(e.left, bindings), evaluate(e.right, bindings))
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# second-order jets

def _derivative_pair(e):
    d1 = differentiate(e, "t")
    return d1, differentiate(d1, "t")


# f' and f'' of each function and of the reciprocal "/" (1/t), built once as
# expressions in t.  Evaluating them keeps every domain error a DomainError:
# sqrt'(0) raises "division by zero" as the derivative tree of sqrt does.
_CHAIN = {fn: _derivative_pair(Call(fn, Sym("t"))) for fn in FUNCTIONS}
_CHAIN["/"] = _derivative_pair(BinOp("/", Const(1.0), Sym("t")))


def _chain(value, f1, f2, u):
    """Jet of f(u) from f, f', f'' at the value of u and the jet of u."""
    return value, f1 * u[1], f1 * u[2] + f2 * np.outer(u[1], u[1])


def _call(fn, value, u):
    """Jet of fn(u), given its value, for fn a key of _CHAIN."""
    d1, d2 = _CHAIN[fn]
    return _chain(value, evaluate(d1, {"t": u[0]}), evaluate(d2, {"t": u[0]}), u)


def _product(value, a, b):
    """Jet of a*b, given its value."""
    cross = np.outer(a[1], b[1])
    return value, a[0] * b[1] + b[0] * a[1], a[0] * b[2] + b[0] * a[2] + cross + cross.T


def _binop_jet(e, a, b):
    if e.op == "+":
        return a[0] + b[0], a[1] + b[1], a[2] + b[2]
    if e.op == "-":
        return a[0] - b[0], a[1] - b[1], a[2] - b[2]
    if e.op == "*":
        return _product(a[0] * b[0], a, b)
    if e.op == "/":
        value = _apply_binop("/", a[0], b[0])
        return _product(value, a, _call("/", 1.0 / b[0], b))
    if isinstance(e.right, Const):
        c = e.right.value
        return _chain(_apply_binop("^", a[0], c), c * _apply_binop("^", a[0], c - 1.0),
                      c * (c - 1.0) * _apply_binop("^", a[0], c - 2.0), a)
    # f^g with non-constant exponent, differentiated as exp(g*log f)
    value = _apply_binop("^", a[0], b[0])
    log_a = _call("log", _apply_call("log", a[0]), a)
    return _call("exp", value, _product(b[0] * log_a[0], b, log_a))


def jets(exprs, coordinates, point):
    """Values, gradients and Hessians of ``exprs`` at ``point``, as arrays
    of shape (m,), (m, n) and (m, n, n) for m expressions in n coordinates.

    Exact second-order Taylor coefficients are pushed forward through each
    tree once (Griewank & Walther, Evaluating Derivatives, 2nd ed., ch. 13),
    memoised on node identity within the call, so a subtree shared between
    or within expressions is visited once.  Node values go through the same
    domain checks as ``evaluate``.
    """
    n = len(coordinates)
    zero1, zero2 = np.zeros(n), np.zeros((n, n))
    seeds = {c: (float(x), unit, zero2)
             for c, x, unit in zip(coordinates, point, np.eye(n))}
    memo = {}

    def jet(e):
        out = memo.get(id(e))
        if out is not None:
            return out
        if isinstance(e, Const):
            out = (e.value, zero1, zero2)
        elif isinstance(e, Sym):
            if e.name not in seeds:
                raise MissingBindingError(f"no binding for {e.name!r}")
            out = seeds[e.name]
        elif isinstance(e, Neg):
            v, g, h = jet(e.arg)
            out = (-v, -g, -h)
        elif isinstance(e, Call):
            u = jet(e.arg)
            out = _call(e.fn, _apply_call(e.fn, u[0]), u)
        elif isinstance(e, BinOp):
            out = _binop_jet(e, jet(e.left), jet(e.right))
        else:
            raise TypeError(f"not an Expr: {e!r}")
        memo[id(e)] = out
        return out

    with np.errstate(all="ignore"):  # a non-finite result raises DomainError below
        out = [jet(e) for e in exprs]
    arrays = tuple(np.array([j[order] for j in out]).reshape((len(out),) + (n,) * order)
                   for order in range(3))
    if not all(np.isfinite(a).all() for a in arrays):
        raise DomainError(f"a value or derivative is not finite at {np.asarray(point).tolist()}")
    return arrays


def substitute(e, mapping):
    """Replace coordinate symbols by expressions (used for pullbacks)."""
    if isinstance(e, Sym):
        return mapping.get(e.name, e)
    if isinstance(e, Neg):
        return neg(substitute(e.arg, mapping))
    if isinstance(e, Call):
        return call(e.fn, substitute(e.arg, mapping))
    if isinstance(e, BinOp):
        left = substitute(e.left, mapping)
        right = substitute(e.right, mapping)
        ctor = {"+": add, "-": sub, "*": mul, "/": div, "^": pow_}[e.op]
        return ctor(left, right)
    return e


# ---------------------------------------------------------------------------
# printing

# precedence levels: +,- = 1; *,/ = 2; unary minus = 2.5; ^ = 3; atoms = 4
def _prec(e):
    if isinstance(e, (Sym, Call)):
        return 4
    if isinstance(e, Const):
        return 4 if e.value >= 0.0 else 2.5
    if isinstance(e, Neg):
        return 2.5
    return {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}[e.op]


def _wrap(e, minimum):
    s = to_string(e)
    return f"({s})" if _prec(e) < minimum else s


def to_string(e):
    """Render ``e`` so that parse(to_string(e)) reproduces the same tree."""
    if isinstance(e, Const):
        v = e.value
        if v == math.floor(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, 3)
    if isinstance(e, Call):
        return f"{e.fn}({to_string(e.arg)})"
    if isinstance(e, BinOp):
        if e.op in "+-":
            return f"{_wrap(e.left, 1)} {e.op} {_wrap(e.right, 2)}"
        if e.op in "*/":
            return f"{_wrap(e.left, 2)}{e.op}{_wrap(e.right, 2.5)}"
        # ^ : left must be an atom, right a factor
        return f"{_wrap(e.left, 4)}^{_wrap(e.right, 2.5)}"
    raise TypeError(f"not an Expr: {e!r}")
