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

Expressions are immutable DAGs: the constructors below and the parser's
leaves hash-cons their nodes (Filliatre & Conchon, Type-safe modular
hash-consing, 2006), so equal subtrees built while the first is alive are
one object, and ``jets`` evaluates each distinct subtree once per point.
Only constant folding is performed, and only to finite values; no canonical
simplification.

``jets`` gives the values, gradients and Hessians of expressions at a point
in one pass over the trees; it is how every derivative of chart data at a
point is computed.  ``differentiate`` builds a derivative as a new tree, for
callers that need the derivative itself as an expression.  The two share one
set of elementary rules: ``jets`` evaluates, for each function f, the trees
``differentiate`` builds for f'(t) and f''(t).  tanh' is 1 - tanh^2, which
stays finite where cosh^2 overflows.
"""

import math
import re
import weakref
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
# hash-consing and folding constructors

# structure key -> the live node with that structure.  A child is keyed by its
# id, which is enough because children built here are unique too; a live node
# keeps its children alive, so no id in a live entry's key can be reused.
# Weak values: an entry goes with the last tree that holds its node, so
# nothing outlives a command's trees.  No result depends on sharing: a race
# between threads only builds a twin node.
_NODES = weakref.WeakValueDictionary()


def _interned(key, cls, *fields):
    node = _NODES.get(key)
    if node is None:
        node = _NODES[key] = cls(*fields)
    return node


def const(value):
    """The constant ``value``; keyed by its bits, so 0.0 and -0.0 stay apart."""
    value = float(value)
    return _interned(("const", value.hex()), Const, value)


def symbol(name):
    return _interned(("sym", name), Sym, name)


def _binop(op, a, b):
    return _interned((op, id(a), id(b)), BinOp, op, a, b)


def neg(a):
    if isinstance(a, Const):
        return const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return _interned(("neg", id(a)), Neg, a)


def _fold(op, a, b):
    """The literal ``a op b``; None unless both operands are literals and the
    result is finite, so a fold never yields a constant that cannot be printed."""
    if not (isinstance(a, Const) and isinstance(b, Const)):
        return None
    try:
        value = _apply_binop(op, a.value, b.value)
    except ExprError:
        return None
    return const(value) if math.isfinite(value) else None


def add(a, b):
    if (folded := _fold("+", a, b)) is not None:
        return folded
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return _binop("+", a, b)


def sub(a, b):
    if (folded := _fold("-", a, b)) is not None:
        return folded
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return neg(b)
    return _binop("-", a, b)


def mul(a, b):
    if (folded := _fold("*", a, b)) is not None:
        return folded
    if isinstance(a, Const):
        if a.value == 0.0:
            return const(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Const):
        if b.value == 0.0:
            return const(0.0)
        if b.value == 1.0:
            return a
    return _binop("*", a, b)


def div(a, b):
    if (folded := _fold("/", a, b)) is not None:
        return folded
    if isinstance(b, Const) and b.value == 1.0:
        return a
    return _binop("/", a, b)


def pow_(a, b):
    if (folded := _fold("^", a, b)) is not None:
        return folded
    if isinstance(b, Const):
        if b.value == 1.0:
            return a
        if b.value == 0.0:
            return const(1.0)
    return _binop("^", a, b)


def call(fn, a):
    if isinstance(a, Const):
        try:
            return const(_apply_call(fn, a.value))
        except ExprError:
            pass
    return _interned((fn, id(a)), Call, fn, a)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^])|(?P<bad>\S)"
)
_PAREN_RE = re.compile(r"[()]")
MAX_NESTING = 100

# (text, names) -> the live node that text parsed to, for every whole string
# and every parenthesized group parsed.  A group's node depends only on its
# text and the names, so a later string holding the same group (a conformal
# factor written into every metric entry) takes the node without reading the
# group again.  Weak values, as in _NODES: an entry lives while a tree holds
# its node.
_TEXTS = weakref.WeakValueDictionary()


def parse(text, symbols):
    """Parse ``text`` into an Expr over the given coordinate names.  A bad
    character is reported before any syntax error, and a text whose
    parentheses nest more than MAX_NESTING deep is rejected at the first one
    past that depth."""
    names = tuple(symbols)
    if (node := _TEXTS.get((text, names))) is not None:  # only distinct names get in
        return node
    if len(set(names)) != len(names):
        raise ValueError("coordinate names must be distinct")
    # No token holds a parenthesis, so the text is tokenized piecewise between
    # them, and a matched group already in _TEXTS becomes one "group" token.
    marks, close, opened, deep = [], {}, [], None
    for m in _PAREN_RE.finditer(text):
        p = m.start()
        marks.append(p)
        if text[p] == "(":
            opened.append(p)
            if len(opened) > MAX_NESTING and deep is None:
                deep = p
        elif opened:
            close[opened.pop()] = p
    if deep is not None:
        close = {}  # rejected below; looking up its groups would slice each one
    tokens, known, start = [], {}, 0
    for p in marks:
        if p < start:
            continue
        tokens += [(m.lastgroup, m.group(), m.start())
                   for m in _TOKEN_RE.finditer(text, start, p)]
        q = close.get(p)
        if q is not None and (node := _TEXTS.get((text[p:q + 1], names))) is not None:
            tokens.append(("group", "(", p))
            known[p] = node
            start = q + 1
        else:
            tokens.append((text[p], text[p], p))
            start = p + 1
    tokens += [(m.lastgroup, m.group(), m.start()) for m in _TOKEN_RE.finditer(text, start)]
    for kind, value, pos in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", pos)
    if deep is not None:
        raise ParseError("expression nested too deeply", deep)
    tokens.append(("end", "", len(text)))
    i = 0

    def expr():
        nonlocal i
        node = term()
        while (op := tokens[i][1]) in ("+", "-"):
            i += 1
            node = (add if op == "+" else sub)(node, term())
        return node

    def term():
        nonlocal i
        node = factor()
        while (op := tokens[i][1]) in ("*", "/"):
            i += 1
            node = (mul if op == "*" else div)(node, factor())
        return node

    def factor():
        nonlocal i
        negate = tokens[i][1] == "-"
        i += negate
        node = atom()
        if tokens[i][1] == "^":
            i += 1
            node = pow_(node, factor())
        return neg(node) if negate else node

    def atom():
        nonlocal i
        kind, value, pos = tokens[i]
        i += 1
        if kind == "group":
            return known[pos]
        if kind == "(":
            node = expr()
            kind, _, end = tokens[i]
            if kind != ")":
                raise ParseError("expected ')'", end)
            i += 1
            _TEXTS[text[pos:end + 1], names] = node
            return node
        if kind == "num":
            return const(float(value))
        if kind != "ident":
            raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input",
                             pos)
        if tokens[i][0] in ("(", "group"):
            if value not in FUNCTIONS:
                raise ParseError(f"unknown function {value!r}", pos)
            return call(value, atom())
        if value in names:
            return symbol(value)
        if value in CONSTANTS:
            return const(CONSTANTS[value])
        raise ParseError(f"unknown identifier {value!r}", pos)

    try:
        node = expr()
    except RecursionError:
        raise ParseError("expression nested too deeply", tokens[i][2]) from None
    if tokens[i][0] != "end":
        raise ParseError(f"unexpected token {tokens[i][1]!r}", tokens[i][2])
    _TEXTS[text, names] = node
    return node


# ---------------------------------------------------------------------------
# differentiation

def differentiate(e, sym):
    """Exact partial derivative of ``e`` with respect to coordinate ``sym``."""
    if isinstance(e, Const):
        return const(0.0)
    if isinstance(e, Sym):
        return const(1.0 if e.name == sym else 0.0)
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
            return div(sub(mul(da, b), mul(a, db)), pow_(b, const(2.0)))
        # power
        if isinstance(b, Const):
            return mul(mul(b, pow_(a, const(b.value - 1.0))), da)
        if isinstance(a, Const):
            return mul(mul(e, call("log", a)), db)
        # f^g with non-constant exponent: exp(g*log f) * (g'*log f + g*(1/f)*f'),
        # the tree differentiating exp(g*log f) gives, from da and db
        log_a = call("log", a)
        return mul(call("exp", mul(b, log_a)),
                   add(mul(db, log_a), mul(b, mul(div(const(1.0), a), da))))
    raise TypeError(f"not an Expr: {e!r}")


def _chain_factor(fn, u):
    if fn == "sin":
        return call("cos", u)
    if fn == "cos":
        return neg(call("sin", u))
    if fn == "tan":
        return div(const(1.0), pow_(call("cos", u), const(2.0)))
    if fn == "exp":
        return call("exp", u)
    if fn == "log":
        return div(const(1.0), u)
    if fn == "sinh":
        return call("cosh", u)
    if fn == "cosh":
        return call("sinh", u)
    if fn == "tanh":  # not 1/cosh^2, which overflows where tanh is flat
        return sub(const(1.0), pow_(call("tanh", u), const(2.0)))
    if fn == "sqrt":
        return div(const(0.5), call("sqrt", u))
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
        return FUNCTIONS[fn](x)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"{fn}({x!r}) out of domain") from exc


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

def _derivatives(f):
    """(f', f'') of the function ``f`` of t, as trees."""
    f1 = differentiate(f, "t")
    return f1, differentiate(f1, "t")


# (f', f'') of each function and of the reciprocal "/" (1/t): jets evaluate
# differentiate's own trees, so their floats and DomainErrors agree with it.
_CHAIN = {fn: _derivatives(call(fn, symbol("t"))) for fn in FUNCTIONS}
_CHAIN["/"] = _derivatives(div(const(1.0), symbol("t")))


def _chain(value, f1, f2, u):
    """Jet of f(u) from f, f', f'' at the value of u and the jet of u."""
    return value, f1 * u[1], f1 * u[2] + f2 * np.outer(u[1], u[1])


def _call(fn, value, u):
    """Jet of fn(u), given its value, for fn a key of _CHAIN."""
    f1, f2 = _CHAIN[fn]
    t = {"t": u[0]}
    return _chain(value, evaluate(f1, t), evaluate(f2, t), u)


def _product(value, a, b):
    """Jet of a*b, given its value."""
    cross = np.outer(a[1], b[1])
    return value, a[0] * b[1] + b[0] * a[1], a[0] * b[2] + b[0] * a[2] + cross + cross.T


def _binop_jet(e, value, a, b):
    """Jet of the binary node ``e``, given its value and its operands' jets."""
    if e.op == "+":
        return value, a[1] + b[1], a[2] + b[2]
    if e.op == "-":
        return value, a[1] - b[1], a[2] - b[2]
    if e.op == "*":
        return _product(value, a, b)
    if e.op == "/":
        return _product(value, a, _call("/", 1.0 / b[0], b))
    if isinstance(e.right, Const):
        c = e.right.value
        return _chain(value, c * _apply_binop("^", a[0], c - 1.0),
                      c * (c - 1.0) * _apply_binop("^", a[0], c - 2.0), a)
    # f^g with non-constant exponent, differentiated as exp(g*log f)
    log_a = _call("log", _apply_call("log", a[0]), a)
    return _call("exp", value, _product(b[0] * log_a[0], b, log_a))


def jets(exprs, coordinates, point):
    """Values, gradients and Hessians of ``exprs`` at ``point``, as arrays
    of shape (m,), (m, n) and (m, n, n) for m expressions in n coordinates.

    Exact second-order Taylor coefficients are pushed forward through each
    tree once (Griewank & Walther, Evaluating Derivatives, 2nd ed., ch. 13),
    memoised on node identity within the call.  Equal subtrees built by the
    parser and the constructors are one node, so each distinct subtree is
    evaluated once, however many entries repeat it.  Node values go through
    the same domain checks as ``evaluate``.  A subtree without symbols, told
    by the shared zero gradient of its operands, has the exact jet (value,
    0, 0), and dividing by it scales the jet: an infinite constant gives no
    NaN.
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
            out = (-v, g, h) if g is zero1 else (-v, -g, -h)
        elif isinstance(e, Call):
            u = jet(e.arg)
            value = _apply_call(e.fn, u[0])
            out = (value, zero1, zero2) if u[1] is zero1 else _call(e.fn, value, u)
        elif isinstance(e, BinOp):
            a, b = jet(e.left), jet(e.right)
            value = _apply_binop(e.op, a[0], b[0])
            if a[1] is zero1 and b[1] is zero1:
                out = (value, zero1, zero2)
            elif e.op == "/" and b[1] is zero1:  # 1/b, not the chain rule's 1/b^2
                out = (value, a[1] * (1.0 / b[0]), a[2] * (1.0 / b[0]))
            else:
                out = _binop_jet(e, value, a, b)
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
        if math.isinf(v):  # parse reads an out-of-range literal as inf
            return "1e400" if v > 0 else "-1e400"
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
