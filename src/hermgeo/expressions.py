"""Closed-form scalar expressions: parsing, exact differentiation, evaluation,
and second- and third-order jets.

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
one object, and ``jets`` evaluates each distinct subtree once per call.
Only constant folding is performed, and only to finite values; no canonical
simplification.

``jets`` gives the values, gradients and Hessians of expressions at a stack
of points, and at order 3 their third derivatives, one numpy operation per
level of the DAG and kind of node; it is how every derivative of chart and
immersion data at a point is computed.  ``differentiate`` builds a
derivative as a new tree, for callers that need the derivative itself as an
expression.  The two share one set of elementary rules: ``jets`` evaluates,
for each function f, the trees ``differentiate`` builds for f'(t), f''(t)
and, at order 3 only, f'''(t).  tanh' is 1 - tanh^2, which stays finite
where cosh^2 overflows.
"""

import collections
import dataclasses
import functools
import math
import re
import weakref

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
    """Base class of expression nodes.  Nodes are unhashable: the intern
    tables key them by id.  ``==``, ``repr`` and ``str`` are structural and
    run one loop, so depth costs no stack."""

    def __eq__(self, other):
        """Structural equality, one loop over node pairs: a node shared by both
        trees and a pair met before are skipped, so a DAG is not walked path
        by path, and the first pair whose types or fields differ decides."""
        if not isinstance(other, Expr):
            return NotImplemented
        pairs, seen = [(self, other)], set()
        while pairs:
            a, b = pairs.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if type(a) is not type(b):
                return False
            for field in dataclasses.fields(a):
                x, y = getattr(a, field.name), getattr(b, field.name)
                if isinstance(x, Expr):
                    pairs.append((x, y))
                elif not (x is y or x == y):  # as tuples compare: nan is itself
                    return False
        return True

    def __repr__(self):
        return _text(self, _fields)

    def __str__(self):
        return to_string(self)


def _node(cls):
    """``cls`` as a frozen dataclass with Expr's equality and repr."""
    return dataclasses.dataclass(frozen=True, eq=False, repr=False)(cls)


@_node
class Const(Expr):
    value: float


@_node
class Sym(Expr):
    name: str


@_node
class Neg(Expr):
    arg: Expr


@_node
class Call(Expr):
    fn: str
    arg: Expr


@_node
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

    def factor():  # "a ^ -b ^ c" is a^(-(b^c)): a chain folds from the right, in a loop
        nonlocal i
        negate = tokens[i][1] == "-"
        i += negate
        node = atom()
        if tokens[i][1] != "^":
            return neg(node) if negate else node
        links = [(negate, node)]  # (negate, base) of each link
        while tokens[i][1] == "^":
            negate = tokens[i + 1][1] == "-"
            i += 1 + negate
            links.append((negate, atom()))
        node = None
        for negate, base in reversed(links):
            node = base if node is None else pow_(base, node)
            node = neg(node) if negate else node
        return node

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

    node = expr()
    if tokens[i][0] != "end":
        raise ParseError(f"unexpected token {tokens[i][1]!r}", tokens[i][2])
    _TEXTS[text, names] = node
    return node


# ---------------------------------------------------------------------------
# walking the DAG

def _walk(roots, rule):
    """{id(node): rule(node, out)} for the distinct nodes reachable from ``roots``,
    ``out`` holding the results so far, each node after its children, left first
    (as a memoised recursion finishes them); a loop, so depth costs no stack."""
    out, todo, entered = {}, list(reversed(roots)), []
    while todo:
        e = todo.pop()
        if e is None:  # the children of the node entered last are done
            e = entered.pop()
            out[id(e)] = rule(e, out)
        elif id(e) not in out:
            if isinstance(e, BinOp):
                todo += None, e.right, e.left
            elif isinstance(e, (Neg, Call)):
                todo += None, e.arg
            elif isinstance(e, (Const, Sym)):
                out[id(e)] = rule(e, out)
                continue
            else:
                raise TypeError(f"not an Expr: {e!r}")
            entered.append(e)
    return out


# ---------------------------------------------------------------------------
# differentiation

def differentiate(e, sym):
    """Exact partial derivative of ``e`` with respect to coordinate ``sym``."""
    return gradients([e], [sym])[0][0]


def gradients(exprs, coordinates):
    """[[d e/d c for c in coordinates] for e in exprs], exact, as trees from
    one walk: each distinct subtree is differentiated once."""
    def rule(e, out):
        if isinstance(e, BinOp):
            kids = out[id(e.left)], out[id(e.right)]
        else:
            kids = (out[id(e.arg)],) if isinstance(e, (Neg, Call)) else (coordinates,)
        return tuple(map(functools.partial(_derivative, e), *kids))

    out = _walk(exprs, rule)
    return [list(out[id(e)]) for e in exprs]


def _derivative(e, da, db=None):
    """The derivative of the node ``e`` from the derivatives of its children,
    ``da`` of its argument or left operand and ``db`` of its right operand, or
    of the leaf ``e`` with respect to the coordinate ``da``."""
    if isinstance(e, Const):
        return const(0.0)
    if isinstance(e, Sym):
        return const(1.0 if e.name == da else 0.0)
    if isinstance(e, Neg):
        return neg(da)
    if isinstance(e, Call):
        return mul(_chain_factor(e.fn, e.arg), da)
    a, b = e.left, e.right
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


def values(exprs, bindings):
    """``[evaluate(e, bindings) for e in exprs]`` from one walk, which raises
    the error ``evaluate`` would raise first, for trees of any depth."""
    def rule(e, out):
        if isinstance(e, BinOp):
            return _apply_binop(e.op, out[id(e.left)], out[id(e.right)])
        if isinstance(e, Call):
            return _apply_call(e.fn, out[id(e.arg)])
        return -out[id(e.arg)] if isinstance(e, Neg) else evaluate(e, bindings)

    out = _walk(exprs, rule)
    return [out[id(e)] for e in exprs]


# ---------------------------------------------------------------------------
# second- and third-order jets

def _derivatives(f):
    """(f', f'', f''') of the function ``f`` of t, as trees."""
    f1 = differentiate(f, "t")
    f2 = differentiate(f1, "t")
    return f1, f2, differentiate(f2, "t")


# (f', f'', f''') of each function and of the reciprocal "/" (1/t): jets
# evaluate differentiate's own trees, so their floats and DomainErrors agree
# with it.
_CHAIN = {fn: _derivatives(call(fn, symbol("t"))) for fn in FUNCTIONS}
_CHAIN["/"] = _derivatives(div(const(1.0), symbol("t")))


def _factors(fn, t, order):
    """The first ``order`` derivatives of ``fn``, a key of _CHAIN, at t, from
    its derivative trees, lowest first."""
    bindings = {"t": t}
    return [evaluate(d, bindings) for d in _CHAIN[fn][:order]]


def _sym3(s):
    """s[a,b,c] + s[a,c,b] + s[b,c,a] for a stack s (G, n, n, n, P) symmetric
    in a and b: the three placements of one term of a third derivative."""
    return s + s.transpose(0, 1, 3, 2, 4) + s.transpose(0, 3, 1, 2, 4)


def _chain(u, n, value, f1, f2, f3=None):
    """Jets (G, size, P) of f(u) for a group of G nodes, from the jets of u
    and each node's and point's value of f and its derivatives at u (G, P),
    f''' for third-order jets only (Faa di Bruno's formula)."""
    o3 = 1 + n + n * n
    out, g = f1[:, None] * u, u[:, 1:n + 1]
    h, gg = out[:, n + 1:o3].reshape(len(out), n, n, -1), g[:, :, None] * g[:, None]
    h += f2[:, None, None] * gg
    if f3 is not None:
        t, g = out[:, o3:].reshape(len(out), n, n, n, -1), g[:, None, None]
        t += f2[:, None, None, None] * _sym3(u[:, n + 1:o3].reshape(len(out), n, n, 1, -1) * g)
        t += f3[:, None, None, None] * (gg[:, :, :, None] * g)
    out[:, 0] = value
    return out


def _product(value, a, b, n):
    """Jets of a*b for a group, given their values."""
    o3 = 1 + n + n * n
    out, cross = a[:, :1] * b, a[:, 1:n + 1, None] * b[:, None, 1:n + 1]
    out += b[:, :1] * a
    h = out[:, n + 1:o3].reshape(len(out), n, n, -1)
    h += cross
    h += cross.transpose(0, 2, 1, 3)
    if out.shape[1] > o3:  # the six terms a'' b' and a' b'' of the Leibniz sum
        t = out[:, o3:].reshape(len(out), n, n, n, -1)
        a2, b2 = (c[:, n + 1:o3].reshape(len(out), n, n, 1, -1) for c in (a, b))
        t += _sym3(a2 * b[:, None, None, 1:n + 1] + b2 * a[:, None, None, 1:n + 1])
    out[:, 0] = value
    return out


def first_bad_point(step, points):
    """``step(points)`` on a stack (P, n).  If it fails, ``step`` runs on each
    point alone, in order, so the first bad point names the error."""
    try:
        return step(points)
    except (DomainError, ValueError):
        for x in points:
            step(x)
        raise


def jets(exprs, coordinates, points, order=2):
    """Values, gradients and Hessians of ``exprs`` at ``points``, a stack
    (P, n) or one point (n,), as arrays (P, m), (P, m, n) and (P, m, n, n)
    for m expressions in n coordinates (no P axis for one point); at
    ``order`` 3 also the third derivatives (P, m, n, n, n).

    Exact Taylor coefficients of order 2 or 3 are pushed forward through each
    distinct subtree once for all points (Griewank & Walther, Evaluating
    Derivatives, 2nd ed., ch. 13).  One ``_walk`` files each node under its
    level (one more than its deepest child's) and kind; level by level, each
    group takes one numpy operation per step of its rule on one buffer
    (nodes, 1 + n + n^2 [+ n^3], P).  ``+ - * /`` round in numpy as Python
    floats do, and function values, powers and the chain factors
    (``differentiate``'s trees for f', f'', and f''' at order 3 only) go
    point by point through ``math``: each point gets the floats it gets
    alone, and orders 0 to 2 of an order-3 jet are the order-2 jet's bits.
    A DomainError is kept at its point and node, which then carries NaN.
    The first point with an error or a non-finite value or derivative names
    the error, the one it meets first in post-order alone.  A subtree free
    of symbols has the exact jet (value, 0, 0[, 0]); dividing by it scales
    the jet, so an infinite one gives no NaN.
    """
    points = np.asarray(points, dtype=float)
    n = len(coordinates)
    stack = points.reshape(-1, n)
    P, size = len(stack), 1 + n + n * n + n ** 3 * (order == 3)
    seeds = {c: i for i, c in enumerate(coordinates)}
    # post-order (node, left or only child row, right child row); (level,
    # kind) -> rows; denominator row -> row of its reciprocal's jet, just
    # before its first quotient's row, so its errors rank as that quotient's
    nodes, groups, recips = [], collections.defaultdict(list), {}
    failures = []  # (point, row, error)

    def schedule(e, out):  # (row, level, free of symbols), filed under (level, kind)
        row = len(nodes)
        if isinstance(e, BinOp):
            op, (ra, la, free), (rb, lb, flag) = e.op, out[id(e.left)], out[id(e.right)]
            if op == "/" and not flag and rb not in recips:  # 1/b, run before its quotients
                groups[lb + 0.5, "1/", False, False].append(row)
                recips[rb], row = row, row + 1
                nodes.append((e.right, rb, None))
            free = free and flag
            # the variant: a free denominator, or a constant exponent
            variant = flag if op == "/" else op == "^" and isinstance(e.right, Const)
            key = (la if la > lb else lb) + 1, op, free, variant
        elif isinstance(e, (Neg, Call)):
            (ra, level, free), rb = out[id(e.arg)], None
            key = level + 1, type(e).__name__, free, False
        else:
            ra, rb, free = None, None, isinstance(e, Const)
            key = 0, type(e).__name__, free, False
        groups[key].append(row)
        nodes.append((e, ra, rb))
        return row, key[0], free

    def take(rows):  # the jets (G, size, P) of the rows, a view for one row
        return J[rows[0]:rows[0] + 1] if len(rows) == 1 else J.take(rows, axis=0)

    def each(width, f, rows, *columns):  # f(node, *floats) -> width floats, as (width, G, P)
        out = []
        for row, *args in zip(rows, *[c.tolist() for c in columns]):
            for p, xs in enumerate(zip(*args)):
                try:
                    out.append(f(nodes[row][0], *xs))
                except DomainError as exc:
                    failures.append((p, row, exc))
                    out.append((math.nan,) * width)
        return np.array(out).reshape(len(rows), P, width).transpose(2, 0, 1)

    def power(e, x):  # x^c and its first ``order`` derivatives for the constant c
        c = e.right.value
        out = (_apply_binop("^", x, c), c * _apply_binop("^", x, c - 1.0),
               c * (c - 1.0) * _apply_binop("^", x, c - 2.0))
        if order == 2:
            return out
        d3 = c * (c - 1.0) * (c - 2.0)  # 0 for x^2, defined at x = 0
        return (*out, d3 * _apply_binop("^", x, c - 3.0) if d3 else 0.0)

    scheduled = _walk(exprs, schedule)
    J = np.zeros((len(nodes), size, P))
    with np.errstate(all="ignore"):  # a non-finite result raises DomainError below
        for (_, op, free, variant), rows in sorted(groups.items(), key=lambda g: g[0][0]):
            at = slice(rows[0], rows[0] + 1) if len(rows) == 1 else rows  # a view for one row
            left, right = [nodes[r][1] for r in rows], [nodes[r][2] for r in rows]
            a, b = left[0] is not None and take(left), right[0] is not None and take(right)
            if op == "Const":
                J[at, 0] = [[nodes[r][0].value] for r in rows]
            elif op == "Sym":  # the seeds (x_i, e_i, 0)
                for r in rows:
                    if (i := seeds.get(nodes[r][0].name)) is not None:
                        J[r, 0], J[r, 1 + i] = stack[:, i], 1.0
                    else:  # an error at every point
                        exc = MissingBindingError(f"no binding for {nodes[r][0].name!r}")
                        failures += [(p, r, exc) for p in range(P)]
            elif op == "Neg":
                if free:
                    J[at, 0] = -a[:, 0]
                else:
                    J[at] = -a
            elif op == "Call":
                f = each(1 if free else 1 + order, lambda e, x: (_apply_call(e.fn, x), *(
                    () if free else _factors(e.fn, x, order))), rows, a[:, 0])
                if free:
                    J[at, 0] = f[0]
                else:
                    J[at] = _chain(a, n, *f)
            elif op == "1/":
                f = each(order, lambda e, t: _factors("/", t, order), rows, a[:, 0])
                J[at] = _chain(a, n, 1.0 / a[:, 0], *f)
            elif op in "+-":
                J[at] = a + b if op == "+" else a - b
            elif op == "^" and not free and variant:
                J[at] = _chain(a, n, *each(1 + order, power, rows, a[:, 0]))
            else:
                if op == "/" and not b[:, 0].all():
                    failures += [(p, rows[g], DomainError("division by zero"))
                                 for g, p in zip(*np.nonzero(b[:, 0] == 0.0))]
                value = (a[:, 0] * b[:, 0] if op == "*" else a[:, 0] / b[:, 0] if op == "/" else
                         each(1, lambda e, x, y: (_apply_binop("^", x, y),),
                              rows, a[:, 0], b[:, 0])[0])
                if free:
                    J[at, 0] = value
                elif op == "*":
                    J[at] = _product(value, a, b, n)
                elif op == "/" and variant:
                    J[at] = a * (1.0 / b[:, :1])  # 1/b, not the chain rule's 1/b^2
                    J[at, 0] = value
                elif op == "/":  # times the jet of 1/b
                    J[at] = _product(value, a, take([recips[k] for k in right]), n)
                else:  # f^g with non-constant exponent, differentiated as exp(g*log f)
                    f = each(1 + order, lambda e, x: (_apply_call("log", x),
                                                      *_factors("log", x, order)), rows, a[:, 0])
                    log_a = _chain(a, n, *f)
                    t = b[:, 0] * log_a[:, 0]
                    J[at] = _chain(_product(t, b, log_a, n), n, value,
                                   *each(order, lambda e, x: _factors("exp", x, order), rows, t))
    jet = take([scheduled[id(e)][0] for e in exprs]).transpose(2, 0, 1)  # (P, m, size)
    if failures or not np.isfinite(jet).all():
        bad = np.flatnonzero(~np.isfinite(jet).all(axis=(1, 2))).tolist()
        p = min([q for q, _, _ in failures] + bad)
        if errors := [(row, exc) for q, row, exc in failures if q == p]:
            raise min(errors, key=lambda f: f[0])[1]
        raise DomainError(f"a value or derivative is not finite at {stack[p].tolist()}")
    lead, o3 = points.shape[:-1] + (len(exprs),), 1 + n + n * n
    parts = [(0, ()), (slice(1, n + 1), (n,)), (slice(n + 1, o3), (n, n)),
             (slice(o3, None), (n, n, n))][:order + 1]
    return tuple(np.ascontiguousarray(jet[..., part]).reshape(lead + shape)
                 for part, shape in parts)


def substitute(e, mapping):
    """Replace coordinate symbols by expressions (used for pullbacks)."""
    def rule(node, out):
        if isinstance(node, BinOp):
            ctor = {"+": add, "-": sub, "*": mul, "/": div, "^": pow_}[node.op]
            return ctor(out[id(node.left)], out[id(node.right)])
        if isinstance(node, Call):
            return call(node.fn, out[id(node.arg)])
        if isinstance(node, Neg):
            return neg(out[id(node.arg)])
        return mapping.get(node.name, node) if isinstance(node, Sym) else node

    return _walk([e], rule)[id(e)]


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


def to_string(e):
    """Render ``e`` so that parse(to_string(e)) reproduces the same tree."""
    return _text(e, _string)


def _text(e, parts):
    """The text of ``e`` from ``parts(node)``, the node's strings and children
    in printing order, joined from one list filled in one loop: memory in the
    length of the text, and no stack."""
    out, todo = [], [e]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            todo += reversed(parts(item))
    return "".join(out)


def _fields(e):  # the dataclass repr, Name(field=value, ...)
    parts = [f"{type(e).__name__}("]
    for i, field in enumerate(dataclasses.fields(e)):
        value = getattr(e, field.name)
        parts += [", " * (i > 0) + field.name + "=",
                  value if isinstance(value, Expr) else repr(value)]
    return parts + [")"]


def _string(e):
    def wrap(child, minimum):
        return ["(", child, ")"] if _prec(child) < minimum else [child]

    if isinstance(e, Const):
        v = e.value
        if math.isinf(v):  # parse reads an out-of-range literal as inf
            return ["1e400" if v > 0 else "-1e400"]
        if v == math.floor(v) and abs(v) < 1e16:
            return [str(int(v))]
        return [repr(v)]
    if isinstance(e, Sym):
        return [e.name]
    if isinstance(e, Neg):
        return ["-", *wrap(e.arg, 3)]
    if isinstance(e, Call):
        return [f"{e.fn}(", e.arg, ")"]
    if e.op in "+-":
        return [*wrap(e.left, 1), f" {e.op} ", *wrap(e.right, 2)]
    if e.op in "*/":
        return [*wrap(e.left, 2), e.op, *wrap(e.right, 2.5)]
    # ^ : left must be an atom, right a factor
    return [*wrap(e.left, 4), "^", *wrap(e.right, 2.5)]
