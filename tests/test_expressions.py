import importlib
import math
import os
import time
import tracemalloc

import numpy as np
import pytest

from conftest import with_headroom
from hermgeo import cli, models, reportio
from hermgeo import expressions as ex


def test_parse_basic_shape():
    e = ex.parse("x^2 + sin(y)", ["x", "y"])
    assert e == ex.BinOp("+", ex.BinOp("^", ex.Sym("x"), ex.Const(2.0)),
                         ex.Call("sin", ex.Sym("y")))


def test_parse_syntax_error_position():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("(", ["x"])
    assert err.value.position == 1


def test_parse_unknown_identifier():
    with pytest.raises(ex.ParseError, match="unknown identifier 'q'"):
        ex.parse("q + 1", ["x"])


def test_parse_unknown_function():
    with pytest.raises(ex.ParseError, match="unknown function"):
        ex.parse("foo(x)", ["x"])


def test_no_implicit_multiplication():
    with pytest.raises(ex.ParseError):
        ex.parse("2x", ["x"])


PARSE_ERRORS = [
    ("", "unexpected end of input", 0),
    ("   ", "unexpected end of input", 3),
    ("x +", "unexpected end of input", 3),
    ("x^", "unexpected end of input", 2),
    ("x)", "unexpected token ')'", 1),
    ("()", "unexpected token ')'", 1),
    ("1 2", "unexpected token '2'", 2),
    ("2x", "unexpected token 'x'", 1),
    ("1e", "unexpected token 'e'", 1),
    ("--x", "unexpected token '-'", 1),
    ("x^--y", "unexpected token '-'", 3),
    ("x @ y", "unexpected character '@'", 2),
    ("sin x", "unknown identifier 'sin'", 0),
    ("foo(x)", "unknown function 'foo'", 0),
    ("sin(x", "expected ')'", 5),
]


@pytest.mark.parametrize("text, message, position", PARSE_ERRORS)
def test_parse_errors_name_the_failing_position(text, message, position):
    with pytest.raises(ex.ParseError) as err:
        ex.parse(text, ["x", "y"])
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def _outcome(text, coords, table):
    """The tree ``text`` parses to with ``table`` as the text table, or the
    error it raises; its nodes are interned in the open scope's node table,
    and outside any scope not at all."""
    saved, ex._TEXTS = ex._TEXTS, table
    try:
        return ex.parse(text, coords)
    except ex.ParseError as exc:
        return str(exc), exc.position
    finally:
        ex._TEXTS = saved


def _warm_table(*texts, coords=("x", "y")):
    """A text table holding every group of ``texts``, and their trees."""
    table = {}
    return table, [_outcome(t, coords, table) for t in texts]


@pytest.mark.parametrize("text, message, position", PARSE_ERRORS)
def test_known_groups_keep_every_parse_error(text, message, position):
    # a group already parsed becomes one token; the error a text raises, and
    # where, must not depend on whether its groups are known
    table, held = _warm_table("(x + 1)")
    prefix = "(x + 1)*"
    cold = _outcome(prefix + text, ["x", "y"], {})
    assert cold == (f"{message} (at position {position + len(prefix)})", position + len(prefix))
    assert _outcome(prefix + text, ["x", "y"], table) == cold
    inside = text.replace("x", "(x + 1)")
    assert _outcome(inside, ["x", "y"], table) == \
        _outcome(inside, ["x", "y"], {})


def test_known_group_is_neither_served_unclosed_nor_past_an_unknown_function():
    table, held = _warm_table("(x + 1)", "sin(x + 1)")
    assert _outcome("(x + 1", ["x", "y"], table) == ("expected ')' (at position 6)", 6)
    assert _outcome("foo(x + 1)", ["x", "y"], table) == \
        ("unknown function 'foo' (at position 0)", 0)
    assert _outcome("cos(x + 1)", ["x", "y"], table) == \
        ex.call("cos", ex.add(ex.symbol("x"), ex.const(1.0)))


def test_known_group_is_not_parsed_again(monkeypatch):
    table, held = _warm_table("(x + 1)")
    built = []
    monkeypatch.setattr(ex, "symbol", lambda name: built.append(name) or ex.Sym(name))
    assert _outcome("2*(x + 1) - y", ["x", "y"], table) == \
        ex.sub(ex.mul(ex.const(2.0), held[0]), ex.Sym("y"))
    assert built == ["y"]


def test_known_group_serves_only_its_own_names():
    table, held = _warm_table("(x + 1)", coords=["x"])
    for text in ("(x + 1)", "2*(x + 1)", "sin(x + 1)"):
        assert _outcome(text, ["y"], table) == ("unknown identifier 'x' (at position "
                                                f"{text.index('x')})", text.index("x"))


X, Y, Z = ex.Sym("x"), ex.Sym("y"), ex.Sym("z")


@pytest.mark.parametrize("text, coords, tree", [
    ("-x^2", ["x"], ex.Neg(ex.BinOp("^", X, ex.Const(2.0)))),
    ("-x*y", ["x", "y"], ex.BinOp("*", ex.Neg(X), Y)),
    ("2*-x", ["x"], ex.BinOp("*", ex.Const(2.0), ex.Neg(X))),
    ("x^-2", ["x"], ex.BinOp("^", X, ex.Const(-2.0))),
    ("2^3^2", [], ex.Const(512.0)),
    ("x^y^z", ["x", "y", "z"], ex.BinOp("^", X, ex.BinOp("^", Y, Z))),
    ("x - y - z", ["x", "y", "z"], ex.BinOp("-", ex.BinOp("-", X, Y), Z)),
    ("x/y/z", ["x", "y", "z"], ex.BinOp("/", ex.BinOp("/", X, Y), Z)),
    ("pi", ["pi"], ex.Sym("pi")),
    ("pi", [], ex.Const(math.pi)),
    ("sin(x)", ["sin", "x"], ex.Call("sin", X)),
    ("sin", ["sin", "x"], ex.Sym("sin")),
    (" x\t+\ny ", ["x", "y"], ex.BinOp("+", X, Y)),
    (".5 + 3.", [], ex.Const(3.5)),
])
def test_parse_grammar_shapes(text, coords, tree):
    assert ex.parse(text, coords) == tree


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ex.ParseError, match="nested too deeply"):
        ex.parse("(" * 2000 + "x" + ")" * 2000, ["x"])


def test_nesting_limit_depends_on_the_text_alone():
    # the limit comes from counting parentheses, not from the parser's stack,
    # so a held group that is nested deep inside does not lift it
    deepest = "(" * ex.MAX_NESTING + "x" + ")" * ex.MAX_NESTING
    table, held = _warm_table(deepest, coords=["x"])
    assert held == [ex.symbol("x")]
    for text, position in [("(" + deepest + ")", ex.MAX_NESTING),
                           ("(" * 200 + "x" + ")" * 200, ex.MAX_NESTING),
                           ("x + sin(" + deepest + ")", 7 + ex.MAX_NESTING),
                           ("sin(" * 300 + "x" + ")" * 300, 4 * ex.MAX_NESTING + 3)]:
        want = (f"expression nested too deeply (at position {position})", position)
        assert _outcome(text, ["x"], {}) == want
        assert _outcome(text, ["x"], table) == want
    # a bad character is still reported first
    assert _outcome("(" * 200 + "x @" + ")" * 200, ["x"], table) == \
        ("unexpected character '@' (at position 202)", 202)


def test_parse_stack_use_is_bounded_by_the_text():
    # a sum or a ^ chain folds in a loop, so only parentheses take frames:
    # the deepest calls MAX_NESTING allows parse with 600 frames left
    n = ex.MAX_NESTING
    for text, down, steps in [("sin(" * n + "x" + ")" * n, "arg", n),
                              ("^".join(["x"] * 5000), "right", 4999),
                              (" + ".join(["x"] * 5000), "left", 4999)]:
        node = with_headroom(600, lambda: _outcome(text, ["x"], {}))
        for _ in range(steps):
            node = getattr(node, down)
        assert node == ex.symbol("x")


@pytest.mark.parametrize("text", ["1e308*10", "1e308+1e308", "4/1e-320", "log(1e400)",
                                  "(1e308*10)-(1e308*10)"])
def test_folding_keeps_only_nan_unfolded(text):
    with ex.interning():
        e = ex.parse(text, [])
        if math.isnan(ex.evaluate(e, {})):
            assert isinstance(e, ex.BinOp)
        else:  # a call and a binary operation fold to the same constant
            assert e is ex.const(math.inf)
        assert ex.parse(ex.to_string(e), []) == e


@pytest.mark.parametrize("text", ["1e400", "-1e400", "x*1e400", "tanh(1e400 + 7)",
                                  "(-1e400)^x"])
def test_infinite_constants_print_and_parse_back(text):
    e = ex.parse(text, ["x"])
    assert ex.parse(ex.to_string(e), ["x"]) == e
    assert ex.parse(str(e), ["x"]) == e


def test_constants():
    assert ex.evaluate(ex.parse("pi", []), {}) == pytest.approx(math.pi)
    assert ex.evaluate(ex.parse("e", []), {}) == pytest.approx(math.e)


def test_precedence_and_unary_minus():
    e = ex.parse("-x^2", ["x"])
    assert ex.evaluate(e, {"x": 3.0}) == -9.0
    assert ex.evaluate(ex.parse("2*x^2", ["x"]), {"x": 3.0}) == 18.0
    assert ex.evaluate(ex.parse("2^3^2", ["x"]), {}) == 512.0  # right associative


def test_diff_power():
    e = ex.parse("x^2", ["x"])
    assert ex.evaluate(ex.differentiate(e, "x"), {"x": 5.0}) == 10.0


def test_diff_independent_symbol():
    e = ex.parse("sin(y)", ["x", "y"])
    assert ex.differentiate(e, "x") == ex.Const(0.0)


def test_diff_trig_product():
    e = ex.parse("-sin(t)*cos(t)", ["t"])
    t = math.pi / 4
    assert ex.evaluate(e, {"t": t}) == pytest.approx(-0.5)
    assert ex.evaluate(ex.differentiate(e, "t"), {"t": t}) == pytest.approx(
        -math.cos(math.pi / 2), abs=1e-12)


def test_diff_general_power():
    # f^g with non-constant exponent via exp/log rewrite
    e = ex.parse("(1 + x^2)^(x)", ["x"])
    x0 = 0.7
    h = 1e-6
    fd = (ex.evaluate(e, {"x": x0 + h}) - ex.evaluate(e, {"x": x0 - h})) / (2 * h)
    assert ex.evaluate(ex.differentiate(e, "x"), {"x": x0}) == pytest.approx(fd, rel=1e-8)


@pytest.mark.parametrize("base", ["u", "1 + u*v"])
def test_diff_power_tower_reuses_operand_derivatives(base):
    # f^g with a non-constant exponent: the tree differentiating exp(g*log f)
    # gives, built from f' and g' without differentiating them again
    f = ex.parse(base, ["u", "v"])
    tower = f
    for _ in range(2, 11):
        tower = ex.pow_(f, tower)
        rewritten = ex.call("exp", ex.mul(tower.right, ex.call("log", tower.left)))
        for sym in ("u", "v"):
            assert repr(ex.differentiate(tower, sym)) == repr(ex.differentiate(rewritten, sym))
    for _ in range(90):
        tower = ex.pow_(f, tower)
    start = time.perf_counter()
    ex.differentiate(tower, "u")  # 100 levels
    assert time.perf_counter() - start < 1.0


def test_tree_passes_take_time_linear_in_the_dag():
    # 18 levels of e*(e + 1): 37 distinct nodes, but 2^18 paths to x
    x = ex.symbol("x")
    e = x
    for _ in range(18):
        e = ex.mul(e, ex.add(e, ex.const(1.0)))
    for run in (lambda: ex.differentiate(e, "x"), lambda: ex.substitute(e, {"x": ex.neg(x)})):
        start = time.perf_counter()
        run()
        assert time.perf_counter() - start < 0.1


def _raw_sum(count, last="x"):
    """x + 1 + 2 + ... + last, a left-nested sum of ``count`` terms built from
    the raw node classes, so two of them share no node."""
    e = ex.Sym("x")
    for i in range(1, count - 1):
        e = ex.BinOp("+", e, ex.Const(float(i)))
    return ex.BinOp("+", e, ex.Sym(last))


def test_equality_takes_no_stack_and_follows_nodes_not_paths():
    a, b, c = _raw_sum(3000), _raw_sum(3000), _raw_sum(3000, "y")
    assert a == b and not a != b
    assert a != c and not a == c
    # unshared copies of the 18-level DAG e*(e + 1): 37 nodes, 2^18 paths
    copies = []
    for _ in range(2):
        e = ex.Sym("e")
        for _ in range(18):
            e = ex.BinOp("*", e, ex.BinOp("+", e, ex.Const(1.0)))
        copies.append(e)
    start = time.perf_counter()
    assert copies[0] == copies[1] and copies[0] is not copies[1]
    assert time.perf_counter() - start < 0.05
    assert ex.Const(float("nan")) != ex.Const(float("nan")) and ex.Sym("x") != "x"


def _long_sum():
    """x + 2*x + ... + 5000*x, parsed: a left-nested sum 5,000 terms deep."""
    return ex.parse(" + ".join(f"{i}*x" for i in range(1, 5001)), ["x"])


def test_repr_takes_no_stack_and_ignores_sharing():
    long_sum = _long_sum()
    text = repr(long_sum)
    assert text.startswith("BinOp(op='+', left=BinOp(op='+', left=BinOp(op='+', left=")
    assert text.endswith(", right=BinOp(op='*', left=Const(value=5000.0), right=Sym(name='x')))")
    # equal trees print alike, whether or not they share nodes
    for depth in (0, 1, 6):
        small = ex.symbol("x")
        for _ in range(depth):
            small = ex.mul(small, ex.add(ex.call("sin", small), ex.neg(ex.symbol("y"))))
        assert repr(_unshared(small)) == repr(small)
    # the intern tables key nodes by id; a node itself has no hash
    with pytest.raises(TypeError):
        hash(long_sum)


def test_printing_a_long_sum_takes_memory_in_its_length():
    with ex.interning():
        long_sum = _long_sum()
        tracemalloc.start()
        try:
            text = ex.to_string(long_sum)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.startswith("x + 2*x + 3*x") and text.endswith(" + 5000*x")
        assert ex.parse(text, ["x"]) is long_sum
    assert peak < 4e6  # a table of every prefix's text held about 100 MB


def test_gradients_are_the_derivatives_of_each_entry(tmp_path, monkeypatch):
    # one walk over all the trees builds what differentiate builds per entry
    s6 = models.instantiate("s6_nearly_kahler")
    sphere_file = _workloads(monkeypatch)._sub_files(str(tmp_path))["chart"]
    _, sphere = reportio.load_manifold_file(sphere_file)
    for exprs, coords in [(s6.embedding.map_exprs, s6.coordinates),
                          (sphere.map_exprs, sphere.coordinates)]:
        want = [[ex.differentiate(e, c) for c in coords] for e in exprs]
        assert repr(ex.gradients(exprs, coords)) == repr(want)


def test_evaluate_examples():
    assert ex.evaluate(ex.parse("x*y", ["x", "y"]), {"x": 2, "y": 3}) == 6.0
    assert ex.evaluate(ex.parse("exp(2*x)", ["x"]), {"x": 0.5}) == pytest.approx(math.e)
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("log(x)", ["x"]), {"x": 0.0})
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("1/x", ["x"]), {"x": 0.0})
    with pytest.raises(ex.MissingBindingError):
        ex.evaluate(ex.parse("x + y", ["x", "y"]), {"x": 1.0})


def _random_expr(rng, coords, depth):
    if depth == 0 or rng.uniform() < 0.3:
        if rng.uniform() < 0.5:
            return ex.Const(round(rng.uniform(-2, 2), 3))
        return ex.Sym(coords[rng.integers(len(coords))])
    choice = rng.uniform()
    if choice < 0.55:
        ctor = [ex.add, ex.sub, ex.mul, ex.div][rng.integers(4)]
        return ctor(_random_expr(rng, coords, depth - 1),
                    _random_expr(rng, coords, depth - 1))
    if choice < 0.7:
        return ex.pow_(_random_expr(rng, coords, depth - 1),
                       ex.Const(float(rng.integers(1, 4))))
    fn = sorted(ex.FUNCTIONS)[rng.integers(len(ex.FUNCTIONS))]
    return ex.call(fn, _random_expr(rng, coords, depth - 1))


def _rules(e):
    """Names of the functions in ``e`` and "/" if it divides: the elementary
    rules that differentiating ``e`` uses."""
    if isinstance(e, ex.Call):
        return {e.fn} | _rules(e.arg)
    if isinstance(e, ex.BinOp):
        return ({"/"} if e.op == "/" else set()) | _rules(e.left) | _rules(e.right)
    if isinstance(e, ex.Neg):
        return _rules(e.arg)
    return set()


def test_derivative_matches_finite_differences(rng):
    # checks the elementary rules themselves: the first derivative against
    # central differences of values, the second against those of the first
    coords = ["x", "y", "z"]
    checked, rules = 0, set()
    for _ in range(400):
        e = _random_expr(rng, coords, 4)
        sym = coords[rng.integers(3)]
        point = {c: float(rng.uniform(-1, 1)) for c in coords}
        h = 1e-5
        up = dict(point, **{sym: point[sym] + h})
        dn = dict(point, **{sym: point[sym] - h})
        d1 = ex.differentiate(e, sym)
        try:
            value, d = ex.evaluate(e, point), ex.evaluate(d1, point)
            d2 = ex.evaluate(ex.differentiate(d1, sym), point)
            fd = (ex.evaluate(e, up) - ex.evaluate(e, dn)) / (2 * h)
            fd2 = (ex.evaluate(d1, up) - ex.evaluate(d1, dn)) / (2 * h)
        except ex.ExprError:
            continue
        if max(abs(value), abs(d), abs(d2)) > 1e3:
            continue
        assert abs(d - fd) <= 1e-7 * (1 + abs(value) + abs(d)), str(e)
        assert abs(d2 - fd2) <= 1e-7 * (1 + abs(d) + abs(d2)), str(e)
        checked += 1
        rules |= _rules(e)
    assert checked > 250
    assert rules == set(ex.FUNCTIONS) | {"/"}


def test_print_parse_roundtrip_is_fixed_point(rng):
    coords = ["x", "y", "z"]
    for _ in range(200):
        e = _random_expr(rng, coords, 4)
        text = ex.to_string(e)
        again = ex.parse(text, coords)
        assert again == e, f"round trip failed for {text!r}"
        assert ex.to_string(again) == text


def test_substitute_pullback():
    e = ex.parse("x^2 + y", ["x", "y"])
    sub = ex.substitute(e, {"x": ex.parse("sin(u)", ["u"]), "y": ex.parse("u*2", ["u"])})
    assert ex.evaluate(sub, {"u": 0.3}) == pytest.approx(math.sin(0.3) ** 2 + 0.6)


def _symbolic_jet(e, coords, point):
    b = dict(zip(coords, point))
    grad = [ex.evaluate(ex.differentiate(e, c), b) for c in coords]
    hess = [[ex.evaluate(ex.differentiate(ex.differentiate(e, c), d), b) for d in coords]
            for c in coords]
    return ex.evaluate(e, b), np.array(grad), np.array(hess)


def _assert_jet_matches(e, coords, point):
    want = _symbolic_jet(e, coords, point)
    got = ex.jets([e], coords, point)
    for w, g in zip(want, got):
        assert np.max(np.abs(g[0] - w)) <= 1e-12 * (1 + np.max(np.abs(w)))


def test_jets_match_symbolic_derivatives(rng):
    coords = ["x", "y", "z"]
    checked = 0
    for _ in range(200):
        e = _random_expr(rng, coords, 4)
        point = rng.uniform(-1, 1, size=3)
        try:
            _symbolic_jet(e, coords, point)
        except ex.ExprError:
            continue
        _assert_jet_matches(e, coords, point)
        checked += 1
    assert checked > 150


def _domain_expr(rng, coords, depth, functions=("log", "sqrt", "tan", "sin", "exp")):
    """Random trees that also divide, take log, sqrt and tan, and raise to
    non-constant powers, so that some leave the real domain at some points.
    Their leaves and nodes are interned, so equal subtrees are one node."""
    if depth == 0 or rng.uniform() < 0.25:
        if rng.uniform() < 0.4:
            return ex.const(rng.choice([0.0, 1.0, 2.0, 0.17, -1.263]))
        return ex.symbol(coords[rng.integers(len(coords))])
    a = _domain_expr(rng, coords, depth - 1, functions)
    choice = rng.integers(4)
    if choice == 0:
        return ex.call(functions[rng.integers(len(functions))], a)
    if choice == 1:
        return ex.pow_(a, ex.Const(float(rng.choice([-1.0, 0.5, 1.5, 2.0, 3.0]))))
    b = _domain_expr(rng, coords, depth - 1, functions)
    if choice == 2:
        return ex.pow_(a, b)
    return [ex.add, ex.sub, ex.mul, ex.div][rng.integers(4)](a, b)


def _generated_cases(seed=20, functions=("log", "sqrt", "tan", "sin", "exp"), count=2000):
    """``count`` (tree, point) pairs in x and y; about 30% of the points lie on
    a grid that meets the domain edges."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        e = _domain_expr(rng, ["x", "y"], 4, functions)
        point = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=2) if rng.uniform() < 0.3 \
            else rng.uniform(-1.5, 1.5, size=2)
        yield e, point


def test_jets_agree_with_symbolic_derivatives_on_generated_trees():
    # checks the jet algebra (chain, product, quotient and power rules on Taylor
    # coefficients) against evaluate on differentiate's trees; the two share the
    # elementary rules, which test_derivative_matches_finite_differences checks
    coords = ["x", "y"]
    compared = raised = 0
    for e, point in _generated_cases():
        try:
            want = _symbolic_jet(e, coords, point)
        except ex.DomainError:
            with pytest.raises(ex.DomainError):
                ex.jets([e], coords, point)
            raised += 1
            continue
        try:
            got = ex.jets([e], coords, point)
        except ex.DomainError:
            # differentiate folded the derivative tree to 0, as of sqrt(x - x); a
            # 2-jet cannot tell x - x from x^4, so jets raises (test_jets_domain_errors)
            continue
        for w, g in zip(want, got):
            assert np.max(np.abs(g[0] - w)) <= 1e-9 * max(1.0, np.max(np.abs(w))), str(e)
        compared += 1
    assert compared >= 1000 and raised >= 100


def _third_order_cases():
    """The generated trees, then 1000 more that take every function."""
    yield from _generated_cases()
    yield from _generated_cases(21, tuple(ex.FUNCTIONS), 1000)


def _intermediates(e):
    """The subtrees of ``e`` and the jets the engine forms besides them: the
    reciprocal of each denominator, and log f and g*log f of each f^g with a
    non-constant exponent."""
    out = {}
    for node in _nodes(e):
        out[id(node)] = node
        if isinstance(node, ex.BinOp) and node.op == "/":
            out[id(node) + 1] = ex.div(ex.const(1.0), node.right)
        elif isinstance(node, ex.BinOp) and node.op == "^" and not isinstance(node.right, ex.Const):
            log = ex.call("log", node.left)
            out[id(node) + 1], out[id(node) + 2] = log, ex.mul(node.right, log)
    return list(out.values())


# The largest error of a third-order jet against the symbolic oracle below,
# in ulps of the largest magnitude any intermediate jet reaches up to third
# order, was 47.8 over both sets of generated trees; the bound is four times
# that.  That is the scale of the rounding: the exact third derivative of x/x
# is 0, but its terms are of the size of the third derivative of 1/x.
_THIRD_ORDER_ULPS = 4 * 48


def _kinds(e):
    """The operators, functions and kinds of power that ``e`` uses."""
    kinds = set()
    for node in _nodes(e):
        if isinstance(node, ex.Call):
            kinds.add(node.fn)
        elif isinstance(node, ex.BinOp):
            constant = isinstance(node.right, ex.Const)
            kinds.add(node.op + ("c" if node.op in "^/" and constant else ""))
    return kinds


def test_third_order_jets_agree_with_hessians_of_gradient_trees():
    # the third slice of an order-3 jet against the order-2 Hessians of the
    # exact first-derivative trees; orders 0 to 2 are the order-2 jet's bits
    coords = ["x", "y"]
    compared, raised, kinds = 0, 0, set()
    for e, point in _third_order_cases():
        try:
            got = ex.jets([e], coords, point, 3)
        except ex.DomainError:
            # the oracle may be defined where differentiate folded a tree, as
            # in test_jets_agree_with_symbolic_derivatives_on_generated_trees
            raised += 1
            continue
        # the order-2 jet of e and of its gradient trees, each as it is alone
        second = ex.jets([e, *ex.gradients([e], coords)[0]], coords, point)
        for g, w in zip(got[:3], second):
            assert g.tobytes() == w[:1].tobytes(), str(e)
        want = second[2][1:]  # [i, j, k]
        error = np.max(np.abs(got[3][0] - want))
        if error > _THIRD_ORDER_ULPS * math.ulp(np.max(np.abs(want))):  # else within any scale
            scale = max(np.max(np.abs(j)) for j in ex.jets(_intermediates(e), coords, point, 3))
            assert error <= _THIRD_ORDER_ULPS * math.ulp(scale), str(e)
        kinds |= _kinds(e)
        compared += 1
    assert compared >= 1500 and raised >= 1000
    assert kinds == {*ex.FUNCTIONS, "+", "-", "*", "/", "/c", "^", "^c"}


def _unshared(e):
    """A copy of ``e`` built from the raw node classes, which intern nothing:
    no two of its nodes are one object."""
    if isinstance(e, ex.Const):
        return ex.Const(e.value)
    if isinstance(e, ex.Sym):
        return ex.Sym(e.name)
    if isinstance(e, ex.Neg):
        return ex.Neg(_unshared(e.arg))
    if isinstance(e, ex.Call):
        return ex.Call(e.fn, _unshared(e.arg))
    return ex.BinOp(e.op, _unshared(e.left), _unshared(e.right))


def _nodes(e):
    """Every node of ``e``, once per path that reaches it."""
    yield e
    for child in (getattr(e, name) for name in ("arg", "left", "right") if hasattr(e, name)):
        yield from _nodes(child)


def _jets_or_error(e, coords, point):
    try:
        return ex.jets([e], coords, point)
    except ex.ExprError as exc:
        return type(exc), str(exc)


def test_shared_subtrees_give_the_jets_of_unshared_trees_bit_for_bit():
    # interning only merges objects: every distinct subtree runs the same float
    # operations, and the first DomainError is raised with the same message
    coords = ["x", "y"]
    shared = raised = 0
    with ex.interning():
        for e, point in _generated_cases():
            copy = _unshared(e)
            assert copy == e
            shared += len({id(n) for n in _nodes(e)}) < len(list(_nodes(e)))
            want, got = _jets_or_error(copy, coords, point), _jets_or_error(e, coords, point)
            if isinstance(want[0], type):
                assert got == want, str(e)
                raised += 1
                continue
            for w, g in zip(want, got):
                assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w)), \
                    str(e)
    assert shared >= 600 and raised >= 500


def _workloads(monkeypatch):
    """The benchmark's workload module, which writes its manifold files."""
    monkeypatch.syspath_prepend(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    return importlib.import_module("perfbench.workloads")


def _cp3_file(tmp_path, monkeypatch):
    """The benchmark's CP^3 chart: all 36 metric entries divide by one
    denominator written out in full, (1 + x1^2 + ... + y3^2)^2."""
    return _workloads(monkeypatch)._cp3_files(str(tmp_path))["chart"]


def test_chart_entries_reach_one_denominator_object(tmp_path, monkeypatch):
    chart, _ = reportio.load_manifold_file(_cp3_file(tmp_path, monkeypatch))
    entries = [e for row in chart.metric for e in row]
    assert len(entries) == 36 and all(e.op == "/" and e.right.op == "^" for e in entries)
    (den,) = {id(e.right.left): e.right.left for e in entries}.values()
    assert ex.to_string(den).startswith("1 + x1^2 + y1^2")
    # so do the six diagonal entries' numerators, den - (xi*xi + yi*yi)
    assert sum(getattr(e.left, "left", None) is den for e in entries) == 6


def test_interned_zeros_keep_their_sign():
    with ex.interning():
        zero, negative_zero = ex.parse("0.0", []), ex.parse("-0.0", [])
        assert zero is not negative_zero
        assert math.copysign(1.0, zero.value) == 1.0
        assert math.copysign(1.0, negative_zero.value) == -1.0
        assert ex.parse("0", []) is zero and ex.neg(zero) is negative_zero


def test_intern_table_holds_no_tree_across_commands(tmp_path, monkeypatch, capsys):
    # a chart's load interns its trees in tables of its own, which go when it
    # returns: a long-lived library user neither grows a table nor shares
    # trees between commands or loads
    cp3 = _cp3_file(tmp_path, monkeypatch)
    assert cli.main(["analyze", cp3, "--seed", "0"]) == 0
    capsys.readouterr()
    assert ex._NODES is None and ex._TEXTS is None
    first, _ = reportio.load_manifold_file(cp3)
    assert ex._NODES is None and ex._TEXTS is None
    second, _ = reportio.load_manifold_file(cp3)
    assert first.metric == second.metric and first.metric[0][0] is not second.metric[0][0]
    # within one load, all 36 entries reach one denominator object
    assert len({id(e.right.left) for row in first.metric for e in row}) == 1
    with pytest.raises(reportio.ManifoldFileError):
        reportio.load_manifold({"name": "bad", "dim": 1, "coordinates": ["x"],
                                "metric": [["x +"]]})
    assert ex._NODES is None and ex._TEXTS is None
    # a nested scope has tables of its own and gives the outer ones back
    with ex.interning():
        outer = ex._NODES, ex._TEXTS
        tree = ex.parse("sin(x) + 1", ["x"])
        with ex.interning():
            assert ex._NODES is not outer[0] and ex._TEXTS is not outer[1]
            assert ex.parse("sin(x) + 1", ["x"]) is not tree
        assert ex._NODES is outer[0] and ex._TEXTS is outer[1]
        assert ex.parse("sin(x) + 1", ["x"]) is tree
        assert ex.add(ex.call("sin", ex.symbol("x")), ex.const(1.0)) is tree
    assert ex._NODES is None and ex._TEXTS is None
    # outside any scope the constructors intern nothing
    assert ex.symbol("x") is not ex.symbol("x")


def test_warm_text_table_gives_the_trees_of_an_empty_one():
    # every generated tree printed and parsed again, once from an empty table
    # and once from a table holding the groups of all trees before it
    coords = ["x", "y"]
    warm, served = {}, 0
    with ex.interning():
        for e, _ in _generated_cases():
            text = ex.to_string(e)
            cold = _outcome(text, coords, {})
            warm.pop((text, tuple(coords)), None)
            served += any(key[0] != text and key[0] in text for key in warm)
            got = _outcome(text, coords, warm)
            assert got is cold and cold == e, text
    assert served >= 500


@pytest.mark.parametrize("text", [
    "x/(1 + y^2)", "(x - y)/(x*y)", "log(x*y)", "sqrt(x^2 + y)", "tan(x - y)",
    "x^y", "(1 + x^2)^(x*y)", "2^(x*y)", "x^1.5*sqrt(y)"])
def test_jets_explicit_cases(text):
    coords = ["x", "y"]
    _assert_jet_matches(ex.parse(text, coords), coords, [0.7, 0.4])


def test_jets_shapes_and_shared_subtrees():
    coords = ["x", "y", "z"]
    shared = ex.parse("sin(x*y) + z", coords)
    exprs = [shared, ex.mul(shared, shared), ex.Const(2.0)]
    v, g, h = ex.jets(exprs, coords, [0.1, 0.2, 0.3])
    assert v.shape == (3,) and g.shape == (3, 3) and h.shape == (3, 3, 3)
    assert v[1] == v[0] ** 2
    assert np.array_equal(g[2], np.zeros(3)) and np.array_equal(h[2], np.zeros((3, 3)))


def test_jets_domain_errors():
    with pytest.raises(ex.DomainError, match="division by zero"):
        ex.jets([ex.parse("sqrt(x^2 + y^2)", ["x", "y"])], ["x", "y"], [0.0, 0.0])
    with pytest.raises(ex.MissingBindingError):
        ex.jets([ex.parse("x + y", ["x", "y"])], ["x"], [1.0])
    # x - x and x^4 share the 2-jet (0, 0, 0) at 0, yet sqrt(x^4) = x^2 has
    # Hessian 2: no rule on the jet alone is right for both, so both raise
    for text in ("sqrt(x^4)", "sqrt(x - x)"):
        with pytest.raises(ex.DomainError):
            ex.jets([ex.parse(text, ["x"])], ["x"], [0.0])
    with pytest.raises(ex.DomainError):
        _symbolic_jet(ex.parse("sqrt(x^4)", ["x"]), ["x"], [0.0])
    # differentiate cancels x - x symbolically, so only jets raises here
    assert _symbolic_jet(ex.parse("sqrt(x - x)", ["x"]), ["x"], [0.0])[2][0][0] == 0.0


_EDGES = [("log", 0.0), ("log", -1.0), ("sqrt", 0.0), ("sqrt", -1.0), ("/", 0.0), ("/", -0.0)]
_EDGES += [(fn, sign * x) for fn in ("exp", "sinh", "cosh") for x in (709.7, 710.5)
           for sign in (1.0, -1.0)]
_EDGES += [("tan", x) for x in (math.pi / 2, math.nextafter(math.pi / 2, 0.0), -math.pi / 2)]
_EDGES += [("tanh", x) for x in (200.0, -200.0, 400.0, -400.0, 1e300)]
_EDGES += [(fn, x) for fn in ("sin", "cos") for x in (0.0, 1e300)]


@pytest.mark.parametrize("fn, x", _EDGES)
def test_jets_and_derivative_trees_agree_at_domain_edges(fn, x):
    e = ex.parse("1/x" if fn == "/" else f"{fn}(x)", ["x"])
    try:
        want = _symbolic_jet(e, ["x"], [x])
    except ex.DomainError:
        with pytest.raises(ex.DomainError):
            ex.jets([e], ["x"], [x])
        return
    got = ex.jets([e], ["x"], [x])
    assert [g.ravel().tolist() for g in got] == [np.ravel(w).tolist() for w in want]


def _tree_sets():
    """(name, coordinates, trees, points) of every built-in model's metric,
    J or embedding map, and of trees that use each function, both kinds of
    power and of quotient, and constant subtrees with infinite values, which
    fold to constants, one of them a denominator."""
    rng = np.random.default_rng(27)
    for name in models._BUILDERS:
        chart = models.instantiate(name)
        points = rng.uniform(-0.3, 0.3, size=(3, chart.dim))
        yield name, chart.coordinates, [e for row in chart.metric for e in row], points
        if chart.complex_structure is not None:
            trees = [e for row in chart.complex_structure for e in row]
            yield name + " J", chart.coordinates, trees, points
        if chart.embedding is not None:
            yield name + " map", chart.coordinates, chart.embedding.map_exprs, points
    texts = [f"{fn}(0.3*x + y)*x" for fn in ex.FUNCTIONS] + [
        "(1 + x^2)^1.5/y^3", "(1 + x^2)^(x*y)", "2^(x*y) - sqrt(2)*x", "x*x/(1e308*10)",
        "tanh(1e400 + 7) + x*y", "-(x - y)/(2*pi + e)"]
    points = rng.uniform(0.2, 0.9, size=(3, 2))
    yield "functions", ["x", "y"], [ex.parse(t, ["x", "y"]) for t in texts], points


@pytest.mark.parametrize("name, coords, trees, points",
                         list(_tree_sets()), ids=lambda v: v if isinstance(v, str) else "")
def test_a_stack_of_points_is_each_point_alone_bit_for_bit(name, coords, trees, points):
    for stack in (points[:1], points):
        got = ex.jets(trees, coords, stack)
        assert [a.shape[:2] for a in got] == [(len(stack), len(trees))] * 3
        for i, point in enumerate(stack):
            alone = ex.jets(trees, coords, point)
            for g, w in zip(got, alone):
                assert g[i].tobytes() == w.tobytes(), name
    # the nodes of one level and kind share numpy operations across trees:
    # each tree alone gets the same bits, signs of zero included
    got = ex.jets(trees, coords, points)
    for k, tree in enumerate(trees):
        for g, w in zip(got, ex.jets([tree], coords, points)):
            assert g[:, k].tobytes() == w[:, 0].tobytes(), (name, k)
    assert not np.isnan(got[2]).any()


@pytest.mark.parametrize("name, coords, trees, points",
                         list(_tree_sets()), ids=lambda v: v if isinstance(v, str) else "")
def test_a_third_order_stack_is_each_point_alone_bit_for_bit(name, coords, trees, points):
    got = ex.jets(trees, coords, points, 3)
    assert [a.shape for a in got] == [(len(points), len(trees)) + (len(coords),) * k
                                      for k in range(4)]
    for i, point in enumerate(points):
        for g, w in zip(got, ex.jets(trees, coords, point, 3)):
            assert g[i].tobytes() == w.tobytes(), name
    for g, w in zip(got[:3], ex.jets(trees, coords, points)):
        assert g.tobytes() == w.tobytes(), name
    assert not np.isnan(got[3]).any()


def test_the_first_bad_point_names_the_error_across_nodes():
    # the first point fails at sqrt, a later node than the second's log
    trees = [ex.parse(t, ["x", "y"]) for t in ("1 + log(x)^2", "1 + sqrt(y)")]
    with pytest.raises(ex.DomainError, match=r"^sqrt\(-0\.5\) out of domain$"):
        ex.jets(trees, ["x", "y"], [[0.5, -0.5], [-0.5, 0.5]])
    with pytest.raises(ex.DomainError, match=r"^log\(-0\.5\) out of domain$"):
        ex.jets(trees, ["x", "y"], [[0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
    # a point that is only not finite comes before a later domain error
    with pytest.raises(ex.DomainError, match=r"not finite at \[1\.0, 0\.5\]$"):
        ex.jets([*trees, ex.parse("x*1e300*1e300", ["x", "y"])], ["x", "y"],
                [[1.0, 0.5], [-0.5, 0.5]])


def test_the_first_error_in_post_order_is_raised_where_level_order_differs():
    # at (-1, 0) both operands fail; the division sits a level above log(x),
    # so a walk by levels meets log(x) first, and a walk of the point alone
    # meets the left operand first
    coords = ["x", "y"]
    with pytest.raises(ex.DomainError, match=r"^division by zero$"):
        ex.jets([ex.parse("1/(y - y) + log(x)", coords)], coords, [-1.0, 0.0])
    for text, message in [("1/(y*y) + log(x)", r"^division by zero$"),
                          ("log(x) + 1/(y*y)", r"^log\(-1\.0\) out of domain$")]:
        tree = ex.parse(text, coords)
        for points in ([-1.0, 0.0], [[1.0, 0.5], [-1.0, 0.0]]):
            with pytest.raises(ex.DomainError, match=message):
                ex.jets([tree], coords, points)


@pytest.mark.parametrize("x", [200.0, -200.0, 400.0, -400.0])
def test_tanh_jet_is_flat_far_from_zero(x):
    # 1/cosh^2 overflows there; 1 - tanh^2 does not
    values, gradients, hessians = ex.jets([ex.parse("tanh(x)", ["x"])], ["x"], [x])
    assert values.tolist() == [math.copysign(1.0, x)]
    assert np.array_equal(gradients, [[0.0]]) and np.array_equal(hessians, [[[0.0]]])
