"""Accuracy as a measured number: the jets of the S^4 workload's immersion
map, to third order, against sympy's exact derivatives evaluated by mpmath
at 40 digits.

The error of each derivative order is taken in ulps of the largest exact
magnitude of that order at the point, not entry by entry: an entry near 0
would read thousands of ulps off while the jet is right to its last bit of
scale.  Each bound is four times the largest error measured over the two
fixed points.
"""

import importlib
import itertools
import math
import os

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

from hermgeo import expressions as ex  # noqa: E402
from hermgeo import reportio  # noqa: E402

DIGITS = 40
POINTS = [(1.0, 1.2, 0.5), (2.0, 0.8, -1.0)]  # hyperspherical angles (a, b, c)
# the largest error measured of each order (value, gradient, Hessian, third
# derivative) over POINTS, in ulps of that order's largest exact magnitude
MEASURED = (0.662, 0.662, 0.662, 0.662)
BOUNDS = tuple(4 * m for m in MEASURED)


def _exact(e, symbols):
    """The sympy expression of the tree ``e``, each constant its exact double."""
    def rule(node, out):
        if isinstance(node, ex.Const):
            return sympy.Rational(*node.value.as_integer_ratio())
        if isinstance(node, ex.Sym):
            return symbols[node.name]
        if isinstance(node, ex.Neg):
            return -out[id(node.arg)]
        if isinstance(node, ex.Call):
            return getattr(sympy, node.fn)(out[id(node.arg)])
        a, b = out[id(node.left)], out[id(node.right)]
        return {"+": a + b, "-": a - b, "*": a * b, "/": a / b, "^": a ** b}[node.op]

    return ex._walk([e], rule)[id(e)]


@pytest.fixture
def s4_map(tmp_path, monkeypatch):
    """The immersion of the benchmark's submanifold-s4 workload file."""
    monkeypatch.syspath_prepend(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    workloads = importlib.import_module("perfbench.workloads")
    return reportio.load_manifold_file(workloads._sub_files(str(tmp_path))["chart"])[1]


def _oracle(immersion, point):
    """The exact jets (values, gradients, Hessians, third derivatives) of the
    map at ``point``, as mpmath numbers in float arrays' shapes."""
    k = immersion.k
    symbols = {c: sympy.Symbol(c, real=True) for c in immersion.coordinates}
    at = {symbols[c]: sympy.Rational(*float(x).as_integer_ratio())
          for c, x in zip(immersion.coordinates, point)}
    out = [np.empty((len(immersion.map_exprs),) + (k,) * order, dtype=object)
           for order in range(4)]
    for i, e in enumerate(immersion.map_exprs):
        f = _exact(e, symbols)
        for order in range(4):
            for index in itertools.combinations_with_replacement(range(k), order):
                d = f.diff(*[symbols[immersion.coordinates[j]] for j in index]) if index else f
                with mpmath.workdps(DIGITS):
                    value = mpmath.mpf(sympy.N(d.subs(at), DIGITS))
                for perm in set(itertools.permutations(index)):
                    out[order][(i,) + perm] = value
    return out


def _ulps(got, exact):
    """max |got - exact| in ulps of the largest exact magnitude."""
    with mpmath.workdps(DIGITS):
        scale = max(abs(x) for x in exact.ravel())
        error = max(abs(mpmath.mpf(float(g)) - x) for g, x in zip(got.ravel(), exact.ravel()))
        return float(error / mpmath.mpf(math.ulp(float(scale))))


def test_s4_map_jets_to_third_order_against_40_digits(s4_map):
    errors = np.array([[_ulps(got, exact) for got, exact in
                        zip(ex.jets(s4_map.map_exprs, s4_map.coordinates, point, 3),
                            _oracle(s4_map, point))] for point in POINTS])
    assert (errors.max(axis=0) <= BOUNDS).all(), errors
