"""Fuzz the CLI with generated manifold files and argv.

Every run must end one of two ways: exit 0 with a report that is strict JSON
(no NaN or Infinity), or exit 2, 3, 4 or 5 with exactly one line on stderr.
Examples are derandomized, so the suite stays deterministic.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hermgeo import cli  # noqa: E402

_SETTINGS = dict(derandomize=True, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _mostly(good, bad):
    """``good`` three times in four, else ``bad``."""
    return good | good | good | bad


_EXPR = st.sampled_from([
    "1", "0", "2", "-1", "x", "y", "1 + x^2", "exp(y)", "sin(x)*cos(y)",
    "1/x", "sqrt(x)", "log(y)", "x^2.5", "cosh(x)", "1e400", "z", "(", "t*t",
]) | st.text(max_size=4)
_DIAG = _mostly(st.sampled_from(["1", "2", "1 + x^2", "exp(y)", "cosh(x)", "4/(1 + x^2)^2"]),
                st.sampled_from(["sin(x)", "1/x", "sqrt(x)", "log(y)", "x^2.5", "0", "-1",
                                 "1e400"]))
_OFF = _mostly(st.just("0"), st.sampled_from(["0.1*x", "0.2*sin(x)", "y", "1e400"]))
_MAPS = _mostly(st.sampled_from(["u", "v", "u^2", "sin(u)", "cos(v)", "u*v", "0"]),
                st.sampled_from(["1/u", "q", "u^2.5", "1e400*u", "exp(1000*u)"]))
_JUNK = st.sampled_from([None, 0, 2.5, "1", [], [[]], {}, [1, 2], "xx", True])
_FLOAT = st.floats(allow_nan=True, allow_infinity=True, width=32)
_KEYS = ["name", "dim", "coordinates", "metric", "complex_structure", "domain_hint",
         "embedding", "immersion"]


def _rotation(dim):
    return [["1" if i == j + 1 and j % 2 == 0 else "-1" if j == i + 1 and i % 2 == 0
             else "0" for j in range(dim)] for i in range(dim)]


@st.composite
def manifold_docs(draw):
    """(doc, dim): a mostly well-formed manifold file of dimension dim
    (symmetric metric, optional J, hint, embedding and immersion); now and
    then up to two fields are replaced by junk, a random matrix or a wrong
    name list, or dropped."""
    dim = draw(st.integers(1, 4))
    coords = ["x", "y", "z", "w"][:dim]
    upper = {(i, j): draw(_DIAG if i == j else _OFF)
             for i in range(dim) for j in range(i, dim)}
    doc = {"name": "fuzz", "dim": dim, "coordinates": coords,
           "metric": [[upper[min(i, j), max(i, j)] for j in range(dim)] for i in range(dim)]}
    if draw(st.booleans()):
        doc["complex_structure"] = _rotation(dim)
    if draw(st.booleans()):
        pair = st.lists(_mostly(st.floats(-2, 2), _FLOAT), min_size=2, max_size=2)
        doc["domain_hint"] = draw(st.lists(_mostly(pair.map(sorted), pair),
                                           min_size=dim, max_size=dim))
    if draw(st.integers(0, 3)) == 0:
        ambient = draw(st.sampled_from([dim, dim, 7]))
        doc["embedding"] = {"ambient_dim": ambient,
                            "map": draw(st.lists(_mostly(st.sampled_from(coords), _EXPR),
                                                 min_size=ambient, max_size=ambient)),
                            "j_rule": draw(st.sampled_from([None, None, "octonion_cross", "x"])),
                            "radius": draw(_mostly(st.floats(0.5, 2), _FLOAT | _JUNK))}
    if draw(st.booleans()):
        sub = draw(_mostly(st.sampled_from([["u"], ["u", "v"]]), st.just(["u", "u"])))
        doc["immersion"] = {"coordinates": sub,
                            "map": draw(st.lists(_MAPS, min_size=dim, max_size=dim))}
    messy = (_JUNK | st.lists(st.lists(_EXPR, min_size=dim, max_size=dim),
                              min_size=dim, max_size=dim)
             | st.lists(st.sampled_from(["x", "y", "sin", "", "x y"]), max_size=dim + 1)
             | st.just(...))
    if draw(st.integers(0, 2)) == 0:
        for key, value in draw(st.lists(st.tuples(st.sampled_from(_KEYS), messy),
                                        min_size=1, max_size=2)):
            if value is ...:
                doc.pop(key, None)
            else:
                doc[key] = value
    return doc, dim


_OPTIONS = {"--seed": _mostly(st.integers(0, 9), st.just(-1)).map(str),
            "--samples": _mostly(st.integers(1, 3), st.integers(-1, 0)).map(str),
            "--tol": _mostly(st.sampled_from(["1e-8", "0", "1", "1e-300"]), _FLOAT.map(repr)),
            "--dh-tol": _mostly(st.sampled_from(["1e-6", "0", "1"]), _FLOAT.map(repr))}
_OWN = {"analyze": ["--seed", "--samples", "--tol"],
        "classify": ["--seed", "--samples", "--tol"],
        "submanifold": ["--tol", "--dh-tol"]}


@st.composite
def chart_argv(draw, path, dim):
    """argv of a chart command: its own options, now and then a foreign one,
    and points that mostly have the chart's dimension."""
    command = draw(st.sampled_from(sorted(_OWN)))
    argv = [command, path]
    value = _mostly(st.sampled_from(["0", "0.1", "-0.2", "0.3", "1", "-1.5"]),
                    st.sampled_from(["nan", "-inf", "x", "", "1e400"]) | _FLOAT.map(repr))
    for _ in range(draw(st.integers(0, 2))):
        count = draw(_mostly(st.just(dim), st.integers(1, 4)))
        argv += ["--point", ",".join(draw(st.lists(value, min_size=count, max_size=count)))]
    flags = draw(st.lists(st.sampled_from(_OWN[command]), max_size=3, unique=True))
    if draw(st.integers(0, 7)) == 0:
        flags.append(draw(st.sampled_from([*_OPTIONS, "--weyl"])))
    for flag in flags:
        argv += [flag] if flag == "--weyl" else [flag, draw(_OPTIONS[flag])]
    return argv


def _run(argv):
    """(exit code, stdout, stderr); a warning counts as a stderr line, as the
    command line would print it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, out.getvalue(), "".join(f"{w.message}\n" for w in caught) + err.getvalue()


def _reject(name):
    raise ValueError(f"non-JSON constant {name}")


def _check(argv):
    code, out, err = _run(argv)
    if code == 0:
        json.loads(out, parse_constant=_reject)
    else:
        assert code in (2, 3, 4, 5), (argv, code, err)
        assert err.endswith("\n") and err.count("\n") == 1, (argv, code, err)


@settings(max_examples=60, **_SETTINGS)
@given(case=manifold_docs(), data=st.data())
def test_chart_commands_end_in_report_or_one_line_error(case, data):
    doc, dim = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chart.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        _check(data.draw(chart_argv(path, dim)))


@settings(max_examples=15, **_SETTINGS)
@given(m=st.sampled_from(["-1", "0", "1", "2", "3", "7", "x", "2.5"]),
       options=st.lists(st.sampled_from([
           ["--frames", "0"], ["--frames", "3"], ["--seed", "-4"], ["--seed", "9"],
           ["--tol", "nan"], ["--tol", "1e-30"], ["--tol", "inf"], ["--tol", "-1"],
           ["--samples", "2"]]), max_size=3))
def test_verify_theorem_ends_in_report_or_one_line_error(m, options):
    _check(["verify-theorem", "--m", m, *[a for opt in options for a in opt]])
