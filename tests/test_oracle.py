"""Coordinate-change oracle: curvature is tensorial.

A chart pulled back by x = phi(y) has metric g'(y) = D^T g(phi(y)) D and
J'(y) = D^-1 J(phi(y)) D, with D = dphi/dy; an immersion map F becomes
phi^-1(F).  The transformed charts are written as expression strings (only
``expressions.parse``, ``substitute`` and ``to_string``) and loaded like any
manifold file, so every invariant below is computed twice, by independent
jets, and compared with the tensor transformation rule.
"""

import json

import numpy as np
import pytest

from hermgeo import classify as cl
from hermgeo import cli, models, reportio
from hermgeo import curvature as cv
from hermgeo import expressions as ex
from hermgeo import immersions as im

EPS = 0.1  # the nonlinear change x = y + EPS * y*y


def _linear_change(n, seed):
    """(A, b) with A = I + 0.3 N(0,1) from a fixed seed, checked invertible."""
    rng = np.random.default_rng(seed)
    A = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    assert np.linalg.cond(A) < 1e2
    return A, 0.1 * rng.standard_normal(n)


def _products(*factors):
    """The string of a product, or None if a factor is the string "0"."""
    return None if "0" in factors else "*".join(f"({f})" for f in factors)


def _sum(terms):
    terms = [t for t in terms if t is not None]
    return " + ".join(terms) if terms else "0"


def _moved_document(doc, new, phi, D, E, inverse=None):
    """The manifold document ``doc`` in coordinates ``new``: ``phi`` gives each
    old coordinate as a string in ``new``, D[a][i] = d x_a / d y_i and
    E = D^-1 as strings; ``inverse`` gives each new coordinate in the old
    ones (needed for an immersion block)."""
    old, n = doc["coordinates"], len(doc["coordinates"])
    mapping = {c: ex.parse(s, new) for c, s in zip(old, phi)}

    def moved(text, symbols=old, to=mapping):
        return ex.to_string(ex.substitute(ex.parse(text, symbols), to))

    g = [[moved(e) for e in row] for row in doc["metric"]]
    upper = {(i, j): _sum(_products(D[a][i], g[a][b], D[b][j])
                          for a in range(n) for b in range(n))
             for i in range(n) for j in range(i, n)}
    out = {"name": doc["name"] + "_moved", "dim": n, "coordinates": new,
           "metric": [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]}
    if "complex_structure" in doc:
        J = [[moved(e) for e in row] for row in doc["complex_structure"]]
        out["complex_structure"] = [
            [_sum(_products(E[i][a], J[a][b], D[b][j]) for a in range(n) for b in range(n))
             for j in range(n)] for i in range(n)]
    if "embedding" in doc:
        out["embedding"] = {**doc["embedding"],
                            "map": [moved(e) for e in doc["embedding"]["map"]]}
    if "immersion" in doc:
        sub = doc["immersion"]["coordinates"]
        to_sub = {c: ex.parse(s, sub) for c, s in zip(old, doc["immersion"]["map"])}
        out["immersion"] = {"coordinates": sub,
                            "map": [moved(s, old, to_sub) for s in inverse]}
    return out


def _linear(doc, A, b):
    n = len(A)
    new = [f"v{i + 1}" for i in range(n)]
    D, E, b = A.tolist(), np.linalg.inv(A).tolist(), b.tolist()
    phi = [_sum(f"{D[a][i]!r}*{new[i]}" for i in range(n)) + f" + {b[a]!r}" for a in range(n)]
    inverse = [_sum(f"{E[i][a]!r}*({x} - {b[a]!r})" for a, x in enumerate(doc["coordinates"]))
               for i in range(n)]
    return _moved_document(doc, new, phi, [[repr(v) for v in row] for row in D],
                           [[repr(v) for v in row] for row in E], inverse)


def _quadratic(doc):
    """x = y + EPS * y*y, with D = I + 2 EPS diag(y)."""
    n = len(doc["coordinates"])
    new = [f"v{i + 1}" for i in range(n)]
    phi = [f"{v} + {EPS!r}*{v}^2" for v in new]
    D = [[f"1 + {2 * EPS!r}*{v}" if i == a else "0" for i, v in enumerate(new)]
         for a in range(n)]
    E = [[f"1/(1 + {2 * EPS!r}*{v})" if i == a else "0" for a in range(n)]
         for i, v in enumerate(new)]
    return _moved_document(doc, new, phi, D, E)


def _model_doc(name, **params):
    chart = models.instantiate(name, **params)
    return reportio.chart_to_dict(chart), chart.expected


def _pulled_back(R, D):
    return np.einsum("abcd,ai,bj,ck,dl->ijkl", R, D, D, D, D)


def _weyl_sq(pd):
    gi = pd.g_inv
    return float(np.einsum("ijkl,abcd,ia,jb,kc,ld->", pd.weyl, pd.weyl, gi, gi, gi, gi))


def _flags(chart, pd):
    report, _, _ = cl.classify_chart(chart, pd)
    return ([(c["name"], c["pass"]) for c in report["checks"]]
            + [(c["name"], c["pass"], c["global_pass"]) for c in report["constancy"]])


def _assert_same_geometry(before, after, pd, pd2, D):
    """pd at x = phi(y) on ``before`` and pd2 at y on ``after``, with D = dphi/dy."""
    scale = np.max(np.abs(pd.riemann))
    assert np.max(np.abs(pd2.riemann - _pulled_back(pd.riemann, D))) <= 1e-12 * scale
    assert pd2.scalar == pytest.approx(pd.scalar, rel=1e-12, abs=1e-12 * scale)
    if pd.weyl is not None:
        assert _weyl_sq(pd2) == pytest.approx(_weyl_sq(pd), rel=1e-11, abs=1e-24 * scale ** 2)
    if pd.J is not None:
        E = np.linalg.inv(D)
        np.testing.assert_allclose(pd2.J, E @ pd.J @ D, atol=1e-13)
        V = np.random.default_rng(7).standard_normal((6, len(D)))
        np.testing.assert_allclose(
            cv.holomorphic_sectional(pd2.riemann, pd2.g, pd2.J, V),
            cv.holomorphic_sectional(pd.riemann, pd.g, pd.J, V @ D.T), rtol=0, atol=1e-12 * scale)
        moved = np.einsum("cab,ck,ia,bj->kij", cl.nabla_j(before, pd), D, E, D)
        np.testing.assert_allclose(cl.nabla_j(after, pd2), moved, rtol=0, atol=1e-12)
        assert _flags(after, pd2) == _flags(before, pd)


@pytest.mark.parametrize("name, params, x", [
    ("fubini_study", {"m": 2}, [0.1, -0.2, 0.15, 0.05]),
    ("hyperbolic", {"n": 4}, [0.1, -0.2, 0.15, 0.05]),
    ("product_K", {}, [0.3, -0.2, 0.15, 0.1]),
    ("s6_nearly_kahler", {}, [0.1, -0.2, 0.15, 0.05, 0.3, -0.1]),
])
def test_linear_change_moves_curvature_as_a_tensor(name, params, x):
    doc, _ = _model_doc(name, **params)
    A, b = _linear_change(len(x), 1)
    before, _ = reportio.load_manifold(doc)
    after, _ = reportio.load_manifold(_linear(doc, A, b))
    y = np.linalg.solve(A, np.array(x) - b)
    _assert_same_geometry(before, after, cv.point_data(before, x),
                          cv.point_data(after, y), A)


@pytest.mark.parametrize("name, params", [("fubini_study", {"m": 2}), ("round_sphere", {"n": 4})])
def test_quadratic_change_moves_curvature_as_a_tensor(name, params):
    doc, _ = _model_doc(name, **params)
    before, _ = reportio.load_manifold(doc)
    after, _ = reportio.load_manifold(_quadratic(doc))
    y = np.array([0.3, -0.2, 0.25, 0.1])
    pd2 = cv.point_data(after, y)
    if pd2.J is not None:  # J' = D^-1 J D varies with y although J is constant
        assert np.max(np.abs(pd2.dJ)) > 0.1
    _assert_same_geometry(before, after, cv.point_data(before, y + EPS * y * y), pd2,
                          np.eye(4) + 2 * EPS * np.diag(y))


@pytest.mark.parametrize("name, params, sub_map", [
    ("round_sphere", {"n": 3}, ["0.5*cos(u)*cos(w)", "0.5*cos(u)*sin(w)", "0.5*sin(u)"]),
    ("hyperbolic", {"n": 3}, ["0.3*cos(u)", "0.3*sin(u)", "0.2*w"]),
])
def test_linear_change_keeps_submanifold_geometry(name, params, sub_map):
    doc, _ = _model_doc(name, **params)
    doc["immersion"] = {"coordinates": ["u", "w"], "map": sub_map}
    A, b = _linear_change(3, 2)
    _, imm = reportio.load_manifold(doc)
    _, imm2 = reportio.load_manifold(_linear(doc, A, b))
    u = [0.4, 0.7]
    data, data2 = im.second_fundamental_form(imm, u), im.second_fundamental_form(imm2, u)
    Ai = np.linalg.inv(A)
    np.testing.assert_allclose(data2.induced, data.induced, rtol=0,
                               atol=1e-12 * np.max(np.abs(data.induced)))
    np.testing.assert_allclose(data2.alpha, data.alpha @ Ai.T, rtol=0, atol=1e-12)
    H, H2 = data.mean_curvature, data2.mean_curvature
    assert np.sqrt(H2 @ data2.ambient_metric @ H2) == pytest.approx(
        np.sqrt(H @ data.ambient_metric @ H), rel=1e-12)
    assert (data2.umbilicity <= 1e-12) == (data.umbilicity <= 1e-12)


def test_cli_reads_a_moved_model_file(tmp_path, capsys):
    doc, expected = _model_doc("s6_nearly_kahler")
    chart, _ = reportio.load_manifold(_quadratic(doc))
    path = tmp_path / "moved.json"
    path.write_text(reportio.dump_report(reportio.chart_to_dict(chart)), encoding="utf-8")
    reports = []
    for command in ("analyze", "classify"):
        assert cli.main([command, str(path), "--point", "0.3,-0.2,0.25,0.1,-0.15,0.2"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    analyze, classify = reports
    assert analyze["points"][0]["scalar_curvature"] == pytest.approx(
        30 * expected["sectional"], rel=1e-12)
    passed = {c["name"]: c["pass"] for c in classify["checks"]}
    assert (passed["kahler"], passed["nearly_kahler"], passed["conformally_flat"]) == (
        expected["kahler"], expected["nk"], expected["conformally_flat"])
    constants = {c["name"]: c["constant"] for c in classify["constancy"]}
    assert constants["constant_type"] == pytest.approx(expected["constant_type"], rel=1e-9)
