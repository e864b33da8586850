import importlib
import json
import os

import numpy as np
import pytest

from hermgeo import classify as cl
from hermgeo import curvature as cv
from hermgeo import expressions as ex
from hermgeo import models, reportio


def test_list_models_stable():
    names = [d["name"] for d in models.list_models()]
    assert names == ["flat_kahler", "round_sphere", "hyperbolic", "product_K",
                     "fubini_study", "s6_nearly_kahler"]


def test_instantiate_errors():
    with pytest.raises(models.UnknownModelError):
        models.instantiate("nope")
    with pytest.raises(ValueError):
        models.instantiate("round_sphere", radius=2.0)
    with pytest.raises(ValueError):
        models.instantiate("round_sphere", r=-1.0)
    # 4 r^4 overflows to inf, which the builder would print into its document
    for name in ("round_sphere", "s6_nearly_kahler"):
        with pytest.raises(ValueError, match="arithmetic out of range"):
            models.instantiate(name, r=1e77)


def test_flat_kahler():
    chart = models.instantiate("flat_kahler", m=3)
    pd = cv.point_data(chart, [0.1] * 6)
    assert np.max(np.abs(pd.riemann)) == 0.0
    assert np.max(np.abs(pd.J @ pd.J + np.eye(6))) == 0.0


def test_round_sphere_radius(rng):
    for r in (1.0, 2.0):
        chart = models.instantiate("round_sphere", n=4, r=r)
        pd = cv.point_data(chart, rng.uniform(-0.4, 0.4, size=4))
        X, Y = rng.normal(size=(2, 4))
        assert cv.sectional(pd.riemann, pd.g, X, Y) == pytest.approx(1 / r ** 2,
                                                                    abs=1e-9)
        assert pd.scalar == pytest.approx(chart.expected["scalar"], abs=1e-8)


def test_hyperbolic(rng):
    chart = models.instantiate("hyperbolic", n=3, K=2.0)
    pd = cv.point_data(chart, rng.uniform(-0.2, 0.2, size=3))
    X, Y = rng.normal(size=(2, 3))
    assert cv.sectional(pd.riemann, pd.g, X, Y) == pytest.approx(-2.0, abs=1e-9)


def test_product_k(rng):
    chart = models.instantiate("product_K", K=1.5)
    point = rng.uniform(-0.2, 0.2, size=4)
    pd = cv.point_data(chart, point)
    assert pd.scalar == pytest.approx(0.0, abs=1e-9)
    assert np.max(np.abs(pd.weyl)) <= 1e-8
    ka, _ = cl.nabla_J_residuals(chart, pd)
    assert ka <= 1e-9
    # sectional curvature inside each factor matches +-K
    e = np.eye(4)
    assert cv.sectional(pd.riemann, pd.g, e[0], e[1]) == pytest.approx(1.5, abs=1e-9)
    assert cv.sectional(pd.riemann, pd.g, e[2], e[3]) == pytest.approx(-1.5, abs=1e-9)


def test_fubini_study_metric_potential_oracle(rng):
    # real metric components from the potential log(1 + |z|^2) by finite
    # differences: g_{x_i x_j} = g_{y_i y_j} = (Phi_{x_i x_j} + Phi_{y_i y_j})/4,
    # g_{x_i y_j} = (Phi_{x_i y_j} - Phi_{x_j y_i})/4
    m = 2
    chart = models.instantiate("fubini_study", m=m)

    def potential(p):
        return np.log(1.0 + np.sum(p ** 2))

    point = rng.uniform(-0.5, 0.5, size=2 * m)
    h = 1e-4
    hess = np.zeros((2 * m, 2 * m))
    for i in range(2 * m):
        for j in range(2 * m):
            pp = point.copy()
            for (di, dj, sgn) in ((h, h, 1), (h, -h, -1), (-h, h, -1), (-h, -h, 1)):
                q = point.copy()
                q[i] += di
                q[j] += dj
                hess[i, j] += sgn * potential(q)
            hess[i, j] /= 4 * h * h
    # coordinate order is x1, y1, x2, y2: x_i -> 2i, y_i -> 2i+1
    g = chart.metric_at(point)
    for i in range(m):
        for j in range(m):
            a = (hess[2 * i, 2 * j] + hess[2 * i + 1, 2 * j + 1]) / 4.0
            b = (hess[2 * i, 2 * j + 1] - hess[2 * j, 2 * i + 1]) / 4.0
            assert g[2 * i, 2 * j] == pytest.approx(a, abs=1e-6)
            assert g[2 * i + 1, 2 * j + 1] == pytest.approx(a, abs=1e-6)
            assert g[2 * i, 2 * j + 1] == pytest.approx(b, abs=1e-6)


def test_fubini_study_hsc(rng):
    chart = models.instantiate("fubini_study", m=3)
    pd = cv.point_data(chart, rng.uniform(-0.4, 0.4, size=6))
    for _ in range(8):
        X = rng.normal(size=6)
        assert cv.holomorphic_sectional(pd.riemann, pd.g, pd.J, X) == \
            pytest.approx(4.0, abs=1e-8)


def test_s6_j_properties(rng):
    chart = models.instantiate("s6_nearly_kahler")
    for _ in range(5):
        point = rng.uniform(-0.5, 0.5, size=6)
        J = chart.j_at(point)
        g = chart.metric_at(point)
        assert np.max(np.abs(J @ J + np.eye(6))) <= 1e-9
        assert np.max(np.abs(J.T @ g @ J - g)) <= 1e-9


def test_s6_sectional(rng):
    chart = models.instantiate("s6_nearly_kahler", r=1.0)
    pd = cv.point_data(chart, rng.uniform(-0.3, 0.3, size=6))
    X, Y = rng.normal(size=(2, 6))
    assert cv.sectional(pd.riemann, pd.g, X, Y) == pytest.approx(1.0, abs=1e-9)


def test_octonion_cross_identities(rng):
    for _ in range(20):
        a, b = rng.normal(size=(2, 7))
        c = models.octonion_cross(a, b)
        assert a @ c == pytest.approx(0.0, abs=1e-12)
        assert b @ c == pytest.approx(0.0, abs=1e-12)
        back = models.octonion_cross(a, c)
        assert np.max(np.abs(back - ((a @ b) * a - (a @ a) * b))) < 1e-10


def test_s6_embedding_on_sphere(rng):
    chart = models.instantiate("s6_nearly_kahler", r=1.3)
    for _ in range(5):
        u = rng.uniform(-0.8, 0.8, size=6)
        b = dict(zip(chart.coordinates, u))
        p = np.array([ex.evaluate(e, b) for e in chart.embedding.map_exprs])
        assert np.linalg.norm(p) == pytest.approx(1.3, abs=1e-12)


def test_product_chart_builder(rng):
    a = models.instantiate("flat_kahler", m=1)
    b = models.instantiate("flat_kahler", m=1)
    prod = models.product_chart(a, b)
    assert prod.dim == 4
    assert prod.has_j()
    pd = cv.point_data(prod, [0.1, 0.2, 0.3, 0.4])
    assert np.max(np.abs(pd.riemann)) == 0.0

    # product of curved Hermitian surfaces matches the dedicated model
    s = models.instantiate("product_K", K=1.0)
    pd = cv.point_data(s, [0.1, -0.1, 0.2, 0.05])
    assert pd.scalar == pytest.approx(0.0, abs=1e-9)


def test_product_chart_rejects_pointwise_j():
    s6, flat = models.instantiate("s6_nearly_kahler"), models.instantiate("flat_kahler", m=1)
    for a, b, label in ((s6, flat, "first"), (flat, s6, "second")):
        with pytest.raises(ValueError, match=f"{label} factor 's6_nearly_kahler'.*pointwise J"):
            models.product_chart(a, b)


def test_expected_tables_present():
    for d in models.list_models():
        chart = models.instantiate(d["name"])
        assert chart.expected, f"{d['name']} has no expected-invariant table"


def test_fubini_study_expected_matches_constancy():
    chart = models.instantiate("fubini_study", m=2)
    pd = cv.point_data(chart, [[0.0] * 4, [0.2, -0.1, 0.1, 0.3]])
    report, _ = cl.constancy_report(chart, pd, cl.unitary_bounds(pd.riemann, pd.g, pd.J))
    constants = {r["name"]: r["constant"] for r in report}
    for name, key in (("holomorphic_sectional", "hsc"),
                      ("antiholomorphic_sectional", "antiholomorphic_sectional"),
                      ("constant_type", "constant_type")):
        assert constants[name] == pytest.approx(chart.expected[key], abs=1e-8), name


def _entry_strings(chart):
    return [[[ex.to_string(e) for e in row] for row in rows]
            for rows in (chart.metric, chart.complex_structure or [])]


@pytest.mark.parametrize("name", [d["name"] for d in models.list_models()])
def test_models_and_loaded_files_are_one_path(name, monkeypatch):
    load, built = reportio.load_manifold, []

    def recording_load(doc):
        chart, immersion = load(doc)
        built.append((chart, chart.complex_structure_fn))
        return chart, immersion

    monkeypatch.setattr(reportio, "load_manifold", recording_load)
    chart = models.instantiate(name)
    monkeypatch.undo()
    # the chart and its pointwise J are the loader's, untouched afterwards
    assert len(built) == 1 and built[0][0] is chart
    assert built[0][1] is chart.complex_structure_fn
    assert (chart.complex_structure_fn is not None) == (name == "s6_nearly_kahler")
    from_file, _ = reportio.load_manifold(reportio.chart_to_dict(chart))
    assert _entry_strings(chart) == _entry_strings(from_file)
    # equal entry strings share one parsed tree
    for c in (chart, from_file):
        trees = {}
        for rows in (c.metric, c.complex_structure or []):
            for e in (e for row in rows for e in row):
                assert trees.setdefault(ex.to_string(e), e) is e


def test_loader_evaluates_no_expression(tmp_path, monkeypatch):
    # six model documents and the benchmark's three manifold files load
    # without a single evaluation: the metric is checked where it is evaluated
    monkeypatch.syspath_prepend(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    workloads = importlib.import_module("perfbench.workloads")
    docs = [builder(**defaults)[0] for builder, defaults, _ in models._BUILDERS.values()]
    for workload in workloads.WORKLOADS.values():
        for path in workload.files(str(tmp_path)).values():
            with open(path, encoding="utf-8") as fh:
                docs.append(json.load(fh))
    assert len(docs) == 9

    def refuse(*args, **kwargs):
        raise AssertionError("the loader evaluated an expression")

    monkeypatch.setattr(ex, "evaluate", refuse)
    monkeypatch.setattr(ex, "jets", refuse)
    for doc in docs:
        reportio.load_manifold(doc)
