import numpy as np
import pytest

from conftest import chart_from_strings, flat_chart, random_polynomial_metric
from hermgeo import classify as cl
from hermgeo import curvature as cv
from hermgeo import expressions as ex
from hermgeo import frames as fr
from hermgeo import models
from hermgeo.axioms import canonical_j


def test_classify_chart_missing_structure():
    chart = flat_chart(4)
    with pytest.raises(cl.MissingStructureError):
        cl.classify_chart(chart, cv.point_data(chart, [[0, 0, 0, 0]]))


def test_classify_chart_incompatible_structure():
    # J compatible with the flat metric but not with a stretched one: the
    # residuals are recorded as failed checks, not raised
    chart = chart_from_strings(
        "stretch", ["x1", "y1", "x2", "y2"],
        [["4", "0", "0", "0"], ["0", "1", "0", "0"],
         ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        j_entries=[["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                   ["0", "0", "0", "-1"], ["0", "0", "1", "0"]])
    out, _ = cl.classify_chart(chart, cv.point_data(chart, [[0.0] * 4]), samples=8)
    checks = {c["name"]: c for c in out["checks"]}
    assert checks["j_squared"]["residual"] == 0.0
    assert checks["j_squared"]["pass"]
    assert checks["j_compatible"]["residual"] == pytest.approx(3.0)
    assert not checks["j_compatible"]["pass"]


def test_nabla_j_flat_and_fubini_study(rng):
    sampler = fr.FrameSampler(0, 4)
    flat = models.instantiate("flat_kahler", m=2)
    ka, nk = cl.nabla_J_residuals(flat, cv.point_data(flat, [0.3, -0.1, 0.2, 0.0]), sampler)
    assert ka == 0.0 and nk == 0.0

    fs = models.instantiate("fubini_study", m=2)
    ka, nk = cl.nabla_J_residuals(fs, cv.point_data(fs, [0.2, -0.3, 0.1, 0.15]), sampler)
    assert ka <= 1e-10 and nk <= 1e-10


def test_nabla_j_finite_difference_oracle(rng):
    # dJ + Gamma J - J Gamma, with dJ from central differences
    chart = models.instantiate("fubini_study", m=2)
    point = np.array([0.12, -0.2, 0.05, 0.3])
    nj = cl.nabla_j(chart, cv.point_data(chart, point))
    h = 1e-6
    dJ = np.zeros((4, 4, 4))
    for k in range(4):
        step = np.zeros(4)
        step[k] = h
        dJ[k] = (chart.j_at(point + step) - chart.j_at(point - step)) / (2 * h)
    gamma = cv.christoffel(chart, point)
    oracle = (dJ + np.einsum("ikm,mj->kij", gamma, chart.j_at(point))
              - np.einsum("mkj,im->kij", gamma, chart.j_at(point)))
    assert np.max(np.abs(nj - oracle)) < 1e-8


def test_nearly_kahler_s6(rng):
    chart = models.instantiate("s6_nearly_kahler")
    sampler = fr.FrameSampler(1, 6)
    ka, nk = cl.nabla_J_residuals(chart, cv.point_data(chart, rng.uniform(-0.3, 0.3, size=6)),
                                 sampler)
    assert nk <= 1e-6
    assert ka > 0.1  # not Kahler


def test_nearly_kahler_s6_is_exact():
    # dJ comes from the jet of the embedding map, not from finite differences
    chart = models.instantiate("s6_nearly_kahler")
    sampler = fr.FrameSampler(2, 6)
    points = np.random.default_rng(5).uniform(-0.5, 0.5, size=(5, 6))
    for point in points:
        _, nk = cl.nabla_J_residuals(chart, cv.point_data(chart, point), sampler)
        assert nk <= 1e-12


def test_rk_residual(rng):
    fs = models.instantiate("fubini_study", m=2)
    pd = cv.point_data(fs, [0.1, 0.2, -0.1, 0.05])
    assert cl.rk_residual(pd.riemann, pd.J) <= 1e-10

    # generic J on a curvature tensor without the invariance
    prod = models.instantiate("product_K", K=1.0)
    pd = cv.point_data(prod, [0.2, 0.1, 0.15, -0.1])
    Jbad = np.zeros((4, 4))
    Jbad[1, 0], Jbad[0, 1] = 1.0, -1.0
    Jbad[3, 2], Jbad[2, 3] = -1.0, 1.0  # opposite orientation on factor two
    rot = np.eye(4)
    c, s = np.cos(0.4), np.sin(0.4)
    rot[0, 0] = rot[2, 2] = c
    rot[0, 2], rot[2, 0] = -s, s
    Jmix = rot @ Jbad @ rot.T
    assert cl.rk_residual(pd.riemann, pd.J) <= 1e-10
    assert cl.rk_residual(pd.riemann, Jmix) > 1e-3


def test_plane_type_flat():
    g = np.eye(6)
    J = canonical_j(6)
    e = np.eye(6)
    assert cl.plane_type([e[0], e[1]], g, J) == (cl.HOLOMORPHIC, None)
    assert cl.plane_type([e[0], e[2]], g, J) == (cl.ANTIHOLOMORPHIC, None)
    assert cl.plane_type([e[0], e[1], e[2]], g, J) == (cl.COHOLOMORPHIC, 1)
    assert cl.plane_type([e[0], e[1], e[2], e[3], e[4]], g, J) == (cl.COHOLOMORPHIC, 2)
    oblique = (e[1] + e[2]) / np.sqrt(2)
    assert cl.plane_type([e[0], oblique], g, J) == (cl.NONE, None)


def test_plane_type_basis_invariance(rng):
    g = np.eye(4)
    J = canonical_j(4)
    e = np.eye(4)
    for _ in range(10):
        M = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        span = [M[0, 0] * e[0] + M[0, 1] * e[1], M[1, 0] * e[0] + M[1, 1] * e[1]]
        assert cl.plane_type(span, g, J) == (cl.HOLOMORPHIC, None)


def test_constancy_fubini_study():
    chart = models.instantiate("fubini_study", m=2)
    sampler = fr.FrameSampler(0, 4)
    points = [[0.0, 0.0, 0.0, 0.0], [0.2, -0.1, 0.1, 0.3]]
    report, _ = cl.constancy_report(chart, cv.point_data(chart, points),
                                    sampler, samples=24)
    by_name = {r["name"]: r for r in report}
    assert by_name["holomorphic_sectional"]["constant"] == pytest.approx(4.0, abs=1e-8)
    assert by_name["holomorphic_sectional"]["global_pass"]
    assert by_name["antiholomorphic_sectional"]["constant"] == pytest.approx(1.0, abs=1e-8)
    assert by_name["antiholomorphic_sectional"]["global_pass"]
    assert by_name["constant_type"]["constant"] == pytest.approx(0.0, abs=1e-8)


def test_constancy_fails_on_product():
    chart = models.instantiate("product_K", K=1.0)
    sampler = fr.FrameSampler(0, 4)
    report, _ = cl.constancy_report(chart, cv.point_data(chart, [[0.1, 0.2, 0.05, -0.1]]),
                                    sampler, samples=24)
    by_name = {r["name"]: r for r in report}
    assert not by_name["holomorphic_sectional"]["pass"]


def test_classify_chart_product():
    chart = models.instantiate("product_K", K=1.0)
    out, _ = cl.classify_chart(chart, cv.point_data(chart, [[0.1, -0.2, 0.07, 0.03]]),
                               seed=0, samples=24)
    checks = {c["name"]: c for c in out["checks"]}
    assert checks["j_squared"]["pass"]
    assert checks["j_compatible"]["pass"]
    assert checks["kahler"]["pass"]
    assert checks["nearly_kahler"]["pass"]
    assert checks["rk"]["pass"]
    assert checks["conformally_flat"]["pass"]


def test_classify_chart_s6():
    chart = models.instantiate("s6_nearly_kahler")
    out, _ = cl.classify_chart(chart, cv.point_data(chart, [[0.1, 0.0, -0.2, 0.3, 0.05, 0.0]]),
                               seed=0, samples=16)
    checks = {c["name"]: c for c in out["checks"]}
    assert not checks["kahler"]["pass"]
    assert checks["nearly_kahler"]["pass"]
    assert checks["conformally_flat"]["pass"]


def test_classify_deterministic():
    chart = models.instantiate("fubini_study", m=2)
    a, _ = cl.classify_chart(chart, cv.point_data(chart, [[0.1, 0.2, 0.0, -0.1]]),
                             seed=7, samples=16)
    b, _ = cl.classify_chart(chart, cv.point_data(chart, [[0.1, 0.2, 0.0, -0.1]]),
                             seed=7, samples=16)
    assert a == b


@pytest.mark.parametrize("n", [4, 6])
def test_rk_residual_matches_naive_einsum(n, rng):
    R4 = rng.normal(size=(n,) * 4)
    J = rng.normal(size=(n, n))
    naive = np.einsum("ai,bj,ck,dl,abcd->ijkl", J, J, J, J, R4)
    assert cl.rk_residual(R4, J) == pytest.approx(np.max(np.abs(R4 - naive)), rel=1e-12)


def _value(R4, X, Y, Z, U):
    return np.einsum("ijkl,i,j,k,l->", R4, X, Y, Z, U)


def _close(a, b):
    return abs(a - b) <= 1e-13 * max(1.0, abs(b))


def _hermitian_random_chart(rng, n):
    """A random metric with the canonical J: neither Kahler nor nearly Kahler."""
    chart = random_polynomial_metric(rng, n, scale=0.2)
    coords = chart.coordinates
    canonical = canonical_j(n)
    chart.complex_structure = [[ex.parse(f"{canonical[i, j]:g}", coords) for j in range(n)]
                               for i in range(n)]
    return chart


@pytest.mark.parametrize("name", ["product_K", "s6_nearly_kahler", "random"])
def test_sample_invariants_match_per_sample_loop(name, rng):
    chart = (_hermitian_random_chart(rng, 4) if name == "random"
             else models.instantiate(name))
    pd = cv.point_data(chart, rng.uniform(-0.3, 0.3, size=chart.dim))
    g, J, R4 = pd.g, pd.J, pd.riemann
    hvals, kvals, lvals = cl.sample_invariants(pd, fr.FrameSampler(3, chart.dim), 16)
    assert len(hvals) == len(kvals) == len(lvals) == 16
    sampler = fr.FrameSampler(3, chart.dim)
    for h, k, lam in zip(hvals, kvals, lvals):
        X = fr.sample_orthonormal_set(g, 1, sampler)[0]
        assert _close(h, _value(R4, X, J @ X, J @ X, X) / (X @ g @ X) ** 2)
        Y = fr.sample_orthonormal_set(g, 1, sampler)[0]
        X = fr.sample_orthonormal_set(g, 1, sampler, constraints=[Y, J @ Y])[0]
        denom = (X @ g @ X) * (Y @ g @ Y) - (X @ g @ Y) ** 2
        assert _close(k, _value(R4, X, Y, Y, X) / denom)
        X, Y = X / np.sqrt(X @ g @ X), Y / np.sqrt(Y @ g @ Y)
        assert _close(lam, _value(R4, X, Y, Y, X) - _value(R4, X, Y, J @ Y, J @ X))


def test_nabla_J_residuals_match_per_sample_loop(rng):
    chart = _hermitian_random_chart(rng, 4)
    pd = cv.point_data(chart, rng.uniform(-0.3, 0.3, size=4))
    assert np.array_equal(pd.dJ, chart.dj_at(pd.point))
    kahler, nk = cl.nabla_J_residuals(chart, pd, fr.FrameSampler(8, 4), samples=24)
    nj = cl.nabla_j(chart, pd)
    sampler = fr.FrameSampler(8, 4)
    worst = 0.0
    for _ in range(24):
        X = fr.sample_orthonormal_set(pd.g, 1, sampler)[0]
        v = np.einsum("kij,k,j->i", nj, X, X)
        worst = max(worst, float(np.sqrt(v @ pd.g @ v)))
    assert kahler == float(np.max(np.abs(nj))) and kahler > 1e-3
    assert worst > 1e-3 and _close(nk, worst)


@pytest.mark.parametrize("name, params", [("s6_nearly_kahler", {}), ("fubini_study", {"m": 2}),
                                          ("flat_kahler", {"m": 1})])
def test_stacked_sampling_sites_draw_the_per_point_frames(name, params):
    # one block for all points gives each point the frames it gets when the
    # points are sampled one after another from an equally advanced sampler
    chart = models.instantiate(name, **params)
    points = np.random.default_rng(6).uniform(-0.3, 0.3, size=(3, chart.dim))
    stack = cv.point_data(chart, points)
    ones = [cv.point_data(chart, point) for point in points]
    stacked, single = fr.FrameSampler(9, chart.dim), fr.FrameSampler(9, chart.dim)
    stacked.draw(5), single.draw(5)
    assert cl.nabla_J_residuals(chart, stack, stacked, 8) == tuple(
        max(r) for r in zip(*[cl.nabla_J_residuals(chart, pd, single, 8) for pd in ones]))
    per_point = [cl.sample_invariants(pd, single, 8) for pd in ones]
    for k, values in enumerate(cl.sample_invariants(stack, stacked, 8)):
        if values is None:  # dimension 2: no antiholomorphic pair
            assert chart.dim == 2 and all(v[k] is None for v in per_point)
        else:
            assert values.shape == (3, 8)
            assert np.array_equal(values, [v[k] for v in per_point])


@pytest.mark.parametrize("name, params, count", [("fubini_study", {"m": 2}, 1),
                                                 ("flat_kahler", {"m": 1}, 3)])
def test_classify_chart_of_a_stack(name, params, count):
    # one point, and a 2-dimensional chart (no antiholomorphic pairs)
    chart = models.instantiate(name, **params)
    points = np.random.default_rng(2).uniform(-0.3, 0.3, size=(count, chart.dim))
    report, per_point = cl.classify_chart(chart, cv.point_data(chart, points), seed=4,
                                          samples=8)
    assert report["points"] == points.tolist()
    checks = {c["name"]: c["pass"] for c in report["checks"]}
    assert checks["kahler"] and checks["rk"] and checks["j_compatible"]
    by_name = {r["name"]: r for r in report["constancy"]}
    assert len(per_point["holomorphic_sectional"]) == count
    assert len(by_name["holomorphic_sectional"]["per_point_means"]) == count
    anti = by_name["antiholomorphic_sectional"]
    assert (anti["constant"] is None) == (chart.dim == 2)


def test_a_stack_without_j_raises_missing_structure():
    chart = flat_chart(4)
    pd = cv.point_data(chart, [[0.0] * 4, [0.1] * 4])
    for check in (lambda: cl.classify_chart(chart, pd),
                  lambda: cl.constancy_report(chart, pd, fr.FrameSampler(0, 4)),
                  lambda: cl.nabla_J_residuals(chart, pd, fr.FrameSampler(0, 4))):
        with pytest.raises(cl.MissingStructureError):
            check()
