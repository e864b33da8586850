import warnings

import numpy as np
import pytest

from conftest import (chart_frames, chart_from_strings, conformal_rescale, flat_chart,
                      random_low_degree_poly, random_polynomial_metric,
                      two_sphere_polar)
from hermgeo import curvature as cv
from hermgeo import expressions as ex
from hermgeo import models


def test_christoffel_flat():
    chart = flat_chart(3)
    assert np.max(np.abs(cv.christoffel(chart, [0.1, 0.2, 0.3]))) == 0.0


def test_christoffel_two_sphere():
    chart = two_sphere_polar()
    gamma = cv.christoffel(chart, [np.pi / 4, 0.3])
    assert gamma[0, 1, 1] == pytest.approx(-0.5, abs=1e-12)
    assert np.allclose(gamma, np.swapaxes(gamma, 1, 2))


def test_christoffel_conformal_exponential():
    chart = chart_from_strings("conf", ["x", "y"],
                               [["exp(2*x)", "0"], ["0", "exp(2*x)"]])
    gamma = cv.christoffel(chart, [0.4, -0.2])
    assert gamma[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
    assert gamma[0, 1, 1] == pytest.approx(-1.0, abs=1e-12)


def test_christoffel_metric_compatibility(rng):
    # nabla g = 0: d_k g_ij = G^m_ki g_mj + G^m_kj g_im
    chart = random_polynomial_metric(rng, 3)
    point = rng.uniform(-0.3, 0.3, size=3)
    gamma = cv.christoffel(chart, point)
    g = chart.metric_at(point)
    _, d1, _ = chart.metric_jets(point)
    rhs = np.einsum("mki,mj->kij", gamma, g) + np.einsum("mkj,im->kij", gamma, g)
    assert np.max(np.abs(d1 - rhs)) < 1e-9


def test_christoffel_finite_difference_oracle():
    chart = two_sphere_polar()
    point = np.array([0.9, 0.4])
    gamma = cv.christoffel(chart, point)
    h = 1e-5
    d1 = np.zeros((2, 2, 2))
    for k in range(2):
        dp = point.copy()
        dm = point.copy()
        dp[k] += h
        dm[k] -= h
        d1[k] = (chart.metric_at(dp) - chart.metric_at(dm)) / (2 * h)
    gi = np.linalg.inv(chart.metric_at(point))
    T = np.einsum("imj->mij", d1) + np.einsum("jmi->mij", d1) - d1
    oracle = 0.5 * np.einsum("am,mij->aij", gi, T)
    assert np.max(np.abs(gamma - oracle)) < 1e-6


def test_singular_metric_raises():
    chart = chart_from_strings("sing", ["x", "y"], [["x", "0"], ["0", "1"]])
    with pytest.raises(cv.SingularMetricError):
        cv.christoffel(chart, [0.0, 0.0])


def test_riemann_flat():
    chart = flat_chart(4)
    _, _, R4 = cv.riemann(chart, [0.1, -0.2, 0.3, 0.0])
    assert np.max(np.abs(R4)) <= 1e-12


def test_riemann_sphere_sectional(rng):
    chart = two_sphere_polar()
    for _ in range(5):
        point = [rng.uniform(0.3, 2.6), rng.uniform(-3, 3)]
        _, _, R4 = cv.riemann(chart, point)
        g = chart.metric_at(point)
        X, Y = rng.normal(size=2), rng.normal(size=2)
        # constant-curvature identity R(X,Y,Y,X) = K (|X|^2|Y|^2 - g(X,Y)^2)
        assert cv.sectional(R4, g, X, Y) == pytest.approx(1.0, abs=1e-9)


def test_riemann_hyperbolic_plane():
    chart = chart_from_strings(
        "h2", ["x", "y"],
        [["4/(1 - x^2 - y^2)^2", "0"], ["0", "4/(1 - x^2 - y^2)^2"]])
    _, _, R4 = cv.riemann(chart, [0.2, -0.1])
    g = chart.metric_at([0.2, -0.1])
    assert cv.sectional(R4, g, np.eye(2)[0], np.eye(2)[1]) == pytest.approx(-1.0, abs=1e-10)


def test_ricci_scalar_examples():
    chart = two_sphere_polar()
    point = [0.8, 0.1]
    _, _, R4 = cv.riemann(chart, point)
    g = chart.metric_at(point)
    S, s = cv.ricci_scalar(R4, g)
    assert np.max(np.abs(S - g)) < 1e-10
    assert s == pytest.approx(2.0, abs=1e-10)

    product = models.instantiate("product_K", K=1.0)
    pd = cv.point_data(product, [0.1, -0.2, 0.07, 0.03])
    assert pd.scalar == pytest.approx(0.0, abs=1e-10)


def test_weyl_constant_curvature_vanishes(rng):
    chart = models.instantiate("round_sphere", n=4, r=1.3)
    pd = cv.point_data(chart, rng.uniform(-0.4, 0.4, size=4))
    assert np.max(np.abs(pd.weyl)) <= 1e-10 * max(1.0, np.max(np.abs(pd.riemann)))


def test_weyl_dim3_error():
    g = np.eye(3)
    with pytest.raises(cv.UnsupportedDimensionError):
        cv.weyl(np.zeros((3, 3, 3, 3)), np.zeros((3, 3)), 0.0, g)


def test_weyl_cp2_not_conformally_flat():
    chart = models.instantiate("fubini_study", m=2)
    pd = cv.point_data(chart, [0.0, 0.0, 0.0, 0.0])
    assert np.max(np.abs(pd.weyl)) > 0.1


def test_sectional_basis_invariance(rng):
    chart = models.instantiate("fubini_study", m=2)
    pd = cv.point_data(chart, [0.1, 0.0, -0.2, 0.3])
    X, Y = rng.normal(size=4), rng.normal(size=4)
    k0 = cv.sectional(pd.riemann, pd.g, X, Y)
    for _ in range(10):
        M = rng.normal(size=(2, 2))
        if abs(np.linalg.det(M)) < 0.1:
            continue
        X2 = M[0, 0] * X + M[0, 1] * Y
        Y2 = M[1, 0] * X + M[1, 1] * Y
        assert cv.sectional(pd.riemann, pd.g, X2, Y2) == pytest.approx(k0, rel=1e-9)


def test_sectional_degenerate_plane():
    chart = flat_chart(3)
    pd = cv.point_data(chart, [0, 0, 0])
    X = np.array([1.0, 2.0, 0.0])
    with pytest.raises(cv.DegeneratePlaneError):
        cv.sectional(pd.riemann, pd.g, X, X)


def test_holomorphic_sectional(rng):
    flat = models.instantiate("flat_kahler", m=2)
    pd = cv.point_data(flat, [0.1, 0.2, 0.3, 0.4])
    assert cv.holomorphic_sectional(pd.riemann, pd.g, pd.J, rng.normal(size=4)) == 0.0

    cp2 = models.instantiate("fubini_study", m=2)
    pd = cv.point_data(cp2, [0.15, -0.1, 0.2, 0.05])
    values = [cv.holomorphic_sectional(pd.riemann, pd.g, pd.J, rng.normal(size=4))
              for _ in range(32)]
    assert np.mean(values) == pytest.approx(4.0, abs=1e-8)
    assert np.std(values) < 1e-8
    # scale invariance
    X = rng.normal(size=4)
    a = cv.holomorphic_sectional(pd.riemann, pd.g, pd.J, X)
    b = cv.holomorphic_sectional(pd.riemann, pd.g, pd.J, 2.7 * X)
    assert a == pytest.approx(b, rel=1e-12)

    with pytest.raises(cv.DegeneratePlaneError):
        cv.holomorphic_sectional(pd.riemann, pd.g, pd.J, np.zeros(4))


def test_lambda_type_s6(rng):
    from hermgeo import frames as fr
    chart = models.instantiate("s6_nearly_kahler")
    point = rng.uniform(-0.3, 0.3, size=6)
    pd = cv.point_data(chart, point)
    sampler = fr.FrameSampler(2, 6)
    for _ in range(5):
        X, Y = chart_frames(pd.g, pd.J, sampler, 1)[:, 0]
        assert cv.lambda_type(pd.riemann, pd.g, pd.J, X, Y) == pytest.approx(1.0, abs=1e-9)


def test_lambda_type_kahler_vanishes(rng):
    # on a Kahler chart the two curvature terms cancel identically
    from hermgeo import frames as fr
    chart = models.instantiate("fubini_study", m=2)
    pd = cv.point_data(chart, [0.1, 0.2, -0.05, 0.12])
    sampler = fr.FrameSampler(4, 4)
    for _ in range(5):
        X, Y = chart_frames(pd.g, pd.J, sampler, 1)[:, 0]
        assert cv.lambda_type(pd.riemann, pd.g, pd.J, X, Y) == pytest.approx(0.0, abs=1e-9)


def test_random_metric_symmetries_and_traces(rng):
    worst_sym = worst_trace = 0.0
    for _ in range(10):
        chart = random_polynomial_metric(rng, 4)
        point = rng.uniform(-0.3, 0.3, size=4)
        pd = cv.point_data(chart, point)
        worst_sym = max(worst_sym, max(cv.symmetry_residuals(pd.riemann).values()))
        scale = max(np.max(np.abs(pd.riemann)), 1.0)
        worst_trace = max(worst_trace,
                          cv.weyl_trace_residual(pd.weyl, pd.g) / scale)
    assert worst_sym <= 1e-9
    assert worst_trace <= 1e-9


def test_weyl_conformal_invariance(rng):
    for _ in range(5):
        chart = random_polynomial_metric(rng, 4)
        phi = random_low_degree_poly(rng, chart.coordinates)
        rescaled = conformal_rescale(chart, phi)
        point = rng.uniform(-0.3, 0.3, size=4)
        a = cv.point_data(chart, point)
        b = cv.point_data(rescaled, point)
        c13_a = np.einsum("im,mjkl->ijkl", a.g_inv, a.weyl)
        c13_b = np.einsum("im,mjkl->ijkl", b.g_inv, b.weyl)
        assert np.max(np.abs(c13_a - c13_b)) <= 1e-7


@pytest.mark.parametrize("order", [3, 4])
def test_each_index_applies_one_matrix_to_each_tensor_of_a_stack(order, rng):
    # the stack axes are not tensor indices: one M acts on each tensor alone
    n = 4
    T = rng.normal(size=(2, 3, *(n,) * order))
    M = rng.normal(size=(n, n))
    alone = [[cv.each_index(t, M, order) for t in row] for row in T]
    np.testing.assert_allclose(cv.each_index(T, M, order), alone, rtol=1e-13, atol=0)


def test_curvature_values_match_per_row(rng):
    R4 = rng.normal(size=(5,) * 4)
    X, Y, Z, U = rng.normal(size=(4, 7, 5))
    batched = cv.curvature_values(R4, X, Y, Z, U)
    naive = np.array([np.einsum("ijkl,i,j,k,l->", R4, *quad) for quad in zip(X, Y, Z, U)])
    single = np.array([cv.curvature_value(R4, *quad) for quad in zip(X, Y, Z, U)])
    assert batched.shape == (7,)
    assert np.max(np.abs(batched - naive)) <= 1e-13 * np.max(np.abs(naive))
    assert np.max(np.abs(single - naive)) <= 1e-13 * np.max(np.abs(naive))


def test_stacked_invariants_check_every_row(rng):
    chart = models.instantiate("product_K")
    pd = cv.point_data(chart, [0.2, 0.1, 0.15, -0.1])
    R4, g, J = pd.riemann, pd.g, pd.J
    X, Y = rng.normal(size=(2, 5, 4))
    for fn, args in ((cv.sectional, (R4, g)), (cv.holomorphic_sectional, (R4, g, J)),
                     (cv.lambda_type, (R4, g, J))):
        vecs = (X,) if fn is cv.holomorphic_sectional else (X, Y)
        stacked = fn(*args, *vecs)
        rows = [fn(*args, *row) for row in zip(*vecs)]
        assert stacked.shape == (5,)
        assert np.max(np.abs(stacked - rows)) <= 1e-13 * np.max(np.abs(rows))
    Y[3] = 2.0 * X[3]
    with pytest.raises(cv.DegeneratePlaneError):
        cv.sectional(R4, g, X, Y)
    X[2] = 0.0
    with pytest.raises(cv.DegeneratePlaneError):
        cv.holomorphic_sectional(R4, g, J, X)
    with pytest.raises(cv.DegeneratePlaneError):
        cv.lambda_type(R4, g, J, X, Y)


def test_non_finite_jet_is_a_domain_error_without_warnings():
    chart = chart_from_strings("blowup", ["x", "y", "z"], [
        ["1 + 1e300*1e300*x*x", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ex.DomainError):
            cv.point_data(chart, [0.5, 0.5, 0.0])


@pytest.mark.parametrize("g01, point", [
    ("0.1*x", [0.4, 0.2]),     # the values disagree
    ("0.1*x", [0.0, 0.0]),     # the values agree, the first derivatives do not
    ("0.1*x^2", [0.0, 0.0]),   # only the second derivatives disagree
])
def test_asymmetric_metric_jet_is_rejected(g01, point):
    chart = chart_from_strings("skew", ["x", "y"], [["1", g01], ["0", "1"]])
    with pytest.raises(cv.AsymmetricMetricError,
                       match=r"^metric entries \(0,1\) and \(1,0\) disagree at "):
        cv.point_data(chart, point)


def test_a_stack_of_metrics_is_checked_at_once_and_the_first_bad_point_names_the_error():
    # three points that fail three ways, after a good one: each order of the
    # three raises what its first point raises alone, text for text
    eye = np.eye(3)
    infinite = eye.copy()
    infinite[1, 2] = np.inf                    # not finite, and asymmetric too
    singular = np.diag([1.0, 1.0, 0.0])
    skew_jet = np.zeros((3, 3, 3))
    skew_jet[2, 0, 1] = 0.5                    # d_2 g_01 != d_2 g_10
    cases = {"good": (eye, np.zeros((3, 3, 3))), "infinite": (infinite, np.zeros((3, 3, 3))),
             "skew": (eye, skew_jet), "singular": (singular, np.zeros((3, 3, 3)))}
    points = {name: [0.25 * i, -0.5, 1.0] for i, name in enumerate(cases)}
    messages = {
        "infinite": (ex.DomainError, "metric not finite at [0.25, -0.5, 1.0]"),
        "skew": (cv.AsymmetricMetricError,
                 "metric entries (0,1) and (1,0) disagree at [0.5, -0.5, 1.0]"),
        "singular": (cv.SingularMetricError,
                     "metric not positive definite at [0.75, -0.5, 1.0] (eigenvalues [0. 1. 1.])")}
    for kind, (error, message) in messages.items():
        g, dg = cases[kind]
        with pytest.raises(error) as alone:
            cv._checked_metric(points[kind], g, dg)
        assert str(alone.value) == message
    bad = list(messages)
    for order in (bad, bad[::-1], bad[1:] + bad[:1]):
        names = ["good", *order]
        g, dg = (np.array([cases[name][k] for name in names]) for k in (0, 1))
        error, message = messages[order[0]]
        with pytest.raises(error) as stacked:
            cv._checked_metric([points[name] for name in names], g, dg)
        assert str(stacked.value) == message
    g, dg = (np.array([cases["good"][k]] * 2) for k in (0, 1))
    assert cv._checked_metric([points["good"]] * 2, g, dg) is g


@pytest.mark.parametrize("name, params", [("s6_nearly_kahler", {}), ("fubini_study", {"m": 3}),
                                          ("hyperbolic", {"n": 2}), ("round_sphere", {"n": 3})])
def test_point_data_of_a_stack_is_each_point_alone(name, params):
    # every field, J's solve included, is one slice of the stacked evaluation
    chart = models.instantiate(name, **params)
    points = np.random.default_rng(4).uniform(-0.3, 0.3, size=(3, chart.dim))
    stack = cv.point_data(chart, points)
    assert stack.g.shape == (3, chart.dim, chart.dim) and stack.scalar.shape == (3,)
    for i, point in enumerate(points):
        for one in (cv.point_data(chart, point), cv.point_data(chart, [point])):
            for field, stacked in vars(stack).items():
                alone = getattr(one, field)
                if stacked is None:
                    assert alone is None
                else:
                    assert np.array_equal(stacked[i], alone.reshape(stacked.shape[1:])), field
