import dataclasses

import numpy as np
import pytest

from conftest import chart_from_strings, flat_chart
from hermgeo import curvature as cv
from hermgeo import expressions as ex
from hermgeo import frames as fr
from hermgeo import immersions as im
from hermgeo import models


def make_immersion(coords, target, exprs):
    return im.Immersion(coordinates=coords, target=target,
                        map_exprs=[ex.parse(s, coords) for s in exprs])


def sphere_in_r3(r):
    return make_immersion(
        ["u", "v"], flat_chart(3),
        [f"{r!r}*sin(u)*cos(v)", f"{r!r}*sin(u)*sin(v)", f"{r!r}*cos(u)"])


def cylinder_in_r3(r):
    return make_immersion(
        ["u", "v"], flat_chart(3),
        [f"{r!r}*cos(u)", f"{r!r}*sin(u)", "v"])


def test_induced_metric_sphere():
    imm = sphere_in_r3(2.0)
    u = [0.7, 0.3]
    G = im.second_fundamental_form(imm, u).induced
    oracle = np.diag([4.0, 4.0 * np.sin(0.7) ** 2])
    assert np.max(np.abs(G - oracle)) < 1e-12
    # the exact symbolic pullback chart agrees
    chart = imm.induced_chart()
    assert np.max(np.abs(chart.metric_at(u) - oracle)) < 1e-12


def test_induced_chart_curvature():
    # pullback chart of the radius-2 sphere has sectional curvature 1/4
    imm = sphere_in_r3(2.0)
    chart = imm.induced_chart()
    point = [0.9, 0.5]
    _, _, R4 = cv.riemann(chart, point)
    g = chart.metric_at(point)
    assert cv.sectional(R4, g, np.eye(2)[0], np.eye(2)[1]) == pytest.approx(0.25, abs=1e-10)


def test_rank_deficiency():
    imm = make_immersion(["u", "v"], flat_chart(3), ["u", "u", "2*u"])
    with pytest.raises(fr.RankDeficiencyError):
        imm.map_jets([0.3, 0.1])


def test_sphere_mean_curvature_and_umbilicity():
    imm = sphere_in_r3(2.0)
    data = im.second_fundamental_form(imm, [0.8, 0.4])
    g_amb = np.eye(3)
    H = data.mean_curvature
    assert np.sqrt(H @ g_amb @ H) == pytest.approx(0.5, abs=1e-10)
    assert data.umbilicity <= 1e-10
    # H is normal: orthogonal to both pushforward columns
    for a in range(2):
        assert abs(H @ g_amb @ data.tangent[:, a]) < 1e-10


def test_sphere_alpha_oracle():
    # alpha(a,b) = -(1/r) G_ab n for the outward-normal round sphere
    r = 2.0
    imm = sphere_in_r3(r)
    u = [0.8, 0.4]
    data = im.second_fundamental_form(imm, u)
    n = data.point / r  # outward unit normal
    oracle = -np.einsum("ab,l->abl", data.induced, n) / r
    assert np.max(np.abs(data.alpha - oracle)) < 1e-10


def test_plane_totally_geodesic():
    imm = make_immersion(["u", "v"], flat_chart(3), ["u", "v", "0.3*u + 0.1*v"])
    data = im.second_fundamental_form(imm, [0.2, -0.5])
    assert np.max(np.abs(data.alpha)) <= 1e-12
    assert np.max(np.abs(data.mean_curvature)) <= 1e-12


def test_cylinder_not_umbilical():
    imm = cylinder_in_r3(1.0)
    data = im.second_fundamental_form(imm, [0.3, 0.7])
    assert data.umbilicity > 0.5


def test_normal_connection_sphere():
    imm = sphere_in_r3(2.0)
    dh = im.normal_connection_DH(im.second_fundamental_form(imm, [0.9, 0.2]))
    for a in range(2):
        assert np.max(np.abs(dh[a])) <= 1e-13


def test_codazzi_sphere():
    imm = sphere_in_r3(2.0)
    r21, r22 = im.codazzi_residuals(im.second_fundamental_form(imm, [0.8, 0.4]))
    assert r21 <= 1e-13
    assert r22 <= 1e-13


def test_codazzi_cylinder_umbilical_form_holds_without_umbilicity():
    # the cylinder is not umbilical, but D H = 0 and R = 0 make both sides vanish
    imm = cylinder_in_r3(1.0)
    r21, r22 = im.codazzi_residuals(im.second_fundamental_form(imm, [0.3, 0.7]))
    assert r21 <= 1e-13
    assert r22 <= 1e-13


def geodesic_sphere_in_s3():
    # coordinate sphere in the stereographic chart of S^3 is a geodesic
    # sphere: umbilical with parallel mean curvature
    return make_immersion(
        ["u", "v"], models.instantiate("round_sphere", n=3, r=1.0),
        ["0.5*sin(u)*cos(v)", "0.5*sin(u)*sin(v)", "0.5*cos(u)"])


def test_codazzi_geodesic_sphere_in_round_three_sphere():
    imm = geodesic_sphere_in_s3()
    u = [1.0, 0.7]
    data = im.second_fundamental_form(imm, u)
    assert data.umbilicity <= 1e-8
    dh = im.normal_connection_DH(data)[0]
    assert np.max(np.abs(dh)) <= 1e-13
    r21, r22 = im.codazzi_residuals(data)
    assert r21 <= 1e-13
    assert r22 <= 1e-13



@pytest.mark.parametrize("make", [lambda: sphere_in_r3(2.0), lambda: cylinder_in_r3(1.0),
                                  geodesic_sphere_in_s3],
                         ids=["sphere", "cylinder", "geodesic_sphere"])
def test_a_stack_of_points_is_each_point_alone(make):
    imm = make()
    N, k = imm.target.dim, imm.k
    one_point_shapes = {
        "point": (N,), "tangent": (N, k), "induced": (k, k), "alpha": (k, k, N),
        "mean_curvature": (N,), "mean_curvature_norm": (), "umbilicity": (),
        "normal_projector": (N, N), "induced_gamma": (k, k, k), "dalpha": (k, k, k, N),
        "dmean": (k, N), "ambient_metric": (N, N), "ambient_metric_inv": (N, N),
        "ambient_gamma": (N, N, N), "ambient_riemann": (N, N, N, N)}
    points = np.array([[0.8, 0.4], [1.0, 0.7], [0.3, -0.5]])
    stack = im.second_fundamental_form(imm, points)
    alone = [im.second_fundamental_form(imm, u) for u in points]

    def same(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    assert sorted(one_point_shapes) == sorted(f.name for f in dataclasses.fields(stack))
    for name, shape in one_point_shapes.items():
        assert np.shape(getattr(alone[0], name)) == shape, name
        same(getattr(stack, name), np.array([getattr(d, name) for d in alone]))
    assert im.normal_connection_DH(alone[0]).shape == (k, N)
    same(im.normal_connection_DH(stack), np.array([im.normal_connection_DH(d) for d in alone]))
    assert [np.shape(r) for r in im.codazzi_residuals(alone[0])] == [(), ()]
    for got, want in zip(im.codazzi_residuals(stack),
                         zip(*(im.codazzi_residuals(d) for d in alone))):
        same(got, np.array(want))
def test_curve_immersion_in_surface():
    # one-dimensional submanifold: a great circle of the round 2-sphere
    target = models.instantiate("round_sphere", n=2, r=1.0)
    imm = make_immersion(["t"], target, ["cos(t)", "sin(t)"])
    data = im.second_fundamental_form(imm, [0.4])
    # the equator through the chart origin has |alpha| = 0 only for a
    # geodesic; the coordinate unit circle is the equator, H should vanish
    g_amb = target.metric_at(data.point)
    H = data.mean_curvature
    assert np.sqrt(max(H @ g_amb @ H, 0.0)) <= 1e-8


def bumpy_surface():
    # a generic surface in a curved 4-d chart whose metric has no zero entry
    coords = ["x1", "x2", "x3", "x4"]
    metric = [[ex.parse((f"1.5 + 0.2*{coords[i]}^2 + " if i == j else "")
                        + f"0.1*sin({coords[i]}*{coords[j]} + 0.3)", coords)
               for j in range(4)] for i in range(4)]
    target = cv.ManifoldChart(name="bumpy4", coordinates=coords, metric=metric)
    return make_immersion(["u", "v"], target, [
        "u + 0.2*v^2", "v - 0.1*u*v", "0.3*u^2 + 0.1*u*v", "0.5*sin(u)*cos(v)"])


def richardson_oracle(field, u, h=1e-3):
    """d_c field at u for each coordinate c: central differences at steps h
    and h/2, Richardson-extrapolated (error O(h^4))."""
    out = []
    for e in np.eye(len(u)):
        wide = (field(u + h * e) - field(u - h * e)) / (2 * h)
        narrow = (field(u + h / 2 * e) - field(u - h / 2 * e)) / h
        out.append((4 * narrow - wide) / 3)
    return np.array(out)


def test_closed_form_derivatives_match_oracles():
    imm = bumpy_surface()
    u = np.array([0.3, -0.4])
    data = im.second_fundamental_form(imm, u)
    assert data.umbilicity > 0.1 and np.max(np.abs(data.alpha)) > 0.1
    dalpha = richardson_oracle(lambda v: im.second_fundamental_form(imm, v).alpha, u)
    dmean = richardson_oracle(
        lambda v: im.second_fundamental_form(imm, v).mean_curvature, u)
    assert np.max(np.abs(data.dalpha - dalpha)) <= 1e-9
    assert np.max(np.abs(data.dmean - dmean)) <= 1e-9
    # Gauss formula against the symbolic pullback chart
    gamma = cv.christoffel(imm.induced_chart(), u)
    assert np.max(np.abs(data.induced_gamma - gamma)) <= 1e-13
    # the first normal-component equation holds for every immersion, the
    # umbilical reduction fails at this non-umbilical point
    r21, r22 = im.codazzi_residuals(data)
    assert r21 <= 1e-13 and r22 > 0.1


def test_map_jets_third_derivatives():
    imm = bumpy_surface()
    u = np.array([0.3, -0.4])
    third = imm.map_jets(u)[3]
    oracle = richardson_oracle(lambda v: imm.map_jets(v)[2], u)  # [c, p, a, b]
    assert np.max(np.abs(np.moveaxis(third, 3, 0) - oracle)) <= 1e-9
    # d_u d_u d_v of 0.5*sin(u)*cos(v)
    assert third[3, 0, 0, 1] == pytest.approx(0.5 * np.sin(0.3) * np.sin(-0.4), abs=1e-15)


def test_asymmetric_target_metric_is_rejected():
    target = chart_from_strings("skew", ["x", "y"], [["1", "0.1*x"], ["0", "1"]])
    imm = make_immersion(["u"], target, ["u", "0.5*u"])
    with pytest.raises(cv.AsymmetricMetricError, match="disagree"):
        im.second_fundamental_form(imm, [0.3])
