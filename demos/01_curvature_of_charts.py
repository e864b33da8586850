"""Curvature invariants of coordinate charts, from expression strings.

A chart is a list of coordinate names plus a matrix of metric components
given as expression strings; everything downstream (Christoffel symbols,
curvature, Ricci, Weyl) is differentiated exactly on the expression trees.
"""

import numpy as np

from hermgeo import curvature as cv
from hermgeo import expressions as ex


def chart(name, coords, entries):
    metric = [[ex.parse(s, coords) for s in row] for row in entries]
    return cv.ManifoldChart(name=name, coordinates=coords, metric=metric)


def main():
    # the unit 2-sphere in polar coordinates
    s2 = chart("s2", ["t", "p"], [["1", "0"], ["0", "sin(t)^2"]])
    point = [np.pi / 3, 0.2]
    g, _, R4 = cv.riemann(s2, point)
    K = cv.sectional(R4, g, np.eye(2)[0], np.eye(2)[1])
    _, s = cv.ricci_scalar(R4, g)
    print(f"unit sphere: sectional={K:+.6f} scalar={s:+.6f}")

    # the Poincare disk: constant curvature -1
    h2 = chart("h2", ["x", "y"],
               [["4/(1 - x^2 - y^2)^2", "0"], ["0", "4/(1 - x^2 - y^2)^2"]])
    point = [0.3, -0.1]
    g, _, R4 = cv.riemann(h2, point)
    K = cv.sectional(R4, g, np.eye(2)[0], np.eye(2)[1])
    print(f"hyperbolic plane: sectional={K:+.6f}")

    # a conformally flat 4-metric has vanishing Weyl tensor
    coords = ["x1", "x2", "x3", "x4"]
    f = "exp(2*(0.3*x1 - 0.2*x2 + 0.1*x3*x4))"
    cf = chart("conf_flat", coords,
               [[f if i == j else "0" for j in range(4)] for i in range(4)])
    pd = cv.point_data(cf, [0.1, 0.2, -0.1, 0.3])
    print(f"conformally flat 4-chart: max|Weyl| = {np.max(np.abs(pd.weyl)):.3e}")

    # ...while a generic perturbed metric does not
    rng = np.random.default_rng(0)
    entries = [["1 " if i == j else "0" for j in range(4)] for i in range(4)]
    for i in range(4):
        entries[i][i] = f"1 + {rng.uniform(0.05, 0.15):.3f}*x{i + 1}^2"
    generic = chart("generic", coords, entries)
    pd = cv.point_data(generic, [0.3, 0.1, -0.2, 0.25])
    print(f"generic 4-chart:          max|Weyl| = {np.max(np.abs(pd.weyl)):.3e}")


if __name__ == "__main__":
    main()
