"""Second fundamental form, mean curvature, and the normal-component
curvature equations for immersed submanifolds.

Three classical examples: the round sphere in flat space (totally umbilical
with parallel mean curvature), a cylinder (not umbilical), and a geodesic
sphere inside the round 3-sphere (umbilical again, in a curved ambient).
"""

import numpy as np

from hermgeo import curvature as cv
from hermgeo import expressions as ex
from hermgeo import immersions as im
from hermgeo import models


def make(coords, target, exprs):
    return im.Immersion(coordinates=coords, target=target,
                        map_exprs=[ex.parse(s, coords) for s in exprs])


def flat(n):
    coords = [f"x{i + 1}" for i in range(n)]
    metric = [[ex.parse("1" if i == j else "0", coords) for j in range(n)]
              for i in range(n)]
    return cv.ManifoldChart(name=f"flat{n}", coordinates=coords, metric=metric)


def describe(label, imm, u):
    data = im.second_fundamental_form(imm, u)
    dh = float(np.max(np.abs(im.normal_connection_DH(data))))
    r21, r22 = im.codazzi_residuals(data)
    print(f"{label}:")
    print(f"    |H| = {data.mean_curvature_norm:.6f}   umbilicity residual = {data.umbilicity:.2e}")
    print(f"    max|D_X H| = {dh:.2e}")
    print(f"    curvature eq residual       = {r21:.2e}")
    if data.umbilicity > 1e-8:  # the CLI's default --tol
        print("    umbilical reduction         = n/a (point not umbilical)")
    else:
        print(f"    umbilical reduction residual = {r22:.2e}")
    print()


def main():
    r3 = flat(3)
    sphere = make(["u", "v"], r3,
                  ["2*sin(u)*cos(v)", "2*sin(u)*sin(v)", "2*cos(u)"])
    describe("radius-2 sphere in R^3 (|H| should be 1/2)", sphere, [0.8, 0.4])

    cylinder = make(["u", "v"], r3, ["cos(u)", "sin(u)", "v"])
    describe("unit cylinder in R^3", cylinder, [0.3, 0.7])

    s3 = models.instantiate("round_sphere", n=3, r=1.0)
    geodesic = make(["u", "v"], s3,
                    ["0.5*sin(u)*cos(v)", "0.5*sin(u)*sin(v)", "0.5*cos(u)"])
    describe("geodesic sphere in round S^3", geodesic, [1.0, 0.7])

    # the exact pullback chart reproduces the intrinsic curvature
    induced = sphere.induced_chart()
    point = [0.9, 0.5]
    g, _, R4 = cv.riemann(induced, point)
    K = cv.sectional(R4, g, np.eye(2)[0], np.eye(2)[1])
    print(f"intrinsic sectional curvature of the radius-2 sphere: {K:.6f}"
          f" (expected 0.25)")


if __name__ == "__main__":
    main()
