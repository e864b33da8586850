"""Acceptance gate: the seven top-level criteria, one pass/fail line each.

Run as ``pytest -s tests/test_acceptance.py`` to see the lines live; each
criterion is a single test so the suite summary mirrors the gate.
"""

import contextlib
import io
import time

import numpy as np

from conftest import (chart_frames, conformal_rescale, random_low_degree_poly,
                      random_polynomial_metric)
from hermgeo import axioms as ax
from hermgeo import classify as cl
from hermgeo import cli
from hermgeo import curvature as cv
from hermgeo import expressions as ex
from hermgeo import frames as fr
from hermgeo import immersions as im
from hermgeo import models


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def test_criterion_1_theorem_certificate():
    t0 = time.perf_counter()
    rep2 = ax.theorem_nullspace_verify(2, fr.FrameSampler(0, 4))
    t2 = time.perf_counter() - t0
    t0 = time.perf_counter()
    rep3 = ax.theorem_nullspace_verify(3, fr.FrameSampler(0, 6))
    t3 = time.perf_counter() - t0
    ok = (t2 < 60 and t3 < 60
          and rep2["max_weyl"] <= 1e-8 and rep3["max_weyl"] <= 1e-8
          and rep3["derived_residuals"]["3.4"] <= 1e-9
          and rep3["derived_residuals"]["quadruple"] <= 1e-9)
    _report("criterion 1: theorem certificate (m=2, m=3)", ok,
            f"weyl m2={rep2['max_weyl']:.2e} m3={rep3['max_weyl']:.2e}, "
            f"derived 3.4={rep3['derived_residuals']['3.4']:.2e} "
            f"quad={rep3['derived_residuals']['quadruple']:.2e}, "
            f"times {t2:.1f}s/{t3:.1f}s")


def test_criterion_2_quadruple_nullspace():
    ok = True
    details = []
    for n in (4, 5, 6):
        rep = ax.schouten_nullspace_verify(n, fr.FrameSampler(0, n))
        basis, null = ax.curvature_basis(n), ax._products(n)[0]
        # independently constructed {h (*) g} space in the same coordinates
        span = []
        for i in range(n):
            for j in range(i, n):
                h = np.zeros((n, n))
                h[i, j] = h[j, i] = 1.0
                span.append(basis @ cv.kulkarni_nomizu(h, np.eye(n)).reshape(-1))
        span = np.linalg.qr(np.array(span).T)[0]
        both = max(float(np.max(np.abs(null - span @ (span.T @ null)))),
                   float(np.max(np.abs(span - null @ (null.T @ span)))))
        # the certificate is what proves that the rows vanish on exactly K
        ok = ok and rep["pass"] and rep["nullspace_dim"] == n * (n + 1) // 2 \
            and rep["max_weyl"] <= 1e-8 and both <= 1e-9
        details.append(f"n={n}: dim={rep['nullspace_dim']} "
                       f"weyl={rep['max_weyl']:.2e} contain={both:.2e}")
    _report("criterion 2: orthonormal-quadruple null space = {h*g}", ok,
            "; ".join(details))


def test_criterion_3_product_vs_projective():
    prod = models.instantiate("product_K", K=1.0)
    points = [[0.1, -0.2, 0.07, 0.03], [0.0, 0.0, 0.0, 0.0]]
    kahler = scalar = weyl = ident_prod = 0.0
    for p in points:
        pd = cv.point_data(prod, p)
        ka, _ = cl.nabla_J_residuals(prod, pd)
        kahler = max(kahler, ka)
        scalar = max(scalar, abs(pd.scalar))
        weyl = max(weyl, float(np.max(np.abs(pd.weyl))))
        res = ax.proof_identity_residuals(cl.unitary_bounds(pd.riemann, pd.g, pd.J))
        ident_prod = max(ident_prod, max(v for v in res.values() if v is not None))

    cp2 = models.instantiate("fubini_study", m=2)
    pd = cv.point_data(cp2, [0.1, 0.2, -0.1, 0.05])
    cp2_weyl = float(np.max(np.abs(pd.weyl)))
    res = ax.proof_identity_residuals(cl.unitary_bounds(pd.riemann, pd.g, pd.J))
    cp2_ident = max(v for v in res.values() if v is not None)

    ok = (kahler <= 1e-9 and scalar <= 1e-9 and weyl <= 1e-8
          and ident_prod <= 1e-8 and cp2_weyl > 0.1 and cp2_ident > 1e-3)
    _report("criterion 3: product passes, projective plane fails", ok,
            f"product kahler={kahler:.2e} |s|={scalar:.2e} weyl={weyl:.2e} "
            f"ident={ident_prod:.2e}; CP2 weyl={cp2_weyl:.2e} ident={cp2_ident:.2e}")


def test_criterion_4_six_sphere():
    chart = models.instantiate("s6_nearly_kahler", r=1.0)
    rng = np.random.default_rng(0)
    sampler = fr.FrameSampler(0, 6)
    nk = sect_err = alpha_err = 0.0
    kahler = np.inf
    for _ in range(3):
        point = rng.uniform(-0.3, 0.3, size=6)
        pd = cv.point_data(chart, point)
        ka, nka = cl.nabla_J_residuals(chart, pd)
        kahler = min(kahler, ka)
        nk = max(nk, nka)
        for _ in range(16):
            X, Y = fr.sample_orthonormal_set(pd.g, 2, sampler)
            sect_err = max(sect_err, abs(cv.sectional(pd.riemann, pd.g, X, Y) - 1.0))
            X, Y = chart_frames(pd.g, pd.J, sampler, 1)[:, 0]
            alpha_err = max(alpha_err,
                            abs(cv.lambda_type(pd.riemann, pd.g, pd.J, X, Y) - 1.0))
    ok = nk <= 1e-6 and kahler > 0.1 and sect_err <= 1e-6 and alpha_err <= 1e-6
    _report("criterion 4: six-sphere invariants", ok,
            f"nk={nk:.2e} kahler={kahler:.2e} |K-1|={sect_err:.2e} "
            f"|alpha-1|={alpha_err:.2e}")


def _immersion(target, coords, exprs):
    return im.Immersion(coordinates=coords, target=target,
                        map_exprs=[ex.parse(s, coords) for s in exprs])


def test_criterion_5_submanifolds():
    from conftest import flat_chart
    flat3 = flat_chart(3)
    r = 2.0
    sphere = _immersion(flat3, ["u", "v"],
                        [f"{r}*sin(u)*cos(v)", f"{r}*sin(u)*sin(v)", f"{r}*cos(u)"])
    u0 = [0.8, 0.4]
    data = im.second_fundamental_form(sphere, u0)
    H = data.mean_curvature
    h_err = abs(np.sqrt(H @ H) - 1.0 / r)
    dh = float(np.max(np.abs(im.normal_connection_DH(data))))
    _, r22 = im.codazzi_residuals(data)

    cylinder = _immersion(flat3, ["u", "v"], ["cos(u)", "sin(u)", "v"])
    cyl = im.second_fundamental_form(cylinder, [0.3, 0.7])

    s3 = models.instantiate("round_sphere", n=3, r=1.0)
    geo = _immersion(s3, ["u", "v"],
                     ["0.5*sin(u)*cos(v)", "0.5*sin(u)*sin(v)", "0.5*cos(u)"])
    _, geo_r22 = im.codazzi_residuals(im.second_fundamental_form(geo, [1.0, 0.7]))

    ok = (h_err <= 1e-8 and data.umbilicity <= 1e-10 and dh <= 1e-13
          and r22 is not None and r22 <= 1e-13
          and cyl.umbilicity > 1e-10
          and geo_r22 is not None and geo_r22 <= 1e-13)
    _report("criterion 5: submanifold suite", ok,
            f"sphere |H|-1/r={h_err:.2e} umb={data.umbilicity:.2e} "
            f"DH={dh:.2e} eq2.2={r22 if r22 is None else f'{r22:.2e}'}; "
            f"cylinder umb={cyl.umbilicity:.2e}; geodesic sphere "
            f"eq2.2={geo_r22 if geo_r22 is None else f'{geo_r22:.2e}'}")


def test_criterion_6_random_metric_properties():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_sym = worst_trace = worst_conf = 0.0
    for _ in range(50):
        chart = random_polynomial_metric(rng, 4)
        point = rng.uniform(-0.3, 0.3, size=4)
        pd = cv.point_data(chart, point)
        worst_sym = max(worst_sym, max(cv.symmetry_residuals(pd.riemann).values()))
        scale = max(float(np.max(np.abs(pd.riemann))), 1.0)
        worst_trace = max(worst_trace,
                          cv.weyl_trace_residual(pd.weyl, pd.g) / scale)
        phi = random_low_degree_poly(rng, chart.coordinates)
        pd2 = cv.point_data(conformal_rescale(chart, phi), point)
        c13_a = np.einsum("im,mjkl->ijkl", pd.g_inv, pd.weyl)
        c13_b = np.einsum("im,mjkl->ijkl", pd2.g_inv, pd2.weyl)
        worst_conf = max(worst_conf, float(np.max(np.abs(c13_a - c13_b))))
    elapsed = time.perf_counter() - t0
    ok = (worst_sym <= 1e-9 and worst_trace <= 1e-9 and worst_conf <= 1e-7
          and elapsed < 120)
    _report("criterion 6: random-metric curvature properties (50 charts)", ok,
            f"sym={worst_sym:.2e} trace={worst_trace:.2e} "
            f"conformal={worst_conf:.2e} time={elapsed:.1f}s")


def test_criterion_7_determinism(tmp_path):
    from hermgeo import reportio

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    path = tmp_path / "s6.json"
    chart = models.instantiate("s6_nearly_kahler")
    path.write_text(reportio.dump_report(reportio.chart_to_dict(chart)),
                    encoding="utf-8")
    outputs = []
    for argv in (
        ["analyze", str(path), "--seed", "11",
         "--point", "0.1,0.0,-0.2,0.3,0.05,0.0"],
        ["verify-theorem", "--m", "2", "--seed", "5"],
        ["models", "list"],
    ):
        code_a, out_a = run(list(argv))
        code_b, out_b = run(list(argv))
        outputs.append(code_a == code_b == 0 and out_a == out_b and len(out_a) > 0)
    ok = all(outputs)
    _report("criterion 7: byte-identical reports under a fixed seed", ok,
            f"checked {len(outputs)} commands")
