import numpy as np
import pytest

from conftest import (chart_frames, chart_from_strings, constancy_entries, derived_entries,
                      flat_chart, random_polynomial_metric, unitary_frames)
from hermgeo import axioms as ax
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
    out, per_point, _ = cl.classify_chart(chart, cv.point_data(chart, [[0.0] * 4]))
    checks = {c["name"]: c for c in out["checks"]}
    assert checks["j_squared"]["residual"] == 0.0
    assert checks["j_squared"]["pass"]
    assert checks["j_compatible"]["residual"] == pytest.approx(3.0)
    assert not checks["j_compatible"]["pass"]
    # no adapted frame exists there, so the frame verdicts are null at the point
    assert all(pairs == [None] for pairs in per_point.values())
    assert all(r["constant"] is None and r["pass"] is None for r in out["constancy"])


def test_nabla_j_flat_and_fubini_study(rng):
    flat = models.instantiate("flat_kahler", m=2)
    ka, nk = cl.nabla_J_residuals(flat, cv.point_data(flat, [0.3, -0.1, 0.2, 0.0]))
    assert ka == 0.0 and nk == 0.0

    fs = models.instantiate("fubini_study", m=2)
    ka, nk = cl.nabla_J_residuals(fs, cv.point_data(fs, [0.2, -0.3, 0.1, 0.15]))
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
    ka, nk = cl.nabla_J_residuals(chart, cv.point_data(chart, rng.uniform(-0.3, 0.3, size=6)))
    assert nk <= 1e-6
    assert ka > 0.1  # not Kahler


def test_nearly_kahler_s6_is_exact():
    # dJ comes from the jet of the embedding map, not from finite differences
    chart = models.instantiate("s6_nearly_kahler")
    points = np.random.default_rng(5).uniform(-0.5, 0.5, size=(5, 6))
    for point in points:
        _, nk = cl.nabla_J_residuals(chart, cv.point_data(chart, point))
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
    points = [[0.0, 0.0, 0.0, 0.0], [0.2, -0.1, 0.1, 0.3]]
    pd = cv.point_data(chart, points)
    report, _ = cl.constancy_report(chart, pd, cl.unitary_bounds(pd.riemann, pd.g, pd.J))
    by_name = {r["name"]: r for r in report}
    assert by_name["holomorphic_sectional"]["constant"] == pytest.approx(4.0, abs=1e-8)
    assert by_name["holomorphic_sectional"]["global_pass"]
    assert by_name["antiholomorphic_sectional"]["constant"] == pytest.approx(1.0, abs=1e-8)
    assert by_name["antiholomorphic_sectional"]["global_pass"]
    assert by_name["constant_type"]["constant"] == pytest.approx(0.0, abs=1e-8)


def test_constancy_fails_on_product():
    chart = models.instantiate("product_K", K=1.0)
    pd = cv.point_data(chart, [[0.1, 0.2, 0.05, -0.1]])
    report, _ = cl.constancy_report(chart, pd, cl.unitary_bounds(pd.riemann, pd.g, pd.J))
    by_name = {r["name"]: r for r in report}
    assert not by_name["holomorphic_sectional"]["pass"]


def test_classify_chart_product():
    chart = models.instantiate("product_K", K=1.0)
    out, _, _ = cl.classify_chart(chart, cv.point_data(chart, [[0.1, -0.2, 0.07, 0.03]]))
    checks = {c["name"]: c for c in out["checks"]}
    assert checks["j_squared"]["pass"]
    assert checks["j_compatible"]["pass"]
    assert checks["kahler"]["pass"]
    assert checks["nearly_kahler"]["pass"]
    assert checks["rk"]["pass"]
    assert checks["conformally_flat"]["pass"]


def test_classify_chart_s6():
    chart = models.instantiate("s6_nearly_kahler")
    out, _, _ = cl.classify_chart(chart, cv.point_data(chart, [[0.1, 0.0, -0.2, 0.3, 0.05, 0.0]]))
    checks = {c["name"]: c for c in out["checks"]}
    assert not checks["kahler"]["pass"]
    assert checks["nearly_kahler"]["pass"]
    assert checks["conformally_flat"]["pass"]


def test_classify_deterministic():
    chart = models.instantiate("fubini_study", m=2)
    a, _, _ = cl.classify_chart(chart, cv.point_data(chart, [[0.1, 0.2, 0.0, -0.1]]))
    b, _, _ = cl.classify_chart(chart, cv.point_data(chart, [[0.1, 0.2, 0.0, -0.1]]))
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


def _exact_verdicts(R4, g, J):
    """(means, bounds) of the constancy invariants and bounds of the
    identities of one tensor R4 at a compatible pair (g, J)."""
    n = len(g)
    bounds = cl.unitary_bounds(R4, g, J)
    pd = cv.PointData(point=np.zeros(n), g=g, g_inv=np.linalg.inv(g), J=J, dJ=None, gamma=None,
                      riemann=R4, ricci=None, scalar=cv.ricci_scalar(R4, g)[1], weyl=None)
    return cl._means(pd), bounds


def _sampled_deviations(R4, g, J, means, count=10_000, seed=3):
    """{verdict: largest sampled deviation} over ``count`` admissible frames:
    |H(X) - mean|, |K(X, Y) - mean|, |lambda(X, Y) - mean| through the
    curvature oracles, and |identity| for each identity entry."""
    n = len(g)
    frame = chart_frames(g, J, fr.FrameSampler(seed, n), count, min(n // 2, 4))
    X, Y = frame[0], frame[1]
    out = {"holomorphic_sectional": cv.holomorphic_sectional(R4, g, J, X),
           "antiholomorphic_sectional": cv.sectional(R4, g, X, Y),
           "constant_type": cv.lambda_type(R4, g, J, X, Y)}
    out = {name: float(np.max(np.abs(v - means[name]))) for name, v in out.items()}
    for name, *terms in ax._identities(J, frame) + derived_entries(J, frame):
        values = [cv.curvature_values(R4, *quad) for quad in terms]
        value = values[0] - values[1] if len(terms) == 2 else values[0]
        out[name] = max(out.get(name, 0.0), float(np.max(np.abs(value))))
    return out


def _compatible_pair(rng, n):
    """A random metric g = L L^T and J = L^-T J0 L^T, compatible with it."""
    A = rng.normal(size=(n, n)) * 0.3 + np.eye(n)
    g = A @ A.T
    L = np.linalg.cholesky(g)
    return g, np.linalg.inv(L).T @ canonical_j(n) @ L.T


@pytest.mark.parametrize("n", [4, 6])
def test_exact_bounds_hold_on_10000_sampled_frames(n, rng):
    # a random algebraic curvature tensor satisfies none of the verdicts
    g, J = _compatible_pair(rng, n)
    R4 = ax._tensors(ax.curvature_space(n), rng.normal(size=ax.curvature_space_dim(n)))
    means, bounds = _exact_verdicts(R4, g, J)
    sampled = _sampled_deviations(R4, g, J, means)
    assert sampled.keys() == bounds.keys()
    for name, deviation in sampled.items():
        assert 1e-3 < deviation <= bounds[name] * (1 + 1e-12), name


@pytest.mark.parametrize("perturbation", ["product_K", "random"])
def test_constancy_bounds_scale_with_a_perturbation(perturbation, rng):
    # FS plus eps times product_K's tensor at a point or a random algebraic
    # curvature tensor: every bound holds and, where the invariant varies,
    # grows with eps as the sampled deviation does
    fs = models.instantiate("fubini_study", m=2)
    pd = cv.point_data(fs, [0.1, -0.2, 0.15, 0.05])
    P = (cv.point_data(models.instantiate("product_K", K=1.0), [0.2, 0.1, -0.1, 0.05]).riemann
         if perturbation == "product_K" else ax._tensors(ax.curvature_space(4), rng.normal(size=20)))
    runs = []
    for eps in (1e-6, 1e-3, 2e-3):
        R4 = pd.riemann + eps * P
        means, bounds = _exact_verdicts(R4, pd.g, pd.J)
        sampled = _sampled_deviations(R4, pd.g, pd.J, means)
        for name in ax.CONSTANCY:
            assert sampled[name] <= bounds[name] * (1 + 1e-12), (eps, name)
        runs.append((bounds, sampled))
    varying = [name for name in ax.CONSTANCY if runs[0][0][name] > 1e-8]
    assert "holomorphic_sectional" in varying
    assert perturbation == "product_K" or varying == list(ax.CONSTANCY)
    for name in varying:
        for side in (0, 1):  # the bounds, then the sampled deviations
            small, mid, large = (run[side][name] for run in runs)
            assert mid / small == pytest.approx(1e3, rel=1e-5), (name, side)
            assert large / mid == pytest.approx(2, rel=1e-5), (name, side)


def _largest_sampled_nk(chart, pd, count=10_000):
    """max g-norm of (nabla_X J) X over ``count`` sampled g-unit X."""
    X = fr.FrameSampler(8, chart.dim).draw(count)
    X /= np.sqrt(np.sum((X @ pd.g) * X, axis=-1))[:, None]
    v = np.einsum("kij,sk,sj->si", cl.nabla_j(chart, pd), X, X)
    return float(np.sqrt(np.max(np.sum((v @ pd.g) * v, axis=-1))))


def test_nabla_J_residuals_match_per_sample_loop(rng):
    # a chart that is not nearly Kahler: the bound holds for every sampled
    # unit X and is at most n times the largest sample
    chart = _hermitian_random_chart(rng, 4)
    pd = cv.point_data(chart, rng.uniform(-0.3, 0.3, size=4))
    assert np.array_equal(pd.dJ, chart.dj_at(pd.point))
    kahler, nk = cl.nabla_J_residuals(chart, pd)
    worst = _largest_sampled_nk(chart, pd)
    assert kahler == float(np.max(np.abs(cl.nabla_j(chart, pd)))) and kahler > 1e-3
    assert 1e-3 < worst <= nk * (1 + 1e-12) and nk <= chart.dim * worst


def test_nearly_kahler_bound_on_s6(rng):
    chart = models.instantiate("s6_nearly_kahler")
    pd = cv.point_data(chart, rng.uniform(-0.3, 0.3, size=6))
    _, nk = cl.nabla_J_residuals(chart, pd)
    assert _largest_sampled_nk(chart, pd) <= nk + 1e-15 and nk <= 1e-14


def test_means_are_the_functional_on_the_invariant_part(rng):
    # the constant of each invariant is its value, at any frame of its kind,
    # on the projection of R (in the adapted frame) onto the U(m)-invariant
    # tensors, spanned by the constant-curvature tensor and the projected
    # omega (x) omega: the rest averages to zero over the frames
    for n in (4, 6):
        g, J = _compatible_pair(rng, n)
        R4 = ax._tensors(ax.curvature_space(n), rng.normal(size=ax.curvature_space_dim(n)))
        means, _ = _exact_verdicts(R4, g, J)
        E = fr.adapted_frames(g, J)
        RE = np.einsum("ijkl,ia,jb,kc,ld->abcd", R4, E, E, E, E)
        eye, w = np.eye(n), canonical_j(n)
        invariant = [np.einsum("il,jk->ijkl", eye, eye) - np.einsum("ik,jl->ijkl", eye, eye),
                     np.einsum("ij,kl->ijkl", w, w)]
        basis = np.linalg.qr(ax.curvature_basis(n) @ np.reshape(invariant, (2, -1)).T)[0]
        part = ax._tensors(ax.curvature_space(n), basis @ (basis.T @ ax.curvature_basis(n) @ RE.ravel()))
        frame = unitary_frames(n, 3, rng)
        for name, *terms in constancy_entries(w, frame):
            values = [cv.curvature_values(part, *quad) for quad in terms]
            value = values[0] - values[1] if len(values) == 2 else values[0]
            assert np.max(np.abs(value - means[name])) <= 1e-12, (n, name)


def test_unitary_bounds(rng):
    g, J = _compatible_pair(rng, 6)
    E = fr.adapted_frames(g, J)
    assert np.max(np.abs(E.T @ g @ E - np.eye(6))) <= 1e-13
    assert np.max(np.abs(np.linalg.solve(E, J @ E) - canonical_j(6))) <= 1e-13
    Q = ax.unitary_basis(6)
    assert np.max(np.abs(Q.conj().T @ Q - np.eye(6))) <= 1e-15
    assert np.max(np.abs(canonical_j(6) @ Q[:, :3] - 1j * Q[:, :3])) <= 1e-15
    R4 = ax._tensors(ax.curvature_space(6), rng.normal(size=105))
    F = E @ Q
    T = np.einsum("ijkl,ia,jb,kc,ld->abcd", R4, F, F, F, F)
    got, want = cl.unitary_bounds(R4, g, J), ax.verdict_bounds(T)
    assert got.keys() == want.keys()
    assert all(got[name] == pytest.approx(want[name], rel=1e-12) for name in want)
    # the pieces and the two copies of each repeated type split |R| in E
    squares, adjoint, trivial = ax._pieces(T)
    RE = np.einsum("ijkl,ia,jb,kc,ld->abcd", R4, E, E, E, E)
    total = (np.sum(squares) + sum(np.sum(np.abs(w) ** 2) for w in adjoint)
             + sum(abs(t) ** 2 for t in trivial))
    assert total == pytest.approx(np.sum(RE ** 2), rel=1e-13)
    # a stack gives each pair its own frame
    stack = np.stack([g, np.eye(6)]), np.stack([J, canonical_j(6)])
    assert np.array_equal(fr.adapted_frames(*stack)[0], E)
    assert np.array_equal(fr.adapted_frames(*stack)[1], np.eye(6))
    # no unitary frame where J fails j_squared or j_compatible, none in odd dimension
    assert all(np.isnan(v) for v in cl.unitary_bounds(R4, g, 1.01 * J).values())
    assert cl.unitary_bounds(np.zeros((5,) * 4), np.eye(5), np.eye(5)) == {}


@pytest.mark.parametrize("name, params", [("s6_nearly_kahler", {}), ("fubini_study", {"m": 2}),
                                          ("flat_kahler", {"m": 1})])
def test_stacked_verdicts_equal_per_point_verdicts(name, params):
    # one stack of points gives each point the verdicts it gets alone
    chart = models.instantiate(name, **params)
    points = np.random.default_rng(6).uniform(-0.3, 0.3, size=(3, chart.dim))
    stack = cv.point_data(chart, points)
    ones = [cv.point_data(chart, point) for point in points]
    assert cl.nabla_J_residuals(chart, stack) == tuple(
        max(r) for r in zip(*[cl.nabla_J_residuals(chart, pd) for pd in ones]))
    _, per_point, _ = cl.classify_chart(chart, stack)
    alone = [cl.classify_chart(chart, pd)[1] for pd in ones]
    for key, pairs in per_point.items():
        assert pairs == [one[key][0] for one in alone]
        assert (pairs == [None] * 3) == (chart.dim == 2 and key != "holomorphic_sectional")


@pytest.mark.parametrize("name, params, count", [("fubini_study", {"m": 2}, 1),
                                                 ("flat_kahler", {"m": 1}, 3)])
def test_classify_chart_of_a_stack(name, params, count):
    # one point, and a 2-dimensional chart (no antiholomorphic pairs)
    chart = models.instantiate(name, **params)
    points = np.random.default_rng(2).uniform(-0.3, 0.3, size=(count, chart.dim))
    report, per_point, _ = cl.classify_chart(chart, cv.point_data(chart, points))
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
                  lambda: cl.constancy_report(chart, pd, {}),
                  lambda: cl.nabla_J_residuals(chart, pd)):
        with pytest.raises(cl.MissingStructureError):
            check()
