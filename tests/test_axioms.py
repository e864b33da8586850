import numpy as np
import pytest

from conftest import random_polynomial_metric
from hermgeo import axioms as ax
from hermgeo import curvature as cv
from hermgeo import frames as fr
from hermgeo import models


def test_curvature_space_dim():
    assert ax.curvature_space_dim(4) == 20
    assert ax.curvature_space_dim(5) == 50
    assert ax.curvature_space_dim(6) == 105


def test_curvature_basis_orthonormal_and_symmetric():
    for n in (4, 5):
        basis = ax.curvature_basis(n)
        assert basis.shape == (ax.curvature_space_dim(n), n ** 4)
        gram = basis @ basis.T
        assert np.max(np.abs(gram - np.eye(basis.shape[0]))) < 1e-10
        for k in range(basis.shape[0]):
            T = basis[k].reshape(n, n, n, n)
            res = cv.symmetry_residuals(T)
            assert max(res.values()) < 1e-10


def test_tensor_roundtrip(rng):
    n = 4
    basis = ax.curvature_basis(n)
    coords = rng.normal(size=basis.shape[0])
    T = ax._tensors(ax.curvature_space(n), coords)
    back = basis @ T.reshape(-1)
    assert np.max(np.abs(back - coords)) < 1e-10
    ax.AlgebraicCurvatureTensor(n, T)  # symmetry validation passes


def test_algebraic_tensor_rejects_bad():
    T = np.zeros((4, 4, 4, 4))
    T[0, 1, 2, 3] = 1.0  # no symmetries at all
    with pytest.raises(ValueError):
        ax.AlgebraicCurvatureTensor(4, T)


def test_functional_row_matches_evaluation(rng):
    n = 4
    basis = ax.curvature_basis(n)
    coords = rng.normal(size=basis.shape[0])
    T = ax._tensors(ax.curvature_space(n), coords)
    for _ in range(10):
        X, Y, Z, U = rng.normal(size=(4, n))
        row = ax.functional_row(ax.curvature_space(n), X, Y, Z, U)
        assert row @ coords == pytest.approx(cv.curvature_value(T, X, Y, Z, U),
                                             abs=1e-10)


def test_kulkarni_nomizu_is_curvature_tensor(rng):
    h = rng.normal(size=(4, 4))
    h = h + h.T
    T = cv.kulkarni_nomizu(h, np.eye(4))
    assert max(cv.symmetry_residuals(T).values()) < 1e-12


def test_identity_residuals_on_models(rng):
    # flat: everything vanishes
    flat = models.instantiate("flat_kahler", m=2)
    pd = cv.point_data(flat, [0.1, 0.2, 0.3, 0.4], with_weyl=False)
    out = ax.proof_identity_residuals(pd.riemann, pd.g, pd.J,
                                      fr.FrameSampler(0, 4), frames=16)
    assert out["3.5"] is None and out["3.8"] is None  # dim 4 regime
    assert all(v <= 1e-12 for v in out.values() if v is not None)

    # constant sectional curvature with a compatible J: all identities hold
    s6 = models.instantiate("s6_nearly_kahler")
    pd = cv.point_data(s6, rng.uniform(-0.3, 0.3, size=6), with_weyl=False)
    out = ax.proof_identity_residuals(pd.riemann, pd.g, pd.J,
                                      fr.FrameSampler(0, 6), frames=16)
    assert out["3.8"] is None
    assert all(v <= 1e-7 for v in out.values() if v is not None)


def test_quadruple_vanishing(rng):
    sphere = models.instantiate("round_sphere", n=4, r=1.0)
    pd = cv.point_data(sphere, [0.1, -0.2, 0.05, 0.3], with_weyl=False)
    res = ax.quadruple_vanishing_residual(pd.riemann, pd.g,
                                          fr.FrameSampler(0, 4), samples=64)
    assert res <= 1e-10

    cp2 = models.instantiate("fubini_study", m=2)
    pd = cv.point_data(cp2, [0.1, -0.2, 0.05, 0.3], with_weyl=False)
    res = ax.quadruple_vanishing_residual(pd.riemann, pd.g,
                                          fr.FrameSampler(0, 4), samples=64)
    assert res > 1e-3


def test_schouten_nullspace_dims():
    for n in (4, 5):
        report = ax.schouten_nullspace_verify(n, fr.FrameSampler(0, n))
        assert report["nullspace_dim"] == n * (n + 1) // 2
        assert report["max_weyl"] <= 1e-9
        assert report["pass"]


def test_schouten_contains_kn_products(rng):
    n = 4
    report = ax.schouten_nullspace_verify(n, fr.FrameSampler(0, n))
    basis, null = ax.curvature_basis(n), report["nullspace"]
    for _ in range(5):
        h = rng.normal(size=(n, n))
        h = h + h.T
        coords = basis @ cv.kulkarni_nomizu(h, np.eye(n)).reshape(-1)
        proj = null @ (null.T @ coords)
        assert np.max(np.abs(coords - proj)) <= 1e-9 * max(np.max(np.abs(coords)), 1.0)


def test_theorem_nullspace_m2():
    sampler = fr.FrameSampler(0, 4)
    report = ax.theorem_nullspace_verify(2, sampler, samples=64)
    assert report["nullspace_dim"] == 10
    assert report["max_weyl"] <= 1e-8
    assert report["derived_residuals"]["3.4"] <= 1e-9
    assert report["derived_residuals"]["quadruple"] <= 1e-9
    assert report["pass"]
    schouten = ax.schouten_nullspace_verify(4, fr.FrameSampler(0, 4))
    assert ax.containment_residual(report, schouten) <= 1e-9
    assert ax.containment_residual(schouten, report) <= 1e-9


def test_theorem_nullspace_m3():
    sampler = fr.FrameSampler(0, 6)
    report = ax.theorem_nullspace_verify(3, sampler, samples=48)
    assert report["nullspace_dim"] == 21
    assert report["max_weyl"] <= 1e-8
    assert report["derived_residuals"]["quadruple"] <= 1e-9
    assert report["pass"]


def test_theorem_determinism():
    a = ax.theorem_nullspace_verify(2, fr.FrameSampler(3, 4), samples=16)
    b = ax.theorem_nullspace_verify(2, fr.FrameSampler(3, 4), samples=16)
    assert np.array_equal(a["nullspace"], b["nullspace"])
    assert a["derived_residuals"] == b["derived_residuals"]


def test_canonical_j():
    J = ax.canonical_j(6)
    assert np.array_equal(J @ J, -np.eye(6))


def test_functional_row_batches_match_single_rows(rng):
    space = ax.curvature_space(5)
    quads = rng.normal(size=(4, 7, 5))
    rows = ax.functional_row(space, *quads)
    assert rows.shape == (7, space.dim)
    for k in range(7):
        single = ax.functional_row(space, *quads[:, k])
        assert np.max(np.abs(rows[k] - single)) <= 1e-15


def test_stable_nullspace_budget_grows_with_dimension():
    # rank 450 arrives two rows per batch, so it needs 225 batches: more than
    # the fixed allowance of 200
    rng = np.random.default_rng(0)
    dim, rank, batch = 500, 450, 2
    span = rng.normal(size=(rank, dim))

    def batches():
        while True:
            yield rng.normal(size=(batch, rank)) @ span

    rows, null, _ = ax._stable_nullspace(batches(), dim)
    assert null.shape == (dim, dim - rank)
    assert rows.shape[0] == batch * (rank // batch + 3)
    assert np.max(np.abs(span @ null)) <= 1e-9 * np.max(np.abs(span))


@pytest.mark.parametrize("seed", [5, 11])
def test_certificate_counts_pinned(seed):
    # constraint_rows / nullspace_dim of the dense-basis engine at these seeds
    for m, rows, nullity in ((2, 72, 10), (3, 210, 21)):
        rep = ax.theorem_nullspace_verify(m, fr.FrameSampler(seed, 2 * m))
        assert (rep["constraint_rows"], rep["nullspace_dim"]) == (rows, nullity)
    for n, rows, nullity in ((4, 40, 10), (6, 112, 21)):
        rep = ax.schouten_nullspace_verify(n, fr.FrameSampler(seed, n))
        assert (rep["constraint_rows"], rep["nullspace_dim"]) == (rows, nullity)


@pytest.mark.parametrize("m", [2, 3])
def test_rank_gap_margins(m):
    n = 2 * m
    for rep in (ax.theorem_nullspace_verify(m, fr.FrameSampler(0, n), samples=8),
                ax.schouten_nullspace_verify(n, fr.FrameSampler(0, n))):
        gap = rep["rank_gap"]
        # six decades on each side of the 1e-9 cut
        assert gap["smallest_kept"] >= 1e-3
        assert gap["largest_dropped"] <= 1e-15


@pytest.mark.parametrize("m", [2, 3])
def test_batched_checks_match_curvature_value(m, rng):
    n, seed, samples = 2 * m, 4, 32
    rep = ax.theorem_nullspace_verify(m, fr.FrameSampler(seed, n), samples=samples)
    g, J = np.eye(n), ax.canonical_j(n)
    check_sampler = fr.FrameSampler(seed + 1, n)
    checks = [entry for _ in range(samples) for entry in ax._identities(
        J, fr.admissible_frames(g, J, check_sampler, 1, need_z=m > 2, need_u=m >= 4)[:, 0],
        ("3.4", "3.8"))]
    quad_sampler = fr.FrameSampler(seed + 2, n)
    checks += [("quadruple", fr.sample_orthonormal_set(g, 4, quad_sampler))
               for _ in range(samples)]

    def oracle(coords):
        """Each check on each tensor, one curvature_value at a time."""
        out = np.zeros((len(checks), coords.shape[1]))
        for k in range(coords.shape[1]):
            T = ax._tensors(ax.curvature_space(n), coords[:, k])
            for e, (_, *terms) in enumerate(checks):
                values = [cv.curvature_value(T, *quad) for quad in terms]
                out[e, k] = values[0] - values[1] if len(terms) == 2 else values[0]
        return out

    # the batched rows on generic tensors, where the values are O(1)
    coords = rng.normal(size=(ax.curvature_basis(n).shape[0], 3))
    expected = oracle(coords)
    batched = ax._identity_rows(ax.curvature_space(n), checks) @ coords
    assert np.max(np.abs(batched - expected)) <= 1e-13 * np.max(np.abs(expected))

    # the reported residuals on the null space
    values = np.abs(oracle(rep["nullspace"]))
    derived = rep["derived_residuals"]
    assert derived["3.8"] is None
    for name in ("3.4", "quadruple"):
        mask = [entry[0] == name for entry in checks]
        assert abs(derived[name] - values[mask].max()) <= 1e-13


def _hermitian_random_point(rng, n):
    """Curvature, metric and canonical J at a point of a random metric, on
    which none of the identities holds."""
    pd = cv.point_data(random_polynomial_metric(rng, n, scale=0.2),
                       rng.uniform(-0.3, 0.3, size=n), with_weyl=False)
    return pd.riemann, pd.g, ax.canonical_j(n)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_proof_identity_residuals_match_per_frame_loop(n, rng):
    R4, g, J = _hermitian_random_point(rng, n)
    out = ax.proof_identity_residuals(R4, g, J, fr.FrameSampler(2, n), frames=12)
    sampler = fr.FrameSampler(2, n)
    worst = dict.fromkeys(out)
    for _ in range(12):
        frame = fr.admissible_frames(g, J, sampler, 1, need_z=n >= 6, need_u=n >= 8)[:, 0]
        for name, *terms in ax._identities(J, frame):
            values = [np.einsum("ijkl,i,j,k,l->", R4, *quad) for quad in terms]
            value = abs(values[0] - values[1]) if len(terms) == 2 else abs(values[0])
            worst[name] = max(worst[name] or 0.0, value)
    assert [v is None for v in out.values()] == [v is None for v in worst.values()]
    assert all(out[name] is None or out[name] > 1e-4 for name in out)
    assert all(abs(out[k] - v) <= 1e-13 * max(1.0, v) for k, v in worst.items() if v is not None)


def test_quadruple_vanishing_residual_matches_per_sample_loop(rng):
    R4, g, _ = _hermitian_random_point(rng, 5)
    res = ax.quadruple_vanishing_residual(R4, g, fr.FrameSampler(6, 5), samples=20)
    sampler = fr.FrameSampler(6, 5)
    worst = max(abs(np.einsum("ijkl,i,j,k,l->", R4, *fr.sample_orthonormal_set(g, 4, sampler)))
                for _ in range(20))
    assert res > 1e-4 and abs(res - worst) <= 1e-13 * max(1.0, worst)
