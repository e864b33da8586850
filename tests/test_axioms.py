import itertools

import numpy as np
import pytest

from conftest import (chart_frames, constancy_entries, derived_entries, random_polynomial_metric,
                      unitary_frames)
from hermgeo import axioms as ax
from hermgeo import classify as cl
from hermgeo import curvature as cv
from hermgeo import frames as fr
from hermgeo import models
from hermgeo.axioms import canonical_j


def test_curvature_space_dim():
    assert ax.curvature_space_dim(4) == 20
    assert ax.curvature_space_dim(5) == 50
    assert ax.curvature_space_dim(6) == 105


def test_curvature_basis_orthonormal_and_symmetric():
    for n in (4, 5, 8):  # n = 8 is the certificate-m4 size, d = 336
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
    assert max(cv.symmetry_residuals(T).values()) <= 1e-10


def test_algebraic_tensor_rejects_bad():
    T = np.zeros((4, 4, 4, 4))
    T[0, 1, 2, 3] = 1.0  # no symmetries at all
    assert max(cv.symmetry_residuals(T).values()) > 1e-10


def test_functional_row_matches_evaluation(rng):
    for n in (4, 8):  # n = 8 is the certificate-m4 size
        space = ax.curvature_space(n)
        coords = rng.normal(size=space.dim)
        T = ax._tensors(space, coords)
        for _ in range(10):
            X, Y, Z, U = rng.normal(size=(4, n))
            row = ax.functional_row(space, X, Y, Z, U)
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
    pd = cv.point_data(flat, [0.1, 0.2, 0.3, 0.4])
    out = ax.proof_identity_residuals(cl.unitary_bounds(pd.riemann, pd.g, pd.J))
    assert out["3.5"] is None and out["3.8"] is None  # dim 4 regime
    assert all(v <= 1e-12 for v in out.values() if v is not None)

    # constant sectional curvature with a compatible J: all identities hold,
    # at every point of a stack
    s6 = models.instantiate("s6_nearly_kahler")
    pd = cv.point_data(s6, rng.uniform(-0.3, 0.3, size=(3, 6)))
    out = ax.proof_identity_residuals(cl.unitary_bounds(pd.riemann, pd.g, pd.J))
    assert out["3.8"] is None
    assert all(v <= 1e-12 for v in out.values() if v is not None)


def test_quadruple_vanishing(rng):
    sphere = models.instantiate("round_sphere", n=4, r=1.0)
    pd = cv.point_data(sphere, [0.1, -0.2, 0.05, 0.3])
    res = ax.quadruple_vanishing_residual(pd.riemann, pd.g)
    assert res <= 1e-10

    cp2 = models.instantiate("fubini_study", m=2)
    pd = cv.point_data(cp2, [0.1, -0.2, 0.05, 0.3])
    res = ax.quadruple_vanishing_residual(pd.riemann, pd.g)
    assert res > 1e-3


def test_schouten_nullspace_dims():
    for n in (4, 5):
        report = ax.schouten_nullspace_verify(n, fr.FrameSampler(0, n))
        assert report["nullspace_dim"] == n * (n + 1) // 2
        assert report["max_weyl"] <= 1e-9
        assert report["pass"]


@pytest.mark.parametrize("n", [4, 5, 8])
def test_products_are_an_orthonormal_basis_of_kn_products(n, rng):
    products = ax._products(n)[0]
    assert products.shape == (ax.curvature_space_dim(n), n * (n + 1) // 2)
    assert np.max(np.abs(products.T @ products - np.eye(products.shape[1]))) <= 1e-14
    h = rng.normal(size=(n, n))
    coords = ax.curvature_basis(n) @ cv.kulkarni_nomizu(h + h.T, np.eye(n)).reshape(-1)
    assert np.max(np.abs(coords - products @ (products.T @ coords))) <= 1e-13


def _schouten_rows(n, seed=0):
    """The Schouten constraint rows of dimension n."""
    sampler = fr.FrameSampler(seed, n)
    return ax._constraint_rows(ax.curvature_space(n),
                               lambda count: [("quadruple", ax._quadruples(sampler, count))],
                               ax._SCHOUTEN_BATCH)


@pytest.mark.parametrize("n", [4, 6])
def test_check_fails_on_a_row_that_does_not_vanish_on_products(n):
    rows = _schouten_rows(n)
    products = ax._products(n)[0]
    assert ax._check(rows, products)[0]
    holds, gap = ax._check(np.vstack([rows, products[:, 0]]), products)
    assert not holds and gap["largest_dropped"] > 1e-9


@pytest.mark.parametrize("n", [4, 6])
def test_check_fails_on_a_stack_cut_short(n):
    products = ax._products(n)[0]
    dim, k = products.shape
    holds, gap = ax._check(_schouten_rows(n)[:(dim - k) // 2], products)
    # the Cholesky finds no positive margin on the complement
    assert not holds and gap["smallest_kept"] is None


@pytest.mark.parametrize("m", [2, 3])
def test_smallest_kept_is_a_bound_within_one_percent_of_the_svd(m, monkeypatch):
    stacks, check = [], ax._check

    def recording(rows, products):
        stacks.append((rows, products.shape[0] - products.shape[1]))  # rank d - k
        return check(rows, products)
    monkeypatch.setattr(ax, "_check", recording)
    n = 2 * m
    reports = [ax.theorem_nullspace_verify(m, fr.FrameSampler(0, n)),
               ax.schouten_nullspace_verify(n, fr.FrameSampler(0, n))]
    for rep, (rows, rank) in zip(reports, stacks):
        sv = np.linalg.svd(rows, compute_uv=False)
        kept = sv[rank - 1] / sv[0]
        assert 0.99 * kept <= rep["rank_gap"]["smallest_kept"] <= kept


def test_schouten_contains_kn_products(rng):
    n = 4
    report = ax.schouten_nullspace_verify(n, fr.FrameSampler(0, n))
    assert report["pass"]
    basis, null = ax.curvature_basis(n), ax._products(n)[0]
    for _ in range(5):
        h = rng.normal(size=(n, n))
        h = h + h.T
        coords = basis @ cv.kulkarni_nomizu(h, np.eye(n)).reshape(-1)
        proj = null @ (null.T @ coords)
        assert np.max(np.abs(coords - proj)) <= 1e-9 * max(np.max(np.abs(coords)), 1.0)


def test_theorem_nullspace_m2():
    sampler = fr.FrameSampler(0, 4)
    report = ax.theorem_nullspace_verify(2, sampler)
    assert report["nullspace_dim"] == 10
    assert report["max_weyl"] <= 1e-8
    assert report["derived_residuals"]["3.4"] <= 1e-9
    assert report["derived_residuals"]["quadruple"] <= 1e-9
    assert report["pass"]
    schouten = ax.schouten_nullspace_verify(4, fr.FrameSampler(0, 4))
    assert report["rank_gap"]["largest_dropped"] <= 1e-9
    assert schouten["rank_gap"]["largest_dropped"] <= 1e-9


def test_theorem_nullspace_m3():
    sampler = fr.FrameSampler(0, 6)
    report = ax.theorem_nullspace_verify(3, sampler)
    assert report["nullspace_dim"] == 21
    assert report["max_weyl"] <= 1e-8
    assert report["derived_residuals"]["quadruple"] <= 1e-9
    assert report["pass"]


def test_theorem_determinism():
    a = ax.theorem_nullspace_verify(2, fr.FrameSampler(3, 4))
    b = ax.theorem_nullspace_verify(2, fr.FrameSampler(3, 4))
    assert a["derived_residuals"] == b["derived_residuals"]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_derived_residuals_depend_on_m_alone(m):
    # bounds on K over every frame: the same for every seed, and each report
    # holds its own copy
    n = 2 * m
    derived = [ax.theorem_nullspace_verify(m, fr.FrameSampler(seed, n))["derived_residuals"]
               for seed in (0, 1, 7)]
    assert derived[0] == derived[1] == derived[2]
    assert (derived[0]["3.8"] is None) == (m < 4)
    assert all(v <= 1e-9 for v in derived[0].values() if v is not None)
    derived[0]["3.4"] = 1.0
    assert ax.theorem_nullspace_verify(m, fr.FrameSampler(0, n))["derived_residuals"] == derived[1]


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
        assert np.array_equal(rows[k], single)


def test_quadruple_block_equals_two_half_blocks():
    n = 6
    sampler, twin = fr.FrameSampler(3, n), fr.FrameSampler(3, n)
    block = ax._quadruples(sampler, 16)
    halves = np.concatenate([ax._quadruples(twin, 8) for _ in range(2)], axis=1)
    assert block.shape == (4, 16, n)
    assert np.array_equal(block, halves)


def test_no_frame_draws_nothing():
    # _constraint_rows counts the rows per item on entries of no item
    n = 8
    sampler, twin = fr.FrameSampler(2, n), fr.FrameSampler(2, n)
    assert ax._quadruples(sampler, 0).shape == (4, 0, n)
    for size in (2, 3, 4):
        assert fr.admissible_frames(sampler, 0, size).shape == (size, 0, n)
    assert np.array_equal(sampler.draw(3), twin.draw(3))


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_block_size_does_not_change_a_report(m, seed, monkeypatch):
    n = 2 * m

    def reports():
        return (ax.theorem_nullspace_verify(m, fr.FrameSampler(seed, n)),
                ax.schouten_nullspace_verify(n, fr.FrameSampler(seed, n)))
    default = reports()
    monkeypatch.setattr(ax, "_BLOCK_ROWS", 1)  # one batch per block
    assert reports() == default


def test_theorem_row_count_follows_the_direct_identities(monkeypatch):
    # m = 2: d - k = 10; six frames of two rows make a batch of 12, so 1 + 3
    # batches (the default three identities give 72 rows, pinned below)
    monkeypatch.setattr(ax, "_DIRECT", ("3.2", "3.3"))
    rep = ax.theorem_nullspace_verify(2, fr.FrameSampler(1, 4))
    assert rep["constraint_rows"] == 48 and rep["pass"]


# Minimal sets of direct identities that pass the theorem certificate at
# seeds 1-3 under the closed-form row count.  A superset need not pass: at
# m = 4, {3.1, 3.2, 3.3} and {3.1, 3.2, 3.6} fail, as the budget counts rows
# per frame, not the rank they add.
MINIMAL_DIRECT = {
    2: [("3.2", "3.3")],
    3: [("3.1", "3.5"), ("3.1", "3.6"), ("3.2", "3.3"), ("3.2", "3.5"), ("3.2", "3.6"),
        ("3.1", "3.3", "3.7")],
    4: [("3.1", "3.5"), ("3.2", "3.3"), ("3.2", "3.5"), ("3.2", "3.6"),
        ("3.1", "3.3", "3.6"), ("3.1", "3.3", "3.7"), ("3.1", "3.6", "3.7")],
}


def test_minimal_identity_sets_pass_and_their_maximal_subsets_fail(monkeypatch):
    def passes(m, direct, seed):
        monkeypatch.setattr(ax, "_DIRECT", direct)
        return ax.theorem_nullspace_verify(m, fr.FrameSampler(seed, 2 * m))["pass"]
    for m, sets in MINIMAL_DIRECT.items():
        for minimal, seed in itertools.product(sets, (1, 2, 3)):
            assert passes(m, minimal, seed), (m, minimal, seed)
            for subset in itertools.combinations(minimal, len(minimal) - 1):
                assert not passes(m, subset, seed), (m, subset, seed)
    # no identity of the set applies to the two-vector frames of m = 2
    with pytest.raises(ValueError, match="no constraint identity applies in dimension 4"):
        passes(2, ("3.5",), 1)


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
    for rep in (ax.theorem_nullspace_verify(m, fr.FrameSampler(0, n)),
                ax.schouten_nullspace_verify(n, fr.FrameSampler(0, n))):
        gap = rep["rank_gap"]
        # six decades on each side of the 1e-9 cut
        assert gap["smallest_kept"] >= 1e-3
        assert gap["largest_dropped"] <= 1e-15


@pytest.mark.parametrize("m", [2, 3, 4])
def test_batched_checks_match_curvature_value(m, rng):
    n, samples = 2 * m, 256
    rep = ax.theorem_nullspace_verify(m, fr.FrameSampler(4, n))
    g, J = np.eye(n), ax.canonical_j(n)
    check_sampler = fr.FrameSampler(5, n)
    checks = [entry for _ in range(samples) for entry in derived_entries(
        J, fr.admissible_frames(check_sampler, 1, 2 + (m > 2) + (m >= 4))[:, 0])]
    quad_sampler = fr.FrameSampler(6, n)
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
    rows = ax._identity_rows(ax.curvature_space(n), checks)
    batched = rows @ coords
    assert np.max(np.abs(batched - expected)) <= 1e-13 * np.max(np.abs(expected))

    # on the null space, no sampled check exceeds the reported bound
    values = np.abs(rows @ ax._products(n)[0])
    derived = rep["derived_residuals"]
    assert (derived["3.8"] is None) == (m < 4)
    for name in ("3.4", "3.8", "quadruple") if m >= 4 else ("3.4", "quadruple"):
        mask = [entry[0] == name for entry in checks]
        assert 0 < values[mask].max() <= derived[name]


def _hermitian_random_point(rng, n):
    """Curvature, metric and a compatible J at a point of a random metric,
    on which none of the identities holds: J = L^-T J0 L^T for g = L L^T."""
    pd = cv.point_data(random_polynomial_metric(rng, n, scale=0.2),
                       rng.uniform(-0.3, 0.3, size=n))
    L = np.linalg.cholesky(pd.g)
    return pd.riemann, pd.g, np.linalg.inv(L).T @ ax.canonical_j(n) @ L.T


@pytest.mark.parametrize("n", [4, 6, 8])
def test_proof_identity_residuals_match_per_frame_loop(n, rng):
    # each bound is at least the identity's residual on every sampled frame
    R4, g, J = _hermitian_random_point(rng, n)
    out = ax.proof_identity_residuals(cl.unitary_bounds(R4, g, J))
    sampler = fr.FrameSampler(2, n)
    worst = dict.fromkeys(out)
    for _ in range(12):
        frame = chart_frames(g, J, sampler, 1, 2 + (n >= 6) + (n >= 8))[:, 0]
        for name, *terms in ax._identities(J, frame) + derived_entries(J, frame):
            values = [np.einsum("ijkl,i,j,k,l->", R4, *quad) for quad in terms]
            value = abs(values[0] - values[1]) if len(terms) == 2 else abs(values[0])
            worst[name] = max(worst[name] or 0.0, value)
    assert [v is None for v in out.values()] == [v is None for v in worst.values()]
    assert all(v is None or 1e-4 < v <= out[k] for k, v in worst.items())


# (n, verdict) -> dimension of the verdict's subspace V
_NULLITIES = {
    4: {"holomorphic_sectional": 12, "antiholomorphic_sectional": 7, "constant_type": 12,
        "3.1": 14, "3.2": 12, "3.3": 13, "3.4": 13},
    6: {"holomorphic_sectional": 70, "antiholomorphic_sectional": 16, "constant_type": 43,
        "3.1": 69, "3.2": 57, "3.3": 42, "3.4": 66, "3.5": 22, "3.6": 22, "3.7": 36},
    8: {"holomorphic_sectional": 237, "antiholomorphic_sectional": 29, "constant_type": 113,
        "3.1": 216, "3.2": 176, "3.3": 112, "3.4": 212, "3.5": 37, "3.6": 37, "3.7": 84,
        "3.8": 64},
}


def _distances(n, coords, names):
    """{verdict: distance (k,)} of the tensors with coordinates ``coords`` (k, d),
    taken in a frame in which J is canonical, from each verdict's subspace:
    the closed-form bound over sqrt(quadruples)."""
    R4 = ax._tensors(ax.curvature_space(n), coords)
    g, J = np.broadcast_to(np.eye(n), R4.shape[:-2]), np.broadcast_to(canonical_j(n), R4.shape[:-2])
    bounds = cl.unitary_bounds(R4, g, J)
    return {name: bounds[name] / np.sqrt(ax._VERDICTS[name][1]) for name in names if name in bounds}


def _complement(n, name, rng):
    """Orthonormal basis (d, r) of the complement of a verdict's subspace: the
    right singular vectors of its functional rows on d + 8 random unitary
    frames (differences of consecutive frames for an invariant)."""
    space, J = ax.curvature_space(n), canonical_j(n)
    frame = unitary_frames(n, space.dim + 8, rng)
    entries = [entry for entry in
               constancy_entries(J, frame) + ax._identities(J, frame) + derived_entries(J, frame)
               if entry[0] == name]
    rows = ax._identity_rows(space, entries)
    rows = (np.diff(rows, axis=0) if name in ax.CONSTANCY else rows).reshape(-1, space.dim)
    _, sv, vt = np.linalg.svd(rows, full_matrices=False)
    return vt[sv > 1e-8 * sv[0]].T


@pytest.mark.parametrize("n", [4, 6, 8])
def test_closed_form_distances_match_the_functional_rows(n, rng):
    # each verdict's closed-form distance is the norm of the projection onto
    # the span of its functional rows, on random tensors and summed over a
    # basis (the trace of that projection: the complement's dimension)
    d = ax.curvature_space_dim(n)
    x = rng.normal(size=(10, d))
    names = _NULLITIES[n]
    distances = _distances(n, x, names)
    traces = {name: float(np.sum(v ** 2)) for name, v in _distances(n, np.eye(d), names).items()}
    assert distances.keys() == names.keys()
    for name, nullity in names.items():
        C = _complement(n, name, rng)
        assert d - C.shape[1] == nullity, name
        assert traces[name] == pytest.approx(d - nullity, abs=1e-9), name
        assert np.max(np.abs(distances[name] ** 2 - np.sum((x @ C) ** 2, axis=1))) \
            <= 1e-12 * np.sum(x ** 2, axis=1).max(), name


@pytest.mark.parametrize("n", [10, 12])
def test_functional_rows_lie_in_the_closed_form_complements(n, rng):
    # beyond the sizes where the complements are rebuilt: each functional at
    # a frame (a difference of two frames for an invariant) is its own
    # distance from the verdict's subspace, and the functionals reach every
    # piece and line that the complement holds
    space, J = ax.curvature_space(n), canonical_j(n)
    frame = unitary_frames(n, 2, rng)
    entries = constancy_entries(J, frame) + ax._identities(J, frame) + derived_entries(J, frame)
    rows = ax._identity_rows(space, entries)
    reached = {}
    for k, (name, *_) in enumerate(entries):
        row = rows[0, k] - rows[1, k] if name in ax.CONSTANCY else rows[0, k]
        distance = _distances(n, row, [name])[name]
        assert distance == pytest.approx(np.linalg.norm(row), rel=1e-12), name
        R4 = ax._tensors(space, row)
        squares, adjoint, trivial = ax._pieces(cv.each_index(R4, ax.unitary_basis(n), 4))
        parts = {**dict(zip(ax._PIECES, squares)), "adjoint": sum(np.sum(np.abs(w) ** 2) for w in adjoint),
                 "trivial": sum(abs(t) ** 2 for t in trivial)}
        reached[name] = {p: max(v, reached.get(name, {}).get(p, 0.0)) for p, v in parts.items()}
    for name, (_, _, held, adjoint_line, trivial_line) in ax._VERDICTS.items():
        wanted = [*held, *(["adjoint"] if adjoint_line else []), *(["trivial"] if trivial_line else [])]
        assert all(reached[name][p] > 1e-6 for p in wanted), (name, reached[name])


def test_verdicts_by_dimension():
    names = (*ax.CONSTANCY, *ax._IDENTITY_NAMES)
    for n, count in ((2, 1), (4, 7), (6, 10), (8, 11), (12, 11)):
        bounds = ax.verdict_bounds(np.zeros((n,) * 4, dtype=complex))
        assert list(bounds) == list(names[:count]) and all(v == 0 for v in bounds.values())
    assert ax.verdict_bounds(np.zeros((5,) * 4)) == {}


@pytest.mark.parametrize("m", [2, 3])
def test_direct_identity_spaces_meet_in_k(m):
    # the tensors that satisfy every identity of _DIRECT form K = {h (.) g}:
    # the sum of their squared distances is a form whose kernel is K
    n, d = 2 * m, ax.curvature_space_dim(2 * m)
    i, j = np.triu_indices(d)
    eye = np.eye(d)

    def form(x):
        return sum(v ** 2 for v in _distances(n, x, ax._DIRECT).values())

    G = np.zeros((d, d))
    for block in np.array_split(np.arange(len(i)), 8):
        a, b = eye[i[block]], eye[j[block]]
        G[i[block], j[block]] = G[j[block], i[block]] = (form(a + b) - form(a - b)) / 4
    eigenvalues = np.linalg.eigvalsh(G)
    products = ax._products(n)[0]
    assert np.sum(eigenvalues < 1e-9) == n * (n + 1) // 2 and eigenvalues[0] > -1e-12
    assert np.max(np.abs(G @ products)) <= 1e-12


def test_quadruple_vanishing_residual_matches_per_sample_loop(rng):
    # the exact bound is at least the largest value on sampled quadruples
    R4, g, _ = _hermitian_random_point(rng, 5)
    res = ax.quadruple_vanishing_residual(R4, g)
    sampler = fr.FrameSampler(6, 5)
    worst = max(abs(np.einsum("ijkl,i,j,k,l->", R4, *fr.sample_orthonormal_set(g, 4, sampler)))
                for _ in range(20))
    assert res > 1e-4 and worst > 1e-4 and worst <= res + 1e-12 * max(1.0, res)
