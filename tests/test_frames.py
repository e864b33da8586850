import numpy as np
import pytest

from conftest import chart_frames
from hermgeo import classify as cl
from hermgeo import frames as fr
from hermgeo import models
from hermgeo.axioms import canonical_j


def test_gram_schmidt_standard_basis_identity_metric():
    out = fr.gram_schmidt([np.eye(3)[i] for i in range(3)], np.eye(3))
    assert np.allclose(out, np.eye(3))


def test_gram_schmidt_rescales():
    out = fr.gram_schmidt([np.array([2.0, 0.0]), np.array([0.0, 3.0])], np.eye(2))
    assert np.allclose(out, np.eye(2))


def test_gram_schmidt_rank_deficiency():
    with pytest.raises(fr.RankDeficiencyError):
        fr.gram_schmidt([np.array([1.0, 0.0]), np.array([1.0, 1e-14])], np.eye(2))


def test_gram_schmidt_metric_orthonormality(rng):
    for _ in range(20):
        A = rng.normal(size=(5, 5))
        g = A @ A.T + 5 * np.eye(5)
        vecs = rng.normal(size=(3, 5))
        out = fr.gram_schmidt(list(vecs), g)
        gram = np.array([[u @ g @ v for v in out] for u in out])
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10


def test_sampler_determinism():
    a = fr.FrameSampler(7, 4)
    b = fr.FrameSampler(7, 4)
    assert np.array_equal(a.draw(5), b.draw(5))
    out_a = fr.sample_orthonormal_set(np.eye(4), 4, fr.FrameSampler(3, 4))
    out_b = fr.sample_orthonormal_set(np.eye(4), 4, fr.FrameSampler(3, 4))
    assert all(np.array_equal(u, v) for u, v in zip(out_a, out_b))


def test_sample_orthonormal_set_constraints(rng):
    g = np.eye(4)
    J = canonical_j(4)
    sampler = fr.FrameSampler(11, 4)
    Y = fr.sample_orthonormal_set(g, 1, sampler)[0]
    X = fr.sample_orthonormal_set(g, 1, sampler, constraints=[Y, J @ Y])[0]
    assert abs(X @ g @ Y) < 1e-10
    assert abs(X @ g @ (J @ Y)) < 1e-10
    assert abs(X @ g @ X - 1) < 1e-10


def test_sample_orthonormal_set_too_many():
    with pytest.raises(fr.RankDeficiencyError):
        fr.sample_orthonormal_set(np.eye(2), 3, fr.FrameSampler(0, 2))


def test_sampled_gram_matrix_identity(rng):
    for seed in range(10):
        sampler = fr.FrameSampler(seed, 6)
        vecs = fr.sample_orthonormal_set(np.eye(6), 4, sampler)
        gram = np.array([[u @ v for v in vecs] for u in vecs])
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-10


def test_adapted_frame_flat():
    g = np.eye(4)
    J = canonical_j(4)
    frame = fr.adapted_frames(g, J).T
    assert len(frame) == 4
    for k in range(2):
        assert np.max(np.abs(frame[2 * k + 1] - J @ frame[2 * k])) <= 1e-10
    gram = np.array([[u @ g @ v for v in frame] for u in frame])
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-10


def test_adapted_frame_conjugated_structure(rng):
    # conjugate the canonical pair by a random invertible matrix
    J0 = canonical_j(4)
    A = rng.normal(size=(4, 4)) + 3 * np.eye(4)
    J = A @ J0 @ np.linalg.inv(A)
    Ainv = np.linalg.inv(A)
    g = Ainv.T @ Ainv  # compatible: g(J.,J.) = g
    frame = fr.adapted_frames(g, J).T
    gram = np.array([[u @ g @ v for v in frame] for u in frame])
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-9
    for k in range(2):
        assert np.max(np.abs(frame[2 * k + 1] - J @ frame[2 * k])) <= 1e-10


def test_adapted_frame_rejects_bad_j():
    # J^2 != -I: no unitary frame, so every chart verdict at the point is null
    J = canonical_j(4) * 1.01
    bounds = cl.unitary_bounds(np.zeros((4,) * 4), np.eye(4), J)
    assert len(bounds) == 7 and all(np.isnan(v) for v in bounds.values())


def test_validate_pair_residual_scale():
    r_square, r_compat = fr.hermitian_residuals(np.eye(4), canonical_j(4) * 1.01)
    assert r_square == pytest.approx(2.01e-2, rel=1e-12)
    assert r_compat == pytest.approx(2.01e-2, rel=1e-12)


def test_hermitian_residuals_flat():
    chart = models.instantiate("flat_kahler", m=2)
    point = [0.1, 0.2, 0.3, 0.4]
    assert fr.hermitian_residuals(chart.metric_at(point), chart.j_at(point)) == (0.0, 0.0)


def test_hermitian_residuals_incompatible():
    # J compatible with the flat metric but not with a stretched one
    r_sq, r_comp = fr.hermitian_residuals(np.diag([4.0, 1.0]), canonical_j(2))
    assert r_sq == 0.0
    assert r_comp == pytest.approx(3.0)


def test_sample_orthonormal_set_metric_and_constraints(rng):
    A = rng.normal(size=(6, 6))
    g = A @ A.T + 6 * np.eye(6)
    constraints = list(rng.normal(size=(2, 6)))
    out = np.array(fr.sample_orthonormal_set(g, 3, fr.FrameSampler(9, 6), constraints))
    # reference: orthonormalize constraints, accepted vectors and the draw
    # together, anew, for every draw
    twin = fr.FrameSampler(9, 6)
    ref = []
    for _ in range(3):
        ref.append(fr.gram_schmidt([*constraints, *ref, twin.draw(1)[0]], g)[-1])
    assert np.max(np.abs(out - ref)) <= 1e-12
    assert np.max(np.abs(out @ g @ out.T - np.eye(3))) <= 1e-12
    assert np.max(np.abs(out @ g @ np.array(constraints).T)) <= 1e-12


@pytest.mark.parametrize("size", [2, 3, 4])
def test_stacked_frames_equal_sequential_frames(size, rng):
    n, count = 8, 6
    A = rng.normal(size=(n, n)) + 3 * np.eye(n)
    Ainv = np.linalg.inv(A)
    J, g = A @ canonical_j(n) @ Ainv, Ainv.T @ Ainv  # a compatible pair
    sampler, twin = fr.FrameSampler(5, n), fr.FrameSampler(5, n)
    stacked = chart_frames(g, J, sampler, count, size)
    single = np.stack([chart_frames(g, J, twin, 1, size)[:, 0]
                       for _ in range(count)], axis=1)
    assert stacked.shape == single.shape == (size, count, n)
    assert np.max(np.abs(stacked - single)) <= 1e-15
    assert np.array_equal(sampler.draw(1), twin.draw(1))  # as many draws on both


def test_admissible_block_equals_two_half_blocks():
    n = 6
    sampler, twin = fr.FrameSampler(4, n), fr.FrameSampler(4, n)
    block = fr.admissible_frames(sampler, 12, size=3)
    halves = np.concatenate([fr.admissible_frames(twin, 6, size=3)
                             for _ in range(2)], axis=1)
    assert block.shape == (3, 12, n)
    assert np.array_equal(block, halves)


def _compatible_pair(rng, n):
    """A random compatible pair (g, J): the canonical pair conjugated by A,
    whose condition number is at most 4."""
    A = np.linalg.qr(rng.normal(size=(n, n)))[0] * rng.uniform(0.5, 2.0, size=n)
    Ainv = np.linalg.inv(A)
    return Ainv.T @ Ainv, A @ canonical_j(n) @ Ainv


@pytest.mark.parametrize("n", [4, 6, 8])
def test_admissible_frames_are_unitary_in_g(n, rng):
    # [X, JX, Y, JY, ...] is g-orthonormal for every size up to min(m, 4)
    for size in range(2, min(n // 2, 4) + 1):
        g, J = _compatible_pair(rng, n)
        frames = chart_frames(g, J, fr.FrameSampler(size, n), 5, size)
        for frame in np.moveaxis(frames, 1, 0):
            E = np.stack([w for v in frame for w in (v, J @ v)], axis=1)
            assert np.max(np.abs(E.T @ g @ E - np.eye(2 * size))) <= 1e-12, size


@pytest.mark.parametrize("n", [4, 6, 8])
def test_admissible_frames_are_gram_schmidt_up_to_sign(n):
    # for the canonical pair each vector is Gram-Schmidt's over the draws
    # Y, JY, X, JX, Z, ... in the order drawn, up to its sign
    J = canonical_j(n)
    for size in range(2, min(n // 2, 4) + 1):
        sampler, twin = fr.FrameSampler(7, n), fr.FrameSampler(7, n)
        frames = fr.admissible_frames(sampler, 5, size)
        for frame in np.moveaxis(frames, 1, 0):
            ref = fr.gram_schmidt([w for v in twin.draw(size) for w in (v, J @ v)], np.eye(n))
            Y, X, *rest = ref[::2]
            for v, w in zip(frame, [X, Y, *rest]):
                assert np.max(np.abs(v - np.sign(v @ w) * w)) <= 1e-14, size
