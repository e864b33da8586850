import numpy as np
import pytest

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


class ScriptedSampler:
    """Draws the given rows in order, then repeats the last one."""

    def __init__(self, *rows):
        self.rows = [np.asarray(r, dtype=float) for r in rows]
        self.draws = 0

    def draw(self, count=1):
        row = self.rows[min(self.draws, len(self.rows) - 1)]
        self.draws += 1
        return row[None, :]


@pytest.mark.parametrize("constraints, first", [
    (None, [0.0, 0.0, 0.0]),                 # zero vector
    ([[1.0, 0.0, 0.0]], [2.0, 0.0, 0.0]),    # inside the constraint span
    ([[1.0, 0.0, 0.0]], [0.0, 1e-12, 0.0]),  # tiny next to the unit rows
])
def test_degenerate_draw_is_retried(constraints, first):
    sampler = ScriptedSampler(first, [1.0, 3.0, 0.0])
    out = fr.sample_orthonormal_set(np.eye(3), 1, sampler, constraints)
    assert sampler.draws == 2
    expected = [0.0, 1.0, 0.0] if constraints else np.array([1.0, 3.0, 0.0]) / np.sqrt(10)
    assert np.max(np.abs(out[0] - expected)) <= 1e-15


def test_degenerate_draws_give_up_after_64():
    sampler = ScriptedSampler([1.0, 1.0, 0.0])
    with pytest.raises(fr.RankDeficiencyError, match="could not sample an independent vector"):
        fr.sample_orthonormal_set(np.eye(3), 1, sampler, [[1.0, 1.0, 0.0]])
    assert sampler.draws == 64


@pytest.mark.parametrize("size", [2, 3, 4])
def test_stacked_frames_equal_sequential_frames(size, rng):
    n, count = 8, 6
    A = rng.normal(size=(n, n)) + 3 * np.eye(n)
    Ainv = np.linalg.inv(A)
    J, g = A @ canonical_j(n) @ Ainv, Ainv.T @ Ainv  # a compatible pair
    sampler, twin = fr.FrameSampler(5, n), fr.FrameSampler(5, n)
    stacked = fr.admissible_frames(g, J, sampler, count, size)
    single = np.stack([fr.admissible_frames(g, J, twin, 1, size)[:, 0]
                       for _ in range(count)], axis=1)
    assert stacked.shape == single.shape == (size, count, n)
    assert np.max(np.abs(stacked - single)) <= 1e-15
    assert np.array_equal(sampler.draw(1), twin.draw(1))  # as many draws on both


def test_admissible_block_equals_two_half_blocks():
    n = 6
    g, J = np.eye(n), canonical_j(n)
    sampler, twin = fr.FrameSampler(4, n), fr.FrameSampler(4, n)
    block = fr.admissible_frames(g, J, sampler, 12, size=3)
    halves = np.concatenate([fr.admissible_frames(g, J, twin, 6, size=3)
                             for _ in range(2)], axis=1)
    assert block.shape == (3, 12, n)
    assert np.array_equal(block, halves)


class BlockSampler:
    """Draws the given rows in order, ``count`` at a time."""

    def __init__(self, *rows):
        self.rows = [np.asarray(r, dtype=float) for r in rows]
        self.counts = []

    def draw(self, count=1):
        self.counts.append(count)
        out, self.rows = self.rows[:count], self.rows[count:]
        return np.array(out).reshape(count, 3)


def test_degenerate_draw_in_a_stack_redraws_only_its_frame():
    sampler = BlockSampler([1, 0, 0], [0, 1, 0],
                           [1, 0, 0], [2, 0, 0],  # the second depends on the first
                           [0, 0, 1], [0, 1, 0],
                           [0, 3, 4])
    out = fr.orthonormal_frames(np.eye(3), sampler.draw(6).reshape(3, 2, 3), sampler)
    assert sampler.counts == [6, 1]
    expected = [[[1, 0, 0], [1, 0, 0], [0, 0, 1]], [[0, 1, 0], [0, 0.6, 0.8], [0, 1, 0]]]
    assert np.max(np.abs(out - expected)) <= 1e-15


@pytest.mark.parametrize("n", [2, 3])
def test_j_identity_keeps_je_as_zero_rows(n):
    # Je = e depends on the rows so far: it adds a zero row, no constraint,
    # so the frame still fills the whole space
    frames = fr.admissible_frames(np.eye(n), np.eye(n), fr.FrameSampler(1, n), 5,
                                  size=n)
    for frame in np.moveaxis(frames, 1, 0):
        assert np.max(np.abs(frame @ frame.T - np.eye(n))) <= 1e-12
