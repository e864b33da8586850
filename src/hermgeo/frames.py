"""Metric orthonormalization, reproducible frame sampling, and the adapted
frame of a Hermitian pair.

Random draws use numpy's PCG64 generator with an explicit seed, so identical
(seed, dimension) pairs give bit-identical draws on every platform.  Frames
come in stacks, drawn as one block and orthonormalized by one batched QR
(LAPACK), so like every other certificate float they are reproducible on
one numpy/LAPACK build.  Only the certificates sample frames; building the
adapted frame draws nothing.
"""

import numpy as np


class RankDeficiencyError(ValueError):
    pass


_PIVOT = 1e-10


class FrameSampler:
    """Deterministic source of raw vectors for frame construction."""

    def __init__(self, seed, dimension):
        self.seed = int(seed)
        self.dimension = int(dimension)
        self._rng = np.random.Generator(np.random.PCG64(self.seed))

    def draw(self, count=1):
        """Raw vectors with components uniform in [-1, 1), shape (count, dim)."""
        return self._rng.uniform(-1.0, 1.0, size=(count, self.dimension))


def _norms(g, v):
    return np.sqrt(np.sum(np.einsum("...ij,...j->...i", g, v) * v, axis=-1))


def gram_schmidt(vectors, g, drop_dependent=False):
    """Orthonormalize ``vectors`` with respect to the metric ``g``, as rows:
    each projected off the rows so far by two classical Gram-Schmidt passes,
    then normalized.  A pivot below 1e-10 of the largest input norm raises
    RankDeficiencyError, or with ``drop_dependent`` skips that vector."""
    g = np.asarray(g, dtype=float)
    vecs = np.array(vectors, dtype=float).reshape(-1, len(g))
    lead = np.max(_norms(g, vecs), initial=0.0)
    rows = np.empty((0, len(g)))
    for v in vecs:
        for _ in range(2 if len(rows) else 0):
            v = v - (rows @ (g @ v)) @ rows
        nrm = _norms(g, v)
        if nrm > _PIVOT * lead:
            rows = np.vstack([rows, v / nrm])
        elif not drop_dependent:
            raise RankDeficiencyError(
                f"vector set is rank deficient (pivot {nrm:.3e} vs lead {lead:.3e})")
    return rows


def sample_orthonormal_set(g, k, sampler, constraints=None):
    """Draw ``k`` g-orthonormal vectors, each g-orthogonal to the span of
    ``constraints`` (dependent constraints are dropped)."""
    rows = gram_schmidt(constraints if constraints else [], g, drop_dependent=True)
    return gram_schmidt([*rows, *sampler.draw(k)], g)[len(rows):]


def admissible_frames(sampler, count, size=2):
    """(X, Y[, Z[, U]]) of ``count`` frames of ``size`` 2 to n/2 for g = I and
    J0 = ``canonical_j(n)``, shape (size, count, n): unit vectors, each
    orthogonal to the earlier ones and their J0-images.  Y is drawn first,
    then X, Z, U.  No frame, no draw.

    They are every other vector of Gram-Schmidt over Y, J0 Y, X, J0 X, ...:
    the Q of one real QR of each frame's draws and their J0-images
    (Householder, so Gram-Schmidt's vectors up to sign).  The adapted frame
    of a compatible pair (g, J) carries them to that pair."""
    raw = sampler.draw(count * size).reshape(count, size, sampler.dimension)
    J0raw = np.stack([-raw[..., 1::2], raw[..., 0::2]], axis=-1).reshape(raw.shape)
    cols = np.stack([raw, J0raw], axis=2).reshape(count, 2 * size, sampler.dimension)
    Q = np.linalg.qr(np.swapaxes(cols, -1, -2))[0]
    Y, X, *rest = np.moveaxis(Q[..., ::2], -1, 0)
    return np.array([X, Y, *rest])


def hermitian_residuals(g, J):
    """Max-norm residuals (|J^2 + I|, |g(J.,J.) - g|) of a pair (g, J), or of
    each pair of stacks (..., n, n): arrays of the stacks' leading shape."""
    g, J = np.asarray(g, dtype=float), np.asarray(J, dtype=float)
    return (np.max(np.abs(J @ J + np.eye(J.shape[-1])), axis=(-2, -1)),
            np.max(np.abs(np.swapaxes(J, -1, -2) @ g @ J - g), axis=(-2, -1)))


def adapted_frames(g, J):
    """g-orthonormal frames E (..., n, n) with columns (e_1, Je_1, ..., e_m,
    Je_m), one per pair (g, J) of a stack, in which J is ``canonical_j(n)``:
    metric Gram-Schmidt with J over the coordinate vectors, each step taking
    the one whose remainder is largest, so that E depends on (g, J) alone.
    Nothing is checked: E is adapted only where J is an almost complex
    structure compatible with g, and an odd last column stays zero."""
    g, J = np.asarray(g, dtype=float), np.asarray(J, dtype=float)
    shape, n = g.shape, g.shape[-1]
    g, J = g.reshape(-1, n, n), np.broadcast_to(J, shape).reshape(-1, n, n)
    E, each = np.zeros(g.shape), np.arange(len(g))
    rest = np.broadcast_to(np.eye(n), g.shape).copy()  # remainders, as columns
    for k in range(0, n - 1, 2):
        norms = np.sum(rest * (g @ rest), axis=-2)
        pick = np.argmax(norms, axis=-1)
        e = rest[each, :, pick] / np.sqrt(norms[each, pick])[:, None]
        E[..., k], E[..., k + 1] = e, (J @ e[..., None])[..., 0]
        for v in (E[..., k:k + 1], E[..., k + 1:k + 2]):
            rest -= v @ (np.swapaxes(v, -1, -2) @ g @ rest)
    return E.reshape(shape)
