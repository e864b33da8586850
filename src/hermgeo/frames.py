"""Metric orthonormalization, reproducible frame sampling, and the adapted
frame of a Hermitian pair.

Random draws use numpy's PCG64 generator with an explicit seed, so identical
(seed, dimension) pairs give bit-identical frames on every platform.  Frames
come in stacks, drawn as one block and orthonormalized together.  Only the
certificates sample frames; building the adapted frame draws nothing.
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


def _project(rows, v, g, lead):
    """The one orthonormalization step, on a stack: each ``v`` (s, n) projected
    off its frame's g-orthonormal ``rows`` (s, m, n), in the metric ``g``
    (n, n), by two classical Gram-Schmidt passes, then normalized; returns
    (unit vectors, mask of the pivots above 1e-10 * lead, pivots), a zero row
    where masked out.  Sums run row by row
    (einsum), so a frame does not depend on its stack size."""
    for _ in range(2 if rows.shape[1] else 0):
        v = v - np.einsum("smn,sm->sn", rows, np.einsum("...mn,...nk,...k->...m", rows, g, v))
    nrm = _norms(g, v)
    ok = nrm > _PIVOT * lead
    return np.where(ok[:, None], v / np.where(ok, nrm, 1.0)[:, None], 0.0), ok, nrm


def gram_schmidt(vectors, g, drop_dependent=False):
    """Orthonormalize ``vectors`` with respect to the metric ``g``, as rows.
    A pivot below 1e-10 of the largest input norm raises RankDeficiencyError,
    or with ``drop_dependent`` skips that vector."""
    g = np.asarray(g, dtype=float)
    vecs = np.array(vectors, dtype=float).reshape(-1, len(g))
    lead = np.max(_norms(g, vecs), initial=0.0)
    rows = np.empty((1, 0, len(g)))
    for v in vecs:
        e, ok, nrm = _project(rows, v[None], g, lead)
        if ok[0]:
            rows = np.concatenate([rows, e[:, None]], axis=1)
        elif not drop_dependent:
            raise RankDeficiencyError(
                f"vector set is rank deficient (pivot {nrm[0]:.3e} vs lead {lead:.3e})")
    return rows[0]


def orthonormal_frames(g, raw, sampler, J=None, rows=None):
    """Orthonormalize the raw vectors (s, k, n) of s frames, in order and off
    each frame's g-orthonormal ``rows`` (s, r, n); returns shape (k, s, n).
    Every frame shares the metric ``g`` and ``J`` (n, n).  With ``J`` each
    vector e is followed by Je, a zero row where it depends on the
    rows so far (as JY on an eigenvector Y of J).  The pivot lead is |v| for
    a frame's first row, max(1, |v|) after that.  A degenerate draw (measure
    zero) is redrawn from ``sampler`` for its frame alone, after the whole
    block; a frame gives up after 64 draws of one vector.  Sums run frame by
    frame, so a frame does not depend on its stack size: ``axioms`` draws its
    certificates' frames in blocks and relies on that."""
    s, k, dim = raw.shape
    g = np.asarray(g, dtype=float)
    basis = np.zeros((s, 0, dim)) if rows is None else rows
    out = np.empty((k, s, dim))
    for i in range(k):
        need = k - i if J is None else 1
        found = np.max(np.sum(basis.any(axis=2), axis=1), initial=0)  # nonzero rows
        if need + found > dim:
            raise RankDeficiencyError(
                f"cannot fit {need} vectors orthogonal to {found} constraints in dim {dim}")
        v, todo, floor = raw[:, i], np.arange(s), min(basis.shape[1], 1)
        for attempt in range(64):
            if attempt:
                v = sampler.draw(len(todo))
            e, ok, _ = _project(basis[todo], v, g, np.maximum(floor, _norms(g, v)))
            out[i, todo[ok]], todo = e[ok], todo[~ok]
            if not len(todo):
                break
        else:
            raise RankDeficiencyError("could not sample an independent vector")
        basis = np.concatenate([basis, out[i][:, None]], axis=1)
        if J is not None and i + 1 < k:  # Je only constrains later draws
            Je = np.einsum("...ij,...j->...i", J, out[i])
            e, _, _ = _project(basis, Je, g, np.maximum(1.0, _norms(g, Je)))
            basis = np.concatenate([basis, e[:, None]], axis=1)
    return out


def sample_orthonormal_set(g, k, sampler, constraints=None):
    """Draw ``k`` g-orthonormal vectors, each g-orthogonal to the span of
    ``constraints`` (dependent constraints are dropped)."""
    rows = gram_schmidt(constraints if constraints else [], g, drop_dependent=True)
    return orthonormal_frames(g, sampler.draw(k)[None], sampler, rows=rows[None])[:, 0]


def admissible_frames(g, J, sampler, count, size=2):
    """(X, Y[, Z[, U]]) of ``count`` frames of ``size`` 2, 3 or 4, shape
    (size, count, n): g-unit vectors, each g-orthogonal to the earlier ones
    and their J-images.  Y is drawn first, then X, Z, U.  No frame, no draw."""
    Y, X, *rest = orthonormal_frames(g, sampler.draw(count * size).reshape(count, size, len(g)),
                                      sampler, J)
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
