"""Metric orthonormalization and reproducible frame sampling.

Random draws use numpy's PCG64 generator with an explicit seed, so identical
(seed, dimension) pairs give bit-identical frames on every platform.
"""

import numpy as np


class RankDeficiencyError(ValueError):
    pass


class IncompatibleStructureError(ValueError):
    pass


_PIVOT = 1e-10
_HERMITIAN_TOL = 1e-9


class FrameSampler:
    """Deterministic source of raw vectors for frame construction."""

    def __init__(self, seed, dimension):
        self.seed = int(seed)
        self.dimension = int(dimension)
        self._rng = np.random.Generator(np.random.PCG64(self.seed))

    def draw(self, count=1):
        """Raw vectors with components uniform in [-1, 1), shape (count, dim)."""
        return self._rng.uniform(-1.0, 1.0, size=(count, self.dimension))


def gram_schmidt(vectors, g, drop_dependent=False):
    """Orthonormalize ``vectors`` with respect to the metric ``g``.

    Modified Gram-Schmidt with one reorthogonalization pass; adequate for the
    dimensions in play (<= 16).  A pivot below 1e-10 of the leading norm
    raises RankDeficiencyError, or with ``drop_dependent`` skips that vector.
    """
    g = np.asarray(g, dtype=float)
    vecs = [np.array(v, dtype=float) for v in vectors]
    if not vecs:
        return []
    lead = np.sqrt(max(v @ g @ v for v in vecs))
    out = []
    for v in vecs:
        for _ in range(2):
            for u in out:
                v = v - (u @ g @ v) * u
        try:
            out.append(_normalized(v, g, lead))
        except RankDeficiencyError:
            if not drop_dependent:
                raise
    return out


def _normalized(v, g, lead):
    """v / |v|_g; RankDeficiencyError when that pivot is at most 1e-10 * lead."""
    nrm = np.sqrt(v @ g @ v)
    if nrm <= _PIVOT * lead:
        raise RankDeficiencyError(
            f"vector set is rank deficient (pivot {nrm:.3e} vs lead {lead:.3e})")
    return v / nrm


def sample_orthonormal_set(g, k, sampler, constraints=None):
    """Draw ``k`` g-orthonormal vectors, each g-orthogonal to the span of
    ``constraints`` (Y and JY are dependent when Y is an eigenvector of J);
    two classical Gram-Schmidt passes project each draw off the rows so far."""
    g = np.asarray(g, dtype=float)
    dim = g.shape[0]
    basis = gram_schmidt(constraints or [], g, drop_dependent=True)
    if k + len(basis) > dim:
        raise RankDeficiencyError(
            f"cannot fit {k} vectors orthogonal to {len(basis)} constraints in dim {dim}")
    rows = np.array(basis + [np.zeros(dim)] * k)
    # rejection is only against numerically degenerate draws, which are
    # measure-zero; retry keeps determinism since the sampler is sequential
    for found in range(len(basis), len(rows)):
        for _attempt in range(64):
            v = sampler.draw(1)[0]
            lead = np.sqrt(v @ g @ v)
            for _ in range(2 if found else 0):
                v = v - (rows[:found] @ (g @ v)) @ rows[:found]
            try:
                rows[found] = _normalized(v, g, max(1.0, lead) if found else lead)
            except RankDeficiencyError:
                continue
            break
        else:
            raise RankDeficiencyError("could not sample an independent vector")
    return list(rows[len(basis):])


def hermitian_residuals(g, J):
    """Max-norm residuals (|J^2 + I|, |g(J.,J.) - g|) of a pair (g, J)."""
    g = np.asarray(g, dtype=float)
    J = np.asarray(J, dtype=float)
    return (float(np.max(np.abs(J @ J + np.eye(J.shape[0])))),
            float(np.max(np.abs(J.T @ g @ J - g))))


def adapted_hermitian_frame(g, J, sampler):
    """A g-orthonormal frame (e_1, Je_1, ..., e_m, Je_m).

    Every even-position vector is exactly J applied to its predecessor.
    """
    g = np.asarray(g, dtype=float)
    J = np.asarray(J, dtype=float)
    r_square, r_compat = hermitian_residuals(g, J)
    if r_square > _HERMITIAN_TOL or r_compat > _HERMITIAN_TOL:
        raise IncompatibleStructureError(
            f"almost complex structure incompatible: |J^2+I|={r_square:.3e}, "
            f"|J^T g J - g|={r_compat:.3e}")
    dim = g.shape[0]
    if dim % 2:
        raise IncompatibleStructureError("almost complex structure needs even dimension")
    frame = []
    for _ in range(dim // 2):
        e = sample_orthonormal_set(g, 1, sampler, constraints=frame)[0]
        frame.append(e)
        frame.append(J @ e)
    return frame
