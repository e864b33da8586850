"""Metric orthonormalization and reproducible frame sampling.

Random draws use numpy's PCG64 generator with an explicit seed, so identical
(seed, dimension) pairs give bit-identical frames on every platform.
"""

import contextlib

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


def _project(rows, v, g, lead):
    """The one orthonormalization step: ``v`` projected off the g-orthonormal
    ``rows`` by two classical Gram-Schmidt passes as matrix products, then
    normalized; RankDeficiencyError when the pivot is at most 1e-10 * lead."""
    for _ in range(2 if len(rows) else 0):
        v = v - (rows @ (g @ v)) @ rows
    nrm = np.sqrt(v @ g @ v)
    if nrm <= _PIVOT * lead:
        raise RankDeficiencyError(
            f"vector set is rank deficient (pivot {nrm:.3e} vs lead {lead:.3e})")
    return v / nrm


def gram_schmidt(vectors, g, drop_dependent=False):
    """Orthonormalize ``vectors`` with respect to the metric ``g``, as rows.
    A pivot below 1e-10 of the largest input norm raises RankDeficiencyError,
    or with ``drop_dependent`` skips that vector."""
    g = np.asarray(g, dtype=float)
    vecs = np.array(vectors, dtype=float).reshape(-1, len(g))
    lead = np.sqrt(max((v @ g @ v for v in vecs), default=0.0))
    rows, found = np.empty_like(vecs), 0
    for v in vecs:
        try:
            rows[found] = _project(rows[:found], v, g, lead)
            found += 1
        except RankDeficiencyError:
            if not drop_dependent:
                raise
    return rows[:found]


def _grow(g, sampler, count, J=None, rows=()):
    """Extend the g-orthonormal ``rows`` by ``count`` sampled g-unit vectors;
    returns those.  With ``J`` each draw e is followed by Je, dropped when it
    depends on the rows so far (as JY on an eigenvector Y of J).  A draw's
    pivot is measured against |v| for the first row, max(1, |v|) after that;
    a degenerate draw (measure zero) is redrawn, deterministically."""
    g = np.asarray(g, dtype=float)
    found, dim, draws = len(rows), len(g), []
    rows = np.concatenate([np.reshape(rows, (-1, dim)), np.empty((2 * count, dim))])
    for i in range(count):
        k = count - i if J is None else 1
        if k + found > dim:
            raise RankDeficiencyError(
                f"cannot fit {k} vectors orthogonal to {found} constraints in dim {dim}")
        for _attempt in range(64):
            v = sampler.draw(1)[0]
            lead = np.sqrt(v @ g @ v)
            with contextlib.suppress(RankDeficiencyError):
                rows[found] = _project(rows[:found], v, g, max(1.0, lead) if found else lead)
                break
        else:
            raise RankDeficiencyError("could not sample an independent vector")
        draws.append(rows[found])
        found += 1
        if J is not None and i + 1 < count:  # Je only constrains later draws
            Je = J @ draws[-1]
            with contextlib.suppress(RankDeficiencyError):
                rows[found] = _project(rows[:found], Je, g, max(1.0, np.sqrt(Je @ g @ Je)))
                found += 1
    return draws


def sample_orthonormal_set(g, k, sampler, constraints=None):
    """Draw ``k`` g-orthonormal vectors, each g-orthogonal to the span of
    ``constraints`` (dependent constraints are dropped)."""
    return _grow(g, sampler, k, rows=gram_schmidt(constraints, g, drop_dependent=True)
                 if constraints else ())


def admissible_frame(g, J, sampler, need_z=False, need_u=False):
    """(X, Y[, Z[, U]]): g-unit vectors, each g-orthogonal to the earlier
    ones and their J-images.  Y is drawn first, then X, Z, U."""
    Y, X, *rest = _grow(g, sampler, 2 + need_z + (need_z and need_u), J)
    return [X, Y, *rest]


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
    J = np.asarray(J, dtype=float)
    r_square, r_compat = hermitian_residuals(g, J)
    if r_square > _HERMITIAN_TOL or r_compat > _HERMITIAN_TOL:
        raise IncompatibleStructureError(
            f"almost complex structure incompatible: |J^2+I|={r_square:.3e}, "
            f"|J^T g J - g|={r_compat:.3e}")
    dim = len(g)
    if dim % 2:
        raise IncompatibleStructureError("almost complex structure needs even dimension")
    return [v for e in _grow(g, sampler, dim // 2, J) for v in (e, J @ e)]
