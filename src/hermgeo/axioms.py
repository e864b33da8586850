"""Pointwise linear-algebra verification of the conformal-flatness argument.

An algebraic curvature tensor in dimension n is a symmetric N x N matrix M
over the bivectors, N = n(n-1)/2, with R(X,Y,Z,U) = b(X,Y)^T M b(Z,U) for
b(X,Y)_{ij} = X_i Y_j - X_j Y_i (i < j), whose entries satisfy the first
Bianchi identity.  ``curvature_space(n)`` holds an orthonormal basis of that
Bianchi kernel inside Sym^2(Lambda^2), of dimension n^2(n^2-1)/12; tensors
are written as coordinates in it.  The curvature identities produced by the
umbilical-sphere axiom, and the orthogonal-quadruple criterion, are linear
functionals on that space; sampling admissible frames until the constraint
rank stabilizes yields the solution space, on which the conformal (Weyl)
tensor is then evaluated.  A vanishing Weyl norm over the null space is the
machine form of the classical conformal-flatness conclusion.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from . import curvature as cv
from . import frames as fr


class RankStabilizationError(RuntimeError):
    pass


_RANK_CUT = 1e-9        # singular values below cut * max are treated as zero
_STABLE_BATCHES = 3
_MAX_BATCHES = 200      # batches allowed beyond those a full-rank stack needs
_THEOREM_BATCH = 6      # admissible frames per batch of theorem constraints
_SCHOUTEN_BATCH = 8     # orthonormal quadruples per batch of Schouten constraints


@dataclass(frozen=True)
class AlgebraicCurvatureTensor:
    """Dimension-n 4-index array with the curvature symmetries."""
    dimension: int
    components: np.ndarray

    def __post_init__(self):
        res = cv.symmetry_residuals(self.components)
        worst = max(res.values())
        if worst > 1e-10:
            raise ValueError(f"curvature symmetries violated (residual {worst:.3e})")


def curvature_space_dim(n):
    return n * n * (n * n - 1) // 12


@dataclass(frozen=True)
class CurvatureSpace:
    """Algebraic curvature tensors of dimension n in Lambda^2 coordinates.

    ``pairs`` (N, 2) lists the bivector index pairs i < j.  ``entries`` (E, 2)
    lists the upper-triangle entries (p, q), p <= q, of a symmetric N x N
    matrix; an entry's coordinate is M_pp or sqrt(2) M_pq, so the dot product
    of entry vectors is the Frobenius product of the matrices.  ``coeffs``
    (E, d), sparse, is an orthonormal basis of the Bianchi kernel: the tensor
    with coordinates x has M = smat(coeffs @ x) / 2, and its n^4 components
    are ``flat_factor * (coeffs @ x)[flat_entry]``, of norm |x|.
    """
    n: int
    pairs: np.ndarray
    entries: np.ndarray
    coeffs: scipy.sparse.csc_matrix
    flat_entry: np.ndarray
    flat_factor: np.ndarray

    @property
    def dim(self):
        return self.coeffs.shape[1]


@functools.cache
def curvature_space(n):
    """The CurvatureSpace of dimension n, built once per n."""
    pairs = list(itertools.combinations(range(n), 2))
    entries = [(p, q) for p in range(len(pairs)) for q in range(p, len(pairs))]
    pair_of = np.zeros((n, n), dtype=np.intp)
    sign = np.zeros((n, n))
    for p, (i, j) in enumerate(pairs):
        pair_of[i, j] = pair_of[j, i] = p
        sign[i, j], sign[j, i] = 1.0, -1.0
    entry_of = np.zeros((len(pairs), len(pairs)), dtype=np.intp)
    for e, (p, q) in enumerate(entries):
        entry_of[p, q] = entry_of[q, p] = e

    # The Bianchi symmetrization of M is totally antisymmetric; on i<j<k<l it
    # reads M[ij,kl] - M[ik,jl] + M[il,jk].  Entries whose two pairs share an
    # index are therefore free, and each quadruple keeps the orthogonal
    # complement of (1, -1, 1) on its three pairings ij|kl, ik|jl, il|jk.
    columns = [[(e, 1.0)] for e, (p, q) in enumerate(entries)
               if len({*pairs[p], *pairs[q]}) < 4]
    for i, j, k, l in itertools.combinations(range(n), 4):
        a, b, c = entry_of[pair_of[[i, i, i], [j, k, l]], pair_of[[k, j, j], [l, l, k]]]
        columns.append([(a, 2 ** -0.5), (b, 2 ** -0.5)])
        columns.append([(a, -6 ** -0.5), (b, 6 ** -0.5), (c, 2 * 6 ** -0.5)])
    rows, cols, vals = zip(*[(e, col, v) for col, terms in enumerate(columns)
                             for e, v in terms])
    coeffs = scipy.sparse.csc_matrix((vals, (rows, cols)),
                                     shape=(len(entries), len(columns)))
    assert coeffs.shape[1] == curvature_space_dim(n)

    # R_ijkl = sign(i,j) sign(k,l) M[ij,kl] / 2 (coordinates carry the 1/2)
    flat_pair = pair_of.reshape(-1)
    factor = 0.5 * np.outer(sign, sign) * np.where(
        flat_pair[:, None] == flat_pair, 1.0, 2 ** -0.5)
    return CurvatureSpace(
        n=n, pairs=np.array(pairs, dtype=np.intp).reshape(-1, 2),
        entries=np.array(entries, dtype=np.intp).reshape(-1, 2), coeffs=coeffs,
        flat_entry=entry_of[flat_pair[:, None], flat_pair].reshape(-1),
        flat_factor=factor.reshape(-1))


def _tensors(space, coords):
    """4-index arrays (..., n, n, n, n) of the tensors with coordinates
    ``coords`` (..., d)."""
    values = (space.coeffs @ np.asarray(coords).T).T[..., space.flat_entry]
    values *= space.flat_factor
    return values.reshape(values.shape[:-1] + (space.n,) * 4)


@functools.cache
def curvature_basis(n):
    """Orthonormal basis of algebraic curvature tensors, shape (d, n^4): the
    n^4 components of the coordinate vectors of ``curvature_space(n)``.

    Every basis element satisfies the symmetries exactly by construction.
    The array is shared between callers and read-only.
    """
    space = curvature_space(n)
    basis = _tensors(space, np.eye(space.dim)).reshape(space.dim, n ** 4)
    basis.flags.writeable = False
    return basis


def _bivectors(space, X, Y):
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    i, j = space.pairs.T
    return X[..., i] * Y[..., j] - X[..., j] * Y[..., i]


def functional_row(space, X, Y, Z, U):
    """Row vector of the functional R -> R(X,Y,Z,U) in coordinates of
    ``space``; stacks of k vectors, shape (k, n), give k rows at once.

    It is the symmetrized outer product of the bivectors of (X, Y) and
    (Z, U), in entry coordinates, times the Bianchi kernel basis.
    """
    a, c = _bivectors(space, X, Y), _bivectors(space, Z, U)
    p, q = space.entries.T
    # R(X,Y,Z,U) = sum over p <= q of (a_p c_q + a_q c_p) M_pq, halved on the
    # diagonal; M = smat(coeffs @ x) / 2 turns the weights into 1/4 on the
    # diagonal and 1/(2 sqrt 2) off it
    w = (a[..., p] * c[..., q] + a[..., q] * c[..., p]) * np.where(p == q, 0.25, 8 ** -0.5)
    return (space.coeffs.T @ w.T).T


# ---------------------------------------------------------------------------
# identity residuals on a concrete tensor

_IDENTITY_NAMES = ["3.1", "3.2", "3.3", "3.4", "3.5", "3.6", "3.7", "3.8"]
# the identities the sphere axiom yields directly; (3.4) and (3.8) are derived
_DIRECT = ("3.1", "3.2", "3.3", "3.5", "3.6", "3.7")


def _identities(J, frame, names=_IDENTITY_NAMES):
    """(name, quadruple[, quadruple]) of each identity in ``names`` that
    applies to an admissible frame (X, Y[, Z[, U]]), or to stacks of them:
    R vanishes on the quadruple, or agrees on the two quadruples.  (3.5) has
    two entries."""
    X, Y = frame[0], frame[1]
    JX, JY = X @ J.T, Y @ J.T
    out = [("3.1", (X, JX, JY, Y)),
           ("3.2", (JY, JX, X, Y)),
           ("3.3", (X, JX, JX, Y), (X, JY, JY, Y)),
           ("3.4", (X, Y, Y, JX), (X, JY, JY, JX))]
    if len(frame) >= 3:
        Z = frame[2]
        out += [("3.5", (X, JX, Y, Z)),
                ("3.5", (X, Y, JY, Z)),
                ("3.6", (X, JX, JX, Z), (X, Y, Y, Z)),
                ("3.7", (X, Y, Y, JX), (X, Z, Z, JX))]
    if len(frame) >= 4:
        out.append(("3.8", (X, Y, frame[2], frame[3])))
    return [entry for entry in out if entry[0] in names]


def _per_entry(value, entries):
    """Per identity entry: ``value`` of its first quadruple, minus that of its
    second if any."""
    return [value(*terms[0]) - value(*terms[1]) if len(terms) == 2 else value(*terms[0])
            for _, *terms in entries]


def proof_identity_residuals(R4, g, J, sampler, frames=64):
    """Max residual of each identity over sampled admissible frames.

    Identities outside the dimension regime are reported as None (skipped);
    in dimension 2 no admissible frame exists, so all of them are.  The
    frames come as one stack, and each identity entry is one curvature
    evaluation over all of them.
    """
    n = g.shape[0]
    worst = dict.fromkeys(_IDENTITY_NAMES)
    if n > 2 and frames:
        entries = _identities(J, fr.admissible_frames(g, J, sampler, frames, need_z=n >= 6,
                                                      need_u=n >= 8))
        values = _per_entry(functools.partial(cv.curvature_values, R4), entries)
        for (name, *_), value in zip(entries, values):
            worst[name] = max(worst[name] or 0.0, float(np.max(np.abs(value))))
    return worst


def quadruple_vanishing_residual(R4, g, sampler, samples=256):
    """Max |R(X,Y,Z,U)| over sampled g-orthonormal quadruples."""
    n = g.shape[0]
    if n < 4:
        raise cv.UnsupportedDimensionError("orthogonal quadruples need dimension >= 4")
    quads = fr.orthonormal_frames(g, sampler.draw(4 * samples).reshape(samples, 4, n), sampler)
    return float(np.max(np.abs(cv.curvature_values(R4, *quads))))


# ---------------------------------------------------------------------------
# null-space certificates

def _stable_nullspace(row_batches, dim):
    """Accumulate constraint rows until the rank is unchanged for three
    consecutive batches; return (rows, nullspace basis in coordinates, rank
    gap).

    Each batch is projected onto the orthogonal complement of the rows seen
    so far and only that projection is factored; the null space and its rank
    gap come from one SVD of the whole stack at the end.  Every batch may
    raise the rank, so the budget adds the batches a full-rank stack needs
    to the fixed allowance.
    """
    span = np.empty((dim, dim))  # orthonormal rows spanning the stack's rows
    stack, rank, stable, sumsq, budget = [], 0, 0, 0.0, None
    for count, batch in enumerate(row_batches, 1):
        budget = budget or _MAX_BATCHES + math.ceil(dim / len(batch))
        stack.append(batch)
        # the Frobenius norm of the stack bounds its largest singular value
        sumsq += float(np.sum(batch * batch))
        basis = span[:rank]
        part = batch - (batch @ basis.T) @ basis
        part -= (part @ basis.T) @ basis
        _, sv, vt = scipy.linalg.svd(part, full_matrices=False)
        new = vt[sv > _RANK_CUT * math.sqrt(sumsq)]
        span[rank:rank + len(new)] = new
        rank += len(new)
        stable = 0 if len(new) or count == 1 else stable + 1
        if stable >= _STABLE_BATCHES:
            rows = np.vstack(stack)
            return (rows, *_nullspace(rows))
        if count == budget:
            raise RankStabilizationError(
                f"constraint rank did not stabilize within {budget} batches")


def _nullspace(rows):
    """Orthonormal null-space basis of ``rows`` (as columns) and its rank gap:
    the smallest kept and the largest dropped singular value relative to the
    largest, from one SVD at the relative cut."""
    dim = rows.shape[1]
    _, sv, vt = scipy.linalg.svd(rows, full_matrices=rows.shape[0] < dim)
    sv = np.concatenate([sv, np.zeros(dim - len(sv))]) / max(sv[0], 1e-300)
    rank = int(np.sum(sv > _RANK_CUT))
    gap = {"smallest_kept": float(sv[rank - 1]) if rank else None,
           "largest_dropped": float(sv[rank]) if rank < dim else None}
    return vt[rank:].T, gap


def _max_weyl(space, null):
    """Max Weyl norm (identity metric) of the null-space tensors, columns of ``null``."""
    T, g = _tensors(space, null.T), np.eye(space.n)
    S, s = cv.ricci_scalar(T, g)
    return float(np.max(np.abs(cv.weyl(T, S, s, g)), initial=0.0))


def schouten_nullspace_verify(n, sampler=None, tolerance=1e-8):
    """Solution space of the orthogonal-quadruple vanishing condition.

    Returns a report with the null-space dimension (expected n(n+1)/2), the
    max Weyl norm over an orthonormal null-space basis, the rank gap, and
    that basis itself (``nullspace``, columns in coordinates of
    ``curvature_space(n)``).
    """
    if n < 4:
        raise cv.UnsupportedDimensionError("need dimension >= 4")
    sampler = sampler or fr.FrameSampler(0, n)
    space = curvature_space(n)
    g = np.eye(n)

    def batches():
        while True:
            raw = sampler.draw(4 * _SCHOUTEN_BATCH).reshape(_SCHOUTEN_BATCH, 4, n)
            yield functional_row(space, *fr.orthonormal_frames(g, raw, sampler))

    rows, null, gap = _stable_nullspace(batches(), space.dim)
    max_weyl = _max_weyl(space, null)
    return {
        "dimension": n,
        "constraint_rows": int(rows.shape[0]),
        "nullspace_dim": int(null.shape[1]),
        "expected_nullspace_dim": n * (n + 1) // 2,
        "max_weyl": max_weyl,
        "tolerance": tolerance,
        "pass": null.shape[1] == n * (n + 1) // 2 and max_weyl <= tolerance,
        "rank_gap": gap,
        "nullspace": null,
    }


def canonical_j(n):
    """Block rotation J e_{2k} = e_{2k+1} on even-dimensional R^n."""
    J = np.zeros((n, n))
    for k in range(n // 2):
        J[2 * k + 1, 2 * k] = 1.0
        J[2 * k, 2 * k + 1] = -1.0
    return J


def _identity_rows(space, entries):
    """Functional rows of identity entries (name, quadruple[, quadruple]):
    the row of the first quadruple minus that of the second, if any.  Shape
    (E, d), or (s, E, d) frame-major for entries on stacks of s frames."""
    return np.stack(_per_entry(functools.partial(functional_row, space), entries), axis=-2)


def theorem_nullspace_verify(m, sampler=None, tolerance=1e-8, samples=128):
    """Certificate that the sphere-axiom identities force the Weyl tensor to
    vanish, for complex dimension m (real dimension n = 2m).

    Constraints are the identities the axiom yields directly: (3.1), (3.2),
    (3.3), and for m > 2 also (3.5), (3.6), (3.7).  The derived identities
    (3.4), (3.8), orthogonal-quadruple vanishing and the Weyl norm are then
    verified on the resulting null space: the check functionals on all
    sampled frames, times the null-space basis, in one product.
    """
    if m < 2:
        raise cv.UnsupportedDimensionError("need complex dimension m >= 2")
    n = 2 * m
    sampler = sampler or fr.FrameSampler(0, n)
    space = curvature_space(n)
    g = np.eye(n)
    J = canonical_j(n)

    def batches():
        while True:
            frames = fr.admissible_frames(g, J, sampler, _THEOREM_BATCH, need_z=m > 2)
            yield _identity_rows(space, _identities(J, frames, _DIRECT)).reshape(-1, space.dim)

    rows, null, gap = _stable_nullspace(batches(), space.dim)

    # derived identities and Weyl on the null space
    check_sampler = fr.FrameSampler(sampler.seed + 1, n)
    checks = _identities(J, fr.admissible_frames(g, J, check_sampler, samples, need_z=m > 2,
                                                 need_u=m >= 4), ("3.4", "3.8"))
    quad_sampler = fr.FrameSampler(sampler.seed + 2, n)
    raw = quad_sampler.draw(4 * samples).reshape(samples, 4, n)
    checks.append(("quadruple", fr.orthonormal_frames(g, raw, quad_sampler)))
    values = np.abs(_identity_rows(space, checks) @ null)
    names = np.array([name for name, *_ in checks])
    derived = {name: float(values[:, names == name].max(initial=0.0)) if name in names else None
               for name in ("3.4", "3.8", "quadruple")}  # (3.8) needs m >= 4
    derived["weyl"] = _max_weyl(space, null)

    return {
        "m": m,
        "dimension": n,
        "constraint_rows": int(rows.shape[0]),
        "nullspace_dim": int(null.shape[1]),
        "derived_residuals": derived,
        "max_weyl": derived["weyl"],
        "tolerance": tolerance,
        "pass": derived["weyl"] <= tolerance,
        "rank_gap": gap,
        "nullspace": null,
    }


def containment_residual(report_inner, report_outer):
    """Max projection defect of the inner null space onto the outer one.

    Both reports must come from the same dimension (same
    ``curvature_space``), so coordinates are comparable.
    """
    inner = report_inner["nullspace"]
    outer = report_outer["nullspace"]
    proj = outer @ (outer.T @ inner)
    return float(np.max(np.abs(inner - proj)))
