"""Pointwise linear-algebra verification of the conformal-flatness argument.

An algebraic curvature tensor in dimension n is a symmetric N x N matrix M
over the bivectors, N = n(n-1)/2, with R(X,Y,Z,U) = b(X,Y)^T M b(Z,U) for
b(X,Y)_{ij} = X_i Y_j - X_j Y_i (i < j), whose entries satisfy the first
Bianchi identity.  ``curvature_space(n)`` holds an orthonormal basis of that
Bianchi kernel inside Sym^2(Lambda^2), of dimension n^2(n^2-1)/12; tensors
are written as coordinates in it.  The curvature identities produced by the
umbilical-sphere axiom, and the orthogonal-quadruple criterion, are linear
functionals on that space.  A fixed number of frames, enough for full rank
on the complement of K with three batches to spare, gives the constraint
rows; they are then checked to vanish on exactly the space K of products
h ⊙ g, written down in closed form, with a certified margin on its
complement.  K, its conformal (Weyl) norm and the derived identities'
bounds on it are built once per n.  A vanishing Weyl norm over the null
space is the machine form of the classical conformal-flatness conclusion.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy  # unused; kept only because perfbench/tracing.py proxies axioms.scipy

from . import curvature as cv
from . import frames as fr


_RANK_CUT = 1e-9        # margins below cut * max are treated as zero
_SPARE_BATCHES = 3      # batches drawn beyond those a full-rank stack needs
_THEOREM_BATCH = 6      # admissible frames per batch of theorem constraints
_SCHOUTEN_BATCH = 8     # orthonormal quadruples per batch of Schouten constraints
_BLOCK_ROWS = 128       # constraint rows drawn at once


def curvature_space_dim(n):
    return n * n * (n * n - 1) // 12


@dataclass(frozen=True)
class CurvatureSpace:
    """Algebraic curvature tensors of dimension n in Lambda^2 coordinates.

    ``pairs`` (N, 2) lists the bivector index pairs i < j.  ``entries`` (E, 2)
    lists the upper-triangle entries (p, q), p <= q, of a symmetric N x N
    matrix; an entry's coordinate is M_pp or sqrt(2) M_pq, so the dot product
    of entry vectors is the Frobenius product of the matrices.

    ``index`` and ``weight`` (d, 3) hold an orthonormal basis B (E, d) of the
    Bianchi kernel, one row per column of B: column c is ``weight[c, k]`` at
    entry ``index[c, k]``, in increasing entry order.  A column has one to
    three entries; the unused slots have index 0 and weight 0.  The tensor
    with coordinates x has M = smat(B x) / 2, and its n^4 components are
    ``flat_factor * (B x)[flat_entry]``, of norm |x|.
    """
    n: int
    pairs: np.ndarray
    entries: np.ndarray
    index: np.ndarray
    weight: np.ndarray
    flat_entry: np.ndarray
    flat_factor: np.ndarray

    @property
    def dim(self):
        return len(self.index)


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
    assert len(columns) == curvature_space_dim(n)
    index = np.zeros((len(columns), 3), dtype=np.intp)
    weight = np.zeros((len(columns), 3))
    for col, terms in enumerate(columns):
        index[col, :len(terms)], weight[col, :len(terms)] = zip(*terms)

    # R_ijkl = sign(i,j) sign(k,l) M[ij,kl] / 2 (coordinates carry the 1/2)
    flat_pair = pair_of.reshape(-1)
    factor = 0.5 * np.outer(sign, sign) * np.where(
        flat_pair[:, None] == flat_pair, 1.0, 2 ** -0.5)
    return CurvatureSpace(
        n=n, pairs=np.array(pairs, dtype=np.intp).reshape(-1, 2),
        entries=np.array(entries, dtype=np.intp).reshape(-1, 2), index=index, weight=weight,
        flat_entry=entry_of[flat_pair[:, None], flat_pair].reshape(-1),
        flat_factor=factor.reshape(-1))


def _tensors(space, coords):
    """4-index arrays (..., n, n, n, n) of the tensors with coordinates
    ``coords`` (..., d)."""
    coords = np.asarray(coords)
    values = np.zeros(coords.shape[:-1] + (len(space.entries),))
    # B x, accumulated column by column in increasing order; as in
    # functional_row, the order fixes the rounding
    np.add.at(values, (..., space.index), space.weight * coords[..., None])
    values = values[..., space.flat_entry] * space.flat_factor
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
    lead = np.broadcast_shapes(a.shape, c.shape)[:-1]
    a, c = (np.ascontiguousarray(v.reshape(-1, v.shape[-1]).T) for v in (a, c))
    p, q = space.entries.T
    # R(X,Y,Z,U) = sum over p <= q of (a_p c_q + a_q c_p) M_pq, halved on the
    # diagonal; M = smat(B x) / 2 turns the weights into 1/4 on the diagonal
    # and 1/(2 sqrt 2) off it.  w is (E, k), one column per functional.
    w = (a[p] * c[q] + a[q] * c[p]) * np.where(p == q, 0.25, 8 ** -0.5)[:, None]
    # B^T w, (d, k): each column's entries weighted and summed in entry order,
    # one gather at a time to keep blocks of rows small in memory.  The rows
    # are returned as its transpose.  Both that sum order and that layout
    # decide the rounding of later products, so certificates depend on them.
    rows = w[space.index[:, 0]] * space.weight[:, 0, None]
    for slot in (1, 2):
        term = w[space.index[:, slot]]
        term *= space.weight[:, slot, None]
        rows += term
    return rows.T.reshape(lead + (space.dim,))


# ---------------------------------------------------------------------------
# identity residuals on a concrete tensor

_IDENTITY_NAMES = ["3.1", "3.2", "3.3", "3.4", "3.5", "3.6", "3.7", "3.8"]
# the identities the sphere axiom yields directly; (3.4) and (3.8) are derived
_DIRECT = ("3.1", "3.2", "3.3", "3.5", "3.6", "3.7")


def _identities(J, frame):
    """(name, quadruple[, quadruple]) of each identity in ``_DIRECT``, the
    ones the sphere axiom yields directly, that applies to an admissible
    frame (X, Y[, Z]), or to stacks of them: R vanishes on the quadruple, or
    agrees on the two quadruples.  (3.5) has two entries; the derived (3.4)
    and (3.8) have none."""
    X, Y = frame[0], frame[1]
    JX, JY = X @ J.T, Y @ J.T
    out = [("3.1", (X, JX, JY, Y)),
           ("3.2", (JY, JX, X, Y)),
           ("3.3", (X, JX, JX, Y), (X, JY, JY, Y))]
    if len(frame) >= 3:
        Z = frame[2]
        out += [("3.5", (X, JX, Y, Z)),
                ("3.5", (X, Y, JY, Z)),
                ("3.6", (X, JX, JX, Z), (X, Y, Y, Z)),
                ("3.7", (X, Y, Y, JX), (X, Z, Z, JX))]
    return [entry for entry in out if entry[0] in _DIRECT]


def _identity_rows(space, entries):
    """Functional rows of identity entries, per entry that of its first
    quadruple, minus that of its second if any: shape (E, d), or (s, E, d)
    frame-major for entries on stacks of s frames.  The stack is
    C-contiguous; its layout fixes the rounding of products with it."""
    value = functools.partial(functional_row, space)
    rows = [value(*terms[0]) - value(*terms[1]) if len(terms) == 2 else value(*terms[0])
            for _, *terms in entries]
    return np.ascontiguousarray(np.stack(rows, axis=-2))


# ---------------------------------------------------------------------------
# chart verdicts as distances from fixed subspaces
#
# In a g-orthonormal frame in which J is canonical_j(n), n = 2m, each verdict
# asks linear conditions of R on every frame of a kind: an invariant takes one
# value, an identity vanishes.  Those R form a subspace V that depends on m
# alone and is invariant under U(m), so V's orthogonal complement is a sum of
# U(m)-irreducible pieces of the curvature space (Tricerri and Vanhecke,
# Trans. AMS 267, 1981).  Written in a unitary basis u_1..u_m, u_1'..u_m' (u'
# the conjugate of u), R has blocks by the number of primed indices; with
# T[a, b, c, d] its components:
#
#   Q   R(u, u, u, u): one piece, of real dimension m^2 (m^2 - 1) / 6;
#   T3  R(u, u, u, u'): traceless part P0, and a symmetric (Ps, J-anti-invariant
#       symmetric tensors) and a skew (Pa, J-anti-invariant 2-forms) trace;
#   S   the part of R(u, u', u, u') symmetric in its unprimed indices, the
#       Kahler curvature tensors: traceless part K0 (Bochner), an adjoint
#       (traceless J-invariant symmetric tensors) and a trivial trace;
#   A   R(u, u, u', u'): traceless part L0, an adjoint and a trivial trace.
#
# The adjoint and the trivial type occur twice, once in S and once in A, so
# there a complement holds a line (c, s) of the plane of the two copies.  The
# table gives, per verdict, the least m at which it exists, the quadruples of
# one functional, the pieces its complement holds, and its two lines (None:
# none) as unnormalized functions of m.  The complement is the U(m)-span of
# the verdict's functionals at one unitary frame (less the trivial type for
# an invariant): the table lists the pieces they reach, and the lines are
# closed forms that their coordinates fit exactly for m = 2..8.  Tests
# compare each complement with the span of functional rows on many frames.

CONSTANCY = ("holomorphic_sectional", "antiholomorphic_sectional", "constant_type")


def _identity_line(m):
    return math.sqrt(3 * (m - 2)), math.sqrt(m + 2)


def _identity_trace(m):
    return math.sqrt(3 * (m - 1)), math.sqrt(m + 1)


_VERDICTS = {
    "holomorphic_sectional": (1, 1, ("K0",), lambda m: (1, 0), None),
    "antiholomorphic_sectional": (2, 1, ("K0", "L0", "Q", "Ps", "P0"),
                                  lambda m: (-math.sqrt(m - 2), math.sqrt(3 * (m + 2))), None),
    "constant_type": (2, 2, ("L0", "Q", "Ps", "P0"), lambda m: (0, 1), None),
    "3.1": (2, 1, ("K0", "L0"), _identity_line, _identity_trace),
    "3.2": (2, 1, ("K0", "L0", "Q"), _identity_line, _identity_trace),
    "3.3": (2, 2, ("K0", "Pa", "P0"), None, None),
    "3.4": (2, 2, ("K0", "Q"), None, None),
    "3.5": (3, 1, ("K0", "L0", "Q", "Pa", "P0"), _identity_line, None),
    "3.6": (3, 2, ("K0", "L0", "Q", "Pa", "P0"), _identity_line, None),
    "3.7": (3, 2, ("K0", "Q", "P0"), None, None),
    "3.8": (4, 1, ("K0", "L0", "Q", "P0"), None, None),
}


@functools.cache
def unitary_basis(n):
    """(n, n) complex: the columns u_a = (e_2a - i e_2a+1) / sqrt 2, a < m, with
    J u_a = i u_a for J = ``canonical_j(n)``, then their conjugates.  Unitary;
    shared between callers and read-only."""
    m, a = n // 2, np.arange(n // 2)
    Q = np.zeros((n, n), dtype=complex)
    Q[2 * a, a] = Q[2 * a, m + a] = 2 ** -0.5
    Q[2 * a + 1, a], Q[2 * a + 1, m + a] = -1j * 2 ** -0.5, 1j * 2 ** -0.5
    Q.flags.writeable = False
    return Q


def _over(a, b):
    return a / b if b else 0.0


def _permute(X, *order):
    """X (..., m, m, m, m) with its last four axes in ``order``."""
    lead = X.ndim - 4
    return X.transpose(*range(lead), *(lead + i for i in order))


_PIECES = ("K0", "L0", "Q", "Ps", "Pa", "P0")


def _pieces(T):
    """(squares, adjoint, trivial) of R from its components T (..., n, n, n, n),
    n = 2m, in a unitary basis (``unitary_basis``): squares (..., 6) holds the
    squared norms of R's projections onto the pieces that occur once, in the
    order of ``_PIECES``; adjoint, two (..., m, m), and trivial, two (...),
    the coordinates of its parts in the two copies of each repeated type,
    scaled so that a part's norm is its coordinate's."""
    m = T.shape[-1] // 2
    lead, u, v, eye = T.shape[:-4], slice(0, m), slice(m, 2 * m), np.eye(m)

    def traces(h, beta):
        # (h0, tr h, k): k = h0 / beta + tr(h) I / (m (beta + m)) gives the
        # block B(k) that carries the trace h, for a block map B whose trace
        # is beta k + tr(k) I
        trace = np.trace(h, axis1=-2, axis2=-1)[..., None, None]
        h0 = h - trace * (eye / m)
        return h0, trace[..., 0, 0], _over(1, beta) * h0 + trace * (eye * _over(1, m * (beta + m)))

    M = T[..., u, v, u, v]
    S = (M + _permute(M, 2, 1, 0, 3)) / 2
    # B(k) = k_ab I_cd + k_cd I_ab + k_ad I_cb + k_cb I_ad: trace (m + 2) k + tr(k) I
    h0S, tS, k = traces(np.einsum("...abcc->...ab", S), m + 2)
    Y = k[..., :, :, None, None] * eye
    Y = Y + _permute(Y, 2, 1, 0, 3)
    S0 = S - Y - _permute(Y, 0, 3, 2, 1)
    A = T[..., u, u, v, v]
    # B(k) = k_ac I_bd + k_bd I_ac - k_ad I_bc - k_bc I_ad: trace (m - 2) k + tr(k) I
    h0A, tA, k = traces(np.einsum("...abcb->...ac", A), m - 2)
    Y = k[..., :, None, :, None] * eye[:, None, :]
    Y = Y - _permute(Y, 1, 0, 2, 3)
    A0 = A - Y + _permute(Y, 0, 1, 3, 2)
    # the trace part of T3 is C*(k), k_ac I_bd made skew in (a, b), less its
    # part totally skew in (a, b, c); for the trace p of T3, C C* is (m - 1) / 2
    # on symmetric and (m + 1) / 6 on skew k
    T3 = T[..., u, u, u, v]
    p = np.einsum("...axcx->...ac", T3)
    pt = np.swapaxes(p, -1, -2)
    ps, pa = (p + pt) / 2, (p - pt) / 2
    k = _over(1, m - 1) * ps + 3 / (m + 1) * pa  # halved: Z below is made skew by a difference
    Z = k[..., :, None, :, None] * eye[:, None, :]
    Z = Z - _permute(Z, 1, 0, 2, 3)
    T30 = T3 - (2 * Z - _permute(Z, 1, 2, 0, 3) - _permute(Z, 2, 0, 1, 3)) / 3
    # one squared modulus over all pieces, summed piece by piece along one axis
    flat = [x.reshape(*lead, -1) for x in (S0, A0, T[..., u, u, u, u], ps, pa, T30)]
    starts = np.cumsum([0] + [x.shape[-1] for x in flat[:-1]])
    flat = np.concatenate(flat, axis=-1)
    squares = np.add.reduceat(flat.real ** 2 + flat.imag ** 2, starts, axis=-1)
    squares *= [4, 3, 2, _over(16, m - 1), 48 / (m + 1), 8]
    adjoint = 4 / math.sqrt(m + 2) * h0S, math.sqrt(_over(12, max(m - 2, 0))) * h0A
    trivial = math.sqrt(8 / (m * (m + 1))) * tS, math.sqrt(_over(6, m * (m - 1))) * tA
    return squares, adjoint, trivial


@functools.cache
def _verdict_table(m):
    """(names, held, adjoint, trivial, factors) of the verdicts that exist at m:
    held (6, V) marks the pieces each complement holds, adjoint and trivial
    (V, 2) its unit lines in the two repeated types (zero for none), and
    factors (V,) the sqrt(quadruples)."""
    names = tuple(name for name, row in _VERDICTS.items() if row[0] <= m)
    rows = [_VERDICTS[name] for name in names]

    def unit(line):
        return (0.0, 0.0) if line is None else np.divide(line(m), math.hypot(*line(m)))

    held = np.array([[piece in row[2] for row in rows] for piece in _PIECES], dtype=float)
    adjoint, trivial = (np.array([unit(row[k]) for row in rows]) for k in (3, 4))
    return names, held, adjoint, trivial, np.sqrt([row[1] for row in rows])


def verdict_bounds(T):
    """{verdict: bound} of every verdict that exists in dimension n (none in odd
    n), from the components T (..., n, n, n, n) of R in unitary frames
    (``classify.unitary_bounds``): sqrt(quadruples) times the distance of R
    from the verdict's subspace V.  A unit quadruple's functional has norm
    at most 1 and the two quadruples of an entry give orthogonal tensors, so
    the bound holds, on every frame of the verdict's kind, for how far each
    of its functionals lies from its value on the projection of R onto V:
    the invariant's mean, or 0 for an identity."""
    if T.shape[-1] % 2:
        return {}
    names, held, adjoint_lines, trivial_lines, factors = _verdict_table(T.shape[-1] // 2)
    squares, adjoint, trivial = _pieces(T)

    def along(unit, copies):  # (V, 2) lines and two copies (...) -> (V, ...)
        shape = (-1,) + (1,) * copies[0].ndim
        return unit[:, 0].reshape(shape) * copies[0] + unit[:, 1].reshape(shape) * copies[1]

    # each line's coordinate is the combination of the two copies along it;
    # sums run along one axis, not through BLAS, so that a point's bounds do
    # not depend on the stack it comes in
    adjoint, trivial = along(adjoint_lines, adjoint), along(trivial_lines, trivial)
    lines = np.sum(adjoint.real ** 2 + adjoint.imag ** 2, axis=(-2, -1)) + np.abs(trivial) ** 2
    total = np.sum(squares[..., :, None] * held, axis=-2) + np.moveaxis(lines, 0, -1)
    bounds = factors * np.sqrt(total)
    return {name: bounds[..., i] for i, name in enumerate(names)}


def proof_identity_residuals(bounds):
    """{identity: bound} of (3.1)...(3.8): the largest over the points of the
    ``verdict_bounds`` on |R| over every admissible frame, NaN where there is
    no unitary frame.  None outside the identity's regime ((3.5)-(3.7) need
    n >= 6, (3.8) n >= 8, none n = 2) or if some point has no unitary
    frame."""
    worst = {name: float(np.max(bounds[name])) for name in _IDENTITY_NAMES if name in bounds}
    return {name: None if math.isnan(worst.get(name, math.nan)) else worst[name]
            for name in _IDENTITY_NAMES}


def _quadruples(sampler, count):
    """``count`` orthonormal quadruples drawn as one block, shape (4, count, n):
    the Q of one real QR of each quadruple's draws."""
    raw = sampler.draw(4 * count).reshape(count, 4, sampler.dimension)
    return np.moveaxis(np.linalg.qr(np.swapaxes(raw, -1, -2))[0], -1, 0)


def quadruple_vanishing_residual(R4, g):
    """|W|_g, the norm of R's Weyl part in a g-orthonormal frame (L^-T, for
    g = L L^T), the largest over a stack (..., n, n, n, n) of tensors with
    one g or one per tensor.  It bounds |R(X,Y,Z,U)| on every g-orthonormal
    quadruple: R less its Weyl part is a Kulkarni-Nomizu product with g,
    which vanishes on one, and a unit quadruple's functional has norm 1."""
    n = g.shape[-1]
    if n < 4:
        raise cv.UnsupportedDimensionError("orthogonal quadruples need dimension >= 4")
    frame = np.swapaxes(np.linalg.inv(np.linalg.cholesky(g)), -1, -2)
    T, eye = cv.each_index(R4, frame, 4), np.eye(n)
    W = cv.weyl(T, *cv.ricci_scalar(T, eye), eye)
    return float(np.max(np.sqrt(np.sum(W ** 2, axis=(-4, -3, -2, -1)))))


# ---------------------------------------------------------------------------
# null-space certificates

def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53: the relative rounding
    bound of a k-term sum of products."""
    return k * 2.0 ** -53 / (1 - k * 2.0 ** -53)


@functools.cache
def _products(n):
    """(basis, max_weyl, derived) of K, the Kulkarni-Nomizu products h ⊙ I: an
    orthonormal basis (d, n(n+1)/2) in coordinates of ``curvature_space(n)``,
    the max Weyl norm (identity metric) of its tensors, and the theorem's
    derived residuals on K as (name, value) pairs, each the largest over the
    basis tensors of a bound that holds on every frame: the
    ``verdict_bounds`` of (3.4) and (3.8) (None where the identity does not
    exist) and the ``quadruple_vanishing_residual``.  The identity metric
    and J = ``canonical_j(n)`` have the adapted frame I, so the tensors'
    unitary components are taken in ``unitary_basis(n)``.

    The products of h = e_a e_b^T + e_b e_a^T, a <= b, are taken at each
    entry (ij, kl) of ``space.entries`` as R_ijkl (i < j, k < l), the
    coordinates are B^T of the entry vector, and one QR of the
    d x n(n+1)/2 result makes them orthonormal.
    """
    space = curvature_space(n)
    a, b = np.triu_indices(n)
    h = np.zeros((len(a), n, n))
    h[np.arange(len(a)), a, b] = h[np.arange(len(a)), b, a] = 1.0
    i, j, k, l = space.pairs[space.entries].reshape(-1, 4).T
    R = cv.kulkarni_nomizu(h, np.eye(n))[:, i, j, k, l]
    p, q = space.entries.T
    entry = R * np.where(p == q, 2.0, 8 ** 0.5)  # R = M_pq = smat(entry)_pq / 2
    basis = np.linalg.qr(np.einsum("kct,ct->ck", entry[:, space.index], space.weight))[0]
    basis.flags.writeable = False
    T, g = _tensors(space, basis.T), np.eye(n)
    S, s = cv.ricci_scalar(T, g)
    max_weyl = float(np.max(np.abs(cv.weyl(T, S, s, g)), initial=0.0))
    # chunks of 8 tensors keep their complex unitary components small in memory
    chunks = np.split(T, range(8, len(T), 8))
    bounds = [verdict_bounds(cv.each_index(t, unitary_basis(n), 4)) for t in chunks]
    worst = proof_identity_residuals(
        {name: np.concatenate([b[name] for b in bounds]) for name in bounds[0]})
    derived = (("3.4", worst["3.4"]), ("3.8", worst["3.8"]),
               ("quadruple", max(quadruple_vanishing_residual(t, g) for t in chunks)))
    return basis, max_weyl, derived


def _constraint_rows(space, entries, batch):
    """The constraint rows of a certificate, shape (r, d), item by item:
    ``entries(count)`` draws ``count`` items (frames or quadruples) and gives
    their identity entries for ``_identity_rows``.

    Entries on no item draw nothing, so a batch of ``batch`` items is b =
    batch * len(entries(0)) rows.  It can raise the rank by b, so
    ceil((d - k) / b) batches reach rank d - k for k = dim K, and
    _SPARE_BATCHES more follow: r = b (ceil((d - k) / b) + _SPARE_BATCHES).
    If some batch fell short of full rank, the rows would leave more than K
    unconstrained and ``_check`` would fail; the count cannot pass wrongly.

    A block of about _BLOCK_ROWS rows takes one draw and one QR.  The rows
    do not depend on the block size: the uniform stream is the same in one
    draw or in several, each frame is its own QR, and ``functional_row`` is
    elementwise in its stack."""
    size = batch * len(entries(0))
    if not size:
        raise ValueError(f"no constraint identity applies in dimension {space.n}")
    batches = -(-(space.dim - space.n * (space.n + 1) // 2) // size) + _SPARE_BATCHES
    out = np.empty((batches * size, space.dim))
    per_block = -(-_BLOCK_ROWS // size)
    for start in range(0, batches, per_block):
        count = min(per_block, batches - start)
        rows = _identity_rows(space, entries(count * batch))
        out[start * size:(start + count) * size] = rows.reshape(-1, space.dim)
    return out


def _check(rows, products):
    """Whether the null space of ``rows`` is the span of the orthonormal
    columns of ``products``, and the rank gap that shows it.  The rows come
    row-major, as ``_constraint_rows`` writes them: the layout decides the
    rounding of the products below.

    With G = rows^T rows, sigma^2 its largest eigenvalue and lambda its
    (k+1)-th smallest, k = dim K: the containment is |rows products|_2 /
    sigma.  A floating-point Cholesky of G + sigma^2 P P^T - s I, s = lambda
    less the allowance below, that succeeds proves G + sigma^2 P P^T > c I
    for c = s less the allowance again (Rump, BIT 46, 2006), so |rows u| >
    sqrt(c) for every unit u orthogonal to K.  The allowance, (gamma_{r+1} +
    gamma_{d+1} / (1 - 2 gamma_{d+1})) times the trace, covers the rounding
    of forming the matrix and of the Cholesky (its entries, of order
    sigma^2, are far from underflow).  The check holds when the
    Cholesky succeeds with sqrt(c) / sigma above the 1e-9 cut and the
    containment is within the cut.
    """
    dim, k = products.shape
    gram = rows.T @ rows
    eig = np.linalg.eigvalsh(gram)
    top = max(float(eig[-1]), 0.0)
    scale = max(math.sqrt(top), 1e-300)
    containment = float(np.linalg.norm(rows @ products, 2)) / scale
    trace = float(np.trace(gram)) + top * k
    rump = _gamma(dim + 1) / (1 - 2 * _gamma(dim + 1))
    allowance = (_gamma(len(rows) + 1) + rump) * trace
    shift = float(eig[k]) - allowance
    bound = shift - allowance
    certified = bound > (_RANK_CUT * scale) ** 2
    if certified:
        weighted = products * scale
        gram += weighted @ weighted.T
        gram[np.diag_indices(dim)] -= shift
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            certified = False
    gap = {"smallest_kept": math.sqrt(bound) / scale if certified else None,
           "largest_dropped": containment}
    return certified and containment <= _RANK_CUT, gap


def _certificate(space, rows, tolerance, field):
    """The report both certificates share.  The constraint rows are checked
    to vanish on exactly K = span{h ⊙ I}, whose tensors have the max Weyl
    norm reported; ``nullspace_dim`` is dim K if the check holds, else None.
    ``field`` is the certificate's own (key, value).  It passes if the check
    holds and the Weyl norm is within ``tolerance``."""
    products, max_weyl, _ = _products(space.n)
    holds, gap = _check(rows, products)
    key, value = field
    return {"dimension": space.n, "constraint_rows": int(rows.shape[0]),
            "nullspace_dim": products.shape[1] if holds else None, key: value,
            "max_weyl": max_weyl, "tolerance": tolerance,
            "pass": holds and max_weyl <= tolerance, "rank_gap": gap}


def schouten_nullspace_verify(n, sampler, tolerance=1e-8):
    """Solution space of the orthogonal-quadruple vanishing condition.

    Returns a report with the null-space dimension (expected n(n+1)/2), the
    max Weyl norm over an orthonormal basis of K, and the rank gap.
    """
    if n < 4:
        raise cv.UnsupportedDimensionError("need dimension >= 4")
    space = curvature_space(n)
    rows = _constraint_rows(space, lambda count: [("quadruple", _quadruples(sampler, count))],
                            _SCHOUTEN_BATCH)
    return _certificate(space, rows, tolerance, ("expected_nullspace_dim", n * (n + 1) // 2))


def canonical_j(n):
    """Block rotation J e_{2k} = e_{2k+1} on even-dimensional R^n."""
    J = np.zeros((n, n))
    for k in range(n // 2):
        J[2 * k + 1, 2 * k] = 1.0
        J[2 * k, 2 * k + 1] = -1.0
    return J


def theorem_nullspace_verify(m, sampler, tolerance=1e-8):
    """Certificate that the sphere-axiom identities force the Weyl tensor to
    vanish, for complex dimension m (real dimension n = 2m).

    Constraints are the identities the axiom yields directly (``_DIRECT``):
    (3.1), (3.2), (3.3), and for m > 2 also (3.5), (3.6), (3.7).  The derived
    identities (3.4), (3.8), the orthogonal-quadruple entry of the Schouten
    rows and the Weyl norm are verified on K, the space the certificate then
    proves to be the null space, as bounds over every frame that depend on
    m alone (``_products``).  ValueError if no identity of ``_DIRECT``
    applies at m.
    """
    if m < 2:
        raise cv.UnsupportedDimensionError("need complex dimension m >= 2")
    n = 2 * m
    space, J = curvature_space(n), canonical_j(n)
    _, max_weyl, derived = _products(n)

    # for m > 2 the frames need Z, for (3.5), (3.6) and (3.7)
    def entries(count):
        return _identities(J, fr.admissible_frames(sampler, count, min(m, 3)))
    return {"m": m, **_certificate(space, _constraint_rows(space, entries, _THEOREM_BATCH),
                                   tolerance, ("derived_residuals", dict(derived, weyl=max_weyl)))}
