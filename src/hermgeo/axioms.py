"""Pointwise linear-algebra verification of the conformal-flatness argument.

An algebraic curvature tensor in dimension n lives in the kernel of the
first-Bianchi symmetrization inside Sym^2(Lambda^2); that kernel has
dimension n^2(n^2-1)/12 and is materialized here as an orthonormal basis of
flattened 4-index arrays.  The curvature identities produced by the
umbilical-sphere axiom, and the orthogonal-quadruple criterion, are linear
functionals on that space; sampling admissible frames until the constraint
rank stabilizes yields the solution space, on which the conformal (Weyl)
tensor is then evaluated.  A vanishing Weyl norm over the null space is the
machine form of the classical conformal-flatness conclusion.
"""

import functools
import itertools
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
_MAX_BATCHES = 200


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


def curvature_basis(n):
    """Orthonormal basis of algebraic curvature tensors, shape (d, n^4).

    Built as the Bianchi kernel inside the pair-symmetric space, so every
    basis element satisfies the symmetries exactly by construction.
    """
    pairs = list(itertools.combinations(range(n), 2))
    npair = len(pairs)
    sym_idx = [(a, b) for a in range(npair) for b in range(a, npair)]

    # sparse embedding of the Sym^2(Lambda^2) basis into n^4 arrays
    rows, cols, vals = [], [], []
    for col, (a, b) in enumerate(sym_idx):
        terms = _pair_product_entries(pairs[a], pairs[b], n)
        if a != b:
            terms += _pair_product_entries(pairs[b], pairs[a], n)
        for flat, v in terms:
            rows.append(flat)
            cols.append(col)
            vals.append(v)
    embed = scipy.sparse.coo_matrix(
        (vals, (rows, cols)), shape=(n ** 4, len(sym_idx))).tocsc()

    # Bianchi symmetrization of a pair-symmetric tensor is totally
    # antisymmetric, so i<j<k<l quadruples carry all constraints
    quads = np.array(list(itertools.combinations(range(n), 4)), dtype=np.intp)
    if len(quads):
        i, j, k, l = quads.T
        index = lambda a, b, c: ((a * n + b) * n + c) * n + l
        by_row = embed.tocsr()
        bianchi = (by_row[index(i, j, k)] + by_row[index(j, k, i)]
                   + by_row[index(k, i, j)]).toarray()
    else:
        bianchi = np.zeros((1, len(sym_idx)))
    coeffs = scipy.linalg.null_space(bianchi)  # (len(sym_idx), d)
    assert coeffs.shape[1] == curvature_space_dim(n)

    basis = (embed @ coeffs).T  # (d, n^4)
    # orthonormalize the flattened tensors
    basis = scipy.linalg.orth(basis.T).T
    return basis


def _pair_product_entries(pair_a, pair_b, n):
    """Nonzero entries of (e_i ^ e_j) (x) (e_k ^ e_l) as (flat index, value)."""
    (i, j), (k, l) = pair_a, pair_b
    out = []
    for (p, q, sa) in ((i, j, 1.0), (j, i, -1.0)):
        for (r, s, sb) in ((k, l, 1.0), (l, k, -1.0)):
            flat = ((p * n + q) * n + r) * n + s
            out.append((flat, sa * sb))
    return out


def tensor_from_coords(basis, coords):
    n4 = basis.shape[1]
    n = round(n4 ** 0.25)
    return (coords @ basis).reshape(n, n, n, n)


def functional_row(basis, X, Y, Z, U):
    """Row vector of the functional R -> R(X,Y,Z,U) in basis coordinates."""
    w = np.einsum("i,j,k,l->ijkl", X, Y, Z, U).reshape(-1)
    return basis @ w


# ---------------------------------------------------------------------------
# identity residuals on a concrete tensor

_IDENTITY_NAMES = ["3.1", "3.2", "3.3", "3.4", "3.5", "3.6", "3.7", "3.8"]
# the identities the sphere axiom yields directly; (3.4) and (3.8) are derived
_DIRECT = ("3.1", "3.2", "3.3", "3.5", "3.6", "3.7")


def _admissible_frame(g, J, sampler, need_z, need_u):
    """(X, Y[, Z[, U]]) with X unit and orthogonal to Y, JY, and the extra
    vectors orthogonal to all earlier ones and their J-images."""
    Y = fr.sample_orthonormal_set(g, 1, sampler)[0]
    X = fr.sample_orthonormal_set(g, 1, sampler, constraints=[Y, J @ Y])[0]
    out = [X, Y]
    if need_z:
        Z = fr.sample_orthonormal_set(
            g, 1, sampler, constraints=[X, J @ X, Y, J @ Y])[0]
        out.append(Z)
        if need_u:
            U = fr.sample_orthonormal_set(
                g, 1, sampler, constraints=[X, J @ X, Y, J @ Y, Z, J @ Z])[0]
            out.append(U)
    return out


def _identities(J, frame, names=_IDENTITY_NAMES):
    """(name, quadruple[, quadruple]) of each identity in ``names`` that
    applies to an admissible frame: R vanishes on the quadruple, or agrees on
    the two quadruples.  (3.5) has two entries."""
    X, Y = frame[0], frame[1]
    JX, JY = J @ X, J @ Y
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


def _identity_value(fn, terms):
    """fn on an identity's quadruple, minus fn on its second quadruple if any."""
    return fn(*terms[0]) - fn(*terms[1]) if len(terms) == 2 else fn(*terms[0])


def proof_identity_residuals(R4, g, J, sampler, frames=64):
    """Max residual of each identity over sampled admissible frames.

    Identities outside the dimension regime are reported as None (skipped).
    """
    n = g.shape[0]
    worst = dict.fromkeys(_IDENTITY_NAMES)
    value_of = functools.partial(cv.curvature_value, R4)
    for _ in range(frames):
        frame = _admissible_frame(g, J, sampler, need_z=n >= 6, need_u=n >= 8)
        for name, *terms in _identities(J, frame):
            worst[name] = max(worst[name] or 0.0, abs(_identity_value(value_of, terms)))
    return worst


def quadruple_vanishing_residual(R4, g, sampler, samples=256):
    """Max |R(X,Y,Z,U)| over sampled g-orthonormal quadruples."""
    n = g.shape[0]
    if n < 4:
        raise cv.UnsupportedDimensionError("orthogonal quadruples need dimension >= 4")
    worst = 0.0
    for _ in range(samples):
        X, Y, Z, U = fr.sample_orthonormal_set(g, 4, sampler)
        worst = max(worst, abs(cv.curvature_value(R4, X, Y, Z, U)))
    return worst


# ---------------------------------------------------------------------------
# null-space certificates

def _stable_nullspace(row_batches, dim_coords, budget=_MAX_BATCHES):
    """Accumulate constraint rows until the rank is unchanged for three
    consecutive batches; return (rows, nullspace basis in coordinates)."""
    rows = np.zeros((0, dim_coords))
    stable = 0
    rank = -1
    for batch_index in range(budget):
        batch = next(row_batches)
        rows = np.vstack([rows, batch])
        sv = scipy.linalg.svdvals(rows)
        new_rank = int(np.sum(sv > _RANK_CUT * max(sv[0], 1e-300)))
        if new_rank == rank:
            stable += 1
            if stable >= _STABLE_BATCHES:
                null = scipy.linalg.null_space(rows, rcond=_RANK_CUT)
                return rows, null
        else:
            stable = 0
            rank = new_rank
    raise RankStabilizationError(
        f"constraint rank did not stabilize within {budget} batches")


def _weyl_norm_flat(T):
    """Max |Weyl| of an algebraic curvature tensor with the identity metric."""
    n = T.shape[0]
    g = np.eye(n)
    S, s = cv.ricci_scalar(T, g)
    return float(np.max(np.abs(cv.weyl(T, S, s, g))))


def schouten_nullspace_verify(n, sampler=None, tolerance=1e-8, batch=8):
    """Solution space of the orthogonal-quadruple vanishing condition.

    Returns a report with the null-space dimension (expected n(n+1)/2), the
    max Weyl norm over an orthonormal null-space basis, and the basis itself
    in coordinates of ``curvature_basis(n)``.
    """
    if n < 4:
        raise cv.UnsupportedDimensionError("need dimension >= 4")
    sampler = sampler or fr.FrameSampler(0, n)
    basis = curvature_basis(n)
    g = np.eye(n)

    def batches():
        while True:
            rows = []
            for _ in range(batch):
                X, Y, Z, U = fr.sample_orthonormal_set(g, 4, sampler)
                rows.append(functional_row(basis, X, Y, Z, U))
            yield np.array(rows)

    rows, null = _stable_nullspace(batches(), basis.shape[0])
    max_weyl = 0.0
    for k in range(null.shape[1]):
        T = tensor_from_coords(basis, null[:, k])
        max_weyl = max(max_weyl, _weyl_norm_flat(T))
    return {
        "dimension": n,
        "constraint_rows": int(rows.shape[0]),
        "nullspace_dim": int(null.shape[1]),
        "expected_nullspace_dim": n * (n + 1) // 2,
        "max_weyl": max_weyl,
        "tolerance": tolerance,
        "pass": null.shape[1] == n * (n + 1) // 2 and max_weyl <= tolerance,
        "nullspace": null,
        "basis": basis,
    }


def canonical_j(n):
    """Block rotation J e_{2k} = e_{2k+1} on even-dimensional R^n."""
    J = np.zeros((n, n))
    for k in range(n // 2):
        J[2 * k + 1, 2 * k] = 1.0
        J[2 * k, 2 * k + 1] = -1.0
    return J


def theorem_nullspace_verify(m, sampler=None, tolerance=1e-8, batch=6, samples=128):
    """Certificate that the sphere-axiom identities force the Weyl tensor to
    vanish, for complex dimension m (real dimension n = 2m).

    Constraints are the identities the axiom yields directly: (3.1), (3.2),
    (3.3), and for m > 2 also (3.5), (3.6), (3.7).  The derived identities
    (3.4), (3.8), orthogonal-quadruple vanishing and the Weyl norm are then
    verified on the resulting null space.
    """
    if m < 2:
        raise cv.UnsupportedDimensionError("need complex dimension m >= 2")
    n = 2 * m
    sampler = sampler or fr.FrameSampler(0, n)
    basis = curvature_basis(n)
    g = np.eye(n)
    J = canonical_j(n)

    def constraint_rows(frame):
        row = functools.partial(functional_row, basis)
        return [_identity_value(row, terms) for _, *terms in _identities(J, frame, _DIRECT)]

    def batches():
        while True:
            rows = []
            for _ in range(batch):
                frame = _admissible_frame(g, J, sampler, need_z=m > 2, need_u=False)
                rows.extend(constraint_rows(frame))
            yield np.array(rows)

    rows, null = _stable_nullspace(batches(), basis.shape[0])

    # derived identities and Weyl on the null space
    derived = {"3.4": 0.0, "3.8": 0.0 if m >= 4 else None,
               "quadruple": 0.0, "weyl": 0.0}
    check_sampler = fr.FrameSampler(sampler.seed + 1, n)
    check_frames = [_admissible_frame(g, J, check_sampler, need_z=m > 2, need_u=m >= 4)
                    for _ in range(samples)]
    quad_sampler = fr.FrameSampler(sampler.seed + 2, n)
    quads = [fr.sample_orthonormal_set(g, 4, quad_sampler) for _ in range(samples)]
    for k in range(null.shape[1]):
        T = tensor_from_coords(basis, null[:, k])
        value_of = functools.partial(cv.curvature_value, T)
        for frame in check_frames:
            for name, *terms in _identities(J, frame, ("3.4", "3.8")):
                derived[name] = max(derived[name], abs(_identity_value(value_of, terms)))
        for X, Y, Z, U in quads:
            derived["quadruple"] = max(derived["quadruple"],
                                       abs(cv.curvature_value(T, X, Y, Z, U)))
        derived["weyl"] = max(derived["weyl"], _weyl_norm_flat(T))

    return {
        "m": m,
        "dimension": n,
        "constraint_rows": int(rows.shape[0]),
        "nullspace_dim": int(null.shape[1]),
        "derived_residuals": derived,
        "max_weyl": derived["weyl"],
        "tolerance": tolerance,
        "pass": derived["weyl"] <= tolerance,
        "nullspace": null,
        "basis": basis,
    }


def containment_residual(report_inner, report_outer):
    """Max projection defect of the inner null space onto the outer one.

    Both reports must come from the same dimension (identical curvature
    basis), so coordinates are comparable.
    """
    inner = report_inner["nullspace"]
    outer = report_outer["nullspace"]
    proj = outer @ (outer.T @ inner)
    return float(np.max(np.abs(inner - proj)))


def kulkarni_nomizu(h, g):
    """Curvature-type product of two symmetric 2-tensors."""
    return (np.einsum("il,jk->ijkl", h, g) + np.einsum("jk,il->ijkl", h, g)
            - np.einsum("ik,jl->ijkl", h, g) - np.einsum("jl,ik->ijkl", h, g))
