"""Classification of almost Hermitian charts from precomputed point data.

Checks produce residuals; every flag passes iff its residual is at most the
one tolerance.  Every verdict that holds "for all vectors" or "for all
frames" is decided exactly at each point, with no sampled frame: nearly
Kahler by a norm of the symmetric part of nabla J, the constancy of the
holomorphic and antiholomorphic sectional curvature, constant type and the
identities (3.1)...(3.8) by the distance of R, written in the adapted frame
of the point, from a fixed subspace (``axioms.verdict_bounds``).  Reports
depend on the chart and its points alone.
"""

import numpy as np

from . import axioms as ax
from . import curvature as cv
from . import frames as fr


class MissingStructureError(ValueError):
    pass


HOLOMORPHIC = "holomorphic"
ANTIHOLOMORPHIC = "antiholomorphic"
COHOLOMORPHIC = "coholomorphic"
NONE = "none"

_ANGLE_TOL = 1e-8  # principal-angle threshold for subspace comparisons


def _require_j(chart, pd):
    if pd.J is None:
        raise MissingStructureError(f"chart {chart.name!r} has no almost complex structure")
    return pd.J


def nabla_j(chart, pd):
    """Covariant derivative (nabla J)[k,i,j] = nabla_k J^i_j at each point."""
    J = _require_j(chart, pd)
    return (pd.dJ + np.einsum("...ikm,...mj->...kij", pd.gamma, J)
            - np.einsum("...mkj,...im->...kij", pd.gamma, J))


def nabla_J_residuals(chart, pd):
    """(kahler_residual, nk_bound) over the points of ``pd``.

    kahler_residual is the max component of nabla J.  nk_bound is the largest
    over the points of |S|, the norm in a g-orthonormal frame (L^-T, for
    g = L L^T) of the part S[k,i,j] = (nabla_k J^i_j + nabla_j J^i_k) / 2 of
    nabla J symmetric in the derivative index and the argument.  It bounds
    |(nabla_X J) X| = |S(X, ., X)| for every g-unit X, and vanishes exactly
    where the chart is nearly Kahler (Gray, J. Diff. Geom. 4, 1970).
    """
    nj = nabla_j(chart, pd)
    lowered = pd.g[..., None, :, :] @ (nj + np.swapaxes(nj, -3, -1)) / 2
    frame = np.swapaxes(np.linalg.inv(np.linalg.cholesky(pd.g)), -1, -2)
    nk = np.sqrt(np.sum(cv.each_index(lowered, frame, 3) ** 2, axis=(-3, -2, -1)))
    return float(np.max(np.abs(nj))), float(np.max(nk))


def rk_residual(R4, J):
    """Max deviation of R(X,Y,Z,U) = R(JX,JY,JZ,JU) on basis vectors, the
    largest over a stack (..., n, n, n, n) of tensors.  The condition is
    tensorial, so checking coordinate indices is complete."""
    return float(np.max(np.abs(R4 - cv.each_index(R4, J, 4))))


def unitary_bounds(R4, g, J, tolerance=1e-8, residuals=None):
    """``axioms.verdict_bounds`` of the tensors R4 (..., n, n, n, n), written in
    the unitary basis (``axioms.unitary_basis``) of the adapted frame of each
    pair (g, J) (``frames.adapted_frames``): every verdict's bound at each
    point; none in odd dimension, NaN at a point where either of the pair's
    ``residuals`` (``frames.hermitian_residuals``, computed if not given)
    exceeds ``tolerance``, so that there is no adapted frame."""
    n = g.shape[-1]
    if n % 2:
        return {}
    if residuals is None:
        residuals = fr.hermitian_residuals(g, J)
    ok = (residuals[0] <= tolerance) & (residuals[1] <= tolerance)
    T = cv.each_index(R4, fr.adapted_frames(g, J) @ ax.unitary_basis(n), 4)
    return ax.verdict_bounds(np.where(ok[..., None, None, None, None], T, np.nan))


def plane_type(vectors, g, J):
    """Classify the span of ``vectors`` as (kind, half_dim).

    kind is one of "holomorphic", "antiholomorphic", "coholomorphic", "none";
    half_dim is n for a coholomorphic (2n+1)-plane, else None.
    """
    g = np.asarray(g, dtype=float)
    B = fr.gram_schmidt(vectors, g)
    JB = fr.gram_schmidt(B @ J.T, g)
    k = len(B)
    # principal cosines between span and J(span) w.r.t. g
    cross = B @ g @ JB.T
    cosines = np.linalg.svd(cross, compute_uv=False)
    n_common = int(np.sum(cosines > 1.0 - _ANGLE_TOL))
    n_orth = int(np.sum(cosines < _ANGLE_TOL))
    if n_common == k and k % 2 == 0:
        return HOLOMORPHIC, None
    if n_orth == k:
        return ANTIHOLOMORPHIC, None
    if k % 2 == 1 and n_common == k - 1:
        return COHOLOMORPHIC, (k - 1) // 2
    return NONE, None


def _means(pd):
    """{invariant: its mean over all frames of its kind, at each point}, for
    the ``axioms.CONSTANCY`` invariants.  A mean is U(m)-invariant, so a
    combination of R's products with the tensors of constant sectional and
    of constant holomorphic curvature, which lie in every V; so it is also
    the invariant's value on the projection of R onto V.  With the scalar
    curvature s and A = R_ijkl w^ij w^kl, w = g^-1 J^T, the means are
    (2s - 3A) / (2n(n+2)), and for n > 2 (2(n+1)s + 3A) / (2n(n-2)(n+2)) and
    (2s + A) / (2n(n-2))."""
    n, s = pd.g.shape[-1], pd.scalar
    w = (pd.g_inv @ np.swapaxes(pd.J, -1, -2)).reshape(*s.shape, n * n, 1)
    A = (np.swapaxes(w, -1, -2) @ pd.riemann.reshape(*s.shape, n * n, n * n) @ w)[..., 0, 0]
    out = {"holomorphic_sectional": (2 * s - 3 * A) / (2 * n * (n + 2))}
    if n > 2:
        out["antiholomorphic_sectional"] = (2 * (n + 1) * s + 3 * A) / (2 * n * (n - 2) * (n + 2))
        out["constant_type"] = (2 * s + A) / (2 * n * (n - 2))
    return out


def constancy_report(chart, pd, bounds, tolerance=1e-8):
    """Per-point and cross-point constancy of the three chart invariants
    (``axioms.CONSTANCY``) over the points of ``pd``, from their
    ``unitary_bounds``.

    Returns (records, per_point).  per_point holds, per invariant, its
    (mean, bound) at each point: the exact mean of ``_means`` and the bound
    of ``axioms.verdict_bounds`` on its deviation from that mean on every
    frame; None at a point with no adapted frame, or where the invariant
    does not exist (dimension 2).  A record's constant is the mean of the
    per-point means; "pointwise" passes when every bound is within
    tolerance, and "global" also needs the means to agree.  A record with a
    None pair has null values.
    """
    _require_j(chart, pd)
    count = pd.point.size // chart.dim
    means = _means(pd)
    stats, report = {}, []
    for name in ax.CONSTANCY:
        pairs = stats[name] = [None] * count if name not in bounds else [
            None if np.isnan(b) else (m, b) for m, b in zip(
                np.reshape(means[name], count).tolist(), np.reshape(bounds[name], count).tolist())]
        record = {"name": name, **dict.fromkeys(
            ("constant", "per_point_means", "residual", "cross_point_residual",
             "pass", "global_pass")), "tolerance": tolerance}
        if None not in pairs:
            values = [m for m, _ in pairs]
            pointwise = max(b for _, b in pairs)
            overall = float(np.mean(values))
            cross = max(abs(m - overall) for m in values) if count > 1 else 0.0
            record.update({"constant": overall, "per_point_means": values,
                           "residual": pointwise, "cross_point_residual": cross,
                           "pass": pointwise <= tolerance,
                           "global_pass": pointwise <= tolerance and cross <= tolerance})
        report.append(record)
    return report, stats


def classify_chart(chart, pd, tolerance=1e-8):
    """(record, per_point, bounds): the classification record of a chart with
    an almost complex structure over the points of ``pd`` (compatibility,
    Kahler/NK/RK flags, conformal flatness, constancy), constancy_report's
    per_point and the ``unitary_bounds`` of the points.  Each check reads the
    whole stack once; its residual is the largest over the points."""
    checks = []

    def record(name, residual):
        checks.append({"name": name, "residual": float(residual),
                       "pass": bool(residual <= tolerance), "tolerance": tolerance})

    J = _require_j(chart, pd)
    r_sq, r_comp = residuals = fr.hermitian_residuals(pd.g, J)
    bounds = unitary_bounds(pd.riemann, pd.g, J, tolerance, residuals)
    kahler, nk = nabla_J_residuals(chart, pd)
    record("j_squared", np.max(r_sq))
    record("j_compatible", np.max(r_comp))
    record("kahler", kahler)
    record("nearly_kahler", nk)
    record("rk", rk_residual(pd.riemann, pd.J))
    if chart.dim >= 4:
        record("conformally_flat", np.max(cv.relative_weyl_norm(pd)))
    constancy, per_point = constancy_report(chart, pd, bounds, tolerance)
    return {"chart": chart.name, "points": pd.point.reshape(-1, chart.dim).tolist(),
            "checks": checks, "constancy": constancy}, per_point, bounds
