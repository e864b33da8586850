"""Classification of almost Hermitian charts from precomputed point data.

Checks produce residuals; every flag passes iff its residual is at most the
one tolerance.  Everything is deterministic given (chart, points, seed).
"""

import numpy as np

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


def _per_frame(a, samples):
    """The (n, n) matrices of a stack of points, each repeated ``samples``
    times: one per frame of a sampling site's stack, point after point."""
    return np.repeat(a.reshape(-1, *a.shape[-2:]), samples, axis=0)


def nabla_J_residuals(chart, pd, sampler, samples=32):
    """(kahler_residual, nk_residual) over the points of ``pd``.

    kahler_residual is the max component of nabla J; nk_residual is the max
    g-norm of (nabla_X J) X over sampled unit X, one draw for every point.
    """
    nj = nabla_j(chart, pd)
    g = _per_frame(pd.g, samples)
    (X,) = fr.orthonormal_frames(g, sampler.draw(len(g))[:, None], sampler)
    X = X.reshape(*pd.g.shape[:-2], samples, -1)
    v = np.einsum("...kij,...sk,...sj->...si", nj, X, X)
    nk = np.max(np.sum((v @ pd.g) * v, axis=-1), initial=0.0)
    return float(np.max(np.abs(nj))), float(np.sqrt(nk))


def rk_residual(R4, J):
    """Max deviation of R(X,Y,Z,U) = R(JX,JY,JZ,JU) on basis vectors, the
    largest over a stack (..., n, n, n, n) of tensors.

    The condition is tensorial, so checking coordinate indices is complete;
    each product rotates one index by J and moves it last (n^5 work).
    """
    n = J.shape[-1]
    rot = R4
    for _ in range(4):
        rot = (np.moveaxis(rot, -4, -1).reshape(*J.shape[:-2], n ** 3, n) @ J).reshape(R4.shape)
    return float(np.max(np.abs(R4 - rot)))


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


def sample_invariants(pd, sampler, samples):
    """Arrays of holomorphic sectional, antiholomorphic sectional and
    constant-type values at each point, ``samples`` of each per point
    (shape: the points' leading axes, then samples): a unit X for the first,
    then an antiholomorphic unit pair (X, Y) for the other two.  In
    dimension 2 no antiholomorphic pair exists (X must avoid Y and JY), and
    the last two are None.  One block draw gives each sample's [unit, Y, X],
    point after point."""
    n = pd.g.shape[-1]
    pairs = n > 2
    g, shape = _per_frame(pd.g, samples), (*pd.g.shape[:-2], samples, n)
    raw = sampler.draw(len(g) * (3 if pairs else 1)).reshape(len(g), -1, n)
    (units,) = fr.orthonormal_frames(g, raw[:, :1], sampler)
    hvals = cv.holomorphic_sectional(pd.riemann, pd.g, pd.J, units.reshape(shape))
    if not pairs:
        return hvals, None, None
    Y, X = (v.reshape(shape)
            for v in fr.orthonormal_frames(g, raw[:, 1:], sampler, _per_frame(pd.J, samples)))
    return (hvals, cv.sectional(pd.riemann, pd.g, X, Y),
            cv.lambda_type(pd.riemann, pd.g, pd.J, X, Y))


def constancy_report(chart, pd, sampler, samples=32, tolerance=1e-8):
    """Per-point and cross-point constancy of the three chart invariants:
    holomorphic sectional curvature, antiholomorphic sectional curvature,
    and the constant-type value, over the points of ``pd``.

    Returns (records, per_point): a check record per invariant, whose
    constant is the sample mean, "pointwise" passes when every per-point std
    is within tolerance and "global" also needs the per-point means to agree;
    and per invariant name, its (mean, std) at each point.  An invariant that
    does not exist in the chart's dimension has null values and None pairs.
    """
    _require_j(chart, pd)
    count = pd.point.size // chart.dim
    names = ("holomorphic_sectional", "antiholomorphic_sectional", "constant_type")
    stats = {name: [None] * count if vals is None else list(zip(
                 np.mean(vals.reshape(count, samples), axis=-1).tolist(),
                 np.std(vals.reshape(count, samples), axis=-1).tolist()))
             for name, vals in zip(names, sample_invariants(pd, sampler, samples))}

    report = []
    for name, per_point in stats.items():
        record = {"name": name, **dict.fromkeys(
            ("constant", "per_point_means", "residual", "cross_point_residual",
             "pass", "global_pass"))}
        if None not in per_point:
            means = [m for m, _ in per_point]
            pointwise = max(s for _, s in per_point)
            overall = float(np.mean(means))
            cross = max(abs(m - overall) for m in means) if len(means) > 1 else 0.0
            record.update({
                "constant": overall,
                "per_point_means": means,
                "residual": float(pointwise),
                "cross_point_residual": float(cross),
                "pass": pointwise <= tolerance,
                "global_pass": pointwise <= tolerance and cross <= tolerance,
            })
        record.update({"tolerance": tolerance, "samples": samples, "seed": sampler.seed})
        report.append(record)
    return report, stats


def classify_chart(chart, pd, seed=0, samples=32, tolerance=1e-8):
    """(record, per_point): the classification record of a chart with an almost
    complex structure over the points of ``pd`` (compatibility, Kahler/NK/RK
    flags, conformal flatness, constancy) and constancy_report's per_point.
    Each check reads the whole stack once; its residual is the largest over
    the points."""
    sampler = fr.FrameSampler(seed, chart.dim)
    checks = []

    def record(name, residual):
        checks.append({"name": name, "residual": float(residual),
                       "pass": bool(residual <= tolerance), "tolerance": tolerance,
                       "samples": samples, "seed": seed})

    r_sq, r_comp = fr.hermitian_residuals(pd.g, _require_j(chart, pd))
    kahler, nk = nabla_J_residuals(chart, pd, sampler, samples)
    record("j_squared", r_sq)
    record("j_compatible", r_comp)
    record("kahler", kahler)
    record("nearly_kahler", nk)
    record("rk", rk_residual(pd.riemann, pd.J))
    if chart.dim >= 4:
        record("conformally_flat", np.max(cv.relative_weyl_norm(pd)))
    constancy, per_point = constancy_report(chart, pd, sampler, samples, tolerance)
    return {"chart": chart.name, "points": pd.point.reshape(-1, chart.dim).tolist(),
            "checks": checks, "constancy": constancy}, per_point
