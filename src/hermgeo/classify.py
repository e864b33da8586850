"""Classification of almost Hermitian charts from precomputed point data.

Checks produce residuals; a flag passes iff its residual is at most the
tolerance.  Everything is deterministic given (chart, points, seed).
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
_NK_TOL = 1e-6     # nearly Kahler residual tolerance


def _require_j(chart, pd):
    if pd.J is None:
        raise MissingStructureError(f"chart {chart.name!r} has no almost complex structure")
    return pd.J


def nabla_j(chart, pd):
    """Covariant derivative (nabla J)[k,i,j] = nabla_k J^i_j at a point."""
    J = _require_j(chart, pd)
    return (pd.dJ + np.einsum("ikm,mj->kij", pd.gamma, J)
            - np.einsum("mkj,im->kij", pd.gamma, J))


def nabla_J_residuals(chart, pd, sampler, samples=32):
    """(kahler_residual, nk_residual) at a point.

    kahler_residual is the max component of nabla J; nk_residual is the max
    g-norm of (nabla_X J) X over sampled unit X.
    """
    nj = nabla_j(chart, pd)
    (X,) = fr.orthonormal_frames(pd.g, sampler.draw(samples)[:, None], sampler)
    v = np.einsum("kij,sk,sj->si", nj, X, X)
    nk = np.max(np.sum((v @ pd.g) * v, axis=1), initial=0.0)
    return float(np.max(np.abs(nj))), float(np.sqrt(nk))


def rk_residual(R4, J):
    """Max deviation of R(X,Y,Z,U) = R(JX,JY,JZ,JU) on basis vectors.

    The condition is tensorial, so checking coordinate indices is complete;
    each tensordot rotates one index by J and moves it last (n^5 work).
    """
    rot = R4
    for _ in range(4):
        rot = np.tensordot(rot, J, axes=(0, 0))
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
    constant-type values at a point, one of each per sample: a unit X for
    the first, then an antiholomorphic unit pair (X, Y) for the other two.
    In dimension 2 no antiholomorphic pair exists (X must avoid Y and JY),
    and the last two are None.  One block draw gives each sample's [unit, Y, X]."""
    pairs = pd.g.shape[0] > 2
    raw = sampler.draw(samples * (3 if pairs else 1)).reshape(samples, -1, len(pd.g))
    (units,) = fr.orthonormal_frames(pd.g, raw[:, :1], sampler)
    hvals = cv.holomorphic_sectional(pd.riemann, pd.g, pd.J, units)
    if not pairs:
        return hvals, None, None
    Y, X = fr.orthonormal_frames(pd.g, raw[:, 1:], sampler, pd.J)
    return (hvals, cv.sectional(pd.riemann, pd.g, X, Y),
            cv.lambda_type(pd.riemann, pd.g, pd.J, X, Y))


def constancy_report(chart, pds, sampler, samples=32, tolerance=1e-8):
    """Per-point and cross-point constancy of the three chart invariants:
    holomorphic sectional curvature, antiholomorphic sectional curvature,
    and the constant-type value, over the point data ``pds``.

    Returns a list of check records; the reported constant is the sample
    mean, "pointwise" passes when every per-point std is within tolerance,
    "global" additionally requires the per-point means to agree.  An
    invariant that does not exist in the chart's dimension has null values.
    """
    stats = {"holomorphic_sectional": [], "antiholomorphic_sectional": [],
             "constant_type": []}
    for pd in pds:
        _require_j(chart, pd)
        for key, vals in zip(stats, sample_invariants(pd, sampler, samples)):
            stats[key].append(None if vals is None
                              else (float(np.mean(vals)), float(np.std(vals))))

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
    return report


def classify_chart(chart, pds, seed=0, samples=32, tolerance=1e-8):
    """Full classification record for a chart with an almost complex
    structure, over the point data ``pds``: compatibility, Kahler/NK/RK
    flags, conformal flatness, and the constancy report."""
    sampler = fr.FrameSampler(seed, chart.dim)
    checks = []

    def record(name, residual, tol):
        checks.append({"name": name, "residual": float(residual),
                       "pass": bool(residual <= tol), "tolerance": tol,
                       "samples": samples, "seed": seed})

    r_sq = r_comp = 0.0
    kahler = nk = rk = 0.0
    weyl_norm = 0.0
    for pd in pds:
        a, b = fr.hermitian_residuals(pd.g, _require_j(chart, pd))
        r_sq, r_comp = max(r_sq, a), max(r_comp, b)
        ka, nka = nabla_J_residuals(chart, pd, sampler, samples)
        kahler, nk = max(kahler, ka), max(nk, nka)
        rk = max(rk, rk_residual(pd.riemann, pd.J))
        if pd.weyl is not None:
            weyl_norm = max(weyl_norm, cv.relative_weyl_norm(pd))

    record("j_squared", r_sq, tolerance)
    record("j_compatible", r_comp, tolerance)
    record("kahler", kahler, tolerance)
    record("nearly_kahler", nk, _NK_TOL)
    record("rk", rk, tolerance)
    if chart.dim >= 4:
        record("conformally_flat", weyl_norm, tolerance)
    constancy = constancy_report(chart, pds, sampler, samples, tolerance)
    return {"chart": chart.name, "points": [list(map(float, pd.point)) for pd in pds],
            "checks": checks, "constancy": constancy}
