"""Connection and curvature of a coordinate chart.

Derivatives of the metric and of J at a point are exact: symbolic entries go
through one second-order jet (``expressions.jets``), and a pointwise J brings
its own derivative (see models.py).  ``connection_jet`` turns one metric jet
into the Christoffel symbols, their first derivatives and the curvature; the
chart pipeline and the submanifold geometry (immersions.py) both read from it.
No finite difference is taken anywhere; test oracles write their own.

``point_data`` is the one evaluation of the points of a command, one jet
per tree set: metric, Christoffel symbols, curvature, Ricci, Weyl, J and
dJ, each with a leading point axis.  Everything downstream reads from it.

Index conventions, pinned by the round-sphere normalization tests:

    R4[i,j,k,l]   = R(d_i, d_j, d_k, d_l) = g(R(d_i,d_j) d_k, d_l)
    sectional     K(X,Y) = R(X,Y,Y,X) / (|X|^2 |Y|^2 - g(X,Y)^2)
    Ricci         S_jk = g^il R[i,j,k,l]      (unit n-sphere: S = (n-1) g)

With these choices the unit round sphere has sectional curvature +1 and the
displayed Weyl combination is trace free.
"""

from dataclasses import dataclass, field

import numpy as np

from . import expressions as ex
from .frames import RankDeficiencyError


class SingularMetricError(ValueError):
    pass


class AsymmetricMetricError(ValueError):
    pass


class UnsupportedDimensionError(ValueError):
    pass


class DegeneratePlaneError(ValueError):
    pass


@dataclass
class Embedding:
    """Embedding of a chart into flat ambient space, with an optional
    pointwise rule defining J through the ambient geometry."""
    ambient_dim: int
    map_exprs: list          # ambient_dim expressions in the chart coordinates
    j_rule: str | None = None  # e.g. "octonion_cross" for S^6 in R^7
    radius: float = 1.0


@dataclass
class ManifoldChart:
    name: str
    coordinates: list
    metric: list                       # dim x dim of Expr
    complex_structure: list | None = None   # dim x dim of Expr, J^i_j
    # pointwise J: stacks of the embedding's map jets (p, F, H) -> (J, dJ)
    complex_structure_fn: object | None = None
    domain_hint: list | None = None    # per-coordinate (lo, hi)
    embedding: Embedding | None = None
    expected: dict = field(default_factory=dict)  # regression table for models

    @property
    def dim(self):
        return len(self.coordinates)

    def has_j(self):
        return self.complex_structure is not None or self.complex_structure_fn is not None

    def metric_jets(self, points):
        """(g, dg, ddg) at a point (n,) or a stack (P, n) from one jet of the
        metric entries, with dg[..., k,i,j] = d_k g_ij and ddg[..., c,k,i,j] =
        d_c d_k g_ij, the metrics of a stack checked at once (``_checked_metric``).
        At one point, a failed jet names an undefined, asymmetric or singular
        metric first."""
        try:
            g, dg, ddg = _matrix_jets(self.metric, self.coordinates, points)
        except ex.DomainError:
            if np.ndim(points) == 1:
                self.metric_at(points)
            raise
        return _checked_metric(points, g, dg, ddg), dg, ddg

    def metric_at(self, point):
        v = ex.values([e for row in self.metric for e in row], dict(zip(self.coordinates, point)))
        return _checked_metric(point, np.reshape(v, (self.dim, self.dim)))

    def j_at(self, point):
        return self._j_jets(np.asarray(point, dtype=float))[0]

    def dj_at(self, point):
        """dJ[k,i,j] = d_k J^i_j, exact for symbolic and pointwise J."""
        return self._j_jets(np.asarray(point, dtype=float))[1]

    def _j_jets(self, points):
        """(J, dJ) at a point (n,) or a stack (P, n) from one jet: of the
        entries of a symbolic J, or of the embedding's map for a pointwise J,
        its Jacobian checked to have full rank before the rule runs on the
        stack and its result checked finite after; (None, None) without J."""
        if self.complex_structure is not None:
            return _matrix_jets(self.complex_structure, self.coordinates, points)[:2]
        if self.complex_structure_fn is None:
            return None, None
        lead, flat = np.shape(points)[:-1], np.reshape(points, (-1, self.dim))
        p, F, H = ex.jets(self.embedding.map_exprs, self.coordinates, flat)
        check_rank(F, "embedding", flat)
        J, dJ = self.complex_structure_fn(p, F, H)
        bad = ~(np.isfinite(J).all(axis=(1, 2)) & np.isfinite(dJ).all(axis=(1, 2, 3)))
        if bad.any():
            raise ex.DomainError(f"J not finite at {flat[np.argmax(bad)].tolist()}")
        return tuple(a.reshape(lead + a.shape[1:]) for a in (J, dJ))


def check_rank(F, kind, points):
    """Raise RankDeficiencyError unless each Jacobian F (..., N, k) of an immersion
    or embedding at ``points`` (..., k) has full rank: its least singular value
    above 1e-8 of the largest.  The first bad point names the error."""
    sv = np.linalg.svd(F, compute_uv=False).reshape(-1, F.shape[-1])
    for x, s in zip(np.reshape(points, (len(sv), -1)).tolist(), sv):
        if s[-1] <= 1e-8 * s[0]:
            raise RankDeficiencyError(f"{kind} rank deficient at {x} (singular values {s})")


def _checked_metric(points, g, *derivatives):
    """g at a point (n,) or a stack (P, n), checked finite, symmetric with its
    derivatives in the last two indices, and positive definite: every result
    reads only this jet of the metric.  The whole stack is checked at once; the
    first bad point names the error, and at that point those three checks
    come in that order."""
    n = g.shape[-1]
    flat = g.reshape(-1, n, n)
    a = np.concatenate([d.reshape(len(flat), -1, n, n) for d in (g, *derivatives)], axis=1)
    finite = np.isfinite(flat).all(axis=(1, 2))
    with np.errstate(invalid="ignore"):  # inf - inf at a point that is not finite
        asymmetric = np.abs(a - np.swapaxes(a, 2, 3)) > 1e-12 * np.maximum(1.0, np.abs(a))
    w = np.zeros((len(flat), n))
    w[finite] = np.linalg.eigvalsh(flat[finite])
    singular = w[:, 0] <= 1e-10 * w[:, -1]
    bad = ~finite | asymmetric.any(axis=(1, 2, 3)) | singular
    if bad.any():
        p = np.argmax(bad)
        where = np.reshape(points, (len(flat), -1))[p].tolist()
        if not finite[p]:
            raise ex.DomainError(f"metric not finite at {where}")
        if asymmetric[p].any():
            i, j = sorted(np.argwhere(asymmetric[p])[0, 1:])
            raise AsymmetricMetricError(
                f"metric entries ({i},{j}) and ({j},{i}) disagree at {where}")
        raise SingularMetricError(f"metric not positive definite at {where} (eigenvalues {w[p]})")
    return g


def _matrix_jets(rows, coordinates, points):
    """(M, dM, ddM) of a square matrix of expressions at a point or a stack
    of points, with dM[..., k,i,j] = d_k M_ij and ddM[..., c,k,i,j] = d_c d_k M_ij."""
    n = len(coordinates)
    v, d1, d2 = ex.jets([e for row in rows for e in row], coordinates, points)
    lead = v.shape[:-1]
    return (v.reshape(*lead, n, n), np.moveaxis(d1.reshape(*lead, n, n, n), -1, -3),
            np.moveaxis(d2.reshape(*lead, n, n, n, n), (-2, -1), (-4, -3)))


@dataclass(frozen=True)
class PointData:
    """Everything the chart pipeline reads at the points of a command.  Every
    field carries the leading axes of ``point``: a stack (P, n) of points puts
    the point axis first, one point (n,) gives that point's fields alone."""
    point: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    J: np.ndarray | None
    dJ: np.ndarray | None      # dJ[..., k,i,j] = d_k J^i_j
    gamma: np.ndarray          # gamma[..., a,i,j] = Gamma^a_ij
    riemann: np.ndarray        # all-lower R4[..., i,j,k,l]
    ricci: np.ndarray
    scalar: np.ndarray         # one per point
    weyl: np.ndarray | None    # None below dimension 4


def christoffel(chart, point):
    """Levi-Civita Christoffel symbols gamma[a,i,j] = Gamma^a_ij at a point."""
    return connection_jet(*chart.metric_jets(point))[0]


def connection_jet(g, d1, d2, gi=None):
    """(gamma, dgamma, R4) from a metric jet (g, dg, ddg) and g's inverse gi
    if known, also of stacks with leading axes: the Levi-Civita symbols
    gamma[a,i,j] = Gamma^a_ij, their derivatives dgamma[c,a,i,j] = d_c Gamma^a_ij,
    and the all-lower curvature tensor R4[i,j,k,l] = g(R(d_i,d_j) d_k, d_l)."""
    lead, n = g.shape[:-2], g.shape[-1]
    gi = np.linalg.inv(g) if gi is None else gi
    # Gamma_m,ij = (d_i g_mj + d_j g_mi - d_m g_ij) / 2 and Gamma^a_ij = g^am Gamma_m,ij
    low = 0.5 * (np.einsum("...imj->...mij", d1) + np.einsum("...jmi->...mij", d1) - d1)
    gamma = np.einsum("...am,...mij->...aij", gi, low)
    dlow = 0.5 * (np.einsum("...cimj->...cmij", d2) + np.einsum("...cjmi->...cmij", d2) - d2)
    # d_c Gamma^a_ij = g^am (d_c Gamma_m,ij - d_c g_mb Gamma^b_ij)
    dgamma = gi[..., None, :, :] @ (dlow.reshape(*lead, n, n, n * n)
                                    - d1 @ gamma.reshape(*lead, 1, n, n * n))
    # R_ijkl = d_i Gamma_l,jk - d_j Gamma_l,ik - Gamma_m,il G^m_jk + Gamma_m,jl G^m_ik
    R4 = (np.einsum("...iljk->...ijkl", dlow) - np.einsum("...jlik->...ijkl", dlow)
          - np.einsum("...mil,...mjk->...ijkl", low, gamma)
          + np.einsum("...mjl,...mik->...ijkl", low, gamma))
    return gamma, dgamma.reshape(*lead, n, n, n, n), R4


def riemann(chart, point):
    """(g, gamma, R4) at a point from one jet of the metric: the metric,
    gamma[a,i,j] = Gamma^a_ij, and the all-lower curvature tensor."""
    g, d1, d2 = chart.metric_jets(point)
    gamma, _, R4 = connection_jet(g, d1, d2)
    return g, gamma, R4


def ricci_scalar(R4, g, gi=None):
    """(S, s): Ricci tensor and scalar curvature, also of stacks (..., n, n, n, n)."""
    gi = np.linalg.inv(g) if gi is None else gi
    S = np.einsum("...il,...ijkl->...jk", gi, R4)
    return S, np.einsum("...jk,...jk->...", gi, S)


def each_index(T, M, order):
    """The stack T (..., n, ..., n) of tensors of ``order`` indices with M (n, n)
    or (..., n, n) applied to each: out[a,b,...] = T[i,j,...] M[i,a] M[j,b] ...
    Each product moves one index last (n^5 work for four indices)."""
    n, lead = M.shape[-1], T.shape[:T.ndim - order]
    for _ in range(order):
        T = (np.swapaxes(T.reshape(*lead, n, -1), -1, -2) @ M).reshape(T.shape)
    return T


def kulkarni_nomizu(h, k):
    """Kulkarni-Nomizu product of symmetric 2-tensors, also of stacks."""
    return (np.einsum("...il,...jk->...ijkl", h, k) + np.einsum("...jk,...il->...ijkl", h, k)
            - np.einsum("...ik,...jl->...ijkl", h, k) - np.einsum("...jl,...ik->...ijkl", h, k))


def weyl(R4, S, s, g):
    """Weyl conformal curvature tensor (all-lower) of an algebraic curvature
    tensor with Ricci data, also of stacks:
    R - KN(S, g) / (n - 2) + s KN(g, g) / (2 (n - 1) (n - 2))."""
    n = g.shape[-1]
    if n < 4:
        raise UnsupportedDimensionError(
            f"conformal curvature needs dimension >= 4, got {n}")
    scale = np.asarray(s / (2 * (n - 1) * (n - 2)))[..., None, None, None, None]
    return R4 - kulkarni_nomizu(S, g) / (n - 2) + scale * kulkarni_nomizu(g, g)


def point_data(chart, points):
    """Everything the chart pipeline reads at ``points``, a stack (P, n) or
    one point (n,), as one PointData.  Each tree set (metric, J) is one jet
    of the whole stack, and the rest runs once on it.  If a step fails (a
    jet, a metric check, the embedding's rank), the first bad point names
    the error (``first_bad_point``)."""
    points = np.asarray(points, dtype=float)
    flat = points.reshape(-1, chart.dim)
    jets = ex.first_bad_point(lambda x: (*chart.metric_jets(x), *chart._j_jets(x)), flat)
    # C-contiguous stacks, which einsum reads fastest (its order of sums follows the layout)
    g, d1, d2, J, dJ = (None if a is None else np.ascontiguousarray(a) for a in jets)
    g_inv = np.linalg.inv(g)
    gamma, _, R4 = connection_jet(g, d1, d2, g_inv)
    S, s = ricci_scalar(R4, g, g_inv)
    C = weyl(R4, S, s, g) if chart.dim >= 4 else None
    fields = dict(point=flat, g=g, g_inv=g_inv, J=J, dJ=dJ, gamma=gamma,
                  riemann=R4, ricci=S, scalar=s, weyl=C)
    return PointData(**{name: None if a is None else a.reshape(points.shape[:-1] + a.shape[1:])
                        for name, a in fields.items()})


def relative_weyl_norm(pd):
    """max |C| / max(max |R|, 1) at each point of point data with a Weyl tensor."""
    axes = (-4, -3, -2, -1)
    return (np.max(np.abs(pd.weyl), axis=axes)
            / np.maximum(np.max(np.abs(pd.riemann), axis=axes), 1.0))


def curvature_values(R4, X, Y, Z, U):
    """R(X,Y,Z,U) for vectors (n,), or for every row of stacks (s, n): R4 as
    an n^2 x n^2 matrix between the rows of X (x) Y and Z (x) U.  A stack of
    tensors (P, n, n, n, n) takes stacks (P, s, n), one gemm per point."""
    n = R4.shape[-1]
    R = R4.reshape(*R4.shape[:-4], n * n, n * n)
    left, right = (np.einsum("...i,...j->...ij", A, B).reshape(*R.shape[:-2], -1, n * n)
                   for A, B in ((X, Y), (Z, U)))
    rows = np.sum((left @ R) * right, axis=-1)
    return rows.reshape(np.shape(X)[:-1])


def curvature_value(R4, X, Y, Z, U):
    """Multilinear evaluation R(X,Y,Z,U): the one-row curvature_values."""
    return float(curvature_values(R4, X, Y, Z, U))


def _inner(g, X, Y):
    return np.sum((X @ g) * Y, axis=-1)


# the invariants below also take stacks (s, n), checked row by row, and
# stacks (P, s, n) with one (g, J, R4) per point
def sectional(R4, g, X, Y):
    xx, yy = _inner(g, X, X), _inner(g, Y, Y)
    denom = xx * yy - _inner(g, X, Y) ** 2
    if np.any(denom <= 1e-12 * np.maximum(xx * yy, 1e-300)):
        raise DegeneratePlaneError("vectors do not span a 2-plane")
    return curvature_values(R4, X, Y, Y, X) / denom


def holomorphic_sectional(R4, g, J, X):
    """H(X) = R(X, JX, JX, X) / g(X,X)^2."""
    nrm2 = _inner(g, X, X)
    if np.any(nrm2 <= 0.0):
        raise DegeneratePlaneError("zero vector")
    JX = X @ np.swapaxes(J, -1, -2)
    return curvature_values(R4, X, JX, JX, X) / nrm2 ** 2


def lambda_type(R4, g, J, X, Y):
    """Constant-type combination R(X,Y,Y,X) - R(X,Y,JY,JX) on unit X, Y.

    Inputs are normalized internally; the value is reported for unit vectors.
    """
    nx, ny = _inner(g, X, X), _inner(g, Y, Y)
    if np.any(nx <= 0.0) or np.any(ny <= 0.0):
        raise DegeneratePlaneError("zero vector")
    X, Y = X / np.sqrt(nx)[..., None], Y / np.sqrt(ny)[..., None]
    Jt = np.swapaxes(J, -1, -2)
    return curvature_values(R4, X, Y, Y, X) - curvature_values(R4, X, Y, Y @ Jt, X @ Jt)


def symmetry_residuals(R4):
    """Max-norm residuals of the curvature symmetries and first Bianchi, relative to max |R4|."""
    scale = max(np.max(np.abs(R4)), 1e-300)
    r = {
        "antisym_first_pair": np.max(np.abs(R4 + np.einsum("ijkl->jikl", R4))),
        "antisym_second_pair": np.max(np.abs(R4 + np.einsum("ijkl->ijlk", R4))),
        "pair_symmetry": np.max(np.abs(R4 - np.einsum("ijkl->klij", R4))),
        "first_bianchi": np.max(np.abs(R4 + np.einsum("jkil->ijkl", R4)
                                       + np.einsum("kijl->ijkl", R4))),
    }
    return {k: float(v / scale) for k, v in r.items()}


def weyl_trace_residual(C, g):
    """Largest metric contraction of the Weyl tensor (should vanish)."""
    gi = np.linalg.inv(g)
    return max(float(np.max(np.abs(np.einsum(spec, gi, C)))) for spec in (
        "il,ijkl->jk", "ik,ijkl->jl", "jk,ijkl->il", "jl,ijkl->ik", "ij,ijkl->kl",
        "kl,ijkl->ij"))
