"""Connection and curvature of a coordinate chart.

Derivatives of the metric and of J at a point are exact: symbolic entries go
through one second-order jet (``expressions.jets``), and a pointwise J brings
its own derivative (see models.py).  ``connection_jet`` turns one metric jet
into the Christoffel symbols, their first derivatives and the curvature; the
chart pipeline and the submanifold geometry (immersions.py) both read from it.
No finite difference is taken anywhere; test oracles write their own.

``point_data`` is the one evaluation of a chart point: metric, Christoffel
symbols, curvature, Ricci, Weyl, J and dJ.  Everything downstream reads from it.

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


class SingularMetricError(ValueError):
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
    complex_structure_fn: object | None = None  # point -> (J, dJ), pointwise J
    domain_hint: list | None = None    # per-coordinate (lo, hi)
    embedding: Embedding | None = None
    expected: dict = field(default_factory=dict)  # regression table for models

    @property
    def dim(self):
        return len(self.coordinates)

    def has_j(self):
        return self.complex_structure is not None or self.complex_structure_fn is not None

    def metric_jets(self, point):
        """(g, dg, ddg) at a point from one jet of the metric entries, with
        dg[k,i,j] = d_k g_ij and ddg[c,k,i,j] = d_c d_k g_ij."""
        try:
            g, dg, ddg = _matrix_jets(self.metric, self.coordinates, point)
        except ex.DomainError:
            self.metric_at(point)  # an undefined or singular metric is named first
            raise
        return _positive_definite(g, point), dg, ddg

    def metric_at(self, point):
        b = dict(zip(self.coordinates, point))
        return _positive_definite(
            np.array([[ex.evaluate(e, b) for e in row] for row in self.metric]), point)

    def j_at(self, point):
        return self._j_jets(point)[0]

    def dj_at(self, point):
        """dJ[k,i,j] = d_k J^i_j, exact for symbolic and pointwise J."""
        return self._j_jets(point)[1]

    def _j_jets(self, point):
        if self.complex_structure is not None:
            return _matrix_jets(self.complex_structure, self.coordinates, point)[:2]
        if self.complex_structure_fn is not None:
            return self.complex_structure_fn(np.asarray(point, dtype=float))
        return None, None


def _positive_definite(g, point):
    if not np.all(np.isfinite(g)):
        raise ex.DomainError(f"metric not finite at {np.asarray(point).tolist()}")
    w = np.linalg.eigvalsh(g)
    if w[0] <= 1e-10 * w[-1]:
        raise SingularMetricError(
            f"metric not positive definite at {np.asarray(point).tolist()} (eigenvalues {w})")
    return g


def _matrix_jets(rows, coordinates, point):
    """(M, dM, ddM) of a square matrix of expressions at a point, with
    dM[k,i,j] = d_k M_ij and ddM[c,k,i,j] = d_c d_k M_ij."""
    n = len(coordinates)
    v, d1, d2 = ex.jets([e for row in rows for e in row], coordinates, point)
    return (v.reshape(n, n), np.moveaxis(d1.reshape(n, n, n), 2, 0),
            np.moveaxis(d2.reshape(n, n, n, n), (2, 3), (0, 1)))


@dataclass(frozen=True)
class PointData:
    point: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    J: np.ndarray | None
    dJ: np.ndarray | None      # dJ[k,i,j] = d_k J^i_j
    gamma: np.ndarray          # gamma[a,i,j] = Gamma^a_ij
    riemann: np.ndarray        # all-lower R4[i,j,k,l]
    ricci: np.ndarray
    scalar: float
    weyl: np.ndarray | None


def christoffel(chart, point):
    """Levi-Civita Christoffel symbols gamma[a,i,j] = Gamma^a_ij at a point."""
    g, dg, _ = chart.metric_jets(point)
    return _christoffel(np.linalg.inv(g), dg)[1]


def _christoffel(gi, d1):
    """(low, gamma): low[m,i,j] = Gamma_m,ij = (d_i g_mj + d_j g_mi - d_m g_ij)/2
    and gamma[a,i,j] = Gamma^a_ij = g^am low[m,i,j]."""
    low = 0.5 * (np.einsum("imj->mij", d1) + np.einsum("jmi->mij", d1) - d1)
    return low, np.einsum("am,mij->aij", gi, low)


def connection_jet(g, d1, d2):
    """(gamma, dgamma, R4) from a metric jet (g, dg, ddg): the Levi-Civita
    symbols gamma[a,i,j] = Gamma^a_ij, their derivatives
    dgamma[c,a,i,j] = d_c Gamma^a_ij, and the all-lower curvature tensor
    R4[i,j,k,l] = g(R(d_i,d_j) d_k, d_l)."""
    n = len(g)
    gi = np.linalg.inv(g)
    low, gamma = _christoffel(gi, d1)
    dlow = 0.5 * (np.einsum("cimj->cmij", d2) + np.einsum("cjmi->cmij", d2) - d2)
    # d_c Gamma^a_ij = g^am (d_c Gamma_m,ij - d_c g_mb Gamma^b_ij)
    dgamma = gi @ (dlow.reshape(n, n, n * n) - d1 @ gamma.reshape(n, n * n))
    # R_ijkl = d_i Gamma_l,jk - d_j Gamma_l,ik - Gamma_m,il G^m_jk + Gamma_m,jl G^m_ik
    R4 = (np.einsum("iljk->ijkl", dlow) - np.einsum("jlik->ijkl", dlow)
          - np.einsum("mil,mjk->ijkl", low, gamma) + np.einsum("mjl,mik->ijkl", low, gamma))
    return gamma, dgamma.reshape(n, n, n, n), R4


def riemann(chart, point):
    """(g, gamma, R4) at a point from one jet of the metric: the metric,
    gamma[a,i,j] = Gamma^a_ij, and the all-lower curvature tensor."""
    g, d1, d2 = chart.metric_jets(point)
    gamma, _, R4 = connection_jet(g, d1, d2)
    return g, gamma, R4


def ricci_scalar(R4, g):
    """(S, s): Ricci tensor and scalar curvature, also of stacks (..., n, n, n, n)."""
    gi = np.linalg.inv(g)
    S = np.einsum("...il,...ijkl->...jk", gi, R4)
    return S, np.einsum("...jk,...jk->...", gi, S)


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


def point_data(chart, point, with_weyl=True):
    """Everything the chart pipeline reads at one point, from one ``riemann``."""
    point = np.asarray(point, dtype=float)
    g, gamma, R4 = riemann(chart, point)
    gi = np.linalg.inv(g)
    S, s = ricci_scalar(R4, g)
    C = None
    if with_weyl and chart.dim >= 4:
        C = weyl(R4, S, s, g)
    J, dJ = chart._j_jets(point)
    return PointData(point=point, g=g, g_inv=gi, J=J, dJ=dJ, gamma=gamma,
                     riemann=R4, ricci=S, scalar=float(s), weyl=C)


def relative_weyl_norm(pd):
    """max |C| / max(max |R|, 1) of point data that carries the Weyl tensor."""
    scale = max(np.max(np.abs(pd.riemann)), 1.0)
    return float(np.max(np.abs(pd.weyl)) / scale)


def curvature_values(R4, X, Y, Z, U):
    """R(X,Y,Z,U) for vectors (n,), or for every row of stacks (s, n): R4 as
    an n^2 x n^2 matrix between the rows of X (x) Y and Z (x) U."""
    n = R4.shape[0]
    left, right = (np.einsum("...i,...j->...ij", A, B).reshape(-1, n * n)
                   for A, B in ((X, Y), (Z, U)))
    rows = np.sum((left @ R4.reshape(n * n, n * n)) * right, axis=1)
    return rows.reshape(np.shape(X)[:-1])


def curvature_value(R4, X, Y, Z, U):
    """Multilinear evaluation R(X,Y,Z,U): the one-row curvature_values."""
    return float(curvature_values(R4, X, Y, Z, U))


def _inner(g, X, Y):
    return np.sum((X @ g) * Y, axis=-1)


# the invariants below also take stacks (s, n), checked row by row
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
    JX = X @ J.T
    return curvature_values(R4, X, JX, JX, X) / nrm2 ** 2


def lambda_type(R4, g, J, X, Y):
    """Constant-type combination R(X,Y,Y,X) - R(X,Y,JY,JX) on unit X, Y.

    Inputs are normalized internally; the value is reported for unit vectors.
    """
    nx, ny = _inner(g, X, X), _inner(g, Y, Y)
    if np.any(nx <= 0.0) or np.any(ny <= 0.0):
        raise DegeneratePlaneError("zero vector")
    X, Y = X / np.sqrt(nx)[..., None], Y / np.sqrt(ny)[..., None]
    return curvature_values(R4, X, Y, Y, X) - curvature_values(R4, X, Y, Y @ J.T, X @ J.T)


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


def weyl_trace_residual(C, g, relative=True):
    """Largest metric contraction of the Weyl tensor (should vanish)."""
    gi = np.linalg.inv(g)
    scale = max(np.max(np.abs(C)), 1e-300) if relative else 1.0
    return max(float(np.max(np.abs(np.einsum(spec, gi, C)))) for spec in (
        "il,ijkl->jk", "ik,ijkl->jl", "jk,ijkl->il", "jl,ijkl->ik", "ij,ijkl->kl",
        "kl,ijkl->ij")) / scale
