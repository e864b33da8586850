"""Connection and curvature of a coordinate chart.

All derivatives of the metric (and of a symbolic almost complex structure)
are taken exactly on the expression trees; finite differences (``richardson``)
appear only where a structure is defined pointwise (see models.py), for fields
along submanifolds (see immersions.py), or in test oracles.

``point_data`` is the one evaluation of a chart point: metric, Christoffel
symbols, curvature, Ricci, Weyl and J.  Everything downstream reads from it.

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
    complex_structure_fn: object | None = None  # point -> J matrix (pointwise J)
    domain_hint: list | None = None    # per-coordinate (lo, hi)
    embedding: Embedding | None = None
    expected: dict = field(default_factory=dict)  # regression table for models

    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self):
        return len(self.coordinates)

    def bindings(self, point):
        return dict(zip(self.coordinates, point))

    def has_j(self):
        return self.complex_structure is not None or self.complex_structure_fn is not None

    def _metric_derivs(self):
        """Cached (d1, d2) expression tables: d1[k][i][j] = d_k g_ij."""
        if "dmetric" not in self._cache:
            n = self.dim
            d1 = [[[ex.differentiate(self.metric[i][j], self.coordinates[k])
                    for j in range(n)] for i in range(n)] for k in range(n)]
            d2 = [[[[ex.differentiate(d1[k][i][j], self.coordinates[c])
                     for j in range(n)] for i in range(n)] for k in range(n)]
                  for c in range(n)]
            self._cache["dmetric"] = (d1, d2)
        return self._cache["dmetric"]

    def _j_derivs(self):
        if "dj" not in self._cache:
            n = self.dim
            self._cache["dj"] = [
                [[ex.differentiate(self.complex_structure[i][j], self.coordinates[k])
                  for j in range(n)] for i in range(n)] for k in range(n)]
        return self._cache["dj"]

    def metric_at(self, point):
        b = self.bindings(point)
        n = self.dim
        g = np.array([[ex.evaluate(self.metric[i][j], b) for j in range(n)]
                      for i in range(n)])
        w = np.linalg.eigvalsh(g)
        if w[0] <= 1e-10 * w[-1]:
            raise SingularMetricError(
                f"metric not positive definite at {list(point)} (eigenvalues {w})")
        return g

    def j_at(self, point):
        if self.complex_structure is not None:
            b = self.bindings(point)
            n = self.dim
            return np.array([[ex.evaluate(self.complex_structure[i][j], b)
                              for j in range(n)] for i in range(n)])
        if self.complex_structure_fn is not None:
            return np.asarray(self.complex_structure_fn(np.asarray(point, dtype=float)))
        return None

    def dj_at(self, point):
        """dJ[k,i,j] = d_k J^i_j; exact if J is symbolic, Richardson otherwise."""
        n = self.dim
        if self.complex_structure is not None:
            djx = self._j_derivs()
            b = self.bindings(point)
            return np.array([[[ex.evaluate(djx[k][i][j], b) for j in range(n)]
                              for i in range(n)] for k in range(n)])
        if self.complex_structure_fn is None:
            return None
        return np.array([richardson(self.j_at, point, np.eye(n)[k], 1e-2)
                         for k in range(n)])


def richardson(field_fn, u, direction, h):
    """Derivative of an array-valued ``field_fn`` at ``u`` along ``direction``:
    central differences at steps h and h/2, Richardson-extrapolated (O(h^4))."""
    u = np.asarray(u, dtype=float)
    d = np.asarray(direction, dtype=float)
    d_h = (field_fn(u + h * d) - field_fn(u - h * d)) / (2 * h)
    d_h2 = (field_fn(u + (h / 2) * d) - field_fn(u - (h / 2) * d)) / h
    return (4.0 * d_h2 - d_h) / 3.0


@dataclass(frozen=True)
class PointData:
    point: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    J: np.ndarray | None
    gamma: np.ndarray          # gamma[a,i,j] = Gamma^a_ij
    riemann: np.ndarray        # all-lower R4[i,j,k,l]
    ricci: np.ndarray
    scalar: float
    weyl: np.ndarray | None


def christoffel(chart, point):
    """Levi-Civita Christoffel symbols gamma[a,i,j] = Gamma^a_ij at a point."""
    g = chart.metric_at(point)
    return _christoffel(np.linalg.inv(g), _eval_d1(chart, point))[1]


def _christoffel(gi, d1):
    """(T, gamma) with T[m,i,j] = d_i g_mj + d_j g_mi - d_m g_ij."""
    T = np.einsum("imj->mij", d1) + np.einsum("jmi->mij", d1) - d1
    return T, 0.5 * np.einsum("am,mij->aij", gi, T)


def _eval_d1(chart, point):
    n = chart.dim
    d1x, _ = chart._metric_derivs()
    b = chart.bindings(point)
    return np.array([[[ex.evaluate(d1x[k][i][j], b) for j in range(n)]
                      for i in range(n)] for k in range(n)])


def _eval_d2(chart, point):
    n = chart.dim
    _, d2x = chart._metric_derivs()
    b = chart.bindings(point)
    return np.array([[[[ex.evaluate(d2x[c][k][i][j], b) for j in range(n)]
                       for i in range(n)] for k in range(n)] for c in range(n)])


def riemann(chart, point):
    """(g, gamma, R4) at a point from one evaluation of the metric and its
    derivative tables: the metric, gamma[a,i,j] = Gamma^a_ij, and the
    all-lower curvature tensor R4[i,j,k,l] = g(R(d_i,d_j) d_k, d_l)."""
    g = chart.metric_at(point)
    gi = np.linalg.inv(g)
    d1 = _eval_d1(chart, point)
    d2 = _eval_d2(chart, point)
    T, gamma = _christoffel(gi, d1)

    dgi = -np.einsum("am,cmn,nb->cab", gi, d1, gi)
    dT = (np.einsum("cimj->cmij", d2) + np.einsum("cjmi->cmij", d2) - d2)
    dgamma = 0.5 * (np.einsum("cam,mij->caij", dgi, T)
                    + np.einsum("am,cmij->caij", gi, dT))

    # R^l_kij = d_i Gamma^l_jk - d_j Gamma^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik
    rup = (np.einsum("iljk->lkij", dgamma) - np.einsum("jlik->lkij", dgamma)
           + np.einsum("lim,mjk->lkij", gamma, gamma)
           - np.einsum("ljm,mik->lkij", gamma, gamma))
    return g, gamma, np.einsum("lm,mkij->ijkl", g, rup)


def ricci_scalar(R4, g):
    gi = np.linalg.inv(g)
    S = np.einsum("il,ijkl->jk", gi, R4)
    s = float(np.einsum("jk,jk->", gi, S))
    return S, s


def weyl(R4, S, s, g, dim=None):
    """Weyl conformal curvature tensor (all-lower) of an algebraic curvature
    tensor with Ricci data."""
    n = dim if dim is not None else g.shape[0]
    if n < 4:
        raise UnsupportedDimensionError(
            f"conformal curvature needs dimension >= 4, got {n}")
    gS = (np.einsum("il,jk->ijkl", g, S) - np.einsum("ik,jl->ijkl", g, S)
          + np.einsum("jk,il->ijkl", g, S) - np.einsum("jl,ik->ijkl", g, S))
    gg = np.einsum("il,jk->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g)
    return R4 - gS / (n - 2) + (s / ((n - 1) * (n - 2))) * gg


def point_data(chart, point, with_weyl=True):
    """Everything the chart pipeline reads at one point, from one ``riemann``."""
    point = np.asarray(point, dtype=float)
    g, gamma, R4 = riemann(chart, point)
    gi = np.linalg.inv(g)
    S, s = ricci_scalar(R4, g)
    C = None
    if with_weyl and chart.dim >= 4:
        C = weyl(R4, S, s, g)
    return PointData(point=point, g=g, g_inv=gi, J=chart.j_at(point),
                     gamma=gamma, riemann=R4, ricci=S, scalar=s, weyl=C)


def relative_weyl_norm(pd):
    """max |C| / max(max |R|, 1) of point data that carries the Weyl tensor."""
    scale = max(np.max(np.abs(pd.riemann)), 1.0)
    return float(np.max(np.abs(pd.weyl)) / scale)


def curvature_value(R4, X, Y, Z, U):
    """Multilinear evaluation R(X,Y,Z,U)."""
    return float(np.einsum("ijkl,i,j,k,l->", R4, X, Y, Z, U))


def sectional(R4, g, X, Y):
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    denom = (X @ g @ X) * (Y @ g @ Y) - (X @ g @ Y) ** 2
    scale = max((X @ g @ X) * (Y @ g @ Y), 1e-300)
    if denom <= 1e-12 * scale:
        raise DegeneratePlaneError("vectors do not span a 2-plane")
    return curvature_value(R4, X, Y, Y, X) / denom


def holomorphic_sectional(R4, g, J, X):
    """H(X) = R(X, JX, JX, X) / g(X,X)^2."""
    X = np.asarray(X, dtype=float)
    nrm2 = X @ g @ X
    if nrm2 <= 0.0:
        raise DegeneratePlaneError("zero vector")
    JX = J @ X
    return curvature_value(R4, X, JX, JX, X) / nrm2 ** 2


def lambda_type(R4, g, J, X, Y):
    """Constant-type combination R(X,Y,Y,X) - R(X,Y,JY,JX) on unit X, Y.

    Inputs are normalized internally; the value is reported for unit vectors.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    nx, ny = X @ g @ X, Y @ g @ Y
    if nx <= 0.0 or ny <= 0.0:
        raise DegeneratePlaneError("zero vector")
    X = X / np.sqrt(nx)
    Y = Y / np.sqrt(ny)
    return curvature_value(R4, X, Y, Y, X) - curvature_value(R4, X, Y, J @ Y, J @ X)


def symmetry_residuals(R4, relative=True):
    """Max-norm residuals of the curvature symmetries and first Bianchi."""
    scale = max(np.max(np.abs(R4)), 1e-300) if relative else 1.0
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
    worst = 0.0
    for spec in ("il,ijkl->jk", "ik,ijkl->jl", "jk,ijkl->il",
                 "jl,ijkl->ik", "ij,ijkl->kl", "kl,ijkl->ij"):
        worst = max(worst, float(np.max(np.abs(np.einsum(spec, gi, C)))))
    return worst / scale
