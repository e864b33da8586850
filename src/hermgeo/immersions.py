"""Immersed submanifolds of a chart: induced metric, second fundamental
form, mean curvature, normal connection, and the two Codazzi-type residuals.

The pullback chart is exact (symbolic), and so are the form components at
a point (jets of the immersion map and the ambient metric); derivatives of
fields along the submanifold (the normal connection and the covariant
derivative of the form) use Richardson-extrapolated central differences,
since the Gram-Schmidt normal projection is not closed-form.  ``stencil``
evaluates the form once at a point and once at each stencil point; the
normal connection and the Codazzi residuals both read from it.
"""

from dataclasses import dataclass, field

import numpy as np

from . import curvature as cv
from . import expressions as ex
from .frames import RankDeficiencyError, gram_schmidt

_RANK_TOL = 1e-8
_FD_STEP = 1e-5


@dataclass
class Immersion:
    coordinates: list                 # k sub-chart coordinate names
    target: cv.ManifoldChart
    map_exprs: list                   # target.dim expressions in the sub coordinates

    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def k(self):
        return len(self.coordinates)

    def map_jets(self, u):
        """(x, F, hess) at sub-chart point ``u`` from one jet of the map: the
        ambient point, the Jacobian F[p,a] = d_a x^p (checked to have full
        rank) and hess[p,a,c] = d_a d_c x^p."""
        x, F, hess = ex.jets(self.map_exprs, self.coordinates, u)
        sv = np.linalg.svd(F, compute_uv=False)
        if sv[-1] <= _RANK_TOL * sv[0]:
            raise RankDeficiencyError(
                f"immersion rank deficient at {list(u)} (singular values {sv})")
        return x, F, hess

    def jacobian(self, u):
        return self.map_jets(u)[1]

    def induced_chart(self):
        """Exact pullback metric as a chart over the sub coordinates."""
        if "induced" not in self._cache:
            mapping = dict(zip(self.target.coordinates, self.map_exprs))
            gsub = [[ex.substitute(e, mapping) for e in row]
                    for row in self.target.metric]
            jac = [[ex.differentiate(f, c) for c in self.coordinates]
                   for f in self.map_exprs]
            N, k = len(self.map_exprs), self.k
            G = []
            for a in range(k):
                row = []
                for b in range(k):
                    total = ex.Const(0.0)
                    for p in range(N):
                        for q in range(N):
                            total = ex.add(total, ex.mul(
                                ex.mul(jac[p][a], jac[q][b]), gsub[p][q]))
                    row.append(total)
                G.append(row)
            self._cache["induced"] = cv.ManifoldChart(
                name=f"{self.target.name}_pullback",
                coordinates=list(self.coordinates), metric=G)
        return self._cache["induced"]


@dataclass(frozen=True)
class SecondFundamentalData:
    u: np.ndarray
    point: np.ndarray                 # ambient coordinates
    tangent: np.ndarray               # (N, k) pushforward columns
    tangent_frame: list               # k ambient vectors, g-orthonormal
    induced: np.ndarray               # k x k pullback metric
    alpha: np.ndarray                 # (k, k, N) normal-valued form
    mean_curvature: np.ndarray        # ambient normal vector H
    umbilicity: float
    ambient_metric: np.ndarray        # (N, N) target metric at ``point``
    ambient_gamma: np.ndarray         # (N, N, N) target Christoffel symbols there


def _normal_projector(frames_tangent, g):
    def project(v):
        for t in frames_tangent:
            v = v - (t @ g @ v) * t
        return v
    return project


def induced_metric(imm, u):
    x, F, _ = imm.map_jets(u)
    return F.T @ imm.target.metric_at(x) @ F


def second_fundamental_form(imm, u):
    """Exact second fundamental form data at sub-chart point ``u``, from one
    jet of the immersion map and one jet of the target metric.

    alpha(d_a, d_b) is the normal projection of the second derivative of the
    immersion corrected by the ambient Christoffel symbols.  Sign convention:
    the outward-normal round sphere of radius r gets alpha = -(1/r) g n.
    """
    u = np.asarray(u, dtype=float)
    x, F, hess = imm.map_jets(u)
    g_amb, gamma = cv.connection(imm.target, x)
    N, k = imm.target.dim, imm.k
    tangent = gram_schmidt([F[:, a] for a in range(k)], g_amb)
    project = _normal_projector(tangent, g_amb)

    alpha = np.zeros((k, k, N))
    for a in range(k):
        for c in range(a, k):
            corr = np.einsum("lpm,p,m->l", gamma, F[:, a], F[:, c])
            val = project(hess[:, a, c] + corr)
            alpha[a, c] = val
            alpha[c, a] = val

    G = F.T @ g_amb @ F
    Gi = np.linalg.inv(G)
    H = np.einsum("ab,abl->l", Gi, alpha) / k

    scale = max(np.max(np.abs(alpha)),
                np.max(np.abs(G)) * max(np.sqrt(abs(H @ g_amb @ H)), 0.0), 1e-300)
    umb = np.max(np.abs(alpha - np.einsum("ab,l->abl", G, H))) / scale
    return SecondFundamentalData(
        u=u, point=x, tangent=F, tangent_frame=tangent,
        induced=G, alpha=alpha, mean_curvature=H, umbilicity=float(umb),
        ambient_metric=g_amb, ambient_gamma=gamma)


@dataclass(frozen=True)
class Stencil:
    """Second fundamental form at a point and its derivatives along each
    sub-coordinate direction a, from one form evaluation at each of the 4k
    Richardson stencil points around it."""
    data: SecondFundamentalData
    dalpha: np.ndarray                # (k, k, k, N): d_a of the alpha components
    dh: list                          # k normal vectors D_a H


def stencil(imm, u):
    """The ``Stencil`` of ``imm`` at sub-chart point ``u``."""
    data = second_fundamental_form(imm, u)
    k, N = imm.k, imm.target.dim

    def field(v):
        sff = second_fundamental_form(imm, v)
        return np.concatenate([sff.alpha.ravel(), sff.mean_curvature])

    d = np.array([cv.richardson(field, data.u, np.eye(k)[a], _FD_STEP)
                  for a in range(k)])
    return Stencil(data=data, dalpha=d[:, :-N].reshape(k, k, k, N),
                   dh=normal_connection_DH(data, d[:, -N:]))


def normal_connection_DH(data, dmean):
    """Normal-connection derivatives D_a H along each sub-coordinate
    direction, given the coordinate derivatives ``dmean[a]`` of H."""
    project = _normal_projector(data.tangent_frame, data.ambient_metric)
    return [project(dmean[a] + np.einsum("lpm,p,m->l", data.ambient_gamma,
                                         data.tangent[:, a], data.mean_curvature))
            for a in range(len(dmean))]


def codazzi_residuals(imm, st, triples=None, umbilical_tol=1e-8):
    """Residuals of the two normal-component curvature equations at the
    point of stencil ``st``.

    The first compares the normal part of the ambient curvature against the
    antisymmetrized covariant derivative of the second fundamental form; the
    second against its totally umbilical reduction in terms of D H (reported
    only when the point is umbilical; None otherwise).
    """
    data = st.data
    F = data.tangent
    project = _normal_projector(data.tangent_frame, data.ambient_metric)
    _, _, R_amb = cv.riemann(imm.target, data.point)
    gi_amb = np.linalg.inv(data.ambient_metric)
    gamma_ind = cv.christoffel(imm.induced_chart(), data.u)
    k = imm.k
    if triples is None:
        triples = [(a, b, c) for a in range(k) for b in range(a + 1, k)
                   for c in range(k)]

    def covariant_alpha(a, b, c):
        # (nabla-bar_a alpha)(b, c)
        xi = data.alpha[b, c]
        ambient = st.dalpha[a][b, c] + np.einsum(
            "lpm,p,m->l", data.ambient_gamma, F[:, a], xi)
        D = project(ambient)
        return (D - np.einsum("d,dl->l", gamma_ind[:, a, b], data.alpha[:, c])
                - np.einsum("d,dl->l", gamma_ind[:, a, c], data.alpha[b, :]))

    r21 = 0.0
    r22 = 0.0
    for (a, b, c) in triples:
        lhs_vec = np.einsum("lm,ijkm,i,j,k->l", gi_amb, R_amb,
                            F[:, a], F[:, b], F[:, c])
        lhs = project(lhs_vec)
        rhs1 = covariant_alpha(a, b, c) - covariant_alpha(b, a, c)
        r21 = max(r21, float(np.max(np.abs(lhs - rhs1))))
        rhs2 = data.induced[b, c] * st.dh[a] - data.induced[a, c] * st.dh[b]
        r22 = max(r22, float(np.max(np.abs(lhs - rhs2))))

    if data.umbilicity > umbilical_tol:
        r22 = None
    return r21, r22
