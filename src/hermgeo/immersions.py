"""Immersed submanifolds of a chart: induced metric, second fundamental
form, mean curvature, normal connection, and the two Codazzi-type residuals.

Everything at a sub-chart point is exact and comes from two jets: one of the
immersion map together with its first-derivative trees (so it also carries
the map's third derivatives), and one of the target metric (Christoffel
symbols, their derivatives and the curvature, ``curvature.connection_jet``).
``Immersion.point_jets`` takes each of them once for all points of a command.
With h_ab = d_a d_b x + Gamma(F_a, F_b) and the normal projector
P = I - F G^-1 F^T g, the form is alpha_ab = P h_ab; its derivatives follow
by the product rule, and the Gauss formula gives the induced connection
Gamma^d_ab = (G^-1 F^T g h_ab)_d (B.-Y. Chen, Geometry of Submanifolds,
1973).  ``second_fundamental_form`` evaluates all of it once per point; the
normal connection and the Codazzi residuals read from its data.  The exact
symbolic pullback chart (``Immersion.induced_chart``) gives the intrinsic
curvature; the reports do not need it.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import curvature as cv
from . import expressions as ex


@dataclass
class Immersion:
    coordinates: list                 # k sub-chart coordinate names
    target: cv.ManifoldChart
    map_exprs: list                   # target.dim expressions in the sub coordinates

    @property
    def k(self):
        return len(self.coordinates)

    @functools.cached_property
    def _jacobian(self):
        """The trees of d_a x^p as [[d_a x^p for a] for p]."""
        return [[ex.differentiate(f, c) for c in self.coordinates] for f in self.map_exprs]

    def map_jets(self, u):
        """(x, F, hess, third) at sub-chart point ``u``, or a stack of them,
        from one jet of the map and its first-derivative trees: the ambient
        point, the Jacobian F[p,a] = d_a x^p (checked to have full rank, point
        by point), hess[p,a,b] = d_a d_b x^p and third[p,a,b,c] = d_a d_b d_c x^p."""
        N, k = len(self.map_exprs), self.k
        trees = self.map_exprs + [d for row in self._jacobian for d in row]
        v, d1, d2 = ex.jets(trees, self.coordinates, u)
        lead = v.shape[:-1]
        x, F, hess = v[..., :N], d1[..., :N, :], d2[..., :N, :, :]
        for point, f in zip(np.reshape(u, (-1, k)), F.reshape(-1, N, k)):
            cv.check_rank(f, "immersion", point)
        return x, F, hess, d2[..., N:, :, :].reshape(*lead, N, k, k, k)

    def point_jets(self, points):
        """``map_jets`` and the target's ``metric_stack`` at the mapped points of
        a stack (P, k), one jet each.  If a step fails, the points are taken
        again one at a time, so the first bad point names the error."""
        try:
            x, F, hess, third = self.map_jets(points)
            g, dg, ddg = self.target.metric_stack(x)
        except (ex.DomainError, ValueError):
            for u in points:
                self.target.metric_jets(self.map_jets(u)[0])
            raise
        return x, F, hess, third, g, dg, ddg

    def induced_chart(self):
        """Exact pullback metric as a chart over the sub coordinates."""
        return self._pullback

    @functools.cached_property
    def _pullback(self):
        mapping = dict(zip(self.target.coordinates, self.map_exprs))
        gsub = [[ex.substitute(e, mapping) for e in row] for row in self.target.metric]
        jac, N = self._jacobian, len(self.map_exprs)
        G = [[functools.reduce(ex.add, (ex.mul(ex.mul(jac[p][a], jac[q][b]), gsub[p][q])
                                        for p in range(N) for q in range(N)), ex.const(0.0))
              for b in range(self.k)] for a in range(self.k)]
        return cv.ManifoldChart(name=f"{self.target.name}_pullback",
                                coordinates=list(self.coordinates), metric=G)


@dataclass(frozen=True)
class SecondFundamentalData:
    """The second fundamental form at a sub-chart point, its exact first
    derivatives d_c along each sub-coordinate direction, and the ambient
    data they were built from."""
    point: np.ndarray                 # ambient coordinates
    tangent: np.ndarray               # (N, k) pushforward columns F
    induced: np.ndarray               # (k, k) pullback metric G
    alpha: np.ndarray                 # (k, k, N) normal-valued form
    mean_curvature: np.ndarray        # ambient normal vector H
    umbilicity: float
    normal_projector: np.ndarray      # (N, N) P = I - F G^-1 F^T g
    induced_gamma: np.ndarray         # (k, k, k) induced symbols Gamma^d_ab
    dalpha: np.ndarray                # (k, k, k, N): dalpha[c] = d_c alpha
    dmean: np.ndarray                 # (k, N): dmean[c] = d_c H
    ambient_metric: np.ndarray        # (N, N) target metric at ``point``
    ambient_gamma: np.ndarray         # (N, N, N) target Christoffel symbols there
    ambient_riemann: np.ndarray       # (N, N, N, N) all-lower target curvature there


def second_fundamental_form(imm, u, jets=None):
    """Exact second fundamental form data at sub-chart point ``u``, from one
    jet of the immersion map and one jet of the target metric; ``jets`` is
    that point's slice of ``Immersion.point_jets``, if the caller has it.

    alpha(d_a, d_b) is the normal projection of the second derivative of the
    immersion corrected by the ambient Christoffel symbols.  Sign convention:
    the outward-normal round sphere of radius r gets alpha = -(1/r) g n.
    """
    if jets is None:
        jets = [a[0] for a in imm.point_jets(np.asarray(u, dtype=float)[None])]
    x, F, hess, third, g, dg, ddg = jets
    gamma, dgamma, R4 = cv.connection_jet(g, dg, ddg)
    N, k = imm.target.dim, imm.k
    dF = np.moveaxis(hess, 2, 0)                      # dF[c] = d_c F
    dg_u = np.einsum("mc,mpq->cpq", F, dg)            # d_c of g along u
    dgamma_u = np.einsum("mc,mlpq->clpq", F, dgamma)  # d_c of Gamma along u

    # h[a,b] = d_a d_b x + Gamma(F_a, F_b), and its derivatives d_c
    h = np.moveaxis(hess, 0, 2) + np.einsum("lpq,pa,qb->abl", gamma, F, F)
    t = np.einsum("lpq,cpa,qb->cabl", gamma, dF, F)
    dh = (np.moveaxis(third, 0, 3) + t + t.transpose(0, 2, 1, 3)
          + np.einsum("clpq,pa,qb->cabl", dgamma_u, F, F))

    G = F.T @ g @ F
    Gi = np.linalg.inv(G)
    T = Gi @ F.T @ g                                  # tangent coordinates: v -> G^-1 F^T g v
    P = np.eye(N) - F @ T
    alpha = h @ P.T
    H = np.einsum("ab,abl->l", Gi, alpha) / k

    dG = np.einsum("cpa,pq,qb->cab", dF, g, F)
    dG = dG + dG.transpose(0, 2, 1) + np.einsum("pa,cpq,qb->cab", F, dg_u, F)
    dGi = -Gi @ dG @ Gi
    dT = dGi @ F.T @ g + Gi @ dF.transpose(0, 2, 1) @ g + Gi @ F.T @ dg_u
    dP = -(dF @ T + F @ dT)
    dalpha = np.einsum("clm,abm->cabl", dP, h) + dh @ P.T
    dmean = (np.einsum("cab,abl->cl", dGi, alpha)
             + np.einsum("ab,cabl->cl", Gi, dalpha)) / k

    scale = max(np.max(np.abs(alpha)),
                np.max(np.abs(G)) * max(np.sqrt(abs(H @ g @ H)), 0.0), 1e-300)
    umb = np.max(np.abs(alpha - np.einsum("ab,l->abl", G, H))) / scale
    return SecondFundamentalData(
        point=x, tangent=F, induced=G, alpha=alpha, mean_curvature=H,
        umbilicity=float(umb), normal_projector=P,
        induced_gamma=np.einsum("dl,abl->dab", T, h), dalpha=dalpha, dmean=dmean,
        ambient_metric=g, ambient_gamma=gamma, ambient_riemann=R4)


def normal_connection_DH(data):
    """Normal-connection derivatives D_c H = P (d_c H + Gamma(F_c, H)) along
    each sub-coordinate direction c, as rows of a (k, N) array."""
    return (data.dmean + np.einsum("lpm,pc,m->cl", data.ambient_gamma,
                                   data.tangent, data.mean_curvature)) @ data.normal_projector.T


def codazzi_residuals(data):
    """Residuals of the two normal-component curvature equations at the
    point of ``data``, over every triple (a < b, c).

    The first compares the normal part of the ambient curvature against the
    antisymmetrized covariant derivative of the second fundamental form; the
    second against its totally umbilical reduction in terms of D H, which
    holds only at an umbilical point (the caller decides where that is).
    """
    F, P, alpha, gamma_ind = (data.tangent, data.normal_projector, data.alpha,
                              data.induced_gamma)
    k = len(alpha)
    # cov[a,b,c] = (nabla-bar_a alpha)(b, c)
    cov = ((data.dalpha + np.einsum("lpm,pa,bcm->abcl", data.ambient_gamma, F, alpha)) @ P.T
           - np.einsum("dab,dcl->abcl", gamma_ind, alpha)
           - np.einsum("dac,bdl->abcl", gamma_ind, alpha))
    # normal part of R(F_a, F_b) F_c
    lhs = (np.einsum("ijkm,ia,jb,kc->abcm", data.ambient_riemann, F, F, F)
           @ np.linalg.inv(data.ambient_metric) @ P.T)
    dh = normal_connection_DH(data)
    G = data.induced
    rhs2 = (G[None, :, :, None] * dh[:, None, None, :]
            - G[:, None, :, None] * dh[None, :, None, :])
    a, b = np.triu_indices(k, 1)
    r21 = float(np.max(np.abs(lhs - cov + cov.transpose(1, 0, 2, 3))[a, b], initial=0.0))
    return r21, float(np.max(np.abs(lhs - rhs2)[a, b], initial=0.0))
