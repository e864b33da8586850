"""Immersed submanifolds of a chart: induced metric, second fundamental
form, mean curvature, normal connection, and the two Codazzi-type residuals.

Everything at a sub-chart point is exact and comes from two jets: one of the
immersion map to third order, and one of the target metric (Christoffel
symbols, their derivatives and the curvature, ``curvature.connection_jet``).
``Immersion.point_jets`` takes each of them once for all points of a command.
With h_ab = d_a d_b x + Gamma(F_a, F_b) and the normal projector
P = I - F G^-1 F^T g, the form is alpha_ab = P h_ab; its derivatives follow
by the product rule, and the Gauss formula gives the induced connection
Gamma^d_ab = (G^-1 F^T g h_ab)_d (B.-Y. Chen, Geometry of Submanifolds,
1973).  ``second_fundamental_form`` evaluates all of it once on the stack of
points; the normal connection and the Codazzi residuals read from its data.
Every contraction on the derivative side (dh, dG, d alpha, d H and the
Codazzi terms) is a chain of pairwise matrix products, one index at a time.
The exact symbolic pullback chart (``Immersion.induced_chart``) gives the
intrinsic curvature; the reports do not need it.
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

    def map_jets(self, u):
        """(x, F, hess, third) at sub-chart point ``u`` (k,) or a stack (P, k),
        from one third-order jet of the map: the ambient point, the Jacobian
        F[p,a] = d_a x^p (checked to have full rank), hess[p,a,b] = d_a d_b x^p
        and third[p,a,b,c] = d_a d_b d_c x^p."""
        x, F, hess, third = ex.jets(self.map_exprs, self.coordinates, u, 3)
        cv.check_rank(F, "immersion", u)
        return x, F, hess, third

    def point_jets(self, points):
        """``map_jets`` and the target's ``metric_jets`` at the mapped points of a
        stack (P, k), one jet each; ``expressions.first_bad_point`` names an error."""
        def step(u):
            x, F, hess, third = self.map_jets(u)
            return (x, F, hess, third, *self.target.metric_jets(x))
        return ex.first_bad_point(step, points)

    def induced_chart(self):
        """Exact pullback metric as a chart over the sub coordinates."""
        return self._pullback

    @functools.cached_property
    def _pullback(self):  # one scope, as a load: equal subtrees of all entries are one node
        mapping = dict(zip(self.target.coordinates, self.map_exprs))
        with ex.interning():
            gsub = [[ex.substitute(e, mapping) for e in row] for row in self.target.metric]
            jac, N = ex.gradients(self.map_exprs, self.coordinates), len(self.map_exprs)
            G = [[functools.reduce(ex.add, (ex.mul(ex.mul(jac[p][a], jac[q][b]), gsub[p][q])
                                            for p in range(N) for q in range(N)), ex.const(0.0))
                  for b in range(self.k)] for a in range(self.k)]
        return cv.ManifoldChart(name=f"{self.target.name}_pullback",
                                coordinates=list(self.coordinates), metric=G)


@dataclass(frozen=True)
class SecondFundamentalData:
    """The second fundamental form, its exact first derivatives d_c along each
    sub-coordinate direction and its ambient data, with the points' leading axes."""
    point: np.ndarray                 # ambient coordinates
    tangent: np.ndarray               # (N, k) pushforward columns F
    induced: np.ndarray               # (k, k) pullback metric G
    alpha: np.ndarray                 # (k, k, N) normal-valued form
    mean_curvature: np.ndarray        # ambient normal vector H
    mean_curvature_norm: np.ndarray   # () |H| in the target metric
    umbilicity: np.ndarray            # () max |alpha - G H| over its scale
    normal_projector: np.ndarray      # (N, N) P = I - F G^-1 F^T g
    induced_gamma: np.ndarray         # (k, k, k) induced symbols Gamma^d_ab
    dalpha: np.ndarray                # (k, k, k, N): dalpha[c] = d_c alpha
    dmean: np.ndarray                 # (k, N): dmean[c] = d_c H
    ambient_metric: np.ndarray        # (N, N) target metric at ``point``
    ambient_metric_inv: np.ndarray    # (N, N) its inverse
    ambient_gamma: np.ndarray         # (N, N, N) target Christoffel symbols there
    ambient_riemann: np.ndarray       # (N, N, N, N) all-lower target curvature there


def second_fundamental_form(imm, points):
    """Exact second fundamental form data at sub-chart ``points``, a stack
    (P, k) or one point (k,), from one jet of the map and one of the target
    metric (``Immersion.point_jets``); the rest runs once on the stack.

    alpha(d_a, d_b) is the normal projection of the second derivative of the
    immersion corrected by the ambient Christoffel symbols.  Sign convention:
    the outward-normal round sphere of radius r gets alpha = -(1/r) g n.
    """
    points = np.asarray(points, dtype=float)
    x, F, hess, third, g, dg, ddg = imm.point_jets(points.reshape(-1, imm.k))
    gi = np.linalg.inv(g)
    gamma, dgamma, R4 = cv.connection_jet(g, dg, ddg, gi)
    (n_points, N, k), FT = F.shape, np.swapaxes(F, -1, -2)
    dF = np.moveaxis(hess, -1, 1)                          # dF[:, c] = d_c F
    dFT = hess.transpose(0, 2, 3, 1).reshape(n_points, k * k, N)  # rows (a, c): d_c F_a
    dg_u = (FT @ dg.reshape(n_points, N, N * N)).reshape(n_points, k, N, N)  # d_c g along u
    # d_c of Gamma along u, then F on its last index: (c, l, p, b)
    dgamma_uF = ((FT @ dgamma.reshape(n_points, N, N ** 3)).reshape(n_points, k, N, N, N)
                 @ F[:, None, None])

    # h[a,b] = d_a d_b x + Gamma(F_a, F_b), and its derivatives d_c
    h = np.moveaxis(hess, 1, -1) + np.einsum("...lpq,...pa,...qb->...abl", gamma, F, F)
    gammaF = (gamma @ F[:, None]).transpose(0, 2, 1, 3).reshape(n_points, N, N * k)  # (p, (l, b))
    t = (dFT @ gammaF).reshape(n_points, k, k, N, k).transpose(0, 2, 1, 4, 3)  # (c, a, b, l)
    dh = (np.moveaxis(third, 1, -1) + t + np.swapaxes(t, 2, 3)
          + np.moveaxis(FT[:, None, None] @ dgamma_uF, 2, -1))

    G = FT @ g @ F
    Gi = np.linalg.inv(G)
    T = Gi @ FT @ g                                   # tangent coordinates: v -> G^-1 F^T g v
    P = np.eye(N) - F @ T
    PT = np.swapaxes(P, -1, -2)[:, None]              # P^T for each row a of alpha
    alpha = h @ PT
    H = np.einsum("...ab,...abl->...l", Gi, alpha) / k

    dG = np.swapaxes((dFT @ (g @ F)).reshape(n_points, k, k, k), 1, 2)
    dG = dG + np.swapaxes(dG, -1, -2) + FT[:, None] @ dg_u @ F[:, None]
    dGi = -Gi[:, None] @ dG @ Gi[:, None]
    dT = (dGi @ FT[:, None] @ g[:, None] + Gi[:, None] @ np.swapaxes(dF, -1, -2) @ g[:, None]
          + Gi[:, None] @ FT[:, None] @ dg_u)
    dP = -(dF @ T[:, None] + F[:, None] @ dT)
    dalpha = ((h.reshape(n_points, 1, k * k, N) @ np.swapaxes(dP, -1, -2)).reshape(dh.shape)
              + dh @ PT[:, None])
    dmean = (dGi.reshape(n_points, k, k * k) @ alpha.reshape(n_points, k * k, N)
             + (Gi.reshape(n_points, 1, 1, k * k) @ dalpha.reshape(n_points, k, k * k, N))[:, :, 0]
             ) / k

    h_norm = np.sqrt(np.maximum((H[:, None] @ g @ H[..., None])[:, 0, 0], 0.0))
    scale = np.maximum(np.maximum(np.max(np.abs(alpha), axis=(1, 2, 3)),
                                  np.max(np.abs(G), axis=(1, 2)) * h_norm), 1e-300)
    umb = np.max(np.abs(alpha - G[..., None] * H[:, None, None]), axis=(1, 2, 3)) / scale
    fields = dict(
        point=x, tangent=F, induced=G, alpha=alpha, mean_curvature=H,
        mean_curvature_norm=h_norm, umbilicity=umb, normal_projector=P,
        induced_gamma=(T @ np.swapaxes(h.reshape(n_points, k * k, N), 1, 2)).reshape(
            n_points, k, k, k), dalpha=dalpha, dmean=dmean,
        ambient_metric=g, ambient_metric_inv=gi, ambient_gamma=gamma, ambient_riemann=R4)
    return SecondFundamentalData(**{name: a.reshape(points.shape[:-1] + a.shape[1:])
                                    for name, a in fields.items()})


def normal_connection_DH(data):
    """Normal-connection derivatives D_c H = P (d_c H + Gamma(F_c, H)) along
    each sub-coordinate direction c, as rows of a (k, N) array per point."""
    gamma_H = (data.ambient_gamma @ data.mean_curvature[..., None, :, None])[..., 0]  # (l, p)
    return ((data.dmean + np.swapaxes(gamma_H @ data.tangent, -1, -2))
            @ np.swapaxes(data.normal_projector, -1, -2))


def codazzi_residuals(data):
    """Residuals of the two normal-component curvature equations at each
    point of ``data``, over every triple (a < b, c).

    The first compares the normal part of the ambient curvature against the
    antisymmetrized covariant derivative of the second fundamental form; the
    second against its totally umbilical reduction in terms of D H, which
    holds only at an umbilical point (the caller decides where that is).
    """
    F, alpha = data.tangent, data.alpha
    lead, (N, k) = F.shape[:-2], F.shape[-2:]
    FT = np.swapaxes(F, -1, -2)
    PT = np.swapaxes(data.normal_projector, -1, -2)[..., None, None, :, :]
    # Gamma(F_a, alpha_bc) as rows (b, c, l) of columns a, then as (a, b, c, l)
    gamma_alpha = (alpha.reshape(*lead, k * k, N)
                   @ np.swapaxes(data.ambient_gamma.reshape(*lead, N * N, N), -1, -2))
    gamma_alpha = np.moveaxis((gamma_alpha.reshape(*lead, k * k * N, N) @ F).reshape(
        *lead, k, k, N, k), -1, -4)
    # the induced symbols as rows (a, b) of columns d, for Gamma-ind^d_ab alpha_dc
    # and Gamma-ind^d_ac alpha_bd
    induced = np.swapaxes(data.induced_gamma.reshape(*lead, k, k * k), -1, -2)
    # cov[a,b,c] = (nabla-bar_a alpha)(b, c)
    cov = ((data.dalpha + gamma_alpha) @ PT
           - (induced @ alpha.reshape(*lead, k, k * N)).reshape(*lead, k, k, k, N)
           - np.swapaxes((induced @ np.swapaxes(alpha, -3, -2).reshape(*lead, k, k * N)).reshape(
               *lead, k, k, k, N), -3, -2))
    # normal part of R(F_a, F_b) F_c, contracting one index of R with F at a time
    R = FT @ data.ambient_riemann.reshape(*lead, N, N ** 3)
    R = FT[..., None, :, :] @ R.reshape(*lead, k, N, N * N)
    R = FT[..., None, None, :, :] @ R.reshape(*lead, k, k, N, N)
    lhs = R @ data.ambient_metric_inv[..., None, None, :, :] @ PT
    dh, G = normal_connection_DH(data), data.induced
    rhs2 = (G[..., None, :, :, None] * dh[..., :, None, None, :]
            - G[..., :, None, :, None] * dh[..., None, :, None, :])
    a, b = np.triu_indices(k, 1)
    residuals = np.abs(np.stack([lhs - cov + np.swapaxes(cov, -4, -3), lhs - rhs2]))
    return tuple(np.max(residuals[..., a, b, :, :], axis=(-3, -2, -1), initial=0.0))
