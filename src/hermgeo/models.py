"""Built-in benchmark charts with known invariants.

Each model carries an expected-invariant table used by the regression tests
and the CLI.  Closed-form structures are entered as expression strings; the
6-sphere's almost complex structure is defined pointwise through the
ambient 7-dimensional cross product, with its exact derivative taken from
the jet of the embedding map.
"""

from dataclasses import dataclass, field

import numpy as np

from . import expressions as ex
from .curvature import Embedding, ManifoldChart


class UnknownModelError(KeyError):
    pass


@dataclass(frozen=True)
class ModelDescriptor:
    name: str
    description: str
    defaults: dict = field(default_factory=dict)


def _parse_matrix(entries, coords):
    return [[ex.parse(entries[i][j], coords) for j in range(len(coords))]
            for i in range(len(coords))]


def _rho2(coords):
    return " + ".join(f"{c}^2" for c in coords)


def _canonical_j_entries(dim):
    rows = [["0"] * dim for _ in range(dim)]
    for k in range(dim // 2):
        rows[2 * k + 1][2 * k] = "1"
        rows[2 * k][2 * k + 1] = "-1"
    return rows


# ---------------------------------------------------------------------------
# octonion cross product on R^7

_FANO_TRIPLES = [(0, 1, 2), (0, 3, 4), (0, 6, 5), (1, 3, 5),
                 (1, 4, 6), (2, 3, 6), (2, 5, 4)]


def _octonion_table():
    eps = np.zeros((7, 7, 7))
    for (a, b, c) in _FANO_TRIPLES:
        for (i, j, k) in ((a, b, c), (b, c, a), (c, a, b)):
            eps[i, j, k] = 1.0
            eps[j, i, k] = -1.0
    return eps


_OCTONION_EPS = _octonion_table()


def octonion_cross(a, b):
    """7-dimensional cross product of imaginary octonions."""
    return np.einsum("ijk,i,j->k", _OCTONION_EPS, a, b)


def embedding_j_fn(coordinates, embedding):
    """Pointwise J on a chart, pulled back from an ambient cross-product rule,
    as a function point -> (J, dJ) with dJ[k,i,j] = d_k J^i_j.

    At a chart point with embedding p and Jacobian F, J = A^-1 B with
    A = F^T F, B = F^T W and W = (p/r) x F; the cross product preserves the
    tangent space, so the pullback is exact.  dJ comes from the same jet of
    the map through the solve: d_k J = A^-1 (d_k B - d_k A J).
    """
    if embedding.j_rule != "octonion_cross" or embedding.ambient_dim != 7:
        raise ValueError(f"unknown ambient J rule {embedding.j_rule!r} for ambient_dim "
                         f"{embedding.ambient_dim} (octonion_cross needs 7)")

    def j_at(point):
        p, F, H = ex.jets(embedding.map_exprs, coordinates, point)  # H[p,a,k] = d_k F[p,a]
        unit, dunit = p / embedding.radius, F / embedding.radius
        W = np.einsum("ijp,i,ja->pa", _OCTONION_EPS, unit, F)
        dW = (np.einsum("ijp,ik,ja->kpa", _OCTONION_EPS, dunit, F)
              + np.einsum("ijp,i,jak->kpa", _OCTONION_EPS, unit, H))
        A = F.T @ F
        J = np.linalg.solve(A, F.T @ W)
        dA = np.einsum("pak,pb->kab", H, F)
        dA = dA + np.swapaxes(dA, 1, 2)
        dB = np.einsum("pak,pb->kab", H, W) + np.einsum("pa,kpb->kab", F, dW)
        return J, np.linalg.solve(A, dB - dA @ J)

    return j_at


# ---------------------------------------------------------------------------
# model builders

def _flat_kahler(m=2):
    m = int(m)
    if m < 1:
        raise ValueError("complex dimension m must be >= 1")
    dim = 2 * m
    coords = [f"x{k + 1}" for k in range(dim)]
    metric = [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]
    return ManifoldChart(
        name=f"flat_kahler_m{m}", coordinates=coords,
        metric=_parse_matrix(metric, coords),
        complex_structure=_parse_matrix(_canonical_j_entries(dim), coords),
        domain_hint=[(-1.0, 1.0)] * dim,
        expected={"scalar": 0.0, "hsc": 0.0, "kahler": True, "nk": True,
                  "rk": True, "conformally_flat": True, "constant_type": 0.0})


def _round_sphere(n=4, r=1.0):
    n, r = int(n), float(r)
    if n < 2 or r <= 0:
        raise ValueError("need n >= 2 and radius r > 0")
    coords = [f"x{k + 1}" for k in range(n)]
    f = f"{4 * r ** 4!r}/({r * r!r} + {_rho2(coords)})^2"
    metric = [[f if i == j else "0" for j in range(n)] for i in range(n)]
    return ManifoldChart(
        name=f"round_sphere_n{n}", coordinates=coords,
        metric=_parse_matrix(metric, coords),
        domain_hint=[(-1.0, 1.0)] * n,
        expected={"sectional": 1.0 / r ** 2,
                  "scalar": n * (n - 1) / r ** 2,
                  "conformally_flat": True})


def _hyperbolic(n=2, K=1.0):
    n, K = int(n), float(K)
    if n < 2 or K <= 0:
        raise ValueError("need n >= 2 and K > 0")
    coords = [f"x{k + 1}" for k in range(n)]
    # Poincare ball of curvature -K; hint keeps points off the boundary
    f = f"(4/{K!r})/(1 - ({_rho2(coords)}))^2"
    metric = [[f if i == j else "0" for j in range(n)] for i in range(n)]
    lim = 0.9 / np.sqrt(n)
    return ManifoldChart(
        name=f"hyperbolic_n{n}", coordinates=coords,
        metric=_parse_matrix(metric, coords),
        domain_hint=[(-lim, lim)] * n,
        expected={"sectional": -K, "scalar": -n * (n - 1) * K,
                  "conformally_flat": True})


def _surface_factor(coords, curvature):
    """Conformal factor of a 2-dim space form of the given curvature."""
    rho2 = _rho2(coords)
    if curvature >= 0:
        return f"4/(1 + {curvature!r}*({rho2}))^2"
    return f"4/(1 - {-curvature!r}*({rho2}))^2"


def _product_K(K=1.0):
    K = float(K)
    if K <= 0:
        raise ValueError("need K > 0")
    coords = ["x1", "y1", "x2", "y2"]
    fs = _surface_factor(["x1", "y1"], K)
    fh = _surface_factor(["x2", "y2"], -K)
    metric = [[fs, "0", "0", "0"], ["0", fs, "0", "0"],
              ["0", "0", fh, "0"], ["0", "0", "0", fh]]
    lim = min(1.0, 0.6 / np.sqrt(K))
    return ManifoldChart(
        name="product_K", coordinates=coords,
        metric=_parse_matrix(metric, coords),
        complex_structure=_parse_matrix(_canonical_j_entries(4), coords),
        domain_hint=[(-1.0, 1.0), (-1.0, 1.0), (-lim, lim), (-lim, lim)],
        expected={"scalar": 0.0, "kahler": True, "conformally_flat": True})


def _fubini_study(m=2):
    m = int(m)
    if m < 1:
        raise ValueError("complex dimension m must be >= 1")
    dim = 2 * m
    coords = [f"{axis}{k + 1}" for k in range(m) for axis in "xy"]
    D = "(1 + " + " + ".join(f"x{k + 1}^2 + y{k + 1}^2" for k in range(m)) + ")"

    def a(i, j):
        diag = f"{D}" if i == j else "0"
        return f"({diag} - (x{i + 1}*x{j + 1} + y{i + 1}*y{j + 1}))/{D}^2"

    def b(i, j):
        return f"(y{i + 1}*x{j + 1} - x{i + 1}*y{j + 1})/{D}^2"

    entries = [["0"] * dim for _ in range(dim)]
    for i in range(m):
        for j in range(m):
            entries[2 * i][2 * j] = a(i, j)          # x_i, x_j
            entries[2 * i + 1][2 * j + 1] = a(i, j)  # y_i, y_j
            entries[2 * i][2 * j + 1] = b(i, j)      # x_i, y_j
            entries[2 * i + 1][2 * j] = b(j, i)      # y_i, x_j
    return ManifoldChart(
        name=f"fubini_study_m{m}", coordinates=coords,
        metric=_parse_matrix(entries, coords),
        complex_structure=_parse_matrix(_canonical_j_entries(dim), coords),
        domain_hint=[(-1.0, 1.0)] * dim,
        expected={"hsc": 4.0, "kahler": True, "conformally_flat": m == 1,
                  "antiholomorphic_sectional": 1.0, "constant_type": 0.0})


def _s6_nearly_kahler(r=1.0):
    r = float(r)
    if r <= 0:
        raise ValueError("need radius r > 0")
    coords = [f"u{k + 1}" for k in range(6)]
    rho2 = _rho2(coords)
    den = f"({r * r!r} + {rho2})"
    f = f"{4 * r ** 4!r}/{den}^2"
    metric = [[f if i == j else "0" for j in range(6)] for i in range(6)]
    map_exprs = [f"{2 * r * r!r}*{c}/{den}" for c in coords]
    map_exprs.append(f"{r!r}*(({rho2}) - {r * r!r})/{den}")
    embedding = Embedding(
        ambient_dim=7,
        map_exprs=[ex.parse(s, coords) for s in map_exprs],
        j_rule="octonion_cross", radius=r)
    chart = ManifoldChart(
        name="s6_nearly_kahler", coordinates=coords,
        metric=_parse_matrix(metric, coords),
        domain_hint=[(-1.0, 1.0)] * 6,
        embedding=embedding,
        expected={"sectional": 1.0 / r ** 2, "nk": True, "kahler": False,
                  "constant_type": 1.0 / r ** 2, "conformally_flat": True})
    chart.complex_structure_fn = embedding_j_fn(coords, embedding)
    return chart


def product_chart(chart_a, chart_b, name=None):
    """Riemannian (and, when both factors carry J, Hermitian) product chart.

    Coordinates are renamed with factor prefixes to stay distinct.
    """
    coords = [f"a_{c}" for c in chart_a.coordinates] + \
             [f"b_{c}" for c in chart_b.coordinates]
    na, nb = chart_a.dim, chart_b.dim

    def lift(exprs, prefix, old_coords):
        mapping = {c: ex.Sym(f"{prefix}_{c}") for c in old_coords}
        return [[ex.substitute(e, mapping) for e in row] for row in exprs]

    def block_diag(rows_a, rows_b):
        zero = ex.Const(0.0)
        return ([row + [zero] * nb for row in lift(rows_a, "a", chart_a.coordinates)]
                + [[zero] * na + row for row in lift(rows_b, "b", chart_b.coordinates)])

    metric = block_diag(chart_a.metric, chart_b.metric)
    jmat = None
    if chart_a.complex_structure is not None and chart_b.complex_structure is not None:
        jmat = block_diag(chart_a.complex_structure, chart_b.complex_structure)

    hint = None
    if chart_a.domain_hint and chart_b.domain_hint:
        hint = list(chart_a.domain_hint) + list(chart_b.domain_hint)
    return ManifoldChart(
        name=name or f"{chart_a.name}_x_{chart_b.name}",
        coordinates=coords, metric=metric, complex_structure=jmat,
        domain_hint=hint)


_BUILDERS = {
    "flat_kahler": (_flat_kahler, {"m": 2},
                    "Flat chart on C^m with the canonical complex structure"),
    "round_sphere": (_round_sphere, {"n": 4, "r": 1.0},
                     "Round n-sphere of radius r, stereographic chart"),
    "hyperbolic": (_hyperbolic, {"n": 2, "K": 1.0},
                   "Poincare ball of curvature -K"),
    "product_K": (_product_K, {"K": 1.0},
                  "Product of 2-dim space forms of curvature K and -K"),
    "fubini_study": (_fubini_study, {"m": 2},
                     "Complex projective space, potential-normalized (HSC 4)"),
    "s6_nearly_kahler": (_s6_nearly_kahler, {"r": 1.0},
                         "Round 6-sphere with the cross-product almost complex structure"),
}


def list_models():
    """Stable-order descriptors of the built-in models."""
    return [ModelDescriptor(name=name, description=desc, defaults=dict(defaults))
            for name, (_, defaults, desc) in _BUILDERS.items()]


def instantiate(name, **params):
    if name not in _BUILDERS:
        raise UnknownModelError(name)
    builder, defaults, _ = _BUILDERS[name]
    args = dict(defaults)
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(f"unknown parameters for {name}: {sorted(unknown)}")
    for key, value in params.items():
        if isinstance(defaults[key], int) and not float(value).is_integer():
            raise ValueError(f"{key} must be an integer, got {value!r}")
    args.update(params)
    return builder(**args)
