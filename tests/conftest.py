import sys

import numpy as np
import pytest

from hermgeo import curvature as cv
from hermgeo import expressions as ex
from hermgeo import frames as fr


def chart_from_strings(name, coords, entries, j_entries=None, hint=None):
    metric = [[ex.parse(entries[i][j], coords) for j in range(len(coords))]
              for i in range(len(coords))]
    jmat = None
    if j_entries is not None:
        jmat = [[ex.parse(j_entries[i][j], coords) for j in range(len(coords))]
                for i in range(len(coords))]
    return cv.ManifoldChart(name=name, coordinates=coords, metric=metric,
                            complex_structure=jmat, domain_hint=hint)


def flat_chart(n, name=None):
    coords = [f"x{i + 1}" for i in range(n)]
    entries = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    return chart_from_strings(name or f"flat{n}", coords, entries)


def two_sphere_polar():
    return chart_from_strings("s2_polar", ["t", "p"], [["1", "0"], ["0", "sin(t)^2"]])


def random_polynomial_metric(rng, dim, scale=0.08):
    """Symmetric perturbation of the flat metric, SPD near the origin."""
    coords = [f"x{i + 1}" for i in range(dim)]
    entries = [["0"] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            terms = []
            for _ in range(3):
                c = rng.uniform(-scale, scale)
                a, b = rng.integers(0, dim, size=2)
                terms.append(f"{c!r}*{coords[a]}*{coords[b]}")
            poly = " + ".join(terms)
            if i == j:
                entries[i][j] = f"1 + {poly}"
            else:
                entries[i][j] = poly
                entries[j][i] = poly
    return chart_from_strings("random_poly", coords, entries)


def random_low_degree_poly(rng, coords, scale=0.1):
    terms = [f"{rng.uniform(-scale, scale)!r}*{c}" for c in coords]
    a, b = rng.integers(0, len(coords), size=2)
    terms.append(f"{rng.uniform(-scale, scale)!r}*{coords[a]}*{coords[b]}")
    return ex.parse(" + ".join(terms), coords)


def conformal_rescale(chart, phi):
    """Chart with metric e^(2 phi) g."""
    factor = ex.call("exp", ex.mul(ex.Const(2.0), phi))
    metric = [[ex.mul(factor, e) for e in row] for row in chart.metric]
    return cv.ManifoldChart(name=chart.name + "_conformal",
                            coordinates=list(chart.coordinates), metric=metric)


def unitary_frames(n, count, rng):
    """``count`` random frames (X, Y[, Z[, U]]) for g = I and J = canonical_j(n),
    shape (min(n // 2, 4), count, n): the real forms of the first columns of
    random unitary matrices, so each frame is admissible."""
    m, size = n // 2, min(n // 2, 4)
    q = np.linalg.qr(rng.normal(size=(count, m, m)) + 1j * rng.normal(size=(count, m, m)))[0]
    out = np.zeros((size, count, n))
    out[..., 0::2] = np.moveaxis(q.real[..., :size], -1, 0)
    out[..., 1::2] = np.moveaxis(q.imag[..., :size], -1, 0)
    return out


def constancy_entries(J, frame):
    """The entries of the constancy invariants on frames (X, Y, ...), as
    ``axioms._identities`` gives them: R(X,JX,JX,X), and with Y, R(X,Y,Y,X)
    and the constant-type combination R(X,Y,Y,X) - R(X,Y,JY,JX)."""
    X, JX = frame[0], frame[0] @ J.T
    out = [("holomorphic_sectional", (X, JX, JX, X))]
    if len(frame) >= 2:
        Y = frame[1]
        out += [("antiholomorphic_sectional", (X, Y, Y, X)),
                ("constant_type", (X, Y, Y, X), (X, Y, Y @ J.T, JX))]
    return out


def derived_entries(J, frame):
    """The entries of the derived identities on frames (X, Y[, Z[, U]]), as
    ``axioms._identities`` gives the direct ones: (3.4), R(X,Y,Y,JX) =
    R(X,JY,JY,JX), and on frames of four vectors (3.8), R(X,Y,Z,U) = 0."""
    X, Y = frame[0], frame[1]
    JX, JY = X @ J.T, Y @ J.T
    out = [("3.4", (X, Y, Y, JX), (X, JY, JY, JX))]
    if len(frame) >= 4:
        out.append(("3.8", (X, Y, frame[2], frame[3])))
    return out


def chart_frames(g, J, sampler, count, size=2):
    """``count`` admissible frames (X, Y[, Z[, U]]) of a compatible pair (g, J),
    shape (size, count, n): the canonical pair's frames carried by the
    adapted frame of (g, J)."""
    return fr.admissible_frames(sampler, count, size) @ fr.adapted_frames(g, J).T


def with_headroom(frames, fn):
    """fn(), called from nesting deep enough that only ``frames`` frames are
    left below the recursion limit."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back

    def nest(k):
        return fn() if k == 0 else nest(k - 1)
    return nest(sys.getrecursionlimit() - frames - depth - 1)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
