"""The benchmark's workloads: input charts, seeded commands, reference checks.

Every chart is written out here by hand instead of being emitted by
``hermgeo.models``, so the inputs stay fixed when the model code changes.
Every expected value is also written here by hand (classical geometry), never
read from ``models.*.expected`` or from a report produced by hermgeo itself.

Points go to the CLI as ``--point=v1,...``.  The space-separated form
``--point -0.1,...`` exits 2 because argparse reads the leading ``-`` of a
negative coordinate as an option; that is a known CLI defect, not worked
around by changing the points.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

# Reference checks compare |reported - expected| against this tolerance; it is
# the CLI's own default --tol.
REF_TOL = 1e-8


@dataclass
class Command:
    argv: list          # CLI arguments after the program name
    points: int         # chart points reported; 0 for a certificate
    check: object       # report dict -> list of (name, error ratio or bool)


@dataclass(frozen=True)
class Workload:
    name: str
    files: object       # workdir -> {label: path}, writes the manifold files
    command: object     # (rng, paths) -> Command
    warmup: object      # paths -> argv of the untimed warm-up command
    commands: int       # distinct commands; one pass of them takes 3-5 s


def _rng(seed, index):
    """Generator for command ``index`` of a run: independent of the others,
    so command i's inputs do not depend on how many commands ran before."""
    return np.random.default_rng(np.random.SeedSequence([seed % (1 << 63), index]))


def command_for(workload, seed, index, paths):
    return workload.command(_rng(seed, index), paths)


def _point_arg(values):
    # repr round-trips a float exactly, so the CLI sees the generated point
    return "--point=" + ",".join(repr(float(v)) for v in values)


def _cli_seed(rng):
    return str(int(rng.integers(0, 2 ** 31)))


def _write(workdir, name, doc):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _rho2(coords):
    return " + ".join(f"{c}^2" for c in coords)


# ---------------------------------------------------------------------------
# reference checks

def _near(name, reported, expected):
    return name, abs(float(reported) - expected) / REF_TOL


def _small(name, reported):
    return name, abs(float(reported)) / REF_TOL


def _flag(name, value, expected):
    return name, value is expected


def _check_by_name(records):
    return {r["name"]: r for r in records}


def _hermitian_checks(report, hsc, anti, lam, flags):
    const = _check_by_name(report["constancy"])
    checks = _check_by_name(report["checks"])
    out = [
        _near("holomorphic_sectional", const["holomorphic_sectional"]["constant"], hsc),
        _near("antiholomorphic_sectional",
              const["antiholomorphic_sectional"]["constant"], anti),
        _near("constant_type", const["constant_type"]["constant"], lam),
    ]
    out += [_flag(name, checks[name]["pass"], want) for name, want in flags]
    return out


# ---------------------------------------------------------------------------
# chart-cp3: analyze on CP^3 (Fubini-Study, potential-normalized: HSC 4)

def _cp3_files(workdir):
    m = 3
    coords = [f"{a}{k + 1}" for k in range(m) for a in "xy"]
    D = "(1 + " + " + ".join(f"x{k + 1}^2 + y{k + 1}^2" for k in range(m)) + ")"

    def a(i, j):
        diag = D if i == j else "0"
        return f"({diag} - (x{i + 1}*x{j + 1} + y{i + 1}*y{j + 1}))/{D}^2"

    def b(i, j):
        return f"(y{i + 1}*x{j + 1} - x{i + 1}*y{j + 1})/{D}^2"

    n = 2 * m
    metric = [["0"] * n for _ in range(n)]
    J = [["0"] * n for _ in range(n)]
    for i in range(m):
        J[2 * i + 1][2 * i], J[2 * i][2 * i + 1] = "1", "-1"
        for j in range(m):
            metric[2 * i][2 * j] = metric[2 * i + 1][2 * j + 1] = a(i, j)
            metric[2 * i][2 * j + 1] = b(i, j)
            metric[2 * i + 1][2 * j] = b(j, i)
    doc = {"name": "cp3", "dim": n, "coordinates": coords, "metric": metric,
           "complex_structure": J, "domain_hint": [[-1, 1]] * n}
    return {"chart": _write(workdir, "cp3.json", doc)}


# A Kahler manifold has R(X,Y,JZ,JW) = R(X,Y,Z,W), so the constant-type
# combination R(X,Y,Y,X) - R(X,Y,JY,JX) vanishes: CP^3 has constant type 0.
def _cp3_check(report):
    out = _hermitian_checks(report, hsc=4.0, anti=1.0, lam=0.0,
                            flags=[("kahler", True)])
    for p in report["points"]:
        out.append(_near("point.holomorphic_sectional",
                         p["holomorphic_sectional"]["mean"], 4.0))
        out.append(_near("point.constant_type", p["constant_type"]["mean"], 0.0))
    return out


def _cp3_command(rng, paths):
    point = rng.uniform(-0.5, 0.5, size=6)
    argv = ["analyze", paths["chart"], _point_arg(point), "--seed", _cli_seed(rng)]
    return Command(argv, 1, _cp3_check)


# ---------------------------------------------------------------------------
# chart-s6: classify on S^6 with the octonion cross-product J (nearly Kahler)

def _s6_files(workdir):
    coords = [f"u{k + 1}" for k in range(6)]
    den = f"(1 + {_rho2(coords)})"
    metric = [[f"4/{den}^2" if i == j else "0" for j in range(6)] for i in range(6)]
    emb = [f"2*{c}/{den}" for c in coords] + [f"(({_rho2(coords)}) - 1)/{den}"]
    doc = {"name": "s6", "dim": 6, "coordinates": coords, "metric": metric,
           "domain_hint": [[-1, 1]] * 6,
           "embedding": {"ambient_dim": 7, "map": emb,
                         "j_rule": "octonion_cross", "radius": 1.0}}
    return {"chart": _write(workdir, "s6.json", doc)}


def _s6_check(report):
    return _hermitian_checks(report, hsc=1.0, anti=1.0, lam=1.0,
                             flags=[("nearly_kahler", True), ("kahler", False)])


def _s6_command(rng, paths):
    points = rng.uniform(-0.5, 0.5, size=(4, 6))
    argv = (["classify", paths["chart"]] + [_point_arg(p) for p in points]
            + ["--seed", _cli_seed(rng)])
    return Command(argv, len(points), _s6_check)


# ---------------------------------------------------------------------------
# submanifold-s4: geodesic 3-sphere |x| = 0.5 in the stereographic unit S^4

_SUB_RADIUS = 0.5
# polar angle of the sphere is 2*arctan(0.5); a geodesic sphere of polar
# angle t in the unit sphere is totally umbilical with |H| = cot t = 0.75
_SUB_MEAN_CURVATURE = 1.0 / math.tan(2.0 * math.atan(_SUB_RADIUS))


def _sub_files(workdir):
    coords = [f"x{k + 1}" for k in range(4)]
    metric = [[f"4/(1 + {_rho2(coords)})^2" if i == j else "0" for j in range(4)]
              for i in range(4)]
    r = repr(_SUB_RADIUS)
    doc = {"name": "s4", "dim": 4, "coordinates": coords, "metric": metric,
           "domain_hint": [[-1, 1]] * 4,
           "immersion": {"coordinates": ["a", "b", "c"], "map": [
               f"{r}*sin(a)*sin(b)*cos(c)", f"{r}*sin(a)*sin(b)*sin(c)",
               f"{r}*sin(a)*cos(b)", f"{r}*cos(a)"]}}
    return {"chart": _write(workdir, "s4_sphere.json", doc)}


def _sub_check(report):
    out = []
    for p in report["points"]:
        out.append(_near("mean_curvature_norm", p["mean_curvature_norm"],
                         _SUB_MEAN_CURVATURE))
        out.append(_flag("totally_umbilical", p["totally_umbilical"], True))
    return out


def _sub_command(rng, paths):
    # hyperspherical angles away from the coordinate singularities sin = 0
    points = np.column_stack([rng.uniform(0.4, math.pi - 0.4, size=2),
                              rng.uniform(0.4, math.pi - 0.4, size=2),
                              rng.uniform(-2.5, 2.5, size=2)])
    argv = ["submanifold", paths["chart"]] + [_point_arg(p) for p in points]
    return Command(argv, len(points), _sub_check)


# ---------------------------------------------------------------------------
# certificate-m4: verify-theorem --m 4 (real dimension 8)

_CERT_M = 4


def _cert_check(report):
    n = 2 * _CERT_M
    out = []
    for part in ("theorem", "schouten"):
        r = report[part]
        out.append(_flag(f"{part}.nullspace_dim", r["nullspace_dim"] == n * (n + 1) // 2, True))
        out.append(_flag(f"{part}.pass", r["pass"], True))
        out.append(_small(f"{part}.max_weyl", r["max_weyl"]))
    return out


def _cert_command(rng, paths):
    argv = ["verify-theorem", "--m", str(_CERT_M), "--seed", _cli_seed(rng)]
    return Command(argv, 0, _cert_check)


# ---------------------------------------------------------------------------

# Why each workload exists is in BENCHMARK.json and README.md.  The
# certificate warm-up is m=2: it pays the one-off LAPACK set-up without
# costing a whole m=4 command.
WORKLOADS = {w.name: w for w in [
    Workload(
        "chart-cp3", _cp3_files, _cp3_command,
        lambda paths: ["analyze", paths["chart"], "--seed", "0"], 6),
    Workload(
        "chart-s6", _s6_files, _s6_command,
        lambda paths: ["classify", paths["chart"], "--seed", "0"], 12),
    Workload(
        "submanifold-s4", _sub_files, _sub_command,
        lambda paths: ["submanifold", paths["chart"], "--point=1,1,0.5"], 16),
    Workload(
        "certificate-m4", lambda workdir: {}, _cert_command,
        lambda paths: ["verify-theorem", "--m", "2"], 2),
]}
