"""Command-line driver.

Exit codes: 0 data-complete (classification failures are data, not errors),
2 usage, parse or asymmetric-metric error (a tolerance that is not a finite
number >= 0 among them) or an input too large to hold in memory, 3
mathematical domain error, 5 certificate failed (the report is still
printed, the message names the failed one).  Exit 4, once non-convergence
of a rank loop, is retired: no path reaches it.

Every flag of a chart command is ``residual <= --tol``, and ``submanifold``'s
``codazzi_2_2_residual`` is null exactly at the points not totally umbilical.
"""

import argparse
import functools
import math
import sys

import numpy as np

from . import axioms as ax
from . import classify as cl
from . import curvature as cv
from . import expressions as ex
from . import frames as fr
from . import immersions as im
from . import models
from . import reportio

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_CERTIFICATE_FAILED = 5


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one ``error:`` line (subparsers too), no usage text
        raise UsageError(f"{self.prog}: {message}")


def _parse_points(chart_dim, point_args, hint):
    if not point_args:
        return [reportio.default_point(chart_dim, hint)]
    points = []
    for text in point_args:
        parts = text.split(",")
        if len(parts) != chart_dim:
            raise UsageError(f"--point needs {chart_dim} comma-separated values, got {text!r}")
        try:
            point = np.array([float(p) for p in parts])
        except ValueError as exc:
            raise UsageError(f"bad point {text!r}: {exc}") from exc
        if not np.all(np.isfinite(point)):
            raise UsageError(f"--point values must be finite, got {text!r}")
        points.append(point)
    return points


def _analyze_report(chart, points, tol, require_weyl):
    if require_weyl and chart.dim < 4:
        raise cv.UnsupportedDimensionError(
            f"conformal curvature requested but dimension is {chart.dim}")
    report = {"command": "analyze", "chart": chart.name, "dim": chart.dim,
              "tolerance": tol, "points": []}
    pd = cv.point_data(chart, points)
    per_point = {}
    if chart.has_j():
        classification, per_point, bounds = cl.classify_chart(chart, pd, tol)
        report.update(checks=classification["checks"], constancy=classification["constancy"])
        report["identity_residuals"] = ax.proof_identity_residuals(bounds)
    weyl_norms = cv.relative_weyl_norm(pd) if pd.weyl is not None else None
    for i, point in enumerate(pd.point):
        entry = {"point": point.tolist(), "scalar_curvature": float(pd.scalar[i])}
        if weyl_norms is not None:
            entry["weyl_norm"] = float(weyl_norms[i])
        for key in ("holomorphic_sectional", "constant_type") if per_point else ():
            stat = per_point[key][i]  # this point's constancy (mean, bound)
            entry[key] = None if stat is None else dict(zip(("mean", "bound"), stat))
        report["points"].append(entry)
    return report


def cmd_analyze(args):
    chart, _ = reportio.load_manifold_file(args.file)
    points = _parse_points(chart.dim, args.point, chart.domain_hint)
    report = _analyze_report(chart, points, args.tol, require_weyl=args.weyl)
    sys.stdout.write(reportio.dump_report(report))
    return EXIT_OK


def cmd_classify(args):
    chart, _ = reportio.load_manifold_file(args.file)
    if not chart.has_j():
        raise UsageError(f"chart {chart.name!r} has no almost complex structure to classify")
    pd = cv.point_data(chart, _parse_points(chart.dim, args.point, chart.domain_hint))
    report, _, _ = cl.classify_chart(chart, pd, tolerance=args.tol)
    report = {"command": "classify", **report, "tolerance": args.tol}
    sys.stdout.write(reportio.dump_report(report))
    return EXIT_OK


def cmd_submanifold(args):
    chart, immersion = reportio.load_manifold_file(args.file)
    if immersion is None:
        raise UsageError(f"manifold file {args.file} has no immersion block")
    points = np.array(_parse_points(immersion.k, args.point, None))
    report = {"command": "submanifold", "chart": chart.name,
              "sub_dim": immersion.k, "tolerance": args.tol, "points": []}
    data = im.second_fundamental_form(immersion, points)
    dh = im.normal_connection_DH(data)
    r21, r22 = im.codazzi_residuals(data)
    for i, u in enumerate(points):
        dh_max = float(np.max(np.abs(dh[i])))
        alpha_max = float(np.max(np.abs(data.alpha[i])))
        geodesic = alpha_max <= args.tol * max(1.0, float(np.max(np.abs(data.induced[i]))))
        umbilicity = float(data.umbilicity[i])
        umbilical = geodesic or umbilicity <= args.tol
        report["points"].append({
            "point": [float(v) for v in u],
            "alpha_max": alpha_max,
            "mean_curvature_norm": float(data.mean_curvature_norm[i]),
            "umbilicity_residual": umbilicity,
            "dh_residual": dh_max,
            "codazzi_2_1_residual": float(r21[i]),
            "codazzi_2_2_residual": float(r22[i]) if umbilical else None,
            "totally_geodesic": geodesic,
            "totally_umbilical": umbilical,
            "parallel_mean_curvature": dh_max <= args.tol,
        })
    sys.stdout.write(reportio.dump_report(report))
    return EXIT_OK


def cmd_verify_theorem(args):
    if not 2 <= args.m <= 6:
        raise UsageError("--m must be between 2 and 6")
    n = 2 * args.m
    theorem = ax.theorem_nullspace_verify(args.m, fr.FrameSampler(args.seed, n), args.tol)
    schouten = ax.schouten_nullspace_verify(
        n, fr.FrameSampler(args.seed, n), tolerance=args.tol)
    report = {
        "command": "verify-theorem", "m": args.m, "dimension": n,
        "seed": args.seed, "tolerance": args.tol,
        "theorem": theorem, "schouten": schouten,
    }
    sys.stdout.write(reportio.dump_report(report))
    failed = ", ".join(name for name in ("theorem", "schouten") if not report[name]["pass"])
    if failed:
        print(f"error: certificate failed: {failed}", file=sys.stderr)
    return EXIT_CERTIFICATE_FAILED if failed else EXIT_OK


def cmd_models_list(args):
    report = {"command": "models list", "models": models.list_models()}
    sys.stdout.write(reportio.dump_report(report))
    return EXIT_OK


def cmd_models_emit(args):
    params = {}
    try:
        for item in args.param:
            if "=" not in item:
                raise UsageError(f"--param needs key=value, got {item!r}")
            key, value = item.split("=", 1)
            params[key] = float(value)
        chart = models.instantiate(args.name, **params)
    except models.UnknownModelError:
        raise UsageError(f"unknown model {args.name!r}") from None
    except ValueError as exc:  # a non-numeric or out-of-range parameter
        raise UsageError(f"--param: {exc}") from None
    text = reportio.dump_report(reportio.chart_to_dict(chart))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(text)
    return EXIT_OK


@functools.cache  # built once per process: parse_args leaves it unchanged
def build_parser():
    parser = _Parser(
        prog="hermgeo",
        description="Curvature invariants and conformal-flatness checks for "
                    "almost Hermitian coordinate charts")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=1e-8)
        unused = "accepted for compatibility; chart verdicts are exact and do not use it"
        p.add_argument("--seed", type=int, default=0, help=unused)

    p = sub.add_parser("analyze", help="curvature invariants of a chart")
    p.add_argument("file")
    p.add_argument("--point", action="append", default=[],
                   metavar="V1,V2,...", help="evaluation point (repeatable)")
    p.add_argument("--weyl", action="store_true",
                   help="fail if the conformal tensor is unavailable (dim < 4)")
    common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("classify", help="classification flags of a chart")
    p.add_argument("file")
    p.add_argument("--point", action="append", default=[], metavar="V1,V2,...")
    common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("submanifold", help="second-fundamental-form report")
    p.add_argument("file")
    p.add_argument("--point", action="append", default=[], metavar="U1,U2,...")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(fn=cmd_submanifold)

    p = sub.add_parser("verify-theorem",
                       help="null-space certificate of the conformal-flatness theorem")
    p.add_argument("--m", type=int, required=True, help="complex dimension (2..6)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(fn=cmd_verify_theorem)

    p = sub.add_parser("models", help="built-in model charts")
    msub = p.add_subparsers(dest="models_command", required=True)
    q = msub.add_parser("list")
    q.set_defaults(fn=cmd_models_list)
    q = msub.add_parser("emit")
    q.add_argument("name")
    q.add_argument("--out", default=None)
    q.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    q.set_defaults(fn=cmd_models_emit)
    return parser


def _join_point_values(argv):
    """Rewrite each ``--point VALUE`` as ``--point=VALUE``: argparse would read
    the leading '-' of a negative coordinate as an option."""
    out = []
    args = iter(argv)
    for arg in args:
        value = next(args, None) if arg == "--point" else None
        out.append(arg if value is None else f"--point={value}")
    return out


def _check_counts(args):
    for name, least in (("seed", 0), ("tol", 0)):
        value = getattr(args, name, None)
        if value is not None and not least <= value < math.inf:  # nan fails too
            raise UsageError(f"--{name} must be a finite number of at least "
                             f"{least}, got {value}")


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_join_point_values(argv))
        _check_counts(args)
        with np.errstate(all="ignore"):  # a non-finite value exits 3, not a warning
            return args.fn(args)
    except SystemExit as exc:  # --help
        return EXIT_USAGE if exc.code not in (0, None) else 0
    except (UsageError, reportio.ManifoldFileError, cv.AsymmetricMetricError,
            MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except (ex.DomainError, ex.MissingBindingError, cv.SingularMetricError,
            cv.UnsupportedDimensionError, cv.DegeneratePlaneError,
            cl.MissingStructureError, fr.RankDeficiencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
