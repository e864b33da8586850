"""Command-line driver.

Exit codes: 0 data-complete (classification failures are data, not errors),
2 usage or parse error, 3 mathematical domain error, 4 non-convergence,
5 certificate failed (the rank converged but a certificate missed its
tolerance; the report is still printed, the message names the failed one).
"""

import argparse
import functools
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
EXIT_NONCONVERGENCE = 4
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


def _analyze_report(chart, points, seed, tol, samples, require_weyl):
    if require_weyl and chart.dim < 4:
        raise cv.UnsupportedDimensionError(
            f"conformal curvature requested but dimension is {chart.dim}")
    sampler = fr.FrameSampler(seed, chart.dim)
    report = {
        "command": "analyze", "chart": chart.name, "dim": chart.dim,
        "seed": seed, "tolerance": tol, "samples": samples, "points": [],
    }
    pds = [cv.point_data(chart, point) for point in points]
    for pd in pds:
        entry = {"point": [float(v) for v in pd.point], "scalar_curvature": pd.scalar}
        if pd.weyl is not None:
            entry["weyl_norm"] = cv.relative_weyl_norm(pd)
        if pd.J is not None:
            hs, _, lam = cl.sample_invariants(pd, sampler, samples)
            entry["holomorphic_sectional"] = {"mean": float(np.mean(hs)),
                                              "std": float(np.std(hs))}
            entry["constant_type"] = None if lam is None else {
                "mean": float(np.mean(lam)), "std": float(np.std(lam))}
        report["points"].append(entry)
    if chart.has_j():
        classification = cl.classify_chart(chart, pds, seed=seed,
                                           samples=samples, tolerance=tol)
        report["checks"] = classification["checks"]
        report["constancy"] = classification["constancy"]
        report["identity_residuals"] = ax.proof_identity_residuals(
            pds[0].riemann, pds[0].g, pds[0].J, fr.FrameSampler(seed, chart.dim),
            frames=samples)
    return report


def cmd_analyze(args):
    chart, _ = reportio.load_manifold_file(args.file)
    points = _parse_points(chart.dim, args.point, chart.domain_hint)
    report = _analyze_report(chart, points, args.seed, args.tol, args.samples,
                             require_weyl=args.weyl)
    sys.stdout.write(reportio.dump_report(report))
    return EXIT_OK


def cmd_classify(args):
    chart, _ = reportio.load_manifold_file(args.file)
    if not chart.has_j():
        raise UsageError(f"chart {chart.name!r} has no almost complex structure to classify")
    pds = [cv.point_data(chart, point)
           for point in _parse_points(chart.dim, args.point, chart.domain_hint)]
    report = cl.classify_chart(chart, pds, seed=args.seed,
                               samples=args.samples, tolerance=args.tol)
    report = {"command": "classify", **report, "seed": args.seed, "tolerance": args.tol}
    sys.stdout.write(reportio.dump_report(report))
    return EXIT_OK


def cmd_submanifold(args):
    chart, immersion = reportio.load_manifold_file(args.file)
    if immersion is None:
        raise UsageError(f"manifold file {args.file} has no immersion block")
    points = _parse_points(immersion.k, args.point, None)
    report = {"command": "submanifold", "chart": chart.name,
              "sub_dim": immersion.k, "tolerance": args.tol, "points": []}
    for u in points:
        data = im.second_fundamental_form(immersion, u)
        dh_max = float(np.max(np.abs(im.normal_connection_DH(data))))
        r21, r22 = im.codazzi_residuals(data)
        H = data.mean_curvature
        h_norm = float(np.sqrt(max(H @ data.ambient_metric @ H, 0.0)))
        alpha_max = float(np.max(np.abs(data.alpha)))
        geodesic = alpha_max <= args.tol * max(1.0, float(np.max(np.abs(data.induced))))
        entry = {
            "point": [float(v) for v in u],
            "alpha_max": alpha_max,
            "mean_curvature_norm": h_norm,
            "umbilicity_residual": data.umbilicity,
            "dh_residual": dh_max,
            "codazzi_2_1_residual": r21,
            "codazzi_2_2_residual": r22,
            "totally_geodesic": geodesic,
            "totally_umbilical": geodesic or data.umbilicity <= args.tol,
            "parallel_mean_curvature": dh_max <= args.dh_tol,
        }
        report["points"].append(entry)
    sys.stdout.write(reportio.dump_report(report))
    return EXIT_OK


def cmd_verify_theorem(args):
    if not 2 <= args.m <= 6:
        raise UsageError("--m must be between 2 and 6")
    n = 2 * args.m
    theorem = ax.theorem_nullspace_verify(
        args.m, fr.FrameSampler(args.seed, n), tolerance=args.tol,
        samples=args.frames)
    schouten = ax.schouten_nullspace_verify(
        n, fr.FrameSampler(args.seed, n), tolerance=args.tol)
    containment = ax.containment_residual(theorem, schouten)
    report = {
        "command": "verify-theorem", "m": args.m, "dimension": n,
        "seed": args.seed, "tolerance": args.tol,
        "theorem": _strip_arrays(theorem),
        "schouten": _strip_arrays(schouten),
        "containment_residual": containment,
    }
    sys.stdout.write(reportio.dump_report(report))
    failed = ", ".join(name for name in ("theorem", "schouten") if not report[name]["pass"])
    if failed:
        print(f"error: certificate failed: {failed}", file=sys.stderr)
    return EXIT_CERTIFICATE_FAILED if failed else EXIT_OK


def _strip_arrays(report):
    return {k: v for k, v in report.items() if k != "nullspace"}


def cmd_models_list(args):
    report = {"command": "models list", "models": [
        {"name": d.name, "description": d.description, "defaults": d.defaults}
        for d in models.list_models()]}
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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
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
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=32)

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
    p.add_argument("--dh-tol", type=float, default=1e-6)
    p.set_defaults(fn=cmd_submanifold)

    p = sub.add_parser("verify-theorem",
                       help="null-space certificate of the conformal-flatness theorem")
    p.add_argument("--m", type=int, required=True, help="complex dimension (2..6)")
    p.add_argument("--frames", type=int, default=64)
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
    for name, least in (("samples", 1), ("frames", 1), ("seed", 0)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise UsageError(f"--{name} must be at least {least}, got {value}")


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
    except (UsageError, reportio.ManifoldFileError, ex.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ex.DomainError, ex.MissingBindingError, cv.SingularMetricError,
            cv.UnsupportedDimensionError, cv.DegeneratePlaneError,
            cl.MissingStructureError, fr.RankDeficiencyError,
            fr.IncompatibleStructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ax.RankStabilizationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
