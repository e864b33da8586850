#!/usr/bin/env python3
"""hermgeo benchmark: one workload per process, driving ``hermgeo.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is one closed-loop client: the next CLI command starts when the
previous report is back.  The seed makes the workload's list of distinct
commands (points and CLI seeds); hermgeo only sees the argv and the manifold
files written by the benchmark.

--trace 0  Time set-up in fresh processes, then run the command list in
           passes until --seconds is up (at least two passes).  Every repeat
           of a command must print a report byte-identical to its first one.
           Prints the end-to-end metrics.  Times are normalised by the
           calibration kernel timed around each command (calibrate.py).
--trace 1  Run the command list once untraced, then once with the tracing
           wrappers installed, then restore them.  Traced reports must equal
           the untraced ones.  Prints the per-layer metrics, which repeat
           exactly for a seed; spans go to perfbench/out/.

Every report is parsed strictly (no NaN/Infinity) and checked against
hand-written reference values.  The last stdout line is the result JSON.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
NPROC = len(os.sched_getaffinity(0))
# One OpenBLAS thread (set before numpy loads): on a 2-core machine two threads
# made certificate-m4 twice as slow and its timings far more spread.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

sys.path.insert(0, HERE)
import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3     # fresh processes timed per run for setup_s
KERNEL_EVERY_S = 0.5     # command seconds per calibration kernel pass
SETUP_KERNEL_PASSES = 5  # kernel passes timed before and after each probe
MIN_PASSES = 2       # passes over the command list, even past --seconds

END_TO_END = [
    ("setup_s", "s"),
    ("cmd_s.p50", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "fraction"),
    ("ref_margin_digits", "digits"),
]


def import_cli():
    """hermgeo.cli from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "hermgeo", "__init__.py")):
        raise SystemExit(f"error: hermgeo sources not found in {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from hermgeo import cli
    return cli


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite number {token}")
    return json.loads(text, parse_constant=reject)


class Run:
    """Commands of one benchmark process and their outcomes."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.ref_err = 0.0      # max |reported - expected| / tol
        self.ref_checks = 0     # numeric reference checks made
        self.failures = []
        self.kernel = calibrate.Kernel()
        self.last_kernel = None  # seconds of the latest kernel timing
        self.wall = []          # wall seconds of every timed command

    def call(self, argv):
        """(exit code or None, stdout, stderr, seconds) of one in-process
        command, timed from cli.main entry to the report text returned."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:
                code = None
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - start
        return code, out.getvalue(), err.getvalue(), seconds

    def timed(self, command, expect=None):
        """Run and count one command: (report text, seconds, parsed report).
        The seconds are wall seconds scaled by the calibration kernel timed
        just before and just after the command.

        It fails if it exits non-zero, prints invalid JSON, fails a reference
        check, or (given ``expect``) prints other text than ``expect``."""
        before = self.last_kernel or self.kernel.seconds()
        code, text, err, wall = self.call(command.argv)
        # about one kernel pass per half second of command, so a long
        # command's scale is not left to one noisy 10 ms pass
        self.last_kernel = self.kernel.seconds(1 + int(wall / KERNEL_EVERY_S))
        self.wall.append(wall)
        seconds = wall * self.kernel.scale(before, self.last_kernel)
        self.attempted += 1
        report = reason = None
        if code != 0:
            reason = f"exit code {code}: {err.strip()}"
        elif expect is not None and text != expect:
            reason = "report differs from the first run of this command"
        else:
            try:
                report = strict_json(text)
                reason = self._check(report, command.check)
            except ValueError as exc:
                reason = f"invalid JSON report: {exc}"
        if reason:
            self.failed += 1
            self.failures.append(f"{command.argv}: {reason}")
            report = None
        return text, seconds, report

    def _check(self, report, check):
        try:
            results = check(report)
        except (KeyError, TypeError, IndexError) as exc:
            return f"report lacks {exc!r}"
        bad = []
        for name, value in results:
            if isinstance(value, bool):
                if not value:
                    bad.append(name)
            else:
                if not value <= 1.0:          # NaN fails too
                    bad.append(f"{name} (error {value:.3g} x tol)")
                if math.isfinite(value):
                    self.ref_err = max(self.ref_err, value)
                self.ref_checks += 1
        return f"reference check failed: {', '.join(bad)}" if bad else None


def setup(workload, seed, workdir):
    """Imports, the workload's manifold files and one untimed warm-up command
    (it pays one-off lazy set-up such as first LAPACK calls).  Returns the
    Run and the seeded command list."""
    run = Run(import_cli())
    paths = workload.files(workdir)
    run.timed(workloads.Command(workload.warmup(paths), 0, lambda report: []))
    commands = [workloads.command_for(workload, seed, i, paths)
                for i in range(workload.commands)]
    return run, commands


def probe_setup(args):
    """Child process of measure_setup: set up, then say so on stdout."""
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        run, _ = setup(workloads.WORKLOADS[args.workload], args.seed, workdir)
        print("failed" if run.failed else "ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(args):
    """Seconds from starting a fresh process to ready, one sample per probe:
    (normalised by the calibration kernel timed around it, wall)."""
    kernel = calibrate.Kernel()
    before = kernel.seconds(SETUP_KERNEL_PASSES)
    samples, wall = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--probe-setup"],
            stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline().strip()
            wall.append(time.perf_counter() - start)
        finally:
            child.stdout.close()
            code = child.wait()
        if line != "ready" or code != 0:
            raise SystemExit(f"error: set-up probe failed ({line!r}, exit {code})")
        after = kernel.seconds(SETUP_KERNEL_PASSES)
        samples.append(wall[-1] * kernel.scale(before, after))
        before = after
    return samples, wall


def untraced(args, workload):
    setup_samples, setup_wall = measure_setup(args)
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        run, commands = setup(workload, args.seed, workdir)
        first = [None] * len(commands)
        passes = []             # seconds of each command, one list per pass
        end = time.perf_counter() + args.seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < end:
            passes.append([])
            for i, command in enumerate(commands):
                text, seconds, _ = run.timed(command, expect=first[i])
                first[i] = text if first[i] is None else first[i]
                passes[-1].append(seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    seconds = [s for one_pass in passes for s in one_pass]
    items = len(passes) * sum(c.points or 1 for c in commands)
    values = {
        "setup_s": statistics.median(setup_samples),
        "cmd_s.p50": statistics.median(seconds),
        "items_per_s": items / sum(seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_frac": (run.attempted - run.failed) / run.attempted,
        "ref_margin_digits": ref_margin_digits(run.ref_err),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    samples = {"setup_s": len(setup_samples), "cmd_s.p50": len(seconds),
               "items_per_s": len(seconds), "peak_rss_mb": 1,
               "ops_ok_frac": run.attempted, "ref_margin_digits": run.ref_checks}
    return run, metrics, {
        "samples": samples, "setup_samples_s": setup_samples,
        "pass_seconds": passes, "ref_err.max": run.ref_err,
        "wall": {"setup_s": statistics.median(setup_wall),
                 "cmd_s.p50": statistics.median(run.wall[1:]),
                 "items_per_s": items / sum(run.wall[1:]),
                 "setup_samples_s": setup_wall}}


def ref_margin_digits(ref_err):
    """Decimal digits between the worst reference error and its tolerance:
    -log10(max |reported - expected| / tol).  The error is floored at one
    rounding unit of a value of size 1, so an exact result reads finite."""
    return -math.log10(max(ref_err, sys.float_info.epsilon / workloads.REF_TOL))


def traced(args, workload):
    tracer = tracing.Tracer()
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        run, commands = setup(workload, args.seed, workdir)
        plain = [run.timed(c) for c in commands]
        with_trace = []
        tracer.install()
        try:
            for i, (command, (text, _, _)) in enumerate(zip(commands, plain)):
                tracer.command = i
                with_trace.append(run.timed(command, expect=text))
        finally:
            tracer.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    overhead = (statistics.median(s for _, s, _ in with_trace)
                / statistics.median(s for _, s, _ in plain))
    rows = sum(report[part]["constraint_rows"] for _, _, report in plain
               if report and report["command"] == "verify-theorem"
               for part in ("theorem", "schouten"))
    metrics = tracer.metrics(sum(c.points for c in commands), rows, overhead)
    trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    tracer.write(trace_path)
    return run, metrics, {"spans": len(tracer.spans),
                          "trace_file": os.path.relpath(trace_path, os.getcwd())}


def environment(args, workload):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commands": workload.commands,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": NPROC, "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count numpy's OpenBLAS reports, else the one requested."""
    import ctypes
    import glob
    import numpy
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return BLAS_THREADS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_cli()
    os.makedirs(OUT, exist_ok=True)
    if args.probe_setup:
        return probe_setup(args)
    workload = workloads.WORKLOADS[args.workload]
    run, metrics, info = (traced if args.trace else untraced)(args, workload)
    for line in run.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"environment": environment(args, workload), **info}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
