#!/usr/bin/env python3
"""Write a BENCH file: the benchmark's end-to-end metrics plus one-shot CLI
timings, and print its diff against the newest earlier BENCH file.

    python3 scripts/bench_file.py BENCH_<n>.json

Every workload of BENCHMARK.json runs through ``perfbench/run.py --trace 0``
at each of SEEDS for the declared ``run_seconds``, one process at a time.
The file keeps each run's metrics and their median over the seeds.  One-shot
rows time fresh ``python -m hermgeo.cli`` processes on this checkout's
``src/``: a bare ``models list`` (start-up alone), ``analyze`` on CP^2 and
``classify`` on S^6 at the four S6_POINTS, one stack of points (each file is
written by a ``models emit`` process first), and ``verify-theorem`` at each of
CERTIFICATE_M.  Each row runs ONE_SHOT_RUNS processes and keeps the
median wall time, CPU time (user + system, from the child's rusage) and
peak RSS next to the per-run samples.  OpenBLAS is pinned to one thread, as
in the benchmark.  The one-shot rows run first, while this script is
small, since a forked child's peak RSS counts the parent's RSS at fork
time.  The environment records ``kernel_s``, the median of KERNEL_PASSES
passes of the benchmark's calibration kernel (``perfbench/calibrate.py``):
how fast the host ran while the file was written.

The earlier file is the BENCH_<k>.json next to the output with the largest
k below n.  A diff line ends in "changed" when the samples of the two files
(the runs over the seeds, or a one-shot row's processes) span disjoint
ranges, and in "overlap" otherwise.  When both files record ``kernel_s``,
the diff opens with it, so a change in host speed is told from a change in
the code.  Exits 1 if a run fails, reports an incorrect result or a one-shot
command exits non-zero; the file is not written then.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
ONE_SHOT_RUNS = 5
CERTIFICATE_M = (5, 6)
S6_POINTS = ("0.1,-0.2,0.3,0.05,-0.4,0.2", "-0.3,0.1,0.2,-0.1,0.25,0.4",
             "0.45,0.3,-0.15,0.2,0.1,-0.35", "-0.05,-0.4,0.1,0.35,-0.2,0.15")
KERNEL_PASSES = 21
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
       "PYTHONPATH": os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                   os.environ.get("PYTHONPATH")]))}


def run_once(root, workload, seed, seconds):
    """{metric: value} of one ``perfbench/run.py --trace 0`` process of the
    checkout at ``root``; with no PYTHONPATH, it imports hermgeo from its own
    ``src/``.  The child reads and writes no bytecode cache (an empty
    PYTHONPYCACHEPREFIX and PYTHONDONTWRITEBYTECODE), so every run compiles
    what it imports and a checkout's leftover ``__pycache__`` spares neither
    side of a pair.  Exits if the run fails or reports an incorrect result."""
    argv = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryDirectory() as cache:
        env = {**{k: v for k, v in ENV.items() if k != "PYTHONPATH"},
               "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": cache}
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(f"error: {root} {workload} seed {seed} failed:\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def bench_runs(benchmark):
    """{workload: {"runs": [{"seed", "metrics"}], "median": {metric: value}}}."""
    out = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = []
        for seed in SEEDS:
            print(f"running {workload} seed {seed}", file=sys.stderr, flush=True)
            runs.append({"seed": seed, "metrics": run_once(ROOT, workload, seed,
                                                           benchmark["run_seconds"])})
        out[workload] = {"runs": runs, "median": {
            name: statistics.median(run["metrics"][name] for run in runs)
            for name in runs[0]["metrics"]}}
    return out


def cli_process(*args):
    """(wall seconds, peak RSS in MB, CPU seconds) of one fresh hermgeo CLI
    process."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "hermgeo.cli", *args],
                            stdout=subprocess.DEVNULL, env=ENV)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"error: hermgeo {' '.join(args)} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


# one-shot metric -> the key of its per-process samples
SAMPLES = {"wall_s": "samples_s", "peak_rss_mb": "samples_rss_mb", "cpu_s": "samples_cpu_s"}


def sampled(*args):
    """Median wall time, peak RSS and CPU time of ONE_SHOT_RUNS processes,
    with the samples."""
    walls, rss, cpu = zip(*(cli_process(*args) for _ in range(ONE_SHOT_RUNS)))
    return {"wall_s": statistics.median(walls), "peak_rss_mb": statistics.median(rss),
            "cpu_s": statistics.median(cpu), "samples_s": list(walls),
            "samples_rss_mb": list(rss), "samples_cpu_s": list(cpu)}


def one_shot():
    """{row: {metric: value}} of the one-shot CLI rows."""
    with tempfile.TemporaryDirectory() as workdir:
        path, s6 = os.path.join(workdir, "cp2.json"), os.path.join(workdir, "s6.json")
        cli_process("models", "emit", "fubini_study", "--param", "m=2", "--out", path)
        cli_process("models", "emit", "s6_nearly_kahler", "--out", s6)
        rows = {"models list": sampled("models", "list"),
                "analyze fubini_study m=2": sampled("analyze", path),
                "classify s6_nearly_kahler 4 points": sampled(
                    "classify", s6, *(f"--point={p}" for p in S6_POINTS))}
    for m in CERTIFICATE_M:
        rows[f"verify-theorem --m {m}"] = sampled("verify-theorem", "--m", str(m))
    return rows


def kernel_s():
    """Median seconds of KERNEL_PASSES passes of the calibration kernel."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import calibrate
    return calibrate.Kernel().seconds(KERNEL_PASSES)


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": 1,
            "seeds": list(SEEDS), "kernel_s": kernel_s()}


def _number(path):
    match = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
    return int(match.group(1)) if match else None


def previous(path):
    """The newest BENCH file next to ``path`` numbered below it, or None."""
    folder, number = os.path.dirname(os.path.abspath(path)), _number(path)
    earlier = [(k, name) for name in os.listdir(folder)
               if (k := _number(name)) is not None and k < number]
    return os.path.join(folder, max(earlier)[1]) if earlier else None


def _change(a, b):
    return f"{a:.4g} -> {b:.4g}" + (f" ({(b - a) / a:+.1%})" if a else "")


def diff_lines(old, new):
    """One line per metric present in both files: old, new, change, and
    whether the two sample ranges are disjoint ("changed") or not ("overlap").
    The host's kernel_s comes first when both files record it."""
    kernels = [doc.get("environment", {}).get("kernel_s") for doc in (old, new)]
    host = [f"host kernel_s: {_change(*kernels)}"] if None not in kernels else []
    rows = [(f"{w} {name}", old["workloads"][w]["median"][name], value,
             [run["metrics"][name] for run in old["workloads"][w]["runs"]],
             [run["metrics"][name] for run in data["runs"]])
            for w, data in new["workloads"].items() if w in old["workloads"]
            for name, value in data["median"].items() if name in old["workloads"][w]["median"]]
    rows += [(f"{row} {name}", old["one_shot"][row][name], data[name],
              old["one_shot"][row][key], data[key])
             for row, data in new["one_shot"].items() if row in old["one_shot"]
             for name, key in SAMPLES.items() if key in data and key in old["one_shot"][row]]
    return host + [f"{label}: {_change(a, b)}"
                   + (" changed" if max(s) < min(t) or max(t) < min(s) else " overlap")
                   for label, a, b, s, t in rows]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="BENCH_<n>.json")
    args = parser.parse_args(argv)
    if _number(args.out) is None:
        parser.error("the output must be named BENCH_<n>.json")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # for kernel_s, before numpy loads
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    shots = one_shot()  # before environment() loads numpy
    doc = {"environment": environment(), "run_seconds": benchmark["run_seconds"],
           "workloads": bench_runs(benchmark), "one_shot": shots}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    earlier = previous(args.out)
    if earlier is None:
        print(f"{args.out} written; no earlier BENCH file to compare with")
        return 0
    with open(earlier, encoding="utf-8") as fh:
        old = json.load(fh)
    print(f"{args.out} against {os.path.basename(earlier)}:")
    print("\n".join(diff_lines(old, doc)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
