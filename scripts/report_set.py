#!/usr/bin/env python3
"""Write hermgeo's fixed report set: one JSON line per command with its
argv, exit code, stderr and parsed report.

    PYTHONPATH=src python3 scripts/report_set.py OUT.jsonl

The commands run in this process through ``hermgeo.cli.main``, taken from
whichever ``src/`` is first on PYTHONPATH, with OpenBLAS pinned to one
thread as in the benchmark.  The set is fixed:

- every command of every ``perfbench/workloads.py`` workload at SEEDS, plus
  each workload's warm-up, on the manifold files the workload writes;
- ``models emit`` of each of MODELS;
- ``verify-theorem --m M --seed S`` for M in THEOREM_M and S in THEOREM_SEEDS,
  then ``verify-theorem --m 6 --seed 1``, the largest certificate (about 4 s).

A line keeps the report's values, not its spelling: stdout is parsed with
every integer read as a float (``null`` if stdout is empty), so ``1`` and
``1.0`` compare equal.  The manifold files live in a temporary directory;
each of their paths is replaced by ``<label>`` everywhere in a line, so the
output of two checkouts compares with ``cmp``.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402

from hermgeo import cli  # noqa: E402

SEEDS = (1, 2)
MODELS = ("flat_kahler", "round_sphere", "hyperbolic", "product_K", "fubini_study",
          "s6_nearly_kahler")
THEOREM_M = (2, 3, 4, 5)
THEOREM_SEEDS = (1, 2, 5, 11)


def command_set(workdir):
    """[(argv, {path: label})] of the whole set, in output order; each
    workload writes its manifold files into its own folder of ``workdir``."""
    out = []
    for workload in workloads.WORKLOADS.values():
        folder = os.path.join(workdir, workload.name)
        os.mkdir(folder)
        paths = workload.files(folder)
        labels = {path: f"<{label}>" for label, path in paths.items()}
        out.append((workload.warmup(paths), labels))
        out += [(workloads.command_for(workload, seed, index, paths).argv, labels)
                for seed in SEEDS for index in range(workload.commands)]
    out += [(["models", "emit", name], {}) for name in MODELS]
    out += [(["verify-theorem", "--m", str(m), "--seed", str(seed)], {})
            for m in THEOREM_M for seed in THEOREM_SEEDS]
    out.append((["verify-theorem", "--m", "6", "--seed", "1"], {}))
    return out


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def record(argv, labels):
    code, stdout, stderr = run(argv)
    report = json.loads(stdout, parse_int=float) if stdout else None
    line = json.dumps({"argv": argv, "exit": code, "stderr": stderr, "report": report})
    for path, label in labels.items():
        line = line.replace(json.dumps(path)[1:-1], label)
    return line


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="JSON-lines output file")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        lines = [record(argv, labels) for argv, labels in command_set(workdir)]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
