#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in same-host pairs.

    python3 scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W --pairs 10

Pair i runs each root's own ``perfbench/run.py --workload W --seed S+i
--trace 0`` once, for BENCHMARK.json's ``run_seconds``, one process at a
time; the side that goes first alternates from pair to pair, so a drift in
host speed falls on both sides alike.  Each child gets no PYTHONPATH, so
each imports hermgeo from its own ``src/``, and no bytecode cache, so each
compiles what it imports (``bench_file.run_once``).
For every end-to-end metric of this checkout's BENCHMARK.json the script
prints each side's median and quartiles, the change of the medians, how many
pairs the change won, and the verdict of the rule a claimed gain must pass:
the change wins at least 9 pairs in 10, and its median is better than the
parent's by more than the distance between the parent's quartiles.  A metric
that passes the same rule the other way reads "worse"; any other reads
"level".  Exits 1 if a run fails or reports an incorrect result.
"""

import argparse
import json
import math
import os
import statistics
import sys

from bench_file import ROOT, run_once

WIN_SHARE = 0.9  # pairs the better side must win


def pairs(roots, workload, count, seed, seconds, runner=run_once):
    """[(parent metrics, change metrics)] of ``count`` pairs; the parent goes
    first in even pairs and second in odd ones."""
    out = []
    for i in range(count):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        got = {}
        for side in order:
            print(f"pair {i + 1}/{count}: {('parent', 'change')[side]}", file=sys.stderr, flush=True)
            got[side] = runner(roots[side], workload, seed + i, seconds)
        out.append((got[0], got[1]))
    return out


def verdict(parent, change, better):
    """(wins of the change, "gain", "worse" or "level") for the samples of one
    metric; ``better`` is "higher" or "lower"."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gap = sign * (statistics.median(change) - statistics.median(parent))
    need = math.ceil(WIN_SHARE * len(parent))
    if wins >= need and gap > q3 - q1:
        return wins, "gain"
    if losses >= need and -gap > q3 - q1:
        return wins, "worse"
    return wins, "level"


def table(samples, metrics):
    """One line per metric of ``metrics`` (BENCHMARK.json's end_to_end list)
    present in every run of ``samples``, as returned by ``pairs``."""
    lines = [f"{'metric':<18} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30}"
             f" {'change':>8} {'won':>6}  verdict"]
    for metric in metrics:
        name = metric["name"]
        if not all(name in p and name in c for p, c in samples):
            continue
        sides = [[run[name] for run in side] for side in zip(*samples)]
        stats = []
        for values in sides:
            q1, _, q3 = statistics.quantiles(values, n=4)
            stats.append(f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]")
        old, new = (statistics.median(values) for values in sides)
        change = f"{(new - old) / old:+.1%}" if old else "-"
        wins, word = verdict(*sides, metric["better"])
        lines.append(f"{name:<18} {stats[0]:>30} {stats[1]:>30} {change:>8}"
                     f" {f'{wins}/{len(samples)}':>6}  {word}")
    return lines


def main(argv=None, runner=run_once):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=801, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    samples = pairs((args.parent, args.change), args.workload, args.pairs, args.seed, seconds,
                    runner)
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1},"
          f" {seconds:g} s per run")
    print("\n".join(table(samples, benchmark["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
