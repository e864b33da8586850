#!/usr/bin/env python3
"""Run every workload untraced and traced; print every metric with its unit.

    python3 perfbench/summary.py [--seed N] [--seconds S]

One run.py process at a time (the benchmark is a single closed-loop client).
Exits 1 if any run fails or reports an incorrect result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads  # noqa: E402


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return None, None
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    ok = True
    print(f"{'workload':16} {'metric':42} {'value':>14} unit")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            env, result = run(name, args.seed, args.seconds, trace)
            if result is None:
                print(f"{name:16} run.py --trace {trace} failed")
                ok = False
                continue
            ok = ok and result["correct"]
            if not trace:
                print(f"{name:16} environment {json.dumps(env['environment'])}")
            print(f"{name:16} {'correct':42} {str(result['correct']):>14} "
                  f"({result['failed']} of {result['attempted']} commands failed)")
            for metric, m in result["metrics"].items():
                print(f"{name:16} {metric:42} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
