#!/usr/bin/env python3
"""Fast self-test of the benchmark's own code; takes a few seconds.

    python3 perfbench/selftest.py

Checks that the tracing wrappers count every ``evaluate`` node and put every
original function back, that a wrong reference value or a changed re-run
report makes a command count as failed, that reports are parsed strictly,
that command times scale with the calibration kernel, and that
BENCHMARK.json names exactly the metrics the benchmark prints.
"""

import dataclasses
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402  (first: pins the BLAS threads)
import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _count_nodes(expr, ex):
    return 1 + sum(_count_nodes(getattr(expr, f.name), ex)
                   for f in dataclasses.fields(expr)
                   if isinstance(getattr(expr, f.name), ex.Expr))


def _snapshot():
    """Every attribute of the hermgeo modules and the patched classes."""
    from hermgeo import curvature, frames, immersions
    owners = [m for name, m in sys.modules.items() if name.startswith("hermgeo.")]
    owners += [curvature.ManifoldChart, immersions.Immersion, frames.FrameSampler]
    return {id(o): (o, dict(vars(o))) for o in owners}


def test_tracer_counts_evaluate_nodes_and_restores():
    bench.import_cli()
    from hermgeo import expressions as ex
    before = _snapshot()
    expr = ex.parse("sin(x)*y + x^2/(1 + y) - exp(-x)", ["x", "y"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ex.evaluate is not before[id(ex)][1]["evaluate"]
        ex.evaluate(expr, {"x": 0.3, "y": 0.2})
        ex.evaluate(expr, {"x": 0.1, "y": 0.4})
    finally:
        tracer.restore()
    metrics = tracer.metrics(points=2, constraint_rows=0, overhead=1.0)
    nodes = _count_nodes(expr, ex)
    assert metrics["expressions.evaluate.nodes"]["value"] == 2 * nodes
    assert metrics["expressions.evaluate.trees"]["value"] == 2
    assert metrics["expressions.evaluate.nodes_per_point"]["value"] == nodes
    assert [s[0] for s in tracer.spans] == ["expressions.evaluate"] * 2
    after = _snapshot()
    assert after.keys() == before.keys()
    for key, (owner, attrs) in before.items():
        now = after[key][1]
        assert now.keys() == attrs.keys(), owner
        changed = [a for a in attrs if now[a] is not attrs[a]]
        assert not changed, (owner, changed)


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [["outer", 0.0, 10.0, None, 0], ["inner", 1.0, 4.0, 0, 0],
                    ["inner", 5.0, 6.0, 0, 0], ["leaf", 2.0, 3.0, 1, 0]]
    totals = tracer.layer_totals()
    assert totals["outer"] == (1, 6.0)
    assert totals["inner"] == (2, 3.0)
    assert totals["leaf"] == (1, 1.0)


def test_wrong_reference_or_changed_report_fails():
    run = bench.Run(bench.import_cli())
    workload = workloads.WORKLOADS["submanifold-s4"]
    os.makedirs(bench.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=bench.OUT)
    right = workloads._SUB_MEAN_CURVATURE
    try:
        command = workloads.command_for(workload, 0, 0, workload.files(workdir))
        text, _, report = run.timed(command)
        assert report is not None and run.failed == 0 and run.ref_err <= 1.0
        workloads._SUB_MEAN_CURVATURE = right + 1e-3
        assert run.timed(command)[2] is None
        assert run.failed == 1
        workloads._SUB_MEAN_CURVATURE = right
        assert run.timed(command, expect=text + " ")[2] is None
        assert run.failed == 2 and run.attempted == 3
    finally:
        workloads._SUB_MEAN_CURVATURE = right
        shutil.rmtree(workdir, ignore_errors=True)


def test_command_seconds_scale_with_the_kernel():
    class SlowHost(calibrate.Kernel):
        """A kernel that always reads twice the reference time."""
        def seconds(self, passes=1):
            return 2 * calibrate.REFERENCE_S

    run = bench.Run(bench.import_cli())
    run.kernel = SlowHost()
    command = workloads.Command(["verify-theorem", "--m", "2"], 0, lambda r: [])
    _, seconds, _ = run.timed(command)
    assert run.failed == 0
    assert abs(seconds - run.wall[-1] / 2) <= 1e-12 * run.wall[-1]


def test_strict_json():
    assert bench.strict_json('{"a": 1.5}') == {"a": 1.5}
    for text in ('{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}', '{"a": nan}'):
        try:
            bench.strict_json(text)
        except ValueError:
            continue
        raise AssertionError(f"accepted {text}")


def test_benchmark_json_names_the_printed_metrics():
    path = os.path.join(os.path.dirname(bench.HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def main():
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except Exception as exc:          # report every test, then fail
            failed += 1
            print(f"FAIL {test.__name__}: {exc!r}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
