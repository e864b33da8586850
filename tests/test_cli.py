import importlib
import json
import os
import re
import warnings

import numpy as np
import pytest

from conftest import with_headroom
from hermgeo import axioms as ax
from hermgeo import cli, models, reportio
from hermgeo import curvature as cv
from hermgeo import expressions as ex
from hermgeo import frames as fr
from hermgeo import immersions as im


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_model(tmp_path, name, fname=None, **params):
    chart = models.instantiate(name, **params)
    path = tmp_path / (fname or f"{name}.json")
    path.write_text(reportio.dump_report(reportio.chart_to_dict(chart)),
                    encoding="utf-8")
    return str(path)


def write_sphere_immersion(tmp_path, r=2.0):
    doc = {
        "name": "r3_with_sphere", "dim": 3,
        "coordinates": ["x", "y", "z"],
        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "immersion": {
            "coordinates": ["u", "v"],
            "map": [f"{r}*sin(u)*cos(v)", f"{r}*sin(u)*sin(v)", f"{r}*cos(u)"],
        },
    }
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_models_list(capsys):
    code, out, _ = run_cli(capsys, "models", "list")
    assert code == 0
    doc = json.loads(out)
    assert [m["name"] for m in doc["models"]] == [
        "flat_kahler", "round_sphere", "hyperbolic", "product_K",
        "fubini_study", "s6_nearly_kahler"]


def test_models_emit_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "fs.json"
    code, _, _ = run_cli(capsys, "models", "emit", "fubini_study",
                         "--param", "m=2", "--out", str(out_path))
    assert code == 0
    chart, immersion = reportio.load_manifold_file(str(out_path))
    assert chart.dim == 4 and chart.has_j() and immersion is None


def test_models_emit_unknown(capsys):
    code, _, err = run_cli(capsys, "models", "emit", "not_a_model")
    assert code == 2
    assert "unknown model" in err


def test_analyze_round_sphere(tmp_path, capsys):
    path = write_model(tmp_path, "round_sphere", n=4, r=1.0)
    code, out, _ = run_cli(capsys, "analyze", path, "--point", "0.1,0.2,0.0,-0.1")
    assert code == 0
    doc = json.loads(out)
    entry = doc["points"][0]
    assert entry["scalar_curvature"] == pytest.approx(12.0, abs=1e-8)
    assert entry["weyl_norm"] <= 1e-10


def test_analyze_hermitian_fields(tmp_path, capsys):
    path = write_model(tmp_path, "fubini_study", m=2)
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    doc = json.loads(out)
    entry = doc["points"][0]
    assert entry["holomorphic_sectional"]["mean"] == pytest.approx(4.0, abs=1e-8)
    assert entry["constant_type"]["mean"] == pytest.approx(0.0, abs=1e-8)
    assert "checks" in doc and "identity_residuals" in doc
    # pass flags agree with residual-vs-tolerance comparison in the report
    for check in doc["checks"]:
        assert check["pass"] == (check["residual"] <= check["tolerance"])


@pytest.mark.parametrize("points", [["0.3,0.1,0.2,-0.1"],
                                    ["0.3,0.1,0.2,-0.1", "-0.2,0.4,0.1,0.3"]])
def test_analyze_entries_are_the_constancy_samples(tmp_path, capsys, points):
    # product_K's holomorphic sectional curvature varies with the plane:
    # each entry states the mean and bound its constancy record was computed from
    path = write_model(tmp_path, "product_K", K=1.0)
    code, out, _ = run_cli(capsys, "analyze", path, "--seed", "3",
                           *(f"--point={p}" for p in points))
    assert code == 0
    doc = json.loads(out)
    records = {r["name"]: r for r in doc["constancy"]}
    assert records["holomorphic_sectional"]["residual"] > 1e-3
    for key in ("holomorphic_sectional", "constant_type"):
        for i, entry in enumerate(doc["points"]):
            assert entry[key]["mean"] == records[key]["per_point_means"][i]
        if len(points) == 1:
            assert doc["points"][0][key]["bound"] == records[key]["residual"]


def test_analyze_weyl_dim_too_low(tmp_path, capsys):
    path = write_model(tmp_path, "hyperbolic", n=2)
    code, _, err = run_cli(capsys, "analyze", path, "--weyl")
    assert code == 3
    assert "dimension" in err


def test_analyze_bad_point(tmp_path, capsys):
    path = write_model(tmp_path, "round_sphere")
    code, _, err = run_cli(capsys, "analyze", path, "--point", "1,2")
    assert code == 2


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent.json")
    assert code == 2


def test_analyze_malformed_metric(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "name": "bad", "dim": 2, "coordinates": ["x", "y"],
        "metric": [["1", "0"], ["0", "sin("]],
    }), encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2


def test_analyze_singular_metric(tmp_path, capsys):
    path = tmp_path / "sing.json"
    path.write_text(json.dumps({
        "name": "sing", "dim": 2, "coordinates": ["x", "y"],
        "metric": [["x", "0"], ["0", "1"]],
    }), encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", str(path), "--point", "0,0")
    assert code == 3


@pytest.mark.parametrize("entry, message", [
    ("1 + sqrt(x^2 + y^2)", "error: division by zero"),
    ("1 + x^1.5", "error: pow(0.0, -0.5) out of domain"),
])
def test_analyze_derivative_domain_error(tmp_path, capsys, entry, message):
    # the metric is fine at the origin, but a derivative is not defined there
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({
        "name": "edge", "dim": 2, "coordinates": ["x", "y"],
        "metric": [[entry, "0"], ["0", entry]],
    }), encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(path), "--point=0,0")
    assert code == 3
    assert out == "" and err == message + "\n"


@pytest.mark.parametrize("command", ["analyze", "classify"])
def test_domain_error_at_the_second_of_three_points_names_that_point(tmp_path, capsys,
                                                                     command):
    # the third point fails too; the error is the second's, as point by point
    path = tmp_path / "logm.json"
    path.write_text(json.dumps({
        "name": "logm", "dim": 2, "coordinates": ["x", "y"],
        "metric": [["1 + log(x)^2", "0"], ["0", "1"]],
        "complex_structure": [["0", "-1"], ["1", "0"]],
    }), encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path), "--point=0.5,0.1",
                             "--point=-0.5,0.1", "--point=-0.25,0.1")
    assert code == 3 and out == "" and err == "error: log(-0.5) out of domain\n"


@pytest.mark.parametrize("command", ["analyze", "classify"])
@pytest.mark.parametrize("g00, points, message", [
    # the first point fails at sqrt; the second fails at log, which the walk reaches first
    ("1 + log(x)^2", ["0.5,-0.5", "-0.5,0.5"], "error: sqrt(-0.5) out of domain\n"),
    # the first point's metric is singular; the second's jet fails at sqrt
    ("x", ["0,0.5", "0.5,-0.5"], "error: metric not positive definite at [0.0, 0.5] "),
    # sqrt'(0) fails at the first point, log(-0.5) at the second; and in reverse order
    ("2 + log(x)", ["1,0", "-0.5,0.5"], "error: division by zero\n"),
    ("2 + log(x)", ["-0.5,0.5", "1,0"], "error: log(-0.5) out of domain\n"),
])
def test_first_bad_point_names_the_error_though_a_later_point_fails_earlier(
        tmp_path, capsys, command, g00, points, message):
    path = tmp_path / "two_edges.json"
    path.write_text(json.dumps({
        "name": "two_edges", "dim": 2, "coordinates": ["x", "y"],
        "metric": [[g00, "0"], ["0", "1 + sqrt(y)"]],
        "complex_structure": [["0", "-1"], ["1", "0"]],
    }), encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path), *(f"--point={p}" for p in points))
    assert code == 3 and out == "" and err.startswith(message) and err.count("\n") == 1


def test_submanifold_names_the_first_bad_point_before_a_later_rank_deficiency(tmp_path,
                                                                              capsys):
    # the target metric is undefined at the first mapped point; the map is
    # rank deficient at the second
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({
        "name": "r3", "dim": 3, "coordinates": ["x", "y", "z"],
        "metric": [["1 + sqrt(x)", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "immersion": {"coordinates": ["u", "v"], "map": ["u", "v^2", "0"]},
    }), encoding="utf-8")
    code, out, err = run_cli(capsys, "submanifold", str(path), "--point=-0.5,0.5",
                             "--point=0.5,0")
    assert code == 3 and out == "" and err == "error: sqrt(-0.5) out of domain\n"
    code, out, err = run_cli(capsys, "submanifold", str(path), "--point=0.5,0",
                             "--point=-0.5,0.5")
    assert code == 3 and out == ""
    assert err.startswith("error: immersion rank deficient at [0.5, 0.0]")


@pytest.mark.parametrize("model, command", [
    ("s6_nearly_kahler", "classify"), ("fubini_study", "analyze"), ("sphere", "submanifold")])
def test_a_command_takes_one_jet_per_tree_set(tmp_path, capsys, monkeypatch, model, command):
    # metric and J (or embedding map), or immersion map and target metric:
    # two walks for all three points
    calls = []
    jets = ex.jets
    monkeypatch.setattr(ex, "jets", lambda *args: calls.append(args) or jets(*args))
    if model == "sphere":
        path, dim = write_sphere_immersion(tmp_path), 2
    else:
        path, dim = write_model(tmp_path, model), models.instantiate(model).dim
    points = [",".join([str(0.1 * (i + 1))] * dim) for i in range(3)]
    code, _, err = run_cli(capsys, command, path, *(f"--point={p}" for p in points))
    assert code == 0 and err == ""
    assert [len(args[2]) for args in calls] == [3, 3]



def test_submanifold_takes_one_geometry_pass_for_all_points(tmp_path, capsys, monkeypatch):
    calls = []
    for module, name in ((im, "second_fundamental_form"), (cv, "connection_jet")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    points = ["0.8,0.4", "1.0,0.7", "0.3,-0.5"]
    code, out, err = run_cli(capsys, "submanifold", write_sphere_immersion(tmp_path),
                             *(f"--point={p}" for p in points))
    assert code == 0 and err == "" and len(json.loads(out)["points"]) == 3
    assert sorted(calls) == ["connection_jet", "second_fundamental_form"]
@pytest.mark.parametrize("command", ["analyze", "classify"])
def test_rank_deficient_embedding_is_one_line_domain_error(tmp_path, capsys, command):
    # d(u1^2)/du1 vanishes at the origin: the cross-product J has no solve there
    coords = [f"u{k + 1}" for k in range(6)]
    path = tmp_path / "flat_embedding.json"
    path.write_text(json.dumps({
        "name": "flat", "dim": 6, "coordinates": coords,
        "metric": [["1" if i == j else "0" for j in range(6)] for i in range(6)],
        "embedding": {"ambient_dim": 7, "map": ["u1^2", *coords[1:], "1"],
                      "j_rule": "octonion_cross"},
    }), encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path), "--point=0.5,0,0,0,0,0",
                             "--point=0,0,0,0,0,0")
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: embedding rank deficient at [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]")


def test_classify_product(tmp_path, capsys):
    path = write_model(tmp_path, "product_K", K=1.0)
    code, out, _ = run_cli(capsys, "classify", path,
                           "--point", "0.1,-0.2,0.07,0.03")
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["kahler"]["pass"]
    assert checks["conformally_flat"]["pass"]


def test_classify_no_structure(tmp_path, capsys):
    path = write_model(tmp_path, "round_sphere")
    code, _, err = run_cli(capsys, "classify", path)
    assert code == 2
    assert "almost complex structure" in err


def test_submanifold_sphere(tmp_path, capsys):
    path = write_sphere_immersion(tmp_path, r=2.0)
    code, out, _ = run_cli(capsys, "submanifold", path, "--point", "0.8,0.4")
    assert code == 0
    entry = json.loads(out)["points"][0]
    assert entry["mean_curvature_norm"] == pytest.approx(0.5, abs=1e-8)
    assert entry["umbilicity_residual"] <= 1e-10
    assert entry["totally_umbilical"] and not entry["totally_geodesic"]
    assert entry["parallel_mean_curvature"]
    assert entry["codazzi_2_2_residual"] <= 1e-6


def test_submanifold_requires_block(tmp_path, capsys):
    path = write_model(tmp_path, "round_sphere")
    code, _, err = run_cli(capsys, "submanifold", path)
    assert code == 2
    assert "immersion" in err


def write_squashed_sphere(tmp_path):
    # a unit sphere stretched by 1.001 along x: umbilical only up to about 3e-4
    doc = {"name": "r3_with_squashed_sphere", "dim": 3, "coordinates": ["x", "y", "z"],
           "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
           "immersion": {"coordinates": ["u", "v"],
                         "map": ["1.001*cos(u)*sin(v)", "sin(u)*sin(v)", "cos(v)"]}}
    path = tmp_path / "squashed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("tol, umbilical", [("1e-2", True), ("1e-8", False)])
def test_umbilical_reduction_is_reported_exactly_at_umbilical_points(tmp_path, capsys,
                                                                     tol, umbilical):
    path = write_squashed_sphere(tmp_path)
    code, out, _ = run_cli(capsys, "submanifold", path, "--point=0.3,0.7", "--tol", tol)
    assert code == 0
    entry = json.loads(out)["points"][0]
    assert 1e-8 < entry["umbilicity_residual"] < 1e-2
    assert entry["totally_umbilical"] is umbilical
    assert (entry["codazzi_2_2_residual"] is None) is not umbilical


def test_removed_dh_tol_is_usage_error(tmp_path, capsys):
    path = write_squashed_sphere(tmp_path)
    code, out, err = run_cli(capsys, "submanifold", path, "--dh-tol", "1e-6")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "--dh-tol" in err


def test_nearly_kahler_is_checked_at_tol(tmp_path, capsys):
    path = write_model(tmp_path, "s6_nearly_kahler")
    code, out, _ = run_cli(capsys, "classify", path, "--tol", "1e-12")
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["nearly_kahler"]["tolerance"] == 1e-12
    assert {c["tolerance"] for c in checks.values()} == {1e-12}


@pytest.mark.parametrize("command, options", [
    (["analyze"], {"--point", "--weyl", "--tol", "--seed"}),
    (["classify"], {"--point", "--tol", "--seed"}),
    (["submanifold"], {"--point", "--tol"}),
    (["verify-theorem"], {"--m", "--seed", "--tol"}),
    (["models", "emit"], {"--out", "--param"})])
def test_option_inventory(capsys, command, options):
    # adding or removing a knob is a visible edit here
    code, out, _ = run_cli(capsys, *command, "--help")
    assert code == 0
    assert set(re.findall(r"--[a-z][a-z-]*", out)) == options | {"--help"}


def test_verify_theorem(capsys):
    code, out, _ = run_cli(capsys, "verify-theorem", "--m", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["theorem"]["pass"] and doc["schouten"]["pass"]
    assert doc["theorem"]["nullspace_dim"] == 10
    assert doc["theorem"]["rank_gap"]["largest_dropped"] <= 1e-9
    assert doc["schouten"]["rank_gap"]["largest_dropped"] <= 1e-9
    assert "containment_residual" not in doc
    # both certificates share K, so they report one Weyl norm
    weyl = doc["theorem"]["max_weyl"]
    assert doc["schouten"]["max_weyl"] == weyl == doc["theorem"]["derived_residuals"]["weyl"]
    assert "nullspace" not in doc["theorem"] and "nullspace" not in doc["schouten"]


def test_verify_theorem_draws_from_two_samplers(capsys, monkeypatch):
    # one sampler per certificate's constraint rows; the derived checks draw
    # no frames
    made = []
    init = fr.FrameSampler.__init__

    def counted(self, *args):
        made.append(args)
        init(self, *args)
    monkeypatch.setattr(fr.FrameSampler, "__init__", counted)
    code, _, _ = run_cli(capsys, "verify-theorem", "--m", "2", "--seed", "5")
    assert code == 0 and made == [(5, 4), (5, 4)]


def test_verify_theorem_failed_certificate_exits_5(capsys):
    # converged rank, but no Weyl norm is below 1e-30: a failed certificate
    code, out, err = run_cli(capsys, "verify-theorem", "--m", "2", "--tol", "1e-30")
    assert code == 5
    doc = json.loads(out)
    assert not doc["theorem"]["pass"] and doc["theorem"]["nullspace_dim"] == 10
    assert err == "error: certificate failed: theorem, schouten\n"


@pytest.mark.parametrize("m", ["2", "3", "4"])
def test_verify_theorem_builds_no_adapted_frame(capsys, monkeypatch, m):
    # the certificates' frames are the canonical pair's, taken from their QR
    def refuse(g, J):
        raise RuntimeError("adapted frame built")
    monkeypatch.setattr(fr, "adapted_frames", refuse)
    code, _, _ = run_cli(capsys, "verify-theorem", "--m", m)
    assert code == 0


def test_verify_theorem_bad_m(capsys):
    code, _, err = run_cli(capsys, "verify-theorem", "--m", "9")
    assert code == 2


def test_usage_error_no_command(capsys):
    assert cli.main([]) == 2


def test_reports_byte_identical(tmp_path, capsys):
    path = write_model(tmp_path, "s6_nearly_kahler")
    _, out_a, _ = run_cli(capsys, "analyze", path, "--seed", "3",
                          "--point", "0.1,0.0,-0.2,0.3,0.05,0.0")
    _, out_b, _ = run_cli(capsys, "analyze", path, "--seed", "3",
                          "--point", "0.1,0.0,-0.2,0.3,0.05,0.0")
    assert out_a == out_b
    _, out_c, _ = run_cli(capsys, "verify-theorem", "--m", "2")
    _, out_d, _ = run_cli(capsys, "verify-theorem", "--m", "2")
    assert out_c == out_d


def test_report_floats_survive_roundtrip(tmp_path, capsys):
    path = write_model(tmp_path, "fubini_study", m=2)
    _, out, _ = run_cli(capsys, "classify", path, "--point", "0.1,0.2,0.0,-0.1")
    doc = json.loads(out)
    # shortest round-trip floats: re-serializing the parsed floats is lossless
    assert reportio.dump_report(doc) == out


def strict_json(text):
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_analyze_negative_point_space_separated(tmp_path, capsys):
    path = write_model(tmp_path, "fubini_study", m=2)
    code, out, _ = run_cli(capsys, "analyze", path, "--point", "-0.1,0.1,0.2,0.0")
    assert code == 0
    doc = strict_json(out)
    assert doc["points"][0]["point"] == [-0.1, 0.1, 0.2, 0.0]
    _, joined, _ = run_cli(capsys, "analyze", path, "--point=-0.1,0.1,0.2,0.0")
    assert out == joined


@pytest.mark.parametrize("argv", [
    ["analyze", "FILE", "--samples", "0"],
    ["classify", "FILE", "--samples", "-3"],
    ["verify-theorem", "--m", "2", "--frames", "0"],
    ["analyze", "FILE", "--point", "nan,0,0,0"],
    ["analyze", "FILE", "--point", "inf,0,0,0"],
    ["classify", "FILE", "--point", "0,-inf,0,0"],
    ["analyze", "FILE", "--seed", "-1"],
    ["analyze", "FILE", "--frames", "3"],
    ["verify-theorem", "--m", "x"],
    ["analyze", "FILE", "--samples", "1.5"],
    ["verify-theorem", "--m", "2", "--frames", "1000000000000000"],
    ["analyze", "FILE", "--tol", "nan"],
    ["classify", "FILE", "--tol", "-1"],
    ["verify-theorem", "--m", "2", "--tol", "inf"],
])
def test_out_of_range_input_is_usage_error(tmp_path, capsys, argv):
    path = write_model(tmp_path, "fubini_study", m=2)
    code, _, err = run_cli(capsys, *[path if a == "FILE" else a for a in argv])
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("command", ["analyze", "classify"])
def test_chart_commands_draw_no_frames(tmp_path, capsys, monkeypatch, command):
    # chart verdicts are exact: no frame is drawn, and --seed (still
    # accepted) changes nothing
    def draw(*args):
        raise AssertionError("a chart command drew a frame")
    monkeypatch.setattr(fr.FrameSampler, "draw", draw)
    outputs = set()
    for name, params in (("fubini_study", {"m": 3}), ("s6_nearly_kahler", {})):
        path = write_model(tmp_path, name, **params)
        for extra in ([], ["--seed", "5"], ["--seed", "1000000000000000"]):
            code, out, err = run_cli(capsys, command, path, "--point=0.1,0.2,-0.1,0.3,0.05,0.0",
                                     *extra)
            assert code == 0, err
            outputs.add(out)
            assert "seed" not in out
    assert len(outputs) == 2  # one per chart


def test_identity_residuals_are_the_largest_over_every_point(tmp_path, capsys):
    # a product of two surfaces whose curvatures vary: the identities fail,
    # by more at the second point than at the first
    a, b = "1 + x1^2", "2 + y2^2 + x1*y1"
    path = tmp_path / "product.json"
    path.write_text(json.dumps({
        "name": "product", "dim": 4, "coordinates": ["x1", "y1", "x2", "y2"],
        "metric": [[[a, a, b, b][i] if i == j else "0" for j in range(4)] for i in range(4)],
        "complex_structure": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                              ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]}), encoding="utf-8")
    points = ["--point=0.6,-0.3,0.2,0.5", "--point=0.1,0.2,-0.1,0.3"]
    alone = []
    for point in points:
        code, out, err = run_cli(capsys, "analyze", str(path), point)
        assert code == 0, err
        alone.append(strict_json(out)["identity_residuals"])
    code, out, _ = run_cli(capsys, "analyze", str(path), *points)
    assert code == 0
    both = strict_json(out)["identity_residuals"]
    assert both == {k: None if v is None else max(v, alone[1][k]) for k, v in alone[0].items()}
    assert all(alone[1][k] > 2 * v > 0.1 for k, v in alone[0].items() if v is not None)


def test_chart_with_j_in_dimension_14_gets_exact_verdicts(tmp_path, capsys):
    # the verdicts are closed forms in m: no dimension cap below the models'
    path = write_model(tmp_path, "flat_kahler", m=7)
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 0, err
    doc = strict_json(out)
    assert all(v == 0.0 for v in doc["identity_residuals"].values())
    assert doc["points"][0]["constant_type"] == {"mean": 0.0, "bound": 0.0}
    code, out, err = run_cli(capsys, "classify", path)
    assert code == 0, err
    assert all(c["pass"] and c["global_pass"] for c in strict_json(out)["constancy"])


@pytest.mark.parametrize("name", ["fubini_study", "flat_kahler"])
def test_two_dimensional_chart_with_j(tmp_path, capsys, name):
    # antiholomorphic planes need X orthogonal to Y and JY: none in dimension 2
    path = write_model(tmp_path, name, m=1)
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 0, err
    doc = strict_json(out)
    assert doc["points"][0]["constant_type"] is None
    assert doc["points"][0]["holomorphic_sectional"]["bound"] <= 1e-12
    assert all(v is None for v in doc["identity_residuals"].values())
    code, out, err = run_cli(capsys, "classify", path)
    assert code == 0, err
    by_name = {c["name"]: c for c in strict_json(out)["constancy"]}
    assert by_name["holomorphic_sectional"]["pass"]
    for key in ("antiholomorphic_sectional", "constant_type"):
        assert by_name[key]["constant"] is None and by_name[key]["pass"] is None


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_dump_report_rejects_non_finite(value):
    with pytest.raises(ex.DomainError):
        reportio.dump_report({"x": [1.0, {"y": np.float64(value)}]})
    with pytest.raises(ex.DomainError):
        reportio.dump_report({"x": [np.float32(value)]})


def test_dump_report_writes_numpy_values_as_plain_json():
    doc = json.loads(reportio.dump_report({
        "a": np.int64(3), "b": np.arange(2), "c": np.bool_(True), "d": np.float32(0.5),
        "e": 1.0, "f": (1, 2)}))
    assert doc == {"a": 3, "b": [0, 1], "c": True, "d": 0.5, "e": 1.0, "f": [1, 2]}
    assert type(doc["c"]) is bool and type(doc["e"]) is float


def test_non_finite_report_value_is_domain_error(tmp_path, capsys, monkeypatch):
    path = write_model(tmp_path, "fubini_study", m=2)
    monkeypatch.setattr(cv, "relative_weyl_norm", lambda pd: np.full(pd.scalar.shape, np.nan))
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 3 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("change, message", [
    ({"embedding": {"ambient_dim": 3}}, "embedding needs"),
    ({"embedding": {"map": ["x", "y", "0"]}}, "embedding needs"),
    ({"immersion": {"coordinates": ["u"]}}, "immersion needs"),
    ({"immersion": {"map": ["u", "0"]}}, "immersion needs"),
    ({"dim": 2.5}, "dim must be an integer"),
    ({"dim": "two"}, "dim must be an integer"),
    ({"metric": [[1, "0"], ["0", "1"]]}, "expression must be a string"),
    ({"coordinates": 5}, "coordinates must be a list"),
    ({"immersion": {"coordinates": ["u", "u"], "map": ["u", "0"]}}, "distinct names"),
    ({"domain_hint": [[-1, 1], 5]}, "domain_hint needs"),
    ({"domain_hint": [[-1, 1], [-1, 0, 1]]}, "domain_hint needs"),
    ({"embedding": {"ambient_dim": 3, "map": ["x", "y", "0"], "radius": "big"}},
     "radius must be a finite number"),
    ({"embedding": {"ambient_dim": 3, "map": ["x", "y", "0"], "j_rule": "quaternion"}},
     "unknown ambient J rule 'quaternion'"),
    ({"embedding": {"ambient_dim": 3, "map": ["x", "y", "0"], "j_rule": "octonion_cross"}},
     "octonion_cross needs 7"),
    ({"metric": 0}, "metric must be a dim x dim matrix"),
    ({"metric": [1, 2]}, "metric must be a dim x dim matrix"),
    ({"complex_structure": 5}, "complex_structure must be a dim x dim matrix"),
    ({"domain_hint": [[1, -1], [-1, 1]]}, "lo < hi"),
    ({"metric": [["1", "x"], ["y", "1"]]}, "disagree"),
    ({"dim": 0, "coordinates": [], "metric": []}, "dim must be at least 1"),
    ({"complex_structure": [["0", "-1"], ["1", "sin("]]},
     "complex_structure entry failed to parse"),
    ({"embedding": {"ambient_dim": 3, "map": ["x", "y", "sin("]}},
     "embedding map entry failed to parse"),
    ({"immersion": {"coordinates": ["u"], "map": ["u", "sin("]}},
     "immersion map entry failed to parse"),
    ({"metric": [["(" * 400 + "x" + ")" * 400, "0"], ["0", "1"]]}, "nested too deeply"),
    ({"metric": [["sin(" * 300 + "x" + ")" * 300, "0"], ["0", "1"]]}, "nested too deeply"),
    ({"immersion": {"coordinates": [], "map": ["1", "0"]}},
     "immersion needs at least one coordinate"),
])
def test_malformed_manifold_file_is_usage_error(tmp_path, capsys, change, message):
    doc = {"name": "plane", "dim": 2, "coordinates": ["x", "y"],
           "metric": [["1", "0"], ["0", "1"]], **change}
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    command = "submanifold" if "immersion" in change else "analyze"
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]


def _terms(name, count):
    return " + ".join([name] * count)


@pytest.mark.parametrize("change, args, code, message", [
    pytest.param({"metric": [[f"1 + ({_terms('x', 5000)})^2/25000000", "0"], ["0", "1"]]},
                 [], 0, "", id="metric-sum-5000"),
    pytest.param({"immersion": {"coordinates": ["u"], "map": ["u", _terms("u", 5000)]}},
                 [], 0, "", id="immersion-sum-5000"),
    pytest.param({"immersion": {"coordinates": ["u"], "map": ["u", "^".join(["u"] * 5000)]}},
                 ["--point=0.5"], 0, "", id="immersion-chain-5000"),
    # the metric's jet fails at sqrt'(0); its value, which metric_at walks, is defined
    pytest.param({"metric": [[f"2 + sqrt(x) + ({_terms('x', 5000)})/1e9", "0"], ["0", "1"]]},
                 ["--point=0,0.2"], 3, "error: division by zero\n", id="metric-at-sum-5000"),
    pytest.param({"metric": [[_terms("x", 1200), "0"], ["0", "1"]]}, [], 3,
                 "error: metric not positive definite at [0.0, 0.0]", id="metric-sum-1200"),
    pytest.param({"immersion": {"coordinates": ["u"], "map": ["u", _terms("u", 1200)]}},
                 [], 0, "", id="immersion-sum-1200"),
])
def test_depth_is_a_property_of_the_file(tmp_path, capsys, change, args, code, message):
    # a long sum or ^ chain evaluates, with the same outcome however deep
    # in the Python stack the command is run
    doc = {"name": "plane", "dim": 2, "coordinates": ["x", "y"],
           "metric": [["1", "0"], ["0", "1"]], **change}
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["submanifold" if "immersion" in change else "analyze", str(path), *args]
    top = run_cli(capsys, *argv)
    assert with_headroom(60, lambda: run_cli(capsys, *argv)) == top
    assert top[0] == code and top[2].startswith(message)
    assert (top[1] == "") == (code != 0) and top[2].count("\n") == (code != 0)


def test_symmetry_check_skips_points_where_an_entry_is_undefined(tmp_path, capsys):
    # symmetry is checked on the metric's jet at each evaluated point only:
    # log(y) is undefined for y < 0, but not at the point asked for, where the
    # two spellings agree in value and in every derivative
    path = tmp_path / "logy.json"
    path.write_text(json.dumps({
        "name": "logy", "dim": 2, "coordinates": ["x", "y"],
        "metric": [["1 + y", "x*log(y)/10"], ["log(y)*x/10", "1 + y"]],
    }), encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(path), "--point=0.3,1.2")
    assert code == 0 and err == ""
    assert json.loads(out)["command"] == "analyze"


@pytest.mark.parametrize("point", ["200,0", "-400,0"])
def test_tanh_metric_is_analysed_far_from_zero(tmp_path, capsys, point):
    # tanh is smooth and flat there; its derivatives must not overflow
    path = tmp_path / "tanh.json"
    path.write_text(json.dumps({
        "name": "tanh", "dim": 2, "coordinates": ["x", "y"],
        "metric": [["2 + tanh(x)", "0"], ["0", "1"]],
    }), encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(path), f"--point={point}")
    assert code == 0 and err == ""
    assert json.loads(out)["command"] == "analyze"


def test_asymmetric_metric_is_checked_at_the_evaluated_point(tmp_path, capsys):
    # both entries are undefined at the default point (0, 0); at x = 3 they
    # are defined and disagree
    path = tmp_path / "logs.json"
    path.write_text(json.dumps({
        "name": "logs", "dim": 2, "coordinates": ["x", "y"],
        "metric": [["1", "log(x - 1)"], ["log(x - 2)", "1"]],
    }), encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 3 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "out of domain" in lines[0]
    code, out, err = run_cli(capsys, "analyze", str(path), "--point=3,0")
    assert code == 2 and out == ""
    assert err == "error: metric entries (0,1) and (1,0) disagree at [3.0, 0.0]\n"


def test_parse_error_outside_the_metric_is_manifold_file_error():
    doc = {"name": "plane", "dim": 2, "coordinates": ["x", "y"],
           "metric": [["1", "0"], ["0", "1"]],
           "complex_structure": [["0", "-1"], ["1", "sin("]]}
    with pytest.raises(reportio.ManifoldFileError,
                       match="complex_structure entry failed to parse"):
        reportio.load_manifold(doc)


@pytest.mark.parametrize("where", ["missing_directory", "directory"])
def test_models_emit_unwritable_out_is_usage_error(tmp_path, capsys, where):
    out_path = tmp_path / "missing" / "fs.json" if where == "missing_directory" else tmp_path
    code, out, err = run_cli(capsys, "models", "emit", "flat_kahler", "--out", str(out_path))
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {out_path}: ")


@pytest.mark.parametrize("name, param", [
    ("flat_kahler", "m=2.5"), ("fubini_study", "m=1.5"), ("round_sphere", "n=4.5"),
    ("round_sphere", "r=abc"), ("round_sphere", "r=-1"), ("hyperbolic", "q=1"),
    ("round_sphere", "r=1e-200"), ("round_sphere", "r=1e78"),
    ("s6_nearly_kahler", "r=5e-324"), ("s6_nearly_kahler", "r=1.797e308"),
    # 4 r^4 overflows to inf without raising
    ("round_sphere", "r=1e77"), ("s6_nearly_kahler", "r=1e77"),
])
def test_models_emit_bad_param_is_usage_error(capsys, name, param):
    code, out, err = run_cli(capsys, "models", "emit", name, "--param", param)
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    # the message is about the parameter, not about the document built from it
    assert "failed to parse" not in lines[0]


@pytest.mark.parametrize("name, param", [
    ("flat_kahler", "m=1e9"), ("fubini_study", "m=33"), ("round_sphere", "n=1e9"),
    ("hyperbolic", "n=65"),
])
def test_models_emit_above_the_dimension_cap_is_refused_at_once(capsys, monkeypatch,
                                                                name, param):
    def never(*args, **kwargs):
        raise AssertionError("the builder ran")
    monkeypatch.setitem(models._BUILDERS, name, (never, *models._BUILDERS[name][1:]))
    code, out, err = run_cli(capsys, "models", "emit", name, "--param", param)
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert f"cap of {models.MAX_DIMENSION}" in lines[0]


def test_models_emit_at_the_dimension_cap_emits(capsys):
    code, out, err = run_cli(capsys, "models", "emit", "flat_kahler", "--param", "m=32")
    assert code == 0 and err == ""
    assert json.loads(out)["dim"] == models.MAX_DIMENSION == 64


def test_bare_memory_error_names_itself(capsys, monkeypatch):
    def exhausted(name, **params):
        raise MemoryError()
    monkeypatch.setattr(models, "instantiate", exhausted)
    code, out, err = run_cli(capsys, "models", "emit", "flat_kahler")
    assert code == 2 and out == "" and err == "error: out of memory\n"


@pytest.mark.parametrize("param", ["K=1e-320", "K=5e-324"])
def test_models_emit_tiny_curvature_writes_a_loadable_file(tmp_path, capsys, param):
    # 4/K overflows: the product stays unfolded, so it still prints and parses
    path = tmp_path / "hyperbolic.json"
    code, out, err = run_cli(capsys, "models", "emit", "hyperbolic", "--param", param,
                             "--out", str(path))
    assert code == 0 and out == "" and err == ""
    reportio.load_manifold_file(str(path))


def test_rows_short_of_full_rank_fail_closed_with_exit_5(capsys, monkeypatch):
    # one-frame or one-quadruple batches and one batch fewer than full rank
    # needs: each certificate has d - k - 1 = 9 rows, so more than K is free
    monkeypatch.setattr(ax, "_THEOREM_BATCH", 1)
    monkeypatch.setattr(ax, "_SCHOUTEN_BATCH", 1)
    monkeypatch.setattr(ax, "_SPARE_BATCHES", -1)
    code, out, err = run_cli(capsys, "verify-theorem", "--m", "2")
    assert code == 5
    doc = json.loads(out)
    for part in ("theorem", "schouten"):
        rep = doc[part]
        assert rep["constraint_rows"] == 9 and not rep["pass"]
        assert rep["rank_gap"]["smallest_kept"] is None and rep["nullspace_dim"] is None
    assert err == "error: certificate failed: theorem, schouten\n"


def test_parser_is_reused_without_carrying_state(tmp_path, capsys):
    path = write_sphere_immersion(tmp_path)
    argv = ["submanifold", path, "--point", "0.8,0.4"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    assert len(json.loads(second)["points"]) == 1  # --point appends to a fresh list
    assert cli.build_parser() is cli.build_parser()


def write_geodesic_sphere_in_s4(tmp_path):
    # the sphere |x| = 0.5 in the stereographic unit 4-sphere
    coords = ["x1", "x2", "x3", "x4"]
    conformal = "4/(1 + x1^2 + x2^2 + x3^2 + x4^2)^2"
    doc = {"name": "s4", "dim": 4, "coordinates": coords,
           "metric": [[conformal if i == j else "0" for j in range(4)] for i in range(4)],
           "immersion": {"coordinates": ["a", "b", "c"], "map": [
               "0.5*sin(a)*sin(b)*cos(c)", "0.5*sin(a)*sin(b)*sin(c)",
               "0.5*sin(a)*cos(b)", "0.5*cos(a)"]}}
    path = tmp_path / "s4_sphere.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_submanifold_residuals_are_exact(tmp_path, capsys):
    path = write_geodesic_sphere_in_s4(tmp_path)
    code, out, err = run_cli(capsys, "submanifold", path,
                             "--point", "1.0,0.7,-0.3", "--point", "2.1,1.3,2.0")
    assert code == 0, err
    for p in strict_json(out)["points"]:
        assert p["mean_curvature_norm"] == pytest.approx(0.75, abs=1e-12)
        for key in ("dh_residual", "codazzi_2_1_residual", "codazzi_2_2_residual"):
            assert p[key] <= 1e-13, key
        assert p["totally_umbilical"] and p["parallel_mean_curvature"]


def test_map_third_derivative_domain_error(tmp_path, capsys):
    # u^2.5 has two derivatives at u = 0, but its third, 1.875*u^-0.5, is undefined
    doc = {"name": "r3", "dim": 3, "coordinates": ["x", "y", "z"],
           "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
           "immersion": {"coordinates": ["u", "v"], "map": ["u", "v", "u^2.5"]}}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "submanifold", str(path), "--point", "0,0.5")
    assert code == 3 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_a_stack_whose_second_point_fails_only_in_the_third_derivative(tmp_path, capsys):
    # exp(700*u) and its first two derivatives are finite at u = 0.99, its
    # third derivative is not; the stack exits as that point does alone
    doc = {"name": "r3", "dim": 3, "coordinates": ["x", "y", "z"],
           "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
           "immersion": {"coordinates": ["u", "v"], "map": ["u", "v", "exp(700*u)"]}}
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    tree = ex.parse("exp(700*u)", ["u", "v"])
    assert all(np.isfinite(d).all() for d in ex.jets([tree], ["u", "v"], [0.99, 0.5]))
    assert run_cli(capsys, "submanifold", str(path), "--point=0,0.5")[0] == 0
    alone = run_cli(capsys, "submanifold", str(path), "--point=0.99,0.5")
    assert alone == (3, "", "error: a value or derivative is not finite at [0.99, 0.5]\n")
    assert run_cli(capsys, "submanifold", str(path), "--point=0,0.5", "--point=0.99,0.5") == alone


@pytest.mark.parametrize("radius", [0.0, 1e-320])
@pytest.mark.parametrize("command", ["classify", "analyze"])
def test_a_pointwise_j_that_is_not_finite_names_its_first_point(tmp_path, capsys, command,
                                                                 radius):
    # a zero or subnormal embedding radius makes the cross-product rule's J
    # not finite: the command exits 3 naming the point, in a stack the first
    doc = reportio.chart_to_dict(models.instantiate("s6_nearly_kahler"))
    doc["embedding"]["radius"] = radius
    path = tmp_path / "s6.json"
    path.write_text(reportio.dump_report(doc), encoding="utf-8")
    first, second = "--point=0.1,0,-0.2,0.3,0.05,0", "--point=0,0,0,0,0,0"
    alone = (3, "", "error: J not finite at [0.1, 0.0, -0.2, 0.3, 0.05, 0.0]\n")
    assert run_cli(capsys, command, str(path), first) == alone
    assert run_cli(capsys, command, str(path), first, second) == alone


def test_submanifold_builds_no_derivative_trees(tmp_path, capsys, monkeypatch):
    # the map's third derivatives come from one third-order jet of the map
    monkeypatch.syspath_prepend(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    path = importlib.import_module("perfbench.workloads")._sub_files(str(tmp_path))["chart"]

    def refuse(*args):
        raise RuntimeError("gradients called on a command path")

    monkeypatch.setattr(ex, "gradients", refuse)
    code, out, err = run_cli(capsys, "submanifold", path, "--point=1,1.2,0.5", "--point=2,0.8,-1")
    assert code == 0 and err == "" and len(json.loads(out)["points"]) == 2


@pytest.mark.parametrize("command, metric, immersion_map, point", [
    ("analyze", "1e400", None, "0.5,0.5,0"),
    ("analyze", "1 + 1e300*1e300*x*x", None, "0.5,0.5,0"),
    ("submanifold", "1", ["u", "v", "1e400*u"], "0.5,0.5"),
])
def test_non_finite_values_are_one_line_domain_errors(tmp_path, capsys, command, metric,
                                                      immersion_map, point):
    doc = {"name": "r3", "dim": 3, "coordinates": ["x", "y", "z"],
           "metric": [[metric, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    if immersion_map:
        doc["immersion"] = {"coordinates": ["u", "v"], "map": immersion_map}
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:  # a warning is a stderr line too
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, command, str(path), "--point", point)
    assert code == 3 and out == "" and not caught
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "not finite" in lines[0]


@pytest.mark.parametrize("entry", ["tanh(1e400 + 7)", "1 + 7/e^1e400", "1 + x*x/(1e308*10)"])
def test_infinite_constant_subtrees_have_zero_derivatives(tmp_path, capsys, entry):
    # each entry is 1 near the point; its constant subtrees are infinite, and
    # their derivatives are exactly zero, not inf * 0
    doc = {"name": "r3", "dim": 3, "coordinates": ["x", "y", "z"],
           "metric": [[entry, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(path), "--point", "0.5,0.5,0")
    assert code == 0 and err == ""
    assert strict_json(out)["points"][0]["scalar_curvature"] == 0.0


def test_classify_j_plus_identity_is_data(tmp_path, capsys):
    # J = +I is no almost complex structure: j_squared fails, nothing raises
    coords = ["a", "b", "c", "d"]
    eye = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    doc = {"name": "jplus", "dim": 4, "coordinates": coords, "metric": eye,
           "complex_structure": eye}
    path = tmp_path / "jplus.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("classify", "analyze"):
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 0, err
        checks = {c["name"]: c for c in strict_json(out)["checks"]}
        assert checks["j_squared"]["residual"] == 2.0 and not checks["j_squared"]["pass"]
        assert checks["j_compatible"]["pass"]
