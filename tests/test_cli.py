import json
import warnings

import numpy as np
import pytest

from hermgeo import cli, models, reportio
from hermgeo import curvature as cv
from hermgeo import expressions as ex


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


def test_verify_theorem(capsys):
    code, out, _ = run_cli(capsys, "verify-theorem", "--m", "2", "--frames", "32")
    assert code == 0
    doc = json.loads(out)
    assert doc["theorem"]["pass"] and doc["schouten"]["pass"]
    assert doc["theorem"]["nullspace_dim"] == 10
    assert doc["containment_residual"] <= 1e-9


def test_verify_theorem_failed_certificate_exits_5(capsys):
    # converged rank, but no Weyl norm is below 1e-30: a failed certificate
    code, out, err = run_cli(capsys, "verify-theorem", "--m", "2", "--tol", "1e-30")
    assert code == 5
    doc = json.loads(out)
    assert not doc["theorem"]["pass"] and doc["theorem"]["nullspace_dim"] == 10
    assert err == "error: certificate failed: theorem, schouten\n"


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
    _, out_c, _ = run_cli(capsys, "verify-theorem", "--m", "2", "--frames", "16")
    _, out_d, _ = run_cli(capsys, "verify-theorem", "--m", "2", "--frames", "16")
    assert out_c == out_d


def test_report_floats_survive_roundtrip(tmp_path, capsys):
    path = write_model(tmp_path, "fubini_study", m=2)
    _, out, _ = run_cli(capsys, "classify", path, "--point", "0.1,0.2,0.0,-0.1")
    doc = json.loads(out)
    # 17 significant digits: re-serializing the parsed floats is lossless
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
])
def test_out_of_range_input_is_usage_error(tmp_path, capsys, argv):
    path = write_model(tmp_path, "fubini_study", m=2)
    code, _, err = run_cli(capsys, *[path if a == "FILE" else a for a in argv])
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_analyze_one_sample_is_valid_json(tmp_path, capsys):
    path = write_model(tmp_path, "fubini_study", m=2)
    code, out, _ = run_cli(capsys, "analyze", path, "--samples", "1")
    assert code == 0
    assert strict_json(out)["points"][0]["holomorphic_sectional"]["std"] == 0.0


@pytest.mark.parametrize("name", ["fubini_study", "flat_kahler"])
def test_two_dimensional_chart_with_j(tmp_path, capsys, name):
    # antiholomorphic planes need X orthogonal to Y and JY: none in dimension 2
    path = write_model(tmp_path, name, m=1)
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 0, err
    doc = strict_json(out)
    assert doc["points"][0]["constant_type"] is None
    assert doc["points"][0]["holomorphic_sectional"]["std"] <= 1e-12
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


def test_non_finite_report_value_is_domain_error(tmp_path, capsys, monkeypatch):
    path = write_model(tmp_path, "fubini_study", m=2)
    monkeypatch.setattr(cv, "relative_weyl_norm", lambda pd: float("nan"))
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


@pytest.mark.parametrize("name, param", [
    ("flat_kahler", "m=2.5"), ("fubini_study", "m=1.5"), ("round_sphere", "n=4.5"),
    ("round_sphere", "r=abc"), ("round_sphere", "r=-1"), ("hyperbolic", "q=1"),
])
def test_models_emit_bad_param_is_usage_error(capsys, name, param):
    code, out, err = run_cli(capsys, "models", "emit", name, "--param", param)
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


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
