"""Each hermgeo module imports on its own in a fresh interpreter.

The package ``__init__`` imports every module in one fixed order, so a plain
``import hermgeo.<m>`` would always enter the models <-> reportio cycle from
the same side.  Here a bare package object stands in for ``__init__`` and the
named module is the first hermgeo module to run: a module-level use of the
other side of the cycle fails whichever side is imported first.

Every command, the certificate included, loads numpy and the scipy package
root only; nothing loads ``scipy.linalg``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hermgeo"
MODULES = ["axioms", "classify", "cli", "curvature", "expressions", "frames",
           "immersions", "models", "reportio"]


def test_module_list_is_complete():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(MODULES + ["__init__"])


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    code = ("import sys, types\n"
            "package = types.ModuleType('hermgeo')\n"
            f"package.__path__ = [{str(PACKAGE)!r}]\n"
            "sys.modules['hermgeo'] = package\n"
            f"import hermgeo.{module}\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


# Chart commands on emitted built-in models, then a certificate, in one fresh
# interpreter; prints which scipy submodules were loaded after each stage.
_STARTUP = r"""
import contextlib, io, json, sys
from hermgeo import cli

def loaded():
    return sorted(m for m in ("scipy.linalg", "scipy.sparse") if m in sys.modules)

def emit(name):
    path = f"{sys.argv[1]}/{name}.json"
    assert cli.main(["models", "emit", name, "--out", path]) == 0
    return path

with contextlib.redirect_stdout(io.StringIO()):
    sphere = emit("round_sphere")
    with open(sphere) as fh:
        doc = json.load(fh)
    doc["immersion"] = {"coordinates": ["a", "b", "c"], "map": [
        "0.5*sin(a)*sin(b)*cos(c)", "0.5*sin(a)*sin(b)*sin(c)", "0.5*sin(a)*cos(b)",
        "0.5*cos(a)"]}
    with open(sphere, "w") as fh:
        json.dump(doc, fh)
    codes = [cli.main(["analyze", emit("fubini_study")]),
             cli.main(["classify", emit("s6_nearly_kahler")]),
             cli.main(["submanifold", sphere, "--point", "1,1,0.5"])]
    after_charts = loaded()
    certificate = cli.main(["verify-theorem", "--m", "2"])
print(json.dumps({"codes": codes, "after_charts": after_charts,
                  "certificate": certificate, "after_certificate": loaded()}))
"""


def test_chart_commands_leave_scipy_linalg_unloaded(tmp_path):
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", _STARTUP, str(tmp_path)], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [0, 0, 0]
    assert out["after_charts"] == []
    assert out["certificate"] == 0
    assert out["after_certificate"] == []
