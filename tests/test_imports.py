"""Each hermgeo module imports on its own in a fresh interpreter.

The package ``__init__`` imports every module in one fixed order, so a plain
``import hermgeo.<m>`` would always enter the models <-> reportio cycle from
the same side.  Here a bare package object stands in for ``__init__`` and the
named module is the first hermgeo module to run: a module-level use of the
other side of the cycle fails whichever side is imported first.
"""

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
