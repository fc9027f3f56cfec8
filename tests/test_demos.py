"""The demo scripts run against the current library.

The four quick demos run to completion as scripts; the two that take
minutes are only imported, and their `main` must be callable.
"""

import importlib.util
from pathlib import Path

import pytest

from oracles import run_python

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["posterior_preservation",
                                  "gaussian_score_accuracy",
                                  "margin_separator",
                                  "error_exponentiation"])
def test_demo_runs(name):
    out = run_python(str(DEMOS / f"{name}.py"))
    assert out.returncode == 0, out.stderr
    assert out.stdout
    if name == "margin_separator":
        # the length-100 row's worst rate is exact: e^-50, not a zero count
        row = next(line for line in out.stdout.splitlines()
                   if line.split()[:1] == ["100"])
        assert "1.93e-22" in row


@pytest.mark.parametrize("name", ["influence_geometry",
                                  "learning_curves_quicklook"])
def test_slow_demo_imports(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
