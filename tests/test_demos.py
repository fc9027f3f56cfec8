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
    if name == "error_exponentiation":
        # the z = 5 row's exact raw rate, 2.9e-7, is about 0.6 errors in
        # 2,000,000 documents: with none it prints the resolution limit and
        # no exponent, where 0.000e+00 and nan were printed
        row = next(line for line in out.stdout.splitlines()
                   if line.lstrip().startswith("(20500, 19500)"))
        eps, exponent, target = row.split()[3], *row.split()[-2:]
        assert (eps == "<5.000e-07") == (exponent == "n/a")
        assert target == "2.000"


def test_error_exponentiation_shows_a_zero_rate_as_its_limit():
    spec = importlib.util.spec_from_file_location(
        "error_exponentiation", DEMOS / "error_exponentiation.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.rate(0.0, 2_000_000) == "<5.000e-07"
    assert module.rate(5e-7, 2_000_000) == "5.000e-07"


@pytest.mark.parametrize("name", ["influence_geometry",
                                  "learning_curves_quicklook"])
def test_slow_demo_imports(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
