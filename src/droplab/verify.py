"""Verification suites: each one checks an analytical claim against Monte
Carlo measurement or exact evaluation and emits check records for the CLI's
JSON report.

The suites run one after another on the calling thread.  The Berry-Esseen
and altitude suites run their Monte Carlo configs on one thread per usable
CPU, each config on its own stream, so the report does not depend on the
CPU count.
"""

from __future__ import annotations

import numpy as np

from .bounds import berry_esseen_check, gaussian_tail_check, margin_condition
# no suite calls it: bench/spans.py binds verify.excess_risk_decomposition
from .diagnostics import excess_risk_decomposition  # noqa: F401
from .diagnostics import thinned_topic_rates
from .experiments import VERSION, run_altitude_sweep, run_bias_check
from .presets import (berry_esseen_suite, default_sweep_configs,
                      equal_length_models, orthogonal_topic_model,
                      unequal_length_control)
from .streams import make_rng, map_streams

TAIL_GRID = (0.1, 0.5, 1.0, 2.0, 4.0, 8.0)
BIAS_DELTAS = (0.25, 0.5, 0.9)
BIAS_BUDGET = 6
POSTERIOR_GAP_TOL = 1e-10
MARGIN_LENGTHS = (100.0, 400.0, 1600.0)
MARGIN_DELTA = 0.5
MARGIN_ATOL = 1e-9


def run_tails_suite(seed: int, mc: int) -> list[dict]:
    return [
        {"suite": "tails", "name": f"t={e.t:g}", "passed": e.strict,
         "lower": e.lower, "middle": e.middle, "upper": e.upper}
        for e in gaussian_tail_check(TAIL_GRID)
    ]


def run_berry_esseen_suite(seed: int, mc: int) -> list[dict]:
    # one config per usable CPU, each on the stream of its index
    configs = berry_esseen_suite()
    reports = map_streams(
        lambda k: berry_esseen_check(
            *configs[k], mc, make_rng(seed, "verify-berry-esseen", k)),
        range(len(configs)))
    return [{
        "suite": "berry-esseen",
        "name": f"config-{k} (concentration {rep.be_stat:.3g})",
        "passed": rep.passed,
        "sup_distance": rep.sup_distance,
        "bound": rep.bound, "dkw_slack": rep.slack, "samples": mc,
    } for k, rep in enumerate(reports)]


def run_altitude_suite(seed: int, mc: int) -> list[dict]:
    results = run_altitude_sweep(default_sweep_configs(), mc, master_seed=seed)
    checks = []
    for r in results:
        name = (f"z={r.config.intensity[0] - r.config.intensity[1]:g}/"
                f"sigma delta={r.config.delta:g}")
        check = {
            "suite": "altitude", "name": name,
            "passed": r.bound_holds,
            "eps": r.eps, "eps_thinned": r.eps_thinned,
            "gaussian_eps": r.gaussian_eps,
            "gaussian_eps_thinned": r.gaussian_eps_thinned,
            "bound_value": r.bound.value, "bound_vacuous": r.bound.vacuous,
            "exponent": r.exponent, "exponent_target": r.exponent_target,
            "samples": mc,
        }
        if r.bound.vacuous:
            check["note"] = ("bound vacuous at this concentration; "
                             "nothing to check")
        checks.append(check)
    # unthinned control: paired sampling makes the exponent exactly 1
    control = results[-1]
    checks.append({
        "suite": "altitude", "name": "delta=0 exponent control",
        "passed": bool(abs(control.exponent - 1.0) <= 1e-12),
        "exponent": control.exponent,
    })
    return checks


def run_bias_suite(seed: int, mc: int) -> list[dict]:
    checks = []
    for k, model in enumerate(equal_length_models()):
        rep = run_bias_check(model, BIAS_DELTAS, BIAS_BUDGET)
        for delta, gap in rep.max_gap.items():
            checks.append({
                "suite": "bias",
                "name": f"equal-length model {k} delta={delta:g}",
                "passed": bool(gap <= POSTERIOR_GAP_TOL),
                "max_gap": gap, "worst_vector": list(rep.worst_vector[delta]),
            })
    control = run_bias_check(unequal_length_control(), (0.5,), BIAS_BUDGET)
    gap = control.max_gap[0.5]
    checks.append({
        "suite": "bias", "name": "unequal-length negative control delta=0.5",
        "passed": bool(gap >= 0.05),
        "max_gap": gap,
    })
    return checks


def run_margin_suite(seed: int, mc: int) -> list[dict]:
    checks = []
    for length in MARGIN_LENGTHS:
        model = orthogonal_topic_model(length)
        rep = margin_condition(model, MARGIN_DELTA)
        base = f"length={length:g}"
        checks.append({
            "suite": "margin", "name": f"{base} condition",
            "passed": rep.holds,
            "min_singular_value": rep.min_singular_value,
            "threshold": rep.threshold,
        })
        checks.append({
            "suite": "margin", "name": f"{base} unit margins",
            "passed": bool(rep.max_margin_error <= MARGIN_ATOL),
            "max_margin_error": rep.max_margin_error,
        })
        checks.append({
            "suite": "margin", "name": f"{base} separator norm",
            "passed": bool(rep.separator_norm <= rep.norm_bound + MARGIN_ATOL),
            "separator_norm": rep.separator_norm,
            "norm_bound": rep.norm_bound,
        })
        worst = float(np.max(thinned_topic_rates(model, rep.separator,
                                                 MARGIN_DELTA)))
        target = 1.0 / np.sqrt(length)
        checks.append({
            "suite": "margin", "name": f"{base} per-topic thinned error",
            "passed": bool(worst <= target),
            "worst_rate": worst, "target": target,
        })
    return checks


_SUITE_RUNNERS = {
    "tails": run_tails_suite,
    "berry-esseen": run_berry_esseen_suite,
    "altitude": run_altitude_suite,
    "bias": run_bias_suite,
    "margin": run_margin_suite,
}
VERIFY_SUITES = tuple(_SUITE_RUNNERS)


def run_verification(suite: str, mc: int, seed: int) -> dict:
    """Run one suite or all, in VERIFY_SUITES order; return the report."""
    if mc < 1:
        raise ValueError(f"mc must be >= 1, got {mc}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if suite != "all" and suite not in _SUITE_RUNNERS:
        raise ValueError(f"unknown suite {suite!r}; "
                         f"choose from {', '.join(VERIFY_SUITES)} or all")
    names = VERIFY_SUITES if suite == "all" else (suite,)
    checks = [c for n in names for c in _SUITE_RUNNERS[n](seed=seed, mc=mc)]
    return {
        "meta": {"version": VERSION,
                 "config": {"suite": suite, "mc": mc, "seed": seed}},
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
