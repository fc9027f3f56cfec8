"""Verification suites: each one checks an analytical claim against Monte
Carlo measurement or exact evaluation and emits check records for the CLI's
JSON report.

Each suite draws only from its own `make_rng(seed, tag, k)` streams, so the
suites run concurrently: the calling thread runs the longest one and a pool
of one thread per further usable CPU runs the rest, longest first
(`rng.poisson` and `rng.binomial` release the GIL).  The report lists the
checks in `VERIFY_SUITES` order, so its bytes do not depend on the number of
CPUs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .bounds import berry_esseen_check, gaussian_tail_check, margin_condition
from .classifiers import LinearClassifier
from .diagnostics import excess_risk_decomposition
from .experiments import (VERSION, run_altitude_sweep, run_bias_check,
                          usable_cpus)
from .presets import (berry_esseen_suite, default_sweep_configs,
                      equal_length_models, orthogonal_topic_model,
                      unequal_length_control)
from .stats import binomial_se
from .streams import make_rng

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
    checks = []
    for k, (w, lam) in enumerate(berry_esseen_suite()):
        rng = make_rng(seed, "verify-berry-esseen", k)
        rep = berry_esseen_check(w, lam, mc, rng)
        checks.append({
            "suite": "berry-esseen",
            "name": f"config-{k} (concentration {rep.be_stat:.3g})",
            "passed": rep.passed,
            "sup_distance": rep.sup_distance,
            "bound": rep.bound, "dkw_slack": rep.slack, "samples": mc,
        })
    return checks


def run_altitude_suite(seed: int, mc: int) -> list[dict]:
    results = run_altitude_sweep(default_sweep_configs(), mc, master_seed=seed)
    checks = []
    for r in results:
        name = (f"z={r.config.intensity[0] - r.config.intensity[1]:g}/"
                f"sigma delta={r.config.delta:g}")
        check = {
            "suite": "altitude", "name": name,
            "passed": r.bound.vacuous or bool(r.bound_holds),
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
    for k, length in enumerate(MARGIN_LENGTHS):
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
        clf = LinearClassifier(weights=rep.separator)
        rng = make_rng(seed, "verify-margin", k)
        decomp = excess_risk_decomposition(model, clf, MARGIN_DELTA, mc, rng)
        target = 1.0 / np.sqrt(length)
        worst = 0.0
        ok = True
        unsampled = []
        for topic, td in zip(model.topics, decomp.per_topic):
            if td.n_samples == 0:
                unsampled.append(f"{topic.id:g}")
                continue
            tol = target + 3.0 * binomial_se(td.suboptimal_rate_thinned,
                                             td.n_samples)
            worst = max(worst, td.suboptimal_rate_thinned)
            ok = ok and (td.suboptimal_rate_thinned <= tol)
        check = {
            "suite": "margin", "name": f"{base} per-topic thinned error",
            "passed": bool(ok and not unsampled),
            "worst_rate": worst, "target": target, "samples": mc,
        }
        if unsampled:
            check["note"] = (f"topic(s) {', '.join(unsampled)} drew no "
                             f"documents; thinned error unmeasured")
        checks.append(check)
        checks.append({
            "suite": "margin", "name": f"{base} counting identity",
            "passed": decomp.identity_residual <= decomp.identity_tolerance,
            "residual": decomp.identity_residual,
            "tolerance": decomp.identity_tolerance, "samples": mc,
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
# longest first, by run time at --mc 1000000 on a 2-vCPU host: margin 2.1 s,
# altitude 1.2 s, berry-esseen 0.6 s, bias 0.01 s, tails less
_LONGEST_FIRST = ("margin", "altitude", "berry-esseen", "bias", "tails")


def run_verification(suite: str = "all", mc: int = 1_000_000,
                     seed: int = 0) -> dict:
    """Run one or all verification suites and assemble the JSON-ready report."""
    if mc < 1:
        raise ValueError(f"mc must be >= 1, got {mc}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if suite == "all":
        names = list(VERIFY_SUITES)
    elif suite in _SUITE_RUNNERS:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; "
                         f"choose from {', '.join(VERIFY_SUITES)} or all")

    def run(name):
        return _SUITE_RUNNERS[name](seed=seed, mc=mc)

    order = sorted(names, key=_LONGEST_FIRST.index)
    workers = min(len(names), usable_cpus()) - 1
    if workers < 1:
        found = {name: run(name) for name in order}
    else:
        # the calling thread runs the longest suite itself: memory a pool
        # thread frees stays in that thread's malloc arena, out of reach of
        # whatever the calling thread allocates next
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            later = {name: pool.submit(run, name) for name in order[1:]}
            found = {order[0]: run(order[0])}
            found.update((name, f.result()) for name, f in later.items())
        finally:
            pool.shutdown(cancel_futures=True)
    checks = [c for name in names for c in found[name]]
    return {
        "meta": {"version": VERSION,
                 "config": {"suite": suite, "mc": mc, "seed": seed}},
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
