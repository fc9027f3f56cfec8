"""The benchmark workloads: how each builds its inputs from a seed, what its
timed body calls, and how its output is checked.

Bodies reach droplab through module attributes looked up at call time
(``experiments.run_learning_curves``, ``topics.bayes_error``, ...), so the
traced run can time them by rebinding those attributes (see spans.py).

An operation is one unit that can pass or fail: a grid cell for
curves-dropout; for verify-exact, a verification check or an exact reference
value.
``check`` returns ``(attempted, failed)``; ``attempted`` is fixed by the
workload's size, so a body that raises counts every operation as failed.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from droplab import bounds, experiments, presets, serialize, topics, verify
from droplab.classifiers import TrainConfig
from droplab.dropout import DropoutConfig

# A cell whose test error reaches this has not learned the synthetic task
# (chance is 0.5).  Naive Bayes at n = 100 has a heavy tail: over 500 trials
# (seeds 0-249) its worst cell reached 0.214, and 2% of trials passed 0.10.
CURVE_ERROR_CEILING = 0.35
# Number of checks run_verification("all") emits at the seed commit; used as
# the attempted count only when the body raises before producing a report.
VERIFY_CHECKS = 38
# exact-part tolerances: the bias gap is verify.POSTERIOR_GAP_TOL and the
# margin error verify.MARGIN_ATOL; these two are the benchmark's own.
BAYES_RTOL = 1e-12
TRUNCATION_MASS_MAX = 1e-12
# bayes_error of equal_length_models()[1] rescaled to each expected length,
# recorded at the seed commit.
BAYES_REFERENCE = {
    10.0: 0.22947566431033045,
    40.0: 0.18134132312907808,
    60.0: 0.18013554501048848,
    80.0: 0.1800141510062837,
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def grid_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


# --- curves-dropout ----------------------------------------------------------

# thinning and the dropout trainer; uneven cells (dropout vs NB)
CURVE_SIZE = dict(n_grid=(100, 300), delta_grid=(0.0, 0.9, 1.0), trials=2,
                  test_size=20_000, epochs=50, mc=4)
CURVE_SMOKE = dict(n_grid=(100,), delta_grid=(0.0, 0.5, 1.0), trials=1,
                   test_size=500, epochs=3, mc=2)


def curves_build(seed: int, smoke: bool):
    size = CURVE_SMOKE if smoke else CURVE_SIZE
    cfg = TrainConfig(l2_weight=1e-7, epochs=size["epochs"],
                      dropout=DropoutConfig(delta=0.0,
                                            mc_replicates=size["mc"]))
    return experiments.CurveSpec(
        sampler=topics.build_synthetic_model(), n_grid=size["n_grid"],
        delta_grid=size["delta_grid"], trials=size["trials"],
        test_size=size["test_size"], train_cfg=cfg, master_seed=seed,
        sampler_name=topics.SYNTHETIC_PRESET)


def curves_run(spec):
    return experiments.run_learning_curves(spec, threads=grid_threads())


def curves_check(spec, result) -> tuple[int, int]:
    attempted = len(spec.n_grid) * len(spec.delta_grid) * spec.trials
    if result is None:
        return attempted, attempted
    ok = sum(1 for r in result.records
             if not r.note and math.isfinite(r.train_error)
             and math.isfinite(r.test_error)
             and r.test_error < CURVE_ERROR_CEILING)
    return attempted, attempted - ok


def curves_digest(result) -> str:
    return _sha256(experiments.curve_csv(result))


def cell_metrics(result, grid_s: float) -> dict:
    """Cell wall times from the public CurveRecord.wall_time_ms, and the
    grid's parallel efficiency; zero for bodies that run no grid."""
    if not isinstance(result, experiments.CurveResult) or grid_s <= 0.0:
        return {"experiments.cell_s_p50": 0.0, "experiments.cell_s_max": 0.0,
                "experiments.cell_busy_s": 0.0,
                "experiments.parallel_eff": 0.0}
    cells = np.array([r.wall_time_ms for r in result.records]) / 1000.0
    return {"experiments.cell_s_p50": float(np.median(cells)),
            "experiments.cell_s_max": float(cells.max()),
            "experiments.cell_busy_s": float(cells.sum()),
            "experiments.parallel_eff":
                float(cells.sum()) / (grid_threads() * grid_s)}


# --- verify-exact, part 1: run_verification("all") ---------------------------

def verify_build(seed: int, smoke: bool):
    return {"seed": seed, "mc": 20_000 if smoke else 1_000_000}


def verify_run(inputs):
    return verify.run_verification("all", mc=inputs["mc"], seed=inputs["seed"])


def verify_check(inputs, report) -> tuple[int, int]:
    if report is None:
        return VERIFY_CHECKS, VERIFY_CHECKS
    checks = report["checks"]
    return len(checks), sum(1 for c in checks if not c["passed"])


def verify_digest(report) -> str:
    return _sha256(serialize.dumps(report, indent=2) + "\n")


# --- verify-exact, part 2: exact Bayes error, bias check, margins ------------

EXACT_SIZES = dict(lengths=(40.0, 60.0, 80.0), bias_deltas=(0.25, 0.5, 0.9),
                   v_budget=14, margin_lengths=(100.0, 400.0, 1600.0))
EXACT_SMOKE = dict(lengths=(10.0,), bias_deltas=(0.5,), v_budget=4,
                   margin_lengths=(100.0,))


def _rescaled(model: topics.TopicModel, length: float) -> topics.TopicModel:
    """The model with every topic's intensity scaled to expected `length`."""
    return topics.TopicModel(
        label_prior=model.label_prior, vocab_size=model.vocab_size,
        topics=tuple(topics.Topic(id=t.id, rho0=t.rho0, rho1=t.rho1,
                                  intensity=t.intensity * (length
                                                           / t.doc_length))
                     for t in model.topics))


def exact_build(seed: int, smoke: bool):
    # no randomness: the seed does not enter
    size = EXACT_SMOKE if smoke else EXACT_SIZES
    base = presets.equal_length_models()[1]
    return dict(size, base=base,
                scaled={L: _rescaled(base, L) for L in size["lengths"]},
                margin_models={L: presets.orthogonal_topic_model(L)
                               for L in size["margin_lengths"]})


def exact_run(inputs):
    errors = {L: topics.bayes_error(m) for L, m in inputs["scaled"].items()}
    bias = experiments.run_bias_check(inputs["base"], inputs["bias_deltas"],
                                      inputs["v_budget"])
    margins = {L: bounds.margin_condition(m, verify.MARGIN_DELTA)
               for L, m in inputs["margin_models"].items()}
    return {
        "bayes_error": {str(L): {"value": r.value,
                                 "truncation_mass": r.truncation_mass,
                                 "n_cells": r.n_cells}
                        for L, r in errors.items()},
        "bias_gap": {str(d): g for d, g in bias.max_gap.items()},
        "equal_length": bias.equal_length,
        "margin_error": {str(L): r.max_margin_error
                         for L, r in margins.items()},
    }


def exact_check(inputs, values) -> tuple[int, int]:
    attempted = (len(inputs["lengths"]) + len(inputs["bias_deltas"])
                 + len(inputs["margin_lengths"]))
    if values is None:
        return attempted, attempted
    ok = 0
    for L in inputs["lengths"]:
        r = values["bayes_error"][str(L)]
        ref = BAYES_REFERENCE[L]
        ok += (abs(r["value"] - ref) <= BAYES_RTOL * ref
               and r["truncation_mass"] <= TRUNCATION_MASS_MAX)
    ok += sum(values["equal_length"] and g <= verify.POSTERIOR_GAP_TOL
              for g in values["bias_gap"].values())
    ok += sum(e <= verify.MARGIN_ATOL for e in values["margin_error"].values())
    return attempted, attempted - ok


def exact_digest(values) -> str:
    return _sha256(serialize.dumps(values, indent=2) + "\n")


# --- verify-exact: the two parts back to back --------------------------------

def verify_exact_build(seed: int, smoke: bool):
    return {"verify": verify_build(seed, smoke),
            "exact": exact_build(seed, smoke)}


def verify_exact_run(inputs):
    return {"verify": verify_run(inputs["verify"]),
            "exact": exact_run(inputs["exact"])}


def verify_exact_check(inputs, out) -> tuple[int, int]:
    v = verify_check(inputs["verify"], out and out["verify"])
    e = exact_check(inputs["exact"], out and out["exact"])
    return v[0] + e[0], v[1] + e[1]


def verify_exact_digest(out) -> str:
    return _sha256(verify_digest(out["verify"]) + exact_digest(out["exact"]))


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    build: Callable[[int, bool], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], tuple[int, int]]
    digest: Callable[[Any], str]


WORKLOADS = {
    "curves-dropout": Workload(curves_build, curves_run, curves_check,
                               curves_digest),
    "verify-exact": Workload(verify_exact_build, verify_exact_run,
                             verify_exact_check, verify_exact_digest),
}
