"""Experiment harness: learning curves, influence geometry, posterior
preservation checks, and the thinning-exponent sweep.

Every cell of every grid owns a random stream derived from the master seed
and the cell coordinates, and every fixed block of a learning-curve test set
owns one derived from (seed, trial, block), so results are independent of
scheduling, of the thread count and of which other cells run, and any cell
can be reproduced in isolation.  The cells run serially; `threads` sizes the
pool that samples the test sets (`rng.poisson` releases the GIL, thinning
and the trainers do not).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import serialize
from .bounds import BoundReport, altitude_error_bound, gaussian_error_estimate
from .classifiers import (LinearClassifier, TrainConfig, error_by_topic,
                          evaluate_error, recalibrate_intercept,
                          train_logistic, train_logistic_dropout,
                          train_naive_bayes)
from .diagnostics import berry_esseen_statistic, score_moments
from .dropout import dropout_posterior, thin_counts
from .streams import make_rng, seed_fingerprint
from .topics import (DocumentBatch, GenerativeSampler, Topic, TopicModel,
                     bayes_posterior, enumerate_counts, sample_documents)

VERSION = "0.1.0"

_CELL_TAG = "curve-cell"
_TEST_TAG = "curve-test"
_TEST_BLOCK_ROWS = 8_192    # test-set rows per sampling block and stream
_SWEEP_CHUNK = 1_000_000    # sweep documents per Poisson draw
_SWEEP_ROWS = 65_536        # sweep documents thinned and scored at a time
NB_SMOOTHING = 1.0          # naive Bayes smoothing: curves, train's default


@dataclass(frozen=True)
class CurveSpec:
    """Grid specification for a learning-curve run."""

    sampler: GenerativeSampler
    n_grid: tuple[int, ...]
    delta_grid: tuple[float, ...]
    trials: int
    test_size: int
    train_cfg: TrainConfig
    master_seed: int
    sampler_name: str = ""

    def __post_init__(self):
        if not self.n_grid or not self.delta_grid:
            raise ValueError("n_grid and delta_grid must be non-empty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if any(n < 1 for n in self.n_grid) or self.test_size < 1:
            raise ValueError("sizes must be positive")
        if any(not 0.0 <= d <= 1.0 for d in self.delta_grid):
            raise ValueError("delta values must lie in [0, 1]")
        for name, grid in (("n_grid", self.n_grid),
                           ("delta_grid", self.delta_grid)):
            for v in grid:
                if grid.count(v) > 1:  # by equality: 0 and -0 are one cell
                    raise ValueError(f"{name} repeats the value {v:g}")
        if self.master_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.master_seed}")

    def describe(self) -> dict:
        # a model from a file is written out whole, so the header alone
        # reproduces the run; a preset is its name and parameters
        if isinstance(self.sampler, TopicModel):
            model = {"model": self.sampler.to_dict()}
        else:
            model = {"model": self.sampler_name
                     or getattr(self.sampler, "name", "custom"),
                     "model_params": dict(getattr(self.sampler, "params",
                                                  {}))}
        return {
            **model,
            "n_grid": list(self.n_grid),
            "delta_grid": list(self.delta_grid),
            "trials": self.trials,
            "test_size": self.test_size,
            "l2_weight": self.train_cfg.l2_weight,
            "epochs": self.train_cfg.epochs,
            "step_size": self.train_cfg.step_size,
            "nb_smoothing": NB_SMOOTHING,
            "master_seed": self.master_seed,
        }


@dataclass(frozen=True)
class CurveRecord:
    n: int
    delta: float
    trial: int
    test_error: float
    train_error: float
    wall_time_ms: float
    seed: int
    note: str


@dataclass(frozen=True)
class CurveResult:
    spec: CurveSpec
    records: tuple[CurveRecord, ...]

    def cell_mean(self, n: int, delta: float) -> float:
        errs = [r.test_error for r in self.records
                if r.n == n and r.delta == delta and not np.isnan(r.test_error)]
        return float(np.mean(errs)) if errs else float("nan")


def fit_classifier(train: DocumentBatch, cfg: TrainConfig,
                   nb_smoothing: float = NB_SMOOTHING) -> LinearClassifier:
    """The classifier droplab fits at thinning rate cfg.dropout.delta.

    delta = 1 is naive Bayes (the full-thinning endpoint), delta = 0 plain
    logistic regression, anything between dropout-trained logistic
    regression; the intercept is then recalibrated on the training set.
    """
    delta = cfg.dropout.delta
    if delta == 1.0:
        clf = train_naive_bayes(train, smoothing=nb_smoothing)
    elif delta == 0.0:
        clf = train_logistic(train, cfg)
    else:
        clf = train_logistic_dropout(train, cfg)
    return recalibrate_intercept(clf, train)


def _at_delta(cfg: TrainConfig, delta: float) -> TrainConfig:
    return replace(cfg, dropout=replace(cfg.dropout, delta=delta))


def _run_cell(spec: CurveSpec, n: int, delta_idx: int, trial: int,
              test: DocumentBatch) -> CurveRecord:
    # streams derive from the delta value (not its grid position) so a cell's
    # record never depends on which other cells are in the grid
    delta = spec.delta_grid[delta_idx]
    started = time.perf_counter()
    rng = make_rng(spec.master_seed, _CELL_TAG, n, delta, trial)
    fingerprint = seed_fingerprint(spec.master_seed, _CELL_TAG, n, delta, trial)
    # the trainers draw nothing; this draw keeps each cell's training-set
    # stream, so the delta = 0 and delta = 1 rows stay as they were
    rng.integers(0, 2 ** 31 - 1)
    note = ""
    try:
        train = sample_documents(spec.sampler, n, rng)
        clf = fit_classifier(train, _at_delta(spec.train_cfg, delta),
                             nb_smoothing=NB_SMOOTHING)
        train_error = evaluate_error(clf, train)
        test_error = evaluate_error(clf, test)
    except ValueError as exc:
        train_error = test_error = float("nan")
        note = f"{type(exc).__name__}: {exc}"
    wall = (time.perf_counter() - started) * 1000.0
    return CurveRecord(n=n, delta=delta, trial=trial, test_error=test_error,
                       train_error=train_error, wall_time_ms=wall,
                       seed=fingerprint, note=note)


def _sample_test_block(spec: CurveSpec, trial: int, block: int
                       ) -> DocumentBatch:
    """Rows [block * _TEST_BLOCK_ROWS, ...) of a trial's test set."""
    rows = min(_TEST_BLOCK_ROWS, spec.test_size - block * _TEST_BLOCK_ROWS)
    return sample_documents(spec.sampler, rows,
                            make_rng(spec.master_seed, _TEST_TAG, trial, block))


def _join_blocks(blocks) -> DocumentBatch:
    # concatenate promotes to the widest block dtype, so no count overflows
    docs = list(blocks)
    return DocumentBatch(counts=np.concatenate([d.counts for d in docs]),
                         labels=np.concatenate([d.labels for d in docs]),
                         topics=np.concatenate([d.topics for d in docs]))


def run_learning_curves(spec: CurveSpec, threads: int = 1) -> CurveResult:
    """Run the full (n, delta, trial) grid.

    Each trial shares one held-out test sample across its cells so grid
    comparisons are paired; each cell samples its own training set, trains
    (delta = 1 means naive Bayes), recalibrates the intercept on the training
    set, and records train/test error.  Cell failures are recorded, not fatal.

    The cells run serially on the calling thread.  `threads` is the size of
    the pool that samples each test set in fixed blocks of _TEST_BLOCK_ROWS
    rows, one stream per block, so no output depends on it.  The pool
    samples trial t + 1's blocks while trial t's cells run; cell wall times
    (written with --timing) therefore overlap that sampling.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    blocks = range(-(-spec.test_size // _TEST_BLOCK_ROWS))
    records: dict[tuple[int, int, int], CurveRecord] = {}
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        # map submits every block at once, so the pool draws trial t + 1's
        # test set while trial t's cells hold the GIL
        pending = pool.map(partial(_sample_test_block, spec, 0), blocks)
        for trial in range(spec.trials):
            test = _join_blocks(pending)
            if trial + 1 < spec.trials:
                pending = pool.map(partial(_sample_test_block, spec,
                                           trial + 1), blocks)
            for n in spec.n_grid:
                for di in range(len(spec.delta_grid)):
                    records[(n, di, trial)] = _run_cell(spec, n, di, trial,
                                                        test)
            # free this trial's test set before the next one is joined
            del test
    finally:
        pool.shutdown(cancel_futures=True)
    ordered = [records[(n, di, t)]
               for n in spec.n_grid
               for di in range(len(spec.delta_grid))
               for t in range(spec.trials)]
    return CurveResult(spec=spec, records=tuple(ordered))


CSV_HEADER = "n,delta,trial,test_error,train_error,wall_time_ms,seed"


def curve_csv(result: CurveResult, include_timing: bool = False) -> str:
    """Render curve records as CSV with a reproducibility header.

    Timings are written as 0 unless include_timing is set, keeping the
    default output byte-identical across reruns with the same seed.
    """
    ff = serialize.format_float
    lines = [
        f"# droplab {VERSION}",
        "# config: " + serialize.dumps(result.spec.describe()),
        f"# seed: {result.spec.master_seed}",
        CSV_HEADER,
    ]
    for r in result.records:
        wall = ff(r.wall_time_ms) if include_timing else "0"
        lines.append(",".join([
            str(r.n), ff(r.delta), str(r.trial), ff(r.test_error),
            ff(r.train_error), wall, str(r.seed),
        ]))
    return "\n".join(lines) + "\n"


def curve_summary(result: CurveResult) -> dict:
    """Per-cell mean and standard error of the test error."""
    cells = []
    for n in result.spec.n_grid:
        for delta in result.spec.delta_grid:
            rows = [r for r in result.records if r.n == n and r.delta == delta]
            errs = np.array([r.test_error for r in rows])
            ok = errs[~np.isnan(errs)]
            k = len(ok)
            mean = float(np.mean(ok)) if k else None
            se = float(np.std(ok, ddof=1) / np.sqrt(k)) if k > 1 else None
            failed = [r.note for r in rows if r.note]
            cells.append({
                "n": n, "delta": delta, "trials": len(rows),
                "mean_test_error": mean, "se_test_error": se,
                "mean_train_error":
                    float(np.nanmean([r.train_error for r in rows]))
                    if k else None,
                "failures": failed,
            })
    return {
        "meta": {"version": VERSION, "config": result.spec.describe(),
                 "seed": result.spec.master_seed},
        "cells": cells,
    }


@dataclass(frozen=True)
class BiasCheckReport:
    """Worst posterior gap between the thinned and raw models."""

    equal_length: bool
    max_gap: dict[float, float]
    worst_vector: dict[float, tuple[int, ...]]


def run_bias_check(model: TopicModel, delta_grid, v_budget: int
                   ) -> BiasCheckReport:
    """Compare thinned-model posteriors with raw posteriors on a count grid.

    For models whose topics share one expected document length the gap is
    zero (thinning preserves the posterior field); models with unequal
    lengths report their nonzero gap as a negative control.
    """
    lengths = model.doc_lengths
    equal = bool(np.max(lengths) - np.min(lengths) <= 1e-9 * np.max(lengths))
    grid = enumerate_counts(model.vocab_size, v_budget)
    raw = bayes_posterior(model, grid)
    max_gap: dict[float, float] = {}
    worst: dict[float, tuple[int, ...]] = {}
    for delta in delta_grid:
        gaps = np.abs(dropout_posterior(model, float(delta), grid) - raw)
        i = int(np.argmax(gaps))  # the first vector reaching the maximum
        max_gap[float(delta)] = float(gaps[i])
        worst[float(delta)] = tuple(int(c) for c in grid[i])
    return BiasCheckReport(equal_length=equal, max_gap=max_gap,
                           worst_vector=worst)


@dataclass(frozen=True)
class SweepConfig:
    """One (weights, intensity, delta) point of the exponent sweep."""

    weights: tuple[float, ...]
    intensity: tuple[float, ...]
    delta: float


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    eps: float
    eps_thinned: float
    gaussian_eps: float
    gaussian_eps_thinned: float
    bound: BoundReport
    bound_holds: bool
    exponent: float
    exponent_target: float


def run_altitude_sweep(configs, mc_budget: int, master_seed: int = 0
                       ) -> list[SweepResult]:
    """Measure raw and thinned sub-optimal rates for fixed linear scores.

    For each configuration the raw counts are sampled from the Poisson
    intensities and thinned binomially (paired); errors are score <= 0 events
    under the positive-class convention (score mean must be positive).  Each
    result reports the Monte Carlo rates, their Gaussian predictions, the
    explicit error bound with its pass/fail (a vacuous bound is inf: a pass),
    and the empirical exponent log(eps) / log(eps_thinned) vs 1 / (1 - delta).
    """
    if mc_budget < 1:
        raise ValueError(f"mc_budget must be >= 1, got {mc_budget}")
    results = []
    for k, cfg in enumerate(configs):
        w = np.asarray(cfg.weights, dtype=float)
        lam = np.asarray(cfg.intensity, dtype=float)
        mu, _ = score_moments(w, lam)
        if mu <= 0:
            raise ValueError("sweep configurations need a positive score mean")
        rng = make_rng(master_seed, "altitude-sweep", k)
        wrong = wrong_thin = 0
        for start in range(0, mc_budget, _SWEEP_CHUNK):
            b = min(_SWEEP_CHUNK, mc_budget - start)
            counts = rng.poisson(lam, size=(b, len(lam)))
            for row in range(0, b, _SWEEP_ROWS):
                raw = counts[row:row + _SWEEP_ROWS]
                thin = thin_counts(raw, cfg.delta, rng)
                wrong += int(np.count_nonzero(raw @ w <= 0.0))
                wrong_thin += int(np.count_nonzero(thin @ w <= 0.0))
            del counts, raw, thin  # before the next chunk is drawn
        eps = wrong / mc_budget
        eps_thin = wrong_thin / mc_budget
        g_eps, g_eps_thin = gaussian_error_estimate(w, lam, cfg.delta)
        be = berry_esseen_statistic(w, lam)
        bound = altitude_error_bound(eps_thin, be, cfg.delta)
        if eps > 0.0 and 0.0 < eps_thin < 1.0:
            exponent = float(np.log(eps) / np.log(eps_thin))
        else:
            exponent = float("nan")
        results.append(SweepResult(
            config=cfg, eps=eps, eps_thinned=eps_thin,
            gaussian_eps=g_eps, gaussian_eps_thinned=g_eps_thin, bound=bound,
            bound_holds=bool(eps <= bound.value), exponent=exponent,
            exponent_target=1.0 / (1.0 - cfg.delta)))
    return results


# the influence demo's two-word, three-cluster geometry: one blue cluster
# (label 0) and a 99:1 red mixture (label 1) whose rare component sits close
# to the blue cluster, all with one expected document length, so thinning
# preserves the posterior field
INFLUENCE_DOC_LENGTH = 400.0
INFLUENCE_WORD1_PROBS = (0.5, 0.8, 0.58)   # blue, common red, rare red
INFLUENCE_RARE_WEIGHT = 0.01
# the influence effect only appears once the plain fit is near its optimum,
# hence the large epoch budget; with d = 2 that stays cheap.  Each arm sets
# its own delta.
INFLUENCE_TRAIN_CFG = TrainConfig(epochs=15_000)
INFLUENCE_EVAL_SIZE = 100_000   # documents in the evaluation sample


def influence_demo_model() -> TopicModel:
    """The influence demo's three-cluster model (constants above)."""
    length = INFLUENCE_DOC_LENGTH
    blue, common, rare = (np.array([p * length, (1.0 - p) * length])
                          for p in INFLUENCE_WORD1_PROBS)
    topics = (
        Topic(id=0, rho0=1.0, rho1=0.0, intensity=blue),
        Topic(id=1, rho0=0.0, rho1=1.0 - INFLUENCE_RARE_WEIGHT,
              intensity=common),
        Topic(id=2, rho0=0.0, rho1=INFLUENCE_RARE_WEIGHT, intensity=rare),
    )
    return TopicModel(label_prior=0.5, topics=topics, vocab_size=2)


@dataclass(frozen=True)
class InfluenceDemoReport:
    clf_plain: LinearClassifier
    clf_dropout: LinearClassifier
    angle_degrees: float
    plain_error_by_cluster: dict[float, float]
    dropout_error_by_cluster: dict[float, float]
    plain_test_error: float
    dropout_test_error: float


def _angle_between(u: np.ndarray, v: np.ndarray) -> float:
    cos = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
    return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))


def run_influence_demo(delta: float, n: int,
                       master_seed: int) -> InfluenceDemoReport:
    """Train plain and thinned classifiers on the three-cluster geometry.

    Reports the angle between the two fitted normals and per-cluster error
    rates on a fresh evaluation sample: thinning redistributes gradient
    influence from the rare hard cluster toward the common easy one.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError("the influence demo needs delta in [0, 1): delta = 1 "
                         "deletes every word, and its endpoint is naive Bayes, "
                         "not a logistic fit")
    model = influence_demo_model()
    rng = make_rng(master_seed, "influence-train")
    train = sample_documents(model, n, rng)

    clf_plain = fit_classifier(train, _at_delta(INFLUENCE_TRAIN_CFG, 0.0))
    clf_drop = clf_plain if delta == 0.0 else fit_classifier(
        train, _at_delta(INFLUENCE_TRAIN_CFG, delta))

    eval_rng = make_rng(master_seed, "influence-eval")
    eval_batch = sample_documents(model, INFLUENCE_EVAL_SIZE, eval_rng)
    return InfluenceDemoReport(
        clf_plain=clf_plain, clf_dropout=clf_drop,
        angle_degrees=_angle_between(clf_plain.weights, clf_drop.weights),
        plain_error_by_cluster=error_by_topic(clf_plain, eval_batch),
        dropout_error_by_cluster=error_by_topic(clf_drop, eval_batch),
        plain_test_error=evaluate_error(clf_plain, eval_batch),
        dropout_test_error=evaluate_error(clf_drop, eval_batch))
