"""Experiment harness: learning curves, influence geometry, posterior
preservation checks, and the thinning-exponent sweep.

Every cell of every grid owns a random stream derived from the master seed
and the cell coordinates, and every fixed block of a learning-curve test set
owns one derived from (seed, trial, block), so results are independent of
scheduling, of the thread count and of which other cells run, and any cell
can be reproduced in isolation.  A learning-curve grid runs on one pool of
`threads` workers: the cells fit on it, and each test block is drawn and
scored on it chunk by chunk.  The draws (`rng.poisson`, `integers`) and
`np.einsum` release the GIL; the `np.repeat` and `np.bincount` that place
a chunk's split words (`topics._sample_chunks`) hold it for much of their
work.  The altitude sweep runs its configurations on one thread per usable
CPU, each drawing its kept and dropped words on two streams of its own
(`rng.poisson` releases the GIL).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import serialize
from .bounds import BoundReport, altitude_error_bound, gaussian_error_estimate
from .classifiers import (LinearClassifier, TrainConfig, error_by_topic,
                          evaluate_error, recalibrate_intercept,
                          train_logistic, train_logistic_dropout,
                          train_naive_bayes)
from .diagnostics import berry_esseen_statistic, score_moments
# no sweep calls thin_counts: bench/spans.py binds experiments.thin_counts
from .dropout import dropout_posterior, thin_counts  # noqa: F401
from .streams import make_rng, map_streams, seed_fingerprint
from .topics import (DocumentBatch, GenerativeSampler, Topic, TopicModel,
                     _sample_chunks, bayes_posterior, enumerate_counts,
                     poisson_rows, sample_documents)

VERSION = "0.1.0"

_CELL_TAG = "curve-cell"
_TEST_TAG = "curve-test"
_TEST_BLOCK_ROWS = 8_192    # test-set rows per pool task and stream
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
    sampler_name: str = ""  # only the benchmark (bench/workloads.py) sets it

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


def _fit_cell(spec: CurveSpec, n: int, delta_idx: int, trial: int
              ) -> tuple[CurveRecord, LinearClassifier | None]:
    """A cell up to its test set: its training set, rule and training error.

    The record holds the fit time and a NaN test error.  A ValueError
    becomes the record's note, with both errors NaN, and no rule.
    """
    # streams derive from the delta value (not its grid position) so a cell's
    # record never depends on which other cells are in the grid
    delta = spec.delta_grid[delta_idx]
    started = time.perf_counter()
    rng = make_rng(spec.master_seed, _CELL_TAG, n, delta, trial)
    fingerprint = seed_fingerprint(spec.master_seed, _CELL_TAG, n, delta, trial)
    note = ""
    try:
        train = sample_documents(spec.sampler, n, rng)
        clf = fit_classifier(train, _at_delta(spec.train_cfg, delta),
                             nb_smoothing=NB_SMOOTHING)
        train_error = evaluate_error(clf, train)
    except ValueError as exc:
        clf, train_error = None, float("nan")
        note = f"{type(exc).__name__}: {exc}"
    wall = (time.perf_counter() - started) * 1000.0
    return CurveRecord(n=n, delta=delta, trial=trial, test_error=float("nan"),
                       train_error=train_error, wall_time_ms=wall,
                       seed=fingerprint, note=note), clf


def _test_block_chunks(spec: CurveSpec, trial: int, block: int):
    """Rows [block * _TEST_BLOCK_ROWS, ...) of a trial's test set, as the
    narrowed chunks of `topics._sample_chunks` on the block's own stream."""
    rows = min(_TEST_BLOCK_ROWS, spec.test_size - block * _TEST_BLOCK_ROWS)
    return _sample_chunks(spec.sampler, rows,
                          make_rng(spec.master_seed, _TEST_TAG, trial, block))


def _score_block(spec: CurveSpec, rules, trial: int, block: int
                 ) -> tuple[list, list[float]]:
    """Each fitted rule's misclassified count on one test block, and its
    scoring seconds.

    The block is scored chunk by chunk as it is drawn and never held.  A
    rule that raises a ValueError gets that error in place of its count and
    is not scored further; a rule of None (a failed fit) is not scored.
    """
    wrong = [0] * len(rules)
    busy = [0.0] * len(rules)
    for chunk in _test_block_chunks(spec, trial, block):
        for i, clf in enumerate(rules):
            if clf is None or isinstance(wrong[i], ValueError):
                continue
            started = time.perf_counter()
            try:
                wrong[i] += int(np.count_nonzero(clf.predict(chunk.counts)
                                                 != chunk.labels))
            except ValueError as exc:
                wrong[i] = exc
            busy[i] += time.perf_counter() - started
    return wrong, busy


def _scored(spec: CurveSpec, fitted, blocks) -> list[CurveRecord]:
    """A trial's records from its fits and its blocks' `_score_block`
    results, merged in block order.

    A cell's test error is its misclassified count summed over the blocks,
    over test_size: an exact integer rounded once, so it equals
    evaluate_error on the joined set bit for bit.  Scoring time is added to
    each cell's fit time, and a ValueError while scoring (the first, in
    block order) fails the cell as one during its fit does.
    """
    out = []
    for i, (record, clf) in enumerate(fitted):
        results = [wrong[i] for wrong, _ in blocks]
        failed = [r for r in results if isinstance(r, ValueError)]
        busy = sum(seconds[i] for _, seconds in blocks)
        if failed:
            record = replace(record, train_error=float("nan"),
                             note=f"{type(failed[0]).__name__}: {failed[0]}")
        elif clf is not None:
            record = replace(record, test_error=sum(results) / spec.test_size)
        out.append(replace(record,
                           wall_time_ms=record.wall_time_ms + busy * 1000.0))
    return out


def run_learning_curves(spec: CurveSpec, threads: int = 1) -> CurveResult:
    """Run the full (n, delta, trial) grid.

    Each trial shares one held-out test sample across its cells so grid
    comparisons are paired; each cell samples its own training set, trains
    (delta = 1 means naive Bayes), recalibrates the intercept on the training
    set, and records train/test error.  Cell failures are recorded, not fatal.

    One pool of `threads` workers does all of the work.  Every trial's cells
    are queued on it first; once a trial's rules are fitted, each of its
    test blocks of _TEST_BLOCK_ROWS rows is queued as one task, which draws
    the block on its own stream (seed, trial, block) and scores every rule
    on each chunk as it is drawn.  No test set or block is held, and no
    output depends on `threads`.  A cell's wall time (written with
    --timing) is its fit time plus its scoring time, both measured while
    other cells and blocks share the CPUs.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    blocks = range(-(-spec.test_size // _TEST_BLOCK_ROWS))
    cells = [(n, di) for n in spec.n_grid
             for di in range(len(spec.delta_grid))]
    records: dict[tuple[int, int, int], CurveRecord] = {}
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        fits = [[pool.submit(_fit_cell, spec, n, di, trial)
                 for n, di in cells] for trial in range(spec.trials)]
        scores = []
        for trial in range(spec.trials):
            fitted = [f.result() for f in fits[trial]]
            rules = [clf for _, clf in fitted]
            scores.append((fitted, [pool.submit(_score_block, spec, rules,
                                                trial, k) for k in blocks]))
        for trial, (fitted, scoring) in enumerate(scores):
            scored = _scored(spec, fitted, [f.result() for f in scoring])
            records.update(((n, di, trial), r)
                           for (n, di), r in zip(cells, scored))
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


def _sweep_errors(cfg: SweepConfig, mc_budget: int,
                  kept_rng: np.random.Generator,
                  dropped_rng: np.random.Generator) -> tuple[int, int]:
    """Raw and thinned score <= 0 counts over mc_budget paired documents.

    By thinning closure a Poisson(lam) document thinned at rate delta is
    its kept words, Poisson((1 - delta) lam), plus its dropped words, an
    independent Poisson(delta lam) document, so (kept + dropped, kept) has
    exactly the law of (raw, thinned).  Both are drawn as the `poisson_rows`
    blocks of their own streams and scored block by block; at delta = 0
    every dropped count is 0.
    """
    w = np.asarray(cfg.weights, dtype=float)
    lam = np.asarray(cfg.intensity, dtype=float)
    wrong = wrong_thin = 0
    for kept, dropped in zip(
            poisson_rows((1.0 - cfg.delta) * lam, mc_budget, kept_rng),
            poisson_rows(cfg.delta * lam, mc_budget, dropped_rng)):
        wrong += int(np.count_nonzero(np.add(kept, dropped, dtype=np.int64)
                                      @ w <= 0.0))
        wrong_thin += int(np.count_nonzero(kept @ w <= 0.0))
    return wrong, wrong_thin


def run_altitude_sweep(configs, mc_budget: int, master_seed: int = 0
                       ) -> list[SweepResult]:
    """Measure raw and thinned sub-optimal rates for fixed linear scores.

    For each configuration the paired raw and thinned counts are drawn by
    thinning closure (`_sweep_errors`); errors are score <= 0 events under
    the positive-class convention (score mean must be positive).  Each
    result reports the Monte Carlo rates, their Gaussian predictions, the
    explicit error bound with its pass/fail (a vacuous bound is inf: a pass),
    and the empirical exponent log(eps) / log(eps_thinned) vs 1 / (1 - delta).

    The configurations run on one thread per usable CPU (map_streams), each
    on the two streams of its position k, and hold one row block at a time,
    so no result depends on the CPU count or the block size.
    """
    if mc_budget < 1:
        raise ValueError(f"mc_budget must be >= 1, got {mc_budget}")
    configs = list(configs)
    for k, cfg in enumerate(configs):
        if not 0.0 <= cfg.delta < 1.0:
            raise ValueError(f"sweep config {k}: delta must lie in [0, 1), "
                             f"got {cfg.delta}")
        mean = score_moments(cfg.weights, cfg.intensity)[0]
        if mean <= 0:
            raise ValueError(f"sweep config {k}: score mean must be "
                             f"positive, got {mean:g}")
    errors = map_streams(
        lambda k: _sweep_errors(
            configs[k], mc_budget, make_rng(master_seed, "altitude-sweep", k),
            make_rng(master_seed, "altitude-sweep-dropped", k)),
        range(len(configs)))
    results = []
    for cfg, (wrong, wrong_thin) in zip(configs, errors):
        eps = wrong / mc_budget
        eps_thin = wrong_thin / mc_budget
        g_eps, g_eps_thin = gaussian_error_estimate(cfg.weights, cfg.intensity,
                                                    cfg.delta)
        be = berry_esseen_statistic(cfg.weights, cfg.intensity)
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
