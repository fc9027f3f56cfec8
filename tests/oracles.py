"""Reference implementations and statistical tests that only the test suite
uses: bin pooling for chi-square tests (goodness of fit runs
`scipy.stats.chisquare(*pool_bins(...))`), a pooled two-sample chi-square
test, the per-sample Kolmogorov statistic, the length-first multinomial
document sampler, an exhaustive zero-one empirical risk minimizer for
d <= 3, the Monte Carlo dropout gradient and its descent, the row-wise
exact Bayes risk, the Bayes risk summed in blocks over the whole count
grid, the tracemalloc peak of a call, the document sampler with one call
per random stream, the altitude sweep's error counts from one Poisson draw
per stream, the Berry-Esseen distance from one sorted vector of every score,
the learning-curve grid that joins each trial's test set before scoring it,
the scipy.special forms of the normal CDF, the class log likelihoods, the
exact posterior and the Bayes-risk table that droplab computes with numpy
and `math`, and a subprocess running a fresh interpreter that imports this
droplab.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.special import erfc, gammaln, logsumexp, xlogy
from scipy.stats import chi2_contingency

import droplab
from droplab import (CurveRecord, CurveSpec, DocumentBatch, EmptyDataError,
                     GenerativeSampler, LinearClassifier, evaluate_error,
                     experiments, fit_classifier, make_rng,
                     recalibrate_intercept, sample_documents,
                     seed_fingerprint, thin_counts)
from droplab.bounds import normal_cdf
from droplab.classifiers import _sigmoid
from droplab.diagnostics import score_moments
from droplab.topics import (_FLOOR_MAX, TopicModel, _log_class_likelihoods,
                            _log_factorial, _xlogy, enumerate_counts)


def pool_bins(observed, expected, min_expected: float):
    """Merge adjacent bins until every pooled expected count is >= min_expected.

    The final bin absorbs any undersized tail.  Returns (observed, expected)
    pooled float arrays.
    """
    obs_pooled, exp_pooled = [], []
    o_acc = e_acc = 0.0
    for o, e in zip(observed, expected):
        o_acc += o
        e_acc += e
        if e_acc >= min_expected:
            obs_pooled.append(o_acc)
            exp_pooled.append(e_acc)
            o_acc = e_acc = 0.0
    if e_acc > 0:
        if exp_pooled:
            obs_pooled[-1] += o_acc
            exp_pooled[-1] += e_acc
        else:
            obs_pooled.append(o_acc)
            exp_pooled.append(e_acc)
    return np.asarray(obs_pooled, dtype=float), np.asarray(exp_pooled, dtype=float)


def chi_square_two_sample(counts_a, counts_b) -> tuple[float, float]:
    """Pearson two-sample (statistic, p_value) on parallel histograms.

    Bins are pooled until the combined count reaches 10, so sparse cells do
    not distort the statistic.
    """
    a = np.asarray(counts_a, dtype=float)
    a_p, ab_p = pool_bins(a, a + np.asarray(counts_b, dtype=float), 10.0)
    res = chi2_contingency(np.stack([a_p, ab_p - a_p]), correction=False)
    return float(res.statistic), float(res.pvalue)


def kolmogorov_distance_sorted(samples, cdf) -> float:
    """sup_x |F_n(x) - F(x)| from both one-sided gaps at every sorted sample,
    ties included: the formula `droplab.stats.kolmogorov_distance` must
    match bit for bit."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = len(s)
    f = cdf(s)
    i = np.arange(1, n + 1, dtype=float)
    return float(max(np.max(i / n - f), np.max(f - (i - 1.0) / n)))


def berry_esseen_distance_sorted(weights, intensity, n_samples: int,
                                 rng: np.random.Generator, chunk: int
                                 ) -> float:
    """`droplab.berry_esseen_check`'s Kolmogorov distance from one vector
    of all n_samples scores, drawn `chunk` rows at a time and sorted: the
    check before it tallied each block's scores and merged the tallies."""
    w = np.asarray(weights, dtype=float)
    lam = np.asarray(intensity, dtype=float)
    mu, var = score_moments(w, lam)
    sigma = np.sqrt(var)
    scores = np.empty(n_samples)
    for start in range(0, n_samples, chunk):
        b = min(chunk, n_samples - start)
        np.matmul(rng.poisson(lam, size=(b, len(lam))), w,
                  out=scores[start:start + b])
    return kolmogorov_distance_sorted(
        scores, lambda s: normal_cdf((s - mu) / sigma))


def altitude_sweep_errors_one_draw(cfg, mc_budget: int,
                                   kept_rng: np.random.Generator,
                                   dropped_rng: np.random.Generator
                                   ) -> tuple[int, int]:
    """(raw, thinned) score <= 0 counts of one `droplab.run_altitude_sweep`
    config from one int64 rng.poisson call per stream: the kept words at
    (1 - delta) times the intensities, the dropped ones at delta times
    them, and the raw document their sum."""
    w = np.asarray(cfg.weights, dtype=float)
    lam = np.asarray(cfg.intensity, dtype=float)
    size = (mc_budget, len(lam))
    kept = kept_rng.poisson((1.0 - cfg.delta) * lam, size=size)
    dropped = dropped_rng.poisson(cfg.delta * lam, size=size)
    return (int(np.count_nonzero((kept + dropped) @ w <= 0.0)),
            int(np.count_nonzero(kept @ w <= 0.0)))


def traced_peak_mib(fn) -> float:
    """Peak traced allocation, in MiB, while fn() runs (numpy reports its
    array buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def sample_documents_multinomial(sampler: GenerativeSampler, n: int,
                                 rng: np.random.Generator) -> DocumentBatch:
    """Draw documents length-first: Poisson total length, then multinomial words.

    Distributionally identical to `droplab.sample_documents`, whose label
    and topic draws it repeats.
    """
    labels = (rng.random(n) < sampler.label_prior).astype(np.int64)
    topic_ids = sampler.draw_topics(labels, rng)
    intensities = sampler.intensity_rows(labels, topic_ids)
    totals = intensities.sum(axis=1)
    lengths = rng.poisson(totals)
    probs = intensities / totals[:, None]
    counts = rng.multinomial(lengths, probs)
    return DocumentBatch(counts=counts, labels=labels, topics=topic_ids)


def sample_documents_one_call(sampler: GenerativeSampler, n: int,
                              rng: np.random.Generator) -> DocumentBatch:
    """`droplab.sample_documents` with one call per random stream over all
    n documents, counts left int64: the sampler before its draws were split
    into row chunks.

    A row whose floor m = min_j lambda_j lies in (0, _FLOOR_MAX] gets
    Poisson(lambda_j - m) per cell on `rng`, then a Poisson(d m) total on
    the first of two generators spawned from `rng`, whose words land on the
    cells drawn on the second; every other row gets Poisson(lambda_j) per
    cell on `rng`.
    """
    labels = (rng.random(n) < sampler.label_prior).astype(np.int64)
    topic_ids = sampler.draw_topics(labels, rng)
    totals_rng, words_rng = rng.spawn(2)
    lam = sampler.intensity_rows(labels, topic_ids)
    d = sampler.vocab_size
    floor = lam.min(axis=1)
    split = (0 < floor) & (floor <= _FLOOR_MAX)
    counts = rng.poisson(lam - np.where(split, floor, 0.0)[:, None])
    totals = totals_rng.poisson(d * floor[split])
    words = words_rng.integers(0, d, size=totals.sum())
    np.add.at(counts, (np.repeat(np.flatnonzero(split), totals), words), 1)
    return DocumentBatch(counts=counts, labels=labels, topics=topic_ids)


def mc_thinned_gradient(x: np.ndarray, y: np.ndarray, w: np.ndarray,
                        delta: float, rng: np.random.Generator) -> np.ndarray:
    """Gradient in w of sum_i softplus(w.x~_i) - y_i w.x~_i on one binomial
    thinning x~ of the integer count rows x: an unbiased draw of the
    expected thinned gradient that `train_logistic_dropout` computes under
    the Gaussian law of each thinned score."""
    xb = thin_counts(x, delta, rng).astype(float)
    err = _sigmoid(np.einsum("ij,j->i", xb, w)) - y
    return np.einsum("ij,i->j", xb, err)


def mc_dropout_descent(data: DocumentBatch, delta: float, step: float,
                       epochs: int, replicates: int,
                       rng: np.random.Generator,
                       l2_weight: float = 1e-7) -> LinearClassifier:
    """Full-batch descent on the thinned logistic loss with the mean of
    `replicates` Monte Carlo gradients per epoch, from zero weights."""
    x, y = data.counts, data.labels.astype(float)
    n, d = x.shape
    w = np.zeros(d)
    for _ in range(epochs):
        g = sum(mc_thinned_gradient(x, y, w, delta, rng)
                for _ in range(replicates))
        w -= step * (g / (n * replicates) + l2_weight * w)
    return LinearClassifier(weights=w)


class DimensionError(ValueError):
    """Exhaustive search is limited to d <= 3."""


def erm_zero_one_small(data: DocumentBatch, resolution: int
                       ) -> LinearClassifier:
    """Exhaustive zero-one empirical risk minimizer for d <= 3.

    Scans unit directions on an angular grid of the given resolution, picks
    the optimal intercept for each via recalibration, and returns the
    direction with the lowest training error.
    """
    x, y = data.counts, data.labels
    if len(y) == 0:
        raise EmptyDataError("no training examples")
    d = x.shape[1]
    if d > 3:
        raise DimensionError(f"exhaustive search supports d <= 3, got {d}")
    if len(y) > 10_000:
        raise ValueError("exhaustive search supports n <= 10000")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    if d == 1:
        directions = np.array([[1.0], [-1.0]])
    elif d == 2:
        ang = 2.0 * np.pi * np.arange(resolution) / resolution
        directions = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        az = 2.0 * np.pi * np.arange(resolution) / resolution
        pol = np.pi * (np.arange(resolution) + 0.5) / resolution
        azm, polm = np.meshgrid(az, pol, indexing="ij")
        directions = np.stack([
            (np.sin(polm) * np.cos(azm)).ravel(),
            (np.sin(polm) * np.sin(azm)).ravel(),
            np.cos(polm).ravel(),
        ], axis=1)
    best = None
    best_err = np.inf
    for w in directions:
        cand = recalibrate_intercept(LinearClassifier(weights=w), data)
        err = float(np.mean(cand.predict(x) != y))
        if err < best_err - 1e-15:
            best, best_err = cand, err
    return best


def bayes_error_rowwise(model: TopicModel, max_total_count: int
                        ) -> tuple[float, float]:
    """(risk, truncation mass) over the count vectors with total at most
    max_total_count, each row's class joints computed from its own log
    likelihoods: the formula `droplab.bayes_error` replaced with per-word
    log-pmf tables."""
    grid = enumerate_counts(model.vocab_size, max_total_count)
    prior = np.array([1.0 - model.label_prior, model.label_prior])
    joint = np.exp(_log_class_likelihoods(model, grid)) * prior
    return (float(np.minimum(joint[:, 0], joint[:, 1]).sum()),
            max(0.0, 1.0 - float(joint.sum())))


def bayes_error_in_blocks(model: TopicModel, max_total_count: int,
                          rows: int) -> tuple[float, float]:
    """(risk, truncation mass) of `droplab.bayes_error` from the whole
    enumerate_counts grid, cut into blocks of `rows` rows, each block's
    joints summed on their own: the loop before bayes_error read its cells
    slab by slab instead of building the grid."""
    grid = enumerate_counts(model.vocab_size, max_total_count)
    k = np.arange(max_total_count + 1.0)[:, None]
    lam = model.intensities.T[:, None, :]
    table = _xlogy(k, lam) - lam - _log_factorial(k)
    prior = np.array([1.0 - model.label_prior, model.label_prior])
    weights = model.rho * prior[:, None]
    covered = risk = 0.0
    for start in range(0, len(grid), rows):
        block = grid[start:start + rows]
        ll = table[0][block[:, 0]]
        for j in range(1, model.vocab_size):
            ll += table[j][block[:, j]]
        joint = np.einsum("mt,ct->mc", np.exp(ll), weights)
        covered += float(joint.sum())
        risk += float(np.minimum(joint[:, 0], joint[:, 1]).sum())
    return risk, max(0.0, 1.0 - covered)


def normal_cdf_scipy(x) -> np.ndarray:
    """0.5 * scipy.special.erfc(-x / sqrt(2)): `droplab.normal_cdf` before
    it called `math.erfc` on each element."""
    return 0.5 * erfc(-np.asarray(x, dtype=float) / np.sqrt(2.0))


def log_class_likelihoods_scipy(model: TopicModel, counts) -> np.ndarray:
    """log P(x = v | y = c) for each row v, (m, 2), from scipy.special's
    gammaln, xlogy and logsumexp."""
    v = np.atleast_2d(np.asarray(counts, dtype=float))
    norm = gammaln(v + 1.0).sum(axis=-1)
    per_topic = np.stack([xlogy(v, t.intensity).sum(axis=-1)
                          - t.intensity.sum() - norm
                          for t in model.topics], axis=1)
    with np.errstate(divide="ignore"):
        log_rho = np.log(model.rho)
    return np.stack([logsumexp(per_topic + log_rho[c], axis=1)
                     for c in (0, 1)], axis=1)


def bayes_posterior_scipy(model: TopicModel, counts) -> np.ndarray:
    """P(y = 1 | x = v) for each row v from `log_class_likelihoods_scipy`
    and scipy.special.logsumexp."""
    p1 = model.label_prior
    with np.errstate(divide="ignore"):
        log_prior = np.array([np.log(1.0 - p1) if p1 < 1.0 else -np.inf,
                              np.log(p1) if p1 > 0.0 else -np.inf])
    joint = log_class_likelihoods_scipy(model, counts) + log_prior
    return np.exp(joint[:, 1] - logsumexp(joint, axis=1))


def bayes_error_scipy(model: TopicModel, max_total_count: int
                      ) -> tuple[float, float]:
    """(risk, truncation mass) of `droplab.bayes_error` from the per-word
    log-pmf table built with scipy.special's xlogy and gammaln, gathered
    over the whole count grid at once."""
    grid = enumerate_counts(model.vocab_size, max_total_count)
    k = np.arange(max_total_count + 1.0)[:, None]
    lam = model.intensities.T[:, None, :]
    table = xlogy(k, lam) - lam - gammaln(k + 1.0)
    ll = sum(table[j][grid[:, j]] for j in range(model.vocab_size))
    prior = np.array([1.0 - model.label_prior, model.label_prior])
    joint = np.einsum("mt,ct->mc", np.exp(ll), model.rho * prior[:, None])
    return (float(np.minimum(joint[:, 0], joint[:, 1]).sum()),
            max(0.0, 1.0 - float(joint.sum())))


def learning_curves_joined(spec: CurveSpec) -> list[CurveRecord]:
    """`droplab.run_learning_curves`'s records, wall_time_ms 0, from a
    serial grid that draws each trial's test blocks with sample_documents
    on their streams (seed, trial, block), joins them into one set and
    scores every cell on it with evaluate_error: the grid before its pool
    scored each block chunk by chunk as it was drawn."""
    rows = experiments._TEST_BLOCK_ROWS
    records = {}
    for trial in range(spec.trials):
        parts = [sample_documents(spec.sampler,
                                  min(rows, spec.test_size - start),
                                  make_rng(spec.master_seed,
                                           experiments._TEST_TAG, trial,
                                           start // rows))
                 for start in range(0, spec.test_size, rows)]
        test = DocumentBatch(
            counts=np.concatenate([p.counts for p in parts]),
            labels=np.concatenate([p.labels for p in parts]),
            topics=np.concatenate([p.topics for p in parts]))
        for n in spec.n_grid:
            for delta in spec.delta_grid:
                key = (spec.master_seed, experiments._CELL_TAG, n, delta,
                       trial)
                rng = make_rng(*key)
                cfg = replace(spec.train_cfg,
                              dropout=replace(spec.train_cfg.dropout,
                                              delta=delta))
                note = ""
                try:
                    train = sample_documents(spec.sampler, n, rng)
                    clf = fit_classifier(
                        train, cfg, nb_smoothing=experiments.NB_SMOOTHING)
                    train_error = evaluate_error(clf, train)
                    test_error = evaluate_error(clf, test)
                except ValueError as exc:
                    train_error = test_error = float("nan")
                    note = f"{type(exc).__name__}: {exc}"
                records[(n, delta, trial)] = CurveRecord(
                    n=n, delta=delta, trial=trial, test_error=test_error,
                    train_error=train_error, wall_time_ms=0.0,
                    seed=seed_fingerprint(*key), note=note)
    return [records[(n, delta, t)] for n in spec.n_grid
            for delta in spec.delta_grid for t in range(spec.trials)]


def run_python(*args, **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this droplab."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(droplab.__file__).parents[1])]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120,
                          **kwargs)
