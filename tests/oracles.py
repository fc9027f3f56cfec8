"""Reference implementations and statistical tests that only the test suite
uses: bin pooling for chi-square tests (goodness of fit runs
`scipy.stats.chisquare(*pool_bins(...))`), a pooled two-sample chi-square
test, the length-first multinomial document sampler and an exhaustive
zero-one empirical risk minimizer for d <= 3.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import chi2_contingency

from droplab import (DocumentBatch, EmptyDataError, GenerativeSampler,
                     LinearClassifier, recalibrate_intercept)


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


def sample_documents_multinomial(sampler: GenerativeSampler, n: int,
                                 rng: np.random.Generator) -> DocumentBatch:
    """Draw documents length-first: Poisson total length, then multinomial words.

    Distributionally identical to `droplab.sample_documents`.
    """
    labels, topic_ids, intensities = sampler.draw_topics(n, rng)
    totals = intensities.sum(axis=1)
    lengths = rng.poisson(totals)
    probs = intensities / totals[:, None]
    counts = rng.multinomial(lengths, probs)
    return DocumentBatch(counts=counts, labels=labels, topics=topic_ids)


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
