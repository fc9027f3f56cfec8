"""Score diagnostics for linear rules under a Poisson topic model.

Per-topic score moments, the Berry-Esseen concentration statistic (largest
squared weight relative to the score variance), Monte Carlo thinned
sub-optimal prediction rates per topic, tied to the thinned error by the
counting identity, and their exact values for a rule that is constant on
each topic's support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import LinearClassifier
from .dropout import thinned_model
from .stats import binomial_se
from .topics import TopicModel, sample_documents

_CHUNK = 200_000            # documents per sampling round


class ZeroVarianceError(ValueError):
    """The score has zero variance under this intensity vector."""


def score_moments(weights: np.ndarray, intensity: np.ndarray
                  ) -> tuple[float, float]:
    """Mean and variance of w.x for x with independent Poisson(intensity) entries.

    Thinning at rate delta scales both moments by 1 - delta.
    """
    w = np.asarray(weights, dtype=float)
    lam = np.asarray(intensity, dtype=float)
    if w.shape != lam.shape:
        raise ValueError("weights and intensity must have equal length")
    return float(lam @ w), float(lam @ (w * w))


def berry_esseen_statistic(weights: np.ndarray, intensity: np.ndarray) -> float:
    """max_j w_j^2 divided by the score variance.

    Small when no single word dominates the score and documents are long;
    its square root controls the Gaussian approximation error of the score.
    """
    w = np.asarray(weights, dtype=float)
    _, var = score_moments(w, intensity)
    if var <= 0.0:
        raise ZeroVarianceError("score variance is zero")
    return float(np.max(w * w) / var)


@dataclass(frozen=True)
class RiskDecomposition:
    """Monte Carlo thinned error rate with per-topic sub-optimal rates.

    rates[t] is topic t's thinned sub-optimal rate (nan if it drew no
    documents) and n_samples[t] its document count, in model.topics order.
    """

    error_thinned: float
    rates: np.ndarray
    n_samples: np.ndarray
    identity_residual: float
    identity_tolerance: float


def excess_risk_decomposition(model: TopicModel, clf: LinearClassifier,
                              delta: float, mc_budget: int,
                              rng: np.random.Generator) -> RiskDecomposition:
    """Estimate the thinned error rate and per-topic thinned sub-optimal
    prediction rates (predicting other than the topic's majority label).

    By thinning closure the thinned documents are drawn directly from the
    thinned model, one Poisson draw per chunk.  Also checks the counting
    identity: the thinned excess error over the topic-oracle error equals
    the topic-probability-weighted sum of thinned sub-optimal rates times
    the per-topic confidence gaps, up to Monte Carlo noise (reported as
    identity_residual with a 3-standard-error tolerance).
    """
    if mc_budget < 1:
        raise ValueError(f"mc_budget must be >= 1, got {mc_budget}")
    thinned = thinned_model(model, delta)
    pt = model.topic_probs()
    p1t = model.label1_given_topic()
    majority = (p1t > 0.5).astype(np.int64)

    n_topic = np.zeros(model.n_topics, dtype=np.int64)
    sub_thin = np.zeros(model.n_topics, dtype=np.int64)
    errors = 0
    for start in range(0, mc_budget, _CHUNK):
        b = min(_CHUNK, mc_budget - start)
        batch = sample_documents(thinned, b, rng)
        pred = clf.predict(batch.counts)
        idx = model.topic_index(batch.topics)
        n_topic += np.bincount(idx, minlength=model.n_topics)
        sub_thin += np.bincount(idx, weights=(pred != majority[idx]),
                                minlength=model.n_topics).astype(np.int64)
        errors += int(np.count_nonzero(pred != batch.labels))
        # free this chunk before the next one is sampled
        del batch, pred, idx

    rates = np.where(n_topic > 0, sub_thin / np.maximum(n_topic, 1), np.nan)
    err_thin = errors / mc_budget

    # counting identity for the thinned excess over the topic oracle; the
    # nan terms of unsampled topics drop out of the sums
    active = pt > 0
    oracle = float(np.sum(pt[active] * np.minimum(p1t[active], 1 - p1t[active])))
    gaps = np.abs(2.0 * p1t - 1.0)
    p_hat = n_topic / mc_budget
    weighted = np.nansum(p_hat * rates * gaps)
    tol = 3.0 * binomial_se(err_thin, mc_budget) + np.nansum(
        3.0 * p_hat * gaps * binomial_se(rates, n_topic))
    residual = abs((err_thin - oracle) - weighted)

    return RiskDecomposition(
        error_thinned=err_thin, rates=rates, n_samples=n_topic,
        identity_residual=float(residual), identity_tolerance=float(tol))


def thinned_topic_rates(model: TopicModel, weights: np.ndarray,
                        delta: float) -> np.ndarray:
    """Each topic's exact thinned rate of predicting other than its majority
    label under the rule w.x > 0.  w must be one constant c on each topic's
    support, so the thinned score is c*N with N ~ Poisson((1-delta) *
    doc_length): label 0 when N = 0, label c > 0 otherwise."""
    majority = model.label1_given_topic() > 0.5
    rates = []
    for topic, label in zip(model.topics, majority):
        c = weights[topic.intensity > 0]
        if np.any(c != c[0]):
            raise ValueError(f"w is not constant on topic {topic.id:g}")
        mu = (1.0 - delta) * topic.doc_length
        # P(N = 0) itself: 1 - P(N > 0) cancels to 0 once exp(-mu) < 1e-16
        rates.append((label != 0) * np.exp(-mu)
                     - (label != (c[0] > 0)) * np.expm1(-mu))
    return np.array(rates)
