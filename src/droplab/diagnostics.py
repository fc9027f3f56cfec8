"""Score diagnostics for linear rules under a Poisson topic model.

Per-topic score moments, the Berry-Esseen concentration statistic (largest
squared weight relative to the score variance), and Monte Carlo thinned
sub-optimal prediction rates per topic, tied to the thinned error by the
counting identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import LinearClassifier
from .dropout import thin_counts
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
class TopicDiagnostics:
    """Thinned sub-optimal prediction rate of one topic (nan if unsampled)."""

    suboptimal_rate_thinned: float
    n_samples: int


@dataclass(frozen=True)
class RiskDecomposition:
    """Monte Carlo thinned error rate with per-topic sub-optimal rates."""

    error_thinned: float
    per_topic: tuple[TopicDiagnostics, ...]
    identity_residual: float
    identity_tolerance: float


def excess_risk_decomposition(model: TopicModel, clf: LinearClassifier,
                              delta: float, mc_budget: int,
                              rng: np.random.Generator) -> RiskDecomposition:
    """Estimate the thinned error rate and per-topic thinned sub-optimal
    prediction rates (predicting other than the topic's majority label).

    Also checks the counting identity: the thinned excess error over the
    topic-oracle error equals the topic-probability-weighted sum of thinned
    sub-optimal rates times the per-topic confidence gaps, up to Monte Carlo
    noise (reported as identity_residual with a 3-standard-error tolerance).
    """
    if mc_budget < 1:
        raise ValueError(f"mc_budget must be >= 1, got {mc_budget}")
    pt = model.topic_probs()
    p1t = model.label1_given_topic()
    majority = (p1t > 0.5).astype(np.int64)
    t_ids = np.array([t.id for t in model.topics], dtype=float)
    id_order = np.argsort(t_ids)
    sorted_ids = t_ids[id_order]

    n_topic = np.zeros(model.n_topics, dtype=np.int64)
    sub_thin = np.zeros(model.n_topics, dtype=np.int64)
    errors = 0
    for start in range(0, mc_budget, _CHUNK):
        b = min(_CHUNK, mc_budget - start)
        batch = sample_documents(model, b, rng)
        pred = clf.predict(thin_counts(batch.counts, delta, rng))
        idx = id_order[np.searchsorted(sorted_ids, batch.topics)]
        n_topic += np.bincount(idx, minlength=model.n_topics)
        sub_thin += np.bincount(idx, weights=(pred != majority[idx]),
                                minlength=model.n_topics).astype(np.int64)
        errors += int(np.count_nonzero(pred != batch.labels))
        # free this chunk before the next one is sampled
        del batch, pred, idx

    per_topic = tuple(
        TopicDiagnostics(suboptimal_rate_thinned=s / n if n else float("nan"),
                         n_samples=int(n))
        for s, n in zip(sub_thin, n_topic))
    err_thin = errors / mc_budget

    # counting identity for the thinned excess over the topic oracle
    active = pt > 0
    oracle = float(np.sum(pt[active] * np.minimum(p1t[active], 1 - p1t[active])))
    gaps = np.abs(2.0 * p1t - 1.0)
    weighted = 0.0
    tol = 3.0 * binomial_se(err_thin, mc_budget)
    for td, gap in zip(per_topic, gaps):
        if td.n_samples == 0:
            continue
        p_hat = td.n_samples / mc_budget
        weighted += p_hat * td.suboptimal_rate_thinned * gap
        tol += 3.0 * p_hat * gap * binomial_se(td.suboptimal_rate_thinned,
                                               td.n_samples)
    residual = abs((err_thin - oracle) - weighted)

    return RiskDecomposition(
        error_thinned=err_thin, per_topic=per_topic,
        identity_residual=float(residual), identity_tolerance=float(tol))
