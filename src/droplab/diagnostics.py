"""Score diagnostics for linear rules under a Poisson topic model.

Per-topic quantities: score mean and variance, the Berry-Esseen
concentration statistic (largest squared weight relative to the score
variance), the balance coefficient (same numerator against the score
variance per unit of document mass), majority labels, and Monte Carlo
sub-optimal prediction rates on the raw and thinned measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import LinearClassifier
from .dropout import thin_counts
from .stats import binomial_se
from .topics import DiscreteSampler, TopicModel, sample_documents

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


def balance_coefficient(weights: np.ndarray, intensity: np.ndarray) -> float:
    """max_j w_j^2 times the total intensity, over the score variance.

    Equals 1 when every word is equally useful (|w_j| constant); grows as the
    signal concentrates on a thin slice of the document mass.
    """
    lam = np.asarray(intensity, dtype=float)
    return berry_esseen_statistic(weights, intensity) * float(lam.sum())


@dataclass(frozen=True)
class TopicDiagnostics:
    """Everything the per-topic error analysis needs for one topic."""

    topic_id: float
    score_mean: float
    score_var: float
    be_stat: float
    balance: float
    majority_label: int
    suboptimal_rate: float
    suboptimal_rate_thinned: float
    n_samples: int


@dataclass(frozen=True)
class ModelDiagnostics:
    """Model-level quantities for the generalization analysis."""

    topic_probs: np.ndarray
    label1_given_topic: np.ndarray
    min_topic_prob: float
    confidence_margin: float
    min_length: float
    oracle_error: float
    word_prob_matrix: np.ndarray
    min_singular_value: float

    @property
    def majority_labels(self) -> np.ndarray:
        return (self.label1_given_topic > 0.5).astype(np.int64)


def model_diagnostics(model: TopicModel) -> ModelDiagnostics:
    """Topic probabilities, confidence margin, oracle error, and the smallest
    singular value of the word-probability matrix."""
    pt = model.topic_probs()
    p1t = model.label1_given_topic()
    active = pt > 0
    margin = float(np.min(np.abs(p1t[active] - 0.5)))
    oracle = float(np.sum(pt[active] * np.minimum(p1t[active], 1 - p1t[active])))
    pi = model.word_prob_matrix
    return ModelDiagnostics(
        topic_probs=pt,
        label1_given_topic=p1t,
        min_topic_prob=float(pt.min()),
        confidence_margin=margin,
        min_length=float(model.doc_lengths.min()),
        oracle_error=oracle,
        word_prob_matrix=pi,
        min_singular_value=float(np.sqrt(max(
            np.linalg.eigvalsh(pi.T @ pi)[0], 0.0))),
    )


@dataclass(frozen=True)
class RiskDecomposition:
    """Monte Carlo raw and thinned error rates with per-topic diagnostics."""

    error: float
    error_thinned: float
    per_topic: tuple[TopicDiagnostics, ...]
    identity_residual: float
    identity_tolerance: float
    n_samples: int


def excess_risk_decomposition(model: TopicModel, clf: LinearClassifier,
                              delta: float, mc_budget: int,
                              rng: np.random.Generator) -> RiskDecomposition:
    """Estimate raw and thinned error rates and per-topic sub-optimal
    prediction rates on a shared Monte Carlo stream.

    Also checks the counting identity: the thinned excess error over the
    topic-oracle error equals the topic-probability-weighted sum of thinned
    sub-optimal rates times the per-topic confidence gaps, up to Monte Carlo
    noise (reported as identity_residual with a 3-standard-error tolerance).
    """
    if mc_budget < 1:
        raise ValueError(f"mc_budget must be >= 1, got {mc_budget}")
    diag = model_diagnostics(model)
    majority = diag.majority_labels
    sampler = DiscreteSampler(model)
    t_ids = np.array([t.id for t in model.topics], dtype=float)
    id_order = np.argsort(t_ids)
    sorted_ids = t_ids[id_order]

    n_topic = np.zeros(model.n_topics, dtype=np.int64)
    sub_raw = np.zeros(model.n_topics, dtype=np.int64)
    sub_thin = np.zeros(model.n_topics, dtype=np.int64)
    clf_err = clf_err_thin = 0

    for start in range(0, mc_budget, _CHUNK):
        b = min(_CHUNK, mc_budget - start)
        batch = sample_documents(sampler, b, rng)
        thinned = thin_counts(batch.counts, delta, rng)
        idx = id_order[np.searchsorted(sorted_ids, batch.topics)]
        pred_raw = clf.predict(batch.counts)
        pred_thin = clf.predict(thinned)
        cvec = majority[idx]
        n_topic += np.bincount(idx, minlength=model.n_topics)
        sub_raw += np.bincount(idx, weights=(pred_raw != cvec),
                               minlength=model.n_topics).astype(np.int64)
        sub_thin += np.bincount(idx, weights=(pred_thin != cvec),
                                minlength=model.n_topics).astype(np.int64)
        clf_err += int(np.count_nonzero(pred_raw != batch.labels))
        clf_err_thin += int(np.count_nonzero(pred_thin != batch.labels))

    per_topic = []
    for i, topic in enumerate(model.topics):
        mu, var = score_moments(clf.weights, topic.intensity)
        if var > 0:
            be = berry_esseen_statistic(clf.weights, topic.intensity)
            bal = balance_coefficient(clf.weights, topic.intensity)
        else:
            be = bal = float("nan")
        n_i = int(n_topic[i])
        per_topic.append(TopicDiagnostics(
            topic_id=float(topic.id), score_mean=mu, score_var=var,
            be_stat=be, balance=bal, majority_label=int(majority[i]),
            suboptimal_rate=sub_raw[i] / n_i if n_i else float("nan"),
            suboptimal_rate_thinned=sub_thin[i] / n_i if n_i else float("nan"),
            n_samples=n_i))

    err = clf_err / mc_budget
    err_thin = clf_err_thin / mc_budget

    # counting identity for the thinned excess over the topic oracle
    gaps = np.abs(2.0 * diag.label1_given_topic - 1.0)
    p_hat = n_topic / mc_budget
    weighted = 0.0
    tol = 3.0 * binomial_se(err_thin, mc_budget)
    for i in range(model.n_topics):
        if n_topic[i] == 0:
            continue
        rate = sub_thin[i] / n_topic[i]
        weighted += p_hat[i] * rate * gaps[i]
        tol += 3.0 * p_hat[i] * gaps[i] * binomial_se(rate, int(n_topic[i]))
    residual = abs((err_thin - diag.oracle_error) - weighted)

    return RiskDecomposition(
        error=err, error_thinned=err_thin, per_topic=tuple(per_topic),
        identity_residual=residual, identity_tolerance=tol,
        n_samples=mc_budget)
