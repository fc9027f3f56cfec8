"""Linear classifiers: logistic regression (plain and dropout-trained),
multinomial naive Bayes and intercept recalibration.

All trainers are deterministic functions of (data, config, seed).  The
decision rule is 1{w.x + b > 0}; a score of exactly zero predicts class 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dropout import DropoutConfig, Thinner
from .serialize import json_float, json_floats, read_field
from .streams import make_rng
from .topics import DocumentBatch


class DegenerateDataError(ValueError):
    """Training data is missing one of the two classes."""


class EmptyDataError(ValueError):
    """No examples supplied."""


@dataclass(frozen=True)
class LinearClassifier:
    """Weights and intercept of the linear rule 1{w.x + b > 0}."""

    weights: np.ndarray
    intercept: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.weights.ndim != 1:
            raise ValueError("weights must be a vector")
        if not np.all(np.isfinite(self.weights)) or not np.isfinite(self.intercept):
            raise ValueError("classifier parameters must be finite")

    def scores(self, counts: np.ndarray) -> np.ndarray:
        # einsum reads the stored counts directly and calls no BLAS, so a
        # row's score does not depend on the row count or the thread count
        return np.einsum("...j,j->...", np.asarray(counts),
                         self.weights) + self.intercept

    def predict(self, counts: np.ndarray) -> np.ndarray:
        return (self.scores(counts) > 0.0).astype(np.int64)

    def to_dict(self, meta: dict | None = None) -> dict:
        doc = {"weights": self.weights.tolist(), "intercept": self.intercept}
        doc["meta"] = meta if meta is not None else {}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "LinearClassifier":
        """Inverse of to_dict; raises ValueError naming a missing or bad key."""
        return cls(weights=read_field(doc, "weights", json_floats),
                   intercept=read_field(doc, "intercept", json_float))


@dataclass(frozen=True)
class TrainConfig:
    """Gradient-descent settings for the logistic trainers.

    Each epoch is one full-batch descent step.  step_size=None picks 1/L
    from a power-iteration estimate of the smoothness constant.  The
    intercept stays frozen at zero; downstream protocols recalibrate it.
    """

    l2_weight: float = 1e-7
    step_size: float | None = None
    epochs: int = 400
    dropout: DropoutConfig = field(default_factory=DropoutConfig)
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.l2_weight < np.inf:
            raise ValueError("l2_weight must be finite and >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.step_size is not None and not 0 < self.step_size < np.inf:
            raise ValueError("step_size must be finite and positive")


def as_arrays(data) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X, y, topics) of a DocumentBatch."""
    if not isinstance(data, DocumentBatch):
        raise TypeError("data must be a DocumentBatch")
    return data.counts, data.labels, data.topics


def _sigmoid(s: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(s))
    return np.where(s >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _smoothness_bound(x: np.ndarray, l2_weight: float) -> float:
    """Upper estimate of the logistic-loss smoothness constant via 32 steps
    of power iteration."""
    n, d = x.shape
    v = np.full(d, 1.0 / np.sqrt(d))
    sigma_sq = 0.0
    for _ in range(32):
        u = x @ v
        v = x.T @ u
        norm = np.linalg.norm(v)
        if norm == 0.0:
            sigma_sq = 0.0
            break
        sigma_sq = norm  # ||X^T X v|| -> sigma_max^2 at convergence
        v /= norm
    # 1.1 safety factor: power iteration approaches sigma_max from below
    return 1.1 * 0.25 * sigma_sq / n + l2_weight


def _training_arrays(data) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) of a DocumentBatch with examples, count columns and both
    classes; every trainer validates its data here."""
    x, y, _ = as_arrays(data)
    if len(y) == 0:
        raise EmptyDataError("no training examples")
    if x.shape[1] == 0:
        raise EmptyDataError("training data has no count columns")
    if not (np.any(y == 0) and np.any(y == 1)):
        raise DegenerateDataError("training data must contain both classes")
    return x, y


def _fit_logistic(x_counts: np.ndarray, y: np.ndarray,
                  cfg: TrainConfig) -> LinearClassifier:
    """Shared descent loop; thins fresh copies per pass when delta > 0."""
    n, d = x_counts.shape
    delta = cfg.dropout.delta
    m = cfg.dropout.mc_replicates if delta > 0.0 else 1
    x_float = x_counts.astype(float)
    thinner = Thinner(x_counts, delta)
    step = cfg.step_size
    if step is None:
        smooth = _smoothness_bound(x_float, cfg.l2_weight)
        if delta > 0.0:
            # size the step for the thinned objective: a pilot replicate
            # estimates the smoothness of the matrices actually seen, with
            # headroom for replicate-to-replicate fluctuation and a floor
            # at the expected thinned curvature
            pilot_rng = make_rng(cfg.seed, "logistic-gd-pilot")
            pilot = thinner.draw(pilot_rng).astype(float)
            keep = 1.0 - delta
            smooth = 2.0 * max(_smoothness_bound(pilot, cfg.l2_weight),
                               keep * keep * smooth)
        step = 1.0 / max(smooth, 1e-12)
    rng = make_rng(cfg.seed, "logistic-gd")
    w = np.zeros(d)
    yf = y.astype(float)

    # an overflow can only end in non-finite weights, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            gw = np.zeros(d)
            for _ in range(m):
                xb = thinner.draw(rng).astype(float) if delta > 0.0 else x_float
                err = _sigmoid(xb @ w) - yf
                gw += xb.T @ err
            w -= step * (gw * (1.0 / (n * m)) + cfg.l2_weight * w)
    if not np.all(np.isfinite(w)):
        raise ValueError(f"gradient descent diverged at step size {step:g}; "
                         "use a smaller step size, or none to size it from "
                         "the data")
    return LinearClassifier(weights=w)


def train_logistic(data, cfg: TrainConfig) -> LinearClassifier:
    """L2-regularized logistic regression on the raw counts (no thinning)."""
    if 0.0 < cfg.dropout.delta < 1.0:
        raise ValueError("train_logistic requires delta = 0; "
                         "use train_logistic_dropout")
    return train_logistic_dropout(data, cfg)


def train_logistic_dropout(data, cfg: TrainConfig) -> LinearClassifier:
    """Logistic regression on thinned counts.

    Each pass re-thins every example mc_replicates times with fresh noise and
    averages the gradient over the replicates, giving an unbiased stochastic
    gradient of the expected thinned loss.  delta = 0 thins nothing and is
    the plain trainer; delta = 1 is rejected (its endpoint is naive Bayes).
    """
    if cfg.dropout.delta >= 1.0:
        raise ValueError("delta = 1 deletes every word, so logistic training "
                         "would return zero weights; the delta = 1 endpoint "
                         "is naive Bayes (train_naive_bayes)")
    x, y = _training_arrays(data)
    return _fit_logistic(x, y, cfg)


def train_naive_bayes(data, smoothing: float = 1.0) -> LinearClassifier:
    """Multinomial naive Bayes with additive smoothing.

    Weights are log-ratios of smoothed word probabilities; the intercept is
    the log prior ratio (class-conditional length terms are dropped, i.e.
    documents are treated as equal-length).
    """
    if not (np.isfinite(smoothing) and smoothing >= 0):
        raise ValueError(f"smoothing must be finite and >= 0, got {smoothing}")
    x, y = _training_arrays(data)
    totals = []
    for c in (0, 1):
        t = x[y == c].sum(axis=0).astype(float) + smoothing
        totals.append(t / t.sum())
    with np.errstate(divide="ignore"):
        w = np.log(totals[1]) - np.log(totals[0])
    n1 = int((y == 1).sum())
    n0 = int((y == 0).sum())
    return LinearClassifier(weights=w, intercept=float(np.log(n1 / n0)))


def recalibrate_intercept(clf: LinearClassifier, data) -> LinearClassifier:
    """Replace the intercept by the zero-one-optimal threshold on the data.

    Candidate thresholds are midpoints between consecutive distinct scores
    plus sentinels one unit beyond each extreme.  Ties prefer lower error,
    then smaller |intercept|, then the smaller intercept.
    """
    x, y, _ = as_arrays(data)
    if len(y) == 0:
        raise EmptyDataError("no examples to recalibrate on")
    s = LinearClassifier(weights=clf.weights).scores(x)
    u, inverse = np.unique(s, return_inverse=True)
    n1_at = np.bincount(inverse, weights=(y == 1), minlength=len(u))
    n0_at = np.bincount(inverse, weights=(y == 0), minlength=len(u))
    cum1 = np.cumsum(n1_at)          # label-1 examples with score <= u[i]
    cum0 = np.cumsum(n0_at)
    n0_total = cum0[-1]
    n1_total = cum1[-1]
    # below all scores everything is predicted 1, above all scores 0
    thresholds = np.concatenate(([u[0] - 1.0], 0.5 * (u[:-1] + u[1:]),
                                 [u[-1] + 1.0]))
    errors = np.concatenate(([n0_total], cum1[:-1] + (n0_total - cum0[:-1]),
                             [n1_total]))
    # lexsort's last key is the primary one; it is stable, so exact ties
    # keep the first candidate
    best = np.lexsort((-thresholds, np.abs(thresholds), errors))[0]
    return LinearClassifier(weights=clf.weights, intercept=-thresholds[best])


def evaluate_error(clf: LinearClassifier, data) -> float:
    """Fraction of misclassified examples."""
    x, y, _ = as_arrays(data)
    if len(y) == 0:
        raise EmptyDataError("no examples to evaluate")
    return float(np.mean(clf.predict(x) != y))


def error_by_topic(clf: LinearClassifier, data) -> dict[float, float]:
    """Misclassification rate per latent topic id."""
    x, y, topics = as_arrays(data)
    wrong = clf.predict(x) != y
    out = {}
    for t in np.unique(topics):
        mask = topics == t
        out[float(t)] = float(np.mean(wrong[mask]))
    return out
