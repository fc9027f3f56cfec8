"""Linear classifiers: logistic regression (plain and dropout-trained),
multinomial naive Bayes and intercept recalibration.

All trainers are deterministic functions of (data, config) and draw no
random numbers.  The decision rule is 1{w.x + b > 0}; a score of exactly
zero predicts class 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .dropout import DropoutConfig
from .serialize import json_float, json_floats, read_field
from .topics import DocumentBatch


class DegenerateDataError(ValueError):
    """Training data is missing one of the two classes."""


class EmptyDataError(ValueError):
    """No examples supplied."""


def _stacked_scores(counts: np.ndarray, weights: np.ndarray,
                    intercepts) -> np.ndarray:
    """Scores w_k.x + b_k of R rules on each row x of counts, shape (..., R),
    for weights (R, d) and intercepts (R,) or a scalar.

    einsum reads the stored counts directly and calls no BLAS, so a row's
    score does not depend on the row count, the thread count or the other
    rules of the stack: each column equals the one-rule call bit for bit.
    """
    return np.einsum("...j,kj->...k", np.asarray(counts), weights) + intercepts


@dataclass(frozen=True)
class LinearClassifier:
    """Weights and intercept of the linear rule 1{w.x + b > 0}."""

    weights: np.ndarray
    intercept: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise ValueError("weights must be a non-empty vector")
        if not np.all(np.isfinite(self.weights)) or not np.isfinite(self.intercept):
            raise ValueError("classifier parameters must be finite")

    def scores(self, counts: np.ndarray) -> np.ndarray:
        return _stacked_scores(counts, self.weights[None, :],
                               self.intercept)[..., 0]

    def predict(self, counts: np.ndarray) -> np.ndarray:
        return (self.scores(counts) > 0.0).astype(np.int64)

    def to_dict(self, meta: dict | None = None) -> dict:
        doc = {"weights": self.weights.tolist(), "intercept": self.intercept}
        doc["meta"] = meta if meta is not None else {}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "LinearClassifier":
        """Inverse of to_dict; raises ValueError naming a missing or bad key."""
        return cls(weights=read_field(doc, "weights",
                                      lambda w: cls(json_floats(w)).weights),
                   intercept=read_field(doc, "intercept", json_float))


@dataclass(frozen=True)
class TrainConfig:
    """Gradient-descent settings for the logistic trainers.

    Each epoch is one full-batch descent step, and the result is the
    iterate after `epochs` steps, not a converged optimum.  step_size=None
    sizes the step from a bound on the smoothness constant
    (_smoothness_bound).  The intercept stays frozen at zero; downstream
    protocols recalibrate it.
    """

    l2_weight: float = 1e-7
    step_size: float | None = None
    epochs: int = 400
    dropout: DropoutConfig = field(default_factory=DropoutConfig)

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


# E[f(z)], z standard normal, as sum_k f(_GH_NODES[k]) _GH_WEIGHTS[k]: the
# probabilists' Gauss-Hermite rule with K = 8 nodes.  More nodes move a
# curves iterate by under 4e-5 of its norm, where two seeds of a Monte Carlo
# gradient moved it by over 1e-2 (CHANGES.md).
_GH_NODES, _GH_WEIGHTS = hermegauss(8)
_GH_WEIGHTS /= _GH_WEIGHTS.sum()
# The thinned step is 1 / (_STEP_HEADROOM * L), L from _smoothness_bound.
# The curves measure a fixed-budget iterate, so the step is part of the
# estimator: 2.0 reproduces the step of the Monte Carlo trainer, which sized
# it from a pilot thinning draw at 1.95-2.23 times L (CHANGES.md).
_STEP_HEADROOM = 2.0


def _sigmoid(s: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(s))
    return np.where(s >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _smoothness_bound(x: np.ndarray, delta: float, l2_weight: float) -> float:
    """Upper estimate of the smoothness constant of the expected thinned
    logistic loss.

    E[x~ x~^T] = keep^2 x x^T + delta keep diag(x) for a thinned row x~, so
    L <= (0.25 / n)(keep^2 sigma_max(X)^2 + delta keep max_j sum_i x_ij)
    + l2; sigma_max(X)^2 comes from 32 steps of power iteration.
    """
    n, d = x.shape
    v = np.full(d, 1.0 / np.sqrt(d))
    sigma_sq = 0.0
    for _ in range(32):
        u = np.einsum("ij,j->i", x, v)
        v = np.einsum("ij,i->j", x, u)
        norm = np.sqrt(np.einsum("j,j->", v, v))
        if norm == 0.0:
            sigma_sq = 0.0
            break
        sigma_sq = norm  # ||X^T X v|| -> sigma_max^2 at convergence
        v /= norm
    keep = 1.0 - delta
    # 1.1 safety factor: power iteration approaches sigma_max from below
    curvature = (1.1 * 0.25 * keep * keep * sigma_sq
                 + 0.25 * delta * keep * float(x.sum(axis=0).max()))
    return curvature / n + l2_weight


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


def train_logistic(data, cfg: TrainConfig) -> LinearClassifier:
    """L2-regularized logistic regression on the raw counts (no thinning)."""
    if 0.0 < cfg.dropout.delta < 1.0:
        raise ValueError("train_logistic requires delta = 0; "
                         "use train_logistic_dropout")
    return train_logistic_dropout(data, cfg)


def _expected_thinned_gradient(x: np.ndarray, y: np.ndarray, w: np.ndarray,
                               delta: float) -> np.ndarray:
    """Gradient in w of sum_i E[softplus(s_i)] - y_i E[s_i], where s_i is
    row i's thinned score under its Gaussian law (train_logistic_dropout)."""
    keep = 1.0 - delta
    xw = np.einsum("ij,kj->ik", x, np.stack([w, w * w]))  # X.w and X.(w*w)
    mean = keep * xw[:, 0]
    sd = np.sqrt(delta * keep * xw[:, 1])
    p = _sigmoid(mean[:, None] + sd[:, None] * _GH_NODES)  # (n, K)
    coef = np.stack([keep * (np.einsum("ik,k->i", p, _GH_WEIGHTS) - y),
                     delta * keep * np.einsum("ik,k->i", p * (1.0 - p),
                                              _GH_WEIGHTS)], axis=1)
    g = np.einsum("ij,ik->kj", x, coef)
    return g[0] + g[1] * w


def train_logistic_dropout(data, cfg: TrainConfig) -> LinearClassifier:
    """Logistic regression on thinned counts: a fixed-budget descent iterate
    on the expected thinned loss.

    A thinned row's score s = w.x~ has the exact binomial mean mu = keep w.x
    and variance delta keep sum_j w_j^2 x_j.  Each epoch takes one full-batch
    step on the mean over rows of E_z[softplus(mu + sd z)] - y mu, z standard
    normal, with the expectations taken on K = len(_GH_NODES) Gauss-Hermite
    nodes.  By Stein's identity its gradient is
    keep X^T(E[sigmoid] - y) + delta keep (X^T E[sigmoid']) * w.  Nothing is
    drawn.  delta = 0 is the plain trainer on the raw counts; delta = 1 is
    rejected (its endpoint is naive Bayes).
    """
    if cfg.dropout.delta >= 1.0:
        raise ValueError("delta = 1 deletes every word, so logistic training "
                         "would return zero weights; the delta = 1 endpoint "
                         "is naive Bayes (train_naive_bayes)")
    x, y = _training_arrays(data)
    n, d = x.shape
    delta = cfg.dropout.delta
    x_float = x.astype(float)
    step = cfg.step_size
    if step is None:
        smooth = _smoothness_bound(x_float, delta, cfg.l2_weight)
        if delta > 0.0:
            smooth *= _STEP_HEADROOM
        step = 1.0 / max(smooth, 1e-12)
    w = np.zeros(d)
    yf = y.astype(float)

    # np.einsum calls no BLAS, so w does not depend on the BLAS thread count;
    # an overflow can only end in non-finite weights, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            if delta > 0.0:
                gw = _expected_thinned_gradient(x_float, yf, w, delta)
            else:
                err = _sigmoid(np.einsum("ij,j->i", x_float, w)) - yf
                gw = np.einsum("ij,i->j", x_float, err)
            w -= step * (gw * (1.0 / n) + cfg.l2_weight * w)
    if not np.all(np.isfinite(w)):
        raise ValueError(f"gradient descent diverged at step size {step:g}; "
                         "use a smaller step size, or none to size it from "
                         "the data")
    return LinearClassifier(weights=w)


def train_naive_bayes(data, smoothing: float) -> LinearClassifier:
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
    s = _stacked_scores(x, clf.weights[None, :], 0.0)[:, 0]
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
