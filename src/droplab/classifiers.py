"""Linear classifiers: logistic regression (plain and dropout-trained),
multinomial naive Bayes, intercept recalibration, and a tiny exhaustive
zero-one oracle for low dimensions.

All trainers are deterministic functions of (data, config, seed).  The
decision rule is 1{w.x + b > 0}; a score of exactly zero predicts class 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dropout import DropoutConfig, Thinner
from .streams import make_rng
from .topics import Document, DocumentBatch


_SCORE_BLOCK_BYTES = 4 << 20


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
        if not np.all(np.isfinite(self.weights)) or not np.isfinite(self.intercept):
            raise ValueError("classifier parameters must be finite")

    def scores(self, counts: np.ndarray) -> np.ndarray:
        x = np.asarray(counts)
        if x.ndim != 2:
            return x.astype(float) @ self.weights + self.intercept
        # Convert ~4 MB row blocks to float rather than the whole matrix.
        # Blocks are a multiple of 8 rows and a lone last row joins the block
        # before it (numpy scores a single row with a vector dot, not gemv),
        # so with single-threaded BLAS the scores equal the whole product's
        # bit for bit.
        n = x.shape[0]
        rows = max(8, _SCORE_BLOCK_BYTES // (8 * max(1, x.shape[1])) // 8 * 8)
        bounds = list(range(0, n, rows)) + [n]
        if len(bounds) > 2 and n - bounds[-2] == 1:
            del bounds[-2]
        out = np.empty(n)
        for start, stop in zip(bounds, bounds[1:]):
            block = x[start:stop].astype(float, copy=False)
            out[start:stop] = block @ self.weights + self.intercept
        return out

    def predict(self, counts: np.ndarray) -> np.ndarray:
        return (self.scores(counts) > 0.0).astype(np.int64)

    def to_dict(self, meta: dict | None = None) -> dict:
        doc = {"weights": self.weights.tolist(), "intercept": self.intercept}
        doc["meta"] = meta if meta is not None else {}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "LinearClassifier":
        return cls(weights=np.asarray(doc["weights"], dtype=float),
                   intercept=float(doc["intercept"]))


@dataclass(frozen=True)
class TrainConfig:
    """Gradient-descent settings for the logistic trainers.

    step_size=None picks 1/L from a power-iteration estimate of the smoothness
    constant.  batch_size=None runs full-batch descent; otherwise each epoch
    makes one pass of seeded mini-batches.  The intercept stays frozen at zero;
    downstream protocols recalibrate it.
    """

    l2_weight: float = 1e-7
    step_size: float | None = None
    epochs: int = 400
    batch_size: int | None = None
    dropout: DropoutConfig = field(default_factory=DropoutConfig)
    seed: int = 0

    def __post_init__(self):
        if self.l2_weight < 0:
            raise ValueError("l2_weight must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.step_size is not None and self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def as_arrays(data) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Normalize a DocumentBatch or a list of Documents to (X, y, topics)."""
    if isinstance(data, DocumentBatch):
        return data.counts, data.labels, data.topics
    if isinstance(data, (list, tuple)):
        if len(data) == 0:
            return np.zeros((0, 0), dtype=np.int64), np.zeros(0, np.int64), None
        if isinstance(data[0], Document):
            x = np.stack([d.counts for d in data])
            y = np.array([d.label for d in data], dtype=np.int64)
            t = np.array([d.topic_id for d in data], dtype=float)
            return x, y, t
    raise TypeError("data must be a DocumentBatch or a list of Documents")


def _sigmoid(s: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(s))
    return np.where(s >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _smoothness_bound(x: np.ndarray, l2_weight: float, iters: int = 32) -> float:
    """Upper estimate of the logistic-loss smoothness constant via power iteration."""
    n, d = x.shape
    v = np.full(d, 1.0 / np.sqrt(d))
    sigma_sq = 0.0
    for _ in range(iters):
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


def _check_classes(y: np.ndarray):
    if len(y) == 0:
        raise EmptyDataError("no training examples")
    if not (np.any(y == 0) and np.any(y == 1)):
        raise DegenerateDataError("training data must contain both classes")


def _reject_full_thinning(cfg: TrainConfig):
    if cfg.dropout.delta >= 1.0:
        raise ValueError("delta = 1 deletes every word, so logistic training "
                         "would return zero weights; the delta = 1 endpoint "
                         "is naive Bayes (train_naive_bayes)")


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
        if delta > 0.0:
            # size the step for the thinned objective: a pilot replicate
            # estimates the smoothness of the matrices actually seen, with
            # headroom for replicate-to-replicate fluctuation and a floor
            # at the expected thinned curvature
            pilot_rng = make_rng(cfg.seed, "logistic-gd-pilot")
            pilot = thinner.draw(pilot_rng).astype(float)
            keep = 1.0 - delta
            floor = keep * keep * _smoothness_bound(x_float, cfg.l2_weight)
            smooth = 2.0 * max(_smoothness_bound(pilot, cfg.l2_weight), floor)
        else:
            smooth = _smoothness_bound(x_float, cfg.l2_weight)
        step = 1.0 / max(smooth, 1e-12)
    rng = make_rng(cfg.seed, "logistic-gd")
    w = np.zeros(d)
    yf = y.astype(float)

    def batch_grad(idx):
        if idx is None:
            xb_float, yb, draw = x_float, yf, thinner.draw
        else:
            xb_float, yb = x_float[idx], yf[idx]
            draw = Thinner(x_counts[idx], delta).draw
        gw = np.zeros(d)
        for _ in range(m):
            xb = draw(rng).astype(float) if delta > 0.0 else xb_float
            err = _sigmoid(xb @ w) - yb
            gw += xb.T @ err
        return gw * (1.0 / (len(yb) * m)) + cfg.l2_weight * w

    for _ in range(cfg.epochs):
        if cfg.batch_size is None or cfg.batch_size >= n:
            w -= step * batch_grad(None)
        else:
            order = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                w -= step * batch_grad(order[start:start + cfg.batch_size])
    return LinearClassifier(weights=w)


def train_logistic(data, cfg: TrainConfig) -> LinearClassifier:
    """L2-regularized logistic regression on the raw counts (no thinning)."""
    _reject_full_thinning(cfg)
    if cfg.dropout.delta != 0.0:
        raise ValueError("train_logistic requires delta = 0; "
                         "use train_logistic_dropout")
    x, y, _ = as_arrays(data)
    _check_classes(y)
    return _fit_logistic(x, y, cfg)


def train_logistic_dropout(data, cfg: TrainConfig) -> LinearClassifier:
    """Logistic regression on thinned counts.

    Each pass re-thins every example mc_replicates times with fresh noise and
    averages the gradient over the replicates, giving an unbiased stochastic
    gradient of the expected thinned loss.  delta = 0 falls back to the plain
    trainer and produces bit-identical output; delta = 1 is rejected (its
    endpoint is naive Bayes).
    """
    _reject_full_thinning(cfg)
    if cfg.dropout.delta == 0.0:
        return train_logistic(data, cfg)
    x, y, _ = as_arrays(data)
    _check_classes(y)
    return _fit_logistic(x, y, cfg)


def train_naive_bayes(data, smoothing: float = 1.0) -> LinearClassifier:
    """Multinomial naive Bayes with additive smoothing.

    Weights are log-ratios of smoothed word probabilities; the intercept is
    the log prior ratio (class-conditional length terms are dropped, i.e.
    documents are treated as equal-length).
    """
    x, y, _ = as_arrays(data)
    _check_classes(y)
    if smoothing < 0:
        raise ValueError("smoothing must be >= 0")
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
    s = np.asarray(x, dtype=float) @ clf.weights
    u, inverse = np.unique(s, return_inverse=True)
    n1_at = np.bincount(inverse, weights=(y == 1), minlength=len(u))
    n0_at = np.bincount(inverse, weights=(y == 0), minlength=len(u))
    cum1 = np.cumsum(n1_at)          # label-1 examples with score <= u[i]
    cum0 = np.cumsum(n0_at)
    n0_total = cum0[-1]
    n1_total = cum1[-1]
    # threshold below all scores: predict everything 1
    thresholds = [u[0] - 1.0]
    errors = [n0_total]
    for i in range(len(u) - 1):
        thresholds.append(0.5 * (u[i] + u[i + 1]))
        errors.append(cum1[i] + (n0_total - cum0[i]))
    # threshold above all scores: predict everything 0
    thresholds.append(u[-1] + 1.0)
    errors.append(n1_total)
    best = min(range(len(thresholds)),
               key=lambda i: (errors[i], abs(-thresholds[i]), -thresholds[i]))
    return LinearClassifier(weights=clf.weights, intercept=-thresholds[best])


class DimensionError(ValueError):
    """Exhaustive search is limited to d <= 3."""


def erm_zero_one_small(data, resolution: int) -> LinearClassifier:
    """Exhaustive zero-one empirical risk minimizer for d <= 3.

    Scans unit directions on an angular grid of the given resolution, picks
    the optimal intercept for each via recalibration, and returns the
    direction with the lowest training error.
    """
    x, y, _ = as_arrays(data)
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


def evaluate_error(clf: LinearClassifier, data) -> float:
    """Fraction of misclassified examples."""
    x, y, _ = as_arrays(data)
    if len(y) == 0:
        raise EmptyDataError("no examples to evaluate")
    return float(np.mean(clf.predict(x) != y))


def error_by_topic(clf: LinearClassifier, data) -> dict[float, float]:
    """Misclassification rate per latent topic id."""
    x, y, topics = as_arrays(data)
    if topics is None:
        raise ValueError("data carries no topic ids")
    wrong = clf.predict(x) != y
    out = {}
    for t in np.unique(topics):
        mask = topics == t
        out[float(t)] = float(np.mean(wrong[mask]))
    return out
