"""Gaussian approximations and explicit error bounds for thinned scores.

Contains the normal-CDF error estimates for raw and thinned scores, an
empirical Berry-Esseen check against simulated Poisson scores, the explicit
bound that converts a thinned-measure error rate into a raw-measure one (the
"altitude" bound: thinning the training measure exponentiates the test
error), classical Gaussian tail inequalities, and the construction of a
max-margin topic separator from the word-probability matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .diagnostics import berry_esseen_statistic, score_moments
from .stats import dkw_slack, kolmogorov_distance
from .topics import TopicModel

BERRY_ESSEEN_CONSTANT = 4.0
_DKW_CONFIDENCE = 0.999      # of the sampling slack in berry_esseen_check
_CHUNK = 65_536              # simulated scores per Poisson draw
_RANK_TOL = 1e-12            # relative eigenvalue floor of the Gram matrix


def normal_cdf(x) -> np.ndarray | float:
    """Standard normal CDF via the complementary error function."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * erfc(-x / np.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


def gaussian_error_estimate(weights: np.ndarray, intensity: np.ndarray,
                            delta: float) -> tuple[float, float]:
    """Gaussian-approximation error rates on the raw and thinned measures.

    Assumes the positive class is optimal (score mean > 0 up to the caller's
    sign convention).  Thinning scales the mean by 1 - delta but the standard
    deviation by sqrt(1 - delta), so the thinned z-score shrinks by
    sqrt(1 - delta).
    """
    mu, var = score_moments(weights, intensity)
    if var <= 0.0:
        raise ValueError("score variance must be positive")
    z = mu / np.sqrt(var)
    return normal_cdf(-z), normal_cdf(-np.sqrt(1.0 - delta) * z)


@dataclass(frozen=True)
class BerryEsseenReport:
    """Empirical CDF distance of a Poisson score against its Gaussian fit."""

    sup_distance: float
    bound: float
    slack: float
    be_stat: float

    @property
    def passed(self) -> bool:
        return self.sup_distance <= self.bound + self.slack


def berry_esseen_check(weights: np.ndarray, intensity: np.ndarray,
                       n_samples: int, rng: np.random.Generator
                       ) -> BerryEsseenReport:
    """Compare the empirical CDF of w.x (Poisson counts) with its Gaussian fit.

    The Kolmogorov distance must not exceed the theoretical bound
    4 * sqrt(be_stat) plus a DKW sampling slack at 99.9% confidence.
    """
    w = np.asarray(weights, dtype=float)
    lam = np.asarray(intensity, dtype=float)
    mu, var = score_moments(w, lam)
    be = berry_esseen_statistic(w, lam)
    sigma = np.sqrt(var)
    # row chunks of one generator draw the same counts as a single call
    scores = np.empty(n_samples)
    for start in range(0, n_samples, _CHUNK):
        b = min(_CHUNK, n_samples - start)
        np.matmul(rng.poisson(lam, size=(b, len(lam))), w,
                  out=scores[start:start + b])
    dist = kolmogorov_distance(scores, lambda s: normal_cdf((s - mu) / sigma))
    return BerryEsseenReport(
        sup_distance=dist,
        bound=BERRY_ESSEEN_CONSTANT * float(np.sqrt(be)),
        slack=dkw_slack(n_samples, _DKW_CONFIDENCE), be_stat=be)


@dataclass(frozen=True)
class BoundReport:
    """Evaluated raw-measure error bound for a thinned-measure error rate.

    `inflated` is the thinned rate plus the Berry-Esseen correction; the
    bound is valid (non-vacuous) only while that stays below the normal tail
    at one standard deviation.
    """

    inflated: float
    vacuous: bool
    value: float


def altitude_error_bound(eps_thinned: float, be_stat: float,
                         delta: float) -> BoundReport:
    """Explicit bound on the raw-measure error given the thinned-measure error.

    The leading term exponentiates the (Berry-Esseen-inflated) thinned error
    to the power 1/(1 - delta) with an explicit constant and a slowly varying
    log factor; a residual Berry-Esseen floor is added back.  When the
    inflated error is too large the report is flagged vacuous.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    if eps_thinned < 0.0 or be_stat < 0.0:
        raise ValueError("eps_thinned and be_stat must be >= 0")
    c = BERRY_ESSEEN_CONSTANT
    root = float(np.sqrt(be_stat))
    inflated = eps_thinned + c * root / np.sqrt(1.0 - delta)
    vacuous = bool(inflated > normal_cdf(-1.0))
    value = float("inf")
    if not vacuous:
        expo = 1.0 / (1.0 - delta)
        ratio = delta / (1.0 - delta)
        coeff = 2.0 ** expo * np.sqrt(1.0 - delta) * np.sqrt(4.0 * np.pi) ** ratio
        log_factor = np.sqrt(-np.log(inflated)) ** ratio
        value = float(coeff * log_factor * inflated ** expo + c * root)
    return BoundReport(inflated=inflated, vacuous=vacuous, value=value)


@dataclass(frozen=True)
class TailBound:
    t: float
    lower: float
    middle: float
    upper: float

    @property
    def strict(self) -> bool:
        return self.lower < self.middle < self.upper


def gaussian_tail_check(t_grid) -> tuple[TailBound, ...]:
    """Verify t/(t^2+1) < sqrt(2 pi) e^{t^2/2} Phi(-t) < 1/t on a grid of t > 0."""
    entries = []
    for t in np.asarray(t_grid, dtype=float):
        if t <= 0:
            raise ValueError("tail inequalities require t > 0")
        middle = float(np.sqrt(2.0 * np.pi) * np.exp(t * t / 2.0) * normal_cdf(-t))
        entries.append(TailBound(t=float(t), lower=float(t / (t * t + 1.0)),
                                 middle=middle, upper=float(1.0 / t)))
    return tuple(entries)


class RankDeficientError(ValueError):
    """The word-probability matrix has fewer independent columns than topics."""


@dataclass(frozen=True)
class MarginReport:
    """Margin condition evaluation and the constructed topic separator."""

    holds: bool
    threshold: float
    min_singular_value: float
    separator: np.ndarray
    separator_norm: float
    norm_bound: float
    max_margin_error: float


def margin_condition(model: TopicModel, delta: float) -> MarginReport:
    """Check that topics are separable with margin and build the separator.

    The condition compares the smallest singular value of the d x T
    word-probability matrix against sqrt(T / ((1-delta) * min_length)) times
    (1 + sqrt(log+ (min_length / 2 pi))).  The separator is the minimum-norm
    vector giving every topic center a unit margin, signed by the topic's
    majority label; it is returned normalized, with the largest deviation
    from unit margin and the norm bound reported.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    pi = model.word_prob_matrix
    n_topics = pi.shape[1]
    lam = float(model.doc_lengths.min())
    log_plus = max(np.log(lam / (2.0 * np.pi)), 0.0)
    threshold = float(np.sqrt(n_topics / ((1.0 - delta) * lam))
                      * (1.0 + np.sqrt(log_plus)))

    gram = pi.T @ pi
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= _RANK_TOL * max(eigs[-1], 1.0):
        raise RankDeficientError(
            "word-probability matrix does not have full column rank")
    min_sv = float(np.sqrt(eigs[0]))  # positive past the rank check
    signs = np.where(model.label1_given_topic() > 0.5, 1.0, -1.0)
    z = np.linalg.solve(gram, signs)
    w_star = pi @ z
    margins = signs * (pi.T @ w_star)
    norm = float(np.linalg.norm(w_star))
    ones = np.ones(n_topics)
    norm_bound = float(np.sqrt(ones @ np.linalg.solve(gram, ones)))
    return MarginReport(
        holds=min_sv >= threshold, threshold=threshold,
        min_singular_value=min_sv, separator=w_star / norm,
        separator_norm=norm, norm_bound=norm_bound,
        max_margin_error=float(np.max(np.abs(margins - 1.0))))
