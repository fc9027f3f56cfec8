"""Small statistical test helpers used by the verification suites.

Chi-square goodness-of-fit and two-sample tests with bin pooling, the
one-sample Kolmogorov statistic, and the DKW confidence slack.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import chi2


def pool_bins(observed: np.ndarray, expected: np.ndarray, min_expected: float = 5.0):
    """Merge adjacent bins until every pooled expected count is >= min_expected.

    The final bin absorbs any undersized tail.  Returns (observed, expected)
    pooled arrays.
    """
    obs_pooled, exp_pooled = [], []
    o_acc = 0.0
    e_acc = 0.0
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


def chi_square_gof(observed: np.ndarray, expected: np.ndarray,
                   min_expected: float = 5.0) -> tuple[float, float]:
    """Pooled chi-square goodness-of-fit test.

    `observed` are bin counts, `expected` the matching expected counts
    (same total).  Returns (statistic, p_value) with df = pooled bins - 1.
    """
    obs, exp = pool_bins(np.asarray(observed, float), np.asarray(expected, float),
                         min_expected)
    if len(obs) < 2:
        return 0.0, 1.0
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return stat, float(chi2.sf(stat, df=len(obs) - 1))


def chi_square_two_sample(counts_a: np.ndarray, counts_b: np.ndarray,
                          min_expected: float = 5.0) -> tuple[float, float]:
    """Two-sample chi-square test on parallel histograms.

    Bins are pooled on the combined counts so sparse cells do not distort
    the statistic.  Returns (statistic, p_value).
    """
    a = np.asarray(counts_a, dtype=float)
    b = np.asarray(counts_b, dtype=float)
    a_p, ab_p = pool_bins(a, a + b, 2 * min_expected)
    b_p = ab_p - a_p
    na, nb = a_p.sum(), b_p.sum()
    if len(a_p) < 2:
        return 0.0, 1.0
    k1 = np.sqrt(nb / na)
    k2 = np.sqrt(na / nb)
    stat = float(np.sum((k1 * a_p - k2 * b_p) ** 2 / (a_p + b_p)))
    return stat, float(chi2.sf(stat, df=len(a_p) - 1))


def kolmogorov_distance(samples: np.ndarray, cdf) -> float:
    """sup_x |F_n(x) - F(x)| for a continuous reference CDF.

    Uses both one-sided gaps at the sorted sample points.
    """
    s = np.sort(np.asarray(samples, dtype=float))
    n = len(s)
    if n == 0:
        raise ValueError("empty sample")
    f = cdf(s)
    i = np.arange(1, n + 1, dtype=float)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1.0) / n)
    return float(max(d_plus, d_minus))


def dkw_slack(n: int, confidence: float = 0.999) -> float:
    """DKW band half-width: empirical CDF is within this of the truth w.p. >= confidence."""
    alpha = 1.0 - confidence
    return float(np.sqrt(np.log(2.0 / alpha) / (2.0 * n)))


def binomial_se(p_hat: float, n: int) -> float:
    """Standard error of a Monte Carlo proportion."""
    return float(np.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n))
