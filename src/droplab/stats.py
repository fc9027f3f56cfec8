"""Small statistical helpers used by the verification suites: the
one-sample Kolmogorov statistic, the DKW confidence slack and the standard
error of a Monte Carlo proportion.
"""

from __future__ import annotations

import numpy as np


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


def dkw_slack(n: int, confidence: float) -> float:
    """DKW band half-width: empirical CDF is within this of the truth w.p. >= confidence."""
    alpha = 1.0 - confidence
    return float(np.sqrt(np.log(2.0 / alpha) / (2.0 * n)))


def binomial_se(p_hat: float, n: int) -> float:
    """Standard error of a Monte Carlo proportion."""
    return float(np.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n))
