"""Small statistical helpers used by the verification suites: the
one-sample Kolmogorov statistic, the DKW confidence slack and the standard
error of a Monte Carlo proportion.

The Kolmogorov statistic reads a tally of the sample, so the tallies of its
pieces can be joined and handed over as one; it merges them once and calls
the reference CDF once per distinct value: a few hundred calls for 10^6
Poisson scores with integer weights.
"""

from __future__ import annotations

import numpy as np


def kolmogorov_distance(values: np.ndarray, ties: np.ndarray, cdf) -> float:
    """sup_x |F_n(x) - F(x)| for a continuous reference CDF, from a tally of
    the sample: ties[i] samples took values[i], in any order, repeats allowed.

    Uses both one-sided gaps at the distinct sorted sample values: within a
    run of tied values the gap above F peaks at the run's last index and the
    gap below F at its first, so the result equals the per-sample formula
    bit for bit.
    """
    ties = np.asarray(ties)
    n = int(ties.sum())
    if n == 0:
        raise ValueError("empty sample")
    values, where = np.unique(np.asarray(values, float), return_inverse=True)
    ties = np.bincount(where, weights=ties)  # exact below 2**53 samples
    f = cdf(values)
    above = np.cumsum(ties)          # samples <= each distinct value
    d_plus = np.max(above / n - f)
    d_minus = np.max(f - (above - ties) / n)
    return float(max(d_plus, d_minus))


def dkw_slack(n: int, confidence: float) -> float:
    """DKW band half-width: empirical CDF is within this of the truth w.p. >= confidence."""
    alpha = 1.0 - confidence
    return float(np.sqrt(np.log(2.0 / alpha) / (2.0 * n)))


def binomial_se(p_hat, n):
    """Standard error of a Monte Carlo proportion, elementwise for arrays."""
    return np.sqrt(np.maximum(p_hat * (1.0 - p_hat), 0.0) / n)
