"""Small statistical helpers used by the verification suites: the
one-sample Kolmogorov statistic, the DKW confidence slack and the standard
error of a Monte Carlo proportion.

The Kolmogorov statistic reads a tally of the sample, its distinct values
and their counts, which can be built a piece at a time; it calls the
reference CDF once per distinct value: a few hundred calls for 10^6 Poisson
scores with integer weights.
"""

from __future__ import annotations

import numpy as np


def tally(values: np.ndarray, ties: np.ndarray, samples
          ) -> tuple[np.ndarray, np.ndarray]:
    """Add samples to a tally: (values, ties) holds the distinct sample
    values in increasing order and how many samples took each.  Start from
    empty arrays; a sample tallied in pieces gives the tally of all of it."""
    new, new_ties = np.unique(samples, return_counts=True)
    # a stable sort of two sorted runs is one linear merge (timsort)
    both = np.concatenate([values, new])
    order = np.argsort(both, kind="stable")
    merged = both[order]
    counts = np.concatenate([ties, new_ties])[order]
    first = np.ones(len(merged), dtype=bool)  # first of each run of equals
    np.not_equal(merged[1:], merged[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return merged[starts], np.add.reduceat(counts, starts)


def kolmogorov_distance(values: np.ndarray, ties: np.ndarray, cdf) -> float:
    """sup_x |F_n(x) - F(x)| for a continuous reference CDF, from the tally
    (values, ties) of the sample (see `tally`).

    Uses both one-sided gaps at the distinct sorted sample values: within a
    run of tied values the gap above F peaks at the run's last index and the
    gap below F at its first, so the result equals the per-sample formula
    bit for bit.
    """
    ties = np.asarray(ties)
    n = int(ties.sum())
    if n == 0:
        raise ValueError("empty sample")
    f = cdf(np.asarray(values, dtype=float))
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
