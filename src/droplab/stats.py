"""Small statistical helpers used by the verification suites: the
one-sample Kolmogorov statistic, the running merge of sample tallies it
reads, the DKW confidence slack and the standard error of a Monte Carlo
proportion.

A sample's pieces are tallied as they are drawn and merged into one sorted
tally that holds each value once; the Kolmogorov statistic reads that tally
as it is and calls the reference CDF once per distinct value: a few hundred
calls for 10^6 Poisson scores with integer weights.
"""

from __future__ import annotations

import numpy as np


def merge_tallies(tallies) -> tuple[np.ndarray, np.ndarray]:
    """One tally (values, ties) of every sample in an iterable of tallies:
    values sorted and distinct, ties[i] the int64 count of values[i].

    The tallies are merged into a running tally in batches: those pending
    are merged in once they hold at least as many entries as the running
    tally, so a rebuild of the running tally never copies more entries
    than it merges in.
    """
    values, ties = np.empty(0), np.zeros(0, dtype=np.int64)
    pending, held = [], 0
    for tally in tallies:
        pending.append(tally)
        held += len(tally[0])
        if held >= len(values):
            values, ties = _merge_into(values, ties, pending)
            pending, held = [], 0
    return _merge_into(values, ties, pending) if pending else (values, ties)


def _merge_into(values, ties, pending):
    """The sorted, distinct tally (values, ties) with the tallies in
    `pending` added in: the counts of values it holds already are added to
    `ties` in place, and new values are inserted where searchsorted puts
    them."""
    more, where = np.unique(np.concatenate([v for v, _ in pending]),
                            return_inverse=True)
    more_ties = np.bincount(where, weights=np.concatenate(
        [t for _, t in pending])).astype(np.int64)  # exact below 2**53
    at = np.searchsorted(values, more)
    seen = at < len(values)
    seen[seen] = values[at[seen]] == more[seen]
    ties[at[seen]] += more_ties[seen]
    new = ~seen
    return (np.insert(values, at[new], more[new]),
            np.insert(ties, at[new], more_ties[new]))


def kolmogorov_distance(values: np.ndarray, ties: np.ndarray, cdf) -> float:
    """sup_x |F_n(x) - F(x)| for a continuous reference CDF, from a tally of
    the sample: ties[i] samples took values[i].  The values must be sorted
    and distinct (as `np.unique` and `merge_tallies` give them), else
    ValueError.

    Uses both one-sided gaps at the distinct sorted sample values: within a
    run of tied values the gap above F peaks at the run's last index and the
    gap below F at its first, so the result equals the per-sample formula
    bit for bit.
    """
    values = np.asarray(values, float)
    ties = np.asarray(ties)
    n = int(ties.sum())
    if n == 0:
        raise ValueError("empty sample")
    if not np.all(values[1:] > values[:-1]):
        raise ValueError("tally values must be sorted and distinct")
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
