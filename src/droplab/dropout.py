"""Binomial thinning of count features and thinned-model posteriors.

Thinning keeps each word occurrence independently with probability 1 - delta.
Poisson counts stay Poisson under thinning, so a thinned discrete model is
just the same model with every intensity scaled by 1 - delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .topics import Topic, TopicModel, bayes_posterior


@dataclass(frozen=True)
class DropoutConfig:
    """Thinning probability and the Monte Carlo replicate count per pass."""

    delta: float = 0.0
    mc_replicates: int = 8

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta}")
        if self.mc_replicates < 1:
            raise ValueError("mc_replicates must be >= 1")


# The occurrence kernel runs only where it beats rng.binomial: at most about
# one expected geometric draw per count entry, and an int32 occurrence index
# no larger than twice the float64 copy of the counts a trainer holds (a mean
# count of at most 4).  Measured crossovers are recorded in CHANGES.md.
_MAX_GAPS_PER_ENTRY = 1.0
_MAX_INDEX_TO_DENSE = 2.0


def _bernoulli_positions(total: int, p: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Sorted positions in [0, total) of independent Bernoulli(p) successes.

    Successes are cumulative geometric gaps; gaps are drawn in chunks and
    topped up until they pass `total`, so every position is a genuine trial.
    """
    if total == 0:
        return np.empty(0, dtype=np.int64)
    chunks = []
    last = -1
    while last < total:
        need = (total - last) * p
        gaps = rng.geometric(p, size=int(need + 3.0 * math.sqrt(need)) + 1)
        pos = last + np.cumsum(gaps)
        chunks.append(pos)
        last = int(pos[-1])
    pos = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return pos[:np.searchsorted(pos, total)]


class Thinner:
    """Repeated Binomial(count, 1 - delta) draws of one count array.

    Every thinning draw in droplab goes through this class.  Two kernels give
    the same distribution, entry by entry:

    - rng.binomial on every entry;
    - the occurrence kernel: the counts are expanded once into an int32
      index of word occurrences (one flat entry position per occurrence);
      each draw picks the occurrences of the rarer outcome (kept when
      keep <= 1/2, dropped otherwise) by geometric gaps and counts them back
      with one bincount.

    The kernel is fixed at construction from the counts and delta (see
    _MAX_GAPS_PER_ENTRY and _MAX_INDEX_TO_DENSE); large counts keep
    rng.binomial and its random stream.
    """

    def __init__(self, counts: np.ndarray, delta: float):
        x = np.asarray(counts)
        if np.any(x < 0):
            raise ValueError("counts must be non-negative")
        if not 0.0 <= delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        self.counts = x
        self.delta = delta
        self.keep = 1.0 - delta
        self.occurrences = None
        if 0.0 < delta < 1.0 and self._fits_occurrences():
            self.occurrences = np.repeat(
                np.arange(x.size, dtype=np.int32), x.ravel())

    def _fits_occurrences(self) -> bool:
        x = self.counts
        if x.size >= 2 ** 31:  # flat positions must fit int32
            return False
        total = int(x.sum(dtype=np.int64))
        gaps = total * min(self.keep, self.delta)
        return (gaps <= _MAX_GAPS_PER_ENTRY * x.size
                and 4 * total <= _MAX_INDEX_TO_DENSE * 8 * x.size)

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        x = self.counts
        if self.delta == 0.0:
            return x.copy()
        if self.delta == 1.0:
            return np.zeros_like(x)
        if self.occurrences is None:
            return rng.binomial(x, self.keep)
        p = min(self.keep, self.delta)
        hits = self.occurrences[_bernoulli_positions(len(self.occurrences),
                                                     p, rng)]
        picked = np.bincount(hits, minlength=x.size).reshape(x.shape)
        return picked if self.keep <= 0.5 else x - picked


def thin_counts(counts: np.ndarray, delta: float,
                rng: np.random.Generator) -> np.ndarray:
    """Independently keep each counted occurrence with probability 1 - delta."""
    return Thinner(counts, delta).draw(rng)


def thinned_model(model: TopicModel, delta: float) -> TopicModel:
    """The model seen through dropout: every intensity scaled by 1 - delta."""
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1) for a valid thinned model")
    if delta == 0.0:
        return model
    topics = tuple(
        Topic(id=t.id, rho0=t.rho0, rho1=t.rho1,
              intensity=(1.0 - delta) * t.intensity)
        for t in model.topics
    )
    return TopicModel(label_prior=model.label_prior, topics=topics,
                      vocab_size=model.vocab_size)


def dropout_posterior(model: TopicModel, delta: float,
                      counts: np.ndarray) -> float | np.ndarray:
    """P(y = 1 | thinned counts = v): the Bayes posterior of the thinned model.

    Like bayes_posterior, a vector gives a float and a matrix one per row."""
    return bayes_posterior(thinned_model(model, delta), counts)
