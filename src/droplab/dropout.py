"""Binomial thinning of count features and thinned-model posteriors.

Thinning keeps each word occurrence independently with probability 1 - delta.
Poisson counts stay Poisson under thinning, so a thinned discrete model is
just the same model with every intensity scaled by 1 - delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topics import Topic, TopicModel, bayes_posterior


@dataclass(frozen=True)
class DropoutConfig:
    """Thinning probability.

    mc_replicates is read by no trainer: the dropout trainer draws nothing.
    It stays only because the benchmark (bench/workloads.py) sets it and its
    trace (bench/spans.py) reads it.
    """

    delta: float = 0.0
    mc_replicates: int = 8

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta}")
        if self.mc_replicates < 1:
            raise ValueError("mc_replicates must be >= 1")


def thin_counts(counts: np.ndarray, delta: float,
                rng: np.random.Generator) -> np.ndarray:
    """Independently keep each counted occurrence with probability 1 - delta.

    One rng.binomial draw per call; delta = 0 returns a copy and delta = 1
    zeros, both in the dtype of the counts and without drawing.
    """
    x = np.asarray(counts)
    if not np.issubdtype(x.dtype, np.integer):
        raise ValueError(f"counts must be integers, got dtype {x.dtype}")
    if np.any(x < 0):
        raise ValueError("counts must be non-negative")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    if delta == 0.0:
        return x.copy()
    if delta == 1.0:
        return np.zeros_like(x)
    return rng.binomial(x, 1.0 - delta)


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
