"""Shared model and configuration presets used by the verification suites,
the CLI, and the demo scripts."""

from __future__ import annotations

import numpy as np

from .experiments import SweepConfig
from .topics import Topic, TopicModel


def two_word_intensity(z_ratio: float, sigma: float) -> tuple[float, float]:
    """Intensity pair for weights (1, -1) with score mean z_ratio * sigma and
    standard deviation sigma."""
    var = sigma * sigma
    lam1 = 0.5 * (var + z_ratio * sigma)
    lam2 = 0.5 * (var - z_ratio * sigma)
    if lam2 < 0:
        raise ValueError("z_ratio too large for this sigma")
    return lam1, lam2


def default_sweep_configs() -> list[SweepConfig]:
    """Exponent-sweep points at delta = 0.5: the z = 2.5 score at two
    concentration levels, z = 5 at a third, plus an unthinned control."""
    delta = 0.5
    return [
        SweepConfig(weights=(1.0, -1.0),
                    intensity=two_word_intensity(2.5, 10.0), delta=delta),
        SweepConfig(weights=(1.0, -1.0),
                    intensity=two_word_intensity(2.5, 100.0), delta=delta),
        SweepConfig(weights=(1.0, -1.0),
                    intensity=two_word_intensity(5.0, 200.0), delta=delta),
        SweepConfig(weights=(1.0, -1.0),
                    intensity=two_word_intensity(2.5, 100.0), delta=0.0),
    ]


def berry_esseen_suite() -> list[tuple[np.ndarray, np.ndarray]]:
    """Five (weights, intensity) pairs spanning concentration 1e-4 .. 0.25."""
    return [
        (np.array([1.0]), np.array([4.0])),
        (np.array([1.0]), np.array([100.0])),
        (np.array([1.0, -1.0]), np.array(two_word_intensity(2.5, 10.0))),
        (np.array([3.0, 1.0, -2.0]), np.array([50.0, 100.0, 30.0])),
        (np.array([1.0, -1.0]), np.array(two_word_intensity(2.5, 100.0))),
    ]


def equal_length_models() -> list[TopicModel]:
    """Discrete models whose topics share one expected document length."""
    m1 = TopicModel(label_prior=0.5, vocab_size=2, topics=(
        Topic(id=0, rho0=1.0, rho1=0.0, intensity=np.array([2.0, 1.0])),
        Topic(id=1, rho0=0.0, rho1=1.0, intensity=np.array([1.0, 2.0])),
    ))
    m2 = TopicModel(label_prior=0.4, vocab_size=3, topics=(
        Topic(id=0, rho0=0.6, rho1=0.1, intensity=np.array([3.0, 1.0, 1.0])),
        Topic(id=1, rho0=0.3, rho1=0.2, intensity=np.array([1.0, 3.0, 1.0])),
        Topic(id=2, rho0=0.1, rho1=0.7, intensity=np.array([1.0, 1.0, 3.0])),
    ))
    m3 = TopicModel(label_prior=0.3, vocab_size=2, topics=(
        Topic(id=0, rho0=1.0, rho1=0.0, intensity=np.array([4.0, 2.0])),
        Topic(id=1, rho0=0.0, rho1=1.0, intensity=np.array([1.0, 5.0])),
    ))
    return [m1, m2, m3]


def unequal_length_control() -> TopicModel:
    """Negative control: topic lengths differ, so thinning shifts posteriors."""
    return TopicModel(label_prior=0.5, vocab_size=1, topics=(
        Topic(id=0, rho0=1.0, rho1=0.0, intensity=np.array([1.0])),
        Topic(id=1, rho0=0.0, rho1=1.0, intensity=np.array([2.0])),
    ))


def orthogonal_topic_model(doc_length: float, n_topics: int = 3,
                           words_per_topic: int = 2) -> TopicModel:
    """Topics on disjoint word blocks (orthogonal word-probability columns).

    Even-indexed topics belong to label 0, odd to label 1; all topics share
    the same expected document length.
    """
    d = n_topics * words_per_topic
    even = [t for t in range(n_topics) if t % 2 == 0]
    odd = [t for t in range(n_topics) if t % 2 == 1]
    if not even or not odd:
        raise ValueError("need at least two topics for both labels")
    topics = []
    for t in range(n_topics):
        intensity = np.zeros(d)
        block = slice(t * words_per_topic, (t + 1) * words_per_topic)
        intensity[block] = doc_length / words_per_topic
        topics.append(Topic(
            id=t,
            rho0=1.0 / len(even) if t % 2 == 0 else 0.0,
            rho1=1.0 / len(odd) if t % 2 == 1 else 0.0,
            intensity=intensity))
    return TopicModel(label_prior=0.5, topics=tuple(topics), vocab_size=d)
