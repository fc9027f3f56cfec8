"""Poisson topic models: generative sampling and exact posteriors.

A model draws a binary label, a topic given the label, and then independent
Poisson word counts from the topic's intensity vector.  Discrete models keep
an explicit topic table and support exact Bayes posteriors; parametric models
draw a fresh intensity vector per document (used by the synthetic benchmark,
whose label-1 topics form a continuum).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

import numpy as np
from scipy.special import gammaln, logsumexp

PROB_ATOL = 1e-12


class UndefinedPosteriorError(ValueError):
    """Both class likelihoods are exactly zero at the queried count vector."""


class EnumerationTooLargeError(ValueError):
    """Exact enumeration would exceed the configured cell budget."""


@dataclass(frozen=True)
class Topic:
    """One topic: per-label weights and a Poisson intensity vector."""

    id: int
    rho0: float
    rho1: float
    intensity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "intensity",
                           np.asarray(self.intensity, dtype=float))
        if self.intensity.ndim != 1:
            raise ValueError("intensity must be a vector")
        if np.any(self.intensity < 0) or not np.all(np.isfinite(self.intensity)):
            raise ValueError("intensity entries must be finite and >= 0")
        if not np.any(self.intensity > 0):
            raise ValueError("intensity must have at least one positive entry")
        if not (0.0 <= self.rho0 <= 1.0 and 0.0 <= self.rho1 <= 1.0):
            raise ValueError("topic weights must lie in [0, 1]")

    @property
    def doc_length(self) -> float:
        """Expected document length under this topic."""
        return float(self.intensity.sum())

    @property
    def word_probs(self) -> np.ndarray:
        """Intensity normalized to a word-probability vector."""
        return self.intensity / self.intensity.sum()


@dataclass(frozen=True)
class TopicModel:
    """Discrete Poisson topic model over a fixed vocabulary."""

    label_prior: float
    topics: tuple[Topic, ...]
    vocab_size: int

    def __post_init__(self):
        object.__setattr__(self, "topics", tuple(self.topics))
        if not 0.0 <= self.label_prior <= 1.0:
            raise ValueError("label_prior must lie in [0, 1]")
        if len(self.topics) < 1:
            raise ValueError("model needs at least one topic")
        for t in self.topics:
            if len(t.intensity) != self.vocab_size:
                raise ValueError(
                    f"topic {t.id}: intensity length {len(t.intensity)} != "
                    f"vocab_size {self.vocab_size}")
        for attr in ("rho0", "rho1"):
            total = sum(getattr(t, attr) for t in self.topics)
            if abs(total - 1.0) > PROB_ATOL:
                raise ValueError(f"{attr} weights sum to {total}, expected 1")

    @property
    def n_topics(self) -> int:
        return len(self.topics)

    @property
    def intensities(self) -> np.ndarray:
        """T x d matrix of intensity vectors."""
        return np.stack([t.intensity for t in self.topics])

    @property
    def rho(self) -> np.ndarray:
        """2 x T matrix of topic weights per label."""
        return np.array([[t.rho0 for t in self.topics],
                         [t.rho1 for t in self.topics]])

    @property
    def doc_lengths(self) -> np.ndarray:
        return np.array([t.doc_length for t in self.topics])

    @property
    def word_prob_matrix(self) -> np.ndarray:
        """d x T matrix whose columns are the per-topic word probabilities."""
        return np.stack([t.word_probs for t in self.topics], axis=1)

    def topic_probs(self) -> np.ndarray:
        """Marginal topic probabilities."""
        p1 = self.label_prior
        return (1.0 - p1) * self.rho[0] + p1 * self.rho[1]

    def label1_given_topic(self) -> np.ndarray:
        """P(label = 1 | topic) per topic; nan where the topic has mass 0."""
        pt = self.topic_probs()
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(pt > 0, self.label_prior * self.rho[1] / pt, np.nan)

    def to_dict(self) -> dict:
        return {
            "label_prior": self.label_prior,
            "vocab_size": self.vocab_size,
            "topics": [
                {"id": t.id, "rho0": t.rho0, "rho1": t.rho1,
                 "intensity": t.intensity.tolist()}
                for t in self.topics
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TopicModel":
        topics = tuple(
            Topic(id=int(t["id"]), rho0=float(t["rho0"]), rho1=float(t["rho1"]),
                  intensity=np.asarray(t["intensity"], dtype=float))
            for t in doc["topics"]
        )
        return cls(label_prior=float(doc["label_prior"]), topics=topics,
                   vocab_size=int(doc["vocab_size"]))


@dataclass(frozen=True)
class Document:
    """One sampled document: counts, label, and the latent topic."""

    counts: np.ndarray
    label: int
    topic_id: float
    length: int

    def __post_init__(self):
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        if int(self.counts.sum()) != self.length:
            raise ValueError("length must equal the sum of counts")


@dataclass(frozen=True)
class DocumentBatch:
    """Column-oriented batch of sampled documents."""

    counts: np.ndarray          # (n, d) integer counts
    labels: np.ndarray          # (n,) in {0, 1}
    topics: np.ndarray          # (n,) latent topic ids (float for continua)
    intensities: np.ndarray | None = None  # (n, d) when requested

    def __len__(self) -> int:
        return self.counts.shape[0]

    @property
    def lengths(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def document(self, i: int) -> Document:
        return Document(counts=self.counts[i], label=int(self.labels[i]),
                        topic_id=float(self.topics[i]),
                        length=int(self.counts[i].sum()))

    def documents(self) -> list[Document]:
        return [self.document(i) for i in range(len(self))]

    @staticmethod
    def concatenate(batches: "list[DocumentBatch]") -> "DocumentBatch":
        return DocumentBatch(
            counts=np.concatenate([b.counts for b in batches]),
            labels=np.concatenate([b.labels for b in batches]),
            topics=np.concatenate([b.topics for b in batches]),
        )


@runtime_checkable
class GenerativeSampler(Protocol):
    """Anything that can draw (label, topic, intensity) triples."""

    vocab_size: int
    label_prior: float

    def draw_topics(self, n: int, rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (labels, topic_ids, intensity_matrix) for n documents."""
        ...


@dataclass(frozen=True)
class DiscreteSampler:
    """Sampler backed by an explicit TopicModel."""

    model: TopicModel

    @property
    def vocab_size(self) -> int:
        return self.model.vocab_size

    @property
    def label_prior(self) -> float:
        return self.model.label_prior

    def draw_topics(self, n, rng):
        labels = (rng.random(n) < self.model.label_prior).astype(np.int64)
        cum = np.cumsum(self.model.rho, axis=1)
        u = rng.random(n)
        topic_idx = np.empty(n, dtype=np.int64)
        for c in (0, 1):
            mask = labels == c
            topic_idx[mask] = np.searchsorted(cum[c], u[mask], side="right")
        topic_idx = np.minimum(topic_idx, self.model.n_topics - 1)
        intensities = self.model.intensities[topic_idx]
        ids = np.array([self.model.topics[i].id for i in range(self.model.n_topics)])
        return labels, ids[topic_idx].astype(float), intensities


@dataclass(frozen=True)
class ParametricSampler:
    """Sampler whose label-1 topics come from a deterministic draw function.

    `topic_fn(labels, rng)` must return (topic_ids, intensity_matrix) and be a
    pure function of its arguments and the generator state.
    """

    label_prior: float
    vocab_size: int
    topic_fn: Callable[[np.ndarray, np.random.Generator],
                       tuple[np.ndarray, np.ndarray]]
    name: str = "parametric"
    params: dict = field(default_factory=dict)

    def draw_topics(self, n, rng):
        labels = (rng.random(n) < self.label_prior).astype(np.int64)
        topic_ids, intensities = self.topic_fn(labels, rng)
        return labels, topic_ids, intensities


def sample_documents(sampler: GenerativeSampler, n: int,
                     rng: np.random.Generator,
                     return_intensities: bool = False) -> DocumentBatch:
    """Draw n documents: label, topic, then independent Poisson counts."""
    labels, topic_ids, intensities = sampler.draw_topics(n, rng)
    counts = rng.poisson(intensities)
    return DocumentBatch(counts=counts, labels=labels, topics=topic_ids,
                         intensities=intensities if return_intensities else None)


def sample_document(sampler: GenerativeSampler,
                    rng: np.random.Generator) -> Document:
    """Draw a single document."""
    return sample_documents(sampler, 1, rng).document(0)


def sample_documents_multinomial(sampler: GenerativeSampler, n: int,
                                 rng: np.random.Generator) -> DocumentBatch:
    """Draw documents length-first: Poisson total length, then multinomial words.

    Distributionally identical to `sample_documents`.
    """
    labels, topic_ids, intensities = sampler.draw_topics(n, rng)
    totals = intensities.sum(axis=1)
    lengths = rng.poisson(totals)
    probs = intensities / totals[:, None]
    counts = rng.multinomial(lengths, probs)
    return DocumentBatch(counts=counts, labels=labels, topics=topic_ids)


def sample_document_multinomial(sampler: GenerativeSampler,
                                rng: np.random.Generator) -> Document:
    """Single-document version of the length-first sampler."""
    return sample_documents_multinomial(sampler, 1, rng).document(0)


def _poisson_log_pmf(counts: np.ndarray, intensity: np.ndarray) -> np.ndarray:
    """Rows of log PMFs: counts (m, d) against intensity (d,), summed over d."""
    lam = np.asarray(intensity, dtype=float)
    v = np.asarray(counts, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_lam = np.where(lam > 0, np.log(np.where(lam > 0, lam, 1.0)), -np.inf)
        terms = np.where(v > 0, v * log_lam, 0.0)
    return terms.sum(axis=-1) - lam.sum() - gammaln(v + 1.0).sum(axis=-1)


def _log_class_likelihoods(model: TopicModel, counts: np.ndarray) -> np.ndarray:
    """log P(x = v | y = c) for each row v; returns (m, 2)."""
    v = np.atleast_2d(np.asarray(counts))
    if v.shape[1] != model.vocab_size:
        raise ValueError("count vector length must match vocab_size")
    if np.any(v < 0):
        raise ValueError("counts must be non-negative")
    per_topic = np.stack(
        [_poisson_log_pmf(v, t.intensity) for t in model.topics], axis=1)  # (m, T)
    with np.errstate(divide="ignore"):
        log_rho = np.where(model.rho > 0,
                           np.log(np.where(model.rho > 0, model.rho, 1.0)),
                           -np.inf)
    out = np.empty((v.shape[0], 2))
    for c in (0, 1):
        out[:, c] = logsumexp(per_topic + log_rho[c][None, :], axis=1)
    return out


def bayes_posterior(model: TopicModel, counts: np.ndarray) -> float:
    """Exact P(y = 1 | x = v) under a discrete model, computed in log space.

    Raises UndefinedPosteriorError when v is impossible under both classes.
    """
    ll = _log_class_likelihoods(model, counts)[0]
    p1 = model.label_prior
    with np.errstate(divide="ignore"):
        log_prior = np.array([np.log(1.0 - p1) if p1 < 1.0 else -np.inf,
                              np.log(p1) if p1 > 0.0 else -np.inf])
    joint = ll + log_prior
    if np.all(np.isneginf(joint)):
        raise UndefinedPosteriorError(
            "count vector has zero likelihood under both classes")
    total = logsumexp(joint)
    return float(np.exp(joint[1] - total))


def enumerate_counts(d: int, max_total: int, cell_budget: int = 5_000_000
                     ) -> np.ndarray:
    """All non-negative integer vectors of length d with sum <= max_total."""
    from math import comb

    n_cells = comb(max_total + d, d)
    if n_cells > cell_budget:
        raise EnumerationTooLargeError(
            f"{n_cells} cells exceed the budget of {cell_budget}")
    grids = [np.arange(max_total + 1)] * d
    mesh = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, d)
    return mesh[mesh.sum(axis=1) <= max_total]


@dataclass(frozen=True)
class BayesErrorResult:
    """Truncated exact Bayes risk plus the probability mass left out."""

    value: float
    truncation_mass: float
    max_total_count: int
    n_cells: int


def bayes_error(model: TopicModel, max_total_count: int | None = None,
                cell_budget: int = 5_000_000) -> BayesErrorResult:
    """Exact Bayes risk summed over all count vectors with a bounded total.

    The default truncation covers the mean document length plus ten standard
    deviations.  The unexplored mass is reported so callers can bound the
    truncation error: true risk lies within [value, value + truncation_mass].
    """
    if max_total_count is None:
        mean_len = float(np.max(model.doc_lengths))
        max_total_count = int(np.ceil(mean_len + 10.0 * np.sqrt(mean_len)))
    grid = enumerate_counts(model.vocab_size, max_total_count, cell_budget)
    ll = _log_class_likelihoods(model, grid)
    p1 = model.label_prior
    joint = np.exp(ll) * np.array([1.0 - p1, p1])[None, :]
    covered = float(joint.sum())
    risk = float(np.minimum(joint[:, 0], joint[:, 1]).sum())
    return BayesErrorResult(value=risk, truncation_mass=max(0.0, 1.0 - covered),
                            max_total_count=max_total_count,
                            n_cells=grid.shape[0])


SYNTHETIC_PRESET = "synthetic-sec6"


def build_synthetic_model(exp_rate: float = 3.0, vocab_size: int = 500,
                          block_size: int = 7, doc_length: float = 1000.0,
                          label_prior: float = 0.5) -> ParametricSampler:
    """Two-block synthetic benchmark sampler.

    Label 0 always uses the fixed topic whose log-intensity profile is 1 on
    the first word block and 0 elsewhere.  Label 1 draws a topic strength
    from an Exponential distribution (rate `exp_rate`, so mean 1/rate) and
    puts that strength on the second block.  Intensities are a softmax of the
    profile scaled to the expected document length, so every document has
    the same expected length regardless of topic.
    """
    if exp_rate <= 0 or doc_length <= 0:
        raise ValueError("exp_rate and doc_length must be positive")
    if vocab_size < 2 * block_size:
        raise ValueError("vocabulary too small for two word blocks")

    def topic_fn(labels, rng):
        n = len(labels)
        tau = np.zeros(n)
        ones = labels == 1
        tau[ones] = rng.exponential(scale=1.0 / exp_rate, size=int(ones.sum()))
        theta = np.zeros((n, vocab_size))
        theta[~ones, :block_size] = 1.0
        theta[ones, block_size:2 * block_size] = tau[ones, None]
        # softmax in place: the same operations in the same order as
        # doc_length * z / z.sum(...), without three more (n, d) temporaries
        z = np.exp(theta, out=theta)
        total = z.sum(axis=1, keepdims=True)
        np.multiply(doc_length, z, out=z)
        np.divide(z, total, out=z)
        return tau, z

    return ParametricSampler(
        label_prior=label_prior, vocab_size=vocab_size, topic_fn=topic_fn,
        name=SYNTHETIC_PRESET,
        params={"exp_rate": exp_rate, "vocab_size": vocab_size,
                "block_size": block_size, "doc_length": doc_length,
                "label_prior": label_prior})
