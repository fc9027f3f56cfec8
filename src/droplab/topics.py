"""Poisson topic models: generative sampling and exact posteriors.

A model draws a binary label, a topic given the label, and then independent
Poisson word counts from the topic's intensity vector.  Every model samples
itself: `sample_documents` draws the labels from its `label_prior`, the
topic ids from its `draw_topics`, and then the counts chunk by chunk, from
the rows its `intensity_rows` builds.  A `TopicModel` keeps an explicit
topic table and supports exact Bayes posteriors; the synthetic benchmark
draws a fresh intensity vector per document (its label-1 topics form a
continuum).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, lgamma
from typing import Protocol

import numpy as np

from .serialize import json_float, json_floats, json_int, read_field

PROB_ATOL = 1e-12
# enumeration rows per bayes_error sum, and per table gather within it: the
# gathers bound its (rows, topics) float temporaries whatever the grid size
_BAYES_BLOCK_ROWS = 65_536
_BAYES_GATHER_ROWS = 8_192
_CELL_BUDGET = 5_000_000    # most count vectors enumerate_counts will build
# Poisson cells per sample_documents draw: bounds its float intensity and
# int64 count temporaries whatever the batch size
_SAMPLE_CELLS = 2 ** 16
_POISSON_ROWS = 8_192       # rows per poisson_rows block


class UndefinedPosteriorError(ValueError):
    """Both class likelihoods are exactly zero at the queried count vector."""


class EnumerationTooLargeError(ValueError):
    """Exact enumeration would exceed the fixed cell budget."""


@dataclass(frozen=True)
class Topic:
    """One topic: per-label weights and a Poisson intensity vector."""

    id: int
    rho0: float
    rho1: float
    intensity: np.ndarray

    def __post_init__(self):
        if abs(self.id) > 2 ** 53:  # DocumentBatch.topics is float64
            raise ValueError(f"topic id {self.id} is not exact in float64")
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
        seen = set()
        for t in self.topics:
            if t.id in seen:
                raise ValueError(f"topic id {t.id} is repeated")
            seen.add(t.id)
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
        return np.stack([t.intensity / t.intensity.sum()
                         for t in self.topics], axis=1)

    def topic_probs(self) -> np.ndarray:
        """Marginal topic probabilities."""
        p1 = self.label_prior
        return (1.0 - p1) * self.rho[0] + p1 * self.rho[1]

    def draw_topics(self, labels, rng):
        """Topic ids (as floats) for the given labels."""
        cum = np.cumsum(self.rho, axis=1)
        u = rng.random(len(labels))
        topic_idx = np.empty(len(labels), dtype=np.int64)
        for c in (0, 1):
            mask = labels == c
            topic_idx[mask] = np.searchsorted(cum[c], u[mask], side="right")
        topic_idx = np.minimum(topic_idx, self.n_topics - 1)
        ids = np.array([t.id for t in self.topics])
        return ids[topic_idx].astype(float)

    def topic_index(self, topic_ids: np.ndarray) -> np.ndarray:
        """Position in `topics` of each of the model's topic ids."""
        ids = np.array([t.id for t in self.topics], dtype=float)
        order = np.argsort(ids)
        return order[np.searchsorted(ids[order], topic_ids)]

    def intensity_rows(self, labels, topic_ids):
        """The intensity vector of each topic id, one row per id."""
        return self.intensities[self.topic_index(topic_ids)]

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
        """Inverse of to_dict; raises ValueError naming a missing or bad key."""
        def topic(t):
            return Topic(id=read_field(t, "id", json_int),
                         rho0=read_field(t, "rho0", json_float),
                         rho1=read_field(t, "rho1", json_float),
                         intensity=read_field(t, "intensity", json_floats))

        return cls(label_prior=read_field(doc, "label_prior", json_float),
                   topics=read_field(doc, "topics",
                                     lambda ts: tuple(map(topic, ts))),
                   vocab_size=read_field(doc, "vocab_size", json_int))


@dataclass(frozen=True)
class DocumentBatch:
    """Column-oriented batch of sampled documents."""

    counts: np.ndarray          # (n, d) integer counts; sampled batches
                                # use the narrowest unsigned dtype
    labels: np.ndarray          # (n,) in {0, 1}
    topics: np.ndarray          # (n,) latent topic ids (float for continua)

    def __len__(self) -> int:
        return self.counts.shape[0]


class GenerativeSampler(Protocol):
    """A label prior and vocabulary size, a topic draw given the labels, and
    the intensity rows of any slice of drawn documents."""

    label_prior: float
    vocab_size: int

    def draw_topics(self, labels: np.ndarray, rng: np.random.Generator
                    ) -> np.ndarray:
        """Every random draw a topic takes: one topic id per label."""
        ...

    def intensity_rows(self, labels: np.ndarray, topic_ids: np.ndarray
                       ) -> np.ndarray:
        """The (m, vocab_size) intensities of m documents; draws nothing."""
        ...


def _sample_chunks(sampler: GenerativeSampler, n: int,
                   rng: np.random.Generator):
    """Yield n documents as `DocumentBatch` chunks of about _SAMPLE_CELLS
    cells, each chunk's counts narrowed by `_narrow`.

    The labels and the topics of all n rows are drawn first, then each
    chunk's Poisson counts, exactly as one call over all rows draws them.
    n = 0 yields one empty chunk, so a caller still sees the label and
    topic dtypes.
    """
    labels = (rng.random(n) < sampler.label_prior).astype(np.int64)
    topic_ids = sampler.draw_topics(labels, rng)
    rows = max(1, _SAMPLE_CELLS // sampler.vocab_size)
    for start in range(0, max(n, 1), rows):
        part = slice(start, start + rows)
        yield DocumentBatch(
            counts=_narrow(rng.poisson(sampler.intensity_rows(
                labels[part], topic_ids[part]))),
            labels=labels[part], topics=topic_ids[part])


def sample_documents(sampler: GenerativeSampler, n: int,
                     rng: np.random.Generator) -> DocumentBatch:
    """Draw n documents: label, topic given the label, then independent
    Poisson counts, consuming the stream in that order.  The counts are drawn
    in the row chunks of `_sample_chunks` and written into one array kept in
    the narrowest unsigned dtype that holds them.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    counts = np.empty((n, sampler.vocab_size), dtype=np.uint8)
    labels, topic_ids = [], []
    start = 0
    for chunk in _sample_chunks(sampler, n, rng):
        # widen the rows written so far once a chunk outgrows their dtype
        if chunk.counts.itemsize > counts.itemsize:
            counts = counts.astype(chunk.counts.dtype)
        counts[start:start + len(chunk)] = chunk.counts
        start += len(chunk)
        labels.append(chunk.labels)
        topic_ids.append(chunk.topics)
    return DocumentBatch(counts=counts, labels=np.concatenate(labels),
                         topics=np.concatenate(topic_ids))


def _narrow(draws: np.ndarray) -> np.ndarray:
    """Counts in the narrowest unsigned dtype that holds their maximum."""
    return draws.astype(np.min_scalar_type(draws.max(initial=0)))


def poisson_rows(intensity, n: int, rng: np.random.Generator):
    """Yield n Poisson count rows at one intensity vector, as `_narrow`
    blocks of _POISSON_ROWS rows that together hold exactly what one
    rng.poisson(intensity, size=(n, d)) call draws."""
    lam = np.asarray(intensity, dtype=float)
    for start in range(0, n, _POISSON_ROWS):
        yield _narrow(rng.poisson(lam, size=(min(_POISSON_ROWS, n - start),
                                             len(lam))))


def _xlogy(k: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """k * log(lam), and 0 wherever k == 0, lam == 0 included."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(k == 0, 0.0, k * np.log(lam))


def _log_factorial(k: np.ndarray) -> np.ndarray:
    """log(k!) for each entry of k, one `math.lgamma` per distinct value."""
    values, inverse = np.unique(k, return_inverse=True)
    logs = np.array([lgamma(x + 1.0) for x in values.tolist()])
    return logs[inverse].reshape(k.shape)


def _log_class_likelihoods(model: TopicModel, counts: np.ndarray) -> np.ndarray:
    """log P(x = v | y = c) for each row v; returns (m, 2)."""
    v = np.atleast_2d(np.asarray(counts, dtype=float))
    if v.shape[1] != model.vocab_size:
        raise ValueError("count vector length must match vocab_size")
    if np.any(v < 0):
        raise ValueError("counts must be non-negative")
    # Poisson log PMF of each row under each topic, summed over words: (m, T)
    norm = _log_factorial(v).sum(axis=-1)
    per_topic = np.stack([_xlogy(v, t.intensity).sum(axis=-1)
                          - t.intensity.sum() - norm
                          for t in model.topics], axis=1)
    with np.errstate(divide="ignore"):
        log_rho = np.log(model.rho)  # -inf where a topic has weight 0
    out = np.empty((v.shape[0], 2))
    for c in (0, 1):
        out[:, c] = np.logaddexp.reduce(per_topic + log_rho[c], axis=1)
    return out


def bayes_posterior(model: TopicModel, counts: np.ndarray
                    ) -> float | np.ndarray:
    """Exact P(y = 1 | x = v) under a discrete model, computed in log space.

    A count vector gives a float; an (m, d) matrix gives one posterior per
    row.  Raises UndefinedPosteriorError when any v is impossible under both
    classes.
    """
    v = np.asarray(counts)
    ll = _log_class_likelihoods(model, v)
    with np.errstate(divide="ignore"):  # -inf where a class has prior 0
        log_prior = np.log([1.0 - model.label_prior, model.label_prior])
    joint = ll + log_prior
    if np.any(np.all(np.isneginf(joint), axis=1)):
        raise UndefinedPosteriorError(
            "count vector has zero likelihood under both classes")
    post = np.exp(joint[:, 1] - np.logaddexp.reduce(joint, axis=1))
    return float(post[0]) if v.ndim == 1 else post


def enumerate_counts(d: int, max_total: int) -> np.ndarray:
    """All non-negative integer vectors of length d with sum <= max_total,
    in lexicographic order (first coordinate slowest).

    Built one leading coordinate at a time: the vectors of length k + 1 are,
    for each first entry f = 0, 1, ..., the length-k vectors with sum at most
    max_total - f.  The result, in the narrowest unsigned dtype that holds
    max_total, is the only allocation of its size.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if max_total < 0:
        raise ValueError(f"max_total must be >= 0, got {max_total}")
    n_cells = comb(max_total + d, d)
    if n_cells > _CELL_BUDGET:
        raise EnumerationTooLargeError(
            f"{n_cells} cells exceed the budget of {_CELL_BUDGET}")
    dtype = np.min_scalar_type(max_total)
    tails = np.zeros((1, 0), dtype=dtype)
    sums = np.zeros(1, dtype=dtype)
    for k in range(d):
        # rows of the next level whose first entry is f: tails with sum <= T-f
        fits = np.cumsum(np.bincount(sums, minlength=max_total + 1))
        sizes = fits[::-1]
        out = np.empty((int(sizes.sum()), k + 1), dtype=dtype)
        out_sums = np.empty(len(out), dtype=dtype)
        start = 0
        for f, size in enumerate(sizes):
            keep = sums <= max_total - f
            block = out[start:start + size]
            block[:, 0] = f
            block[:, 1:] = tails[keep]
            # each row's sum is its tail's plus f, never above max_total
            np.add(sums[keep], f, out=out_sums[start:start + size])
            start += size
        tails, sums = out, out_sums
    return tails


@dataclass(frozen=True)
class BayesErrorResult:
    """Truncated exact Bayes risk plus the probability mass left out."""

    value: float
    truncation_mass: float
    n_cells: int


def bayes_error(model: TopicModel, max_total_count: int | None = None
                ) -> BayesErrorResult:
    """Exact Bayes risk summed over all count vectors with a bounded total.

    The default truncation covers the mean document length plus ten standard
    deviations.  The unexplored mass is reported so callers can bound the
    truncation error: true risk lies within [value, value + truncation_mass].

    Each cell is a table lookup: the Poisson log pmf of every count 0..K of
    every word under every topic is computed once, a cell's per-topic log
    likelihood is the sum of its d entries, and the class joints are
    prior_c * sum_t rho_ct * exp(that sum).
    """
    if max_total_count is None:
        mean_len = float(np.max(model.doc_lengths))
        max_total_count = int(np.ceil(mean_len + 10.0 * np.sqrt(mean_len)))
    elif max_total_count < 0:
        raise ValueError(f"max_total_count must be >= 0, got {max_total_count}")
    grid = enumerate_counts(model.vocab_size, max_total_count)
    # table[j, k, t] = log P(word j has count k | topic t), (d, K + 1, T);
    # _xlogy(0, 0) = 0 gives a zero-intensity word count 0 with probability 1
    k = np.arange(max_total_count + 1.0)[:, None]
    lam = model.intensities.T[:, None, :]
    table = _xlogy(k, lam) - lam - _log_factorial(k)
    prior = np.array([1.0 - model.label_prior, model.label_prior])
    weights = model.rho * prior[:, None]  # (2, T): prior_c * rho_ct
    covered = risk = 0.0
    for start in range(0, grid.shape[0], _BAYES_BLOCK_ROWS):
        block = grid[start:start + _BAYES_BLOCK_ROWS]
        joint = np.empty((len(block), 2))
        for sub in range(0, len(block), _BAYES_GATHER_ROWS):
            rows = block[sub:sub + _BAYES_GATHER_ROWS]
            ll = table[0][rows[:, 0]]
            for j in range(1, model.vocab_size):
                ll += table[j][rows[:, j]]
            # einsum, not a BLAS product: no sum depends on BLAS threads
            np.einsum("mt,ct->mc", np.exp(ll, out=ll), weights,
                      out=joint[sub:sub + len(rows)])
        covered += float(joint.sum())
        risk += float(np.minimum(joint[:, 0], joint[:, 1]).sum())
    return BayesErrorResult(value=risk, truncation_mass=max(0.0, 1.0 - covered),
                            n_cells=grid.shape[0])


SYNTHETIC_PRESET = "synthetic-sec6"


# the synthetic benchmark's constants, written into every curves header
SYNTHETIC_PARAMS = {"exp_rate": 3.0, "vocab_size": 500, "block_size": 7,
                    "doc_length": 1000.0, "label_prior": 0.5}


class SyntheticModel:
    """Two-block synthetic benchmark model (constants in SYNTHETIC_PARAMS).

    Label 0 always uses the fixed topic whose log-intensity profile is 1 on
    the first word block and 0 elsewhere.  Label 1 draws a topic strength
    from an Exponential distribution (rate `exp_rate`, so mean 1/rate) and
    puts that strength on the second block.  Intensities are a softmax of the
    profile scaled to the expected document length, so every document has
    the same expected length regardless of topic.
    """

    name = SYNTHETIC_PRESET
    params = SYNTHETIC_PARAMS
    label_prior = SYNTHETIC_PARAMS["label_prior"]
    vocab_size = SYNTHETIC_PARAMS["vocab_size"]

    def draw_topics(self, labels, rng):
        """Topic strengths: 0 for label 0, Exponential for label 1."""
        tau = np.zeros(len(labels))
        ones = labels == 1
        tau[ones] = rng.exponential(scale=1.0 / self.params["exp_rate"],
                                    size=int(ones.sum()))
        return tau

    def intensity_rows(self, labels, topic_ids):
        """Softmax of each document's log-intensity profile."""
        p = self.params
        block_size = p["block_size"]
        ones = labels == 1
        theta = np.zeros((len(labels), self.vocab_size))
        theta[~ones, :block_size] = 1.0
        theta[ones, block_size:2 * block_size] = topic_ids[ones, None]
        # softmax in place: the same operations in the same order as
        # doc_length * z / z.sum(...), without three more (m, d) temporaries
        z = np.exp(theta, out=theta)
        total = z.sum(axis=1, keepdims=True)
        np.multiply(p["doc_length"], z, out=z)
        np.divide(z, total, out=z)
        return z


def build_synthetic_model() -> SyntheticModel:
    """The `synthetic-sec6` benchmark model."""
    return SyntheticModel()
