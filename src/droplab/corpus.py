"""Bag-of-words corpus ingestion for real-text experiments.

Input format: one document per line, `label<TAB>raw text` with label 0 or 1.
Tokenization is deliberately minimal (lowercase, split on non-alphanumeric
runs) and the vocabulary is built from the training split only; test tokens
outside it are dropped.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .streams import make_rng
from .topics import DocumentBatch

_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")


class MalformedLineError(ValueError):
    """A corpus line is not `label<TAB>text` with a 0/1 label."""


class EmptyClassError(ValueError):
    """A split ended up without one of the two classes."""


def tokenize(text: str) -> list[str]:
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


def _parse_lines(path: str | Path) -> list[tuple[int, list[str]]]:
    parsed = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise MalformedLineError(
                    f"line {lineno}: expected 'label<TAB>text'")
            label_text, text = line.split("\t", 1)
            if label_text not in ("0", "1"):
                raise MalformedLineError(
                    f"line {lineno}: label must be 0 or 1, got {label_text!r}")
            parsed.append((int(label_text), tokenize(text)))
    if not parsed:
        raise MalformedLineError("corpus file contains no documents")
    return parsed


def _to_counts(docs: list[tuple[int, list[str]]],
               vocabulary: dict[str, int]) -> DocumentBatch:
    """Count matrix and labels over the vocabulary; real text has no latent
    topic, so every topic id is -1."""
    counts = np.zeros((len(docs), len(vocabulary)), dtype=np.int64)
    labels = np.empty(len(docs), dtype=np.int64)
    for i, (label, tokens) in enumerate(docs):
        labels[i] = label
        for tok in tokens:
            j = vocabulary.get(tok)
            if j is not None:
                counts[i, j] += 1
    return DocumentBatch(counts=counts, labels=labels,
                         topics=np.full(len(docs), -1.0))


def build_vocabulary(docs: list[tuple[int, list[str]]]) -> dict[str, int]:
    """Sorted-token vocabulary, deterministic for a given document set."""
    tokens = sorted({tok for _, toks in docs for tok in toks})
    return {tok: i for i, tok in enumerate(tokens)}


def load_corpus(path: str | Path, seed: int, train_fraction: float | None,
                train_size: int | None
                ) -> tuple[DocumentBatch, DocumentBatch, dict[str, int]]:
    """Load, shuffle, and split a corpus file into (train, test, vocabulary).

    Exactly one of train_fraction / train_size picks where the seeded
    shuffle is cut.  The vocabulary comes from the training split only.
    Raises EmptyClassError when either split misses a class.
    """
    if (train_fraction is None) == (train_size is None):
        raise ValueError("set exactly one of train_fraction / train_size")
    if train_fraction is not None and not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    if train_size is not None and train_size < 1:
        raise ValueError("train_size must be >= 1")
    docs = _parse_lines(path)
    order = make_rng(seed, "corpus-split").permutation(len(docs))
    docs = [docs[i] for i in order]
    cut = train_size if train_size is not None \
        else int(round(train_fraction * len(docs)))
    cut = min(max(cut, 1), len(docs) - 1)
    train_docs, test_docs = docs[:cut], docs[cut:]
    vocabulary = build_vocabulary(train_docs)
    train = _to_counts(train_docs, vocabulary)
    test = _to_counts(test_docs, vocabulary)
    for name, c in (("train", train), ("test", test)):
        if not (np.any(c.labels == 0) and np.any(c.labels == 1)):
            raise EmptyClassError(f"{name} split is missing a class")
    return train, test, vocabulary


def corpus_from_text(path: str | Path,
                     vocabulary: dict[str, int]) -> DocumentBatch:
    """Vectorize a corpus file against an existing vocabulary."""
    return _to_counts(_parse_lines(path), vocabulary)
