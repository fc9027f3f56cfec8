import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droplab import (DocumentBatch, EmptyClassError, MalformedLineError,
                     load_corpus, tokenize)
from droplab.corpus import build_vocabulary, corpus_from_text, _parse_lines

# the split `train` makes by default (--train-frac 0.6)
TRAIN_60 = dict(train_fraction=0.6, train_size=None)


def write(tmp_path, lines, name="corpus.tsv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_tokenize_lowercases_and_splits():
    assert tokenize("Good movie!  GREAT-plot 2x") == \
        ["good", "movie", "great", "plot", "2x"]


def test_counts_from_tiny_corpus(tmp_path):
    path = write(tmp_path, ["1\tgood movie", "0\tbad movie"])
    docs = _parse_lines(path)
    vocab = build_vocabulary(docs)
    assert vocab == {"bad": 0, "good": 1, "movie": 2}
    corpus = corpus_from_text(path, vocab)
    assert isinstance(corpus, DocumentBatch)
    assert corpus.counts.tolist() == [[0, 1, 1], [1, 0, 1]]
    assert corpus.labels.tolist() == [1, 0]
    assert corpus.topics.tolist() == [-1.0, -1.0]


def test_repeated_tokens_increment_counts(tmp_path):
    path = write(tmp_path, ["1\tfun fun fun", "0\tdull"])
    docs = _parse_lines(path)
    corpus = corpus_from_text(path, build_vocabulary(docs))
    assert corpus.counts[0].max() == 3


def test_split_is_deterministic_per_seed(tmp_path):
    lines = [f"{i % 2}\tword{i} shared" for i in range(40)]
    path = write(tmp_path, lines)
    a_train, a_test, a_vocab = load_corpus(path, seed=3, **TRAIN_60)
    b_train, b_test, b_vocab = load_corpus(path, seed=3, **TRAIN_60)
    _, _, c_vocab = load_corpus(path, seed=4, **TRAIN_60)
    assert np.array_equal(a_train.counts, b_train.counts)
    assert np.array_equal(a_test.labels, b_test.labels)
    assert a_vocab == b_vocab != c_vocab


def test_vocabulary_built_from_train_split_only(tmp_path):
    lines = [f"{i % 2}\tcommon token{i}" for i in range(10)]
    path = write(tmp_path, lines)
    train, test, vocabulary = load_corpus(
        path, seed=0, train_fraction=0.5, train_size=None)
    # out-of-vocabulary test tokens are dropped, never extend the vocabulary
    assert test.counts.shape[1] == train.counts.shape[1] == len(vocabulary)
    assert "common" in vocabulary


def test_train_size_split(tmp_path):
    lines = [f"{i % 2}\tw{i} shared" for i in range(30)]
    path = write(tmp_path, lines)
    train, test, _ = load_corpus(path, seed=1, train_fraction=None,
                                 train_size=12)
    assert len(train) == 12 and len(test) == 18


def test_malformed_line_reports_number(tmp_path):
    path = write(tmp_path, ["1\tok text", "no tab here"])
    with pytest.raises(MalformedLineError, match="line 2"):
        load_corpus(path, seed=0, **TRAIN_60)


def test_bad_label_reports_number(tmp_path):
    path = write(tmp_path, ["2\toops"])
    with pytest.raises(MalformedLineError, match="line 1"):
        load_corpus(path, seed=0, **TRAIN_60)


def test_empty_class_detected(tmp_path):
    path = write(tmp_path, ["1\ta b", "1\tc d", "1\te f"])
    with pytest.raises(EmptyClassError):
        load_corpus(path, seed=0, **TRAIN_60)


def test_split_spec_validation(tmp_path):
    # the split is checked before the file is read: this path does not exist
    path = tmp_path / "absent.tsv"
    with pytest.raises(ValueError):
        load_corpus(path, seed=0, train_fraction=0.5, train_size=10)
    with pytest.raises(ValueError):
        load_corpus(path, seed=0, train_fraction=None, train_size=None)
    with pytest.raises(ValueError):
        load_corpus(path, seed=0, train_fraction=1.5, train_size=None)


@given(st.text())
def test_tokens_are_lowercase_alphanumeric(text):
    assert all(re.fullmatch(r"[a-z0-9]+", tok) for tok in tokenize(text))


WORDS = st.lists(st.sampled_from(["good", "bad", "Film", "plot-twist", "9"]),
                 max_size=6)


@settings(max_examples=50, deadline=None)
@given(docs=st.lists(WORDS, min_size=12, max_size=40),
       blank_every=st.integers(min_value=2, max_value=5),
       fraction=st.floats(min_value=0.25, max_value=0.75),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_split_sizes_add_up_to_the_document_count(docs, blank_every,
                                                  fraction, seed):
    lines = []
    for i, words in enumerate(docs):
        if i % blank_every == 0:
            lines.append("")  # blank lines are not documents
        lines.append(f"{i % 2}\t{' '.join(words)}")
    fd, path = tempfile.mkstemp(suffix=".tsv")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        try:
            train, test, vocabulary = load_corpus(
                path, seed=seed, train_fraction=fraction, train_size=None)
        except EmptyClassError:
            return  # the shuffle put a single class in one split
    finally:
        os.unlink(path)
    assert len(train) + len(test) == len(docs)
    assert train.counts.shape[1] == test.counts.shape[1] == len(vocabulary)
