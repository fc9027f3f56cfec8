import os
import threading

import numpy as np
import pytest

from droplab.streams import (make_rng, map_streams, seed_fingerprint,
                             seed_sequence)


def test_same_path_same_stream():
    a = make_rng(7, "task", 3).random(5)
    b = make_rng(7, "task", 3).random(5)
    assert np.array_equal(a, b)


def test_different_paths_diverge():
    a = make_rng(7, "task", 3).random(5)
    b = make_rng(7, "task", 4).random(5)
    c = make_rng(8, "task", 3).random(5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_float_components_hash_bit_pattern():
    a = seed_sequence(0, 0.5).entropy
    b = seed_sequence(0, 0.25).entropy
    assert a != b


def test_fingerprint_is_stable():
    assert seed_fingerprint(1, "x", 2) == seed_fingerprint(1, "x", 2)
    assert seed_fingerprint(1, "x", 2) != seed_fingerprint(1, "x", 3)


@pytest.mark.parametrize("seed", [-1, -(2 ** 40)])
def test_negative_seed_is_rejected_by_name(seed):
    for derive in (seed_sequence, make_rng, seed_fingerprint):
        with pytest.raises(ValueError, match=f"seed must be >= 0, got {seed}"):
            derive(seed, "task")


def _use_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def test_map_streams_keeps_item_order_on_a_pool(monkeypatch):
    _use_cpus(monkeypatch, 4)
    out = map_streams(lambda k: (k * k, threading.get_ident()), range(10))
    assert [v for v, _ in out] == [k * k for k in range(10)]
    assert threading.get_ident() not in {t for _, t in out}


@pytest.mark.parametrize("cpus, items", [(1, 5), (4, 1)])
def test_map_streams_runs_inline_with_one_thread(cpus, items, monkeypatch):
    _use_cpus(monkeypatch, cpus)
    out = map_streams(lambda k: threading.get_ident(), range(items))
    assert out == [threading.get_ident()] * items


def test_map_streams_raises_the_first_failure_in_item_order(monkeypatch):
    _use_cpus(monkeypatch, 2)

    def fail_from_two(k):
        if k >= 2:
            raise ValueError(f"item {k}")
        return k

    with pytest.raises(ValueError, match="^item 2$"):
        map_streams(fail_from_two, range(6))
