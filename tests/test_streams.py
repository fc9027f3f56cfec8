import numpy as np
import pytest

from droplab.streams import make_rng, seed_fingerprint, seed_sequence


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
