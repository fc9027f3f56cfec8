import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.stats import chisquare

from droplab import (DropoutConfig, bayes_posterior, dropout_posterior,
                     make_rng, sample_documents, thin_counts, thinned_model)
from droplab.presets import (equal_length_models, two_word_intensity,
                             unequal_length_control)
from droplab.topics import enumerate_counts
from oracles import pool_bins


class TestThinCounts:
    def test_zero_rate_is_identity(self):
        x = np.array([3, 0, 5])
        out = thin_counts(x, 0.0, make_rng(0, "id"))
        assert np.array_equal(out, x)

    def test_full_rate_deletes_everything(self):
        x = np.array([[3, 1], [0, 7]])
        out = thin_counts(x, 1.0, make_rng(0, "all"))
        assert np.all(out == 0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            thin_counts(np.array([-1]), 0.5, make_rng(0, "neg"))

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            thin_counts(np.array([1]), 1.5, make_rng(0, "range"))

    @pytest.mark.parametrize("delta", [0.0, 0.5, 1.0])
    def test_non_integer_counts_rejected(self, delta):
        with pytest.raises(ValueError, match="counts must be integers"):
            thin_counts(np.array([[2.7, 3.9]]), delta, make_rng(0, "float"))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=60), min_size=1,
                    max_size=12),
           st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_monotone_below_input(self, counts, delta, seed):
        x = np.array(counts)
        out = thin_counts(x, delta, make_rng(seed, "mono"))
        assert np.all(out <= x)
        assert np.all(out >= 0)

    def test_poisson_closure_chi_square(self):
        # thinned Poisson(10) at rate 0.5 is Poisson(5)
        rng = make_rng(1, "closure")
        x = rng.poisson(10.0, size=100_000)
        thinned = thin_counts(x, 0.5, rng)
        top = 18
        obs = np.bincount(np.minimum(thinned, top), minlength=top + 1)
        pmf = sps.poisson.pmf(np.arange(top + 1), 5.0)
        pmf[top] = 1.0 - pmf[:top].sum()
        _, p = chisquare(*pool_bins(obs, pmf * len(x), min_expected=5.0))
        assert p > 0.001

    def test_single_occurrence_behaves_like_blankout(self):
        # a word appearing once is deleted outright with probability delta
        delta = 0.3
        x = np.ones(100_000, dtype=np.int64)
        out = thin_counts(x, delta, make_rng(2, "blankout"))
        deleted = float(np.mean(out == 0))
        assert abs(deleted - delta) < 3.0 * np.sqrt(delta * (1 - delta) / len(x))


class TestOccurrenceKernel:
    """Entry-level law, dtype and random stream of thin_counts."""

    @pytest.mark.parametrize("keep", [0.05, 0.5, 0.95])
    def test_each_count_level_is_binomial(self, keep):
        levels = 4
        reps = 20_000
        x = np.tile(np.arange(levels), (reps, 1))
        out = thin_counts(x, 1.0 - keep, make_rng(5, "levels", keep))
        assert np.all(out[:, 0] == 0)
        for k in range(1, levels):
            obs = np.bincount(out[:, k], minlength=k + 1)
            pmf = sps.binom.pmf(np.arange(k + 1), k, keep)
            _, p = chisquare(*pool_bins(obs, pmf * reps, min_expected=5.0))
            assert p > 0.001, (k, obs)

    def test_zero_total_draws_nothing(self):
        rng = make_rng(6, "empty")
        before = rng.bit_generator.state
        out = thin_counts(np.zeros((3, 4), dtype=np.int64), 0.5, rng)
        assert out.shape == (3, 4) and not out.any()
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64])
    def test_endpoints_keep_dtype(self, dtype):
        x = np.array([[3, 0, 1], [2, 5, 0]], dtype=dtype)
        same = thin_counts(x, 0.0, make_rng(8, "copy"))
        assert same.dtype == x.dtype and np.array_equal(same, x)
        assert same is not x and not np.shares_memory(same, x)
        gone = thin_counts(x, 1.0, make_rng(8, "zero"))
        assert gone.dtype == x.dtype and not gone.any()

    @pytest.mark.parametrize("delta", [0.1, 0.5, 0.9])
    def test_large_counts_keep_the_binomial_stream(self, delta):
        poisson10 = make_rng(9, "p10").poisson(10.0, size=(300, 500))
        sweep = make_rng(9, "sweep").poisson(
            two_word_intensity(2.5, 10.0), size=(100_000, 2))
        for x in (poisson10, sweep):
            a, b = make_rng(10, "stream"), make_rng(10, "stream")
            assert np.array_equal(thin_counts(x, delta, a),
                                  b.binomial(x, 1.0 - delta))
            assert a.bit_generator.state == b.bit_generator.state


class TestDropoutConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DropoutConfig(delta=-0.1)
        with pytest.raises(ValueError):
            DropoutConfig(delta=0.5, mc_replicates=0)
        assert DropoutConfig(delta=1.0).delta == 1.0

    @pytest.mark.parametrize("delta", [1.5, -0.1, float("nan")])
    def test_rejected_delta_is_named(self, delta):
        with pytest.raises(ValueError, match=re.escape(
                f"delta must lie in [0, 1], got {delta}")):
            DropoutConfig(delta=delta)


class TestThinnedModel:
    def test_zero_rate_returns_model(self):
        model = equal_length_models()[0]
        assert thinned_model(model, 0.0) is model

    def test_intensities_scale(self):
        model = equal_length_models()[0]
        thin = thinned_model(model, 0.75)
        for raw, t in zip(model.topics, thin.topics):
            assert np.allclose(t.intensity, 0.25 * raw.intensity)

    def test_posterior_matches_conditional_monte_carlo(self):
        # P(y=1 | thinned counts = 0) estimated by thinning sampled documents
        model = unequal_length_control()
        delta = 0.5
        rng = make_rng(3, "thinned-posterior")
        batch = sample_documents(model, 1_000_000, rng)
        thinned = thin_counts(batch.counts, delta, rng)
        hit = thinned[:, 0] == 0
        mc = float(batch.labels[hit].mean())
        se = np.sqrt(mc * (1 - mc) / hit.sum())
        exact = dropout_posterior(model, delta, np.array([0]))
        assert abs(mc - exact) <= 3 * se


class TestDropoutPosterior:
    def test_equal_length_model_preserves_posterior(self):
        model = equal_length_models()[0]
        v = np.array([1, 0])
        raw = bayes_posterior(model, v)
        dropped = dropout_posterior(model, 0.5, v)
        assert raw == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert dropped == pytest.approx(raw, abs=1e-12)

    def test_unequal_length_model_shifts_posterior(self):
        model = unequal_length_control()
        v = np.array([0])
        assert dropout_posterior(model, 0.5, v) == pytest.approx(
            0.37754066879814544, abs=1e-12)
        assert bayes_posterior(model, v) == pytest.approx(
            0.26894142136999512, abs=1e-12)

    def test_zero_rate_equals_bayes_posterior(self):
        model = unequal_length_control()
        v = np.array([2])
        assert dropout_posterior(model, 0.0, v) == bayes_posterior(model, v)

    @pytest.mark.parametrize("delta", [0.25, 0.5, 0.9])
    def test_posterior_preserved_on_all_small_counts(self, delta):
        # equal document lengths across topics force exact preservation
        for model in equal_length_models():
            for v in enumerate_counts(model.vocab_size, 6):
                gap = abs(dropout_posterior(model, delta, v)
                          - bayes_posterior(model, v))
                assert gap <= 1e-10
