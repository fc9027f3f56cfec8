import tracemalloc
from math import comb

import numpy as np
import pytest
from scipy import stats as sps
from scipy.stats import chi2_contingency, chisquare

from droplab import (EnumerationTooLargeError, Topic, TopicModel,
                     UndefinedPosteriorError, bayes_error, bayes_posterior,
                     build_synthetic_model, dropout_posterior, make_rng,
                     sample_documents, thinned_model)
from droplab import topics
from droplab.experiments import influence_demo_model
from droplab.topics import enumerate_counts
from droplab.presets import equal_length_models, unequal_length_control
from droplab.verify import BIAS_DELTAS
from oracles import (bayes_error_in_blocks, bayes_error_rowwise,
                     bayes_error_scipy, bayes_posterior_scipy,
                     chi_square_two_sample, pool_bins,
                     sample_documents_multinomial, sample_documents_one_call,
                     traced_peak_mib)


def single_topic_model(intensity, prior=0.5):
    lam = np.asarray(intensity, dtype=float)
    return TopicModel(label_prior=prior, vocab_size=len(lam), topics=(
        Topic(id=0, rho0=1.0, rho1=1.0, intensity=lam),))


def two_class_model(lam0, lam1, prior=0.5):
    lam0 = np.asarray(lam0, dtype=float)
    lam1 = np.asarray(lam1, dtype=float)
    return TopicModel(label_prior=prior, vocab_size=len(lam0), topics=(
        Topic(id=0, rho0=1.0, rho1=0.0, intensity=lam0),
        Topic(id=1, rho0=0.0, rho1=1.0, intensity=lam1),
    ))


class TestModelValidation:
    def test_rho_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TopicModel(label_prior=0.5, vocab_size=1, topics=(
                Topic(id=0, rho0=0.5, rho1=1.0, intensity=np.array([1.0])),))

    def test_intensity_needs_positive_entry(self):
        with pytest.raises(ValueError):
            Topic(id=0, rho0=1.0, rho1=1.0, intensity=np.zeros(3))

    def test_intensity_length_must_match_vocab(self):
        with pytest.raises(ValueError):
            TopicModel(label_prior=0.5, vocab_size=3, topics=(
                Topic(id=0, rho0=1.0, rho1=1.0, intensity=np.array([1.0])),))

    def test_repeated_topic_id_is_named(self):
        # two topics with id 0 once gave excess_risk_decomposition a NaN rate
        # and a counting-identity residual far past its tolerance; so did
        # ids 2**53 and 2**53 + 1, which float64 topic ids merged
        for ids, message in (((0, 0), "topic id 0 is repeated"),
                             ((2 ** 53, 2 ** 53 + 1),
                              f"topic id {2 ** 53 + 1} ")):
            with pytest.raises(ValueError, match=message):
                TopicModel(label_prior=0.5, vocab_size=2, topics=(
                    Topic(id=ids[0], rho0=1.0, rho1=0.0,
                          intensity=np.array([6.0, 2.0])),
                    Topic(id=ids[1], rho0=0.0, rho1=1.0,
                          intensity=np.array([2.0, 6.0]))))

    def test_json_round_trip(self):
        model = two_class_model([2.0, 1.0], [1.0, 2.0], prior=0.3)
        again = TopicModel.from_dict(model.to_dict())
        assert again.label_prior == model.label_prior
        assert again.vocab_size == model.vocab_size
        for a, b in zip(again.topics, model.topics):
            assert (a.id, a.rho0, a.rho1) == (b.id, b.rho0, b.rho1)
            assert np.array_equal(a.intensity, b.intensity)


def draw_head(sampler, n, rng):
    """The head of sample_documents: labels, then draw_topics; with the
    intensity rows of all n documents."""
    labels = (rng.random(n) < sampler.label_prior).astype(np.int64)
    topic_ids = sampler.draw_topics(labels, rng)
    return labels, topic_ids, sampler.intensity_rows(labels, topic_ids)


class FixedIntensitySampler:
    """The smallest GenerativeSampler: one intensity row for every label.

    It records the labels and stream state draw_topics sees, and the row
    count and stream state of each intensity_rows call."""

    label_prior = 0.5

    def __init__(self, intensity):
        self.intensity = np.asarray(intensity, dtype=float)
        self.vocab_size = len(self.intensity)
        self.seen, self.rows = [], []

    def draw_topics(self, labels, rng):
        self.rng = rng
        self.seen.append((labels.copy(), rng.bit_generator.state))
        return np.zeros(len(labels))

    def intensity_rows(self, labels, topic_ids):
        self.rows.append((len(labels), self.rng.bit_generator.state))
        return np.tile(self.intensity, (len(labels), 1))


def small_topic_model():
    """Three topics with non-consecutive ids, listed out of id order, and a
    largest count past 255."""
    return TopicModel(label_prior=0.4, vocab_size=3, topics=(
        Topic(id=7, rho0=0.6, rho1=0.1, intensity=np.array([4.0, 1.0, 0.5])),
        Topic(id=2, rho0=0.3, rho1=0.2, intensity=np.array([0.0, 2.0, 3.0])),
        Topic(id=40, rho0=0.1, rho1=0.7,
              intensity=np.array([1.0, 1.0, 300.0]))))


class TestSampling:
    def test_zero_intensity_coordinates_stay_zero(self):
        # Poisson(0) is identically zero
        sampler = FixedIntensitySampler([0.0, 0.0, 1.0])
        batch = sample_documents(sampler, 500, make_rng(0, "zeros"))
        assert np.all(batch.counts[:, :2] == 0)

    def test_labels_are_drawn_before_topics(self, monkeypatch):
        # one uniform per document decides its label, then draw_topics sees
        # the labels and the stream just past those uniforms; intensity_rows
        # draws nothing, so three 128-row chunks continue each stream as one
        # call over all 300 rows would
        monkeypatch.setattr(topics, "_SAMPLE_CELLS", 256)
        sampler = FixedIntensitySampler([1.0, 2.0])
        batch = sample_documents(sampler, 300, make_rng(17, "order"))
        rng = make_rng(17, "order")
        labels = (rng.random(300) < sampler.label_prior).astype(np.int64)
        (seen_labels, seen_state), = sampler.seen
        assert np.array_equal(seen_labels, labels)
        assert np.array_equal(batch.labels, labels)
        assert seen_state == rng.bit_generator.state
        assert [m for m, _ in sampler.rows] == [128, 128, 44]
        assert sampler.rows[0][1] == seen_state
        ref = sample_documents_one_call(FixedIntensitySampler([1.0, 2.0]), 300,
                                        make_rng(17, "order"))
        assert np.array_equal(batch.counts, ref.counts)

    def test_negative_n_is_rejected_by_name(self):
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            sample_documents(single_topic_model([1.0]), -1, make_rng(0, "n"))
        for sampler in (single_topic_model([1.0, 2.0]),
                        build_synthetic_model()):
            assert len(sample_documents(sampler, 0, make_rng(0, "n"))) == 0

    @pytest.mark.parametrize("name", ["synthetic", "topic-model"])
    def test_chunks_match_one_poisson_call(self, monkeypatch, name):
        # chunks of 1, 7 and 64 rows and of the default size, and at each
        # n = 0, n = 1, exactly one chunk, and a ragged n over three chunks;
        # every synthetic row splits, while the topic model's (0, 2, 3)
        # topic does not, so its chunks mix split and unsplit rows
        sampler = (build_synthetic_model() if name == "synthetic"
                   else small_topic_model())
        d = sampler.vocab_size
        for cells in (d, 7 * d, 64 * d, topics._SAMPLE_CELLS):
            monkeypatch.setattr(topics, "_SAMPLE_CELLS", cells)
            rows = cells // d
            for n in (0, 1, rows, 2 * rows + 37):
                rng, ref_rng = make_rng(18, name, n), make_rng(18, name, n)
                batch = sample_documents(sampler, n, rng)
                ref = sample_documents_one_call(sampler, n, ref_rng)
                assert batch.counts.shape == (n, d)
                assert np.array_equal(batch.counts, ref.counts)
                assert np.array_equal(batch.labels, ref.labels)
                assert np.array_equal(batch.topics, ref.topics)
                assert batch.counts.dtype == np.min_scalar_type(
                    ref.counts.max(initial=0))
                assert rng.bit_generator.state == ref_rng.bit_generator.state
        if name == "topic-model":
            assert set(batch.topics) == {7.0, 2.0, 40.0}
            assert batch.counts.dtype == np.uint16

    def test_peak_memory_is_the_output_and_a_few_chunks(self):
        # the counts once in their narrowest dtype, four 8-byte cells per
        # chunk cell (a chunk's float intensities, then about two int64
        # words per cell with their int32 row offsets), and 32 bytes a row
        # for the int64 labels and float topic ids, drawn and then
        # collected from the chunks: 10.81 MiB here, against 10.96 MiB for
        # one Poisson draw per cell in chunks twice this size; sampling
        # through an (n, d) float intensity matrix and an int64 Poisson
        # result peaked at 153 MiB on this batch
        out = []
        peak = traced_peak_mib(lambda: out.append(sample_documents(
            build_synthetic_model(), 20_000, make_rng(19, "memory"))))
        counts = out[0].counts
        narrow = counts.size * np.min_scalar_type(counts.max()).itemsize
        assert peak < (narrow + 4 * topics._SAMPLE_CELLS * 8
                       + 32 * len(counts)) / 2 ** 20

    def test_peak_memory_holds_the_counts_once(self):
        # the chunks are written into one array, never joined: 9.5 MiB of
        # uint8 counts plus a few MiB of chunk temporaries, labels and topic
        # ids; joining chunks peaked at 19.4 MiB on this batch
        out = []
        peak = traced_peak_mib(lambda: out.append(sample_documents(
            build_synthetic_model(), 20_000, make_rng(19, "memory"))))
        assert peak <= (out[0].counts.nbytes + 4 * 2 ** 20) / 2 ** 20

    def test_widening_mid_batch_keeps_earlier_rows(self, monkeypatch):
        # four-row chunks over d = 2: two chunks of Poisson(2) rows fit
        # uint8, a chunk at intensity 300 needs uint16, and a last, ragged
        # chunk at 70,000 needs uint32, so the array widens twice
        class RampSampler:
            label_prior = 0.5
            vocab_size = 2

            def draw_topics(self, labels, rng):
                return np.arange(len(labels), dtype=float)

            def intensity_rows(self, labels, topic_ids):
                lam = np.select([topic_ids < 8, topic_ids < 12],
                                [2.0, 300.0], 70_000.0)
                return np.repeat(lam[:, None], self.vocab_size, axis=1)

        monkeypatch.setattr(topics, "_SAMPLE_CELLS", 8)
        rng, ref_rng = make_rng(22, "widen"), make_rng(22, "widen")
        batch = sample_documents(RampSampler(), 14, rng)
        ref = sample_documents_one_call(RampSampler(), 14, ref_rng)
        assert np.array_equal(batch.counts, ref.counts)
        assert np.array_equal(batch.labels, ref.labels)
        assert np.array_equal(batch.topics, ref.topics)
        assert batch.counts.dtype == np.min_scalar_type(ref.counts.max())
        assert batch.counts.dtype == np.uint32
        # the rows written before each widening survive it
        for rows, dtype in ((slice(0, 8), np.uint8), (slice(8, 12), np.uint16),
                            (slice(12, 14), np.uint32)):
            assert np.min_scalar_type(ref.counts[rows].max()) == dtype
            assert np.array_equal(batch.counts[rows], ref.counts[rows])
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("n", [100, 2 * 128 + 37])
    def test_poisson_rows_blocks_equal_one_draw(self, monkeypatch, n):
        # blocks of 128 rows: n = 100 under one block, and a ragged n over
        # three; the largest intensity pushes a block's maximum past 255
        monkeypatch.setattr(topics, "_POISSON_ROWS", 128)
        lam = np.array([0.5, 3.0, 250.0])
        blocks = list(topics.poisson_rows(lam, n, make_rng(21, "rows", n)))
        ref = make_rng(21, "rows", n).poisson(lam, size=(n, 3))
        assert [len(b) for b in blocks] == [min(128, n - s)
                                            for s in range(0, n, 128)]
        assert np.array_equal(np.concatenate(blocks), ref)
        for block in blocks:
            assert block.dtype == np.min_scalar_type(block.max())
        assert np.dtype(np.uint16) in {b.dtype for b in blocks}

    def test_poisson_mean_concentrates(self):
        sampler = single_topic_model([10.0])
        batch = sample_documents(sampler, 100_000, make_rng(1, "mean"))
        tol = 3.0 * np.sqrt(10.0 / 100_000)
        assert abs(batch.counts[:, 0].mean() - 10.0) < tol

    def test_degenerate_mixture_ties_topic_to_label(self):
        model = two_class_model([3.0], [4.0])
        batch = sample_documents(model, 2_000, make_rng(2, "degenerate"))
        assert np.array_equal(batch.topics.astype(int), batch.labels)

    def test_single_document_has_consistent_length(self):
        batch = sample_documents(single_topic_model([2.0, 3.0]), 1,
                                 make_rng(3, "one"))
        assert batch.counts.shape == (1, 2)

    def test_multinomial_zero_probability_word(self):
        sampler = single_topic_model([0.0, 5.0])
        batch = sample_documents_multinomial(sampler, 1_000,
                                             make_rng(4, "multi"))
        assert np.all(batch.counts[:, 0] == 0)

    def test_multinomial_single_document(self):
        sampler = single_topic_model([2.0, 3.0])
        batch = sample_documents_multinomial(sampler, 1,
                                             make_rng(4, "multi-one"))
        assert batch.counts.shape == (1, 2)

    def test_multinomial_document_lengths_are_poisson(self):
        sampler = single_topic_model([1.0, 1.0, 1.0])
        batch = sample_documents_multinomial(sampler, 100_000,
                                             make_rng(5, "lengths"))
        top = 15
        obs = np.bincount(np.minimum(batch.counts.sum(axis=1), top),
                          minlength=top + 1)
        pmf = sps.poisson.pmf(np.arange(top + 1), 3.0)
        pmf[top] = 1.0 - pmf[:top].sum()
        _, p = chisquare(*pool_bins(obs, pmf * len(batch), min_expected=5.0))
        assert p > 0.001

    @staticmethod
    def _joint_histogram(counts, top=12):
        # bins indexed by (x1, x2) for x1 + x2 <= top, plus an overflow bin
        x1 = counts[:, 0]
        x2 = counts[:, 1]
        flat = np.where(x1 + x2 <= top, x1 * (top + 1) + x2,
                        (top + 1) ** 2)
        return np.bincount(flat, minlength=(top + 1) ** 2 + 1).astype(float)

    def test_two_samplers_agree_single_topic(self):
        sampler = single_topic_model([2.0, 3.0])
        a = sample_documents(sampler, 100_000, make_rng(6, "independent"))
        b = sample_documents_multinomial(sampler, 100_000,
                                         make_rng(6, "lengthfirst"))
        _, p = chi_square_two_sample(self._joint_histogram(a.counts),
                                     self._joint_histogram(b.counts))
        assert p > 0.001

    def test_two_samplers_agree_mixture_model(self):
        sampler = two_class_model([2.0, 1.0], [1.0, 2.0])
        a = sample_documents(sampler, 100_000, make_rng(7, "independent"))
        b = sample_documents_multinomial(sampler, 100_000,
                                         make_rng(7, "lengthfirst"))
        _, p = chi_square_two_sample(self._joint_histogram(a.counts, top=10),
                                     self._joint_histogram(b.counts, top=10))
        assert p > 0.001


def poisson_chi_square_p(values, lam, top):
    """p-value of the chi-square test of the values against Poisson(lam),
    counts above `top` in one bin."""
    obs = np.bincount(np.minimum(values, top + 1), minlength=top + 2)
    pmf = sps.poisson.pmf(np.arange(top + 2), lam)
    pmf[top + 1] = sps.poisson.sf(top, lam)
    return chisquare(*pool_bins(obs, pmf * len(values), min_expected=5.0))[1]


class TestPoissonSplitting:
    # a row whose floor m = min_j lambda_j lies in (0, 2] draws
    # Poisson(lambda_j - m) per cell plus a Poisson(d m) total of uniformly
    # placed words

    @pytest.fixture(scope="class")
    def label0_counts(self):
        batch = sample_documents(build_synthetic_model(), 40_000,
                                 make_rng(23, "split-law"))
        return batch.counts[batch.labels == 0].astype(np.int64)

    def test_counts_are_poisson(self, label0_counts):
        # label 0: 493 bulk words at 1000 / (7e + 493) = 1.953, the row's
        # floor, and 7 block words at e times that
        bulk = 1000.0 / (7.0 * np.e + 493.0)
        assert poisson_chi_square_p(label0_counts[:, 14:].ravel(), bulk,
                                    10) > 0.001
        assert poisson_chi_square_p(label0_counts[:, :7].ravel(),
                                    np.e * bulk, 14) > 0.001
        # a row's bulk total is Poisson too, not a fixed number of words
        assert poisson_chi_square_p(label0_counts[:, 7:].sum(axis=1),
                                    493 * bulk, 1100) > 0.001

    @pytest.mark.parametrize("pair", [(7, 499), (0, 7), (100, 101)])
    def test_word_pairs_are_independent(self, label0_counts, pair):
        # the joint table of two words' counts, the last row and column
        # holding everything from 6 up
        a, b = (np.minimum(label0_counts[:, j], 6) for j in pair)
        table = np.zeros((7, 7))
        np.add.at(table, (a, b), 1)
        assert chi2_contingency(table).pvalue > 0.001

    def test_split_rows_agree_with_the_length_first_sampler(self):
        # (1, 1, 3) has floor 1, so every row splits
        sampler = single_topic_model([1.0, 1.0, 3.0])
        a = sample_documents(sampler, 100_000, make_rng(24, "independent"))
        b = sample_documents_multinomial(sampler, 100_000,
                                         make_rng(24, "lengthfirst"))
        _, p = chi_square_two_sample(
            TestSampling._joint_histogram(a.counts, top=10),
            TestSampling._joint_histogram(b.counts, top=10))
        assert p > 0.001

    @pytest.mark.parametrize("name, n", [("influence", 40_000),
                                         ("zero-floor", 200),
                                         ("above-max", 200)])
    def test_rows_that_never_split_draw_one_poisson_call(self, name, n):
        # floors of at least 80, 500 intensities from 0 to 2, and 500 from
        # just above 2: every chunk reads the stream as one rng.poisson call
        # over all n rows, and nothing more
        sampler = {"influence": influence_demo_model,
                   "zero-floor": lambda: single_topic_model(
                       np.linspace(0.0, 2.0, 500)),
                   "above-max": lambda: single_topic_model(
                       np.linspace(np.nextafter(2.0, 3.0), 4.0, 500))}[name]()
        rng, ref_rng = make_rng(25, name), make_rng(25, name)
        batch = sample_documents(sampler, n, rng)
        labels, topic_ids, lam = draw_head(sampler, n, ref_rng)
        assert len(batch) > topics._SAMPLE_CELLS // sampler.vocab_size
        assert np.array_equal(batch.labels, labels)
        assert np.array_equal(batch.counts, ref_rng.poisson(lam))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_bad_rates_raise_and_the_intensities_stay_unwritten(self):
        # a GenerativeSampler need not validate its intensities: beside a
        # row that splits, a negative or NaN rate still reaches rng.poisson
        # and raises; and the rows intensity_rows returns, here one cached
        # array, are read but never written
        class CachedSampler:
            label_prior = 0.5
            vocab_size = 3

            def __init__(self, second_row):
                self.lam = np.array([[1.0, 1.0, 3.0], second_row])

            def draw_topics(self, labels, rng):
                return np.zeros(len(labels))

            def intensity_rows(self, labels, topic_ids):
                return self.lam

        for bad in (-1.0, np.nan):
            with pytest.raises(ValueError):
                sample_documents(CachedSampler([2.0, bad, 5.0]), 2,
                                 make_rng(28, "bad"))
        sampler = CachedSampler([4.0, 3.0, 5.0])
        sampler.lam.flags.writeable = False
        batch = sample_documents(sampler, 2, make_rng(28, "cached"))
        assert np.array_equal(sampler.lam, [[1.0, 1.0, 3.0], [4.0, 3.0, 5.0]])
        ref = sample_documents_one_call(CachedSampler([4.0, 3.0, 5.0]), 2,
                                        make_rng(28, "cached"))
        assert np.array_equal(batch.counts, ref.counts)

    def test_calls_on_one_generator_draw_fresh_words(self):
        # every cell of a flat row sits at its floor, so rng reads only the
        # labels and topics and each row's ~100 words come from the split
        # streams; streams jumped from rng's state would hand the second
        # call a shifted copy of the first call's rows
        sampler = single_topic_model(np.full(50, 2.0))
        rng = make_rng(27, "two-calls")
        first, second = (sample_documents(sampler, 2_000, rng).counts
                         for _ in range(2))
        seen = {row.tobytes() for row in first}
        assert not any(row.tobytes() in seen for row in second)


class TestBayesPosterior:
    def test_exact_value_one_dimensional(self):
        model = two_class_model([1.0], [2.0])
        # likelihood ratio e^{-2} : e^{-1} at v = 0
        assert bayes_posterior(model, np.array([0])) == pytest.approx(
            0.26894142136999512, abs=1e-12)

    def test_symmetric_model_gives_half(self):
        model = two_class_model([2.0, 1.0], [1.0, 2.0])
        assert bayes_posterior(model, np.array([1, 1])) == pytest.approx(
            0.5, abs=1e-12)

    def test_identical_intensities_return_prior(self):
        model = two_class_model([3.0, 1.0], [3.0, 1.0], prior=0.3)
        for v in ([0, 0], [2, 1], [5, 0]):
            assert bayes_posterior(model, np.array(v)) == pytest.approx(
                0.3, abs=1e-12)

    def test_undefined_posterior_raises(self):
        model = two_class_model([1.0, 0.0], [2.0, 0.0])
        with pytest.raises(UndefinedPosteriorError):
            bayes_posterior(model, np.array([0, 3]))

    def test_label_swap_complement(self):
        rng = make_rng(8, "swap")
        for _ in range(20):
            lam0 = rng.uniform(0.1, 4.0, size=3)
            lam1 = rng.uniform(0.1, 4.0, size=3)
            prior = rng.uniform(0.1, 0.9)
            model = two_class_model(lam0, lam1, prior)
            swapped = two_class_model(lam1, lam0, 1.0 - prior)
            v = rng.integers(0, 5, size=3)
            total = bayes_posterior(model, v) + bayes_posterior(swapped, v)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_log_space_survives_long_documents(self):
        model = two_class_model([6000.0, 4000.0], [4000.0, 6000.0])
        v = np.array([5000, 5000])
        post = bayes_posterior(model, v)
        assert 0.0 < post < 1.0 and np.isfinite(post)

    def test_vector_gives_float_matrix_gives_rows(self):
        model = equal_length_models()[1]
        grid = enumerate_counts(model.vocab_size, 5)
        post = bayes_posterior(model, grid)
        assert isinstance(bayes_posterior(model, grid[3]), float)
        assert isinstance(post, np.ndarray) and post.shape == (len(grid),)
        assert post.tolist() == [bayes_posterior(model, v) for v in grid]

    def test_impossible_row_in_matrix_raises(self):
        model = two_class_model([1.0, 0.0], [2.0, 0.0])
        with pytest.raises(UndefinedPosteriorError):
            bayes_posterior(model, np.array([[1, 0], [0, 3], [2, 0]]))

    @pytest.mark.parametrize("model", equal_length_models()
                             + [unequal_length_control()])
    def test_matches_scipy_special_form(self, model):
        # raw and thinned posteriors on the bias check's grid against
        # scipy.special's gammaln, xlogy and logsumexp
        grid = enumerate_counts(model.vocab_size, 14)
        np.testing.assert_allclose(bayes_posterior(model, grid),
                                   bayes_posterior_scipy(model, grid),
                                   rtol=0.0, atol=1e-14)
        for delta in BIAS_DELTAS:
            np.testing.assert_allclose(
                dropout_posterior(model, delta, grid),
                bayes_posterior_scipy(thinned_model(model, delta), grid),
                rtol=0.0, atol=1e-14)


def meshgrid_counts(d, max_total):
    """Reference enumeration: filter the full (max_total + 1)^d grid."""
    grids = [np.arange(max_total + 1)] * d
    mesh = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, d)
    return mesh[mesh.sum(axis=1) <= max_total]


class TestEnumerateCounts:
    @pytest.mark.parametrize("d, max_total",
                             [(1, 5), (2, 6), (3, 0), (3, 6), (3, 14),
                              (4, 10)])
    def test_matches_meshgrid_order(self, d, max_total):
        got = enumerate_counts(d, max_total)
        ref = meshgrid_counts(d, max_total)
        assert got.dtype == np.min_scalar_type(max_total)
        assert np.array_equal(got, ref)

    def test_peak_memory_is_a_small_multiple_of_the_result(self):
        # the filtered meshgrid allocates 41^4 rows (about 90 MB) here
        tracemalloc.start()
        try:
            out = enumerate_counts(4, 40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (135_751, 4)
        assert peak < 4 * out.nbytes

    @pytest.mark.parametrize("d, max_total, name",
                             [(3, -1, "max_total"), (3, -3, "max_total"),
                              (0, 5, "d"), (-2, 5, "d")])
    def test_rejects_bad_arguments_by_name(self, d, max_total, name):
        # -1 once failed in a numpy broadcast, -3 in math.comb, and d = 0
        # returned one empty vector
        with pytest.raises(ValueError, match=f"^{name} must be"):
            enumerate_counts(d, max_total)

    def test_budget_counts_the_real_cells(self, monkeypatch):
        monkeypatch.setattr(topics, "_CELL_BUDGET", 165)
        assert len(enumerate_counts(3, 8)) == 165
        monkeypatch.setattr(topics, "_CELL_BUDGET", 164)
        with pytest.raises(EnumerationTooLargeError):
            enumerate_counts(3, 8)


ORACLE_MODELS = {
    **{f"equal-length-{k}": m for k, m in enumerate(equal_length_models())},
    "unequal-length": unequal_length_control(),                      # d = 1
    # word 1 never occurs under topic 0, word 2 never under topic 1
    "zero-intensity": two_class_model([2.0, 0.0, 1.0], [0.5, 1.5, 0.0]),
    # topic 0 has weight 0 in class 1, topic 2 in class 0
    "zero-weight": TopicModel(label_prior=0.35, vocab_size=2, topics=(
        Topic(id=0, rho0=0.5, rho1=0.0, intensity=np.array([3.0, 1.0])),
        Topic(id=1, rho0=0.5, rho1=0.25, intensity=np.array([1.0, 1.0])),
        Topic(id=2, rho0=0.0, rho1=0.75, intensity=np.array([0.5, 3.0])))),
    "prior-0": two_class_model([2.0, 1.0], [1.0, 2.0], prior=0.0),
    "prior-1": two_class_model([2.0, 1.0], [1.0, 2.0], prior=1.0),
    "four-words": two_class_model([2.0, 1.0, 0.5, 1.5], [1.0, 0.5, 2.0, 1.5],
                                  prior=0.45),
}


def scaled_model(model: TopicModel, length: float) -> TopicModel:
    """The model with every topic's intensity scaled to expected `length`."""
    return TopicModel(
        label_prior=model.label_prior, vocab_size=model.vocab_size,
        topics=tuple(Topic(id=t.id, rho0=t.rho0, rho1=t.rho1,
                           intensity=t.intensity * (length / t.doc_length))
                     for t in model.topics))


# the benchmark's three lengths, and a model where word 1 never occurs
# under topics 0 and 2 and word 2 never under topic 1, while topic 1 has
# weight 0 in class 1 and topic 2 weight 0 in class 0
SCIPY_ORACLE_MODELS = {
    **{f"length-{L:g}": scaled_model(equal_length_models()[1], L)
       for L in (40.0, 60.0, 80.0)},
    "zero-intensity-zero-weight": TopicModel(
        label_prior=0.35, vocab_size=3, topics=(
            Topic(id=0, rho0=0.5, rho1=0.4,
                  intensity=np.array([3.0, 0.0, 1.0])),
            Topic(id=1, rho0=0.5, rho1=0.0,
                  intensity=np.array([1.0, 2.0, 0.0])),
            Topic(id=2, rho0=0.0, rho1=0.6,
                  intensity=np.array([0.5, 0.0, 4.0])))),
}


# the equal-length presets, the d = 1 control, and the benchmark's three
# lengths (up to 848,046 cells)
BLOCK_ORACLE_MODELS = {
    **{f"equal-length-{k}": m for k, m in enumerate(equal_length_models())},
    "unequal-length": unequal_length_control(),
    **{f"length-{L:g}": scaled_model(equal_length_models()[1], L)
       for L in (40.0, 60.0, 80.0)},
}


class TestBayesError:
    def test_uninformative_model_is_half(self):
        model = two_class_model([2.0], [2.0])
        res = bayes_error(model, max_total_count=15)
        assert res.value == pytest.approx(0.5 * (1.0 - res.truncation_mass),
                                          abs=1e-12)
        assert res.value >= 0.5 - res.truncation_mass - 1e-12

    def test_single_class_prior_has_no_error(self):
        model = two_class_model([1.0], [2.0], prior=1.0)
        res = bayes_error(model, max_total_count=20)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_matches_monte_carlo_classification(self):
        model = unequal_length_control()  # intensities 1 and 2 on one word
        exact = bayes_error(model, max_total_count=30)
        assert exact.truncation_mass < 1e-9
        batch = sample_documents(model, 1_000_000, make_rng(9, "bayes-mc"))
        top = int(batch.counts.max())
        rule = np.array([bayes_posterior(model, np.array([v])) > 0.5
                         for v in range(top + 1)])
        pred = rule[batch.counts[:, 0]]
        mc = float(np.mean(pred != batch.labels))
        se = np.sqrt(mc * (1 - mc) / len(batch))
        assert abs(mc - exact.value) <= 3 * se + exact.truncation_mass

    def test_budget_guard(self):
        model = single_topic_model([1.0] * 5)
        with pytest.raises(EnumerationTooLargeError):
            # comb(105, 5) = 96,560,646 cells, rejected before any allocation
            bayes_error(model, max_total_count=100)

    def test_row_blocks_match_one_block(self, monkeypatch):
        # 1,771 cells in blocks of 64 rows, the last one partial, against
        # one block; equal up to the order of the block sums
        model = equal_length_models()[1]
        whole = bayes_error(model, max_total_count=20)
        monkeypatch.setattr(topics, "_BAYES_BLOCK_ROWS", 64)
        blocked = bayes_error(model, max_total_count=20)
        assert whole.n_cells == blocked.n_cells == 1771
        assert blocked.value == pytest.approx(whole.value, rel=1e-13)
        assert blocked.truncation_mass == pytest.approx(
            whole.truncation_mass, rel=1e-9, abs=1e-15)

    def test_default_truncation_reports_small_mass(self):
        model = two_class_model([2.0], [3.0])
        res = bayes_error(model)
        assert res.truncation_mass < 1e-6

    @pytest.mark.parametrize("total", [-1, -3])
    def test_negative_truncation_is_rejected_by_name(self, total):
        with pytest.raises(ValueError, match="^max_total_count must be"):
            bayes_error(equal_length_models()[1], max_total_count=total)

    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    @pytest.mark.parametrize("total", [4, 8])
    def test_matches_rowwise_oracle(self, name, total):
        # truncation masses from 1e-4 to 0.7 here, so both numbers are
        # compared to within a few ulp
        model = ORACLE_MODELS[name]
        value, mass = bayes_error_rowwise(model, total)
        res = bayes_error(model, max_total_count=total)
        assert res.value == pytest.approx(value, rel=1e-13)
        assert res.truncation_mass == pytest.approx(mass, rel=1e-13)

    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_matches_rowwise_oracle_at_default_truncation(self, name):
        # the mass is now 1 minus a sum near 1: only its rounding is left
        model = ORACLE_MODELS[name]
        res = bayes_error(model)
        mean_len = float(np.max(model.doc_lengths))
        value, mass = bayes_error_rowwise(
            model, int(np.ceil(mean_len + 10.0 * np.sqrt(mean_len))))
        assert res.value == pytest.approx(value, rel=1e-13)
        assert res.truncation_mass == pytest.approx(mass, abs=1e-15)

    @pytest.mark.parametrize("length, reference",
                             [(40.0, 0.18134132312907808),
                              (60.0, 0.18013554501048848),
                              (80.0, 0.1800141510062837)])
    def test_benchmark_references(self, length, reference):
        # equal_length_models()[1] with every topic scaled to one expected
        # length, the values the benchmark's exact part checks
        res = bayes_error(scaled_model(equal_length_models()[1], length))
        assert res.value == pytest.approx(reference, rel=1e-12)
        assert res.truncation_mass <= 1e-12

    @pytest.mark.parametrize("name", sorted(SCIPY_ORACLE_MODELS))
    def test_matches_scipy_special_table(self, name):
        # the log-pmf table from scipy.special's xlogy and gammaln, at the
        # default truncation
        model = SCIPY_ORACLE_MODELS[name]
        res = bayes_error(model)
        mean_len = float(np.max(model.doc_lengths))
        value, mass = bayes_error_scipy(
            model, int(np.ceil(mean_len + 10.0 * np.sqrt(mean_len))))
        assert res.value == pytest.approx(value, rel=1e-13)
        assert res.truncation_mass == pytest.approx(mass, abs=1e-14)

    @pytest.mark.parametrize("rows", [None, 1_000])
    @pytest.mark.parametrize("name", sorted(BLOCK_ORACLE_MODELS))
    def test_slab_blocks_equal_blocks_of_the_whole_grid(self, name, rows,
                                                        monkeypatch):
        # the same blocks in the same order, bit for bit, whether read from
        # the slabs or cut from the whole grid; 1,000-row blocks straddle
        # the slabs of successive leading counts
        if rows is not None:
            monkeypatch.setattr(topics, "_BAYES_BLOCK_ROWS", rows)
        model = BLOCK_ORACLE_MODELS[name]
        mean_len = float(np.max(model.doc_lengths))
        total = int(np.ceil(mean_len + 10.0 * np.sqrt(mean_len)))
        res = bayes_error(model)
        value, mass = bayes_error_in_blocks(model, total,
                                            topics._BAYES_BLOCK_ROWS)
        assert res.value.hex() == value.hex()
        assert res.truncation_mass.hex() == mass.hex()
        assert res.n_cells == comb(total + model.vocab_size,
                                   model.vocab_size)

    def test_budget_counts_the_real_cells(self, monkeypatch):
        # comb(11, 3) = 165 cells at a total of 8
        model = equal_length_models()[1]
        monkeypatch.setattr(topics, "_CELL_BUDGET", 165)
        assert bayes_error(model, max_total_count=8).n_cells == 165
        monkeypatch.setattr(topics, "_CELL_BUDGET", 164)
        with pytest.raises(EnumerationTooLargeError):
            bayes_error(model, max_total_count=8)

    def test_peak_memory_at_length_80(self):
        # 848,046 cells at the default truncation of 170 words, read in
        # 8,192-row blocks from slabs of the 14,706 two-word tails: 0.68
        # MiB; the whole uint8 grid with one 65,536-row joint buffer peaked
        # at 4.63 MiB, and int64 counts at 26.0 MiB
        model = scaled_model(equal_length_models()[1], 80.0)
        out = []
        peak = traced_peak_mib(lambda: out.append(bayes_error(model)))
        assert out[0].n_cells == 848_046
        assert peak <= 2.0


class TestSyntheticBenchmark:
    # labels, topics and intensities come from the head of sample_documents:
    # the label draw, then draw_topics, on the same stream
    def test_intensities_sum_to_document_length(self):
        sampler = build_synthetic_model()
        _, _, intensities = draw_head(sampler, 1_000, make_rng(10, "sums"))
        sums = intensities.sum(axis=1)
        assert np.all(np.abs(sums - 1000.0) < 1e-9)

    def test_intensities_match_softmax_reference(self):
        # the sampler computes its softmax in place; same values bit for bit
        sampler = build_synthetic_model()
        labels, topics, intensities = draw_head(sampler, 1_000,
                                                make_rng(15, "softmax"))
        theta = np.zeros((1_000, 500))
        ones = labels == 1
        theta[~ones, :7] = 1.0
        theta[ones, 7:14] = topics[ones, None]
        z = np.exp(theta)
        expected = 1000.0 * z / z.sum(axis=1, keepdims=True)
        assert np.array_equal(intensities, expected)

    def test_draw_topics_is_the_head_of_sample_documents(self):
        sampler = build_synthetic_model()
        labels, topics, _ = draw_head(sampler, 500, make_rng(16, "head"))
        batch = sample_documents(sampler, 500, make_rng(16, "head"))
        assert np.array_equal(batch.labels, labels)
        assert np.array_equal(batch.topics, topics)

    def test_params_header_is_unchanged(self):
        # CurveSpec.describe() writes these into every curves header
        assert list(build_synthetic_model().params.items()) == [
            ("exp_rate", 3.0), ("vocab_size", 500), ("block_size", 7),
            ("doc_length", 1000.0), ("label_prior", 0.5)]

    def test_label0_block_structure(self):
        sampler = build_synthetic_model()
        labels, _, intensities = draw_head(sampler, 2_000,
                                           make_rng(11, "blocks"))
        rows = intensities[labels == 0]
        block = rows[:, :7]
        background = rows[:, 14:]
        assert np.all(np.ptp(block, axis=1) == 0.0)
        assert np.all(np.ptp(background, axis=1) == 0.0)
        ratio = block[:, 0] / background[:, 0]
        assert np.allclose(ratio, np.e, atol=1e-12)

    def test_background_words_identical_for_label1(self):
        sampler = build_synthetic_model()
        labels, _, intensities = draw_head(sampler, 2_000, make_rng(12, "bg"))
        rows = intensities[labels == 1]
        assert np.all(np.ptp(rows[:, 14:], axis=1) == 0.0)

    def test_label_frequency(self):
        sampler = build_synthetic_model()
        labels, _, _ = draw_head(sampler, 100_000, make_rng(13, "labels"))
        tol = 3.0 * np.sqrt(0.25 / 100_000)
        assert abs(labels.mean() - 0.5) < tol

    def test_topic_strength_distribution_is_exponential(self):
        sampler = build_synthetic_model()
        labels, topics, _ = draw_head(sampler, 200_000, make_rng(14, "tau"))
        tau = topics[labels == 1]
        assert abs(tau.mean() - 1.0 / 3.0) < 3.0 * (1.0 / 3.0) / np.sqrt(len(tau))


def test_equal_length_presets_share_length():
    for model in equal_length_models():
        lengths = model.doc_lengths
        assert np.ptp(lengths) < 1e-12
