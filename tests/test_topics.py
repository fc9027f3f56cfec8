import numpy as np
import pytest
from scipy import stats as sps

from droplab import (DiscreteSampler, EnumerationTooLargeError,
                     ParametricSampler, Topic, TopicModel,
                     UndefinedPosteriorError, bayes_error, bayes_posterior,
                     build_synthetic_model, make_rng, sample_document,
                     sample_document_multinomial, sample_documents,
                     sample_documents_multinomial)
from droplab.presets import equal_length_models, unequal_length_control
from droplab.stats import chi_square_gof, chi_square_two_sample


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

    def test_json_round_trip(self):
        model = two_class_model([2.0, 1.0], [1.0, 2.0], prior=0.3)
        again = TopicModel.from_dict(model.to_dict())
        assert again.label_prior == model.label_prior
        assert again.vocab_size == model.vocab_size
        for a, b in zip(again.topics, model.topics):
            assert (a.id, a.rho0, a.rho1) == (b.id, b.rho0, b.rho1)
            assert np.array_equal(a.intensity, b.intensity)


class TestSampling:
    def test_zero_intensity_coordinates_stay_zero(self):
        # Poisson(0) is identically zero
        sampler = ParametricSampler(
            label_prior=0.5, vocab_size=3,
            topic_fn=lambda labels, rng: (
                np.zeros(len(labels)),
                np.tile([0.0, 0.0, 1.0], (len(labels), 1))))
        batch = sample_documents(sampler, 500, make_rng(0, "zeros"))
        assert np.all(batch.counts[:, :2] == 0)

    def test_poisson_mean_concentrates(self):
        sampler = DiscreteSampler(single_topic_model([10.0]))
        batch = sample_documents(sampler, 100_000, make_rng(1, "mean"))
        tol = 3.0 * np.sqrt(10.0 / 100_000)
        assert abs(batch.counts[:, 0].mean() - 10.0) < tol

    def test_degenerate_mixture_ties_topic_to_label(self):
        model = two_class_model([3.0], [4.0])
        batch = sample_documents(DiscreteSampler(model), 2_000,
                                 make_rng(2, "degenerate"))
        assert np.array_equal(batch.topics.astype(int), batch.labels)

    def test_single_document_has_consistent_length(self):
        doc = sample_document(DiscreteSampler(single_topic_model([2.0, 3.0])),
                              make_rng(3, "one"))
        assert doc.length == int(doc.counts.sum())

    def test_multinomial_zero_probability_word(self):
        sampler = DiscreteSampler(single_topic_model([0.0, 5.0]))
        batch = sample_documents_multinomial(sampler, 1_000,
                                             make_rng(4, "multi"))
        assert np.all(batch.counts[:, 0] == 0)

    def test_multinomial_single_document(self):
        sampler = DiscreteSampler(single_topic_model([2.0, 3.0]))
        doc = sample_document_multinomial(sampler, make_rng(4, "multi-one"))
        assert doc.length == int(doc.counts.sum())

    def test_multinomial_document_lengths_are_poisson(self):
        sampler = DiscreteSampler(single_topic_model([1.0, 1.0, 1.0]))
        batch = sample_documents_multinomial(sampler, 100_000,
                                             make_rng(5, "lengths"))
        top = 15
        obs = np.bincount(np.minimum(batch.lengths, top), minlength=top + 1)
        pmf = sps.poisson.pmf(np.arange(top + 1), 3.0)
        pmf[top] = 1.0 - pmf[:top].sum()
        _, p = chi_square_gof(obs, pmf * len(batch))
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
        sampler = DiscreteSampler(single_topic_model([2.0, 3.0]))
        a = sample_documents(sampler, 100_000, make_rng(6, "independent"))
        b = sample_documents_multinomial(sampler, 100_000,
                                         make_rng(6, "lengthfirst"))
        _, p = chi_square_two_sample(self._joint_histogram(a.counts),
                                     self._joint_histogram(b.counts))
        assert p > 0.001

    def test_two_samplers_agree_mixture_model(self):
        sampler = DiscreteSampler(two_class_model([2.0, 1.0], [1.0, 2.0]))
        a = sample_documents(sampler, 100_000, make_rng(7, "independent"))
        b = sample_documents_multinomial(sampler, 100_000,
                                         make_rng(7, "lengthfirst"))
        _, p = chi_square_two_sample(self._joint_histogram(a.counts, top=10),
                                     self._joint_histogram(b.counts, top=10))
        assert p > 0.001


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
        batch = sample_documents(DiscreteSampler(model), 1_000_000,
                                 make_rng(9, "bayes-mc"))
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
            bayes_error(model, max_total_count=100, cell_budget=1_000)

    def test_default_truncation_reports_small_mass(self):
        model = two_class_model([2.0], [3.0])
        res = bayes_error(model)
        assert res.truncation_mass < 1e-6


class TestSyntheticBenchmark:
    def test_intensities_sum_to_document_length(self):
        sampler = build_synthetic_model()
        batch = sample_documents(sampler, 1_000, make_rng(10, "sums"),
                                 return_intensities=True)
        sums = batch.intensities.sum(axis=1)
        assert np.all(np.abs(sums - 1000.0) < 1e-9)

    def test_intensities_match_softmax_reference(self):
        # the sampler computes its softmax in place; same values bit for bit
        sampler = build_synthetic_model()
        batch = sample_documents(sampler, 1_000, make_rng(15, "softmax"),
                                 return_intensities=True)
        theta = np.zeros((1_000, 500))
        ones = batch.labels == 1
        theta[~ones, :7] = 1.0
        theta[ones, 7:14] = batch.topics[ones, None]
        z = np.exp(theta)
        expected = 1000.0 * z / z.sum(axis=1, keepdims=True)
        assert np.array_equal(batch.intensities, expected)

    def test_label0_block_structure(self):
        sampler = build_synthetic_model()
        batch = sample_documents(sampler, 2_000, make_rng(11, "blocks"),
                                 return_intensities=True)
        rows = batch.intensities[batch.labels == 0]
        block = rows[:, :7]
        background = rows[:, 14:]
        assert np.all(np.ptp(block, axis=1) == 0.0)
        assert np.all(np.ptp(background, axis=1) == 0.0)
        ratio = block[:, 0] / background[:, 0]
        assert np.allclose(ratio, np.e, atol=1e-12)

    def test_background_words_identical_for_label1(self):
        sampler = build_synthetic_model()
        batch = sample_documents(sampler, 2_000, make_rng(12, "bg"),
                                 return_intensities=True)
        rows = batch.intensities[batch.labels == 1]
        assert np.all(np.ptp(rows[:, 14:], axis=1) == 0.0)

    def test_label_frequency(self):
        sampler = build_synthetic_model()
        batch = sample_documents(sampler, 100_000, make_rng(13, "labels"))
        tol = 3.0 * np.sqrt(0.25 / 100_000)
        assert abs(batch.labels.mean() - 0.5) < tol

    def test_topic_strength_distribution_is_exponential(self):
        sampler = build_synthetic_model(exp_rate=3.0)
        batch = sample_documents(sampler, 200_000, make_rng(14, "tau"))
        tau = batch.topics[batch.labels == 1]
        assert abs(tau.mean() - 1.0 / 3.0) < 3.0 * (1.0 / 3.0) / np.sqrt(len(tau))


def test_equal_length_presets_share_length():
    for model in equal_length_models():
        lengths = model.doc_lengths
        assert np.ptp(lengths) < 1e-12
