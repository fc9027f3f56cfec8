import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droplab import (LinearClassifier, ZeroVarianceError,
                     berry_esseen_statistic, make_rng, margin_condition,
                     score_moments, topics, verify)
from droplab.diagnostics import excess_risk_decomposition, thinned_topic_rates
from droplab.presets import (equal_length_models, orthogonal_topic_model,
                             two_word_intensity, unequal_length_control)
from droplab.stats import binomial_se
from droplab.topics import Topic, TopicModel
from oracles import traced_peak_mib


class TestScoreMoments:
    def test_exact_sums(self):
        assert score_moments([1.0, -1.0], [4.0, 1.0]) == (3.0, 5.0)

    def test_zero_weights(self):
        assert score_moments([0.0, 0.0], [4.0, 1.0]) == (0.0, 0.0)

    def test_reference_two_word_score(self):
        mu, var = score_moments([1.0, -1.0], two_word_intensity(2.5, 10.0))
        assert (mu, var) == (25.0, 100.0)
        assert mu / np.sqrt(var) == 2.5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            score_moments([1.0], [1.0, 2.0])


class TestConcentrationStatistics:
    def test_single_word(self):
        assert berry_esseen_statistic([1.0], [4.0]) == 0.25

    def test_uniform_weights_are_perfectly_balanced(self):
        # with |w_j| constant the statistic is one over the document length
        rng = make_rng(0, "balance")
        for _ in range(10):
            lam = rng.uniform(0.1, 5.0, size=6)
            w = rng.choice([-1.0, 1.0], size=6)
            assert berry_esseen_statistic(w, lam) * lam.sum() == \
                pytest.approx(1.0, rel=1e-12)

    def test_concentrated_weights(self):
        assert berry_esseen_statistic([3.0, 1.0], [1.0, 1.0]) == \
            pytest.approx(0.9, rel=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ZeroVarianceError):
            berry_esseen_statistic([0.0, 0.0], [1.0, 1.0])

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, c):
        w = np.array([2.0, -1.0, 0.5])
        lam = np.array([1.0, 3.0, 2.0])
        assert berry_esseen_statistic(c * w, lam) == pytest.approx(
            berry_esseen_statistic(w, lam), rel=1e-9)


class TestModelDiagnostics:
    # model-level quantities the margin and risk diagnostics read from the
    # model directly
    def test_pure_topics(self):
        model = equal_length_models()[0]  # one topic per label
        p1t = model.label1_given_topic()
        assert np.min(np.abs(p1t - 0.5)) == pytest.approx(0.5)
        oracle = np.sum(model.topic_probs() * np.minimum(p1t, 1 - p1t))
        assert oracle == pytest.approx(0.0)
        assert np.array_equal((p1t > 0.5).astype(int), [0, 1])

    def test_orthonormal_word_probability_columns(self):
        model = orthogonal_topic_model(doc_length=50.0, n_topics=2,
                                       words_per_topic=1)
        pi = model.word_prob_matrix
        assert np.allclose(pi.T @ pi, np.eye(2), atol=1e-12)
        rep = margin_condition(model, 0.5)
        assert rep.min_singular_value == pytest.approx(1.0, abs=1e-12)

    def test_more_than_64_topics(self):
        model = orthogonal_topic_model(doc_length=400.0, n_topics=80)
        pi = model.word_prob_matrix
        assert np.allclose(pi.T @ pi, 0.5 * np.eye(80), atol=1e-12)
        rep = margin_condition(model, 0.5)
        assert rep.min_singular_value == pytest.approx(np.sqrt(0.5),
                                                       abs=1e-12)

    def test_min_length(self):
        assert float(unequal_length_control().doc_lengths.min()) == 1.0


class TestExcessRiskDecomposition:
    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_is_rejected(self, budget):
        clf = LinearClassifier(weights=np.array([-1.0, 1.0]))
        with pytest.raises(ValueError, match=f"mc_budget must be >= 1, "
                                             f"got {budget}"):
            excess_risk_decomposition(equal_length_models()[0], clf, 0.5,
                                      budget, make_rng(0, "decomp-budget"))

    def test_one_poisson_draw_per_chunk_and_no_thinning(self):
        # thinning closure: thinned documents come straight from the
        # thinned model, so no binomial or geometric thinning draw is made
        class Recording:
            def __init__(self, rng):
                self.rng, self.calls = rng, []

            def __getattr__(self, name):
                self.calls.append(name)
                return getattr(self.rng, name)

        model = equal_length_models()[1]
        clf = LinearClassifier(weights=np.array([-1.0, 0.0, 1.0]))
        rng = Recording(make_rng(6, "decomp-draws"))
        excess_risk_decomposition(model, clf, 0.5, 250_000, rng)
        # sample_documents draws d = 3 rows in chunks of _SAMPLE_CELLS // 3
        # (10,922): nineteen for the first 200,000-document round, five for
        # the last 50,000; the totals and words of its split rows are drawn
        # on generators spawned from rng
        rows = topics._SAMPLE_CELLS // 3
        assert rng.calls.count("poisson") == sum(-(-b // rows)
                                                 for b in (200_000, 50_000))
        assert not {"binomial", "geometric"} & set(rng.calls)

    def test_unsampled_topic_rate_is_nan(self):
        model = orthogonal_topic_model(100.0)  # three topics
        clf = LinearClassifier(weights=margin_condition(model, 0.5).separator)
        decomp = excess_risk_decomposition(model, clf, 0.5, 1,
                                           make_rng(0, "decomp-one"))
        drawn = decomp.n_samples > 0
        assert decomp.n_samples.sum() == 1
        assert np.isnan(decomp.rates[~drawn]).all()
        assert decomp.rates[drawn] == [0.0]
        assert decomp.identity_residual <= decomp.identity_tolerance

    def test_peak_memory_at_a_million_documents(self):
        # one 200,000-document chunk alive at a time; keeping the previous
        # chunk while sampling the next takes 48.9 MiB
        # the margin suite's longest model and separator
        model = orthogonal_topic_model(1600.0)
        clf = LinearClassifier(weights=margin_condition(model, 0.5).separator)
        peak = traced_peak_mib(lambda: excess_risk_decomposition(
            model, clf, 0.5, 1_000_000, make_rng(2, "decomp-memory")))
        assert peak <= 35.0

    def test_pure_topic_error_decomposes_exactly(self):
        # with pure topics the error is the topic-weighted sub-optimal rate
        model = equal_length_models()[0]
        clf = LinearClassifier(weights=np.array([-1.0, 1.0]))
        rng = make_rng(2, "decomp-pure")
        n = 100_000
        decomp = excess_risk_decomposition(model, clf, 0.5, n, rng)
        recombined = sum(decomp.n_samples / n * decomp.rates)
        assert decomp.error_thinned == pytest.approx(recombined, abs=1e-15)
        assert decomp.identity_residual <= 1e-15

    def test_single_ambiguous_topic(self):
        # one topic carrying both labels: the oracle errs at rate
        # min(p, 1 - p) = 0.3, and a rule that always predicts the majority
        # label 1 is never sub-optimal, so its whole error is oracle error
        model = TopicModel(label_prior=0.7, vocab_size=1, topics=(
            Topic(id=0, rho0=1.0, rho1=1.0, intensity=np.array([2.0])),))
        clf = LinearClassifier(weights=np.array([0.0]), intercept=1.0)
        decomp = excess_risk_decomposition(model, clf, 0.5, 100_000,
                                           make_rng(5, "decomp-ambiguous"))
        assert decomp.rates[0] == 0.0
        assert decomp.identity_residual == pytest.approx(
            abs(decomp.error_thinned - 0.3), abs=1e-15)
        assert decomp.identity_residual <= decomp.identity_tolerance

    def test_identity_residual_with_ambiguous_topics(self):
        model = equal_length_models()[1]  # three mixed topics
        clf = LinearClassifier(weights=np.array([-1.0, 0.0, 1.0]))
        rng = make_rng(3, "decomp-mixed")
        decomp = excess_risk_decomposition(model, clf, 0.5, 200_000, rng)
        assert decomp.identity_residual <= decomp.identity_tolerance

    def test_reference_two_word_rates(self):
        # single-topic model at z = 2.5: the thinned rate matches the
        # Gaussian prediction up to Monte Carlo noise plus the Berry-Esseen
        # allowance (criterion 3 checks the raw rate)
        lam = np.array(two_word_intensity(2.5, 10.0))
        model = TopicModel(label_prior=1.0, vocab_size=2, topics=(
            Topic(id=0, rho0=1.0, rho1=1.0, intensity=lam),))
        clf = LinearClassifier(weights=np.array([1.0, -1.0]))
        rng = make_rng(4, "decomp-z25")
        n = 1_000_000
        decomp = excess_risk_decomposition(model, clf, 0.5, n, rng)
        rate = decomp.rates[0]
        be_slack = 4.0 * np.sqrt(berry_esseen_statistic(clf.weights, lam))
        se = np.sqrt(rate * (1 - rate) / n)
        assert abs(rate - 0.038549935871770885) <= 3 * se + be_slack


class TestExactMarginRates:
    """Closed-form per-topic thinned rates against the Monte Carlo
    decomposition."""

    def test_within_monte_carlo_noise(self):
        model = orthogonal_topic_model(10.0)
        w = margin_condition(model, 0.5).separator
        exact = thinned_topic_rates(model, w, 0.5)
        decomp = excess_risk_decomposition(
            model, LinearClassifier(weights=w), 0.5, 200_000,
            make_rng(11, "exact-margin-rates"))
        # the label-1 topic errs exactly when no word survives: e^-5
        assert exact[1] > 0.005 and exact[[0, 2]].tolist() == [0.0, 0.0]
        se = binomial_se(exact, decomp.n_samples)
        assert np.all(np.abs(decomp.rates - exact) <= 4.0 * se)

    def test_suite_rates_underflow_to_zero(self):
        worst = [c["worst_rate"] for c in verify.run_margin_suite(0, 1)
                 if c["name"].endswith("per-topic thinned error")]
        assert worst == [np.exp(-(1.0 - verify.MARGIN_DELTA) * length)
                         for length in verify.MARGIN_LENGTHS]
        assert worst[0] > 0.0 and worst[-1] == 0.0

    def test_rule_must_be_constant_on_each_support(self):
        with pytest.raises(ValueError, match="w is not constant on topic 0"):
            thinned_topic_rates(equal_length_models()[1],
                                np.array([-1.0, 0.0, 1.0]), 0.5)
