import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droplab import (LinearClassifier, ZeroVarianceError, balance_coefficient,
                     berry_esseen_statistic, excess_risk_decomposition,
                     make_rng, model_diagnostics, score_moments)
from droplab.presets import (equal_length_models, orthogonal_topic_model,
                             two_word_intensity, unequal_length_control)
from droplab.topics import Topic, TopicModel


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
        assert balance_coefficient([1.0], [4.0]) == 1.0

    def test_uniform_weights_are_perfectly_balanced(self):
        rng = make_rng(0, "balance")
        for _ in range(10):
            lam = rng.uniform(0.1, 5.0, size=6)
            w = rng.choice([-1.0, 1.0], size=6)
            assert balance_coefficient(w, lam) == pytest.approx(1.0, rel=1e-12)

    def test_concentrated_weights(self):
        assert berry_esseen_statistic([3.0, 1.0], [1.0, 1.0]) == \
            pytest.approx(0.9, rel=1e-12)
        assert balance_coefficient([3.0, 1.0], [1.0, 1.0]) == \
            pytest.approx(1.8, rel=1e-12)

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
        assert balance_coefficient(c * w, lam) == pytest.approx(
            balance_coefficient(w, lam), rel=1e-9)


class TestModelDiagnostics:
    def test_pure_topics(self):
        model = equal_length_models()[0]  # one topic per label
        diag = model_diagnostics(model)
        assert diag.confidence_margin == pytest.approx(0.5)
        assert diag.oracle_error == pytest.approx(0.0)
        assert np.array_equal(diag.majority_labels, [0, 1])

    def test_orthonormal_word_probability_columns(self):
        model = orthogonal_topic_model(doc_length=50.0, n_topics=2,
                                       words_per_topic=1)
        diag = model_diagnostics(model)
        assert diag.min_singular_value == pytest.approx(1.0, abs=1e-12)

    def test_more_than_64_topics(self):
        model = orthogonal_topic_model(doc_length=400.0, n_topics=80)
        diag = model_diagnostics(model)
        assert diag.min_singular_value == pytest.approx(np.sqrt(0.5),
                                                        abs=1e-12)

    def test_min_singular_value_matches_svd(self):
        rng = make_rng(12, "svd")
        for n_topics in (2, 5, 9):
            topics = tuple(
                Topic(id=t, rho0=1.0 / n_topics, rho1=1.0 / n_topics,
                      intensity=rng.uniform(0.1, 5.0, size=12))
                for t in range(n_topics))
            model = TopicModel(label_prior=0.5, topics=topics, vocab_size=12)
            diag = model_diagnostics(model)
            ref = np.linalg.svd(diag.word_prob_matrix, compute_uv=False).min()
            assert diag.min_singular_value == pytest.approx(ref, rel=1e-9)

    def test_single_ambiguous_topic(self):
        model = TopicModel(label_prior=0.7, vocab_size=1, topics=(
            Topic(id=0, rho0=1.0, rho1=1.0, intensity=np.array([2.0])),))
        diag = model_diagnostics(model)
        assert diag.oracle_error == pytest.approx(0.3)
        assert diag.confidence_margin == pytest.approx(0.2)

    def test_min_topic_prob_at_most_uniform(self):
        for model in equal_length_models():
            diag = model_diagnostics(model)
            assert 0.0 < diag.min_topic_prob <= 1.0 / model.n_topics + 1e-12

    def test_min_length(self):
        diag = model_diagnostics(unequal_length_control())
        assert diag.min_length == 1.0


class TestExcessRiskDecomposition:
    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_is_rejected(self, budget):
        clf = LinearClassifier(weights=np.array([-1.0, 1.0]))
        with pytest.raises(ValueError, match=f"mc_budget must be >= 1, "
                                             f"got {budget}"):
            excess_risk_decomposition(equal_length_models()[0], clf, 0.5,
                                      budget, make_rng(0, "decomp-budget"))

    def test_pure_topic_error_decomposes_exactly(self):
        # with pure topics the error is the topic-weighted sub-optimal rate
        model = equal_length_models()[0]
        clf = LinearClassifier(weights=np.array([-1.0, 1.0]))
        rng = make_rng(2, "decomp-pure")
        n = 100_000
        decomp = excess_risk_decomposition(model, clf, 0.5, n, rng)
        recombined = sum(td.n_samples / n * td.suboptimal_rate
                         for td in decomp.per_topic)
        assert decomp.error == pytest.approx(recombined, abs=1e-15)
        assert decomp.identity_residual <= 1e-15

    def test_identity_residual_with_ambiguous_topics(self):
        model = equal_length_models()[1]  # three mixed topics
        clf = LinearClassifier(weights=np.array([-1.0, 0.0, 1.0]))
        rng = make_rng(3, "decomp-mixed")
        decomp = excess_risk_decomposition(model, clf, 0.5, 200_000, rng)
        assert decomp.identity_residual <= decomp.identity_tolerance

    def test_reference_two_word_rates(self):
        # single-topic model at z = 2.5: rates match the Gaussian predictions
        # up to Monte Carlo noise plus the Berry-Esseen allowance
        lam = np.array(two_word_intensity(2.5, 10.0))
        model = TopicModel(label_prior=1.0, vocab_size=2, topics=(
            Topic(id=0, rho0=1.0, rho1=1.0, intensity=lam),))
        clf = LinearClassifier(weights=np.array([1.0, -1.0]))
        rng = make_rng(4, "decomp-z25")
        n = 1_000_000
        decomp = excess_risk_decomposition(model, clf, 0.5, n, rng)
        td = decomp.per_topic[0]
        be_slack = 4.0 * np.sqrt(td.be_stat)
        for rate, target in ((td.suboptimal_rate, 0.0062096653257761352),
                             (td.suboptimal_rate_thinned,
                              0.038549935871770885)):
            se = np.sqrt(rate * (1 - rate) / n)
            assert abs(rate - target) <= 3 * se + be_slack
        assert td.score_mean == 25.0 and td.score_var == 100.0
        assert td.be_stat == pytest.approx(0.01, rel=1e-12)
