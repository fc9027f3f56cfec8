import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droplab import (BERRY_ESSEEN_CONSTANT, RankDeficientError,
                     altitude_error_bound, berry_esseen_check,
                     gaussian_error_estimate, gaussian_tail_check, make_rng,
                     margin_condition, normal_cdf)
from droplab.presets import (berry_esseen_suite, orthogonal_topic_model,
                             two_word_intensity)
from oracles import kolmogorov_distance_sorted, traced_peak_mib

# frozen with 30-digit arithmetic
PHI_M1 = 0.15865525393145705
PHI_M25 = 0.0062096653257761352
PHI_M25_THINNED = 0.038549935871770885
PHI_M4 = 3.1671241833119921e-5
TAIL_MIDDLE_T1 = 0.65567954241879847
EXPONENT_RATIO_T4 = 1.7101271432865836
BOUND_LIMIT_D05_E001 = 0.0021516556471577643
MARGIN_THRESHOLD_T2_L400 = 0.30380352010450253


class TestNormalCdf:
    def test_frozen_values(self):
        assert normal_cdf(-1.0) == pytest.approx(PHI_M1, rel=1e-13)
        assert normal_cdf(-2.5) == pytest.approx(PHI_M25, rel=1e-13)
        assert normal_cdf(-4.0) == pytest.approx(PHI_M4, rel=1e-13)
        assert normal_cdf(0.0) == 0.5

    def test_vectorized(self):
        out = normal_cdf(np.array([-1.0, 0.0, 1.0]))
        assert out.shape == (3,)
        assert out[0] + out[2] == pytest.approx(1.0, abs=1e-15)


class TestGaussianErrorEstimate:
    def test_frozen_reference_point(self):
        lam = two_word_intensity(2.5, 10.0)
        eps, eps_thin = gaussian_error_estimate([1.0, -1.0], lam, 0.5)
        assert eps == pytest.approx(PHI_M25, rel=1e-12)
        assert eps_thin == pytest.approx(PHI_M25_THINNED, rel=1e-12)

    def test_zero_mean_gives_half(self):
        eps, eps_thin = gaussian_error_estimate([1.0, -1.0], [2.0, 2.0], 0.5)
        assert eps == 0.5 and eps_thin == 0.5

    def test_no_thinning_collapses_the_pair(self):
        eps, eps_thin = gaussian_error_estimate([1.0], [9.0], 0.0)
        assert eps == eps_thin

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.05, max_value=6.0),
           st.floats(min_value=0.01, max_value=0.99))
    def test_thinned_measure_is_strictly_harder(self, z, delta):
        lam = two_word_intensity(z, max(4.0 * z, 10.0))
        eps, eps_thin = gaussian_error_estimate([1.0, -1.0], lam, delta)
        assert eps < eps_thin

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=1e-2, max_value=1e2))
    def test_scale_invariance(self, c):
        lam = [5.0, 2.0]
        base = gaussian_error_estimate([1.0, -0.5], lam, 0.5)
        scaled = gaussian_error_estimate([c, -0.5 * c], lam, 0.5)
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_exponent_ratio_approaches_reciprocal_keep_rate(self):
        # log Phi(-t) / log Phi(-t sqrt(1-delta)) tends to 1/(1-delta);
        # at t = 4, delta = 0.5 it is within 15% of 2
        ratio = np.log(normal_cdf(-4.0)) / np.log(normal_cdf(-4.0 * np.sqrt(0.5)))
        assert ratio == pytest.approx(EXPONENT_RATIO_T4, rel=1e-12)
        assert abs(ratio - 2.0) <= 0.15 * 2.0


class TestBerryEsseenCheck:
    def test_single_poisson_score(self):
        rep = berry_esseen_check([1.0], [100.0], 100_000, make_rng(0, "be1"))
        assert rep.bound == pytest.approx(0.4, rel=1e-12)
        assert rep.sup_distance < 0.05
        assert rep.passed

    def test_signed_two_word_score(self):
        rep = berry_esseen_check([1.0, -1.0], two_word_intensity(2.5, 10.0),
                                 100_000, make_rng(1, "be2"))
        assert rep.passed

    def test_chunked_scores_equal_one_draw(self):
        # 150,000 rows span three Poisson chunks, the last one ragged; the
        # distance must be that of one draw of every row on the same stream
        w, lam = berry_esseen_suite()[3]
        rep = berry_esseen_check(w, lam, 150_000, make_rng(5, "be-chunks"))
        scores = make_rng(5, "be-chunks").poisson(lam, (150_000, 3)) @ w
        mu, sd = lam @ w, np.sqrt(lam @ (w * w))
        assert rep.sup_distance == kolmogorov_distance_sorted(
            scores, lambda s: normal_cdf((s - mu) / sd))

    def test_peak_memory_at_a_million_samples(self):
        # 8 MB of scores plus one chunk of counts; drawing every row at
        # once takes 68.7 MiB
        w, lam = berry_esseen_suite()[3]
        peak = traced_peak_mib(lambda: berry_esseen_check(
            w, lam, 1_000_000, make_rng(1, "be-memory")))
        assert peak <= 25.0

    def test_zero_variance_rejected(self):
        from droplab import ZeroVarianceError
        with pytest.raises(ZeroVarianceError):
            berry_esseen_check([0.0], [1.0], 100, make_rng(2, "be3"))


class TestAltitudeErrorBound:
    def test_vacuous_above_validity_region(self):
        rep = altitude_error_bound(eps_thinned=0.2, be_stat=0.0, delta=0.5)
        assert rep.vacuous and rep.value == np.inf

    def test_berry_esseen_inflation_can_force_vacuity(self):
        rep = altitude_error_bound(eps_thinned=0.01, be_stat=0.01, delta=0.5)
        assert rep.inflated == pytest.approx(0.01 + 4 * 0.1 / np.sqrt(0.5))
        assert rep.vacuous

    def test_zero_concentration_limit(self):
        rep = altitude_error_bound(eps_thinned=0.01, be_stat=0.0, delta=0.5)
        assert not rep.vacuous
        assert rep.value == pytest.approx(BOUND_LIMIT_D05_E001, abs=1e-9)

    def test_additive_floor(self):
        for be in (1e-6, 1e-5, 1e-4):
            rep = altitude_error_bound(eps_thinned=0.02, be_stat=be, delta=0.5)
            assert rep.value >= BERRY_ESSEEN_CONSTANT * np.sqrt(be)

    def test_no_thinning_degenerates_gracefully(self):
        rep = altitude_error_bound(eps_thinned=0.05, be_stat=0.0, delta=0.0)
        assert rep.value == pytest.approx(2.0 * 0.05, rel=1e-12)

    def test_constant_is_fixed(self):
        rep = altitude_error_bound(0.01, 0.0, 0.5)
        assert rep.constant == 4.0


class TestGaussianTailCheck:
    def test_unit_point_frozen(self):
        rep = gaussian_tail_check([1.0])
        e = rep.entries[0]
        assert e.lower == 0.5 and e.upper == 1.0
        assert e.middle == pytest.approx(TAIL_MIDDLE_T1, rel=1e-12)
        assert e.strict

    def test_bounds_tighten_at_large_t(self):
        e = gaussian_tail_check([10.0]).entries[0]
        assert e.strict
        assert (e.upper - e.lower) / e.upper < 0.01

    def test_full_grid_strict(self):
        rep = gaussian_tail_check([0.1, 0.5, 1.0, 2.0, 4.0, 8.0])
        assert rep.passed

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            gaussian_tail_check([0.0, 1.0])


class TestMarginCondition:
    def test_orthonormal_two_topic_threshold(self):
        model = orthogonal_topic_model(doc_length=400.0, n_topics=2,
                                       words_per_topic=1)
        rep = margin_condition(model, 0.5)
        assert rep.min_singular_value == pytest.approx(1.0, abs=1e-12)
        assert rep.threshold == pytest.approx(MARGIN_THRESHOLD_T2_L400,
                                              rel=1e-12)
        assert rep.holds

    def test_separator_achieves_unit_margins(self):
        for length in (100.0, 400.0):
            model = orthogonal_topic_model(doc_length=length)
            rep = margin_condition(model, 0.5)
            assert rep.max_margin_error <= 1e-9
            assert rep.separator_norm <= rep.norm_bound + 1e-9
            assert np.linalg.norm(rep.separator) == pytest.approx(1.0,
                                                                  abs=1e-12)

    def test_signs_follow_majority_labels(self):
        model = orthogonal_topic_model(doc_length=100.0)
        rep = margin_condition(model, 0.5)
        assert np.array_equal(rep.signs, [-1.0, 1.0, -1.0])

    def test_rank_deficient_rejected(self):
        from droplab.topics import Topic, TopicModel
        lam = np.array([2.0, 2.0])
        model = TopicModel(label_prior=0.5, vocab_size=2, topics=(
            Topic(id=0, rho0=1.0, rho1=0.0, intensity=lam),
            Topic(id=1, rho0=0.0, rho1=1.0, intensity=lam)))
        with pytest.raises(RankDeficientError):
            margin_condition(model, 0.5)

    def test_more_than_64_topics(self):
        model = orthogonal_topic_model(doc_length=400.0, n_topics=80)
        rep = margin_condition(model, 0.5)
        # two words per topic: every column has squared norm 1/2
        assert rep.min_singular_value == pytest.approx(np.sqrt(0.5),
                                                       abs=1e-12)
        assert rep.max_margin_error <= 1e-9
        assert rep.signs.shape == (80,)

    def test_condition_fails_for_short_documents(self):
        model = orthogonal_topic_model(doc_length=5.0)
        rep = margin_condition(model, 0.5)
        assert not rep.holds

    def test_unequal_length_model_uses_min_length(self):
        from droplab.topics import Topic, TopicModel
        model = TopicModel(label_prior=0.5, vocab_size=2, topics=(
            Topic(id=0, rho0=1.0, rho1=0.0, intensity=np.array([2.0, 0.0])),
            Topic(id=1, rho0=0.0, rho1=1.0, intensity=np.array([0.0, 5.0]))))
        rep = margin_condition(model, 0.0)
        # min length 2; log+ of (2 / 2 pi) clips to zero
        assert rep.threshold == pytest.approx(np.sqrt(2.0 / 2.0), rel=1e-12)
