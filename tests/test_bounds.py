import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droplab import (BERRY_ESSEEN_CONSTANT, RankDeficientError,
                     ZeroVarianceError, altitude_error_bound,
                     berry_esseen_check, gaussian_error_estimate,
                     gaussian_tail_check, make_rng, margin_condition,
                     normal_cdf)
from droplab import topics
from droplab.presets import (berry_esseen_suite, orthogonal_topic_model,
                             two_word_intensity)
from droplab.verify import run_berry_esseen_suite
from oracles import (berry_esseen_distance_sorted, kolmogorov_distance_sorted,
                     normal_cdf_scipy, traced_peak_mib)

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

    def test_matches_scipy_erfc_form(self):
        # from Phi(-37), about 6e-300, to where Phi rounds to 1
        x = np.linspace(-37.0, 8.0, 450_001)
        np.testing.assert_allclose(normal_cdf(x), normal_cdf_scipy(x),
                                   rtol=1e-12, atol=0.0)

    def test_keeps_the_input_shape(self):
        x = np.array([[-1.0, 0.0, 2.0], [3.0, -4.0, 0.5]])
        out = normal_cdf(x)
        assert out.shape == (2, 3)
        assert out.tolist() == [[normal_cdf(v) for v in row] for row in x]
        assert isinstance(normal_cdf(np.float64(0.5)), float)
        assert normal_cdf(np.array([])).shape == (0,)


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

    def test_zero_variance_rejected(self):
        # the error berry_esseen_statistic raises for the same score
        with pytest.raises(ZeroVarianceError,
                           match="^score variance must be positive$"):
            gaussian_error_estimate([0.0, 0.0], [3.0, 5.0], 0.5)

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

    @pytest.mark.parametrize("k", range(5))
    def test_merged_block_tallies_equal_one_sorted_draw(self, k,
                                                        monkeypatch):
        # 20,000 samples in 67 blocks of 300 rows, the last one ragged, so
        # the running tally is rebuilt at several sizes; the distance must
        # be that of every score drawn on the same stream and sorted
        monkeypatch.setattr(topics, "_POISSON_ROWS", 300)
        w, lam = berry_esseen_suite()[k]
        rep = berry_esseen_check(w, lam, 20_000, make_rng(k, "be-merge"))
        assert rep.sup_distance == berry_esseen_distance_sorted(
            w, lam, 20_000, make_rng(k, "be-merge"), 300)

    def test_peak_memory_at_a_million_samples(self):
        # one block of counts and scores, and the running tally of a few
        # hundred lattice values: 0.30 MiB; holding every block's tally
        # until one merge peaked at 1.14 MiB, and drawing every row at once
        # takes 68.7 MiB
        w, lam = berry_esseen_suite()[3]
        peak = traced_peak_mib(lambda: berry_esseen_check(
            w, lam, 1_000_000, make_rng(1, "be-memory")))
        assert peak <= 1.0

    def test_a_million_distinct_scores(self):
        # incommensurate weights on long documents: every score distinct,
        # so the running tally ends with 10^6 entries.  The distance keeps
        # the bits it had when every block's tally was merged once at the
        # end, which peaked at 68.5 MiB; the running merge peaks at 49.4
        w = np.array([1.0, np.sqrt(2.0), -np.pi])
        lam = np.array([1e4, 2e4, 3e4])
        out = []
        peak = traced_peak_mib(lambda: out.append(berry_esseen_check(
            w, lam, 1_000_000, make_rng(1, "be-distinct"))))
        assert out[0].sup_distance.hex() == "0x1.0b12b22a02180p-11"
        assert peak <= 68.5

    @pytest.mark.parametrize("n", [0, -3])
    def test_empty_budget_is_rejected_by_name(self, n):
        rng = make_rng(2, "be-empty")
        state = rng.bit_generator.state
        with pytest.raises(ValueError,
                           match=f"n_samples must be >= 1, got {n}"):
            berry_esseen_check([1.0], [100.0], n, rng)
        assert rng.bit_generator.state == state  # nothing was drawn

    def test_zero_variance_rejected(self):
        with pytest.raises(ZeroVarianceError):
            berry_esseen_check([0.0], [1.0], 100, make_rng(2, "be3"))


class TestBerryEsseenSuite:
    def test_checks_do_not_depend_on_cpu_count(self, monkeypatch):
        # 3,500 samples per config in blocks of 1,000, the last one ragged
        monkeypatch.setattr(topics, "_POISSON_ROWS", 1_000)
        runs = []
        for cpus in ({0}, {0, 1, 2, 3}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                                raising=False)
            runs.append(run_berry_esseen_suite(seed=4, mc=3_500))
        assert runs[0] == runs[1]
        for k, ((w, lam), check) in enumerate(zip(berry_esseen_suite(),
                                                  runs[1])):
            assert check["sup_distance"] == berry_esseen_distance_sorted(
                w, lam, 3_500, make_rng(4, "verify-berry-esseen", k), 1_000)

    def test_peak_memory_at_a_million_samples_on_two_cpus(self, monkeypatch):
        # two configs at a time, each holding one block of counts and the
        # running tally of its scores: 0.55 MiB; holding every block's
        # tally until one merge peaked at 3.81 MiB, and a float vector of
        # every score at 17.2 MiB
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        peak = traced_peak_mib(lambda: run_berry_esseen_suite(seed=1,
                                                              mc=1_000_000))
        assert peak <= 2.0


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
        assert BERRY_ESSEEN_CONSTANT == 4.0
        rep = altitude_error_bound(0.01, 0.25, 0.5)
        assert rep.inflated == pytest.approx(0.01 + 4.0 * 0.5 / np.sqrt(0.5),
                                             rel=1e-15)


class TestGaussianTailCheck:
    def test_unit_point_frozen(self):
        e, = gaussian_tail_check([1.0])
        assert e.lower == 0.5 and e.upper == 1.0
        assert e.middle == pytest.approx(TAIL_MIDDLE_T1, rel=1e-12)
        assert e.strict

    def test_bounds_tighten_at_large_t(self):
        e, = gaussian_tail_check([10.0])
        assert e.strict
        assert (e.upper - e.lower) / e.upper < 0.01

    def test_full_grid_strict(self):
        entries = gaussian_tail_check([0.1, 0.5, 1.0, 2.0, 4.0, 8.0])
        assert all(e.strict for e in entries)

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
        # topics 0 and 2 belong to label 0, topic 1 to label 1
        model = orthogonal_topic_model(doc_length=100.0)
        rep = margin_condition(model, 0.5)
        centers = model.word_prob_matrix.T @ rep.separator
        assert np.array_equal(np.sign(centers), [-1.0, 1.0, -1.0])

    def test_min_singular_value_matches_svd(self):
        from droplab.topics import Topic, TopicModel
        rng = make_rng(12, "svd")
        for n_topics in (2, 5, 9):
            topics = tuple(
                Topic(id=t, rho0=1.0 / n_topics, rho1=1.0 / n_topics,
                      intensity=rng.uniform(0.1, 5.0, size=12))
                for t in range(n_topics))
            model = TopicModel(label_prior=0.5, topics=topics, vocab_size=12)
            rep = margin_condition(model, 0.5)
            ref = np.linalg.svd(model.word_prob_matrix,
                                compute_uv=False).min()
            assert rep.min_singular_value == pytest.approx(ref, rel=1e-9)

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
        assert rep.separator.shape == (160,)

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
