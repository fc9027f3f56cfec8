import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droplab import (DegenerateDataError, DimensionError, DiscreteSampler,
                     DropoutConfig, EmptyDataError, LinearClassifier,
                     TrainConfig, erm_zero_one_small, evaluate_error,
                     make_rng, recalibrate_intercept, sample_documents,
                     thin_counts, train_logistic, train_logistic_dropout,
                     train_naive_bayes)
import droplab
from droplab import classifiers
from droplab.presets import two_word_intensity
from droplab.topics import Document, DocumentBatch, Topic, TopicModel

EXACT_THINNED_RATE = 0.043627118658197702   # P[thinned score <= 0], z = 2.5
GAUSSIAN_THINNED_RATE = 0.038549935871770885


def batch_from(counts, labels):
    counts = np.asarray(counts, dtype=np.int64)
    return DocumentBatch(counts=counts,
                         labels=np.asarray(labels, dtype=np.int64),
                         topics=np.full(len(labels), -1.0))


def two_topic_sampler(lam0, lam1, prior=0.5):
    lam0 = np.asarray(lam0, dtype=float)
    lam1 = np.asarray(lam1, dtype=float)
    model = TopicModel(label_prior=prior, vocab_size=len(lam0), topics=(
        Topic(id=0, rho0=1.0, rho1=0.0, intensity=lam0),
        Topic(id=1, rho0=0.0, rho1=1.0, intensity=lam1)))
    return DiscreteSampler(model)


class TestLinearClassifier:
    def test_tie_score_predicts_class_zero(self):
        clf = LinearClassifier(weights=np.array([1.0]), intercept=-5.0)
        assert clf.predict(np.array([[5]]))[0] == 0
        assert clf.predict(np.array([[6]]))[0] == 1

    def test_parameters_must_be_finite(self):
        with pytest.raises(ValueError):
            LinearClassifier(weights=np.array([np.inf]))

    def test_json_round_trip(self):
        clf = LinearClassifier(weights=np.array([0.25, -1.5]), intercept=0.125)
        again = LinearClassifier.from_dict(clf.to_dict())
        assert np.array_equal(again.weights, clf.weights)
        assert again.intercept == clf.intercept

    def test_blocked_scores_match_whole_matrix_product(self):
        # Row counts around the 1,048-row block size of a 500-word matrix,
        # including a lone last row.  Multi-threaded BLAS partitions gemv
        # rows by matrix size, so bit-equality is checked with one thread.
        code = """
import numpy as np
from droplab import LinearClassifier
rng = np.random.default_rng(30)
clf = LinearClassifier(weights=rng.normal(size=500), intercept=-0.75)
ok = []
for n in (0, 1, 2, 7, 1047, 1048, 1049, 3145):
    for dtype in (np.uint8, np.int64, float):
        x = rng.poisson(2.0, size=(n, 500)).astype(dtype)
        whole = np.asarray(x, dtype=float) @ clf.weights + clf.intercept
        ok.append(np.array_equal(clf.scores(x), whole))
print(all(ok))
"""
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       [str(Path(droplab.__file__).parents[1])]
                       + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.strip() == "True", out.stderr

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_positive_scaling_preserves_predictions(self, c):
        clf = LinearClassifier(weights=np.array([1.0, -2.0]), intercept=0.5)
        scaled = LinearClassifier(weights=c * clf.weights,
                                  intercept=c * clf.intercept)
        x = np.array([[3, 1], [0, 0], [1, 4], [2, 2]])
        assert np.array_equal(clf.predict(x), scaled.predict(x))


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(l2_weight=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(step_size=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


class TestTrainLogistic:
    def test_separable_data_reaches_zero_error(self):
        counts = [[0]] * 100 + [[5]] * 100
        labels = [0] * 100 + [1] * 100
        data = batch_from(counts, labels)
        clf = train_logistic(data, TrainConfig(epochs=200))
        assert evaluate_error(clf, data) == 0.0

    def test_duplicated_dataset_trains_identically(self):
        rng = make_rng(0, "dup")
        counts = rng.poisson(3.0, size=(40, 3))
        labels = (rng.random(40) < 0.5).astype(int)
        labels[:2] = [0, 1]
        single = batch_from(counts, labels)
        double = batch_from(np.vstack([counts, counts]),
                            np.concatenate([labels, labels]))
        w1 = train_logistic(single, TrainConfig(epochs=120)).weights
        w2 = train_logistic(double, TrainConfig(epochs=120)).weights
        # equal up to BLAS summation-order noise in the step-size estimate
        assert np.allclose(w1, w2, atol=1e-12)

    def test_missing_class_rejected(self):
        data = batch_from([[1], [2]], [1, 1])
        with pytest.raises(DegenerateDataError):
            train_logistic(data, TrainConfig())

    def test_delta_must_be_zero(self):
        data = batch_from([[1], [2]], [0, 1])
        with pytest.raises(ValueError):
            train_logistic(data, TrainConfig(dropout=DropoutConfig(delta=0.5)))

    def test_matches_analytic_direction_at_large_n(self):
        # trained error approaches the error of the log-probability-ratio
        # direction once both intercepts are recalibrated
        sampler = two_topic_sampler([8.0, 2.0], [2.0, 8.0])
        train = sample_documents(sampler, 2_000, make_rng(100, "train"))
        test = sample_documents(sampler, 100_000, make_rng(100, "test"))
        clf = recalibrate_intercept(
            train_logistic(train, TrainConfig(epochs=400, seed=5)), train)
        ref = recalibrate_intercept(
            LinearClassifier(weights=np.array([np.log(0.25), np.log(4.0)])),
            train)
        e_clf = evaluate_error(clf, test)
        e_ref = evaluate_error(ref, test)
        se = np.sqrt(e_clf * (1 - e_clf) / len(test))
        assert abs(e_clf - e_ref) <= 3 * 2 * se

    def test_accepts_document_lists(self):
        docs = [Document(counts=np.array([0]), label=0, topic_id=0, length=0),
                Document(counts=np.array([4]), label=1, topic_id=1, length=4)]
        clf = train_logistic(docs, TrainConfig(epochs=50))
        assert evaluate_error(clf, docs) == 0.0

    def test_minibatch_variant_trains(self):
        sampler = two_topic_sampler([8.0, 2.0], [2.0, 8.0])
        train = sample_documents(sampler, 500, make_rng(101, "mb"))
        clf = train_logistic(train, TrainConfig(epochs=40, batch_size=64,
                                                seed=3))
        assert evaluate_error(clf, train) < 0.2


class TestTrainLogisticDropout:
    @pytest.mark.parametrize("trainer", [train_logistic,
                                         train_logistic_dropout])
    def test_full_thinning_rejected(self, trainer):
        # delta = 1 would thin every count to zero and return zero weights
        data = batch_from([[1], [2]], [0, 1])
        cfg = TrainConfig(epochs=5, dropout=DropoutConfig(delta=1.0))
        with pytest.raises(ValueError, match="naive Bayes"):
            trainer(data, cfg)

    def test_minibatches_thin_through_the_shared_thinner(self, monkeypatch):
        drawn = []

        class Recording(classifiers.Thinner):
            def draw(self, rng):
                drawn.append(self.counts.shape)
                return super().draw(rng)

        monkeypatch.setattr(classifiers, "Thinner", Recording)
        sampler = two_topic_sampler([2.0, 1.0], [1.0, 2.0])
        train = sample_documents(sampler, 100, make_rng(105, "mb-thin"))
        cfg = TrainConfig(epochs=3, batch_size=40, seed=2,
                          dropout=DropoutConfig(delta=0.9, mc_replicates=2))
        train_logistic_dropout(train, cfg)
        # the pilot draw on the full set, then two draws per mini-batch
        assert drawn == [(100, 2)] + [(40, 2)] * 4 + [(20, 2)] * 2 \
            + [(40, 2)] * 4 + [(20, 2)] * 2 + [(40, 2)] * 4 + [(20, 2)] * 2

    def test_zero_rate_is_bit_identical_to_plain(self):
        sampler = two_topic_sampler([5.0, 1.0], [1.0, 5.0])
        train = sample_documents(sampler, 300, make_rng(102, "d0"))
        cfg = TrainConfig(epochs=80, seed=9, dropout=DropoutConfig(delta=0.0))
        a = train_logistic_dropout(train, cfg)
        b = train_logistic(train, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert a.intercept == b.intercept

    def test_same_seed_reproduces_exactly(self):
        sampler = two_topic_sampler([5.0, 1.0], [1.0, 5.0])
        train = sample_documents(sampler, 200, make_rng(103, "det"))
        cfg = TrainConfig(epochs=100, seed=7,
                          dropout=DropoutConfig(delta=0.5, mc_replicates=64))
        a = train_logistic_dropout(train, cfg)
        b = train_logistic_dropout(train, cfg)
        assert np.array_equal(a.weights, b.weights)

    def test_seed_sensitivity_is_within_noise(self):
        # different thinning noise, same data: test errors agree closely
        sampler = two_topic_sampler([8.0, 2.0], [2.0, 8.0])
        train = sample_documents(sampler, 200, make_rng(104, "seeds"))
        test = sample_documents(sampler, 50_000, make_rng(104, "seedtest"))
        errs = []
        for seed in (7, 8):
            cfg = TrainConfig(epochs=200, seed=seed,
                              dropout=DropoutConfig(delta=0.5,
                                                    mc_replicates=64))
            clf = recalibrate_intercept(
                train_logistic_dropout(train, cfg), train)
            errs.append(evaluate_error(clf, test))
        se = np.sqrt(errs[0] * (1 - errs[0]) / len(test))
        assert abs(errs[0] - errs[1]) <= 3 * 2 * se


class TestNaiveBayes:
    def test_class_swap_negates_parameters(self):
        rng = make_rng(105, "nb-sym")
        counts = rng.poisson(2.0, size=(60, 4))
        labels = (rng.random(60) < 0.4).astype(int)
        labels[:2] = [0, 1]
        data = batch_from(counts, labels)
        flipped = batch_from(counts, 1 - labels)
        a = train_naive_bayes(data, smoothing=1.0)
        b = train_naive_bayes(flipped, smoothing=1.0)
        assert np.allclose(a.weights, -b.weights, atol=1e-12)
        assert a.intercept == pytest.approx(-b.intercept, abs=1e-12)

    def test_recovers_word_probability_ratios(self):
        sampler = two_topic_sampler([8.0, 2.0], [2.0, 8.0])
        data = sample_documents(sampler, 10_000, make_rng(101, "nb"))
        clf = train_naive_bayes(data, smoothing=1.0)
        assert abs(clf.weights[0] - np.log(1.0 / 4.0)) < 0.1
        assert abs(clf.weights[1] - np.log(4.0)) < 0.1

    def test_smoothing_keeps_unseen_words_finite(self):
        data = batch_from([[3, 0], [0, 0]], [0, 1])  # word 1 never appears
        clf = train_naive_bayes(data, smoothing=0.5)
        assert np.all(np.isfinite(clf.weights))


class TestRecalibrateIntercept:
    def test_threshold_lands_in_separating_gap(self):
        data = batch_from([[1], [2], [8], [9]], [0, 0, 1, 1])
        clf = recalibrate_intercept(LinearClassifier(weights=np.array([1.0])),
                                    data)
        assert evaluate_error(clf, data) == 0.0
        assert -8.0 < clf.intercept < -2.0

    def test_optimal_intercept_error_unchanged(self):
        data = batch_from([[1], [2], [8], [9]], [0, 0, 1, 1])
        first = recalibrate_intercept(LinearClassifier(np.array([1.0])), data)
        second = recalibrate_intercept(first, data)
        assert evaluate_error(first, data) == evaluate_error(second, data)

    def test_scaling_weights_preserves_error(self):
        rng = make_rng(106, "recal")
        counts = rng.poisson(4.0, size=(50, 2))
        labels = (counts[:, 0] > counts[:, 1]).astype(int)
        data = batch_from(counts, labels)
        w = np.array([1.0, -1.0])
        e1 = evaluate_error(
            recalibrate_intercept(LinearClassifier(w), data), data)
        e2 = evaluate_error(
            recalibrate_intercept(LinearClassifier(3.7 * w), data), data)
        assert e1 == e2

    def test_empty_data_rejected(self):
        with pytest.raises(EmptyDataError):
            recalibrate_intercept(LinearClassifier(np.array([1.0])), [])


class TestZeroOneOracle:
    def test_separable_two_dimensional(self):
        rng = make_rng(107, "erm")
        a = rng.normal(loc=[2, 0], scale=0.3, size=(30, 2))
        b = rng.normal(loc=[0, 2], scale=0.3, size=(30, 2))
        counts = np.rint(np.abs(np.vstack([a, b])) * 10).astype(int)
        labels = np.array([0] * 30 + [1] * 30)
        clf = erm_zero_one_small(batch_from(counts, labels), resolution=360)
        assert evaluate_error(clf, batch_from(counts, labels)) == 0.0

    def test_dominates_logistic_training_error(self):
        sampler = two_topic_sampler([8.0, 2.0], [2.0, 8.0])
        train = sample_documents(sampler, 500, make_rng(100, "erm-dom"))
        erm = erm_zero_one_small(train, resolution=720)
        logistic = recalibrate_intercept(
            train_logistic(train, TrainConfig(epochs=400)), train)
        slack = 2.0 * np.pi / 720 + 1.0 / len(train)
        assert evaluate_error(erm, train) <= \
            evaluate_error(logistic, train) + slack

    def test_constant_labels_get_zero_error(self):
        data = batch_from([[1], [5], [9]], [1, 1, 1])
        clf = erm_zero_one_small(data, resolution=16)
        assert evaluate_error(clf, data) == 0.0

    def test_dimension_limit(self):
        data = batch_from([[1, 2, 3, 4]], [0])
        with pytest.raises(DimensionError):
            erm_zero_one_small(data, resolution=8)

    def test_three_dimensional_separable(self):
        counts = [[9, 0, 0], [0, 9, 0], [0, 0, 9], [9, 9, 9]]
        labels = [0, 0, 1, 1]
        clf = erm_zero_one_small(batch_from(counts, labels), resolution=48)
        assert evaluate_error(clf, batch_from(counts, labels)) == 0.0


class TestEvaluateError:
    def test_perfect_classifier(self):
        data = batch_from([[0], [5]], [0, 1])
        clf = LinearClassifier(np.array([1.0]), intercept=-1.0)
        assert evaluate_error(clf, data) == 0.0

    def test_constant_classifier_on_balanced_data(self):
        sampler = two_topic_sampler([3.0], [3.0])
        data = sample_documents(sampler, 100_000, make_rng(108, "const"))
        err = evaluate_error(LinearClassifier(np.array([0.0])), data)
        assert abs(err - 0.5) <= 3.0 * np.sqrt(0.25 / len(data))

    def test_empty_data_rejected(self):
        with pytest.raises(EmptyDataError):
            evaluate_error(LinearClassifier(np.array([1.0])), [])

    def test_thinned_evaluation_measures_thinned_error_rate(self):
        # fixed rule on thinned counts: exact rate known for the z=2.5 score
        lam = np.array(two_word_intensity(2.5, 10.0))
        clf = LinearClassifier(weights=np.array([1.0, -1.0]))
        rng = make_rng(109, "thin-eval")
        counts = rng.poisson(lam, size=(1_000_000, 2))
        thinned = thin_counts(counts, 0.5, rng)
        data = batch_from(thinned, np.ones(len(thinned), dtype=int))
        err = evaluate_error(clf, data)
        se = np.sqrt(err * (1 - err) / len(thinned))
        # tight agreement with the exact thinned-score rate
        assert abs(err - EXACT_THINNED_RATE) <= 4 * se
        # Gaussian approximation agrees once its accuracy term is added
        be_slack = 4.0 * np.sqrt(0.01)
        assert abs(err - GAUSSIAN_THINNED_RATE) <= 3 * se + be_slack
