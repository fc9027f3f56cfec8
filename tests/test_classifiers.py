import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import expit
from scipy.stats import norm

from droplab import (DegenerateDataError, DropoutConfig, EmptyDataError,
                     LinearClassifier, TrainConfig, evaluate_error, make_rng,
                     recalibrate_intercept, sample_documents, thin_counts,
                     train_logistic, train_logistic_dropout, train_naive_bayes)
import droplab
from droplab import classifiers
from droplab.presets import two_word_intensity
from droplab.topics import (DocumentBatch, Topic, TopicModel,
                            build_synthetic_model)
from oracles import (DimensionError, erm_zero_one_small, mc_dropout_descent,
                     mc_thinned_gradient)

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
    return TopicModel(label_prior=prior, vocab_size=len(lam0), topics=(
        Topic(id=0, rho0=1.0, rho1=0.0, intensity=lam0),
        Topic(id=1, rho0=0.0, rho1=1.0, intensity=lam1)))


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
        # einsum sums each row on its own, so a row scores the same in any
        # slice of the matrix and as a lone vector
        rng = np.random.default_rng(30)
        clf = LinearClassifier(weights=rng.normal(size=500), intercept=-0.75)
        x = rng.poisson(2.0, size=(3145, 500))
        whole = clf.scores(x)
        blocks = np.concatenate([clf.scores(x[i:i + 1048])
                                 for i in range(0, len(x), 1048)])
        rows = np.concatenate([clf.scores(x[i:i + 1])
                               for i in range(len(x))])
        vectors = np.array([clf.scores(x[i]) for i in range(len(x))])
        assert np.array_equal(blocks, whole)
        assert np.array_equal(rows, whole)
        assert np.array_equal(vectors, whole)
        for dtype in (np.uint8, float):
            assert np.array_equal(clf.scores(x.astype(dtype)), whole)
        assert clf.scores(np.zeros((0, 500), dtype=np.int64)).shape == (0,)

    def test_scores_do_not_depend_on_blas_threads(self):
        # A multi-threaded gemv splits rows between threads by the matrix
        # size, so a row's last bit could depend on the row count and the
        # thread count: a whole 4,997-row product differed from 1,048-row
        # blocks at 2 threads, and 4 MB row blocks of the first 2,001 rows
        # differed between 1 and 2 threads.  Trained weights differed
        # between 1 and 2 threads too while the descent loop multiplied in
        # BLAS.  Each subprocess writes, per row count, the whole and the
        # blocked scores, all of which must be equal, then the weights
        # fit_classifier trains at each delta, which must not depend on the
        # thread count.
        code = """
import numpy as np
from droplab import (DropoutConfig, LinearClassifier, TrainConfig,
                     build_synthetic_model, fit_classifier, make_rng,
                     sample_documents)
rng = np.random.default_rng(31)
clf = LinearClassifier(weights=rng.normal(size=500), intercept=0.25)
x = rng.poisson(2.0, size=(4997, 500))
for n in (4997, 2001):
    blocks = np.concatenate([clf.scores(x[i:min(i + 1048, n)])
                             for i in range(0, n, 1048)])
    print(clf.scores(x[:n]).tobytes().hex(), blocks.tobytes().hex())
train = sample_documents(build_synthetic_model(), 3000, make_rng(0, "train"))
for delta in (0.0, 0.5):
    cfg = TrainConfig(epochs=30, dropout=DropoutConfig(delta, 2))
    print(fit_classifier(train, cfg).weights.tobytes().hex())
"""
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [str(Path(droplab.__file__).parents[1])]
                           + os.environ.get("PYTHONPATH", "").split(
                               os.pathsep)))
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, timeout=120)
            assert out.returncode == 0, out.stderr
            runs.append([line.split() for line in out.stdout.splitlines()])
        for n, one, two in zip((4997, 2001), *runs):
            assert len(set(one + two)) == 1, f"{n} rows"
        for delta, one, two in zip((0.0, 0.5), *(run[2:] for run in runs)):
            assert one == two, f"weights at delta {delta}"

    def test_weights_must_be_a_vector(self):
        with pytest.raises(ValueError, match="vector"):
            LinearClassifier(weights=np.ones((2, 2)))

    @pytest.mark.parametrize("doc, key", [
        ({"intercept": 0.0}, "weights"),
        ({"weights": [1.0]}, "intercept"),
        ({"weights": 5, "intercept": 0.0}, "weights"),
        ({"weights": [1.0], "intercept": [2]}, "intercept"),
        ({"weights": [[1.0], [2.0, 3.0]], "intercept": 0.0}, "weights"),
        ([1.0], "weights"),
        ({"weights": [], "intercept": 0.5}, "weights"),
    ])
    def test_from_dict_names_the_bad_key(self, doc, key):
        with pytest.raises(ValueError, match=key):
            LinearClassifier.from_dict(doc)

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

    @pytest.mark.parametrize("field", ["l2_weight", "step_size"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rates_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TrainConfig(**{field: value})


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
        # equal up to summation-order noise in the step-size estimate
        assert np.allclose(w1, w2, atol=1e-12)

    def test_missing_class_rejected(self):
        data = batch_from([[1], [2]], [1, 1])
        with pytest.raises(DegenerateDataError):
            train_logistic(data, TrainConfig())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("delta", [0.0, 0.5, 1.0])
    def test_no_count_columns_rejected(self, delta):
        # every trainer once returned empty weights here, and the logistic
        # ones warned "divide by zero" while sizing the step
        data = batch_from(np.zeros((4, 0)), [0, 1, 0, 1])
        cfg = TrainConfig(dropout=DropoutConfig(delta=delta))
        train = {0.0: train_logistic, 0.5: train_logistic_dropout,
                 1.0: lambda d, _: train_naive_bayes(d, smoothing=1.0)}[delta]
        with pytest.raises(EmptyDataError, match="no count columns"):
            train(data, cfg)

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
            train_logistic(train, TrainConfig(epochs=400)), train)
        ref = recalibrate_intercept(
            LinearClassifier(weights=np.array([np.log(0.25), np.log(4.0)])),
            train)
        e_clf = evaluate_error(clf, test)
        e_ref = evaluate_error(ref, test)
        se = np.sqrt(e_clf * (1 - e_clf) / len(test))
        assert abs(e_clf - e_ref) <= 3 * 2 * se

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_divergence_names_the_step(self, delta, recwarn):
        sampler = two_topic_sampler([8.0, 2.0], [2.0, 8.0])
        train = sample_documents(sampler, 200, make_rng(102, "diverge"))
        cfg = TrainConfig(step_size=1e9, epochs=400,
                          dropout=DropoutConfig(delta=delta))
        with pytest.raises(ValueError, match="diverged at step size 1e\\+09"):
            train_logistic_dropout(train, cfg)
        assert not [w for w in recwarn if "overflow" in str(w.message)]


class TestTrainLogisticDropout:
    @pytest.mark.parametrize("trainer", [train_logistic,
                                         train_logistic_dropout])
    def test_full_thinning_rejected(self, trainer):
        # delta = 1 would thin every count to zero and return zero weights
        data = batch_from([[1], [2]], [0, 1])
        cfg = TrainConfig(epochs=5, dropout=DropoutConfig(delta=1.0))
        with pytest.raises(ValueError, match="naive Bayes"):
            trainer(data, cfg)

    def test_descent_draws_no_thinning(self, monkeypatch):
        # a thinning draw of these counts would call rng.binomial
        sampler = two_topic_sampler([20.0, 10.0], [10.0, 20.0])
        train = sample_documents(sampler, 100, make_rng(105, "no-draws"))

        class NoDraws(np.random.Generator):
            def binomial(self, *args, **kwargs):
                raise AssertionError("the dropout trainer drew a thinning")

            geometric = binomial

        monkeypatch.setattr(np.random, "Generator", NoDraws)
        with pytest.raises(AssertionError):  # make_rng now builds NoDraws
            make_rng(0, "no-draws").binomial(3, 0.5)
        for delta in (0.5, 0.9):
            cfg = TrainConfig(epochs=3, dropout=DropoutConfig(delta=delta))
            train_logistic_dropout(train, cfg)

    def test_zero_rate_is_bit_identical_to_plain(self):
        sampler = two_topic_sampler([5.0, 1.0], [1.0, 5.0])
        train = sample_documents(sampler, 300, make_rng(102, "d0"))
        cfg = TrainConfig(epochs=80, dropout=DropoutConfig(delta=0.0))
        a = train_logistic_dropout(train, cfg)
        b = train_logistic(train, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert a.intercept == b.intercept

    def test_same_seed_reproduces_exactly(self):
        sampler = two_topic_sampler([5.0, 1.0], [1.0, 5.0])
        train = sample_documents(sampler, 200, make_rng(103, "det"))
        cfg = TrainConfig(epochs=100, dropout=DropoutConfig(delta=0.5))
        a = train_logistic_dropout(train, cfg)
        b = train_logistic_dropout(train, cfg)
        assert np.array_equal(a.weights, b.weights)

    def test_seed_sensitivity_is_within_noise(self):
        # the Monte Carlo gradient at two seeds and its Gaussian expectation
        # give test errors that agree within sampling noise
        sampler = two_topic_sampler([8.0, 2.0], [2.0, 8.0])
        train = sample_documents(sampler, 200, make_rng(104, "seeds"))
        test = sample_documents(sampler, 50_000, make_rng(104, "seedtest"))
        step = 0.1
        fits = [mc_dropout_descent(train, 0.5, step, 200, 64,
                                   make_rng(seed, "mc-descent"))
                for seed in (7, 8)]
        cfg = TrainConfig(epochs=200, step_size=step,
                          dropout=DropoutConfig(delta=0.5))
        fits.append(train_logistic_dropout(train, cfg))
        errs = [evaluate_error(recalibrate_intercept(clf, train), test)
                for clf in fits]
        se = np.sqrt(errs[0] * (1 - errs[0]) / len(test))
        assert max(errs) - min(errs) <= 3 * 2 * se


class TestExpectedThinnedGradient:
    @pytest.mark.parametrize("delta", [0.5, 0.95])
    def test_within_monte_carlo_noise(self, delta):
        # along w (where the variance term acts) and along the all-ones
        # direction, the Gauss-Hermite gradient lies within 4 standard
        # errors of the mean of 100 Monte Carlo thinned gradients
        data = sample_documents(build_synthetic_model(), 200,
                                make_rng(106, "gh-grad"))
        x, y = data.counts, data.labels.astype(float)
        w = 0.5 * train_naive_bayes(data, smoothing=1.0).weights
        rng = make_rng(107, "mc-grad", delta)
        mc = np.array([mc_thinned_gradient(x, y, w, delta, rng)
                       for _ in range(100)])
        gh = classifiers._expected_thinned_gradient(x.astype(float), y, w,
                                                    delta)
        for u in (w, np.ones_like(w)):
            proj = mc @ u
            se = np.std(proj, ddof=1) / np.sqrt(len(proj))
            assert abs(gh @ u - np.mean(proj)) <= 4 * se

    def test_nodes_match_quadrature(self):
        # E[sigmoid(mu + s z)] and E[sigmoid'(mu + s z)], z standard normal:
        # the 8-node rule is within 1e-6 of quad up to s = 0.7, and its
        # error grows to 3.1e-4 at s = 1.5, about the largest thinned-score
        # sd that fits at delta 0.9 and 0.95 meet
        assert len(classifiers._GH_NODES) == 8
        for mu in (-3.0, -1.0, 0.0, 0.5, 2.0):
            for s, tol in ((0.1, 1e-6), (0.4, 1e-6), (0.7, 1e-6),
                           (1.0, 2e-5), (1.5, 4e-4)):
                p = classifiers._sigmoid(mu + s * classifiers._GH_NODES)
                for f, rule in ((expit, p), (lambda t: expit(t) * expit(-t),
                                             p * (1.0 - p))):
                    exact = quad(lambda z: f(mu + s * z) * norm.pdf(z),
                                 -np.inf, np.inf, epsabs=1e-13)[0]
                    assert abs(rule @ classifiers._GH_WEIGHTS - exact) <= tol


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
            recalibrate_intercept(LinearClassifier(np.array([1.0])),
                                  batch_from(np.zeros((0, 1)), []))

    @staticmethod
    def loop_intercept(clf, data):
        """The candidate scan as a Python loop, one threshold at a time."""
        s = clf.scores(data.counts)  # clf.intercept is 0
        u, inverse = np.unique(s, return_inverse=True)
        cum1 = np.cumsum(np.bincount(inverse, weights=(data.labels == 1),
                                     minlength=len(u)))
        cum0 = np.cumsum(np.bincount(inverse, weights=(data.labels == 0),
                                     minlength=len(u)))
        thresholds, errors = [u[0] - 1.0], [cum0[-1]]
        for i in range(len(u) - 1):
            thresholds.append(0.5 * (u[i] + u[i + 1]))
            errors.append(cum1[i] + (cum0[-1] - cum0[i]))
        thresholds.append(u[-1] + 1.0)
        errors.append(cum1[-1])
        best = min(range(len(thresholds)),
                   key=lambda i: (errors[i], abs(thresholds[i]),
                                  -thresholds[i]))
        return -thresholds[best]

    def test_vectorised_scan_matches_the_loop_bit_for_bit(self):
        rng = make_rng(110, "recal-loop")
        for _ in range(300):
            n, d = int(rng.integers(1, 40)), int(rng.integers(1, 4))
            # few distinct small scores, so error and |threshold| ties occur
            counts = rng.integers(0, 4, size=(n, d))
            labels = rng.integers(0, 2, size=n)
            w = rng.integers(-2, 3, size=d).astype(float)
            if rng.random() < 0.5:
                w = w + rng.normal(size=d)
            clf, data = LinearClassifier(w), batch_from(counts, labels)
            got = recalibrate_intercept(clf, data).intercept
            assert got == self.loop_intercept(clf, data)


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
            evaluate_error(LinearClassifier(np.array([1.0])),
                           batch_from(np.zeros((0, 1)), []))

    @pytest.mark.parametrize("data", [[], (), np.zeros((2, 1)),
                                      {"counts": [[1]], "labels": [0]}])
    def test_only_a_document_batch_is_data(self, data):
        with pytest.raises(TypeError, match="DocumentBatch"):
            evaluate_error(LinearClassifier(np.array([1.0])), data)

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
