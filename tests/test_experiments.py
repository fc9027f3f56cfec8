import os
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import skellam

from droplab import (CurveSpec, DocumentBatch, DropoutConfig, Topic,
                     TopicModel, TrainConfig, bayes_posterior,
                     berry_esseen_statistic, build_synthetic_model,
                     curve_csv, curve_summary, dropout_posterior,
                     evaluate_error, fit_classifier, make_rng,
                     recalibrate_intercept, run_altitude_sweep,
                     run_bias_check, run_influence_demo, run_learning_curves,
                     sample_documents, train_logistic,
                     train_logistic_dropout, train_naive_bayes)
from droplab import experiments, topics
from droplab.experiments import (CurveResult, SweepConfig,
                                 influence_demo_model)
from droplab.presets import (default_sweep_configs, equal_length_models,
                             two_word_intensity, unequal_length_control)
from droplab.topics import SYNTHETIC_PARAMS
from oracles import (altitude_sweep_errors_one_draw, learning_curves_joined,
                     traced_peak_mib)

UNEQUAL_CONTROL_GAP = 0.10859924742815032  # posterior shift at count 0


class TestBiasCheck:
    def test_equal_length_models_preserve_posteriors(self):
        for model in equal_length_models():
            rep = run_bias_check(model, (0.25, 0.5, 0.9), v_budget=6)
            assert rep.equal_length
            assert all(g <= 1e-10 for g in rep.max_gap.values())

    def test_zero_rate_gap_is_zero(self):
        rep = run_bias_check(equal_length_models()[0], (0.0,), v_budget=4)
        assert rep.max_gap[0.0] == 0.0

    def test_unequal_length_control_shows_gap(self):
        rep = run_bias_check(unequal_length_control(), (0.5,), v_budget=6)
        assert not rep.equal_length
        assert rep.max_gap[0.5] >= 0.05
        # the gap at the empty document alone already exceeds the threshold
        assert rep.max_gap[0.5] >= UNEQUAL_CONTROL_GAP - 1e-12

    def test_matches_per_vector_loop(self):
        # reference: one posterior pair per count vector, first strict max
        for model in equal_length_models() + [unequal_length_control()]:
            rep = run_bias_check(model, (0.25, 0.5, 0.9), v_budget=6)
            grid = experiments.enumerate_counts(model.vocab_size, 6)
            for delta in (0.25, 0.5, 0.9):
                gap, arg = -1.0, None
                for v in grid:
                    g = abs(dropout_posterior(model, delta, v)
                            - bayes_posterior(model, v))
                    if g > gap:
                        gap, arg = g, tuple(int(c) for c in v)
                assert rep.max_gap[delta] == gap
                assert rep.worst_vector[delta] == arg


class TestAltitudeSweep:
    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_is_rejected(self, budget):
        with pytest.raises(ValueError, match=f"mc_budget must be >= 1, "
                                             f"got {budget}"):
            run_altitude_sweep(default_sweep_configs(), mc_budget=budget,
                               master_seed=0)

    def test_unthinned_control_has_unit_exponent(self):
        cfg = SweepConfig(weights=(1.0, -1.0),
                          intensity=two_word_intensity(2.5, 10.0), delta=0.0)
        res = run_altitude_sweep([cfg], mc_budget=50_000, master_seed=1)[0]
        assert res.exponent == 1.0
        assert res.eps == res.eps_thinned

    def test_low_concentration_bound_is_sound(self):
        cfg = SweepConfig(weights=(1.0, -1.0),
                          intensity=two_word_intensity(2.5, 100.0), delta=0.5)
        res = run_altitude_sweep([cfg], mc_budget=1_000_000, master_seed=2)[0]
        assert not res.bound.vacuous
        assert res.bound_holds
        assert res.eps < res.eps_thinned

    def test_high_concentration_bound_is_vacuous(self):
        cfg = SweepConfig(weights=(1.0, -1.0),
                          intensity=two_word_intensity(2.5, 10.0), delta=0.5)
        res = run_altitude_sweep([cfg], mc_budget=100_000, master_seed=3)[0]
        assert res.bound.vacuous
        assert res.bound.value == np.inf and res.bound_holds

    def test_longer_documents_shrink_error_and_concentration(self):
        configs = default_sweep_configs()
        res = run_altitude_sweep(configs[1:3], mc_budget=500_000,
                                 master_seed=4)
        base, scaled = res
        assert (berry_esseen_statistic(scaled.config.weights,
                                       scaled.config.intensity)
                < berry_esseen_statistic(base.config.weights,
                                         base.config.intensity))
        assert scaled.eps < base.eps
        assert scaled.bound_holds and base.bound_holds

    @pytest.mark.parametrize("intensity", [
        pytest.param(two_word_intensity(2.5, 10.0), id="intensity0"),
        pytest.param((0.8, 0.2), id="intensity1"),
        pytest.param((300.0, 280.0), id="intensity2")])
    def test_row_blocks_equal_one_draw(self, monkeypatch, intensity):
        # 150,000 documents: 19 blocks of the default 8,192 rows, or 215 of
        # 700, the last one ragged either way; the kept and the dropped
        # words of every block come from their own streams, so the counts
        # equal those of one rng.poisson call per stream.  At (300, 280)
        # the kept and dropped counts are uint8 and their sums are not.
        cfg = SweepConfig(weights=(1.0, -1.0), intensity=intensity, delta=0.5)
        want = altitude_sweep_errors_one_draw(
            cfg, 150_000, make_rng(6, "altitude-sweep", 0),
            make_rng(6, "altitude-sweep-dropped", 0))
        for rows in (topics._POISSON_ROWS, 700):
            monkeypatch.setattr(topics, "_POISSON_ROWS", rows)
            res = run_altitude_sweep([cfg], mc_budget=150_000,
                                     master_seed=6)[0]
            assert (res.eps, res.eps_thinned) == (want[0] / 150_000,
                                                  want[1] / 150_000)

    def test_rates_match_the_exact_skellam_law(self):
        # (62.5, 37.5) at delta = 0.5: x1 - x2 is Skellam, raw and thinned
        # (intensities halved by closure); exact eps 6.7683973519e-3 and
        # eps_thinned 4.3627118658e-2
        cfg = default_sweep_configs()[0]
        n = 1_000_000
        res = run_altitude_sweep([cfg], mc_budget=n, master_seed=10)[0]
        lam = np.array(cfg.intensity)
        for got, rates in ((res.eps, lam), (res.eps_thinned, 0.5 * lam)):
            p = float(skellam.cdf(0, *rates))
            assert abs(got - p) <= 4.0 * np.sqrt(p * (1.0 - p) / n)

    def test_peak_memory_at_a_million_documents(self):
        # one 8,192-row block of kept and of dropped counts at a time:
        # 0.36 MiB, where the sweep that held a whole million-document
        # chunk before thinning it peaked at 4.9 MiB
        peak = traced_peak_mib(lambda: run_altitude_sweep(
            default_sweep_configs()[:1], mc_budget=1_000_000, master_seed=3))
        assert peak <= 25.0

    def test_results_do_not_depend_on_cpu_count(self, monkeypatch):
        # 5,000 documents per config in 700-row blocks, the last ragged
        monkeypatch.setattr(topics, "_POISSON_ROWS", 700)
        configs = default_sweep_configs()
        runs = []
        for cpus in ({0}, {0, 1, 2, 3}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                                raising=False)
            runs.append(run_altitude_sweep(configs, mc_budget=5_000,
                                           master_seed=8))
        assert repr(runs[0]) == repr(runs[1])  # repr: nan exponents match
        for k, (cfg, res) in enumerate(zip(configs, runs[1])):
            wrong, wrong_thin = altitude_sweep_errors_one_draw(
                cfg, 5_000, make_rng(8, "altitude-sweep", k),
                make_rng(8, "altitude-sweep-dropped", k))
            assert res.eps == wrong / 5_000
            assert res.eps_thinned == wrong_thin / 5_000

    def test_peak_memory_of_the_default_sweep_on_two_cpus(self, monkeypatch):
        # two configs at a time, each holding one row block of kept and of
        # dropped counts: 0.81 MiB, where holding each config's chunk of
        # narrowed counts before thinning it peaked at 11.8 MiB
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        peak = traced_peak_mib(lambda: run_altitude_sweep(
            default_sweep_configs(), mc_budget=1_000_000, master_seed=0))
        assert peak <= 16.0

    @pytest.mark.parametrize("delta", [1.0, 1.5, -0.1])
    def test_delta_outside_unit_interval_is_rejected_before_any_draw(
            self, monkeypatch, delta):
        def no_draw(*args):
            raise AssertionError("_sweep_errors ran before validation")

        monkeypatch.setattr(experiments, "_sweep_errors", no_draw)
        configs = default_sweep_configs()
        configs[2] = replace(configs[2], delta=delta)
        with pytest.raises(ValueError, match=rf"sweep config 2: delta must "
                                             rf"lie in \[0, 1\), got {delta}"):
            run_altitude_sweep(configs, mc_budget=3_000_000, master_seed=0)

    def test_positive_mean_required(self):
        cfg = SweepConfig(weights=(1.0, -1.0), intensity=(1.0, 5.0),
                          delta=0.5)
        with pytest.raises(ValueError, match=r"^sweep config 1: score mean "
                                             r"must be positive, got -4$"):
            run_altitude_sweep([default_sweep_configs()[0], cfg],
                               mc_budget=100, master_seed=0)


class TestFitClassifier:
    @staticmethod
    def data():
        return sample_documents(equal_length_models()[0], 200,
                                make_rng(3, "fit"))

    @pytest.mark.parametrize("delta", [0.0, 0.5, 1.0])
    def test_dispatches_by_delta_and_recalibrates(self, delta):
        train = self.data()
        cfg = TrainConfig(epochs=30, dropout=DropoutConfig(delta=delta))
        if delta == 1.0:
            raw = train_naive_bayes(train, smoothing=0.5)
        elif delta == 0.0:
            raw = train_logistic(train, cfg)
        else:
            raw = train_logistic_dropout(train, cfg)
        want = recalibrate_intercept(raw, train)
        got = fit_classifier(train, cfg, nb_smoothing=0.5)
        assert np.array_equal(got.weights, want.weights)
        assert got.intercept == want.intercept

    @pytest.mark.parametrize("delta, trainer", [
        (0.0, "train_logistic"), (0.5, "train_logistic_dropout"),
        (1.0, "train_naive_bayes")])
    def test_calls_the_module_level_names(self, monkeypatch, delta, trainer):
        # a tracer that rebinds experiments' names must see every call
        seen = []
        for name in ("train_logistic", "train_logistic_dropout",
                     "train_naive_bayes", "recalibrate_intercept"):
            original = getattr(experiments, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                seen.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(experiments, name, spy)
        cfg = TrainConfig(epochs=5, dropout=DropoutConfig(delta=delta))
        experiments.fit_classifier(self.data(), cfg)
        assert seen == [trainer, "recalibrate_intercept"]


def tiny_spec(**overrides) -> CurveSpec:
    base = dict(
        sampler=build_synthetic_model(),
        n_grid=(40, 80),
        delta_grid=(0.0, 0.5, 1.0),
        trials=2,
        test_size=1_500,
        train_cfg=TrainConfig(epochs=40),
        master_seed=11,
    )
    base.update(overrides)
    return CurveSpec(**base)


def captured_test_sets(monkeypatch, spec: CurveSpec, threads: int) -> dict:
    """Each trial's test set as run_learning_curves draws it, the chunks of
    its blocks joined here in block and chunk order."""
    seen = {}
    block_chunks = experiments._test_block_chunks

    def spy(spec, trial, block):
        seen[(trial, block)] = chunks = []
        for chunk in block_chunks(spec, trial, block):
            chunks.append(chunk)
            yield chunk

    monkeypatch.setattr(experiments, "_test_block_chunks", spy)
    run_learning_curves(spec, threads=threads)
    joined = {}
    for trial in sorted({t for t, _ in seen}):
        parts = [c for k in sorted(seen) if k[0] == trial for c in seen[k]]
        joined[trial] = DocumentBatch(
            **{f: np.concatenate([getattr(p, f) for p in parts])
               for f in ("counts", "labels", "topics")})
    return joined


class TestCurveSpec:
    def test_preset_header_names_the_sampler(self):
        # tiny_spec sets no sampler_name: the preset names itself
        config = tiny_spec().describe()
        assert config["model"] == "synthetic-sec6"
        assert config["model_params"] == SYNTHETIC_PARAMS

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_spec(n_grid=())
        with pytest.raises(ValueError):
            tiny_spec(trials=0)
        with pytest.raises(ValueError):
            tiny_spec(delta_grid=(0.0, 1.5))

    @pytest.mark.parametrize("grids, message", [
        ({"n_grid": (40, 80, 40)}, "n_grid repeats the value 40"),
        ({"delta_grid": (0.5, 1.0, 0.5)}, "delta_grid repeats the value 0.5"),
        # equal, though not the same float
        ({"delta_grid": (0.0, -0.0)}, "delta_grid repeats the value 0"),
    ])
    def test_repeated_grid_value_rejected(self, grids, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            tiny_spec(**grids)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -2$"):
            tiny_spec(master_seed=-2)


class TestLearningCurves:
    def test_rerun_is_identical(self):
        a = run_learning_curves(tiny_spec(), threads=1)
        b = run_learning_curves(tiny_spec(), threads=1)
        assert curve_csv(a) == curve_csv(b)

    def test_threads_below_one_rejected(self):
        for threads in (0, -3):
            with pytest.raises(ValueError, match="threads must be >= 1"):
                run_learning_curves(tiny_spec(), threads=threads)

    def test_blocked_test_set_does_not_depend_on_threads(self, monkeypatch):
        # a ragged last block: two full blocks and 3 rows
        spec = tiny_spec(n_grid=(40,), delta_grid=(1.0,), trials=1,
                         test_size=2 * experiments._TEST_BLOCK_ROWS + 3)
        sets = [captured_test_sets(monkeypatch, spec, threads)[0]
                for threads in (1, 2, 4)]
        assert len(sets[0]) == spec.test_size
        assert sets[0].counts.dtype == np.uint8
        for other in sets[1:]:
            for field in ("counts", "labels", "topics"):
                a, b = getattr(sets[0], field), getattr(other, field)
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()

    def test_prefetched_trials_do_not_depend_on_threads(self):
        spec = tiny_spec(trials=3,
                         test_size=experiments._TEST_BLOCK_ROWS + 100)
        a = run_learning_curves(spec, threads=1)
        b = run_learning_curves(spec, threads=3)
        assert ([replace(r, wall_time_ms=0.0) for r in a.records]
                == [replace(r, wall_time_ms=0.0) for r in b.records])

    @pytest.mark.parametrize("threads", [1, 3])
    def test_threads_bound_the_threads_that_fit_and_score(self, monkeypatch,
                                                          threads):
        # threads=1 fits every cell and scores every block on the calling
        # thread, starting none; at 3, no more than 3 threads run either
        seen = {}
        for name in ("_fit_cell", "_score_block"):
            original = getattr(experiments, name)

            def spy(*args, _name=name, _original=original):
                seen.setdefault(_name, set()).add(threading.get_ident())
                return _original(*args)

            monkeypatch.setattr(experiments, name, spy)
        spec = tiny_spec(trials=3,
                         test_size=2 * experiments._TEST_BLOCK_ROWS + 3)
        run_learning_curves(spec, threads=threads)
        assert set(seen) == {"_fit_cell", "_score_block"}
        if threads == 1:
            assert all(ids == {threading.get_ident()}
                       for ids in seen.values())
        assert all(len(ids) <= threads for ids in seen.values())

    def test_fit_order_does_not_leak_into_outputs(self):
        # the largest n fits first; records still come in each grid's own
        # order, and a cell's record does not depend on where its n stands
        runs = {grid: run_learning_curves(tiny_spec(n_grid=grid),
                                          threads=2).records
                for grid in ((80, 40), (40, 80))}
        for grid, records in runs.items():
            assert [(r.n, r.delta, r.trial) for r in records] == [
                (n, delta, t) for n in grid for delta in (0.0, 0.5, 1.0)
                for t in range(2)]
        by_cell = {(r.n, r.delta, r.trial): replace(r, wall_time_ms=0.0)
                   for r in runs[40, 80]}
        assert (repr([replace(r, wall_time_ms=0.0) for r in runs[80, 40]])
                == repr([by_cell[r.n, r.delta, r.trial]
                         for r in runs[80, 40]]))

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_block_scoring_equals_the_joined_test_set(self, threads):
        # three trials of cells and blocks, which the pool runs in another
        # order at each size; a ragged last block; n = 1 draws one class,
        # so those cells fail
        spec = tiny_spec(n_grid=(1, 40), trials=3,
                         test_size=2 * experiments._TEST_BLOCK_ROWS + 37)
        got = [replace(r, wall_time_ms=0.0)
               for r in run_learning_curves(spec, threads=threads).records]
        want = learning_curves_joined(spec)
        assert repr(got) == repr(want)  # repr: bit-exact floats, nan == nan
        assert any(r.note.startswith("DegenerateDataError") for r in got)
        assert all(np.isnan(r.test_error) == bool(r.note) for r in got)

    def test_errors_other_than_value_errors_propagate(self, monkeypatch):
        # a ValueError fails its cell; anything else stops the grid, from a
        # cell's fit or from a test block
        fit = experiments.fit_classifier

        def fit_or_break(train, cfg, nb_smoothing):
            if len(train) == 80 and cfg.dropout.delta == 0.5:
                raise RuntimeError("broken fit")
            return fit(train, cfg, nb_smoothing=nb_smoothing)

        monkeypatch.setattr(experiments, "fit_classifier", fit_or_break)
        with pytest.raises(RuntimeError, match="^broken fit$"):
            run_learning_curves(tiny_spec(), threads=2)
        monkeypatch.setattr(experiments, "fit_classifier", fit)

        def broken_block(spec, trial, block):
            raise RuntimeError("broken block")
            yield

        monkeypatch.setattr(experiments, "_test_block_chunks", broken_block)
        with pytest.raises(RuntimeError, match="^broken block$"):
            run_learning_curves(tiny_spec(), threads=2)

    def test_value_error_drawing_a_test_block_stops_the_grid(self,
                                                            monkeypatch):
        # only a chunk that cannot be scored fails the cells; a draw that
        # raises, even a ValueError, is not a cell's note
        block_chunks = experiments._test_block_chunks

        def broken_draw(spec, trial, block):
            chunks = block_chunks(spec, trial, block)
            yield next(chunks)
            raise ValueError("broken draw")

        monkeypatch.setattr(experiments, "_test_block_chunks", broken_draw)
        with pytest.raises(ValueError, match="^broken draw$"):
            run_learning_curves(tiny_spec(), threads=2)

    def test_peak_memory_does_not_grow_with_the_test_set(self):
        # each block is scored chunk by chunk as it is drawn; holding the
        # blocks would add 3.9 MiB of uint8 counts per 8,192-row block
        def peak(blocks):
            spec = tiny_spec(n_grid=(40,), delta_grid=(0.0, 1.0), trials=1,
                             test_size=blocks * experiments._TEST_BLOCK_ROWS)
            return traced_peak_mib(lambda: run_learning_curves(spec,
                                                               threads=2))

        assert peak(8) <= peak(2) + 1.0

    def test_failed_scoring_is_recorded_like_a_failed_fit(self, monkeypatch):
        # test chunks one word short of the training sets: every cell that
        # fits fails on its first chunk of every block, with one message;
        # n = 1 draws one class, so those cells keep their fit's note
        block_chunks = experiments._test_block_chunks

        def short_chunks(spec, trial, block):
            for chunk in block_chunks(spec, trial, block):
                yield replace(chunk, counts=chunk.counts[:, 1:])

        monkeypatch.setattr(experiments, "_test_block_chunks", short_chunks)
        spec = tiny_spec(n_grid=(1, 40, 80),
                         test_size=experiments._TEST_BLOCK_ROWS + 5)
        res = run_learning_curves(spec, threads=2)
        d = SYNTHETIC_PARAMS["vocab_size"]
        assert len(res.records) == 18
        for r in res.records:
            if r.n == 1:
                assert r.note.startswith("DegenerateDataError: ")
            else:
                assert r.note == (f"ValueError: test documents have {d - 1} "
                                  f"counts per row but the rules have {d} "
                                  f"weights")
            assert np.isnan(r.test_error) and np.isnan(r.train_error)

    def test_synthetic_test_counts_are_uint8(self, monkeypatch):
        spec = tiny_spec(n_grid=(40,), delta_grid=(1.0,))
        sets = captured_test_sets(monkeypatch, spec, 2)
        assert [t.counts.dtype for t in sets.values()] == [np.uint8] * 2

    def test_wide_counts_are_uint16_and_score_like_int64(self, monkeypatch):
        # about 300 expected counts on one word: past uint8's 255
        model = TopicModel(label_prior=0.5, vocab_size=3, topics=(
            Topic(id=0, rho0=1.0, rho1=0.0,
                  intensity=np.array([300.0, 20.0, 5.0])),
            Topic(id=1, rho0=0.0, rho1=1.0,
                  intensity=np.array([280.0, 30.0, 5.0]))))
        spec = tiny_spec(sampler=model, n_grid=(200,),
                         delta_grid=(0.0,), trials=1, test_size=3_000)
        test = captured_test_sets(monkeypatch, spec, 1)[0]
        assert test.counts.dtype == np.uint16
        wide = replace(test, counts=test.counts.astype(np.int64))
        clf = fit_classifier(
            sample_documents(spec.sampler, 200, make_rng(5, "wide")),
            TrainConfig(epochs=40))
        assert (clf.scores(test.counts).tobytes()
                == clf.scores(wide.counts).tobytes())
        assert evaluate_error(clf, test) == evaluate_error(clf, wide)

    def test_cells_are_independent_of_grid(self):
        full = run_learning_curves(tiny_spec(), threads=1)
        subset = run_learning_curves(tiny_spec(n_grid=(80,),
                                               delta_grid=(0.5,)), threads=1)
        wanted = {(r.n, r.delta, r.trial): r for r in full.records
                  if r.n == 80 and r.delta == 0.5}
        for r in subset.records:
            ref = wanted[(r.n, r.delta, r.trial)]
            assert r.test_error == ref.test_error
            assert r.seed == ref.seed

    def test_summary_is_order_independent(self):
        res = run_learning_curves(tiny_spec(), threads=1)
        reversed_result = CurveResult(spec=res.spec,
                                      records=tuple(reversed(res.records)))
        assert curve_summary(res) == curve_summary(reversed_result)

    def test_naive_bayes_endpoint_runs(self):
        res = run_learning_curves(tiny_spec(delta_grid=(1.0,)), threads=1)
        assert all(np.isfinite(r.test_error) for r in res.records)

    def test_csv_timing_column_defaults_to_zero(self):
        res = run_learning_curves(tiny_spec(), threads=1)
        rows = [l for l in curve_csv(res).splitlines()
                if l and not l.startswith("#")][1:]
        assert all(row.split(",")[5] == "0" for row in rows)
        timed = [l for l in curve_csv(res, include_timing=True).splitlines()
                 if l and not l.startswith("#")][1:]
        assert any(row.split(",")[5] != "0" for row in timed)

    def test_failed_cells_are_recorded_not_fatal(self):
        # a 2-document training draw can miss a class; the harness
        # records the cell failure and keeps going
        spec = tiny_spec(n_grid=(2,), delta_grid=(0.0,), trials=2,
                         test_size=200)
        res = run_learning_curves(spec, threads=1)
        assert len(res.records) == 2
        for r in res.records:
            assert (r.note == "") == np.isfinite(r.test_error)


@pytest.fixture(scope="module")
def influence_report():
    return run_influence_demo(delta=0.75, n=10_000, master_seed=0)


class TestInfluenceDemo:
    def test_no_thinning_returns_identical_classifiers(self):
        rep = run_influence_demo(delta=0.0, n=300, master_seed=1)
        assert rep.clf_plain is rep.clf_dropout
        assert rep.angle_degrees == 0.0

    def test_full_thinning_rejected(self):
        with pytest.raises(ValueError, match="naive Bayes"):
            run_influence_demo(delta=1.0, n=100, master_seed=0)

    @pytest.mark.slow
    def test_fitted_normals_diverge(self, influence_report):
        assert influence_report.angle_degrees > 5.0

    @pytest.mark.slow
    def test_common_cluster_error_not_worse_under_thinning(self,
                                                           influence_report):
        common = 1.0
        assert influence_report.dropout_error_by_cluster[common] <= \
            influence_report.plain_error_by_cluster[common]

    def test_demo_model_posterior_field_survives_thinning(self):
        rep = run_bias_check(influence_demo_model(), (0.75,), v_budget=4)
        assert rep.equal_length
        assert rep.max_gap[0.75] <= 1e-10
