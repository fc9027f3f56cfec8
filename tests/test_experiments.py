import numpy as np
import pytest

from droplab import (CurveSpec, DropoutConfig, TrainConfig,
                     build_synthetic_model, curve_csv, curve_summary,
                     run_altitude_sweep, run_bias_check, run_influence_demo,
                     run_learning_curves)
from droplab.experiments import CurveResult, InfluenceDemoConfig, SweepConfig
from droplab.presets import (default_sweep_configs, equal_length_models,
                             two_word_intensity, unequal_length_control)

UNEQUAL_CONTROL_GAP = 0.10859924742815032  # posterior shift at count 0


class TestBiasCheck:
    def test_equal_length_models_preserve_posteriors(self):
        for model in equal_length_models():
            rep = run_bias_check(model, (0.25, 0.5, 0.9), v_budget=6)
            assert rep.equal_length
            assert rep.passed(tol=1e-10)

    def test_zero_rate_gap_is_zero(self):
        rep = run_bias_check(equal_length_models()[0], (0.0,), v_budget=4)
        assert rep.max_gap[0.0] == 0.0

    def test_unequal_length_control_shows_gap(self):
        rep = run_bias_check(unequal_length_control(), (0.5,), v_budget=6)
        assert not rep.passed()
        assert rep.max_gap[0.5] >= 0.05
        # the gap at the empty document alone already exceeds the threshold
        assert rep.max_gap[0.5] >= UNEQUAL_CONTROL_GAP - 1e-12


class TestAltitudeSweep:
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
        assert res.bound_holds is None

    def test_longer_documents_shrink_error_and_concentration(self):
        configs = default_sweep_configs()
        res = run_altitude_sweep(configs[1:3], mc_budget=500_000,
                                 master_seed=4)
        base, scaled = res
        assert scaled.bound.be_stat < base.bound.be_stat
        assert scaled.eps < base.eps
        assert scaled.bound_holds and base.bound_holds

    def test_positive_mean_required(self):
        cfg = SweepConfig(weights=(1.0, -1.0), intensity=(1.0, 5.0),
                          delta=0.5)
        with pytest.raises(ValueError):
            run_altitude_sweep([cfg], mc_budget=100)


def tiny_spec(**overrides) -> CurveSpec:
    base = dict(
        sampler=build_synthetic_model(),
        n_grid=(40, 80),
        delta_grid=(0.0, 0.5, 1.0),
        trials=2,
        test_size=1_500,
        train_cfg=TrainConfig(epochs=40,
                              dropout=DropoutConfig(delta=0.0,
                                                    mc_replicates=2)),
        master_seed=11,
        sampler_name="synthetic-sec6",
    )
    base.update(overrides)
    return CurveSpec(**base)


class TestCurveSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_spec(n_grid=())
        with pytest.raises(ValueError):
            tiny_spec(trials=0)
        with pytest.raises(ValueError):
            tiny_spec(delta_grid=(0.0, 1.5))


class TestLearningCurves:
    def test_rerun_is_identical(self):
        a = run_learning_curves(tiny_spec())
        b = run_learning_curves(tiny_spec())
        assert curve_csv(a) == curve_csv(b)

    def test_threads_do_not_change_records(self):
        a = run_learning_curves(tiny_spec(), threads=1)
        b = run_learning_curves(tiny_spec(), threads=4)
        for ra, rb in zip(a.records, b.records):
            assert ra.test_error == rb.test_error
            assert ra.train_error == rb.train_error

    def test_cells_are_independent_of_grid(self):
        full = run_learning_curves(tiny_spec())
        subset = run_learning_curves(tiny_spec(n_grid=(80,),
                                               delta_grid=(0.5,)))
        wanted = {(r.n, r.delta, r.trial): r for r in full.records
                  if r.n == 80 and r.delta == 0.5}
        for r in subset.records:
            ref = wanted[(r.n, r.delta, r.trial)]
            assert r.test_error == ref.test_error
            assert r.seed == ref.seed

    def test_summary_is_order_independent(self):
        res = run_learning_curves(tiny_spec())
        reversed_result = CurveResult(spec=res.spec,
                                      records=tuple(reversed(res.records)))
        assert curve_summary(res) == curve_summary(reversed_result)

    def test_naive_bayes_endpoint_runs(self):
        res = run_learning_curves(tiny_spec(delta_grid=(1.0,)))
        assert all(np.isfinite(r.test_error) for r in res.records)

    def test_csv_timing_column_defaults_to_zero(self):
        res = run_learning_curves(tiny_spec())
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
        res = run_learning_curves(spec)
        assert len(res.records) == 2
        for r in res.records:
            assert (r.note == "") == np.isfinite(r.test_error)


@pytest.fixture(scope="module")
def influence_report():
    return run_influence_demo(delta=0.75, n=10_000, master_seed=0)


class TestInfluenceDemo:
    def test_no_thinning_returns_identical_classifiers(self):
        rep = run_influence_demo(
            delta=0.0, n=300, master_seed=1,
            config=InfluenceDemoConfig(
                train_cfg=TrainConfig(epochs=60)),
            eval_size=2_000)
        assert rep.clf_plain is rep.clf_dropout
        assert rep.angle_degrees == 0.0

    def test_full_thinning_rejected(self):
        with pytest.raises(ValueError, match="naive Bayes"):
            run_influence_demo(delta=1.0, n=100, eval_size=100)

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
        rep = run_bias_check(InfluenceDemoConfig().model(), (0.75,),
                             v_budget=4)
        assert rep.equal_length
        assert rep.max_gap[0.75] <= 1e-10
