"""End-to-end acceptance checks, one test per criterion, each printing a
PASS/FAIL line (run with -s to see them).

Monte Carlo budgets follow the stated protocol and every stream is seeded,
so each check is reproducible bit for bit.  Criterion 4a asserts the stated
exponent window even though the exact exponent of the pinned configuration
is 1.59495 (Gaussian-level value 1.56080), just below the window; that
check fails by construction and is kept as stated deliberately.
"""

import numpy as np
import pytest
from scipy import stats as sps
from scipy.stats import chisquare

from droplab import (CurveSpec, SweepConfig, TrainConfig, berry_esseen_check,
                     build_synthetic_model, curve_summary, gaussian_tail_check,
                     make_rng, margin_condition, run_altitude_sweep,
                     run_bias_check, run_learning_curves, thin_counts)
from droplab.cli import cli_dispatch
from droplab.diagnostics import thinned_topic_rates
from droplab.presets import (berry_esseen_suite, default_sweep_configs,
                             equal_length_models, orthogonal_topic_model,
                             two_word_intensity, unequal_length_control)
from droplab.stats import binomial_se, dkw_slack
from oracles import pool_bins

PHI_M25 = 0.0062096653257761352          # Phi(-2.5)
PHI_M25_THINNED = 0.038549935871770885   # Phi(-2.5 / sqrt 2)
SWEEP_MC = 10_000_000                    # documents per sweep configuration


def report(criterion: str, passed: bool, detail: str):
    print(f"\n{'PASS' if passed else 'FAIL'} {criterion}: {detail}")


def test_criterion_1_thinning_closure():
    """Thinned Poisson(10) at rate 0.3 is Poisson(7) (chi-square, 1e5 draws)."""
    rng = make_rng(2024, "acceptance-thinning")
    x = rng.poisson(10.0, size=100_000)
    thinned = thin_counts(x, 0.3, rng)
    top = 22
    obs = np.bincount(np.minimum(thinned, top), minlength=top + 1)
    pmf = sps.poisson.pmf(np.arange(top + 1), 7.0)
    pmf[top] = 1.0 - pmf[:top].sum()
    stat, p = chisquare(*pool_bins(obs, pmf * len(x), min_expected=5.0))
    report("criterion 1 (thinning closure)",
           p > 0.001, f"chi-square p = {p:.4f} (needs > 0.001)")
    assert p > 0.001


def test_criterion_2_berry_esseen():
    """Five configurations spanning concentration 1e-4..0.25: empirical
    sup-CDF distance <= 4 sqrt(concentration) + DKW(1e6, 0.999)."""
    from droplab import berry_esseen_statistic

    n = 1_000_000
    slack = dkw_slack(n, 0.999)
    configs = berry_esseen_suite()
    spans = [berry_esseen_statistic(w, lam) for w, lam in configs]
    assert min(spans) <= 1e-4 + 1e-12 and max(spans) >= 0.25 - 1e-12
    worst = -np.inf
    lines = []
    for k, (w, lam) in enumerate(configs):
        rep = berry_esseen_check(w, lam, n, make_rng(2024, "acceptance-be", k))
        margin = rep.sup_distance - rep.bound - slack
        worst = max(worst, margin)
        lines.append(f"psi={rep.be_stat:.1e}: D={rep.sup_distance:.5f} "
                     f"bound={rep.bound:.4f}")
    report("criterion 2 (Berry-Esseen control)", worst <= 0,
           "; ".join(lines))
    assert worst <= 0


@pytest.fixture(scope="module")
def sweep_results():
    return run_altitude_sweep(default_sweep_configs(), mc_budget=SWEEP_MC,
                              master_seed=2024)


@pytest.mark.slow
def test_criterion_3_reference_rates(sweep_results):
    """z = 2.5 configuration at 1e7 draws: raw and thinned rates within
    3 s.e. + 4 sqrt(psi) of their Gaussian predictions.  The paired draws
    are the sweep's first configuration, whose exponent 4a checks."""
    r = sweep_results[0]
    assert r.config == SweepConfig((1.0, -1.0),
                                   two_word_intensity(2.5, 10.0), 0.5)
    eps, eps_thin = r.eps, r.eps_thinned
    slack = 4.0 * np.sqrt(0.01)
    ok_raw = abs(eps - PHI_M25) <= 3 * binomial_se(eps, SWEEP_MC) + slack
    ok_thin = abs(eps_thin - PHI_M25_THINNED) \
        <= 3 * binomial_se(eps_thin, SWEEP_MC) + slack
    report("criterion 3 (reference two-word rates)", ok_raw and ok_thin,
           f"eps={eps:.6f} (Gaussian {PHI_M25:.6f}), "
           f"eps_thinned={eps_thin:.6f} (Gaussian {PHI_M25_THINNED:.6f}), "
           f"allowance 3 s.e. + {slack:.3f}")
    assert ok_raw and ok_thin


@pytest.mark.slow
def test_criterion_4a_exponent_window(sweep_results):
    """Empirical exponent for the pinned z = 2.5 configuration must land in
    [1.6, 2.4] against target 2.

    The exact exponent of this configuration is 1.5949454657738 (thinned and
    raw tail probabilities 4.3627118658e-2 and 6.7683973519e-3); the
    Gaussian-level value is 1.5607982561.  Reaching 1.6 would need a -4.1
    sigma Monte Carlo fluctuation at this budget, so this check documents a
    real gap between the stated window and the configuration it pins.
    """
    r = sweep_results[0]
    ok = 1.6 <= r.exponent <= 2.4
    report("criterion 4a (exponent window)", ok,
           f"exponent={r.exponent:.4f} target={r.exponent_target:.1f} "
           f"window=[1.6, 2.4] (exact value 1.59495)")
    assert ok


@pytest.mark.slow
def test_criterion_4b_bound_soundness(sweep_results):
    """Measured raw error never exceeds the explicit bound in any
    non-vacuous sweep configuration."""
    checked = []
    ok = True
    for r in sweep_results:
        if r.bound.vacuous:
            continue
        checked.append(f"eps={r.eps:.2e} <= bound={r.bound.value:.4f} "
                       f"(delta={r.config.delta:g})")
        ok = ok and r.bound_holds
    report("criterion 4b (bound soundness)", ok and len(checked) > 0,
           "; ".join(checked))
    assert ok and checked


def test_criterion_5_posterior_preservation():
    """Equal-length models: max posterior gap <= 1e-10 over small counts and
    thinning rates; unequal-length control shows a gap >= 0.05."""
    worst = 0.0
    models = equal_length_models()
    assert any(m.n_topics == 3 for m in models)
    for model in models:
        rep = run_bias_check(model, (0.25, 0.5, 0.9), v_budget=6)
        worst = max(worst, max(rep.max_gap.values()))
    control = run_bias_check(unequal_length_control(), (0.5,), v_budget=6)
    gap = control.max_gap[0.5]
    ok = worst <= 1e-10 and gap >= 0.05
    report("criterion 5 (posterior preservation)", ok,
           f"max equal-length gap={worst:.2e} (tol 1e-10), "
           f"control gap={gap:.4f} (needs >= 0.05)")
    assert ok


def test_criterion_6_margin_construction():
    """Orthogonal topics at lengths 100/400/1600, rate 0.5: the singular
    value condition holds, the separator achieves unit margins to 1e-9, and
    the exact per-topic thinned error stays within 1/sqrt(length)."""
    ok = True
    details = []
    for length in (100.0, 400.0, 1600.0):
        model = orthogonal_topic_model(length)
        rep = margin_condition(model, 0.5)
        target = 1.0 / np.sqrt(length)
        worst_rate = max(thinned_topic_rates(model, rep.separator, 0.5))
        topic_ok = bool(worst_rate <= target)
        ok = ok and rep.holds and rep.max_margin_error <= 1e-9 and topic_ok
        details.append(f"len={length:g}: holds={rep.holds} "
                       f"margin_err={rep.max_margin_error:.1e} "
                       f"worst_rate={worst_rate:.3g} target={target:.3f}")
    report("criterion 6 (margin construction)", ok, "; ".join(details))
    assert ok


@pytest.fixture(scope="module")
def small_n_curves():
    spec = CurveSpec(
        sampler=build_synthetic_model(),
        n_grid=(100,), delta_grid=(0.0, 0.95), trials=10, test_size=100_000,
        train_cfg=TrainConfig(epochs=400), master_seed=2024)
    return run_learning_curves(spec, threads=4)


@pytest.mark.slow
def test_criterion_7a_small_n_ordering(small_n_curves):
    """Synthetic benchmark at n = 100: heavy thinning should beat plain
    training on the mean over 10 paired trials."""
    # one cell per delta, in delta_grid order
    mean_plain, mean_heavy = (c["mean_test_error"] for c
                              in curve_summary(small_n_curves)["cells"])
    ok = mean_heavy < mean_plain
    report("criterion 7a (small-n ordering)", ok,
           f"err(delta=0.95)={mean_heavy:.4f} vs err(delta=0)="
           f"{mean_plain:.4f} over 10 trials")
    assert ok


@pytest.mark.slow
def test_criterion_7b_naive_bayes_plateau():
    """The rate-1 (naive Bayes) endpoint moves < 0.01 between n = 4000 and
    n = 16000."""
    # test-set streams depend on (seed, trial, block), not on n, so both
    # sizes score the same three test sets
    spec = CurveSpec(
        sampler=build_synthetic_model(), n_grid=(4000, 16000),
        delta_grid=(1.0,), trials=3, test_size=100_000,
        train_cfg=TrainConfig(epochs=10), master_seed=2024)
    res = run_learning_curves(spec, threads=3)
    means = {c["n"]: c["mean_test_error"] for c in curve_summary(res)["cells"]}
    gap = abs(means[4000] - means[16000])
    ok = gap < 0.01
    report("criterion 7b (naive Bayes plateau)", ok,
           f"err(4000)={means[4000]:.4f}, err(16000)={means[16000]:.4f}, "
           f"|gap|={gap:.4f} (needs < 0.01)")
    assert ok


def test_criterion_8_gaussian_tails():
    """Strict two-sided tail inequality on t in {0.1, 0.5, 1, 2, 4, 8}."""
    entries = gaussian_tail_check([0.1, 0.5, 1.0, 2.0, 4.0, 8.0])
    margins = [min(e.middle - e.lower, e.upper - e.middle) for e in entries]
    ok = all(e.strict for e in entries) and min(margins) > 1e-12
    report("criterion 8 (Gaussian tails)", ok,
           f"strict everywhere, smallest margin {min(margins):.2e}")
    assert ok


def test_criterion_9_determinism(tmp_path):
    """curves/verify reruns with one seed are byte-identical; thread count
    never changes reported numbers."""
    curve_args = ["curves", "--model", "synthetic-sec6", "--seed", "7",
                  "--n-grid", "60", "--delta-grid", "0,0.9",
                  "--trials", "2", "--test-size", "2000", "--epochs", "60"]
    outs = [tmp_path / name for name in ("c1", "c2", "c3")]
    assert cli_dispatch(curve_args + ["--threads", "2",
                                      "--out", str(outs[0])]) == 0
    assert cli_dispatch(curve_args + ["--threads", "2",
                                      "--out", str(outs[1])]) == 0
    assert cli_dispatch(curve_args + ["--threads", "1",
                                      "--out", str(outs[2])]) == 0
    rerun_same = (outs[0] / "curves.csv").read_bytes() == \
        (outs[1] / "curves.csv").read_bytes()
    threads_same = (outs[0] / "curves.csv").read_bytes() == \
        (outs[2] / "curves.csv").read_bytes()
    verify_args = ["verify", "--suite", "tails", "--seed", "7"]
    v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
    assert cli_dispatch(verify_args + ["--out", str(v1)]) == 0
    assert cli_dispatch(verify_args + ["--out", str(v2)]) == 0
    verify_same = v1.read_bytes() == v2.read_bytes()
    ok = rerun_same and threads_same and verify_same
    report("criterion 9 (determinism)", ok,
           f"curves rerun identical={rerun_same}, "
           f"threads 1 vs 2 identical={threads_same}, "
           f"verify rerun identical={verify_same}")
    assert ok
