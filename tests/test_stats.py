import numpy as np
import pytest
from scipy import stats as sps
from scipy.stats import chisquare

from droplab.stats import binomial_se, dkw_slack, kolmogorov_distance
from oracles import chi_square_two_sample, pool_bins


def _poisson_histogram(lam, draws, rng, top):
    x = rng.poisson(lam, size=draws)
    obs = np.bincount(np.minimum(x, top), minlength=top + 1).astype(float)
    pmf = sps.poisson.pmf(np.arange(top + 1), lam)
    pmf[top] = 1.0 - pmf[:top].sum()
    return obs, pmf * draws


def test_pool_bins_reaches_min_expected():
    obs = np.array([1.0, 2.0, 3.0, 50.0, 1.0])
    exp = np.array([2.0, 2.0, 2.0, 50.0, 1.0])
    o, e = pool_bins(obs, exp, min_expected=5.0)
    assert np.all(e >= 5.0)
    assert o.sum() == obs.sum() and e.sum() == exp.sum()


def test_chi_square_gof_accepts_true_model():
    rng = np.random.default_rng(11)
    obs, exp = _poisson_histogram(5.0, 100_000, rng, top=20)
    _, p = chisquare(*pool_bins(obs, exp, min_expected=5.0))
    assert p > 0.001


def test_chi_square_gof_rejects_wrong_model():
    rng = np.random.default_rng(11)
    obs, _ = _poisson_histogram(5.0, 100_000, rng, top=20)
    wrong = sps.poisson.pmf(np.arange(21), 5.5)
    wrong[20] = 1.0 - wrong[:20].sum()
    _, p = chisquare(*pool_bins(obs, wrong * 100_000, min_expected=5.0))
    assert p < 1e-6


def test_two_sample_chi_square_same_distribution():
    rng = np.random.default_rng(5)
    a = np.bincount(rng.poisson(4.0, size=50_000), minlength=25).astype(float)
    b = np.bincount(rng.poisson(4.0, size=50_000), minlength=25).astype(float)
    _, p = chi_square_two_sample(a[:25], b[:25])
    assert p > 0.001


def test_two_sample_chi_square_detects_shift():
    rng = np.random.default_rng(5)
    a = np.bincount(rng.poisson(4.0, size=50_000), minlength=25).astype(float)
    b = np.bincount(rng.poisson(4.6, size=50_000), minlength=25).astype(float)
    _, p = chi_square_two_sample(a[:25], b[:25])
    assert p < 1e-6


def test_kolmogorov_distance_matches_scipy():
    rng = np.random.default_rng(3)
    x = rng.normal(size=2_000)
    ours = kolmogorov_distance(x, sps.norm.cdf)
    theirs = sps.kstest(x, "norm").statistic
    assert ours == pytest.approx(theirs, abs=1e-12)


def test_kolmogorov_distance_empty_rejected():
    with pytest.raises(ValueError):
        kolmogorov_distance(np.array([]), sps.norm.cdf)


def test_dkw_slack_formula():
    assert dkw_slack(10**6, 0.999) == pytest.approx(
        np.sqrt(np.log(2000.0) / 2e6), rel=1e-12)


def test_binomial_se():
    assert binomial_se(0.5, 100) == pytest.approx(0.05)
    assert binomial_se(0.0, 100) == 0.0
