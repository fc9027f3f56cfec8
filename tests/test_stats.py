import numpy as np
import pytest
from scipy import stats as sps
from scipy.stats import chisquare

from droplab import stats
from droplab.stats import (binomial_se, dkw_slack, kolmogorov_distance,
                           merge_tallies)
from oracles import chi_square_two_sample, kolmogorov_distance_sorted, pool_bins


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
    ours = kolmogorov_distance(*np.unique(x, return_counts=True), sps.norm.cdf)
    theirs = sps.kstest(x, "norm").statistic
    assert ours == pytest.approx(theirs, abs=1e-12)


@pytest.mark.parametrize("weights, lam", [
    ([1.0], [4.0]),                          # 1e5 draws on a few dozen values
    ([3.0, 1.0, -2.0], [50.0, 100.0, 30.0]),  # the 3-word Berry-Esseen score
    ([1.0, -1.0], [0.3, 0.1]),               # mostly zeros
])
def test_kolmogorov_distance_on_lattice_ties_is_bit_exact(weights, lam):
    # every distinct value is hit many times; the distinct-value formula must
    # equal the per-sample one bit for bit, not just approximately
    rng = np.random.default_rng(17)
    x = rng.poisson(lam, size=(100_000, len(lam))) @ np.array(weights)
    assert len(np.unique(x)) < len(x) // 50
    mu, sd = float(np.mean(x)), float(np.std(x))

    def cdf(s):
        return sps.norm.cdf((s - mu) / sd)

    assert (kolmogorov_distance(*np.unique(x, return_counts=True), cdf)
            == kolmogorov_distance_sorted(x, cdf))


def test_kolmogorov_distance_single_value():
    # one run of ties: d+ = 1 - F(v), d- = F(v)
    values, ties = np.array([2.0]), np.array([1_000])
    assert kolmogorov_distance(values, ties,
                               lambda s: np.full(len(s), 0.25)) == 0.75
    assert kolmogorov_distance(values, ties,
                               lambda s: np.full(len(s), 0.9)) == 0.9


def test_kolmogorov_distance_empty_rejected():
    with pytest.raises(ValueError):
        kolmogorov_distance(np.array([]), np.array([], dtype=np.int64),
                            sps.norm.cdf)


def _tally_in_chunks(x, size):
    """Each chunk's tally, merged by merge_tallies: values that recur across
    chunks are added up."""
    return merge_tallies(np.unique(x[start:start + size], return_counts=True)
                         for start in range(0, len(x), size))


def test_chunk_tallies_with_ties_across_chunks_are_bit_exact():
    # integer weights: a few hundred lattice values, each one recurring in
    # every chunk of 999, the last chunk ragged
    rng = np.random.default_rng(23)
    x = rng.poisson([50.0, 100.0, 30.0], size=(10_000, 3)) @ np.array(
        [3.0, 1.0, -2.0])
    assert len(np.intersect1d(x[:999], x[999:1998])) > 50
    values, ties = _tally_in_chunks(x, 999)
    mu, sd = float(np.mean(x)), float(np.std(x))

    def cdf(s):
        return sps.norm.cdf((s - mu) / sd)

    assert (kolmogorov_distance(values, ties, cdf)
            == kolmogorov_distance_sorted(x, cdf))


def test_chunk_tallies_of_distinct_scores_are_bit_exact():
    # incommensurate float weights on long documents: every score distinct
    rng = np.random.default_rng(29)
    x = rng.poisson([1e4, 2e4, 3e4], size=(5_000, 3)) @ np.array(
        [1.0, np.sqrt(2.0), -np.pi])
    assert len(np.unique(x)) == len(x)
    values, ties = _tally_in_chunks(x, 777)
    mu, sd = float(np.mean(x)), float(np.std(x))

    def cdf(s):
        return sps.norm.cdf((s - mu) / sd)

    assert (kolmogorov_distance(values, ties, cdf)
            == kolmogorov_distance_sorted(x, cdf))


@pytest.mark.parametrize("values, ties", [
    ([1.0, 3.0, 2.0], [1, 1, 1]),           # unsorted
    ([1.0, 2.0, 2.0, 3.0], [1, 2, 1, 1]),   # a repeated value
    ([1.0, np.nan], [1, 1]),
])
def test_kolmogorov_distance_rejects_a_tally_not_merged(values, ties):
    with pytest.raises(ValueError, match="sorted and distinct"):
        kolmogorov_distance(np.array(values), np.array(ties), sps.norm.cdf)


@pytest.mark.parametrize("sizes", [[5] * 20, [64, 1, 1, 1, 30, 2, 200]])
def test_merge_tallies_equals_one_tally_of_every_value(sizes):
    # values from a small lattice, so the tallies overlap each other and the
    # running tally; the merge must equal np.unique of the whole sample
    rng = np.random.default_rng(31)
    parts = [rng.integers(0, 40, size=m).astype(float) for m in sizes]
    values, ties = merge_tallies(np.unique(p, return_counts=True)
                                 for p in parts)
    want_values, want_ties = np.unique(np.concatenate(parts),
                                       return_counts=True)
    assert np.array_equal(values, want_values)
    assert np.array_equal(ties, want_ties) and ties.dtype == np.int64


def test_merge_tallies_merges_once_pending_holds_the_running_size(
        monkeypatch):
    # disjoint values, so the running tally holds every entry merged in:
    # 3 >= 0, then 1 + 2 >= 3, then 4 + 1 + 1 >= 6; 1 + 5 < 12 is merged
    # only because the tallies end
    batches = []
    merge_into = stats._merge_into

    def recording(values, ties, pending):
        batches.append([len(v) for v, _ in pending])
        return merge_into(values, ties, pending)

    monkeypatch.setattr(stats, "_merge_into", recording)
    sizes = [3, 1, 2, 4, 1, 1, 1, 5]
    bounds = np.cumsum([0] + sizes)
    values, ties = merge_tallies(
        (np.arange(a, b, dtype=float), np.ones(b - a, dtype=np.int64))
        for a, b in zip(bounds[:-1], bounds[1:]))
    assert batches == [[3], [1, 2], [4, 1, 1], [1, 5]]
    assert np.array_equal(values, np.arange(18.0))
    assert np.array_equal(ties, np.ones(18))


def test_merge_tallies_of_nothing_is_empty():
    values, ties = merge_tallies([])
    assert len(values) == len(ties) == 0


def test_dkw_slack_formula():
    assert dkw_slack(10**6, 0.999) == pytest.approx(
        np.sqrt(np.log(2000.0) / 2e6), rel=1e-12)


def test_binomial_se():
    assert binomial_se(0.5, 100) == pytest.approx(0.05)
    assert binomial_se(0.0, 100) == 0.0
