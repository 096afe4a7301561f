import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sbc.errors import IndivisibleBinning, NonFiniteInput
from sbc.models import NormalNormalSpec, make_normal_normal
import sbc.rankstats as rankstats
from sbc.rankstats import (
    binomial_quantiles,
    build_histogram,
    chi_square_uniformity,
    classify_shape,
    default_bins,
    ecdf_band,
    ecdf_summary,
    rank_statistic,
    rebin,
)
from sbc.samplers import sample_exact_conjugate
from sbc.streams import RandomStream

# chi2 0.999 quantiles, frozen from scipy.stats.chi2.ppf.
CHI2_999_DOF9 = 27.877164871256568


def sequential_binomial_quantile(q: float, n: int, p: float) -> int:
    """Reference: the scalar quantile by sequential CDF summation, kept verbatim."""
    if not (0.0 < q < 1.0 or q in (0.0, 1.0)):
        raise ValueError("quantile level must be in [0, 1]")
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    log_p, log_1p = math.log(p), math.log1p(-p)
    lg = math.lgamma
    lg_n1 = lg(n + 1)
    cdf = 0.0
    for k in range(n + 1):
        log_pmf = lg_n1 - lg(k + 1) - lg(n - k + 1) + k * log_p + (n - k) * log_1p
        cdf += math.exp(log_pmf)
        if cdf >= q:
            return k
    return n


def sequential_binomial_cdf(n: int, p: float) -> list[float]:
    """Every running sum of the reference's loop, for 0 < p < 1."""
    log_p, log_1p = math.log(p), math.log1p(-p)
    lg = math.lgamma
    lg_n1 = lg(n + 1)
    cdf, sums = 0.0, []
    for k in range(n + 1):
        cdf += math.exp(lg_n1 - lg(k + 1) - lg(n - k + 1) + k * log_p + (n - k) * log_1p)
        sums.append(cdf)
    return sums


SPECIAL_LEVELS = (0.0, 1.0, 1e-9, 0.005, 0.995, 1.0 - 1e-9)


@st.composite
def quantile_cases(draw):
    n = draw(st.integers(1, 5000))
    p = st.one_of(st.sampled_from([0.0, 1.0, 1.0 / (n + 1)]),
                  st.floats(0.0, 1.0, allow_nan=False))
    q = st.one_of(st.sampled_from(SPECIAL_LEVELS), st.floats(0.0, 1.0, allow_nan=False))
    return (draw(st.lists(q, min_size=1, max_size=4)), n,
            draw(st.lists(p, min_size=1, max_size=4)))


class TestRankStatistic:
    def test_direct_count(self):
        assert rank_statistic([0.1, 0.2, 0.3], 0.25) == 2

    def test_below_all(self):
        assert rank_statistic([0.1, 0.2, 0.3], 0.05) == 0

    def test_ties_count_as_not_less(self):
        assert rank_statistic([1.0, 1.0, 1.0], 1.0) == 0

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            rank_statistic([0.1, np.nan], 0.5)
        with pytest.raises(NonFiniteInput):
            rank_statistic([0.1, 0.2], np.inf)

    def test_matrix_equals_row_calls(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(40, 15))
        values[3, :] = 0.5  # ties count as not-less
        priors = rng.normal(size=40)
        priors[3] = 0.5
        ranks = rank_statistic(values, priors)
        assert ranks.dtype == np.int64
        np.testing.assert_array_equal(ranks, [rank_statistic(v, p) for v, p in zip(values, priors)])

    def test_matrix_shape_mismatch_and_non_finite_rejected(self):
        with pytest.raises(ValueError):
            rank_statistic(np.zeros((3, 5)), np.zeros(4))
        values = np.zeros((3, 5))
        values[1, 2] = np.inf
        with pytest.raises(NonFiniteInput):
            rank_statistic(values, np.zeros(3))

    def test_reflection_identity(self):
        # rank(v, p) + rank(-v, -p) == L whenever p is not tied with any v.
        rng = np.random.default_rng(42)
        for _ in range(200):
            L = int(rng.integers(1, 50))
            v = rng.normal(size=L)
            p = rng.normal()
            assert rank_statistic(v, p) + rank_statistic(-v, -p) == L


class TestRebin:
    def test_pairing(self):
        np.testing.assert_array_equal(rebin([0, 1, 2, 3], 3, 2), [2, 2])

    def test_point_mass_goes_to_last_bin(self):
        counts = rebin([5] * 7, 5, 6)
        np.testing.assert_array_equal(counts, [0, 0, 0, 0, 0, 7])

    def test_neighbors_share_bin(self):
        counts = rebin([0, 1], 99, 50)
        assert counts[0] == 2

    def test_indivisible_binning_message(self):
        with pytest.raises(IndivisibleBinning, match="power of 2"):
            rebin([0, 1], 99, 7)

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            L = 99
            ranks = rng.integers(0, L + 1, size=int(rng.integers(1, 500)))
            for B in (1, 2, 4, 5, 10, 20, 25, 50, 100):
                assert rebin(ranks, L, B).sum() == ranks.size


def histogram_band(N: int, B: int, coverage: float = 0.99) -> tuple[int, int]:
    """(band_low, band_high) of a histogram of N ranks in B bins, with L = B - 1."""
    hist = build_histogram(np.zeros(N, dtype=int), B - 1, B, coverage)
    return hist.band_low, hist.band_high


class TestUniformBand:
    def test_single_fair_bernoulli(self):
        assert histogram_band(1, 2) == (0, 1)

    def test_degenerate_p_equal_one(self):
        assert histogram_band(40, 1) == (40, 40)

    def test_frozen_oracle_values(self):
        # Frozen from an exact binomial CDF oracle (scipy.stats.binom.ppf).
        assert histogram_band(2000, 100) == (10, 32)
        assert histogram_band(2000, 20) == (76, 126)
        assert histogram_band(1000, 20) == (33, 69)

    def test_matches_scipy_across_grid(self):
        for N in (1, 10, 100, 2000, 5000):
            for B in (1, 2, 3, 10, 20, 100):
                lo, hi = histogram_band(N, B)
                assert lo == int(stats.binom.ppf(0.005, N, 1 / B))
                assert hi == int(stats.binom.ppf(0.995, N, 1 / B))

    def test_band_contains_mean_when_coverage_reasonable(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            N = int(rng.integers(1, 3000))
            B = int(rng.integers(1, 120))
            lo, hi = histogram_band(N, B, coverage=0.5 + 0.49 * rng.random())
            assert lo <= N / B <= hi

    @pytest.mark.parametrize("N, L, B", [(1, 0, 1), (1, 1, 2), (1, 99, 100), (7, 9, 1),
                                         (40, 19, 20), (400, 99, 100), (2000, 1023, 1024),
                                         (5000, 99, 20), (333, 14, 15)])
    def test_median_equals_reference(self, N, L, B):
        ranks = np.arange(N) % (L + 1)
        for coverage in (0.5, 0.9, 0.99):
            hist = build_histogram(ranks, L, B, coverage)
            assert hist.band_median == sequential_binomial_quantile(0.5, N, 1.0 / B)
            assert hist.band_low <= hist.band_median <= hist.band_high

    @pytest.mark.parametrize("N, B, coverage", [(0, 2, 0.99), (10, 2, 0.0), (10, 2, 1.0),
                                                (10, 2, -0.5), (10, 2, math.nan), (10, 0, 0.99)])
    def test_bad_arguments_rejected(self, N, B, coverage):
        with pytest.raises(ValueError, match="need N >= 1, B >= 1, 0 < coverage < 1"):
            build_histogram(np.zeros(N, dtype=int), 9, B, coverage)


class TestBinomialQuantile:
    def test_against_scipy_including_large_p(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 3000))
            p = float(rng.random())
            q = float(rng.uniform(0.001, 0.999))
            assert binomial_quantiles(q, n, p)[0, 0] == int(stats.binom.ppf(q, n, p))

    def test_edge_probabilities(self):
        np.testing.assert_array_equal(binomial_quantiles(0.5, 10, [0.0, 1.0]), [[0], [10]])


def _reference_grid(qs, n, ps) -> np.ndarray:
    return np.array([[sequential_binomial_quantile(q, n, p) for q in qs] for p in ps])


class TestBinomialQuantiles:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(quantile_cases())
    def test_equals_sequential_sum(self, case):
        qs, n, ps = case
        got = binomial_quantiles(qs, n, ps)
        assert got.shape == (len(ps), len(qs))
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, _reference_grid(qs, n, ps))

    def test_ecdf_band_grid_exhaustive(self):
        # Every point of the band at N=2000, L=1023, both levels.
        N, L = 2000, 1023
        ps = [(k + 1) / (L + 1) for k in range(L + 1)]
        tail = (1.0 - 0.99) / 2.0
        qs = [tail, 1.0 - tail]
        expected = _reference_grid(qs, N, ps)
        np.testing.assert_array_equal(binomial_quantiles(qs, N, ps), expected)
        band = ecdf_band(N, L)
        np.testing.assert_array_equal(band.expected, ps)
        np.testing.assert_array_equal(band.low, expected[:, 0] / N)
        np.testing.assert_array_equal(band.high, expected[:, 1] / N)

    def test_levels_on_a_running_sum(self):
        # A level equal to one of the reference's running sums, or an ulp from
        # it, is where numpy's exp could tip the comparison.
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 3000))
            p = float(rng.random())
            sums = sequential_binomial_cdf(n, p)
            qs = [level for k in rng.integers(0, n + 1, size=4)
                  for level in (sums[k], np.nextafter(sums[k], 0.0), np.nextafter(sums[k], 2.0))
                  if level <= 1.0]
            np.testing.assert_array_equal(binomial_quantiles(qs, n, [p]),
                                          _reference_grid(qs, n, [p]))

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        qs, n = [0.005, 0.5, 0.995], 700
        ps = np.linspace(0.0, 1.0, 37)
        expected = binomial_quantiles(qs, n, ps)
        for floats in (1, 1000, 2**20):
            monkeypatch.setattr(rankstats, "QUANTILE_CHUNK_FLOATS", floats)
            np.testing.assert_array_equal(binomial_quantiles(qs, n, ps), expected)

    @pytest.mark.parametrize("q", [-1e-12, -0.5, 1.0 + 1e-12, 2.0, math.nan])
    def test_bad_level_rejected(self, q):
        with pytest.raises(ValueError, match=r"quantile level must be in \[0, 1\]"):
            binomial_quantiles([0.5, q], 10, [0.3])
        with pytest.raises(ValueError):
            binomial_quantiles(q, 10, 0.3)
        with pytest.raises(ValueError):
            sequential_binomial_quantile(q, 10, 0.3)


def summary_of(ranks, L):
    """ECDF summary of the ranks against the default band for their count."""
    ranks = np.asarray(ranks)
    return ecdf_summary(ranks, ecdf_band(ranks.size, L))


class TestEcdf:
    def test_perfect_uniformity_diff_zero(self):
        L = 9
        ranks = np.arange(L + 1)
        s = summary_of(ranks, L)
        np.testing.assert_allclose(s.values, s.band.expected)
        np.testing.assert_allclose(s.values - s.band.expected, 0.0, atol=1e-15)

    def test_point_mass_at_zero(self):
        L = 9
        s = summary_of(np.zeros(100, dtype=int), L)
        np.testing.assert_allclose(s.values, 1.0)
        assert (s.values - s.band.expected)[0] == pytest.approx(1 - 1 / (L + 1))

    def test_final_diff_always_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            ranks = rng.integers(0, 100, size=200)
            s = summary_of(ranks, 99)
            assert (s.values - s.band.expected)[-1] == pytest.approx(0.0)

    def test_values_nondecreasing_and_end_at_one(self):
        rng = np.random.default_rng(6)
        ranks = rng.integers(0, 100, size=500)
        s = summary_of(ranks, 99)
        assert np.all(np.diff(s.values) >= 0)
        assert s.values[-1] == 1.0
        assert np.all(np.diff(s.band.expected) > 0)

    def test_pointwise_envelope_coverage_for_uniform_ranks(self):
        # Statistical property: about 1% of the 100 points may fall outside.
        rng = np.random.default_rng(2026)
        ranks = rng.integers(0, 100, size=2000)
        s = summary_of(ranks, 99)
        inside = np.sum((s.values >= s.band.low) & (s.values <= s.band.high))
        assert inside >= 97

    def test_band_for_another_count_rejected(self):
        with pytest.raises(ValueError, match="against a band for N=20"):
            ecdf_summary(np.zeros(10, dtype=int), ecdf_band(20, 9))


class TestChiSquare:
    def test_exact_uniformity(self):
        assert chi_square_uniformity([20, 20, 20, 20, 20]) == (0.0, 4)

    def test_two_bins(self):
        stat, dof = chi_square_uniformity([30, 10])
        assert stat == pytest.approx(10.0)
        assert dof == 1

    def test_arithmetic(self):
        stat, dof = chi_square_uniformity([25, 15, 20, 20, 20])
        assert stat == pytest.approx(2.5)
        assert dof == 4


class TestDefaultBins:
    def test_desk_scale_defaults(self):
        assert default_bins(2000, 99) == 100
        assert default_bins(400, 99) == 20
        assert default_bins(100, 99) == 5
        assert default_bins(10, 99) == 1


def _hist_from_bin_probs(probs, N, L, seed):
    """Synthesize ranks whose display-bin occupancy follows ``probs``."""
    rng = np.random.default_rng(seed)
    B = len(probs)
    width = (L + 1) // B
    bins = rng.choice(B, size=N, p=np.asarray(probs) / np.sum(probs))
    offsets = rng.integers(0, width, size=N)
    return build_histogram(bins * width + offsets, L, B)


class TestClassifyShape:
    def test_uniform(self):
        hist = _hist_from_bin_probs([1.0] * 20, 2000, 99, seed=1)
        assert classify_shape(hist) == "uniform"

    def test_u_shape(self):
        probs = np.ones(20)
        probs[0] = probs[-1] = 4.0
        probs[5:15] = 0.5
        hist = _hist_from_bin_probs(probs, 2000, 99, seed=2)
        assert classify_shape(hist) == "u-shaped"

    def test_cap_shape(self):
        probs = np.ones(20) * 1.4
        probs[0] = probs[-1] = 0.2
        probs[1] = probs[-2] = 0.6
        hist = _hist_from_bin_probs(probs, 2000, 99, seed=3)
        assert classify_shape(hist) == "cap-shaped"

    def test_boundary_spikes(self):
        probs = np.ones(20) * 0.2
        probs[0] = probs[-1] = 5.0
        hist = _hist_from_bin_probs(probs, 1000, 99, seed=4)
        assert classify_shape(hist) == "boundary-spikes"

    def test_biased_high(self):
        # Linear tilt toward high ranks.
        probs = np.linspace(0.7, 1.3, 20)
        hist = _hist_from_bin_probs(probs, 2000, 99, seed=5)
        assert classify_shape(hist) == "biased-high-ranks"

    def test_biased_low(self):
        probs = np.linspace(1.3, 0.7, 20)
        hist = _hist_from_bin_probs(probs, 2000, 99, seed=6)
        assert classify_shape(hist) == "biased-low-ranks"

    @pytest.mark.parametrize("B", [1, 2, 3])
    def test_too_few_bins_inconclusive(self, B):
        """No shape test runs below 4 bins, so flat counts are not evidence of uniformity."""
        hist = _hist_from_bin_probs([1.0] * B, 2000, 119, seed=7)
        assert classify_shape(hist) == "inconclusive"

    def test_too_few_bins_still_reports_bias(self):
        hist = build_histogram(np.full(15, 99), 99, 1)
        assert classify_shape(hist) == "biased-high-ranks"


def test_theorem1_rank_uniformity_statistical():
    """Ranks of prior draws within exact posterior draws are discretely uniform."""
    model = make_normal_normal(NormalNormalSpec())
    L = 9
    N = 10_000
    seed = 20260810
    priors = np.array([model.prior_simulator(RandomStream(seed, i, "prior")) for i in range(N)])
    observations = np.array([model.data_simulator(theta, RandomStream(seed, i, "data"))
                             for i, theta in enumerate(priors)])
    draws = sample_exact_conjugate(model, observations, L,
                                   [RandomStream(seed, i, "chain") for i in range(N)])
    counts = np.bincount(rank_statistic(draws[:, :, 0], priors[:, 0]), minlength=L + 1)
    stat, dof = chi_square_uniformity(counts)
    assert dof == 9
    assert stat < CHI2_999_DOF9
