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
    histogram_band,
    rank_statistic,
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
# The levels at which a window is tested where it is narrowest.
WINDOW_LEVELS = (1e-9, 0.005, 0.5, 0.995, 1.0 - 1e-9, 1.0)


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


def rebinned(ranks, L: int, B: int) -> np.ndarray:
    """The counts of ranks in B display bins of 0..L."""
    ranks = np.asarray(ranks)
    return build_histogram(ranks, histogram_band(ranks.size, L, B))


class TestBuildHistogram:
    def test_pairing(self):
        np.testing.assert_array_equal(rebinned([0, 1, 2, 3], 3, 2), [2, 2])

    def test_point_mass_goes_to_last_bin(self):
        counts = rebinned([5] * 7, 5, 6)
        np.testing.assert_array_equal(counts, [0, 0, 0, 0, 0, 7])

    def test_neighbors_share_bin(self):
        counts = rebinned([0, 1], 99, 50)
        assert counts[0] == 2

    def test_indivisible_binning_message(self):
        with pytest.raises(IndivisibleBinning, match="power of 2"):
            histogram_band(2, 99, 7)

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            L = 99
            ranks = rng.integers(0, L + 1, size=int(rng.integers(1, 500)))
            for B in (1, 2, 4, 5, 10, 20, 25, 50, 100):
                assert rebinned(ranks, L, B).sum() == ranks.size

    def test_band_for_another_count_rejected(self):
        with pytest.raises(ValueError, match="against a band for N=20"):
            build_histogram(np.zeros(10, dtype=int), histogram_band(20, 9, 5))

    @pytest.mark.parametrize("ranks", [[0, -1], [0, 10]])
    def test_ranks_outside_range_rejected(self, ranks):
        with pytest.raises(ValueError, match=r"ranks outside \[0, L\]"):
            build_histogram(ranks, histogram_band(2, 9, 5))


def band_bounds(N: int, B: int, coverage: float = 0.99) -> tuple[int, int]:
    """(low, high) of the band of a histogram of N ranks in B bins, with L = 2B - 1 (the
    band does not depend on L, only L >= 1 with B dividing L+1 is required)."""
    band = histogram_band(N, 2 * B - 1, B, coverage)
    return band.low, band.high


class TestUniformBand:
    def test_single_fair_bernoulli(self):
        assert band_bounds(1, 2) == (0, 1)

    def test_degenerate_p_equal_one(self):
        assert band_bounds(40, 1) == (40, 40)

    def test_frozen_oracle_values(self):
        # Frozen from an exact binomial CDF oracle (scipy.stats.binom.ppf).
        assert band_bounds(2000, 100) == (10, 32)
        assert band_bounds(2000, 20) == (76, 126)
        assert band_bounds(1000, 20) == (33, 69)

    def test_matches_scipy_across_grid(self):
        for N in (1, 10, 100, 2000, 5000):
            for B in (1, 2, 3, 10, 20, 100):
                lo, hi = band_bounds(N, B)
                assert lo == int(stats.binom.ppf(0.005, N, 1 / B))
                assert hi == int(stats.binom.ppf(0.995, N, 1 / B))

    def test_band_contains_mean_when_coverage_reasonable(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            N = int(rng.integers(1, 3000))
            B = int(rng.integers(1, 120))
            lo, hi = band_bounds(N, B, coverage=0.5 + 0.49 * rng.random())
            assert lo <= N / B <= hi

    @pytest.mark.parametrize("N, L, B", [(1, 1, 1), (1, 1, 2), (1, 99, 100), (7, 9, 1),
                                         (40, 19, 20), (400, 99, 100), (2000, 1023, 1024),
                                         (5000, 99, 20), (333, 14, 15)])
    def test_median_equals_reference(self, N, L, B):
        for coverage in (0.5, 0.9, 0.99):
            band = histogram_band(N, L, B, coverage)
            assert band.median == sequential_binomial_quantile(0.5, N, 1.0 / B)
            assert band.low <= band.median <= band.high

    @pytest.mark.parametrize("N, B, coverage", [(0, 2, 0.99), (10, 2, 0.0), (10, 2, 1.0),
                                                (10, 2, -0.5), (10, 2, math.nan), (10, 0, 0.99)])
    def test_bad_arguments_rejected(self, N, B, coverage):
        with pytest.raises(ValueError, match=r"^(N|B) must be an integer >= 1, got 0$|"
                                             r"^coverage must be in \(0, 1\), got "):
            histogram_band(N, 9, B, coverage)

    @pytest.mark.parametrize("N, L, B, name", [(10, 9, 2.0, "B"), (10, 9, True, "B"),
                                               (10, 2.5, 1, "L"), (10, 0, 1, "L"),
                                               (10, -1, 1, "L"), (10.0, 9, 2, "N")])
    def test_size_that_is_not_an_integer_at_least_1_named(self, N, L, B, name):
        """Each of N, L and B must be an integer >= 1, as a run's are."""
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 1, got "):
            histogram_band(N, L, B)


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

    def test_window_width_does_not_change_results(self, monkeypatch):
        # At n=2000 the default windows (one chunk of 405 terms) start past k=0
        # from p about 0.045 and end before n up to about 0.86, so levels 0, 1e-9,
        # 1-1e-9 and 1 cross at a window's first term or past its end and are
        # summed again.  Windows of 2 and 47 terms leave out most of the pmf, so a
        # level that crosses inside them is summed again for the terms left out.
        # At p = 1 - 2**-53 a window of 2 holds nearly all the mass at k = n, and
        # level 0 is summed again only for crossing at the window's first term.
        qs, n = (*SPECIAL_LEVELS, 0.5), 2000
        ps = [*np.linspace(0.0, 1.0, 23), 1.0 - 2.0**-53]
        expected = _reference_grid(qs, n, ps)
        for sds in (0, 1, rankstats.QUANTILE_WINDOW_SDS, 1e9):
            monkeypatch.setattr(rankstats, "QUANTILE_WINDOW_SDS", sds)
            np.testing.assert_array_equal(binomial_quantiles(qs, n, ps), expected)

    def test_exact_nn_band(self):
        # The band of N=10000 ranks on 0..1023 (windows of 280 to 617 of the 10001
        # terms) at every 16th point and the first and last 8, against the
        # reference's running sums, computed once per point.
        N, L = 10_000, 1023
        tail = (1.0 - 0.99) / 2.0
        points = sorted({*range(0, L + 1, 16), *range(8), *range(L - 7, L + 1)})
        expected = np.array([
            np.minimum(np.searchsorted(sequential_binomial_cdf(N, (k + 1) / (L + 1)),
                                       [tail, 1.0 - tail]), N) if k < L else [N, N]
            for k in points])
        band = ecdf_band(N, L)
        np.testing.assert_array_equal(band.low[points], expected[:, 0] / N)
        np.testing.assert_array_equal(band.high[points], expected[:, 1] / N)

    @pytest.mark.parametrize("p", [1 / 4096, 4095 / 4096])
    def test_narrow_windows_of_a_skewed_binomial(self, p):
        # At n=200,000 the row's sd is about 7, so its window holds 112 or 113 of
        # the 200,001 terms.  At 4095/4096 the 199,889 terms left of it, whose tail
        # is Poisson-like rather than normal, are all bounded by the term next
        # to the window.
        n = 200_000
        np.testing.assert_array_equal(binomial_quantiles(WINDOW_LEVELS, n, [p]),
                                      _reference_grid(WINDOW_LEVELS, n, [p]))
        assert binomial_quantiles([], n, [p]).shape == (1, 0)
        # Levels on a running sum, and an ulp from it, inside the window.
        sums = sequential_binomial_cdf(n, p)
        qs = [level for k in np.searchsorted(sums, [0.005, 0.5, 0.995])
              for level in (sums[k], np.nextafter(sums[k], 0.0), np.nextafter(sums[k], 2.0))
              if level <= 1.0]
        np.testing.assert_array_equal(binomial_quantiles(qs, n, [p])[0],
                                      np.minimum(np.searchsorted(sums, qs), n))

    def test_narrow_windows_of_small_n(self):
        # Each row's sd is below 1 at the extreme p, so its window holds a term or two.
        ps = [2.0**-53, 1e-9, 1e-3, 0.05, 0.95, 1.0 - 1e-3, 1.0 - 1e-9, 1.0 - 2.0**-53]
        for n in range(1, 21):
            np.testing.assert_array_equal(binomial_quantiles(WINDOW_LEVELS, n, ps),
                                          _reference_grid(WINDOW_LEVELS, n, ps))
            assert binomial_quantiles([], n, ps).shape == (len(ps), 0)

    def test_exact_nn_band_window_size(self, monkeypatch):
        # Every window term the band of N=10000 ranks on 0..1023 sums.  A window
        # sized for Binomial(n, 1/2) in every row would make 1023 x 1201 = 1,228,623.
        sizes = []
        windows = rankstats._windows

        def recorded(qs, n, ps):
            chunks = windows(qs, n, ps)
            sizes.extend(rows.size * width for rows, _, width in chunks)
            return chunks
        monkeypatch.setattr(rankstats, "_windows", recorded)
        ecdf_band(10_000, 1023)
        assert sum(sizes) == 517_663

    def test_windows_take_each_row_once_in_bounded_chunks(self):
        qs, n = np.array([0.005, 0.995]), 10_000
        ps = np.concatenate([np.arange(1025) / 1024, [0.5, 2.0**-53]])
        chunks = rankstats._windows(qs, n, ps)
        rows = np.concatenate([rows for rows, _, _ in chunks])
        np.testing.assert_array_equal(np.sort(rows), np.flatnonzero((ps > 0.0) & (ps < 1.0)))
        widths = [width for _, _, width in chunks]
        assert widths == sorted(widths, reverse=True)
        for rows, firsts, width in chunks:
            assert rows.size * (width + 1) <= max(rankstats.QUANTILE_CHUNK_FLOATS, width + 1)
            assert firsts.min() >= 0 and firsts.max() + width <= n + 1

    @pytest.mark.parametrize("n, p", [(-1, 0.5), (10, math.nan), (10, -1e-12),
                                      (10, 1.0 + 1e-12), (10, [0.2, math.nan])])
    def test_bad_trials_or_probability_rejected(self, n, p):
        with pytest.raises(ValueError, match="number of trials|success probability"):
            binomial_quantiles(0.5, n, p)

    def test_trials_that_are_not_an_integer_rejected(self):
        for n in (10.5, 10.0, True, "10"):
            with pytest.raises(ValueError, match="number of trials must be an integer >= 0"):
                binomial_quantiles(0.5, n, 0.3)

    def test_numpy_integer_trials_accepted(self):
        for n in (np.int64(10), np.int32(10), np.uint8(10)):
            np.testing.assert_array_equal(binomial_quantiles([0.05, 0.5], n, 0.3),
                                          binomial_quantiles([0.05, 0.5], 10, 0.3))

    @pytest.mark.parametrize("q", [-1e-12, -0.5, 1.0 + 1e-12, 2.0, math.nan])
    def test_bad_level_rejected(self, q):
        with pytest.raises(ValueError, match=r"quantile level must be in \[0, 1\]"):
            binomial_quantiles([0.5, q], 10, [0.3])
        with pytest.raises(ValueError):
            binomial_quantiles(q, 10, 0.3)
        with pytest.raises(ValueError):
            sequential_binomial_quantile(q, 10, 0.3)


def ecdf_of(ranks, L):
    """ECDF values of the ranks, and the default band for their count."""
    ranks = np.asarray(ranks)
    band = ecdf_band(ranks.size, L)
    return ecdf_summary(ranks, band), band


class TestEcdf:
    def test_perfect_uniformity_diff_zero(self):
        L = 9
        ranks = np.arange(L + 1)
        values, band = ecdf_of(ranks, L)
        np.testing.assert_allclose(values, band.expected)
        np.testing.assert_allclose(values - band.expected, 0.0, atol=1e-15)

    def test_point_mass_at_zero(self):
        L = 9
        values, band = ecdf_of(np.zeros(100, dtype=int), L)
        np.testing.assert_allclose(values, 1.0)
        assert (values - band.expected)[0] == pytest.approx(1 - 1 / (L + 1))

    def test_final_diff_always_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            ranks = rng.integers(0, 100, size=200)
            values, band = ecdf_of(ranks, 99)
            assert (values - band.expected)[-1] == pytest.approx(0.0)

    def test_values_nondecreasing_and_end_at_one(self):
        rng = np.random.default_rng(6)
        ranks = rng.integers(0, 100, size=500)
        values, band = ecdf_of(ranks, 99)
        assert np.all(np.diff(values) >= 0)
        assert values[-1] == 1.0
        assert np.all(np.diff(band.expected) > 0)

    def test_pointwise_envelope_coverage_for_uniform_ranks(self):
        # Statistical property: about 1% of the 100 points may fall outside.
        rng = np.random.default_rng(2026)
        ranks = rng.integers(0, 100, size=2000)
        values, band = ecdf_of(ranks, 99)
        inside = np.sum((values >= band.low) & (values <= band.high))
        assert inside >= 97

    def test_band_for_another_count_rejected(self):
        with pytest.raises(ValueError, match="against a band for N=20"):
            ecdf_summary(np.zeros(10, dtype=int), ecdf_band(20, 9))

    @pytest.mark.parametrize("N, coverage", [(0, 0.99), (-1, 0.99), (5, 0.0), (5, 1.0),
                                             (5, -0.5), (5, 1.5), (5, math.nan)])
    def test_bad_band_arguments_rejected(self, N, coverage):
        with pytest.raises(ValueError, match=r"^N must be an integer >= 1, got |"
                                             r"^coverage must be in \(0, 1\), got "):
            ecdf_band(N, 9, coverage)

    def test_negative_L_rejected(self):
        with pytest.raises(ValueError, match="L must be an integer >= 1, got -1"):
            ecdf_band(10, -1)

    def test_L_zero_rejected(self):
        """An ECDF plot's x axis divides by L, so L = 0 has no band, as it has no run."""
        with pytest.raises(ValueError, match="L must be an integer >= 1, got 0"):
            ecdf_band(10, 0)

    @pytest.mark.parametrize("L", [2.5, 9.0, True])
    def test_L_that_is_not_an_integer_rejected(self, L):
        with pytest.raises(ValueError, match="L must be an integer >= 1"):
            ecdf_band(10, L)


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


def histogram_of(ranks, L, B):
    """(counts, band, mean rank / L) of the ranks in B bins: what classify_shape reads."""
    band = histogram_band(len(ranks), L, B)
    return build_histogram(ranks, band), band, float(np.mean(np.asarray(ranks) / L))


def _hist_from_bin_probs(probs, N, L, seed):
    """Synthesize ranks whose display-bin occupancy follows ``probs``."""
    rng = np.random.default_rng(seed)
    B = len(probs)
    width = (L + 1) // B
    bins = rng.choice(B, size=N, p=np.asarray(probs) / np.sum(probs))
    offsets = rng.integers(0, width, size=N)
    return histogram_of(bins * width + offsets, L, B)


class TestClassifyShape:
    def test_uniform(self):
        hist = _hist_from_bin_probs([1.0] * 20, 2000, 99, seed=1)
        assert classify_shape(*hist) == "uniform"

    def test_u_shape(self):
        probs = np.ones(20)
        probs[0] = probs[-1] = 4.0
        probs[5:15] = 0.5
        hist = _hist_from_bin_probs(probs, 2000, 99, seed=2)
        assert classify_shape(*hist) == "u-shaped"

    def test_cap_shape(self):
        probs = np.ones(20) * 1.4
        probs[0] = probs[-1] = 0.2
        probs[1] = probs[-2] = 0.6
        hist = _hist_from_bin_probs(probs, 2000, 99, seed=3)
        assert classify_shape(*hist) == "cap-shaped"

    def test_boundary_spikes(self):
        probs = np.ones(20) * 0.2
        probs[0] = probs[-1] = 5.0
        hist = _hist_from_bin_probs(probs, 1000, 99, seed=4)
        assert classify_shape(*hist) == "boundary-spikes"

    def test_biased_high(self):
        # Linear tilt toward high ranks.
        probs = np.linspace(0.7, 1.3, 20)
        hist = _hist_from_bin_probs(probs, 2000, 99, seed=5)
        assert classify_shape(*hist) == "biased-high-ranks"

    def test_biased_low(self):
        probs = np.linspace(1.3, 0.7, 20)
        hist = _hist_from_bin_probs(probs, 2000, 99, seed=6)
        assert classify_shape(*hist) == "biased-low-ranks"

    @pytest.mark.parametrize("B", [1, 2, 3])
    def test_too_few_bins_inconclusive(self, B):
        """No shape test runs below 4 bins, so flat counts are not evidence of uniformity."""
        hist = _hist_from_bin_probs([1.0] * B, 2000, 119, seed=7)
        assert classify_shape(*hist) == "inconclusive"

    def test_too_few_bins_still_reports_bias(self):
        hist = histogram_of(np.full(15, 99), 99, 1)
        assert classify_shape(*hist) == "biased-high-ranks"


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
