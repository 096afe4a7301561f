import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbc import runner
from sbc.errors import TooShort
from sbc.ess import (
    ANTITHETIC_ALLOWANCE,
    effective_sample_sizes,
    ess_by_quantity,
    required_chain_length,
    thin_to,
)
from sbc.model import coordinate


def ar1(phi: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = rng.normal() / math.sqrt(1 - phi**2)
    eps = rng.normal(size=n)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + eps[t]
    return x


def autocorrelation(series, max_lag: int) -> np.ndarray:
    """Reference autocorrelations rho_0..rho_max_lag of one series, via FFT.

    Centred, and normalised by the lag-0 autocovariance, so rho_0 == 1.  Raises
    ValueError below 4 draws, and for a series without an estimate: a constant
    one, or one whose lag-0 autocovariance is not finite and positive.
    """
    x = np.asarray(series, dtype=np.float64)
    n = x.size
    if n < 4:
        raise ValueError(f"need at least 4 samples, got {n}")
    if max_lag < 0 or max_lag >= n:
        raise ValueError("max_lag must be in [0, n)")
    m = 1
    while m < 2 * n:
        m <<= 1
    f = np.fft.rfft(x - x.mean(), m)
    acov = np.fft.irfft(f.real**2 + f.imag**2, m)[:n] / n
    if np.ptp(x) == 0 or not 0 < acov[0] < math.inf:
        raise ValueError("the series has no autocorrelation estimate")
    return acov[: max_lag + 1] / acov[0]


def effective_sample_size(series) -> float:
    """Reference effective size of one series, NaN where it has no estimate.

    The same arithmetic as the block estimator, with Geyer's paired-sum
    truncation as a plain loop: sum the pairs rho_2t + rho_2t+1 up to the first
    non-positive one.
    """
    x = np.asarray(series, dtype=np.float64)
    n = x.size
    try:
        rho = autocorrelation(x, n - 1)
    except ValueError:
        return math.nan
    padded = rho if n % 2 == 0 else np.append(rho, 0.0)
    kept = 0.0
    for pair in padded[0::2] + padded[1::2]:
        if pair <= 0.0:
            break
        kept += pair
    tau = 2.0 * kept - 1.0
    cap = ANTITHETIC_ALLOWANCE * n
    return float(min(n / tau, cap) if tau > 0 else cap)


class TestAutocorrelation:
    def test_rho0_is_one(self):
        rng = np.random.default_rng(0)
        rho = autocorrelation(rng.normal(size=100), 10)
        assert rho[0] == pytest.approx(1.0)

    def test_iid_series_has_tiny_lag1(self):
        rng = np.random.default_rng(1)
        rho = autocorrelation(rng.normal(size=100_000), 1)
        assert abs(rho[1]) < 0.02

    def test_alternating_series(self):
        n = 1000
        x = np.tile([1.0, -1.0], n // 2)
        rho = autocorrelation(x, 1)
        assert abs(rho[1] - (-1.0)) <= 2 / n

    def test_ar1_lag1_matches_coefficient(self):
        rho = autocorrelation(ar1(0.9, 100_000, seed=2), 1)
        assert rho[1] == pytest.approx(0.9, abs=0.02)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="no autocorrelation"):
            autocorrelation(np.ones(100), 5)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            autocorrelation([1.0, 2.0, 3.0], 1)


class TestEffectiveSampleSize:
    """Series of known effective size, estimated as rows of the block estimator."""

    def test_iid_close_to_n(self):
        n = 100_000
        rng = np.random.default_rng(3)
        n_eff = effective_sample_sizes(rng.normal(size=(1, n)))[0]
        assert abs(n_eff - n) / n < 0.10

    def test_ar1_half(self):
        # Geometric sum for phi=0.5 gives tau = (1+phi)/(1-phi) = 3.
        n = 100_000
        n_eff = effective_sample_sizes(ar1(0.5, n, seed=4)[None])[0]
        assert abs(n_eff - n / 3) / (n / 3) < 0.15

    def test_ar1_nine_tenths(self):
        # tau = 1.9 / 0.1 = 19.
        n = 100_000
        n_eff = effective_sample_sizes(ar1(0.9, n, seed=5)[None])[0]
        assert abs(n_eff - n / 19) / (n / 19) < 0.20

    def test_antithetic_clamp(self):
        x = np.tile([1.0, -1.0], 500) + np.random.default_rng(6).normal(0, 0.01, 1000)
        assert effective_sample_sizes(x[None])[0] == 2 * 1000

    def test_affine_invariance(self):
        x = ar1(0.7, 5000, seed=7)
        a, b = effective_sample_sizes(np.vstack([x, 3.5 * x - 11.0]))
        assert abs(a - b) / a < 1e-8

    def test_ar1_grid(self):
        """n (1 - rho) / (1 + rho) for a seeded AR(1) grid at n = 100,000.  Over 20
        seeds per rho the estimate's relative sd was 2.0% (rho=-0.3), 1.0% (0),
        1.9% (0.5) and 4.3% (0.9), so the 15% tolerance is about 3.5 sd at 0.9
        and at least 7 sd elsewhere."""
        n = 100_000
        rhos = np.array([-0.3, 0.0, 0.5, 0.9])
        got = effective_sample_sizes(np.vstack([ar1(rho, n, seed=20 + k)
                                                for k, rho in enumerate(rhos)]))
        np.testing.assert_allclose(got, n * (1 - rhos) / (1 + rhos), rtol=0.15)


class TestRequiredChainLength:
    def test_scaling_formula(self):
        assert required_chain_length(1000, 100, 50.0, 100_000) == (2000, False)

    def test_already_sufficient(self):
        assert required_chain_length(1000, 100, 200.0, 100_000) == (1000, False)

    def test_cap(self):
        plan = required_chain_length(1000, 100, 0.5, 100_000)
        assert plan == (100_000, True)

    def test_rounding_up(self):
        assert required_chain_length(1000, 99, 70.0, 100_000).length == math.ceil(1000 * 99 / 70)


# Column names of the (n, d) chains below, d <= 2, and their coordinates.
NAMES = ("p0", "p1")
P0, P1 = (coordinate(p, NAMES) for p in NAMES)


def _draws(values: np.ndarray) -> np.ndarray:
    return np.atleast_2d(values.T).T if values.ndim == 1 else values


def thin_one(draws: np.ndarray, L: int) -> np.ndarray:
    """An (n, d) chain thinned to L, as a one-row block of its own length."""
    return thin_to(draws[np.newaxis], L, [len(draws)])[0]


class TestThinTo:
    def test_exact_stride(self):
        draws = _draws(np.arange(1000, dtype=float).reshape(-1, 1))
        thinned = thin_one(draws, 100)
        np.testing.assert_array_equal(thinned[:, 0], np.arange(0, 1000, 10))
        assert len(thinned) == 100

    def test_identity_when_equal(self):
        draws = _draws(np.arange(100, dtype=float).reshape(-1, 1))
        np.testing.assert_array_equal(thin_one(draws, 100), draws)

    def test_no_repeats_when_slightly_longer(self):
        draws = _draws(np.arange(105, dtype=float).reshape(-1, 1))
        thinned = thin_one(draws, 100)
        assert len(thinned) == 100
        assert len(np.unique(thinned[:, 0])) == 100

    def test_too_short(self):
        with pytest.raises(TooShort):
            thin_one(_draws(np.arange(50, dtype=float).reshape(-1, 1)), 100)
        with pytest.raises(TooShort):
            thin_to(np.zeros((2, 200, 1)), 100, [200, 99])

    def test_output_length_property(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 500))
            L = int(rng.integers(1, n + 1))
            assert len(thin_one(_draws(rng.normal(size=(n, 1))), L)) == L

    def test_ragged_rows_equal_rows_thinned_alone(self):
        """Each row of a block keeps the states its own chain would keep alone."""
        draws = np.random.default_rng(9).normal(size=(4, 300, 2))
        lengths = [300, 100, 217, 31]
        thinned = thin_to(draws, 31, lengths)
        assert thinned.shape == (4, 31, 2)
        for r, n in enumerate(lengths):
            np.testing.assert_array_equal(thinned[r], thin_one(draws[r, :n], 31))


def assert_rows_match_reference(series) -> np.ndarray:
    """The block ESS of every row equals the per-series reference bit for bit;
    returns the block ESS."""
    with np.errstate(all="ignore"):
        got = effective_sample_sizes(series)
        want = np.array([effective_sample_size(row) for row in series])
    np.testing.assert_array_equal(got, want)
    return got


ROW_KINDS = ("ar1", "constant", "antithetic", "huge", "wide", "tiny")
# Constant rows cycle through these.  The last four leave a residue of about
# 1e-17 after x - x.mean(), which once read as an effective size of 1.
CONSTANTS = (0.0, 1.0, -2.5, 0.1, 0.3, 1e-3, 3.3)


def block_of(kinds, n, seed):
    """One series per kind: AR(1) with a random coefficient and scale; a constant;
    an alternating series with small noise, whose lag pairs never turn non-positive;
    values near the float maximum, whose mean overflows to inf; deviations of about
    1e200, whose squares overflow; and deviations so small that the variance may
    underflow to zero."""
    rng = np.random.default_rng(seed)
    series = np.empty((len(kinds), n))
    for r, kind in enumerate(kinds):
        if kind == "ar1":
            series[r] = rng.lognormal(0.0, 2.0) * ar1(rng.uniform(-0.9, 0.99), n,
                                                     int(rng.integers(2**31)))
        elif kind == "constant":
            series[r] = CONSTANTS[r % len(CONSTANTS)]
        elif kind == "antithetic":
            series[r] = np.tile([1.0, -1.0], n)[:n] + rng.normal(0.0, 1e-3, n)
        elif kind == "huge":
            series[r] = 1.5e308 * rng.uniform(0.9, 1.0, n)
        elif kind == "wide":
            series[r] = rng.normal(0.0, 1e200, n)
        else:
            series[r] = rng.normal(0.0, 10.0 ** rng.uniform(-175.0, -150.0), n)
    return series


class TestBlockEss:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=40),
           n=st.integers(4, 600), seed=st.integers(0, 2**32 - 1))
    @example(kinds=["constant"] * len(CONSTANTS) + ["ar1"], n=99, seed=0)
    @example(kinds=["constant"] * len(CONSTANTS) + ["ar1"], n=990, seed=0)
    def test_rows_match_reference(self, kinds, n, seed):
        got = assert_rows_match_reference(block_of(kinds, n, seed))
        no_estimate = np.isin(kinds, ["constant", "huge", "wide"])
        assert np.isnan(got[no_estimate]).all()

    @pytest.mark.parametrize("kind", ["wide", "huge"])
    def test_overflowing_rows_read_nan(self, kind):
        """Squared deviations or a mean that overflow leave no finite lag-0
        autocovariance; the row once read as the antithetic cap 2n."""
        with np.errstate(all="ignore"):
            got = effective_sample_sizes(block_of([kind, "ar1"], 99, seed=1))
        assert np.isnan(got[0]) and np.isfinite(got[1])

    @pytest.mark.parametrize("n", [8192, 8193, 17_000])
    def test_row_is_block_invariant(self, n):
        """Each row's estimate is the same bits alone, inside a 129-row block and
        from the reference.  The FFT length m goes 16384 -> 32768 between the first
        two lengths, where numpy used to swap the operands of a complex product."""
        rng = np.random.default_rng(n)
        phis = rng.uniform(0.5, 0.99, 129)
        eps = rng.normal(size=(n, 129))
        for t in range(1, n):
            eps[t] += phis * eps[t - 1]
        block = np.ascontiguousarray(eps.T)
        alone = [effective_sample_sizes(row[None])[0] for row in block]
        np.testing.assert_array_equal(effective_sample_sizes(block), alone)
        np.testing.assert_array_equal(alone, [effective_sample_size(row) for row in block])

    @pytest.mark.parametrize("n", [4, 5, 600, 601])
    def test_antithetic_rows_never_truncate(self, n):
        series = block_of(["antithetic"] * 3, n, seed=n)
        for row in series:
            rho = autocorrelation(row, n - 1)
            padded = rho if n % 2 == 0 else np.append(rho, 0.0)
            assert np.all(padded[0::2] + padded[1::2] > 0)
        assert_rows_match_reference(series)


def one_chain(values: np.ndarray) -> np.ndarray:
    """A 1-chain (1, n, d) block of an (n, d) chain."""
    return values[np.newaxis]


class TestEssByQuantity:
    def test_rows_match_reference_per_quantity(self):
        rng = np.random.default_rng(14)
        draws = np.stack([np.column_stack([ar1(phi, 300, seed=i), rng.normal(size=300)])
                          for i, phi in enumerate((0.2, 0.8, 0.95))])
        quantities = [P1, P0]
        got = ess_by_quantity(draws, quantities)
        assert got.shape == (3, 2)
        for r, d in enumerate(draws):
            for j, col in enumerate((1, 0)):
                assert got[r, j] == effective_sample_size(d[:, col])

    @pytest.mark.parametrize("n", [99, 300, 8193])
    def test_strided_block_matches_copies(self, n):
        """The leading n draws of a longer block, a strided view, give the bits of a
        C-ordered copy and of each chain alone."""
        rng = np.random.default_rng(n)
        block = rng.normal(size=(5, n + 7, 2)).cumsum(axis=1)
        view = block[1:4, :n]
        quantities = [P0, P1]
        got = ess_by_quantity(view, quantities)
        np.testing.assert_array_equal(got, ess_by_quantity(np.ascontiguousarray(view),
                                                           quantities))
        for r, chain in enumerate(view):
            np.testing.assert_array_equal(got[r], ess_by_quantity(one_chain(chain.copy()),
                                                                  quantities)[0])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_short_chains_read_nan(self, n):
        draws = np.stack([np.arange(float(n)).reshape(-1, 1) * k for k in (1, 2)])
        assert np.isnan(ess_by_quantity(draws, [P0])).all()


ALL_CONSTANT = "AllConstant: every quantity is constant or degenerate over the chain"


def ess_floor(*rows):
    """Algorithm 2's floor of each (Q,) ESS row, as a runner block takes it (None for a row
    without one), and each row's failure reason."""
    ess = np.array(rows, dtype=np.float64).reshape(len(rows), -1)
    block = runner._Block(range(len(rows)), ess.shape[1], 99)
    block.ess[:] = ess
    live, floor = block.ess_floor(np.arange(len(rows)))
    floors = [None] * len(rows)
    for r, value in zip(live.tolist(), floor.tolist()):
        floors[r] = value
    return floors, block.reasons.tolist()


class TestEssFloor:
    """Each row's smallest ESS over the quantities that have one, for a whole block; a row
    with none fails AllConstant."""

    def test_single_quantity(self):
        x = ar1(0.5, 20_000, seed=9)
        draws = _draws(x.reshape(-1, 1))
        direct = effective_sample_size(x)
        ess = ess_by_quantity(one_chain(draws), [P0])[0]
        assert ess_floor(ess)[0][0] == pytest.approx(direct)

    def test_minimum_dominated_by_slow_quantity(self):
        n = 50_000
        iid = np.random.default_rng(10).normal(size=n)
        slow = ar1(0.9, n, seed=11)
        draws = _draws(np.column_stack([iid, slow]))
        [got], _ = ess_floor(ess_by_quantity(one_chain(draws), [P0, P1])[0])
        assert got == pytest.approx(effective_sample_size(slow))

    def test_constant_quantity_excluded(self):
        for n, c in [(5000, 1.0), (99, 0.1), (99, 0.3), (99, 1e-3), (990, 3.3)]:
            varying = ar1(0.5, n, seed=12)
            draws = _draws(np.column_stack([varying, np.full(n, c)]))
            ess = ess_by_quantity(one_chain(draws), [P0, P1])[0]
            assert np.isnan(ess[1])
            assert ess_floor(ess)[0] == [ess[0]] == [effective_sample_size(varying)]

    def test_constant_quantity_does_not_plan_the_rerun(self):
        """A 0.1-constant quantity beside an AR(1) one: the plan scales by the
        AR(1) quantity's effective size, not by 1."""
        varying = ar1(0.9, 99, seed=13)
        draws = _draws(np.column_stack([np.full(99, 0.1), varying]))
        [ess], _ = ess_floor(ess_by_quantity(one_chain(draws), [P0, P1])[0])
        assert ess == effective_sample_sizes(varying[None])[0]
        assert required_chain_length(99, 99, ess, 100_000) == (math.ceil(99 * 99 / ess), False)

    def test_all_constant_fails(self):
        draws = _draws(np.ones((100, 1)))
        assert ess_floor(ess_by_quantity(one_chain(draws), [P0])[0]) == (
            [None], [ALL_CONSTANT])

    def test_block_rows_take_their_own_floor(self):
        floors, reasons = ess_floor([3.0, np.nan, 2.0], [np.nan, 5.0, np.nan], [7.0, 7.0, 1.5])
        assert floors == [2.0, 5.0, 1.5] and reasons == [None] * 3

    def test_row_without_an_estimate_fails_alone(self):
        assert ess_floor([np.nan, np.nan], [4.0, 6.0], [np.nan, np.nan]) == (
            [None, 4.0, None], [ALL_CONSTANT, None, ALL_CONSTANT])

    def test_no_quantities_fail_every_row(self):
        assert ess_floor([], []) == ([None, None], [ALL_CONSTANT, ALL_CONSTANT])
