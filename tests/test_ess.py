import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbc.errors import AllConstant, TooShort, ZeroVariance
from sbc.ess import (
    autocorrelation,
    effective_sample_size,
    effective_sample_sizes,
    ess_by_quantity,
    min_ess,
    required_chain_length,
    thin_to,
)
from sbc.model import PosteriorDraws, coordinate


def ar1(phi: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = rng.normal() / math.sqrt(1 - phi**2)
    eps = rng.normal(size=n)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + eps[t]
    return x


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
        with pytest.raises(ZeroVariance):
            autocorrelation(np.ones(100), 5)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            autocorrelation([1.0, 2.0, 3.0], 1)


class TestEffectiveSampleSize:
    def test_iid_close_to_n(self):
        n = 100_000
        rng = np.random.default_rng(3)
        n_eff = effective_sample_size(rng.normal(size=n))
        assert abs(n_eff - n) / n < 0.10

    def test_ar1_half(self):
        # Geometric sum for phi=0.5 gives tau = (1+phi)/(1-phi) = 3.
        n = 100_000
        n_eff = effective_sample_size(ar1(0.5, n, seed=4))
        assert abs(n_eff - n / 3) / (n / 3) < 0.15

    def test_ar1_nine_tenths(self):
        # tau = 1.9 / 0.1 = 19.
        n = 100_000
        n_eff = effective_sample_size(ar1(0.9, n, seed=5))
        assert abs(n_eff - n / 19) / (n / 19) < 0.20

    def test_antithetic_clamp(self):
        x = np.tile([1.0, -1.0], 500) + np.random.default_rng(6).normal(0, 0.01, 1000)
        assert effective_sample_size(x) <= 2 * 1000

    def test_affine_invariance(self):
        x = ar1(0.7, 5000, seed=7)
        a = effective_sample_size(x)
        b = effective_sample_size(3.5 * x - 11.0)
        assert abs(a - b) / a < 1e-8


class TestRequiredChainLength:
    def test_scaling_formula(self):
        assert required_chain_length(1000, 100, 50.0) == (2000, False)

    def test_already_sufficient(self):
        assert required_chain_length(1000, 100, 200.0) == (1000, False)

    def test_cap(self):
        plan = required_chain_length(1000, 100, 0.5, max_chain_length=100_000)
        assert plan == (100_000, True)

    def test_rounding_up(self):
        assert required_chain_length(1000, 99, 70.0).length == math.ceil(1000 * 99 / 70)


def _draws(values: np.ndarray) -> PosteriorDraws:
    values = np.atleast_2d(values.T).T if values.ndim == 1 else values
    return PosteriorDraws(
        names=tuple(f"p{i}" for i in range(values.shape[1])),
        values=values,
        chain_length_raw=values.shape[0],
    )


class TestThinTo:
    def test_exact_stride(self):
        draws = _draws(np.arange(1000, dtype=float).reshape(-1, 1))
        thinned = thin_to(draws, 100)
        np.testing.assert_array_equal(thinned.values[:, 0], np.arange(0, 1000, 10))
        assert thinned.chain_length_raw == 1000

    def test_identity_when_equal(self):
        draws = _draws(np.arange(100, dtype=float).reshape(-1, 1))
        np.testing.assert_array_equal(thin_to(draws, 100).values, draws.values)

    def test_no_repeats_when_slightly_longer(self):
        draws = _draws(np.arange(105, dtype=float).reshape(-1, 1))
        thinned = thin_to(draws, 100)
        assert len(thinned) == 100
        assert len(np.unique(thinned.values[:, 0])) == 100

    def test_too_short(self):
        with pytest.raises(TooShort):
            thin_to(_draws(np.arange(50, dtype=float).reshape(-1, 1)), 100)

    def test_output_length_property(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 500))
            L = int(rng.integers(1, n + 1))
            assert len(thin_to(_draws(rng.normal(size=(n, 1))), L)) == L


def reference_ess(series) -> float:
    """The per-series reference, with a constant series read as NaN."""
    try:
        return effective_sample_size(series)
    except ZeroVariance:
        return math.nan


def assert_rows_match_reference(series):
    """The block ESS of every row equals the per-series reference bit for bit."""
    with np.errstate(all="ignore"):
        got = effective_sample_sizes(series)
        want = np.array([reference_ess(row) for row in series])
    np.testing.assert_array_equal(got, want)


ROW_KINDS = ("ar1", "constant", "antithetic", "huge", "tiny")


def block_of(kinds, n, seed):
    """One series per kind: AR(1) with a random coefficient and scale; a constant;
    an alternating series with small noise, whose lag pairs never turn non-positive;
    values near the float maximum, whose mean overflows to inf; and deviations so
    small that the variance may round to zero."""
    rng = np.random.default_rng(seed)
    series = np.empty((len(kinds), n))
    for r, kind in enumerate(kinds):
        if kind == "ar1":
            series[r] = rng.lognormal(0.0, 2.0) * ar1(rng.uniform(-0.9, 0.99), n,
                                                     int(rng.integers(2**31)))
        elif kind == "constant":
            series[r] = rng.choice([0.0, 1.0, -2.5, 0.1])
        elif kind == "antithetic":
            series[r] = np.tile([1.0, -1.0], n)[:n] + rng.normal(0.0, 1e-3, n)
        elif kind == "huge":
            series[r] = 1.5e308 * rng.uniform(0.9, 1.0, n)
        else:
            series[r] = rng.normal(0.0, 10.0 ** rng.uniform(-175.0, -150.0), n)
    return series


class TestBlockEss:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=40),
           n=st.integers(4, 600), seed=st.integers(0, 2**32 - 1))
    def test_rows_match_reference(self, kinds, n, seed):
        assert_rows_match_reference(block_of(kinds, n, seed))

    @pytest.mark.parametrize("n", [99, 200, 256])
    def test_block_product_past_the_elision_size(self, n):
        """From 128 rows at m=256 a whole-block complex product is large enough for
        numpy to compute it in place with swapped operands, which rounds differently
        from the reference's 1-D product."""
        assert_rows_match_reference(block_of(["ar1"] * 150, n, seed=n))

    @pytest.mark.parametrize("n", [16_000, 17_000])
    def test_long_series(self, n):
        """From m=32768 the reference's own 1-D product is computed in place."""
        assert_rows_match_reference(np.vstack([ar1(0.95, n, seed) for seed in range(6)]
                                              + [np.full(n, 0.3)]))

    @pytest.mark.parametrize("n", [4, 5, 600, 601])
    def test_antithetic_rows_never_truncate(self, n):
        series = block_of(["antithetic"] * 3, n, seed=n)
        for row in series:
            rho = autocorrelation(row, n - 1)
            padded = rho if n % 2 == 0 else np.append(rho, 0.0)
            assert np.all(padded[0::2] + padded[1::2] > 0)
        assert_rows_match_reference(series)


class TestEssByQuantity:
    def test_rows_match_reference_per_quantity(self):
        rng = np.random.default_rng(14)
        draws = [_draws(np.column_stack([ar1(phi, 300, seed=i), rng.normal(size=300)]))
                 for i, phi in enumerate((0.2, 0.8, 0.95))]
        quantities = [coordinate("p1"), coordinate("p0")]
        got = ess_by_quantity(draws, quantities)
        assert got.shape == (3, 2)
        for r, d in enumerate(draws):
            for j, col in enumerate((1, 0)):
                assert got[r, j] == effective_sample_size(d.values[:, col])

    def test_unequal_lengths_raise(self):
        draws = [_draws(ar1(0.5, n, seed=n).reshape(-1, 1)) for n in (3, 5)]
        with pytest.raises(ValueError, match="equal lengths"):
            ess_by_quantity(draws, [coordinate("p0")])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_short_chains_read_nan(self, n):
        draws = [_draws(np.arange(float(n)).reshape(-1, 1) * k) for k in (1, 2)]
        assert np.isnan(ess_by_quantity(draws, [coordinate("p0")])).all()


class TestMinEssAcrossQuantities:
    def test_single_quantity(self):
        x = ar1(0.5, 20_000, seed=9)
        draws = _draws(x.reshape(-1, 1))
        direct = effective_sample_size(x)
        assert min_ess(ess_by_quantity([draws], [coordinate("p0")])[0]) == pytest.approx(direct)

    def test_minimum_dominated_by_slow_quantity(self):
        n = 50_000
        iid = np.random.default_rng(10).normal(size=n)
        slow = ar1(0.9, n, seed=11)
        draws = _draws(np.column_stack([iid, slow]))
        got = min_ess(ess_by_quantity([draws], [coordinate("p0"), coordinate("p1")])[0])
        assert got == pytest.approx(effective_sample_size(slow))

    def test_constant_quantity_excluded(self):
        n = 5000
        varying = ar1(0.5, n, seed=12)
        draws = _draws(np.column_stack([varying, np.ones(n)]))
        got = min_ess(ess_by_quantity([draws], [coordinate("p0"), coordinate("p1")])[0])
        assert got == pytest.approx(effective_sample_size(varying))

    def test_all_constant_raises(self):
        draws = _draws(np.ones((100, 1)))
        with pytest.raises(AllConstant):
            min_ess(ess_by_quantity([draws], [coordinate("p0")])[0])
