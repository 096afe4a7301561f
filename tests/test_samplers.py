import math

import numpy as np
import pytest

from sbc.errors import Diverged, InvalidSpec, NonFiniteDensity, NotConjugate, UnknownParameter
from sbc.ess import autocorrelation
from sbc.model import (
    Dataset,
    GenerativeModel,
    ParamVector,
    PosteriorTarget,
    UnconstrainingMap,
    coordinate,
    posterior_target,
)
from sbc.models import EightSchoolsSpec, LinRegSpec, NormalNormalSpec, make_eight_schools, make_lin_reg, make_normal_normal
from sbc.rankstats import rank_statistic
from sbc.samplers import (
    Corruption,
    SamplerConfig,
    corrupt,
    fit_meanfield_vi,
    leapfrog,
    sample_exact_conjugate,
    sample_hmc,
    sample_rw_metropolis,
)
from sbc.streams import RandomStream

from conftest import make_gaussian_model


class TestSamplerConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(InvalidSpec):
            SamplerConfig(kind="nuts")
        with pytest.raises(InvalidSpec):
            SamplerConfig(step_size=0.0)
        with pytest.raises(InvalidSpec):
            SamplerConfig(warmup=-1)


class TestExactConjugate:
    def test_worked_example_mean(self):
        model = make_normal_normal(NormalNormalSpec(0.0, 1.0, 1.0, 1))
        draws = sample_exact_conjugate(model, Dataset(np.array([2.1])), 100_000,
                                       RandomStream(40, 0, "chain"))
        assert abs(draws.values.mean() - 1.05) < 0.01

    def test_symmetric_mean(self):
        model = make_normal_normal(NormalNormalSpec(0.0, 1.0, 1.0, 1))
        draws = sample_exact_conjugate(model, Dataset(np.array([0.0])), 100_000,
                                       RandomStream(41, 0, "chain"))
        assert abs(draws.values.mean()) < 0.01

    def test_variance_matches_precision_addition(self):
        model = make_normal_normal(NormalNormalSpec(0.0, 1.0, 1.0, 1))
        draws = sample_exact_conjugate(model, Dataset(np.array([2.1])), 100_000,
                                       RandomStream(42, 0, "chain"))
        assert draws.values.var() == pytest.approx(0.5, rel=0.02)

    def test_non_conjugate_rejected(self):
        model = make_lin_reg(LinRegSpec())
        with pytest.raises(NotConjugate):
            sample_exact_conjugate(model, Dataset(np.zeros(25)), 10,
                                   RandomStream(43, 0, "chain"))


class TestRwMetropolis:
    def test_standard_normal_mean(self, std_normal_model):
        draws = sample_rw_metropolis(std_normal_model, Dataset(np.array([0.0])),
                                     100_000, 2.4, 0, RandomStream(44, 0, "chain"))
        assert abs(draws.values.mean()) < 0.05

    def test_tiny_step_degenerate_limit(self, std_normal_model):
        draws = sample_rw_metropolis(std_normal_model, Dataset(np.array([0.0])),
                                     2000, 1e-6, 0, RandomStream(45, 0, "chain"))
        assert draws.diagnostics["acceptance_rate"] > 0.999
        rho = autocorrelation(draws.values[:, 0], 1)
        assert rho[1] > 0.99

    def test_same_seed_identical_chain(self, std_normal_model):
        a = sample_rw_metropolis(std_normal_model, Dataset(np.array([0.0])),
                                 500, 1.0, 50, RandomStream(46, 7, "chain"))
        b = sample_rw_metropolis(std_normal_model, Dataset(np.array([0.0])),
                                 500, 1.0, 50, RandomStream(46, 7, "chain"))
        np.testing.assert_array_equal(a.values, b.values)

    def test_non_finite_density_at_init(self):
        model = GenerativeModel(
            name="bad",
            parameter_names=("x",),
            prior_simulator=lambda rng: ParamVector(("x",), np.array([rng.normal()])),
            data_simulator=lambda th, rng: Dataset(np.array([0.0])),
            posterior_factory=lambda data: PosteriorTarget(
                1, lambda z: -math.inf, lambda z: np.array([0.0])),
            quantities=(coordinate("x"),),
            unconstraining_map=UnconstrainingMap(("identity",)),
        )
        with pytest.raises(NonFiniteDensity):
            sample_rw_metropolis(model, Dataset(np.array([0.0])), 10, 1.0, 0,
                                 RandomStream(47, 0, "chain"))

    def test_detailed_balance_occupancy(self):
        """Long-run bin occupancy matches the exact posterior probabilities."""
        model = make_normal_normal(NormalNormalSpec(0.0, 1.0, 1.0, 1))
        data = Dataset(np.array([2.1]))
        draws = sample_rw_metropolis(model, data, 200_000, 1.5, 500,
                                     RandomStream(48, 0, "chain"))
        mean, sd = model.exact_posterior(data)
        edges = mean + sd * np.linspace(-3, 3, 13)
        occupancy, _ = np.histogram(draws.values[:, 0], bins=edges)
        occupancy = occupancy / len(draws)

        def norm_cdf(x):
            return 0.5 * (1 + math.erf((x - mean) / (sd * math.sqrt(2))))

        expected = np.diff([norm_cdf(e) for e in edges])
        np.testing.assert_allclose(occupancy, expected, atol=0.02)

    def test_warmup_adapts_toward_target_acceptance(self, std_normal_model):
        draws = sample_rw_metropolis(std_normal_model, Dataset(np.array([0.0])),
                                     4000, 50.0, 2000, RandomStream(49, 0, "chain"))
        assert 0.3 < draws.diagnostics["acceptance_rate"] < 0.6


class TestHmc:
    def test_standard_normal_mean(self, std_normal_model):
        draws = sample_hmc(std_normal_model, Dataset(np.array([0.0])), 10_000,
                           0.1, 20, 0, RandomStream(50, 0, "chain"))
        assert abs(draws.values.mean()) < 0.05

    def test_leapfrog_reversibility(self, correlated_gaussian_model):
        target = posterior_target(correlated_gaussian_model, Dataset(np.array([0.0])))
        rng = np.random.default_rng(51)
        z0 = rng.normal(size=2)
        p0 = rng.normal(size=2)
        z1, p1 = leapfrog(z0, p0, 0.05, 40, target.grad)
        z2, p2 = leapfrog(z1, -p1, 0.05, 40, target.grad)
        np.testing.assert_allclose(z2, z0, atol=1e-10)
        np.testing.assert_allclose(-p2, p0, atol=1e-10)

    def test_acceptance_rule_consistent_with_energy_errors(self, std_normal_model):
        draws = sample_hmc(std_normal_model, Dataset(np.array([0.0])), 5000,
                           0.9, 5, 0, RandomStream(52, 0, "chain"))
        delta_h = draws.diagnostics["energy_errors"]
        expected_rate = np.mean(np.minimum(1.0, np.exp(-delta_h)))
        assert draws.diagnostics["acceptance_rate"] == pytest.approx(expected_rate, abs=0.03)

    def test_same_seed_identical_chain(self, std_normal_model):
        a = sample_hmc(std_normal_model, Dataset(np.array([0.0])), 200, 0.2, 10, 20,
                       RandomStream(53, 1, "chain"))
        b = sample_hmc(std_normal_model, Dataset(np.array([0.0])), 200, 0.2, 10, 20,
                       RandomStream(53, 1, "chain"))
        np.testing.assert_array_equal(a.values, b.values)

    def test_centered_funnel_diverges_with_aggressive_step(self):
        model = make_eight_schools(EightSchoolsSpec(parameterization="centered"))
        total_divergences = 0
        for i in range(20):
            theta = model.prior_simulator(RandomStream(54, i, "prior"))
            data = model.data_simulator(theta, RandomStream(54, i, "data"))
            draws = sample_hmc(model, data, 200, 2.5, 20, 0, RandomStream(54, i, "chain"))
            total_divergences += draws.diagnostics["divergences"]
        assert total_divergences > 0


class TestMeanfieldVi:
    def test_standard_normal_recovered(self, std_normal_model):
        approx = fit_meanfield_vi(std_normal_model, Dataset(np.array([0.0])),
                                  10_000, 0.05, RandomStream(55, 0, "vi"))
        assert abs(approx.means[0]) < 0.05
        assert abs(math.exp(approx.log_sds[0]) - 1.0) < 0.1

    def test_correlated_target_underestimates_variance(self, correlated_gaussian_model):
        # Mean-field KL optimum has variance 1/Lambda_ii = 1 - rho^2 = 0.19,
        # strictly below the true marginal variance of 1.
        approx = fit_meanfield_vi(correlated_gaussian_model, Dataset(np.array([0.0])),
                                  20_000, 0.05, RandomStream(56, 0, "vi"))
        sds = np.exp(approx.log_sds)
        assert np.all(sds < 0.9)
        np.testing.assert_allclose(sds, math.sqrt(0.19), atol=0.1)

    def test_sampling_from_approximation(self, std_normal_model):
        approx = fit_meanfield_vi(std_normal_model, Dataset(np.array([0.0])),
                                  5000, 0.05, RandomStream(57, 0, "vi"))
        draws = approx.sample(50_000, RandomStream(57, 0, "chain"))
        assert draws.sampler_name == "meanfield-vi"
        assert abs(draws.values.mean() - approx.means[0]) < 0.02

    def test_divergence_detected(self, std_normal_model):
        with pytest.raises(Diverged):
            fit_meanfield_vi(std_normal_model, Dataset(np.array([0.0])),
                             2000, 1e6, RandomStream(58, 0, "vi"))


class TestCorrupt:
    def _exact_draws(self, L=1000, seed=59):
        model = make_normal_normal(NormalNormalSpec())
        data = Dataset(np.array([0.7]))
        return sample_exact_conjugate(model, data, L, RandomStream(seed, 0, "chain"))

    def test_none_is_identity(self):
        draws = self._exact_draws()
        assert corrupt(draws, Corruption()) is draws

    def test_scale_round_trip(self):
        draws = self._exact_draws()
        c2 = Corruption(kind="scale", amount=2.0, target_quantity="mu")
        c_half = Corruption(kind="scale", amount=0.5, target_quantity="mu")
        back = corrupt(corrupt(draws, c2), c_half)
        np.testing.assert_allclose(back.values, draws.values, atol=1e-12)

    def test_shift_changes_mean_only(self):
        draws = self._exact_draws()
        shifted = corrupt(draws, Corruption(kind="shift", amount=-0.5, target_quantity="mu"))
        assert shifted.values.mean() == pytest.approx(draws.values.mean() - 0.5)
        assert shifted.values.std() == pytest.approx(draws.values.std())

    def test_shift_down_biases_ranks_high(self):
        """Posterior draws shifted low rank the prior draw higher on average."""
        model = make_normal_normal(NormalNormalSpec())
        c = Corruption(kind="shift", amount=-0.5, target_quantity="mu")
        L = 19
        ranks, ranks_shifted = [], []
        for i in range(500):
            theta = model.prior_simulator(RandomStream(60, i, "prior"))
            data = model.data_simulator(theta, RandomStream(60, i, "data"))
            draws = sample_exact_conjugate(model, data, L, RandomStream(60, i, "chain"))
            ranks.append(rank_statistic(draws.values[:, 0], theta.values[0]))
            shifted = corrupt(draws, c)
            ranks_shifted.append(rank_statistic(shifted.values[:, 0], theta.values[0]))
        assert np.mean(ranks_shifted) > np.mean(ranks) + 2.0

    def test_unknown_target(self):
        draws = self._exact_draws()
        with pytest.raises(UnknownParameter):
            corrupt(draws, Corruption(kind="shift", amount=1.0, target_quantity="beta"))

    def test_invalid_scale_amount(self):
        with pytest.raises(InvalidSpec):
            Corruption(kind="scale", amount=0.0, target_quantity="mu")
