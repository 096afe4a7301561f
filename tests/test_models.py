import math

import numpy as np
import pytest

from sbc.errors import InvalidSpec
from sbc.model import Dataset, draw_data, draw_prior, posterior_target
from sbc.models import (
    EightSchoolsSpec,
    LinRegSpec,
    NormalNormalSpec,
    make_eight_schools,
    make_lin_reg,
    make_normal_normal,
    model_from_dict,
)
from sbc.streams import RandomStream


class TestSpecValidation:
    def test_normal_normal_rejects_nonpositive_sd(self):
        with pytest.raises(InvalidSpec):
            NormalNormalSpec(prior_sd=0.0)
        with pytest.raises(InvalidSpec):
            NormalNormalSpec(likelihood_sd=-1.0)

    def test_lin_reg_rejects_bad_scales(self):
        with pytest.raises(InvalidSpec):
            LinRegSpec(prior_sd_beta=0.0)
        with pytest.raises(InvalidSpec):
            LinRegSpec(noise_sd_prior_scale=-2.0)
        with pytest.raises(InvalidSpec):
            LinRegSpec(n_obs=3, covariates=(1.0, 2.0))

    def test_eight_schools_rejects_bad_specs(self):
        with pytest.raises(InvalidSpec):
            EightSchoolsSpec(J=7)
        with pytest.raises(InvalidSpec):
            EightSchoolsSpec(sigma_j=(1.0,) * 7)
        with pytest.raises(InvalidSpec):
            EightSchoolsSpec(parameterization="folded")


class TestNormalNormal:
    def test_worked_example_posterior_mean(self):
        model = make_normal_normal(NormalNormalSpec(0.0, 1.0, 1.0, 1))
        mean, sd = model.exact_posterior(Dataset(np.array([2.1])))
        assert mean == pytest.approx(1.05)

    def test_posterior_variance_from_precision_addition(self):
        # (1/1^2 + 1/1^2)^-1 = 0.5
        model = make_normal_normal(NormalNormalSpec(0.0, 1.0, 1.0, 1))
        _, sd = model.exact_posterior(Dataset(np.array([2.1])))
        assert sd**2 == pytest.approx(0.5)

    def test_symmetric_data_gives_zero_mean(self):
        model = make_normal_normal(NormalNormalSpec(0.0, 1.0, 1.0, 1))
        mean, _ = model.exact_posterior(Dataset(np.array([0.0])))
        assert mean == pytest.approx(0.0)

    def test_prior_mean_monte_carlo(self):
        model = make_normal_normal(NormalNormalSpec())
        rng = RandomStream(31, 0, "prior")
        draws = np.array([draw_prior(model, rng).values[0] for _ in range(100_000)])
        assert abs(draws.mean()) < 4 / math.sqrt(100_000)

    def test_data_mean_monte_carlo(self):
        model = make_normal_normal(NormalNormalSpec(n_obs=1))
        theta = model.prior_simulator(RandomStream(32, 0, "prior"))
        object.__setattr__(theta, "values", np.array([0.0]))
        rng = RandomStream(32, 0, "data")
        ys = np.concatenate([draw_data(model, theta, rng).observations
                             for _ in range(100_000)])
        assert abs(ys.mean()) < 4 / math.sqrt(100_000)

    def test_exact_posterior_matches_quadrature_oracle(self):
        """Conjugate algebra vs brute-force integration on a dense mu grid."""
        rng = np.random.default_rng(2026)
        for _ in range(200):
            m0 = rng.normal(0, 3)
            s0 = rng.uniform(0.2, 4)
            s = rng.uniform(0.2, 4)
            n = int(rng.integers(1, 8))
            y = rng.normal(m0, math.hypot(s0, s), size=n)
            model = make_normal_normal(NormalNormalSpec(m0, s0, s, n))
            mean, sd = model.exact_posterior(Dataset(y))

            lo = min(m0 - 10 * s0, y.min() - 10 * s)
            hi = max(m0 + 10 * s0, y.max() + 10 * s)
            mu = np.linspace(lo, hi, 40_001)
            logw = (-((mu - m0) ** 2) / (2 * s0**2)
                    - np.sum((y[:, None] - mu[None, :]) ** 2, axis=0) / (2 * s**2))
            w = np.exp(logw - logw.max())
            w /= w.sum()
            mean_q = float(np.sum(w * mu))
            var_q = float(np.sum(w * (mu - mean_q) ** 2))
            assert mean == pytest.approx(mean_q, rel=1e-4, abs=1e-6)
            assert sd**2 == pytest.approx(var_q, rel=1e-4)


class TestLinReg:
    def test_noiseless_line(self):
        spec = LinRegSpec(n_obs=3, covariates=(1.0, 2.0, 3.0))
        model = make_lin_reg(spec)
        theta = model.prior_simulator(RandomStream(1, 0, "prior"))
        object.__setattr__(theta, "values", np.array([0.0, 1.0, 1e-12]))
        data = draw_data(model, theta, RandomStream(1, 0, "data"))
        np.testing.assert_allclose(data.observations, [1.0, 2.0, 3.0], atol=1e-9)

    def test_degenerate_noise_all_zero(self):
        model = make_lin_reg(LinRegSpec(n_obs=3, covariates=(1.0, 2.0, 3.0)))
        theta = model.prior_simulator(RandomStream(2, 0, "prior"))
        object.__setattr__(theta, "values", np.array([0.0, 0.0, 1e-12]))
        data = draw_data(model, theta, RandomStream(2, 0, "data"))
        np.testing.assert_allclose(data.observations, 0.0, atol=1e-9)

    def test_simulator_uses_generation_prior_for_beta(self):
        wide = make_lin_reg(LinRegSpec(gen_prior_sd_beta=10.0, prior_sd_beta=1.0))
        betas = np.array([draw_prior(wide, RandomStream(33, i, "prior")).value_of("beta")
                          for i in range(4000)])
        # Simulated betas follow the sd-10 generation prior, not the sd-1 one.
        assert 9.0 < betas.std() < 11.0

    def test_mismatched_priors_shift_density_not_simulator(self):
        matched = make_lin_reg(LinRegSpec(prior_sd_beta=10.0, gen_prior_sd_beta=10.0))
        mismatched = make_lin_reg(LinRegSpec(prior_sd_beta=1.0, gen_prior_sd_beta=10.0))
        theta = draw_prior(matched, RandomStream(34, 0, "prior"))
        data = draw_data(matched, theta, RandomStream(34, 0, "data"))
        beta = theta.value_of("beta")
        z = matched.unconstraining_map.unconstrain(theta.values)
        diff = (posterior_target(matched, data).logpdf(z)
                - posterior_target(mismatched, data).logpdf(z))
        expected = -beta**2 / 200 + beta**2 / 2  # only the beta prior differs
        assert diff == pytest.approx(expected, rel=1e-9)

    def test_default_covariates(self):
        spec = LinRegSpec(n_obs=4)
        assert spec.covariates == (0.25, 0.5, 0.75, 1.0)


class TestEightSchools:
    def test_tau_positive_for_every_prior_draw(self):
        model = make_eight_schools(EightSchoolsSpec())
        for i in range(500):
            theta = draw_prior(model, RandomStream(35, i, "prior"))
            assert theta.value_of("tau") > 0

    def test_parameterizations_share_datasets(self):
        centered = make_eight_schools(EightSchoolsSpec(parameterization="centered"))
        noncentered = make_eight_schools(EightSchoolsSpec(parameterization="non-centered"))
        for i in range(50):
            tc = draw_prior(centered, RandomStream(36, i, "prior"))
            tn = draw_prior(noncentered, RandomStream(36, i, "prior"))
            dc = draw_data(centered, tc, RandomStream(36, i, "data"))
            dn = draw_data(noncentered, tn, RandomStream(36, i, "data"))
            np.testing.assert_allclose(dc.observations, dn.observations, rtol=1e-12)

    def test_density_change_of_variables(self):
        """Unconstrained centered and non-centered densities differ by exactly -J*log(tau)."""
        centered = make_eight_schools(EightSchoolsSpec(parameterization="centered"))
        noncentered = make_eight_schools(EightSchoolsSpec(parameterization="non-centered"))
        rng = np.random.default_rng(3)
        for k in range(100):
            theta_c = draw_prior(centered, RandomStream(37, k, "prior"))
            data = draw_data(centered, theta_c, RandomStream(37, k, "data"))
            mu, tau = theta_c.value_of("mu"), theta_c.value_of("tau")
            th = theta_c.values[2:]
            eta = (th - mu) / tau
            theta_n = type(theta_c)(noncentered.parameter_names,
                                    np.concatenate(([mu, tau], eta)))
            lp_c = posterior_target(centered, data).logpdf(
                centered.unconstraining_map.unconstrain(theta_c.values))
            lp_n = posterior_target(noncentered, data).logpdf(
                noncentered.unconstraining_map.unconstrain(theta_n.values))
            assert lp_c + 8 * math.log(tau) == pytest.approx(lp_n, abs=1e-8)

    def test_derived_theta_quantities(self):
        model = make_eight_schools(EightSchoolsSpec(parameterization="non-centered"))
        names = [q.name for q in model.quantities]
        assert "theta[1]" in names and "eta[8]" in names
        theta = draw_prior(model, RandomStream(38, 0, "prior"))
        q = model.quantity("theta[3]")
        expected = theta.value_of("mu") + theta.value_of("tau") * theta.value_of("eta[3]")
        value = q.batch_evaluator(theta.values[np.newaxis], theta.names)
        assert value == pytest.approx([expected])


class TestModelRegistry:
    def test_round_trip_from_dict(self):
        model = model_from_dict({"kind": "normal-normal", "prior_sd": 2.0})
        assert model.name == "normal-normal"

    def test_unknown_kind(self):
        with pytest.raises(InvalidSpec):
            model_from_dict({"kind": "gp"})

    def test_unknown_field(self):
        with pytest.raises(InvalidSpec):
            model_from_dict({"kind": "normal-normal", "bananas": 3})

    def test_eight_schools_from_dict(self):
        model = model_from_dict({"kind": "eight-schools", "parameterization": "non-centered"})
        assert model.name == "eight-schools-non-centered"
