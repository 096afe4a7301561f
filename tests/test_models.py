import math

import numpy as np
import pytest

from sbc.errors import InvalidSpec
from sbc.model import posterior_target
from sbc.models import (
    EIGHT_SCHOOLS_SIGMA,
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

    @pytest.mark.parametrize("make_spec", [
        lambda v: NormalNormalSpec(prior_sd=v),
        lambda v: NormalNormalSpec(likelihood_sd=v),
        lambda v: LinRegSpec(prior_sd_alpha=v),
        lambda v: LinRegSpec(prior_sd_beta=v),
        lambda v: LinRegSpec(noise_sd_prior_scale=v),
        lambda v: LinRegSpec(gen_prior_sd_beta=v),
        lambda v: EightSchoolsSpec(sigma_j=(v,) + EIGHT_SCHOOLS_SIGMA[1:]),
    ])
    @pytest.mark.parametrize("value", [1e200, 1e155, 1e308, 1e-200, 1e-160, math.inf, math.nan])
    def test_rejects_scales_whose_square_overflows_or_underflows(self, make_spec, value):
        """A scale's square (and so its inverse square) must be a finite normal float."""
        with pytest.raises(InvalidSpec):
            make_spec(value)

    @pytest.mark.parametrize("covariates", [(1e200, 1.0, 2.0), (1e154, 1e154, 1e154),
                                            (-math.inf, 1.0, 2.0), (math.nan, 1.0, 2.0)])
    def test_lin_reg_rejects_covariates_whose_sum_of_squares_overflows(self, covariates):
        with pytest.raises(InvalidSpec, match="finite sum of squares"):
            LinRegSpec(n_obs=3, covariates=covariates)

    @pytest.mark.parametrize("make_spec", [
        lambda: LinRegSpec(n_obs=2, covariates="12"),
        lambda: LinRegSpec(n_obs=2, covariates=[True, False]),
        lambda: LinRegSpec(n_obs=2, covariates=["1.5", "2"]),
        lambda: LinRegSpec(n_obs=2, covariates=iter([1.0, 2.0])),
        lambda: LinRegSpec(n_obs=2, covariates=[10**400, 1]),
        lambda: EightSchoolsSpec(sigma_j="12345678"),
        lambda: EightSchoolsSpec(sigma_j=[True] * 8),
        lambda: EightSchoolsSpec(sigma_j=["1"] * 8),
    ])
    def test_vector_fields_take_lists_of_finite_numbers_only(self, make_spec):
        with pytest.raises(InvalidSpec, match="must be a list of"):
            make_spec()

    def test_lin_reg_accepts_covariates_with_a_finite_sum_of_squares(self):
        x = (1e153, -1e153, 2.0)
        model = make_lin_reg(LinRegSpec(n_obs=3, covariates=x))
        target = posterior_target(model, np.zeros((1, 3)))
        assert np.isfinite(target.logpdf(np.zeros((1, 3)))).all()

    @pytest.mark.parametrize("make_spec", [
        lambda: NormalNormalSpec(n_obs=2.5),
        lambda: NormalNormalSpec(n_obs=True),
        lambda: NormalNormalSpec(prior_mean=math.inf),
        lambda: NormalNormalSpec(prior_mean=math.nan),
        lambda: NormalNormalSpec(prior_mean="0"),
        lambda: LinRegSpec(n_obs=3.0, covariates=(1.0, 2.0, 3.0)),
        lambda: EightSchoolsSpec(J=8.0),
    ])
    def test_rejects_non_integer_and_non_finite_numbers(self, make_spec):
        with pytest.raises(InvalidSpec, match="must be an integer|must be a finite number"):
            make_spec()

    @pytest.mark.parametrize("value", [1e154, 1e-150, 1.0])
    def test_accepts_scales_whose_square_is_normal(self, value):
        NormalNormalSpec(prior_sd=value, likelihood_sd=value)
        LinRegSpec(prior_sd_alpha=value, noise_sd_prior_scale=value)
        EightSchoolsSpec(sigma_j=(value,) * 8)


class TestNormalNormal:
    def test_worked_example_posterior_mean(self):
        model = make_normal_normal(NormalNormalSpec(0.0, 1.0, 1.0, 1))
        mean, sd = model.exact_posterior(np.array([[2.1]]))
        assert mean == pytest.approx([1.05])

    def test_posterior_variance_from_precision_addition(self):
        # (1/1^2 + 1/1^2)^-1 = 0.5
        model = make_normal_normal(NormalNormalSpec(0.0, 1.0, 1.0, 1))
        _, sd = model.exact_posterior(np.array([[2.1]]))
        assert sd**2 == pytest.approx([0.5])

    def test_symmetric_data_gives_zero_mean(self):
        model = make_normal_normal(NormalNormalSpec(0.0, 1.0, 1.0, 1))
        mean, _ = model.exact_posterior(np.array([[0.0]]))
        assert mean == pytest.approx([0.0])

    def test_prior_mean_monte_carlo(self):
        model = make_normal_normal(NormalNormalSpec())
        rng = RandomStream(31, 0, "prior")
        draws = np.array([model.prior_simulator(rng)[0] for _ in range(100_000)])
        assert abs(draws.mean()) < 4 / math.sqrt(100_000)

    def test_data_mean_monte_carlo(self):
        model = make_normal_normal(NormalNormalSpec(n_obs=1))
        theta = np.array([0.0])
        rng = RandomStream(32, 0, "data")
        ys = np.concatenate([model.data_simulator(theta, rng) for _ in range(100_000)])
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
            (mean,), (sd,) = model.exact_posterior(y[np.newaxis])

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

    @pytest.mark.parametrize("n_obs", [1, 25, 129])
    def test_exact_posterior_rows_match_the_one_row_formula(self, n_obs):
        """Row r of an (R, n) call equals a 1-row call and the closed form computed on
        dataset r alone with Python floats, bit for bit."""
        m0, s0, s = 0.4, 1.7, 2.3
        model = make_normal_normal(NormalNormalSpec(m0, s0, s, n_obs))
        y = np.random.default_rng(n_obs).normal(m0, 3.0, size=(13, n_obs))
        mean, sd = model.exact_posterior(y)
        assert mean.shape == sd.shape == (13,)
        for r in range(13):
            (mean_r,), (sd_r,) = model.exact_posterior(y[r:r + 1])
            assert (mean[r], sd[r]) == (mean_r, sd_r)
            prec = 1.0 / s0**2 + n_obs / s**2
            assert mean[r] == (m0 / s0**2 + float(np.sum(y[r])) / s**2) / prec
            assert sd[r] == math.sqrt(1.0 / prec)


class TestLinReg:
    def test_noiseless_line(self):
        spec = LinRegSpec(n_obs=3, covariates=(1.0, 2.0, 3.0))
        model = make_lin_reg(spec)
        data = model.data_simulator(np.array([0.0, 1.0, 1e-12]), RandomStream(1, 0, "data"))
        np.testing.assert_allclose(data, [1.0, 2.0, 3.0], atol=1e-9)

    def test_degenerate_noise_all_zero(self):
        model = make_lin_reg(LinRegSpec(n_obs=3, covariates=(1.0, 2.0, 3.0)))
        data = model.data_simulator(np.array([0.0, 0.0, 1e-12]), RandomStream(2, 0, "data"))
        np.testing.assert_allclose(data, 0.0, atol=1e-9)

    def test_simulator_uses_generation_prior_for_beta(self):
        wide = make_lin_reg(LinRegSpec(gen_prior_sd_beta=10.0, prior_sd_beta=1.0))
        betas = np.array([wide.prior_simulator(RandomStream(33, i, "prior"))[1]
                          for i in range(4000)])
        # Simulated betas follow the sd-10 generation prior, not the sd-1 one.
        assert 9.0 < betas.std() < 11.0

    def test_mismatched_priors_shift_density_not_simulator(self):
        matched = make_lin_reg(LinRegSpec(prior_sd_beta=10.0, gen_prior_sd_beta=10.0))
        mismatched = make_lin_reg(LinRegSpec(prior_sd_beta=1.0, gen_prior_sd_beta=10.0))
        theta = matched.prior_simulator(RandomStream(34, 0, "prior"))
        data = matched.data_simulator(theta, RandomStream(34, 0, "data"))
        beta = theta[matched.parameter_names.index("beta")]
        z = matched.unconstraining_map.unconstrain(theta)
        diff = (posterior_target(matched, data[np.newaxis]).logpdf(z[np.newaxis])[0]
                - posterior_target(mismatched, data[np.newaxis]).logpdf(z[np.newaxis])[0])
        expected = -beta**2 / 200 + beta**2 / 2  # only the beta prior differs
        assert diff == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("n_obs", [1, 3, 25, 2**20])
    def test_default_covariates(self, n_obs):
        """A spec keeps the covariates it is given, None by default, and the model then uses
        (i + 1) / n_obs: its simulator and density equal, bit for bit, those of a model
        given these covariates."""
        assert LinRegSpec().covariates is None and LinRegSpec(n_obs=n_obs).covariates is None
        default = make_lin_reg(LinRegSpec(n_obs=n_obs))
        given = make_lin_reg(LinRegSpec(n_obs=n_obs,
                                        covariates=[(i + 1) / n_obs for i in range(n_obs)]))
        theta = default.prior_simulator(RandomStream(35, 0, "prior"))
        data = default.data_simulator(theta, RandomStream(35, 0, "data"))
        np.testing.assert_array_equal(given.data_simulator(theta, RandomStream(35, 0, "data")),
                                      data)
        z = default.unconstraining_map.unconstrain(theta)[np.newaxis]
        actual, expected = (posterior_target(m, data[np.newaxis]) for m in (default, given))
        np.testing.assert_array_equal(actual.logpdf(z), expected.logpdf(z))
        np.testing.assert_array_equal(actual.grad(z), expected.grad(z))


class TestEightSchools:
    def test_tau_positive_for_every_prior_draw(self):
        model = make_eight_schools(EightSchoolsSpec())
        for i in range(500):
            theta = model.prior_simulator(RandomStream(35, i, "prior"))
            assert theta[model.parameter_names.index("tau")] > 0

    def test_parameterizations_share_datasets(self):
        centered = make_eight_schools(EightSchoolsSpec(parameterization="centered"))
        noncentered = make_eight_schools(EightSchoolsSpec(parameterization="non-centered"))
        for i in range(50):
            tc = centered.prior_simulator(RandomStream(36, i, "prior"))
            tn = noncentered.prior_simulator(RandomStream(36, i, "prior"))
            dc = centered.data_simulator(tc, RandomStream(36, i, "data"))
            dn = noncentered.data_simulator(tn, RandomStream(36, i, "data"))
            np.testing.assert_allclose(dc, dn, rtol=1e-12)

    def test_density_change_of_variables(self):
        """Unconstrained centered and non-centered densities differ by exactly -J*log(tau)."""
        centered = make_eight_schools(EightSchoolsSpec(parameterization="centered"))
        noncentered = make_eight_schools(EightSchoolsSpec(parameterization="non-centered"))
        rng = np.random.default_rng(3)
        for k in range(100):
            theta_c = centered.prior_simulator(RandomStream(37, k, "prior"))
            data = centered.data_simulator(theta_c, RandomStream(37, k, "data"))
            mu, tau = theta_c[:2]  # names: mu, tau, theta[1..8]
            th = theta_c[2:]
            eta = (th - mu) / tau
            theta_n = np.concatenate(([mu, tau], eta))
            (lp_c,) = posterior_target(centered, data[np.newaxis]).logpdf(
                centered.unconstraining_map.unconstrain(theta_c)[np.newaxis])
            (lp_n,) = posterior_target(noncentered, data[np.newaxis]).logpdf(
                noncentered.unconstraining_map.unconstrain(theta_n)[np.newaxis])
            assert lp_c + 8 * math.log(tau) == pytest.approx(lp_n, abs=1e-8)

    def test_derived_theta_quantities(self):
        """theta[j] reads the columns of mu, tau and eta[j] and equals mu + tau * eta[j]
        bit for bit, on one vector and on a block."""
        model = make_eight_schools(EightSchoolsSpec(parameterization="non-centered"))
        names = [q.name for q in model.quantities]
        assert "theta[1]" in names and "eta[8]" in names
        block = np.array([[model.prior_simulator(RandomStream(38, 3 * r + i, "prior"))
                           for i in range(3)] for r in range(2)])
        for j in range(1, 9):
            q = model.quantities[names.index(f"theta[{j}]")]
            mu, tau, eta = (block[..., model.parameter_names.index(n)]
                            for n in ("mu", "tau", f"eta[{j}]"))
            np.testing.assert_array_equal(q.batch_evaluator(block), mu + tau * eta)
            assert q.batch_evaluator(block[1, 2]) == mu[1, 2] + tau[1, 2] * eta[1, 2]


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
