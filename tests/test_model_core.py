import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sbc.errors import NonFiniteParameter, UnknownParameter
from sbc.model import (
    Dataset,
    ParamVector,
    Quantity,
    UnconstrainingMap,
    coordinate,
    draw_data,
    draw_prior,
    evaluate_series,
    posterior_target,
)
from sbc.models import (
    EIGHT_SCHOOLS_MU_SD,
    EIGHT_SCHOOLS_SIGMA,
    EIGHT_SCHOOLS_TAU_SD,
    EightSchoolsSpec,
    LinRegSpec,
    NormalNormalSpec,
    make_eight_schools,
    make_lin_reg,
    make_normal_normal,
)
from sbc.samplers import sample_rw_metropolis
from sbc.streams import RandomStream

ALL_MODELS = [
    make_normal_normal(NormalNormalSpec()),
    make_lin_reg(LinRegSpec()),
    make_eight_schools(EightSchoolsSpec(parameterization="centered")),
    make_eight_schools(EightSchoolsSpec(parameterization="non-centered")),
]


class TestParamVector:
    def test_basic_access(self):
        theta = ParamVector(("mu",), np.array([1.05]))
        assert theta.value_of("mu") == 1.05
        assert len(theta) == 1

    def test_unknown_name(self):
        theta = ParamVector(("mu",), np.array([1.05]))
        with pytest.raises(UnknownParameter):
            theta.value_of("sigma")

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteParameter):
            ParamVector(("mu",), np.array([np.nan]))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ParamVector(("a", "a"), np.array([1.0, 2.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ParamVector((), np.array([]))

    def test_values_immutable(self):
        theta = ParamVector(("mu",), np.array([1.0]))
        with pytest.raises(ValueError):
            theta.values[0] = 2.0


def at_point(q: Quantity, theta: ParamVector) -> float:
    """A quantity at one parameter vector: its evaluator on a 1-row matrix."""
    out = q.batch_evaluator(theta.values[np.newaxis], theta.names)
    assert out.shape == (1,)
    return float(out[0])


class TestQuantity:
    def test_coordinate_projection(self):
        assert at_point(coordinate("mu"), ParamVector(("mu",), np.array([1.05]))) == 1.05

    def test_log_quantity(self):
        q = Quantity("log_tau", lambda v, names: np.log(v[:, names.index("tau")]))
        theta = ParamVector(("tau",), np.array([1.0]))
        assert at_point(q, theta) == 0.0

    def test_eight_schools_projection(self):
        model = make_eight_schools(EightSchoolsSpec())
        theta = draw_prior(model, RandomStream(1, 0, "prior"))
        q = model.quantity("theta[1]")
        assert at_point(q, theta) == theta.value_of("theta[1]")

    def test_batch_evaluator_agrees_with_scalar(self):
        """Over n draws, each value equals the quantity at that single draw."""
        model = make_eight_schools(EightSchoolsSpec(parameterization="non-centered"))
        theta = draw_prior(model, RandomStream(2, 0, "prior"))
        data = draw_data(model, theta, RandomStream(2, 0, "data"))
        draws = sample_rw_metropolis(model, data, 50, 0.5, 20, RandomStream(2, 0, "chain"))
        for q in model.quantities:
            batch = evaluate_series(q, draws)
            scalar = [at_point(q, ParamVector(draws.names, row)) for row in draws.values]
            np.testing.assert_array_equal(batch, scalar)


class TestUnconstrainingMap:
    def test_round_trip_identity_and_log(self):
        umap = UnconstrainingMap(("identity", "log", "log"))
        rng = np.random.default_rng(42)
        for _ in range(200):
            v = np.array([rng.normal(), rng.uniform(1e-6, 50), rng.uniform(1e-6, 50)])
            back = umap.constrain_matrix(umap.unconstrain(v)[np.newaxis])[0]
            np.testing.assert_allclose(back, v, rtol=0, atol=1e-12)

    def test_unknown_transform_rejected(self):
        with pytest.raises(ValueError):
            UnconstrainingMap(("logit",))


def finite_difference(f, z, h=1e-6):
    g = np.empty_like(z)
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (f(zp) - f(zm)) / (2 * h)
    return g


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
@settings(max_examples=50, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_gradient_matches_finite_differences(model, seed):
    """Central differences on the unconstrained scale, at a prior draw and its dataset."""
    theta = draw_prior(model, RandomStream(seed, 0, "prior"))
    data = draw_data(model, theta, RandomStream(seed, 0, "data"))
    target = posterior_target(model, data)
    z = model.unconstraining_map.unconstrain(theta.values)
    fd = finite_difference(target.logpdf, z)
    np.testing.assert_allclose(target.grad(z), fd, rtol=1e-5, atol=1e-5)


def _reference_normal_normal(data, z):
    spec = NormalNormalSpec()
    return (stats.norm.logpdf(z[0], spec.prior_mean, spec.prior_sd)
            + stats.norm.logpdf(data.observations, z[0], spec.likelihood_sd).sum())


def _reference_lin_reg(data, z):
    spec = LinRegSpec()
    alpha, beta, u = z
    sigma = math.exp(u)
    mean = alpha + beta * np.asarray(spec.covariates)
    return (stats.norm.logpdf(alpha, 0.0, spec.prior_sd_alpha)
            + stats.norm.logpdf(beta, 0.0, spec.prior_sd_beta)
            + stats.halfnorm.logpdf(sigma, scale=spec.noise_sd_prior_scale)
            + stats.norm.logpdf(data.observations, mean, sigma).sum()
            + u)


def _reference_eight_schools(centered):
    def reference(data, z):
        mu, w, effects = z[0], z[1], z[2:]
        tau = math.exp(w)
        if centered:
            effects_lp = stats.norm.logpdf(effects, mu, tau).sum()
            means = effects
        else:
            effects_lp = stats.norm.logpdf(effects).sum()
            means = mu + tau * effects
        return (stats.norm.logpdf(mu, 0.0, EIGHT_SCHOOLS_MU_SD)
                + stats.halfnorm.logpdf(tau, scale=EIGHT_SCHOOLS_TAU_SD)
                + effects_lp
                + stats.norm.logpdf(data.observations, means, EIGHT_SCHOOLS_SIGMA).sum()
                + w)

    return reference


# Each model's unconstrained density, written independently from scipy.stats
# log-pdfs plus the log-Jacobian log|d theta / d z| of its log coordinates.
REFERENCE_LOGPDF = {
    "normal-normal": _reference_normal_normal,
    "lin-reg": _reference_lin_reg,
    "eight-schools-centered": _reference_eight_schools(centered=True),
    "eight-schools-non-centered": _reference_eight_schools(centered=False),
}


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_density_differences_match_scipy_reference(model):
    """The target's density differences equal the reference's (both are up to a constant)."""
    reference = REFERENCE_LOGPDF[model.name]
    rng = np.random.default_rng(7)
    for k in range(20):
        theta = draw_prior(model, RandomStream(200 + k, 0, "prior"))
        data = draw_data(model, theta, RandomStream(200 + k, 0, "data"))
        target = posterior_target(model, data)
        z1 = model.unconstraining_map.unconstrain(theta.values)
        z2 = z1 + rng.normal(0, 0.3, size=z1.size)
        np.testing.assert_allclose(target.logpdf(z1) - target.logpdf(z2),
                                   reference(data, z1) - reference(data, z2),
                                   rtol=1e-8, atol=1e-8)


class TestDrawReproducibility:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_prior_and_data_bit_identical(self, model):
        t1 = draw_prior(model, RandomStream(5, 3, "prior"))
        t2 = draw_prior(model, RandomStream(5, 3, "prior"))
        np.testing.assert_array_equal(t1.values, t2.values)
        d1 = draw_data(model, t1, RandomStream(5, 3, "data"))
        d2 = draw_data(model, t2, RandomStream(5, 3, "data"))
        np.testing.assert_array_equal(d1.observations, d2.observations)

    def test_data_requires_finite_theta(self):
        model = make_normal_normal(NormalNormalSpec())
        theta = ParamVector(("mu",), np.array([0.0]))
        object.__setattr__(theta, "values", np.array([np.inf]))
        with pytest.raises(NonFiniteParameter):
            draw_data(model, theta, RandomStream(1, 0, "data"))


class TestDataset:
    def test_observation_count(self):
        model = make_lin_reg(LinRegSpec(n_obs=25))
        theta = draw_prior(model, RandomStream(9, 0, "prior"))
        data = draw_data(model, theta, RandomStream(9, 0, "data"))
        assert data.n_obs == 25

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.array([1.0, np.inf]))
