import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sbc.errors import UnknownParameter
from sbc.model import (
    Quantity,
    UnconstrainingMap,
    coordinate,
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
from sbc.runner import _Block, _simulate
from sbc.samplers import sample_rw_metropolis
from sbc.streams import RandomStream, Streams

ALL_MODELS = [
    make_normal_normal(NormalNormalSpec()),
    make_lin_reg(LinRegSpec()),
    make_eight_schools(EightSchoolsSpec(parameterization="centered")),
    make_eight_schools(EightSchoolsSpec(parameterization="non-centered")),
]


def simulate_block(model, seed, n):
    """The live rows of a block of replications 0..n-1, their stacked priors and
    observations, and each row's failure reason (None for a live row)."""
    block = _Block(range(n), 1, 1)
    live, priors, observations = _simulate(model, Streams(seed), block)
    return live, priors[live], observations[live], block.reasons


def with_prior(model, change):
    """``model`` with each prior draw passed through ``change``."""
    return dataclasses.replace(
        model, prior_simulator=lambda rng: change(model.prior_simulator(rng)))


class TestParamVector:
    """A parameter vector is a (d,) float array, ordered as the model's parameter names."""

    def test_basic_access(self):
        model = make_lin_reg(LinRegSpec())
        theta = model.prior_simulator(RandomStream(9, 0, "prior"))
        assert theta.shape == (3,) and theta.dtype == np.float64
        assert theta[model.parameter_names.index("sigma")] > 0

    def test_unknown_name_raises_when_built(self):
        with pytest.raises(UnknownParameter, match="no parameter named 'sigma'"):
            coordinate("sigma", ("mu",))

    def test_non_finite_rejected(self):
        """A block's non-finite prior draw fails its row alone, naming the values."""
        model = with_prior(make_normal_normal(NormalNormalSpec()),
                           lambda theta: np.where(theta > 0.5, np.nan, theta))
        live, priors, _, reasons = simulate_block(model, 5, 40)
        drawn = [model.prior_simulator(RandomStream(5, i, "prior"))[0] for i in range(40)]
        assert live.tolist() == [i for i in range(40) if not np.isnan(drawn[i])]
        for i, reason in enumerate(reasons):
            if i not in live:
                assert reason == "NonFiniteParameter: non-finite parameter values: [nan]"
        np.testing.assert_array_equal(priors[:, 0], [drawn[i] for i in live])


def at_point(q: Quantity, values: np.ndarray) -> float:
    """A quantity at one (d,) parameter vector."""
    out = q.batch_evaluator(values)
    assert np.shape(out) == ()
    return float(out)


class TestQuantity:
    def test_coordinate_projection(self):
        assert at_point(coordinate("mu", ("mu",)), np.array([1.05])) == 1.05

    def test_log_quantity(self):
        tau = coordinate("tau", ("mu", "tau")).batch_evaluator
        q = Quantity("log_tau", lambda values: np.log(tau(values)))
        assert at_point(q, np.array([3.0, 1.0])) == 0.0

    def test_eight_schools_projection(self):
        model = make_eight_schools(EightSchoolsSpec())
        theta = model.prior_simulator(RandomStream(1, 0, "prior"))
        (q,) = [q for q in model.quantities if q.name == "theta[1]"]
        assert at_point(q, theta) == theta[model.parameter_names.index("theta[1]")]

    def test_batch_evaluator_agrees_with_scalar(self):
        """Over n draws, each value equals the quantity at that single draw."""
        model = make_eight_schools(EightSchoolsSpec(parameterization="non-centered"))
        theta = model.prior_simulator(RandomStream(2, 0, "prior"))
        data = model.data_simulator(theta, RandomStream(2, 0, "data"))
        (draws,) = sample_rw_metropolis(model, data[np.newaxis], 50, 0.5, 20,
                                        [RandomStream(2, 0, "chain")], [50]).draws
        for q in model.quantities:
            np.testing.assert_array_equal(q.batch_evaluator(draws),
                                          [at_point(q, row) for row in draws])

    def test_any_leading_shape(self):
        """On an (R, n, d) block, the leading draws of a longer one (a strided view)
        and an (R, d) matrix, each row's values equal that row evaluated alone, and
        a coordinate is a view of its input."""
        model = make_eight_schools(EightSchoolsSpec(parameterization="non-centered"))
        block = np.random.default_rng(3).normal(size=(4, 30, len(model.parameter_names)))
        for values in (block, block[1:3, :20], block[:, 0]):
            for q in model.quantities:
                got = q.batch_evaluator(values)
                assert got.shape == values.shape[:-1] and got.dtype == np.float64
                for r, row in enumerate(values):
                    np.testing.assert_array_equal(got[r], q.batch_evaluator(row.copy()))
            tau = coordinate("tau", model.parameter_names).batch_evaluator(values)
            assert np.shares_memory(tau, values)


class TestUnconstrainingMap:
    def test_round_trip_identity_and_log(self):
        umap = UnconstrainingMap(("identity", "log", "log"))
        rng = np.random.default_rng(42)
        for _ in range(200):
            v = np.array([rng.normal(), rng.uniform(1e-6, 50), rng.uniform(1e-6, 50)])
            back = umap.constrain_matrix(umap.unconstrain(v)[np.newaxis])[0]
            np.testing.assert_allclose(back, v, rtol=0, atol=1e-12)

    def test_constrains_any_leading_shape_in_place(self):
        umap = UnconstrainingMap(("identity", "log", "log"))
        Z = np.random.default_rng(43).normal(size=(3, 5, 3))
        want = np.concatenate([Z[..., :1], np.exp(Z[..., 1:])], axis=-1)
        assert umap.constrain_matrix(Z) is Z
        np.testing.assert_array_equal(Z, want)

    def test_unconstrains_rows_as_one_array(self):
        """An (R, d) array unconstrains to the rows unconstrained one at a time, bit for
        bit, and the input is not changed."""
        umap = UnconstrainingMap(("identity", "log", "log"))
        rng = np.random.default_rng(44)
        values = np.column_stack([rng.normal(size=37), rng.uniform(1e-6, 50, size=(37, 2))])
        before = values.copy()
        np.testing.assert_array_equal(umap.unconstrain(values),
                                      [umap.unconstrain(row) for row in values])
        np.testing.assert_array_equal(values, before)

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
    theta = model.prior_simulator(RandomStream(seed, 0, "prior"))
    data = model.data_simulator(theta, RandomStream(seed, 0, "data"))
    target = posterior_target(model, data[np.newaxis])
    z = model.unconstraining_map.unconstrain(theta)
    fd = finite_difference(lambda point: target.logpdf(point[np.newaxis])[0], z)
    np.testing.assert_allclose(target.grad(z[np.newaxis])[0], fd, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_batched_rows_do_not_depend_on_the_batch(model):
    """Row r of a batch equals the same point and dataset evaluated alone, bit for bit."""
    assert_rows_match_single_rows(model)


@pytest.mark.parametrize("n_obs", [1, 25, 129])
@pytest.mark.parametrize("make", [lambda n: make_normal_normal(NormalNormalSpec(n_obs=n)),
                                  lambda n: make_lin_reg(LinRegSpec(n_obs=n))],
                         ids=["normal-normal", "lin-reg"])
def test_batched_rows_at_each_n_obs(make, n_obs):
    """The same with 1, 25 and 129 observations per dataset: row sums of an (R, n) block
    equal those of each row alone.  (Eight schools always has 8.)"""
    assert_rows_match_single_rows(make(n_obs))


def assert_rows_match_single_rows(model):
    rng = np.random.default_rng(11)
    thetas = [model.prior_simulator(RandomStream(300, i, "prior")) for i in range(9)]
    observations = np.array([model.data_simulator(theta, RandomStream(300, i, "data"))
                             for i, theta in enumerate(thetas)])
    Z = np.array([model.unconstraining_map.unconstrain(theta) for theta in thetas])
    Z += rng.normal(0, 0.3, size=Z.shape)
    target = posterior_target(model, observations)
    logp, grad = target.logpdf(Z), target.grad(Z)
    assert logp.shape == (9,) and grad.shape == Z.shape
    for part in [slice(i, i + 1) for i in range(9)] + [slice(2, 7)]:
        alone = posterior_target(model, observations[part])
        np.testing.assert_array_equal(alone.logpdf(Z[part]), logp[part])
        np.testing.assert_array_equal(alone.grad(Z[part]), grad[part])


def _reference_normal_normal(data, z):
    spec = NormalNormalSpec()
    return (stats.norm.logpdf(z[0], spec.prior_mean, spec.prior_sd)
            + stats.norm.logpdf(data, z[0], spec.likelihood_sd).sum())


def _reference_lin_reg(data, z):
    spec = LinRegSpec()
    alpha, beta, u = z
    sigma = math.exp(u)
    mean = alpha + beta * np.array([(i + 1) / spec.n_obs for i in range(spec.n_obs)])
    return (stats.norm.logpdf(alpha, 0.0, spec.prior_sd_alpha)
            + stats.norm.logpdf(beta, 0.0, spec.prior_sd_beta)
            + stats.halfnorm.logpdf(sigma, scale=spec.noise_sd_prior_scale)
            + stats.norm.logpdf(data, mean, sigma).sum()
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
                + stats.norm.logpdf(data, means, EIGHT_SCHOOLS_SIGMA).sum()
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
        theta = model.prior_simulator(RandomStream(200 + k, 0, "prior"))
        data = model.data_simulator(theta, RandomStream(200 + k, 0, "data"))
        target = posterior_target(model, np.array([data, data]))
        z1 = model.unconstraining_map.unconstrain(theta)
        z2 = z1 + rng.normal(0, 0.3, size=z1.size)
        lp1, lp2 = target.logpdf(np.array([z1, z2]))
        np.testing.assert_allclose(lp1 - lp2,
                                   reference(data, z1) - reference(data, z2),
                                   rtol=1e-8, atol=1e-8)


class TestDrawReproducibility:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_prior_and_data_bit_identical(self, model):
        t1 = model.prior_simulator(RandomStream(5, 3, "prior"))
        t2 = model.prior_simulator(RandomStream(5, 3, "prior"))
        np.testing.assert_array_equal(t1, t2)
        d1 = model.data_simulator(t1, RandomStream(5, 3, "data"))
        d2 = model.data_simulator(t2, RandomStream(5, 3, "data"))
        np.testing.assert_array_equal(d1, d2)
        # A block draws each row's prior and data as that row alone would.
        _, priors, observations, _ = simulate_block(model, 5, 4)
        np.testing.assert_array_equal(priors[3], t1)
        np.testing.assert_array_equal(observations[3], d1)

    def test_data_requires_finite_theta(self):
        """A row whose prior draw is not finite fails before its data are simulated."""
        base = make_normal_normal(NormalNormalSpec())
        simulated = []

        def data_simulator(theta, rng):
            simulated.append(theta.copy())
            return base.data_simulator(theta, rng)

        model = dataclasses.replace(with_prior(base, lambda t: np.where(t > 0.5, np.inf, t)),
                                    data_simulator=data_simulator)
        live, priors, observations, reasons = simulate_block(model, 1, 30)
        failed = [reason for reason in reasons if reason is not None]
        assert failed and all(reason.startswith("NonFiniteParameter") for reason in failed)
        assert len(simulated) == len(live) and np.isfinite(simulated).all()
        assert observations.shape == (len(live), 1)


class TestDataset:
    """A dataset is an (n,) observation vector; a block stacks them as (R, n)."""

    def test_observation_count(self):
        model = make_lin_reg(LinRegSpec(n_obs=25))
        theta = model.prior_simulator(RandomStream(9, 0, "prior"))
        data = model.data_simulator(theta, RandomStream(9, 0, "data"))
        assert data.shape == (25,)
        assert simulate_block(model, 9, 3)[2].shape == (3, 25)

    def test_non_finite_rejected(self):
        """A block's non-finite simulated dataset fails its row alone."""
        base = make_lin_reg(LinRegSpec(n_obs=4))
        model = dataclasses.replace(
            base, data_simulator=lambda theta, rng: np.where(
                theta[1] > 5.0, np.inf, base.data_simulator(theta, rng)))
        live, priors, observations, reasons = simulate_block(model, 2, 50)
        betas = [base.prior_simulator(RandomStream(2, i, "prior"))[1] for i in range(50)]
        assert live.tolist() == [i for i in range(50) if betas[i] <= 5.0] != []
        assert {reason for i, reason in enumerate(reasons) if i not in live} == {
            "NonFiniteInput: simulated observations must be finite"}
        assert np.isfinite(observations).all() and observations.shape == (len(live), 4)
        for k, i in enumerate(live.tolist()):
            np.testing.assert_array_equal(priors[k], base.prior_simulator(
                RandomStream(2, i, "prior")))
