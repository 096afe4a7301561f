import dataclasses
import math

import numpy as np
import pytest

from sbc.config import Corruption, SamplerConfig
from sbc.errors import Diverged, InvalidSpec, NonFiniteDensity, NotConjugate, UnknownParameter
from sbc.ess import effective_sample_sizes
from sbc.model import (
    GenerativeModel,
    PosteriorTarget,
    UnconstrainingMap,
    coordinate,
    posterior_target,
)
from sbc.models import EightSchoolsSpec, LinRegSpec, NormalNormalSpec, make_eight_schools, make_lin_reg, make_normal_normal
from sbc.rankstats import rank_statistic
from sbc.samplers import (
    DIVERGENCE_THRESHOLD,
    HMC_TARGET_ACCEPT,
    RW_TARGET_ACCEPT_1D,
    RW_TARGET_ACCEPT_ND,
    _draw_block,
    corrupt,
    fit_meanfield_vi,
    leapfrog,
    sample_exact_conjugate,
    sample_hmc,
    sample_rw_metropolis,
)
from sbc.streams import RandomStream

from sbc_test_models import make_flagged_model


def fit_block_one(sampler, model, data, *args):
    """Fit one dataset as a 1-row lockstep batch of n_steps, the first setting; returns the
    1-row DrawBlock."""
    n_steps, *settings, rng = args
    return sampler(model, data[np.newaxis], n_steps, *settings, [rng], [n_steps])


def fit_one(sampler, model, data, *args):
    """Fit one dataset as a 1-row lockstep batch; returns that row's draws or error."""
    block = fit_block_one(sampler, model, data, *args)
    return block.failures.get(0, block.draws[0])


def fit_vi_one(model, data, iterations, learning_rate, rng, n_draws, draw_rng):
    """The 1-row DrawBlock of a VI fit of one dataset."""
    return fit_meanfield_vi(model, data[np.newaxis], iterations, learning_rate, [rng],
                            n_draws, [draw_rng])


def exact_one(model, data, L, rng):
    """The (L, 1) draws of a 1-row exact fit of one dataset."""
    (draws,) = sample_exact_conjugate(model, data[np.newaxis], L, [rng])
    return draws


def exact_posterior_one(model, data):
    """The posterior mean and sd of one dataset, from a 1-row call."""
    mean, sd = model.exact_posterior(data[np.newaxis])
    return mean[0], sd[0]


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
        draws = exact_one(model, np.array([2.1]), 100_000, RandomStream(40, 0, "chain"))
        assert draws.shape == (100_000, 1)
        assert abs(draws.mean() - 1.05) < 0.01

    def test_symmetric_mean(self):
        model = make_normal_normal(NormalNormalSpec(0.0, 1.0, 1.0, 1))
        draws = exact_one(model, np.array([0.0]), 100_000, RandomStream(41, 0, "chain"))
        assert abs(draws.mean()) < 0.01

    def test_variance_matches_precision_addition(self):
        model = make_normal_normal(NormalNormalSpec(0.0, 1.0, 1.0, 1))
        draws = exact_one(model, np.array([2.1]), 100_000, RandomStream(42, 0, "chain"))
        assert draws.var() == pytest.approx(0.5, rel=0.02)

    def test_non_conjugate_rejected(self):
        model = make_lin_reg(LinRegSpec())
        with pytest.raises(NotConjugate):
            sample_exact_conjugate(model, np.zeros((1, 25)), 10, [RandomStream(43, 0, "chain")])

    @pytest.mark.parametrize("n_obs", [1, 25, 129])
    def test_rows_match_single_row_calls(self, n_obs):
        """Row r of a lockstep exact fit equals a 1-row call on dataset r, bit for bit."""
        model = make_normal_normal(NormalNormalSpec(0.3, 2.0, 1.5, n_obs))
        observations = np.array([model.data_simulator(
            model.prior_simulator(RandomStream(70, i, "prior")), RandomStream(70, i, "data"))
            for i in range(9)])
        block = sample_exact_conjugate(model, observations, 63,
                                       [RandomStream(70, i, "chain") for i in range(9)])
        assert block.shape == (9, 63, 1)
        for i in range(9):
            alone = exact_one(model, observations[i], 63, RandomStream(70, i, "chain"))
            np.testing.assert_array_equal(block[i], alone)
            # And the one-row call draws what a stream given the closed form draws.
            mean, sd = exact_posterior_one(model, observations[i])
            np.testing.assert_array_equal(
                alone[:, 0], RandomStream(70, i, "chain").normal(mean, sd, size=63))

    def test_non_finite_posterior_gives_non_finite_draws(self):
        model = make_normal_normal(NormalNormalSpec())
        observations = np.array([[0.5], [np.inf], [-0.2]])
        draws = sample_exact_conjugate(model, observations, 5,
                                       [RandomStream(71, i, "chain") for i in range(3)])
        assert np.isfinite(draws[[0, 2]]).all() and not np.isfinite(draws[1]).any()


class TestRwMetropolis:
    def test_standard_normal_mean(self, std_normal_model):
        draws = fit_one(sample_rw_metropolis, std_normal_model, np.array([0.0]),
                        100_000, 2.4, 0, RandomStream(44, 0, "chain"))
        assert abs(draws.mean()) < 0.05

    def test_tiny_step_degenerate_limit(self, std_normal_model):
        block = fit_block_one(sample_rw_metropolis, std_normal_model, np.array([0.0]),
                              2000, 1e-6, 0, RandomStream(45, 0, "chain"))
        assert block.health["acceptance_rate"][0] > 0.999
        x = block.draws[0, :, 0]
        assert np.corrcoef(x[:-1], x[1:])[0, 1] > 0.99

    def test_same_seed_identical_chain(self, std_normal_model):
        a = fit_one(sample_rw_metropolis, std_normal_model, np.array([0.0]),
                    500, 1.0, 50, RandomStream(46, 7, "chain"))
        b = fit_one(sample_rw_metropolis, std_normal_model, np.array([0.0]),
                    500, 1.0, 50, RandomStream(46, 7, "chain"))
        np.testing.assert_array_equal(a, b)

    def test_non_finite_density_at_init(self):
        model = GenerativeModel(
            name="bad",
            parameter_names=("x",),
            prior_simulator=lambda rng: np.array([rng.normal()]),
            data_simulator=lambda th, rng: np.array([0.0]),
            posterior_factory=lambda observations: PosteriorTarget(
                lambda Z: np.full(len(Z), -np.inf), np.zeros_like),
            quantities=(coordinate("x", ("x",)),),
            unconstraining_map=UnconstrainingMap(("identity",)),
        )
        row = fit_one(sample_rw_metropolis, model, np.array([0.0]), 10, 1.0, 0,
                      RandomStream(47, 0, "chain"))
        z0 = model.prior_simulator(RandomStream(47, 0, "chain"))
        assert isinstance(row, NonFiniteDensity)
        assert str(row) == f"non-finite log density at initial point {z0}"

    def test_detailed_balance_occupancy(self):
        """Long-run bin occupancy matches the exact posterior probabilities."""
        model = make_normal_normal(NormalNormalSpec(0.0, 1.0, 1.0, 1))
        data = np.array([2.1])
        draws = fit_one(sample_rw_metropolis, model, data, 200_000, 1.5, 500,
                        RandomStream(48, 0, "chain"))
        mean, sd = exact_posterior_one(model, data)
        edges = mean + sd * np.linspace(-3, 3, 13)
        occupancy, _ = np.histogram(draws[:, 0], bins=edges)
        occupancy = occupancy / len(draws)

        def norm_cdf(x):
            return 0.5 * (1 + math.erf((x - mean) / (sd * math.sqrt(2))))

        expected = np.diff([norm_cdf(e) for e in edges])
        np.testing.assert_allclose(occupancy, expected, atol=0.02)

    def test_warmup_adapts_toward_target_acceptance(self, std_normal_model):
        block = fit_block_one(sample_rw_metropolis, std_normal_model, np.array([0.0]),
                              4000, 50.0, 2000, RandomStream(49, 0, "chain"))
        assert 0.3 < block.health["acceptance_rate"][0] < 0.6


class TestHmc:
    def test_standard_normal_mean(self, std_normal_model):
        draws = fit_one(sample_hmc, std_normal_model, np.array([0.0]), 10_000,
                        0.1, 20, 0, RandomStream(50, 0, "chain"))
        assert abs(draws.mean()) < 0.05

    def test_leapfrog_reversibility(self, correlated_gaussian_model):
        target = posterior_target(correlated_gaussian_model, np.zeros((1, 1)))
        rng = np.random.default_rng(51)
        z0 = rng.normal(size=(1, 2))
        p0 = rng.normal(size=(1, 2))
        z1, p1, g1 = leapfrog(z0, p0, target.grad(z0), 0.05, 40, target.grad)
        z2, p2, g2 = leapfrog(z1, -p1, g1, 0.05, 40, target.grad)
        np.testing.assert_allclose(z2, z0, atol=1e-10)
        np.testing.assert_allclose(-p2, p0, atol=1e-10)
        np.testing.assert_array_equal(g1, target.grad(z1))
        np.testing.assert_array_equal(g2, target.grad(z2))

    def test_same_seed_identical_chain(self, std_normal_model):
        a = fit_one(sample_hmc, std_normal_model, np.array([0.0]), 200, 0.2, 10, 20,
                    RandomStream(53, 1, "chain"))
        b = fit_one(sample_hmc, std_normal_model, np.array([0.0]), 200, 0.2, 10, 20,
                    RandomStream(53, 1, "chain"))
        np.testing.assert_array_equal(a, b)

    def test_centered_funnel_diverges_with_aggressive_step(self):
        model = make_eight_schools(EightSchoolsSpec(parameterization="centered"))
        datasets = np.array([
            model.data_simulator(model.prior_simulator(RandomStream(54, i, "prior")),
                                 RandomStream(54, i, "data")) for i in range(20)])
        block = sample_hmc(model, datasets, 200, 2.5, 20, 0,
                           [RandomStream(54, i, "chain") for i in range(20)], [200] * 20)
        assert block.health["divergences"].sum() > 0
        assert block.diagnostics["divergences"] == block.health["divergences"].sum()


def parent_leapfrog(z, p, step, n, grad):
    """The leapfrog that evaluated the gradient at its start point on every call."""
    z, p = z.copy(), p.copy()
    half = 0.5 * step
    g = grad(z)
    p += half * g
    for i in range(n):
        z += step * p
        g = grad(z)
        if i < n - 1:
            p += step * g
    p += half * g
    return z, p


def health_columns(rows):
    """Per-row health objects as a DrawBlock's columns."""
    return {key: np.array([row[key] for row in rows]) for key in rows[0]}


def reference_start(model, observations, rngs, warmup, n_steps, lengths):
    """Initial points, the rows' noise and uniforms, and the target bound to their datasets,
    as the samplers drew them before a row stopped when its transitions ran out.

    Row r runs warmup + lengths[r] steps, lengths[r] <= n_steps.
    The rows take their streams in order, each in one pass: row r draws its
    initial point from the prior, then a (steps, d) block of standard
    normals, then ``steps`` uniforms; past its last step it is padded with
    zero noise and uniforms of 1, which reject every move.  A row whose
    initial point or initial density is non-finite fails alone
    (:class:`NonFiniteDensity`): its noise and uniforms are reset to zero and
    1 (the discarded draws came from its own stream), so it rejects every
    move, and its arithmetic never reaches another row.  Returns (target, z,
    logp, noise, unifs, lengths, failures): noise (warmup + n_steps, R, d),
    uniforms (warmup + n_steps, R), the rows' lengths (R,), and a map from
    each failed row to its error.
    """
    R, d = len(observations), len(model.parameter_names)
    lengths = np.asarray(lengths)
    Z = np.empty((R, d))
    noise = np.zeros((warmup + n_steps, R, d))
    unifs = np.ones((warmup + n_steps, R))
    for r, rng in enumerate(rngs):
        Z[r] = model.unconstraining_map.unconstrain(model.prior_simulator(rng))
        steps = warmup + lengths[r]
        noise[:steps, r] = rng.standard_normal((steps, d))
        unifs[:steps, r] = rng.uniform(size=steps)
    target = posterior_target(model, observations)
    logp = target.logpdf(Z)
    failed = np.flatnonzero(~(np.isfinite(logp) & np.isfinite(Z).all(axis=1)))
    noise[:, failed] = 0.0
    unifs[:, failed] = 1.0
    failures = {
        r: NonFiniteDensity(f"non-finite log density at initial point {Z[r]}")
        for r in failed.tolist()}
    return target, Z, logp, noise, unifs, lengths, failures


def reference_sample_hmc(model, datasets, n_steps, step_size, n_leapfrog, warmup, rngs,
                         lengths):
    """HMC as it was before the gradient was carried between transitions."""
    with np.errstate(all="ignore"):
        target, z, logp, momenta, unifs, lengths, failures = reference_start(
            model, datasets, rngs, warmup, n_steps, lengths)
        log_step = np.full(z.shape[0], math.log(step_size))
        draws = np.empty((len(rngs), n_steps, z.shape[1]))
        accepted = np.empty((n_steps, z.shape[0]), dtype=bool)
        divergences = np.empty((n_steps, z.shape[0]), dtype=bool)
        for t in range(warmup + n_steps):
            p0 = momenta[t]
            h0 = 0.5 * (p0 * p0).sum(axis=1) - logp
            z_new, p_new = parent_leapfrog(z, p0, np.exp(log_step)[:, np.newaxis], n_leapfrog,
                                           target.grad)
            logp_new = target.logpdf(z_new)
            delta_h = -logp_new + 0.5 * (p_new * p_new).sum(axis=1) - h0
            divergent = ~np.isfinite(delta_h) | (delta_h > DIVERGENCE_THRESHOLD)
            accept_prob = np.where(divergent, 0.0, np.exp(np.minimum(0.0, -delta_h)))
            took = ~divergent & (unifs[t] < accept_prob)
            z = np.where(took[:, np.newaxis], z_new, z)
            logp = np.where(took, logp_new, logp)
            if t < warmup:
                log_step += (accept_prob - HMC_TARGET_ACCEPT) / math.sqrt(t + 1.0)
            else:
                draws[:, t - warmup] = z
                accepted[t - warmup] = took
                divergences[t - warmup] = divergent

        return _draw_block(model, draws, failures, health_columns([
            {"acceptance_rate": float(accepted[:n, r].sum()) / n,
             "divergences": int(divergences[:n, r].sum()),
             "step_size": math.exp(log_step[r])} for r, n in enumerate(lengths.tolist())]))


def reference_sample_rw_metropolis(model, datasets, n_steps, step_size, warmup, rngs,
                                   lengths):
    """Random-walk Metropolis as it was written before it shared HMC's transition loop."""
    with np.errstate(all="ignore"):
        target, z, logp, noise, unifs, lengths, failures = reference_start(
            model, datasets, rngs, warmup, n_steps, lengths)
        d = z.shape[1]
        accept_target = RW_TARGET_ACCEPT_1D if d == 1 else RW_TARGET_ACCEPT_ND
        log_step = np.full(z.shape[0], math.log(step_size))
        draws = np.empty((z.shape[0], n_steps, d))
        accepted = np.empty((n_steps, z.shape[0]), dtype=bool)
        for t in range(warmup + n_steps):
            proposal = z + np.exp(log_step)[:, np.newaxis] * noise[t]
            logp_prop = target.logpdf(proposal)
            log_ratio = logp_prop - logp
            accept_prob = np.where(np.isfinite(log_ratio),
                                   np.exp(np.minimum(0.0, log_ratio)), 0.0)
            took = unifs[t] < accept_prob
            z = np.where(took[:, np.newaxis], proposal, z)
            logp = np.where(took, logp_prop, logp)
            if t < warmup:
                log_step += (accept_prob - accept_target) / math.sqrt(t + 1.0)
            else:
                draws[:, t - warmup] = z
                accepted[t - warmup] = took

        return _draw_block(model, draws, failures, health_columns([
            {"acceptance_rate": float(accepted[:n, r].sum()) / n,
             "step_size": math.exp(log_step[r])} for r, n in enumerate(lengths.tolist())]))


def assert_same_rows(a, b):
    """DrawBlocks a and b hold the same draws (NaN in the same failed rows), the same
    errors and the same health in their other rows."""
    np.testing.assert_array_equal(a.draws, b.draws)
    assert a.failures.keys() == b.failures.keys()
    for r, error in b.failures.items():
        assert type(a.failures[r]) is type(error) and str(a.failures[r]) == str(error)
    for r in range(len(b.draws)):
        assert_same_row(a, r, b, r)
    assert a.diagnostics == b.diagnostics


class TestCarriedGradient:
    """HMC that carries each row's gradient draws what the recomputing HMC drew."""

    def test_ragged_lengths_match_reference(self):
        model, datasets = lin_reg_datasets(5, seed=66)

        def fit(sampler):
            return sampler(model, datasets, 70, 0.3, 10, 40,
                           [RandomStream(66, i, "chain-rerun") for i in range(5)],
                           [70, 25, 70, 41, 3])
        assert_same_rows(fit(sample_hmc), fit(reference_sample_hmc))

    def test_failed_initial_point_matches_reference(self):
        model = make_flagged_model(cut=5.0)
        datasets = np.array([[y] for y in (0.3, 9.0, -1.2, 0.8)])

        def fit(sampler):
            return sampler(model, datasets, 50, 0.5, 5, 20,
                           [RandomStream(67, i, "chain") for i in range(4)], [50] * 4)
        block = fit(sample_hmc)
        assert isinstance(block.failures[1], NonFiniteDensity)
        assert_same_rows(block, fit(reference_sample_hmc))

    def test_failed_row_in_ragged_block_matches_reference(self):
        """A failed row starts with no transitions left while the others stop one by one."""
        model = make_flagged_model(cut=5.0)
        datasets = np.array([[y] for y in (0.3, 9.0, -1.2, 0.8)])

        def fit(sampler):
            return sampler(model, datasets, 50, 0.5, 5, 20,
                           [RandomStream(76, i, "chain-rerun") for i in range(4)],
                           [50, 20, 35, 3])
        block = fit(sample_hmc)
        assert list(block.failures) == [1]
        assert_same_rows(block, fit(reference_sample_hmc))

    def test_divergent_rows_match_reference(self):
        model = make_eight_schools(EightSchoolsSpec(parameterization="centered"))
        datasets = np.array([
            model.data_simulator(model.prior_simulator(RandomStream(68, i, "prior")),
                                 RandomStream(68, i, "data")) for i in range(6)])

        def fit(sampler):
            return sampler(model, datasets, 60, 2.5, 20, 10,
                           [RandomStream(68, i, "chain") for i in range(6)], [60] * 6)
        block = fit(sample_hmc)
        assert block.diagnostics["divergences"] > 0
        assert_same_rows(block, fit(reference_sample_hmc))

    def test_gradient_calls(self, correlated_gaussian_model):
        calls = []

        def counting_factory(observations):
            target = posterior_target(correlated_gaussian_model, observations)

            def grad(Z):
                calls.append(Z.shape[0])
                return target.grad(Z)
            return PosteriorTarget(target.logpdf, grad)

        model = dataclasses.replace(correlated_gaussian_model,
                                    posterior_factory=counting_factory)
        n_steps, n_leapfrog, warmup = 30, 7, 12
        sample_hmc(model, np.zeros((3, 1)), n_steps, 0.3, n_leapfrog, warmup,
                   [RandomStream(69, i, "chain") for i in range(3)], [n_steps] * 3)
        assert len(calls) == 1 + (warmup + n_steps) * n_leapfrog


def lin_reg_datasets(n, seed):
    model = make_lin_reg(LinRegSpec())
    return model, np.array([
        model.data_simulator(model.prior_simulator(RandomStream(seed, i, "prior")),
                             RandomStream(seed, i, "data")) for i in range(n)])


def make_walled_model():
    """x ~ N(0, 1) whose log density is -1e4 below -1.5, -inf below -3, NaN above 1.5 and
    +inf above 3, so random-walk proposals reach every kind of non-finite log density and
    finite log ratios below -DIVERGENCE_THRESHOLD."""
    def posterior_factory(observations):
        def logpdf(Z):
            x = Z[:, 0]
            return np.select([x < -3.0, x < -1.5, x > 3.0, x > 1.5],
                             [-np.inf, -1e4, np.inf, np.nan], -0.5 * x * x)
        return PosteriorTarget(logpdf, np.zeros_like)

    return GenerativeModel(
        name="walled-normal",
        parameter_names=("x",),
        prior_simulator=lambda rng: np.array([0.3 * rng.normal()]),
        data_simulator=lambda theta, rng: np.array([0.0]),
        posterior_factory=posterior_factory,
        quantities=(coordinate("x", ("x",)),),
        unconstraining_map=UnconstrainingMap(("identity",)),
    )


def without_gradient(model, densities):
    """``model`` whose targets raise on a gradient call and append each batch of log
    densities they evaluate to ``densities``."""
    def factory(observations):
        target = model.posterior_factory(observations)

        def logpdf(Z):
            densities.append(target.logpdf(Z))
            return densities[-1]

        def grad(Z):
            raise AssertionError("random-walk Metropolis evaluated a gradient")
        return PosteriorTarget(logpdf, grad)

    return dataclasses.replace(model, posterior_factory=factory)


class TestRwMatchesReference:
    """Random-walk Metropolis draws what its own transition loop drew."""

    def test_ragged_lengths_match_reference(self):
        model, datasets = lin_reg_datasets(5, seed=73)

        def fit(sampler):
            return sampler(model, datasets, 70, 0.5, 40,
                           [RandomStream(73, i, "chain-rerun") for i in range(5)],
                           [70, 25, 70, 41, 3])
        assert_same_rows(fit(sample_rw_metropolis), fit(reference_sample_rw_metropolis))

    def test_failed_initial_point_matches_reference(self):
        model = make_flagged_model(cut=5.0)
        datasets = np.array([[y] for y in (0.3, 9.0, -1.2, 0.8)])

        def fit(sampler):
            return sampler(model, datasets, 50, 0.5, 20,
                           [RandomStream(74, i, "chain") for i in range(4)], [50] * 4)
        block = fit(sample_rw_metropolis)
        assert isinstance(block.failures[1], NonFiniteDensity)
        assert_same_rows(block, fit(reference_sample_rw_metropolis))

    def test_failed_row_in_ragged_block_matches_reference(self):
        """A failed row starts with no transitions left while the others stop one by one."""
        model = make_flagged_model(cut=5.0)
        datasets = np.array([[y] for y in (0.3, 9.0, -1.2, 0.8)])

        def fit(sampler):
            return sampler(model, datasets, 50, 0.5, 20,
                           [RandomStream(77, i, "chain-rerun") for i in range(4)],
                           [50, 20, 35, 3])
        block = fit(sample_rw_metropolis)
        assert list(block.failures) == [1]
        assert_same_rows(block, fit(reference_sample_rw_metropolis))

    @pytest.mark.parametrize("model, datasets, step_size, kinds", [
        (make_walled_model(), np.zeros((4, 1)), 1.0,
         (np.isnan, np.isneginf, np.isposinf, lambda logp: logp == -1e4)),
        (*lin_reg_datasets(4, seed=75), 1e200, (np.isnan, np.isneginf)),
    ], ids=["walled", "lin-reg-overflow"])
    def test_non_finite_proposals_match_reference(self, model, datasets, step_size, kinds):
        """Proposals whose log density is NaN, -inf, +inf or far below the current one are
        rejected as before, during warmup and after it, and no gradient is evaluated."""
        densities = []
        model = without_gradient(model, densities)

        def fit(sampler):
            return sampler(model, datasets, 60, step_size, 30,
                           [RandomStream(75, i, "chain-rerun") for i in range(4)],
                           [60, 20, 60, 45])
        block = fit(sample_rw_metropolis)
        proposed = np.concatenate(densities[1:])  # the first batch is the initial points
        assert all(kind(proposed).any() for kind in kinds)
        assert_same_rows(block, fit(reference_sample_rw_metropolis))


def assert_same_row(a, i, b, j):
    """Row i of DrawBlock a has the draws of row j of DrawBlock b, over b's n draws (a's
    row may run longer), and unless it failed, the same health."""
    np.testing.assert_array_equal(a.draws[i, :b.draws.shape[1]], b.draws[j])
    assert a.health.keys() == b.health.keys()
    if i not in a.failures:
        for key, column in a.health.items():
            assert column[i] == b.health[key][j], key


class TestLockstep:
    """A row of a lockstep fit equals the same dataset fitted alone."""

    @pytest.mark.parametrize("sampler, settings", [
        (sample_hmc, (60, 0.3, 10, 40)), (sample_rw_metropolis, (60, 0.5, 40))])
    def test_rows_match_single_row_fits(self, sampler, settings):
        model, datasets = lin_reg_datasets(6, seed=61)
        block = sampler(model, datasets, *settings,
                        [RandomStream(61, i, "chain") for i in range(6)], [settings[0]] * 6)
        part = sampler(model, datasets[2:5], *settings,
                       [RandomStream(61, i, "chain") for i in range(2, 5)], [settings[0]] * 3)
        for i in range(6):
            assert_same_row(block, i, fit_block_one(sampler, model, datasets[i], *settings,
                                                    RandomStream(61, i, "chain")), 0)
        for k, i in enumerate(range(2, 5)):
            assert_same_row(part, k, block, i)
        assert block.diagnostics["acceptance_rate"] == pytest.approx(
            np.mean(block.health["acceptance_rate"]))

    @pytest.mark.parametrize("sampler, settings", [
        (sample_hmc, (0.3, 10, 40)), (sample_rw_metropolis, (0.5, 40))])
    def test_row_lengths_match_single_row_fits(self, sampler, settings):
        """Rows of one block may run for different lengths (Algorithm 2's reruns)."""
        model, datasets = lin_reg_datasets(4, seed=65)
        lengths = [70, 25, 70, 41]
        *step, warmup = settings
        block = sampler(model, datasets, 70, *step, warmup,
                        [RandomStream(65, i, "chain-rerun") for i in range(4)], lengths)
        assert block.draws.shape == (4, 70, 3) and block.draws.flags.c_contiguous
        for i, n in enumerate(lengths):
            # Past its length a row repeats its last state.
            assert (block.draws[i, n:] == block.draws[i, n - 1]).all()
            assert_same_row(block, i, fit_block_one(sampler, model, datasets[i], lengths[i],
                                                    *settings, RandomStream(65, i, "chain-rerun")),
                            0)

    @pytest.mark.parametrize("model", [
        make_normal_normal(NormalNormalSpec(n_obs=25)),
        make_eight_schools(EightSchoolsSpec(parameterization="non-centered"))],
        ids=["normal-normal", "eight-schools-non-centered"])
    def test_vi_rows_match_single_row_fits(self, model):
        """Each row's draws, on the constrained scale (eight schools' tau is a log
        coordinate), equal a one-row fit's."""
        datasets = np.array([
            model.data_simulator(model.prior_simulator(RandomStream(62, i, "prior")),
                                 RandomStream(62, i, "data")) for i in range(5)])
        block = fit_meanfield_vi(model, datasets, 500, 0.05,
                                 [RandomStream(62, i, "vi") for i in range(5)], 40,
                                 [RandomStream(62, i, "chain") for i in range(5)])
        d = len(model.parameter_names)
        assert block.draws.shape == (5, 40, d) and not block.failures
        assert block.health == {}
        for i in range(5):
            alone = fit_vi_one(model, datasets[i], 500, 0.05, RandomStream(62, i, "vi"), 40,
                               RandomStream(62, i, "chain"))
            assert_same_row(block, i, alone, 0)

    def test_failed_row_leaves_other_rows_unchanged(self):
        """Rows with a non-finite initial density or ELBO gradient fail alone."""
        model = make_flagged_model(cut=5.0)
        datasets = np.array([[y] for y in (0.3, 9.0, -1.2, 0.8)])
        block = sample_hmc(model, datasets, 50, 0.5, 5, 20,
                           [RandomStream(63, i, "chain") for i in range(4)], [50] * 4)
        z0 = model.prior_simulator(RandomStream(63, 1, "chain"))
        assert list(block.failures) == [1]
        assert isinstance(block.failures[1], NonFiniteDensity)
        assert str(block.failures[1]) == f"non-finite log density at initial point {z0}"
        assert np.isnan(block.draws[1]).all()
        live = [0, 2, 3]  # the block's totals leave the failed row out
        assert block.diagnostics == {
            "acceptance_rate": float(np.mean(block.health["acceptance_rate"][live])),
            "divergences": int(block.health["divergences"][live].sum())}
        for i in live:
            assert_same_row(block, i, fit_block_one(sample_hmc, model, datasets[i], 50, 0.5,
                                                    5, 20, RandomStream(63, i, "chain")), 0)
        block = fit_meanfield_vi(model, datasets, 300, 0.05,
                                 [RandomStream(63, i, "vi") for i in range(4)], 30,
                                 [RandomStream(63, i, "chain") for i in range(4)])
        assert list(block.failures) == [1]
        assert isinstance(block.failures[1], Diverged)
        assert str(block.failures[1]) == "non-finite ELBO gradient at iteration 0"
        assert np.isnan(block.draws[1]).all()
        for i in (0, 2, 3):
            alone = fit_vi_one(model, datasets[i], 300, 0.05, RandomStream(63, i, "vi"), 30,
                               RandomStream(63, i, "chain"))
            assert_same_row(block, i, alone, 0)

    def test_hmc_matches_exact_posterior(self):
        """One conjugate dataset: the chain's mean and sd match the closed form."""
        model = make_normal_normal(NormalNormalSpec(1.0, 2.0, 1.5, 4))
        data = np.array([2.3, 0.4, 3.1, 1.7])
        draws = fit_one(sample_hmc, model, data, 20_000, 0.5, 5, 200,
                        RandomStream(64, 0, "chain"))
        mean, sd = exact_posterior_one(model, data)
        x = draws[:, 0]
        n_eff = effective_sample_sizes(x[None])[0]
        assert abs(x.mean() - mean) < 4 * sd / math.sqrt(n_eff)
        assert x.std() == pytest.approx(sd, rel=4 / math.sqrt(n_eff) + 0.01)


@pytest.mark.parametrize("sampler, settings", [
    (sample_hmc, (0.3, 5, 5)), (sample_rw_metropolis, (0.5, 5))], ids=["hmc", "rw"])
@pytest.mark.parametrize("lengths", [[10, 12], [0, 10], [-1, 10], [10.5, 10]],
                         ids=["too-long", "zero", "negative", "fractional"])
def test_lengths_outside_one_to_n_steps_are_refused(sampler, settings, lengths):
    """Each row's length must be an integer in [1, n_steps]."""
    model, datasets = lin_reg_datasets(2, seed=78)
    with pytest.raises(ValueError, match=r"lengths must be integers in \[1, n_steps=10\]"):
        sampler(model, datasets, 10, *settings,
                [RandomStream(78, i, "chain") for i in range(2)], lengths)


def streams(count, tag):
    return [RandomStream(79, i, tag) for i in range(count)]


# Each sampler on three normal-normal datasets, given ``rngs`` as the streams under test
# and ``lengths`` as its chains' lengths.
STREAMED_FITS = {
    "exact": lambda model, data, rngs, lengths: sample_exact_conjugate(model, data, 5, rngs),
    "rw": lambda model, data, rngs, lengths: sample_rw_metropolis(model, data, 10, 0.5, 5,
                                                                  rngs, lengths),
    "hmc": lambda model, data, rngs, lengths: sample_hmc(model, data, 10, 0.3, 5, 5, rngs,
                                                         lengths),
    "vi": lambda model, data, rngs, lengths: fit_meanfield_vi(model, data, 20, 0.05, rngs, 5,
                                                              streams(3, "chain")),
    "vi-draws": lambda model, data, rngs, lengths: fit_meanfield_vi(
        model, data, 20, 0.05, streams(3, "vi"), 5, rngs),
}


def normal_normal_datasets(n, seed):
    model = make_normal_normal(NormalNormalSpec(n_obs=4))
    return model, np.array([
        model.data_simulator(model.prior_simulator(RandomStream(seed, i, "prior")),
                             RandomStream(seed, i, "data")) for i in range(n)])


@pytest.mark.parametrize("fit", list(STREAMED_FITS))
@pytest.mark.parametrize("count", [2, 4], ids=["one-too-few", "one-too-many"])
def test_one_stream_per_row_is_required(fit, count):
    """A sampler given one stream fewer or one more than its rows raises ValueError; with
    one per row it fits them all."""
    model, datasets = normal_normal_datasets(3, seed=79)
    with pytest.raises(ValueError, match=r"zip\(\) argument 2 is (shorter|longer)"):
        STREAMED_FITS[fit](model, datasets, streams(count, "chain"), [10] * 3)
    draws = STREAMED_FITS[fit](model, datasets, streams(3, "chain"), [10] * 3)
    assert np.isfinite(getattr(draws, "draws", draws)).all()


@pytest.mark.parametrize("fit", ["rw", "hmc"])
@pytest.mark.parametrize("count", [2, 4], ids=["one-too-few", "one-too-many"])
def test_one_length_per_row_is_required(fit, count):
    model, datasets = normal_normal_datasets(3, seed=80)
    with pytest.raises(ValueError, match=r"zip\(\) argument 3 is (shorter|longer)"):
        STREAMED_FITS[fit](model, datasets, streams(3, "chain"), [10] * count)


class TestMeanfieldVi:
    def test_standard_normal_recovered(self, std_normal_model):
        draws = fit_vi_one(std_normal_model, np.array([0.0]), 10_000, 0.05,
                           RandomStream(55, 0, "vi"), 50_000, RandomStream(55, 0, "chain")).draws
        assert abs(draws.mean()) < 0.05
        assert abs(draws.std() - 1.0) < 0.1

    def test_correlated_target_underestimates_variance(self, correlated_gaussian_model):
        # Mean-field KL optimum has variance 1/Lambda_ii = 1 - rho^2 = 0.19,
        # strictly below the true marginal variance of 1.
        draws = fit_vi_one(correlated_gaussian_model, np.array([0.0]), 20_000, 0.05,
                           RandomStream(56, 0, "vi"), 50_000, RandomStream(56, 0, "chain")).draws
        sds = draws[0].std(axis=0)
        assert np.all(sds < 0.9)
        np.testing.assert_allclose(sds, math.sqrt(0.19), atol=0.1)

    def test_draws_are_affine_in_the_draw_stream(self, std_normal_model):
        """A row draws m + exp(omega) * eps, eps standard normals from its draw stream."""
        (draws,) = fit_vi_one(std_normal_model, np.array([0.0]), 5000, 0.05,
                              RandomStream(57, 0, "vi"), 1000, RandomStream(57, 0, "chain")).draws
        eps = RandomStream(57, 0, "chain").standard_normal((1000, 1))
        sd = (draws[1] - draws[0]) / (eps[1] - eps[0])
        assert sd > 0
        np.testing.assert_allclose(draws, draws[0] + sd * (eps - eps[0]), rtol=1e-12, atol=1e-12)

    def test_divergence_detected(self, std_normal_model):
        block = fit_vi_one(std_normal_model, np.array([0.0]), 2000, 1e6,
                           RandomStream(58, 0, "vi"), 10, RandomStream(58, 0, "chain"))
        assert isinstance(block.failures[0], Diverged)
        assert np.isnan(block.draws).all()


class TestCorrupt:
    NAMES = ("mu",)

    def _exact_draws(self, L=1000, seed=59):
        """A 1-row (1, L, 1) block of exact draws."""
        model = make_normal_normal(NormalNormalSpec())
        return sample_exact_conjugate(model, np.array([[0.7]]), L,
                                      [RandomStream(seed, 0, "chain")])

    def test_none_is_identity(self):
        draws = self._exact_draws()
        assert corrupt(draws, self.NAMES, Corruption()) is draws

    def test_scale_round_trip(self):
        draws = self._exact_draws()
        c2 = Corruption(kind="scale", amount=2.0, target_quantity="mu")
        c_half = Corruption(kind="scale", amount=0.5, target_quantity="mu")
        back = corrupt(corrupt(draws, self.NAMES, c2), self.NAMES, c_half)
        np.testing.assert_allclose(back, draws, atol=1e-12)

    def test_shift_changes_mean_only(self):
        draws = self._exact_draws()
        shifted = corrupt(draws, self.NAMES,
                          Corruption(kind="shift", amount=-0.5, target_quantity="mu"))
        assert shifted.mean() == pytest.approx(draws.mean() - 0.5)
        assert shifted.std() == pytest.approx(draws.std())

    @pytest.mark.parametrize("kind, amount", [("scale", 0.2), ("shift", -0.5)])
    def test_rows_match_single_rows(self, kind, amount):
        """Each row of a corrupted block equals that row corrupted alone, bit for bit,
        and only the target column moves."""
        draws = np.random.default_rng(72).normal(size=(7, 1023, 3))
        names = ("a", "b", "c")
        c = Corruption(kind=kind, amount=amount, target_quantity="b")
        block = corrupt(draws, names, c)
        np.testing.assert_array_equal(block[..., [0, 2]], draws[..., [0, 2]])
        for r in range(7):
            np.testing.assert_array_equal(block[r], corrupt(draws[r:r + 1], names, c)[0])
            column = draws[r, :, 1]
            if kind == "scale":
                center = column.mean()
                expected = center + amount * (column - center)
            else:
                expected = column + amount
            np.testing.assert_array_equal(block[r, :, 1], expected)

    def test_shift_down_biases_ranks_high(self):
        """Posterior draws shifted low rank the prior draw higher on average."""
        model = make_normal_normal(NormalNormalSpec())
        c = Corruption(kind="shift", amount=-0.5, target_quantity="mu")
        L = 19
        ranks, ranks_shifted = [], []
        for i in range(500):
            theta = model.prior_simulator(RandomStream(60, i, "prior"))
            data = model.data_simulator(theta, RandomStream(60, i, "data"))
            draws = sample_exact_conjugate(model, data[np.newaxis], L,
                                           [RandomStream(60, i, "chain")])
            ranks.append(rank_statistic(draws[0, :, 0], theta[0]))
            shifted = corrupt(draws, self.NAMES, c)
            ranks_shifted.append(rank_statistic(shifted[0, :, 0], theta[0]))
        assert np.mean(ranks_shifted) > np.mean(ranks) + 2.0

    def test_unknown_target(self):
        draws = self._exact_draws()
        with pytest.raises(UnknownParameter):
            corrupt(draws, self.NAMES,
                    Corruption(kind="shift", amount=1.0, target_quantity="beta"))

    def test_invalid_scale_amount(self):
        with pytest.raises(InvalidSpec):
            Corruption(kind="scale", amount=0.0, target_quantity="mu")
