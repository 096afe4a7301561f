import dataclasses
import math

import numpy as np
import pytest

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
    Corruption,
    SamplerConfig,
    _draw_block,
    _start,
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
    """Fit one dataset as a 1-row lockstep batch; returns the 1-row DrawBlock."""
    *settings, rng = args
    return sampler(model, data[np.newaxis], *settings, [rng])


def fit_one(sampler, model, data, *args):
    """Fit one dataset as a 1-row lockstep batch; returns that row's draws or error."""
    (row,) = fit_block_one(sampler, model, data, *args).rows
    return row


def fit_vi_one(model, data, iterations, learning_rate, rng):
    (approx,) = fit_meanfield_vi(model, data[np.newaxis], iterations, learning_rate, [rng])
    return approx


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
        assert block.row_diagnostics[0]["acceptance_rate"] > 0.999
        x = block.rows[0][:, 0]
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
            quantities=(coordinate("x"),),
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
        assert 0.3 < block.row_diagnostics[0]["acceptance_rate"] < 0.6


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
                           [RandomStream(54, i, "chain") for i in range(20)])
        assert sum(diag["divergences"] for diag in block.row_diagnostics) > 0
        assert block.diagnostics["divergences"] == sum(
            diag["divergences"] for diag in block.row_diagnostics)


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


def reference_sample_hmc(model, datasets, n_steps, step_size, n_leapfrog, warmup, rngs,
                         lengths=None):
    """HMC as it was before the gradient was carried between transitions."""
    with np.errstate(all="ignore"):
        target, z, logp, momenta, unifs, lengths, failures = _start(
            model, datasets, rngs, warmup, n_steps, lengths)
        log_step = np.full(z.shape[0], math.log(step_size))
        chain = np.empty((n_steps,) + z.shape)
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
                chain[t - warmup] = z
                accepted[t - warmup] = took
                divergences[t - warmup] = divergent

    diagnostics = [{"acceptance_rate": float(accepted[:n, k].sum()) / n,
                    "divergences": int(divergences[:n, k].sum()),
                    "step_size": math.exp(log_step[k])}
                   for k, n in enumerate(lengths.tolist())]
    return _draw_block(model, len(rngs), chain, lengths, failures, diagnostics)


def assert_same_rows(a, b):
    assert len(a.rows) == len(b.rows)
    for i, y in enumerate(b.rows):
        if isinstance(y, Exception):
            assert type(a.rows[i]) is type(y) and str(a.rows[i]) == str(y)
            assert a.row_diagnostics[i] == b.row_diagnostics[i] == {}
        else:
            assert_same_row(a, i, b, i)
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
                           [RandomStream(67, i, "chain") for i in range(4)])
        block = fit(sample_hmc)
        assert isinstance(block.rows[1], NonFiniteDensity)
        assert_same_rows(block, fit(reference_sample_hmc))

    def test_divergent_rows_match_reference(self):
        model = make_eight_schools(EightSchoolsSpec(parameterization="centered"))
        datasets = np.array([
            model.data_simulator(model.prior_simulator(RandomStream(68, i, "prior")),
                                 RandomStream(68, i, "data")) for i in range(6)])

        def fit(sampler):
            return sampler(model, datasets, 60, 2.5, 20, 10,
                           [RandomStream(68, i, "chain") for i in range(6)])
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
                   [RandomStream(69, i, "chain") for i in range(3)])
        assert len(calls) == 1 + (warmup + n_steps) * n_leapfrog


def lin_reg_datasets(n, seed):
    model = make_lin_reg(LinRegSpec())
    return model, np.array([
        model.data_simulator(model.prior_simulator(RandomStream(seed, i, "prior")),
                             RandomStream(seed, i, "data")) for i in range(n)])


def assert_same_row(a, i, b, j):
    """Row i of DrawBlock a has the draws and health of row j of DrawBlock b."""
    np.testing.assert_array_equal(a.rows[i], b.rows[j])
    assert a.row_diagnostics[i].keys() == b.row_diagnostics[j].keys()
    for key, value in a.row_diagnostics[i].items():
        np.testing.assert_array_equal(value, b.row_diagnostics[j][key])


class TestLockstep:
    """A row of a lockstep fit equals the same dataset fitted alone."""

    @pytest.mark.parametrize("sampler, settings", [
        (sample_hmc, (60, 0.3, 10, 40)), (sample_rw_metropolis, (60, 0.5, 40))])
    def test_rows_match_single_row_fits(self, sampler, settings):
        model, datasets = lin_reg_datasets(6, seed=61)
        block = sampler(model, datasets, *settings,
                        [RandomStream(61, i, "chain") for i in range(6)])
        part = sampler(model, datasets[2:5], *settings,
                       [RandomStream(61, i, "chain") for i in range(2, 5)])
        for i in range(6):
            assert_same_row(block, i, fit_block_one(sampler, model, datasets[i], *settings,
                                                    RandomStream(61, i, "chain")), 0)
        for k, i in enumerate(range(2, 5)):
            assert_same_row(part, k, block, i)
        rates = [diag["acceptance_rate"] for diag in block.row_diagnostics]
        assert block.diagnostics["acceptance_rate"] == pytest.approx(np.mean(rates))

    @pytest.mark.parametrize("sampler, settings", [
        (sample_hmc, (0.3, 10, 40)), (sample_rw_metropolis, (0.5, 40))])
    def test_row_lengths_match_single_row_fits(self, sampler, settings):
        """Rows of one block may run for different lengths (Algorithm 2's reruns)."""
        model, datasets = lin_reg_datasets(4, seed=65)
        lengths = [70, 25, 70, 41]
        *step, warmup = settings
        block = sampler(model, datasets, 70, *step, warmup,
                        [RandomStream(65, i, "chain-rerun") for i in range(4)], lengths)
        for i, draws in enumerate(block.rows):
            assert len(draws) == lengths[i]
            assert_same_row(block, i, fit_block_one(sampler, model, datasets[i], lengths[i],
                                                    *settings, RandomStream(65, i, "chain-rerun")),
                            0)

    def test_vi_rows_match_single_row_fits(self):
        model = make_normal_normal(NormalNormalSpec(n_obs=3))
        datasets = np.array([np.array([0.1, -0.4, 2.0]) * i for i in range(5)])
        approxes = fit_meanfield_vi(model, datasets, 500, 0.05,
                                    [RandomStream(62, i, "vi") for i in range(5)])
        for i, approx in enumerate(approxes):
            alone = fit_vi_one(model, datasets[i], 500, 0.05, RandomStream(62, i, "vi"))
            np.testing.assert_array_equal(approx.means, alone.means)
            np.testing.assert_array_equal(approx.log_sds, alone.log_sds)

    def test_failed_row_leaves_other_rows_unchanged(self):
        """Rows with a non-finite initial density or ELBO gradient fail alone."""
        model = make_flagged_model(cut=5.0)
        datasets = np.array([[y] for y in (0.3, 9.0, -1.2, 0.8)])
        block = sample_hmc(model, datasets, 50, 0.5, 5, 20,
                           [RandomStream(63, i, "chain") for i in range(4)])
        z0 = model.prior_simulator(RandomStream(63, 1, "chain"))
        assert isinstance(block.rows[1], NonFiniteDensity)
        assert str(block.rows[1]) == f"non-finite log density at initial point {z0}"
        assert block.row_diagnostics[1] == {}
        for i in (0, 2, 3):
            assert_same_row(block, i, fit_block_one(sample_hmc, model, datasets[i], 50, 0.5,
                                                    5, 20, RandomStream(63, i, "chain")), 0)
        approxes = fit_meanfield_vi(model, datasets, 300, 0.05,
                                    [RandomStream(63, i, "vi") for i in range(4)])
        assert isinstance(approxes[1], Diverged)
        assert str(approxes[1]) == "non-finite ELBO gradient at iteration 0"
        for i in (0, 2, 3):
            alone = fit_vi_one(model, datasets[i], 300, 0.05, RandomStream(63, i, "vi"))
            np.testing.assert_array_equal(approxes[i].means, alone.means)

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


class TestMeanfieldVi:
    def test_standard_normal_recovered(self, std_normal_model):
        approx = fit_vi_one(std_normal_model, np.array([0.0]),
                            10_000, 0.05, RandomStream(55, 0, "vi"))
        assert abs(approx.means[0]) < 0.05
        assert abs(math.exp(approx.log_sds[0]) - 1.0) < 0.1

    def test_correlated_target_underestimates_variance(self, correlated_gaussian_model):
        # Mean-field KL optimum has variance 1/Lambda_ii = 1 - rho^2 = 0.19,
        # strictly below the true marginal variance of 1.
        approx = fit_vi_one(correlated_gaussian_model, np.array([0.0]),
                            20_000, 0.05, RandomStream(56, 0, "vi"))
        sds = np.exp(approx.log_sds)
        assert np.all(sds < 0.9)
        np.testing.assert_allclose(sds, math.sqrt(0.19), atol=0.1)

    def test_sampling_from_approximation(self, std_normal_model):
        approx = fit_vi_one(std_normal_model, np.array([0.0]),
                            5000, 0.05, RandomStream(57, 0, "vi"))
        draws = approx.sample(50_000, RandomStream(57, 0, "chain"))
        assert len(draws) == 50_000
        assert abs(draws.mean() - approx.means[0]) < 0.02

    def test_divergence_detected(self, std_normal_model):
        approx = fit_vi_one(std_normal_model, np.array([0.0]),
                            2000, 1e6, RandomStream(58, 0, "vi"))
        assert isinstance(approx, Diverged)


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
