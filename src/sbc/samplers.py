"""Posterior samplers under test, plus corruption wrappers.

One exact reference sampler (conjugate normal-normal), two MCMC samplers
(random-walk Metropolis and fixed-path HMC), and a mean-field Gaussian
variational fit.  All MCMC runs happen on the unconstrained scale and start
from a fresh prior draw, which stresses mixing honestly.

Every sampler fits R replications in one call: it takes an (R, n) array of
observations, one dataset per row, and R random streams.  The MCMC and VI
samplers hold their states as (R, d) arrays and call the model's batched
density once per step for all rows.  Each row keeps its own step size,
adaptation state and stream, from which it draws its initial point, its
noise and its uniforms in the order a single fit would, so a row's draws do
not depend on the other rows.  A fit runs under one ``np.errstate``; rows
whose arithmetic overflows are masked once per step (rejected, or failed),
and a row that cannot be fitted fails alone.  The exact sampler makes one
batched posterior call and then draws each row's L values from its own
stream.

Corruption wrappers inject the canonical failure modes (shifted or rescaled
marginals) into otherwise exact draws so the diagnostics can be exercised
end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    Diverged,
    InvalidSpec,
    NonFiniteDensity,
    NotConjugate,
    SbcError,
    UnknownParameter,
)
from .model import GenerativeModel, posterior_target
from .streams import RandomStream

SAMPLER_KINDS = ("exact-conjugate", "rw-metropolis", "hmc", "meanfield-vi")

# Standard acceptance-rate targets for warmup step-size adaptation.
RW_TARGET_ACCEPT_1D = 0.44
RW_TARGET_ACCEPT_ND = 0.234
HMC_TARGET_ACCEPT = 0.8

# Energy error beyond which a trajectory is counted as divergent.
DIVERGENCE_THRESHOLD = 1e3


@dataclass(frozen=True)
class SamplerConfig:
    kind: str = "exact-conjugate"
    step_size: float = 0.5
    n_leapfrog: int = 10
    vi_iterations: int = 10_000
    vi_learning_rate: float = 0.05
    warmup: int = 200

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise InvalidSpec(f"unknown sampler kind {self.kind!r}; choose from {SAMPLER_KINDS}")
        if not (self.step_size > 0 and self.vi_learning_rate > 0):
            raise InvalidSpec("step_size and vi_learning_rate must be positive")
        if self.n_leapfrog < 1 or self.vi_iterations < 1 or self.warmup < 0:
            raise InvalidSpec("n_leapfrog and vi_iterations must be >= 1, warmup >= 0")


@dataclass(frozen=True)
class Corruption:
    """Deterministic defect injected into posterior draws.

    ``shift`` adds ``amount`` to one coordinate (posterior biased by +amount);
    ``scale`` multiplies that coordinate's deviations from the draw mean by
    ``amount`` (overdispersed posterior for amount > 1, underdispersed below).
    """

    kind: str = "none"
    amount: float = 0.0
    target_quantity: str = ""

    def __post_init__(self):
        if self.kind not in ("none", "shift", "scale"):
            raise InvalidSpec(f"unknown corruption kind {self.kind!r}")
        if self.kind == "scale" and not self.amount > 0:
            raise InvalidSpec("scale corruption requires amount > 0")
        if self.kind != "none" and not self.target_quantity:
            raise InvalidSpec("corruption requires a target_quantity")


def sample_exact_conjugate(model: GenerativeModel, observations: np.ndarray, L: int,
                           rngs) -> np.ndarray:
    """L independent draws from each row's closed-form conjugate posterior: an (R, L, 1) array.

    Row r is the posterior given ``observations[r]``, drawn from ``rngs[r]``
    as ``rng.normal(mean, sd, size=L)``, so it equals a one-row call.  A row
    whose posterior is not finite gets non-finite draws.
    """
    if model.exact_posterior is None:
        raise NotConjugate(f"model {model.name!r} has no closed-form posterior")
    if L < 1:
        raise ValueError("L must be >= 1")
    mean, sd = model.exact_posterior(observations)
    draws = np.empty((len(rngs), L, 1))
    for out, rng, m, s in zip(draws, rngs, mean.tolist(), sd.tolist()):
        out[:, 0] = rng.normal(m, s, size=L)
    return draws


@dataclass(frozen=True)
class DrawBlock:
    """Draws of one lockstep fit of R replications.

    ``rows[r]`` is the (length, d) array of constrained draws of the
    replication whose stream was ``rngs[r]``, columns in the order of the
    model's parameter names, or the :class:`SbcError` that failed that row
    alone.  ``row_diagnostics[r]`` is that row's health for the run's
    ``meta.json`` (empty for a failed row): acceptance rate and final step
    size, and for HMC the divergence count.  The block's ``diagnostics``
    summarise them as the fitted rows' mean acceptance rate and their total
    divergences.
    """

    rows: tuple[np.ndarray | SbcError, ...]
    row_diagnostics: tuple[dict, ...]
    diagnostics: dict


def _draw_block(model: GenerativeModel, n_rows: int, chain, lengths, failures: dict,
                diagnostics: list[dict]) -> DrawBlock:
    """Per-row draws: fitted row k keeps the first ``lengths[k]`` states of ``chain[:, k]``."""
    fitted = [r for r in range(n_rows) if r not in failures]
    rows, row_diagnostics = dict(failures), dict.fromkeys(failures, {})
    for k, r in enumerate(fitted):
        rows[r] = model.unconstraining_map.constrain_matrix(chain[:lengths[k], k])
        row_diagnostics[r] = diagnostics[k]
    rates = [diag["acceptance_rate"] for diag in diagnostics]
    return DrawBlock(tuple(rows[r] for r in range(n_rows)),
                     tuple(row_diagnostics[r] for r in range(n_rows)), {
        "acceptance_rate": float(np.mean(rates)) if rates else 0.0,
        "divergences": sum(diag.get("divergences", 0) for diag in diagnostics),
    })


def _start(model: GenerativeModel, observations, rngs, warmup: int, n_steps: int, lengths):
    """Initial points, the rows' noise and uniforms, and the target bound to the fittable rows.

    Row r runs warmup + lengths[r] steps (n_steps when ``lengths`` is None).
    It draws its initial point from the prior, then a (steps, d) block of
    standard normals, then ``steps`` uniforms, all from its own stream; past
    its last step it is padded with zero noise and uniforms of 1, which
    reject every move.  A row whose initial point or initial density is
    non-finite fails alone (:class:`NonFiniteDensity`).
    Returns (target, z, logp, noise, unifs, lengths, failures) over the R'
    fittable rows: noise (warmup + n_steps, R', d), uniforms
    (warmup + n_steps, R'), their lengths (R',), and a map from each failed
    row to its error.
    """
    d = len(model.parameter_names)
    Z = np.array([model.unconstraining_map.unconstrain(model.prior_simulator(rng))
                  for rng in rngs]).reshape(len(rngs), d)
    target = posterior_target(model, observations)
    logp = target.logpdf(Z)
    failures: dict[int, SbcError] = {
        r: NonFiniteDensity(f"non-finite log density at initial point {Z[r]}")
        for r in np.flatnonzero(~(np.isfinite(logp) & np.isfinite(Z).all(axis=1))).tolist()}
    fitted = [r for r in range(len(rngs)) if r not in failures]
    if failures:
        target = posterior_target(model, observations[fitted])
        Z, logp = Z[fitted], logp[fitted]
    lengths = np.array([n_steps if lengths is None else lengths[r] for r in fitted], dtype=int)
    noise = np.zeros((warmup + n_steps, len(fitted), d))
    unifs = np.ones((warmup + n_steps, len(fitted)))
    for k, r in enumerate(fitted):
        steps = warmup + lengths[k]
        noise[:steps, k] = rngs[r].standard_normal((steps, d))
        unifs[:steps, k] = rngs[r].uniform(size=steps)
    return target, Z, logp, noise, unifs, lengths, failures


def sample_rw_metropolis(model: GenerativeModel, observations, n_steps: int, step_size: float,
                         warmup: int, rngs, lengths=None) -> DrawBlock:
    """Random-walk Metropolis chains of n_steps post-warmup states, one per dataset.

    Row r fits ``observations[r]`` with the stream ``rngs[r]``; all rows advance
    in lockstep.  ``lengths[r]`` (at most n_steps) shortens row r's chain;
    its draws are those of a fit of that length alone.  Each row's step size
    adapts toward the standard acceptance target during warmup only and is
    frozen afterwards so the retained chain is Markovian.
    """
    with np.errstate(all="ignore"):
        target, z, logp, noise, unifs, lengths, failures = _start(
            model, observations, rngs, warmup, n_steps, lengths)
        d = z.shape[1]
        accept_target = RW_TARGET_ACCEPT_1D if d == 1 else RW_TARGET_ACCEPT_ND
        log_step = np.full(z.shape[0], math.log(step_size))
        chain = np.empty((n_steps,) + z.shape)
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
                chain[t - warmup] = z
                accepted[t - warmup] = took

    diagnostics = [{"acceptance_rate": float(accepted[:n, k].sum()) / n,
                    "step_size": math.exp(log_step[k])} for k, n in enumerate(lengths.tolist())]
    return _draw_block(model, len(rngs), chain, lengths, failures, diagnostics)


def leapfrog(z: np.ndarray, p: np.ndarray, g: np.ndarray, step, n: int,
             grad) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard leapfrog integration of (z, p) for n steps; returns copies and the end gradient.

    ``z``, ``p`` and ``g``, the gradient at ``z``, are (R, d), and ``step``
    is a scalar or an (R, 1) column of per-row step sizes.  Returns the end
    point, its momentum and the gradient there, so a trajectory that starts
    where the last one ended costs n gradient evaluations, not n + 1.
    """
    z, p = z.copy(), p.copy()
    half = 0.5 * step
    p += half * g
    for i in range(n):
        z += step * p
        g = grad(z)
        if i < n - 1:
            p += step * g
    p += half * g
    return z, p, g


def sample_hmc(model: GenerativeModel, observations, n_steps: int, step_size: float,
               n_leapfrog: int, warmup: int, rngs, lengths=None) -> DrawBlock:
    """Fixed-path HMC with identity mass matrix and Metropolis correction.

    Row r fits ``observations[r]`` with the stream ``rngs[r]``; all rows advance
    in lockstep, one batched gradient per leapfrog step.  ``lengths[r]`` (at
    most n_steps) shortens row r's chain; its draws are those of a fit of
    that length alone.  Trajectories whose energy error exceeds
    DIVERGENCE_THRESHOLD (or goes non-finite) are rejected and counted as
    divergences.  Each row's step size adapts toward 0.8 acceptance during
    warmup only.

    Each row carries the gradient at its current state from one transition
    to the next: it is computed once before the first transition, replaced
    by a trajectory's end gradient when the row accepts, and kept when it
    rejects.  The batched gradient is row-local, so the carried value equals
    a recomputed one bit for bit, and a fit makes 1 + transitions *
    n_leapfrog gradient calls.
    """
    with np.errstate(all="ignore"):
        target, z, logp, momenta, unifs, lengths, failures = _start(
            model, observations, rngs, warmup, n_steps, lengths)
        g = target.grad(z)
        log_step = np.full(z.shape[0], math.log(step_size))
        chain = np.empty((n_steps,) + z.shape)
        accepted = np.empty((n_steps, z.shape[0]), dtype=bool)
        divergences = np.empty((n_steps, z.shape[0]), dtype=bool)
        for t in range(warmup + n_steps):
            p0 = momenta[t]
            h0 = 0.5 * (p0 * p0).sum(axis=1) - logp
            z_new, p_new, g_new = leapfrog(z, p0, g, np.exp(log_step)[:, np.newaxis],
                                           n_leapfrog, target.grad)
            logp_new = target.logpdf(z_new)
            delta_h = -logp_new + 0.5 * (p_new * p_new).sum(axis=1) - h0
            divergent = ~np.isfinite(delta_h) | (delta_h > DIVERGENCE_THRESHOLD)
            accept_prob = np.where(divergent, 0.0, np.exp(np.minimum(0.0, -delta_h)))
            took = ~divergent & (unifs[t] < accept_prob)
            z = np.where(took[:, np.newaxis], z_new, z)
            g = np.where(took[:, np.newaxis], g_new, g)
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


@dataclass(frozen=True)
class GaussianApprox:
    """Mean-field Gaussian fit on the unconstrained scale; supports exact sampling."""

    means: np.ndarray
    log_sds: np.ndarray
    unconstraining_map: object

    def sample(self, L: int, rng: RandomStream) -> np.ndarray:
        """L draws on the constrained scale: an (L, d) array."""
        eps = rng.standard_normal((L, self.means.size))
        Z = self.means + np.exp(self.log_sds) * eps
        return self.unconstraining_map.constrain_matrix(Z)


def fit_meanfield_vi(model: GenerativeModel, observations, iterations: int,
                     learning_rate: float, rngs) -> list[GaussianApprox | Diverged]:
    """Fit a per-coordinate Gaussian to each dataset by stochastic gradient ascent on the ELBO.

    Single-sample reparameterized gradients with step decay t^-0.5.  The
    entropy term contributes +1 to each log-sd gradient.  Row r fits
    ``observations[r]`` with the stream ``rngs[r]``, all rows in lockstep.
    Returns one :class:`GaussianApprox` per row, or the :class:`Diverged`
    error of a row whose gradient or parameters went non-finite; that row
    stops there and the others go on.
    """
    target = posterior_target(model, observations)
    R, d = len(observations), len(model.parameter_names)
    m = np.zeros((R, d))
    omega = np.zeros((R, d))
    eps = np.empty((iterations, R, d))
    for r, rng in enumerate(rngs):
        eps[:, r] = rng.standard_normal((iterations, d))
    failures: dict[int, Diverged] = {}
    active = np.ones(R, dtype=bool)

    def fail(rows, message):
        for r in np.flatnonzero(rows):
            failures[int(r)] = Diverged(message)
        active[rows] = False

    with np.errstate(all="ignore"):
        for t in range(iterations):
            sd = np.exp(omega)
            g = target.grad(m + sd * eps[t])
            fail(active & ~np.isfinite(g).all(axis=1), f"non-finite ELBO gradient at iteration {t}")
            lr = learning_rate / math.sqrt(t + 1.0)
            m_new = m + lr * g
            omega_new = omega + lr * (g * eps[t] * sd + 1.0)
            fail(active & ~(np.isfinite(m_new).all(axis=1) & np.isfinite(omega_new).all(axis=1)),
                 f"variational parameters became non-finite at iteration {t}")
            if not active.any():
                break
            m = np.where(active[:, np.newaxis], m_new, m)
            omega = np.where(active[:, np.newaxis], omega_new, omega)
    return [failures[r] if r in failures else GaussianApprox(
        means=m[r],
        log_sds=omega[r],
        unconstraining_map=model.unconstraining_map,
    ) for r in range(R)]


def corrupt(draws: np.ndarray, names: tuple[str, ...], c: Corruption) -> np.ndarray:
    """Apply a corruption to one coordinate of every draw of an (R, L, d) block.

    Columns follow ``names``.  A scale corruption centres each row on its own
    mean, so a row's result does not depend on the other rows.
    """
    if c.kind == "none":
        return draws
    try:
        j = names.index(c.target_quantity)
    except ValueError:
        raise UnknownParameter(f"corruption target {c.target_quantity!r} not in {names}") from None
    draws = draws.copy()
    column = draws[..., j]
    if c.kind == "shift":
        column += c.amount
    else:
        center = column.mean(axis=-1, keepdims=True)
        column[...] = center + c.amount * (column - center)
    return draws
