"""Posterior samplers under test, plus corruption wrappers.

One exact reference sampler (conjugate normal-normal), two MCMC samplers
(random-walk Metropolis and fixed-path HMC), and a mean-field Gaussian
variational fit.  All MCMC runs happen on the unconstrained scale and start
from a fresh prior draw, which stresses mixing honestly.

Every sampler fits R replications in one call: it takes an (R, n) array of
observations, one dataset per row, and an iterable of R random streams,
which it takes in order and uses one at a time (a block's streams share one
generator, see :mod:`sbc.streams`); another number of streams, or of chain
lengths, raises ValueError.  It returns one (R, n, d) array of
constrained draws, row r's chain at ``[r, :lengths[r]]``; the MCMC samplers
add each row's health as (R,) columns (:class:`DrawBlock`).  The MCMC and VI
samplers hold their states as (R, d) arrays and call the model's batched
density once per step for all rows.  Each row keeps its own step size,
adaptation state and stream, from which it draws its initial point, its
noise and its uniforms in one pass, in the order a single fit would, so a
row's draws do not depend on the other rows.  A fit runs under one
``np.errstate``; rows whose arithmetic overflows are masked once per step
(rejected, or failed), and a row that cannot be fitted fails alone: its
draws are NaN and its error is in the block's ``failures``
(:class:`DrawBlock`).  The exact sampler makes one batched posterior call
and then draws each row's L values from its own stream into a bare
(R, L, 1) array.

Both MCMC samplers are one Metropolis loop, :func:`_metropolis`, with
different proposals: random-walk Metropolis proposes ``z + step * noise``,
HMC takes the noise as momentum and proposes a leapfrog trajectory's end
with the negated energy error as log ratio.  The loop keeps one
:class:`ChainState` of (R, .) arrays, and each row has warmup + lengths[r]
transitions: it stops moving when they run out, or at once if its start
failed, and its acceptances and divergences are counted as its transitions
happen.  A non-finite log ratio, or one below -DIVERGENCE_THRESHOLD, is
divergent and rejected (exp underflows to 0 there anyway); any other is
accepted with probability min(1, exp(ratio)).  Warmup moves each row's log
step size by (acceptance probability - target) / sqrt(t + 1), on one clock
shared by all rows, and then freezes it, so the retained chain is Markovian;
row r keeps lengths[r] <= n_steps states, those of a fit of that length
alone, and repeats its last one to n_steps.

Corruption wrappers inject the canonical failure modes (shifted or rescaled
marginals) into otherwise exact draws so the diagnostics can be exercised
end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import Diverged, NonFiniteDensity, NotConjugate, SbcError, UnknownParameter
from .model import GenerativeModel, posterior_target

if TYPE_CHECKING:
    from .config import Corruption

# Standard acceptance-rate targets for warmup step-size adaptation.
RW_TARGET_ACCEPT_1D = 0.44
RW_TARGET_ACCEPT_ND = 0.234
HMC_TARGET_ACCEPT = 0.8

# Energy error (negated log ratio) beyond which a proposal is divergent.
DIVERGENCE_THRESHOLD = 1e3


def sample_exact_conjugate(model: GenerativeModel, observations: np.ndarray, L: int,
                           rngs) -> np.ndarray:
    """L independent draws from each row's closed-form conjugate posterior: an (R, L, 1) array.

    Row r is the posterior given ``observations[r]``, drawn from the r-th
    stream of ``rngs`` as ``rng.normal(mean, sd, size=L)``, so it equals a
    one-row call.  A row whose posterior is not finite gets non-finite draws.
    """
    if model.exact_posterior is None:
        raise NotConjugate(f"model {model.name!r} has no closed-form posterior")
    if L < 1:
        raise ValueError("L must be >= 1")
    mean, sd = model.exact_posterior(observations)
    draws = np.empty((len(observations), L, 1))
    for out, rng, m, s in zip(draws, rngs, mean.tolist(), sd.tolist(), strict=True):
        out[:, 0] = rng.normal(m, s, size=L)
    return draws


@dataclass(frozen=True)
class DrawBlock:
    """Draws of one lockstep MCMC or VI fit of R replications.

    ``draws`` is one C-ordered (R, n, d) array of constrained draws, columns
    in the order of the model's parameter names: row r belongs to the
    replication whose stream was the r-th of ``rngs``, and its chain is
    ``draws[r, :lengths[r]]`` (an MCMC row past its length repeats its last
    state).  A row that failed alone is NaN throughout, and ``failures``
    maps it to its :class:`SbcError`.  ``health`` maps each measure of the
    run's ``meta.json`` to its (R,) column: MCMC's ``acceptance_rate`` and
    final ``step_size``, and HMC's ``divergences``; VI has none.  A failed
    row's values have no meaning.
    """

    draws: np.ndarray
    failures: dict[int, SbcError]
    health: dict[str, np.ndarray]

    @property
    def diagnostics(self) -> dict:
        """The live rows' mean acceptance rate (0.0 if there are none) and total divergences."""
        live = np.delete(np.arange(len(self.draws)), list(self.failures))
        health = {name: column[live] for name, column in self.health.items()}
        rates = health.get("acceptance_rate", ())
        return {"acceptance_rate": float(np.mean(rates)) if len(rates) else 0.0,
                "divergences": int(np.sum(health.get("divergences", 0)))}


def _draw_block(model: GenerativeModel, draws: np.ndarray, failures: dict,
                health: dict) -> DrawBlock:
    """Wrap a fit's (R, n, d) unconstrained draws, constrained in place, with NaN draws in
    its failed rows."""
    draws[list(failures)] = np.nan
    return DrawBlock(model.unconstraining_map.constrain_matrix(draws), failures, health)


@dataclass
class ChainState:
    """Lockstep chains' state, one row per chain: the point, the kernel's extras at it
    (HMC's gradient), its log density, the log step size and the transitions left.  A row
    moves only while it has transitions left; one whose start failed has none."""

    point: np.ndarray
    extras: tuple[np.ndarray, ...]
    logp: np.ndarray
    log_step: np.ndarray
    left: np.ndarray


def _metropolis(model: GenerativeModel, observations, rngs, warmup: int, n_steps: int,
                lengths, step_size: float, accept_target: float, kernel,
                columns: tuple[str, ...]) -> DrawBlock:
    """Lockstep Metropolis chains; row r makes warmup + lengths[r] transitions.

    The rows take their streams in order, each in one pass: row r draws its
    initial point from the prior, then a (warmup + lengths[r], d) block of
    standard normals, then as many uniforms.  A row whose initial point or
    initial density is non-finite fails alone (:class:`NonFiniteDensity`) and
    never moves.  ``kernel(target, z)`` returns the extras at the initial
    points and ``propose(state, step, noise)``, which returns a proposed point,
    its extras, its log density and its log ratio.  ``columns`` names the health
    kept, of ``acceptance_rate`` and ``divergences`` over each row's lengths[r]
    retained transitions and its final ``step_size``."""
    lengths = np.asarray(lengths)
    if lengths.dtype.kind not in "iu" or not np.all((lengths >= 1) & (lengths <= n_steps)):
        raise ValueError(f"lengths must be integers in [1, n_steps={n_steps}], got {lengths}")
    R, d = len(observations), len(model.parameter_names)
    with np.errstate(all="ignore"):
        z = np.empty((R, d))
        # Past its transitions a row's noise and uniforms stay 0: it proposes but never moves.
        noise = np.zeros((warmup + n_steps, R, d))
        unifs = np.zeros((warmup + n_steps, R))
        for r, rng, steps in zip(range(R), rngs, (warmup + lengths).tolist(), strict=True):
            z[r] = model.prior_simulator(rng)
            noise[:steps, r] = rng.standard_normal((steps, d))
            unifs[:steps, r] = rng.uniform(size=steps)
        z = model.unconstraining_map.unconstrain(z)
        target = posterior_target(model, observations)
        logp = target.logpdf(z)
        ok = np.isfinite(logp) & np.isfinite(z).all(axis=1)
        failures = {r: NonFiniteDensity(f"non-finite log density at initial point {z[r]}")
                    for r in np.flatnonzero(~ok).tolist()}
        extras, propose = kernel(target, z)
        state = ChainState(z, extras, logp, np.full(R, math.log(step_size)),
                           np.where(ok, warmup + lengths, 0))
        draws = np.empty((R, n_steps, d))
        accepted, divergences = np.zeros((2, R), dtype=int)
        for t in range(warmup + n_steps):
            live = state.left > 0
            point, extras, logp_new, log_ratio = propose(
                state, np.exp(state.log_step)[:, np.newaxis], noise[t])
            divergent = ~np.isfinite(log_ratio) | (log_ratio < -DIVERGENCE_THRESHOLD)
            accept_prob = np.where(divergent, 0.0, np.exp(np.minimum(0.0, log_ratio)))
            took = live & (unifs[t] < accept_prob)  # never where divergent: uniforms are >= 0
            state.point = np.where(took[:, np.newaxis], point, state.point)
            state.extras = tuple(np.where(took[:, np.newaxis], new, old)
                                 for new, old in zip(extras, state.extras))
            state.logp = np.where(took, logp_new, state.logp)
            state.left -= live
            if t < warmup:
                state.log_step += (accept_prob - accept_target) / math.sqrt(t + 1.0)
            else:
                draws[:, t - warmup] = state.point
                accepted += took
                divergences += live & divergent

        # math.exp, not np.exp: the two differ in the last bit on some arguments.
        health = {"acceptance_rate": accepted / lengths, "divergences": divergences,
                  "step_size": np.array([math.exp(x) for x in state.log_step.tolist()])}
        return _draw_block(model, draws, failures, {name: health[name] for name in columns})


def sample_rw_metropolis(model: GenerativeModel, observations, n_steps: int, step_size: float,
                         warmup: int, rngs, lengths) -> DrawBlock:
    """Random-walk Metropolis chains of lengths[r] <= n_steps post-warmup states, one per
    dataset.

    Step sizes adapt toward RW_TARGET_ACCEPT_1D (one coordinate) or
    RW_TARGET_ACCEPT_ND; the health columns are ``acceptance_rate`` and ``step_size``.
    """
    def kernel(target, z):
        def propose(state, step, noise):
            proposal = state.point + step * noise
            logp_prop = target.logpdf(proposal)
            return proposal, (), logp_prop, logp_prop - state.logp
        return (), propose

    d = len(model.parameter_names)
    return _metropolis(model, observations, rngs, warmup, n_steps, lengths, step_size,
                       RW_TARGET_ACCEPT_1D if d == 1 else RW_TARGET_ACCEPT_ND, kernel,
                       ("acceptance_rate", "step_size"))


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
               n_leapfrog: int, warmup: int, rngs, lengths) -> DrawBlock:
    """Fixed-path HMC with identity mass matrix and n_leapfrog steps per proposal; row r
    keeps lengths[r] <= n_steps post-warmup states.

    Step sizes adapt toward HMC_TARGET_ACCEPT; the health columns are
    ``acceptance_rate``, ``divergences`` and ``step_size``.  A row's state carries
    its gradient, computed once and then taken from each accepted trajectory's
    end, which equals a recomputed one bit for bit (the batched gradient is
    row-local): a fit makes 1 + transitions * n_leapfrog gradient calls.
    """
    def kernel(target, z):
        def propose(state, step, p0):
            h0 = 0.5 * (p0 * p0).sum(axis=1) - state.logp
            z, p, g = leapfrog(state.point, p0, *state.extras, step, n_leapfrog, target.grad)
            logp_new = target.logpdf(z)
            delta_h = -logp_new + 0.5 * (p * p).sum(axis=1) - h0
            return z, (g,), logp_new, -delta_h
        return (target.grad(z),), propose

    return _metropolis(model, observations, rngs, warmup, n_steps, lengths, step_size,
                       HMC_TARGET_ACCEPT, kernel, ("acceptance_rate", "divergences", "step_size"))


def fit_meanfield_vi(model: GenerativeModel, observations, iterations: int,
                     learning_rate: float, rngs, n_draws: int, draw_rngs) -> DrawBlock:
    """Fit a per-coordinate Gaussian to each dataset by stochastic gradient ascent on the ELBO,
    then draw ``n_draws`` points from each fit.

    Single-sample reparameterized gradients with step decay t^-0.5.  The
    entropy term contributes +1 to each log-sd gradient.  Row r fits
    ``observations[r]`` with the r-th stream of ``rngs``, all rows in
    lockstep, and then draws ``m + exp(omega) * eps`` on the unconstrained
    scale, with ``eps`` an (n_draws, d) block of standard normals from the
    r-th stream of ``draw_rngs``; both are taken in order.  A row whose
    gradient or parameters go non-finite stops there, fails with
    :class:`Diverged` and draws nothing (its draw stream is passed over);
    the others go on.
    """
    target = posterior_target(model, observations)
    R, d = len(observations), len(model.parameter_names)
    m = np.zeros((R, d))
    omega = np.zeros((R, d))
    eps = np.empty((iterations, R, d))
    for r, rng in zip(range(R), rngs, strict=True):
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
        draws = np.empty((R, n_draws, d))
        for r, rng in zip(range(R), draw_rngs, strict=True):
            if active[r]:
                draws[r] = rng.standard_normal((n_draws, d))
        draws *= np.exp(omega)[:, np.newaxis]
        draws += m[:, np.newaxis]
        return _draw_block(model, draws, failures, {})


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
