"""Autocorrelation, effective sample size, and chain thinning.

A correlated chain of N_samp draws carries roughly N_samp / (1 + 2 sum rho_m)
independent draws' worth of information.  Ranking against correlated draws
produces spurious boundary spikes, so chains are thinned down to L
near-independent states before ranking: estimate the effective size, rerun
longer if it falls short, then keep a uniform-stride subset.

Effective sizes are estimated for many chains at once: ``ess_by_quantity``
evaluates each quantity on every chain of a group of equal-length chains,
and ``effective_sample_sizes`` transforms and truncates all their series as
one (rows, n) array.  Each row's value is bit-identical to
``effective_sample_size`` on that series alone, which stays as the
per-series reference.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import AllConstant, TooShort, ZeroVariance
from .model import PosteriorDraws

# Effective size may legitimately exceed the chain length for antithetic
# chains; allow up to this factor before clamping.
ANTITHETIC_ALLOWANCE = 2.0
_SQRT_TINY = math.sqrt(np.finfo(np.float64).tiny)


def autocorrelation(series, max_lag: int) -> np.ndarray:
    """Sample autocorrelations rho_0..rho_max_lag via FFT.

    Centered estimator normalized by the overall sample variance, so
    rho_0 == 1 exactly.
    """
    x = np.asarray(series, dtype=np.float64)
    n = x.size
    if n < 4:
        raise ValueError(f"need at least 4 samples, got {n}")
    if max_lag < 0 or max_lag >= n:
        raise ValueError("max_lag must be in [0, n)")
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0.0:
        raise ZeroVariance("autocorrelation of a constant series is undefined")
    m = 1
    while m < 2 * n:
        m <<= 1
    f = np.fft.rfft(x, m)
    acov = np.fft.irfft(f * np.conj(f), m)[: max_lag + 1] / n
    return acov / acov[0]


def effective_sample_size(series) -> float:
    """N_samp / (1 + 2 sum rho_m) with paired-sum truncation.

    Consecutive lag pairs (rho_2t + rho_2t+1) are summed while positive and
    the sum is truncated at the first non-positive pair; pair sums of a true
    autocorrelation function are positive, so a non-positive estimate marks
    the noise floor.
    """
    x = np.asarray(series, dtype=np.float64)
    n = x.size
    rho = autocorrelation(x, n - 1)
    padded = rho if n % 2 == 0 else np.append(rho, 0.0)
    pair_sums = padded[0::2] + padded[1::2]
    kept = 0.0
    for pair in pair_sums:
        if pair <= 0.0:
            break
        kept += pair
    tau = 2.0 * kept - 1.0
    return float(min(n / tau, ANTITHETIC_ALLOWANCE * n) if tau > 0 else ANTITHETIC_ALLOWANCE * n)


class ChainPlan(NamedTuple):
    length: int
    cap_hit: bool


def required_chain_length(current_length: int, L: int, n_eff: float,
                          max_chain_length: int | None = None) -> ChainPlan:
    """Length needed so a rerun chain holds about L effective draws.

    Returns the current length unchanged when n_eff already reaches L;
    otherwise scales by L / n_eff, capped at max_chain_length (the cap is
    reported rather than looping forever on a non-mixing chain).
    """
    if current_length < 1 or L < 1 or not n_eff > 0:
        raise ValueError("current_length, L and n_eff must be positive")
    if n_eff >= L:
        return ChainPlan(current_length, False)
    needed = math.ceil(current_length * L / n_eff)
    if max_chain_length is not None and needed > max_chain_length:
        return ChainPlan(max_chain_length, True)
    return ChainPlan(needed, False)


def thin_to(draws: PosteriorDraws, L: int) -> PosteriorDraws:
    """Keep L uniform-stride states: indices floor(i * length / L), i < L."""
    n = len(draws)
    if n < L:
        raise TooShort(f"chain of length {n} cannot be thinned to {L}")
    return replace(draws, values=draws.values[(np.arange(L) * n) // L])


def effective_sample_sizes(series) -> np.ndarray:
    """:func:`effective_sample_size` of each row of an (R, n) array of series.

    Every step is the reference's, applied to all rows at once, so each row's
    value is bit-identical to the reference on that row alone.  A constant
    row, and every row of a block shorter than 4 draws, has no estimate and
    reads NaN.
    """
    series = np.asarray(series, dtype=np.float64)
    R, n = series.shape
    out = np.full(R, np.nan)
    if n < 4:
        return out
    x = series - series.mean(axis=1, keepdims=True)
    # Where every deviation squares below the smallest normal float, the
    # reference's variance x @ x / n may round to zero.  Those rows, constant
    # ones among them, are left to the reference itself.
    small = np.abs(x).max(axis=1) < _SQRT_TINY
    for k in np.flatnonzero(small).tolist():
        try:
            out[k] = effective_sample_size(series[k])
        except ZeroVariance:
            pass
    m = 1
    while m < 2 * n:
        m <<= 1
    rows = np.flatnonzero(~small)
    f = np.fft.rfft(x[rows] if small.any() else x, m)
    del x
    # The reference's own product, row by row: numpy reuses a large
    # temporary as the output and swaps the operands, which rounds the
    # imaginary parts differently, so the outcome depends on the size of
    # the product and must be that of one row.  Each row's power spectrum
    # overwrites its transform.
    for k in range(rows.size):
        f[k] = f[k] * np.conj(f[k])
    acov = np.fft.irfft(f, m)[:, :n] / n
    out[rows] = _truncated_ess(acov / acov[:, :1], n)
    return out


def _truncated_ess(rho: np.ndarray, n: int) -> np.ndarray:
    """The reference's paired-sum truncation for each row of (R, n) autocorrelations.

    A row's kept sum is its cumulative pair sum before the first pair that
    is <= 0 (NaN pairs are kept, as the reference's loop keeps them);
    ``np.cumsum`` adds in the loop's order.
    """
    if n % 2:
        rho = np.concatenate([rho, np.zeros((rho.shape[0], 1))], axis=1)
    pairs = rho[:, 0::2] + rho[:, 1::2]
    stops = pairs <= 0.0
    stop = np.where(stops.any(axis=1), stops.argmax(axis=1), pairs.shape[1])
    kept = np.concatenate([np.zeros((pairs.shape[0], 1)), np.cumsum(pairs, axis=1)], axis=1)
    tau = 2.0 * kept[np.arange(pairs.shape[0]), stop] - 1.0
    cap = ANTITHETIC_ALLOWANCE * n
    ess = np.full(tau.shape, cap)
    positive = tau > 0
    ess[positive] = np.minimum(n / tau[positive], cap)
    return ess


def ess_by_quantity(draws: Sequence[PosteriorDraws], quantities) -> np.ndarray:
    """Effective sample sizes of R equal-length chains: an (R, Q) array.

    Row r, column j is the effective size of ``quantities[j]`` over
    ``draws[r]``.  Each quantity is evaluated chain by chain and its R
    series are estimated together (:func:`effective_sample_sizes`).  A
    constant series, or a chain shorter than 4 draws, has no estimate and
    reads NaN.  Raises ValueError if the chains differ in length.
    """
    lengths = {len(d) for d in draws}
    if len(lengths) > 1:
        raise ValueError(f"chains must have equal lengths, got {sorted(lengths)}")
    out = np.full((len(draws), len(quantities)), np.nan)
    for j, q in enumerate(quantities):
        series = np.stack([np.asarray(q.batch_evaluator(d.values, d.names), dtype=np.float64)
                           for d in draws])
        out[:, j] = effective_sample_sizes(series)
    return out


def min_ess(ess: np.ndarray) -> float:
    """Smallest effective sample size, skipping quantities without an estimate.

    Constant series count as infinitely effective; if every series is
    constant there is nothing to thin by.
    """
    finite = ess[~np.isnan(ess)]
    if finite.size == 0:
        raise AllConstant("every quantity is constant over the chain")
    return float(finite.min())
