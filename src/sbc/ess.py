"""Autocorrelation, effective sample size, and chain thinning.

A correlated chain of N_samp draws carries roughly N_samp / (1 + 2 sum rho_m)
independent draws' worth of information.  Ranking against correlated draws
produces spurious boundary spikes, so chains are thinned down to L
near-independent states before ranking: estimate the effective size, rerun
longer if it falls short, then keep a uniform-stride subset.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .errors import AllConstant, TooShort, ZeroVariance
from .model import PosteriorDraws

# Effective size may legitimately exceed the chain length for antithetic
# chains; allow up to this factor before clamping.
ANTITHETIC_ALLOWANCE = 2.0


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


def ess_by_quantity(draws: PosteriorDraws, quantities) -> np.ndarray:
    """Effective sample size of each quantity's series, in the order given.

    A constant series (a derived quantity that collapses) has no estimate
    and reads NaN.
    """
    out = np.full(len(quantities), np.nan)
    for j, q in enumerate(quantities):
        try:
            out[j] = effective_sample_size(q.batch_evaluator(draws.values, draws.names))
        except ZeroVariance:
            pass
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
