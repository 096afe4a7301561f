"""Effective sample size and chain thinning.

A correlated chain of N_samp draws carries roughly N_samp / (1 + 2 sum rho_m)
independent draws' worth of information.  Ranking against correlated draws
produces spurious boundary spikes, so chains are thinned down to L
near-independent states before ranking: estimate the effective size, rerun
longer if it falls short, then keep a uniform-stride subset.

Effective sizes are estimated for many chains at once: ``ess_by_quantity``
evaluates each quantity on every chain of a group of equal-length chains,
and ``effective_sample_sizes``, the one estimator, transforms and truncates
all their series as one (rows, n) array.  A row has an estimate exactly when
it is not constant and its lag-0 autocovariance is finite and positive;
every other row, and every row of a chain shorter than 4 draws, reads NaN.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import AllConstant, TooShort

# Effective size may legitimately exceed the chain length for antithetic
# chains; allow up to this factor before clamping.
ANTITHETIC_ALLOWANCE = 2.0


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


def thin_to(draws: np.ndarray, L: int) -> np.ndarray:
    """Keep L uniform-stride states of a chain: indices floor(i * length / L), i < L."""
    n = len(draws)
    if n < L:
        raise TooShort(f"chain of length {n} cannot be thinned to {L}")
    return draws[(np.arange(L) * n) // L]


def effective_sample_sizes(series) -> np.ndarray:
    """Effective sample size N / (1 + 2 sum rho_m) of each row of an (R, n) array.

    Autocorrelations come from one FFT of the centred rows, normalised by
    their lag-0 autocovariance, and are truncated by :func:`_truncated_ess`.
    A constant row (``np.ptp`` exactly zero), a row whose lag-0 autocovariance
    is not finite and positive (its mean or its squared deviations overflow,
    or its variance underflows to zero), and every row of a block shorter
    than 4 draws has no estimate and reads NaN.  Each row's value depends on
    that row alone, not on the block's size.
    """
    series = np.asarray(series, dtype=np.float64)
    R, n = series.shape
    out = np.full(R, np.nan)
    if n < 4:
        return out
    m = 1
    while m < 2 * n:
        m <<= 1
    f = np.fft.rfft(series - series.mean(axis=1, keepdims=True), m)
    # The power spectrum |f|^2 = re^2 + im^2 overwrites the transform.
    re, im = f.real, f.imag
    np.square(re, out=re)
    re += np.square(im, out=im)
    im[...] = 0.0
    acov = np.fft.irfft(f, m)[:, :n] / n
    del f
    acov0 = acov[:, 0]
    ok = (np.ptp(series, axis=1) != 0) & (acov0 > 0) & (acov0 < np.inf)
    out[ok] = _truncated_ess(acov[ok] / acov0[ok, None], n)
    return out


def _truncated_ess(rho: np.ndarray, n: int) -> np.ndarray:
    """Geyer's paired-sum truncation for each row of (R, n) finite autocorrelations.

    Consecutive lag pairs (rho_2t + rho_2t+1) are summed while positive: pair
    sums of a true autocorrelation function are positive, so the first
    non-positive pair marks the noise floor.  A row's kept sum is its
    cumulative pair sum before that pair; ``np.cumsum`` adds left to right.
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


def ess_by_quantity(draws: Sequence[np.ndarray], quantities, names) -> np.ndarray:
    """Effective sample sizes of R equal-length chains: an (R, Q) array.

    Row r, column j is the effective size of ``quantities[j]`` over the
    (n, d) chain ``draws[r]``, whose columns ``names`` names.  Each quantity
    is evaluated chain by chain and its R series are estimated together
    (:func:`effective_sample_sizes`), so a constant or degenerate series, or
    a chain shorter than 4 draws, reads NaN.  Raises ValueError if the chains
    differ in length.
    """
    lengths = {len(d) for d in draws}
    if len(lengths) > 1:
        raise ValueError(f"chains must have equal lengths, got {sorted(lengths)}")
    out = np.full((len(draws), len(quantities)), np.nan)
    for j, q in enumerate(quantities):
        series = np.stack([np.asarray(q.batch_evaluator(d, names), dtype=np.float64)
                           for d in draws])
        out[:, j] = effective_sample_sizes(series)
    return out


def min_ess(ess: np.ndarray) -> float:
    """Smallest effective sample size, skipping quantities without an estimate.

    Series without an estimate count as infinitely effective; if no series
    has one there is nothing to thin by.
    """
    finite = ess[~np.isnan(ess)]
    if finite.size == 0:
        raise AllConstant("every quantity is constant or degenerate over the chain")
    return float(finite.min())
