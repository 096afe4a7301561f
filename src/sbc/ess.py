"""Effective sample size and chain thinning.

A correlated chain of N_samp draws carries roughly N_samp / (1 + 2 sum rho_m)
independent draws' worth of information.  Ranking against correlated draws
produces spurious boundary spikes, so chains are thinned down to L
near-independent states before ranking: estimate the effective size, rerun
longer if it falls short, then keep a uniform-stride subset.

Effective sizes are estimated for many chains at once: ``ess_by_quantity``
evaluates each quantity on an (R, n, d) block of equal-length chains in one
call (a quantity reads any (..., d) array in its model's column order, see
:class:`sbc.model.Quantity`), and ``effective_sample_sizes``, the one
estimator, transforms and truncates all its series as one (R, n) array.  A
row has an estimate exactly when it is not constant and its lag-0
autocovariance is finite and positive; every other row, and every row of a
chain shorter than 4 draws, reads NaN.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import TooShort

# Effective size may legitimately exceed the chain length for antithetic
# chains; allow up to this factor before clamping.
ANTITHETIC_ALLOWANCE = 2.0


class ChainPlan(NamedTuple):
    length: int
    cap_hit: bool


def required_chain_length(current_length: int, L: int, n_eff: float,
                          max_chain_length: int) -> ChainPlan:
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
    if needed > max_chain_length:
        return ChainPlan(max_chain_length, True)
    return ChainPlan(needed, False)


def thin_to(draws: np.ndarray, L: int, lengths) -> np.ndarray:
    """Keep L uniform-stride states of each chain of an (R, n, d) block, in one gather.

    Row r's chain is ``draws[r, :lengths[r]]``, and it keeps the states at
    floor(i * lengths[r] / L), i < L: an (R, L, d) array.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if (lengths < L).any():
        raise TooShort(f"chain of length {lengths.min()} cannot be thinned to {L}")
    steps = (np.arange(L) * lengths[:, np.newaxis]) // L
    return draws[np.arange(len(draws))[:, np.newaxis], steps]


def effective_sample_sizes(series) -> np.ndarray:
    """Effective sample size N / (1 + 2 sum rho_m) of each row of an (R, n) array.

    Autocorrelations come from one FFT of the centred rows, normalised by
    their lag-0 autocovariance, and are truncated by :func:`_truncated_ess`.
    A constant row (``np.ptp`` exactly zero), a row whose lag-0 autocovariance
    is not finite and positive (its mean or its squared deviations overflow,
    or its variance underflows to zero), and every row of a block shorter
    than 4 draws has no estimate and reads NaN.  Each row's value depends on
    that row alone, not on the block's size, as long as the rows are
    row-major: a C-ordered array, or a strided view whose rows run along its
    last axis, such as a coordinate's values on an (R, n, d) block or on its
    leading draws.  An F-ordered block changes the order in which each row's
    mean is summed, and so its bits.
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


def ess_by_quantity(draws: np.ndarray, quantities) -> np.ndarray:
    """Effective sample sizes of the R chains of an (R, n, d) block: an (R, Q) array.

    Row r, column j is the effective size of ``quantities[j]`` over the chain
    ``draws[r]``, in its model's column order.  Each quantity is evaluated
    on the whole block at once and its R series are estimated together
    (:func:`effective_sample_sizes`), so a constant or degenerate series, or
    a chain shorter than 4 draws, reads NaN.
    """
    out = np.empty((len(draws), len(quantities)))
    for j, q in enumerate(quantities):
        out[:, j] = effective_sample_sizes(q.batch_evaluator(draws))
    return out
