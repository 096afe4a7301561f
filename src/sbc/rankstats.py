"""Rank statistics and uniformity diagnostics.

The rank of a prior draw within L posterior draws is uniform on {0, ..., L}
when the posterior sampler is exact, so departures from discrete uniformity
localize inference bugs.  This module computes ranks, rebins them for
display, derives exact binomial variation bands, builds ECDF summaries, and
classifies the common failure shapes.

Every band rests on one routine, :func:`binomial_quantiles`.  Its quantiles
are exactly those of summing the binomial pmf sequentially from k = 0 until
the running sum reaches the level, but it computes them for a whole grid of
success probabilities at once (all L+1 points of an ECDF band in one call),
in chunks of rows that bound its working set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndivisibleBinning, NonFiniteInput


@dataclass(frozen=True)
class SbcHistogram:
    """Binned rank counts with a binomial variation band.

    ``bin_ranks[b]`` is the half-open range of raw rank values collected by
    display bin ``b``; all bins have equal width (L+1)/B.
    """

    counts: tuple[int, ...]
    bin_ranks: tuple[tuple[int, int], ...]
    N: int
    L: int
    band_low: int
    band_high: int
    band_coverage: float
    rank_mean_normalized: float
    rank_var_normalized: float

    @property
    def B(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class EcdfSummary:
    """Empirical CDF of ranks at each value 0..L with a pointwise band.

    The band is pointwise (exact binomial quantiles at each rank value), so
    about (1 - coverage) of the points are expected outside it even under
    perfect uniformity.  Its bounds are the Binomial(N, (k+1)/(L+1))
    quantiles at (1-coverage)/2 and 1-(1-coverage)/2, divided by N, exactly
    as sequential pmf summation gives them.
    """

    values: np.ndarray
    expected: np.ndarray
    envelope_low: np.ndarray
    envelope_high: np.ndarray
    N: int
    L: int
    coverage: float


@dataclass(frozen=True)
class EcdfDiff:
    """ECDF minus the uniform expectation, with the band shifted the same way."""

    values: np.ndarray
    envelope_low: np.ndarray
    envelope_high: np.ndarray


def rank_statistic(posterior_values, prior_value):
    """Count posterior values strictly below the prior value, along the last axis.

    A 1-d series and a scalar prior give one int.  An (R, L) matrix and an
    R-vector of priors give the R ranks, row r counted against prior r, each
    equal to the 1-d call on that row.  Ties count as not-less; for continuous
    models they occur with probability zero, but corrupted or degenerate
    inputs can produce them.  Any non-finite input raises NonFiniteInput.
    """
    values = np.asarray(posterior_values, dtype=np.float64)
    prior = np.asarray(prior_value, dtype=np.float64)
    if values.size < 1:
        raise ValueError("need at least one posterior value")
    if prior.shape != values.shape[:-1]:
        raise ValueError(f"prior shape {prior.shape} does not match posterior values "
                         f"of shape {values.shape}")
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(prior))):
        raise NonFiniteInput("rank_statistic requires finite inputs")
    ranks = np.sum(values < prior[..., np.newaxis], axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def rebin(ranks, L: int, B: int) -> np.ndarray:
    """Collect raw ranks into B equal-width display bins; returns counts."""
    ranks = np.asarray(ranks, dtype=np.int64)
    if (L + 1) % B != 0:
        raise IndivisibleBinning(
            f"B={B} does not divide L+1={L + 1}; pick L so that L+1 is divisible "
            "by a large power of 2 (e.g. L=1023), or choose a divisor of L+1"
        )
    if ranks.size and (ranks.min() < 0 or ranks.max() > L):
        raise ValueError("ranks outside [0, L]")
    width = (L + 1) // B
    return np.bincount(ranks // width, minlength=B)


# binomial_quantiles works through the probability grid in chunks of rows
# whose (rows, n+1) temporaries hold at most this many floats (256 KiB), so a
# band costs a few such temporaries however many points it has.
QUANTILE_CHUNK_FLOATS = 2**15
_LOG_MIN_NORMAL = math.log(np.finfo(np.float64).tiny)


def binomial_quantiles(qs, n: int, ps) -> np.ndarray:
    """Smallest k with P(Binomial(n, p) <= k) >= q, for every p in ps and q in qs.

    Returns a (len(ps), len(qs)) int64 array.  Each entry is exactly what
    summing the pmf in sequence gives: ``cdf += math.exp(log_pmf(k))`` for
    k = 0, 1, ... until ``cdf >= q``, and n if that never happens; p <= 0
    gives 0 and p >= 1 gives n.  The log-pmf is evaluated with that sum's
    operations in the same order (``math.lgamma`` once per k, ``math.log``
    once per p) and ``np.cumsum`` adds in the same order, a chunk of p rows
    at a time.  numpy's ``exp`` may differ from ``math.exp`` by an ulp, and
    pmf terms below the smallest normal float are left out; both move a
    running sum by far less than a bound kept here.  A row with a sum within
    that bound of a level is summed again with ``math.exp`` over every term,
    so no quantile differs.
    """
    qs = np.atleast_1d(np.asarray(qs, dtype=np.float64))
    if not np.all((qs >= 0.0) & (qs <= 1.0)):
        raise ValueError("quantile level must be in [0, 1]")
    ps = np.atleast_1d(np.asarray(ps, dtype=np.float64))
    out = np.empty((ps.size, qs.size), dtype=np.int64)
    out[:] = np.where(ps <= 0.0, 0, n)[:, None]
    inner = np.flatnonzero((ps > 0.0) & (ps < 1.0))
    if inner.size == 0:
        return out

    lgamma = np.fromiter(map(math.lgamma, range(1, n + 2)), np.float64, n + 1)
    lead = lgamma[n] - lgamma - lgamma[::-1]  # lgamma(n+1) - lgamma(k+1) - lgamma(n-k+1)
    k = np.arange(n + 1, dtype=np.float64)
    rest = n - k
    # A bound on |cdf - exact sequential cdf|: relative, for numpy's exp within
    # 2**-40 of math.exp and both running sums' rounding; absolute, for the
    # left-out terms (their exp is slow, and they add at most (n+1) * 2**-1021).
    rtol = 2.0**-40 + 2.0**-51 * (n + 1)
    slack = 2.0 * rtol * qs + (n + 1) * 2.0**-1020
    levels = np.column_stack([qs - slack, qs + slack]).ravel()

    def log_pmf(rows) -> np.ndarray:
        log_p = np.array([[math.log(p)] for p in ps[rows]])
        log_1p = np.array([[math.log1p(-p)] for p in ps[rows]])
        return lead + k * log_p + rest * log_1p

    chunk = max(1, QUANTILE_CHUNK_FLOATS // (n + 1))
    for start in range(0, inner.size, chunk):
        rows = inner[start:start + chunk]
        logs = log_pmf(rows)
        cdf = np.exp(logs, out=np.zeros_like(logs), where=logs >= _LOG_MIN_NORMAL)
        np.cumsum(cdf, axis=1, out=cdf)
        for i, row in zip(rows, cdf):
            # cdf is non-decreasing, so searchsorted counts the sums below a level.
            below = np.searchsorted(row, levels).reshape(-1, 2)
            out[i] = np.minimum(below[:, 0], n)
            unsure = np.flatnonzero(below[:, 0] != below[:, 1])
            if unsure.size:
                terms = np.fromiter(map(math.exp, log_pmf([i])[0]), np.float64, n + 1)
                out[i, unsure] = np.minimum(np.searchsorted(np.cumsum(terms), qs[unsure]), n)
    return out


def binomial_quantile(q: float, n: int, p: float) -> int:
    """Smallest k with P(Binomial(n, p) <= k) >= q, by exact CDF summation."""
    return int(binomial_quantiles(q, n, p)[0, 0])


def uniform_band(N: int, B: int, coverage: float = 0.99) -> tuple[int, int]:
    """Per-bin count band expected of a uniform histogram.

    Exact lower/upper quantiles of Binomial(N, 1/B) at (1-coverage)/2 and
    1-(1-coverage)/2.  After rebinning, the per-display-bin probability is
    1/B in place of 1/(L+1).
    """
    if N < 1 or B < 1 or not (0.0 < coverage < 1.0):
        raise ValueError("need N >= 1, B >= 1, 0 < coverage < 1")
    tail = (1.0 - coverage) / 2.0
    low, high = binomial_quantiles([tail, 1.0 - tail], N, 1.0 / B)[0]
    return int(low), int(high)


def default_bins(N: int, L: int) -> int:
    """Largest divisor B of L+1 keeping roughly 20 or more counts per bin."""
    divisors = [b for b in range(1, L + 2) if (L + 1) % b == 0]
    feasible = [b for b in divisors if N / b >= 20]
    return max(feasible) if feasible else 1


def build_histogram(ranks, L: int, B: int, coverage: float = 0.99) -> SbcHistogram:
    """Rebin ranks and attach the exact binomial band plus rank moments."""
    ranks = np.asarray(ranks, dtype=np.int64)
    counts = rebin(ranks, L, B)
    low, high = uniform_band(ranks.size, B, coverage)
    width = (L + 1) // B
    normalized = ranks / L if L > 0 else np.zeros(ranks.size)
    return SbcHistogram(
        counts=tuple(int(c) for c in counts),
        bin_ranks=tuple((b * width, (b + 1) * width) for b in range(B)),
        N=int(ranks.size),
        L=L,
        band_low=low,
        band_high=high,
        band_coverage=coverage,
        rank_mean_normalized=float(np.mean(normalized)) if ranks.size else 0.5,
        rank_var_normalized=float(np.var(normalized)) if ranks.size else 0.0,
    )


def ecdf_band(N: int, L: int, coverage: float = 0.99) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise band of the ECDF of N uniform ranks on 0..L, as fractions of N.

    Exact Binomial(N, (k+1)/(L+1)) quantiles at (1-coverage)/2 and
    1-(1-coverage)/2 for every k, from one :func:`binomial_quantiles` call.
    """
    tail = (1.0 - coverage) / 2.0
    expected = np.arange(1, L + 2) / (L + 1)
    bounds = binomial_quantiles([tail, 1.0 - tail], N, expected) / N
    return bounds[:, 0], bounds[:, 1]


def ecdf_summary(ranks, L: int, coverage: float = 0.99,
                 reuse: EcdfSummary | None = None) -> EcdfSummary:
    """ECDF of ranks at each value k with exact pointwise binomial envelope.

    The envelope depends only on (N, L, coverage): when ``reuse`` is a
    summary with the same three, its envelope is shared, not recomputed.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.size and (ranks.min() < 0 or ranks.max() > L):
        raise ValueError("ranks outside [0, L]")
    N = ranks.size
    counts = np.bincount(ranks, minlength=L + 1)
    values = np.cumsum(counts) / N
    expected = np.arange(1, L + 2) / (L + 1)
    if reuse is not None and (reuse.N, reuse.L, reuse.coverage) == (N, L, coverage):
        env_low, env_high = reuse.envelope_low, reuse.envelope_high
    else:
        env_low, env_high = ecdf_band(N, L, coverage)
    return EcdfSummary(values=values, expected=expected, envelope_low=env_low,
                       envelope_high=env_high, N=N, L=L, coverage=coverage)


def ecdf_diff(summary: EcdfSummary) -> EcdfDiff:
    """Subtract the uniform expectation from the ECDF and its envelope."""
    return EcdfDiff(
        values=summary.values - summary.expected,
        envelope_low=summary.envelope_low - summary.expected,
        envelope_high=summary.envelope_high - summary.expected,
    )


def chi_square_uniformity(counts) -> tuple[float, int]:
    """Chi-square statistic against a flat histogram, with B-1 dof.

    A global summary only; the diagnostic shapes carry far more information,
    and this test is known to be weak at detecting them.
    """
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total < 1:
        raise ValueError("need at least one count")
    expected = total / counts.size
    stat = float(np.sum((counts - expected) ** 2) / expected)
    return stat, counts.size - 1


# Shape-classifier thresholds.  These are deliberately simple documented
# heuristics tuned on the corruption-injector suite, not statistical tests:
# OUTER_FACTOR flags extreme bins away from their uniform expectation,
# SPIKE_FLATNESS separates isolated boundary spikes from a u-shape (spikes
# from autocorrelated draws leave the interior flat, while a genuine u
# slopes up toward the extremes), and the bias rule is a 3-sigma bound on
# the mean normalized rank under uniformity.
OUTER_FACTOR = 1.5
SPIKE_FLATNESS = 1.5
BIAS_SIGMA = 3.0

SHAPE_LABELS = ("uniform", "u-shaped", "cap-shaped", "biased-low-ranks",
                "biased-high-ranks", "boundary-spikes", "inconclusive")


def classify_shape(hist: SbcHistogram) -> str:
    """Heuristic label for the histogram's deviation from uniformity.

    Checked in order: boundary spikes (both extreme bins above the band, the
    interior inside it and flat), then u/cap shapes (both extreme bins
    jointly high/low with the central half of the mass on the opposite
    side), then mean-rank bias, else uniform.  Boundary spikes must be
    tested before the u-shape because an isolated spike pair also satisfies
    the u-shape inequalities.  With fewer than 4 bins no shape test can run,
    so a histogram that shows no mean-rank bias is "inconclusive", not
    uniform.
    """
    counts = np.asarray(hist.counts, dtype=np.float64)
    B = counts.size
    N = hist.N
    if N < 1:
        return "uniform"
    expected_bin = N / B

    if B >= 6:
        interior = counts[1:-1]
        lo, hi = B // 4, B - B // 4
        central_mean = counts[lo:hi].mean()
        neighbor_mean = counts[[1, 2, -3, -2]].mean()
        spikes = (
            counts[0] > hist.band_high
            and counts[-1] > hist.band_high
            and np.all(interior <= hist.band_high)
            and neighbor_mean <= SPIKE_FLATNESS * max(central_mean, 1.0)
        )
        if spikes:
            return "boundary-spikes"

    if B >= 4:
        lo, hi = B // 4, B - B // 4
        central = counts[lo:hi].sum()
        expected_central = N * (hi - lo) / B
        outer_high = (counts[0] > OUTER_FACTOR * expected_bin
                      and counts[-1] > OUTER_FACTOR * expected_bin)
        outer_low = (counts[0] < expected_bin / OUTER_FACTOR
                     and counts[-1] < expected_bin / OUTER_FACTOR)
        if outer_high and central < expected_central:
            return "u-shaped"
        if outer_low and central > expected_central:
            return "cap-shaped"

    displacement = hist.rank_mean_normalized - 0.5
    if abs(displacement) > BIAS_SIGMA / math.sqrt(12.0 * N):
        return "biased-high-ranks" if displacement > 0 else "biased-low-ranks"
    return "uniform" if B >= 4 else "inconclusive"
