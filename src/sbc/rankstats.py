"""Rank statistics and uniformity diagnostics.

The rank of a prior draw within L posterior draws is uniform on {0, ..., L}
when the posterior sampler is exact, so departures from discrete uniformity
localize inference bugs.  This module computes ranks, rebins them for
display, derives exact binomial variation bands, builds ECDF summaries, and
classifies the common failure shapes.
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
    perfect uniformity.
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


def rank_statistic(posterior_values, prior_value: float) -> int:
    """Count posterior values strictly below the prior value.

    Ties count as not-less; for continuous models they occur with
    probability zero, but corrupted or degenerate inputs can produce them.
    """
    values = np.asarray(posterior_values, dtype=np.float64)
    if values.size < 1:
        raise ValueError("need at least one posterior value")
    if not np.all(np.isfinite(values)) or not math.isfinite(prior_value):
        raise NonFiniteInput("rank_statistic requires finite inputs")
    return int(np.sum(values < prior_value))


def empirical_quantile(rank: int, L: int) -> float:
    """Posterior quantile of the prior draw, rank / L.

    This is the historical quantile-based check's statistic; it takes one of
    L+1 evenly spaced values on [0, 1], which is exactly the discreteness
    that distorts its histogram.
    """
    if not (0 <= rank <= L):
        raise ValueError(f"rank {rank} outside [0, {L}]")
    return rank / L


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


def binomial_quantile(q: float, n: int, p: float) -> int:
    """Smallest k with P(Binomial(n, p) <= k) >= q, by exact CDF summation."""
    if not (0.0 < q < 1.0 or q in (0.0, 1.0)):
        raise ValueError("quantile level must be in [0, 1]")
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    log_p, log_1p = math.log(p), math.log1p(-p)
    lg = math.lgamma
    lg_n1 = lg(n + 1)
    cdf = 0.0
    for k in range(n + 1):
        log_pmf = lg_n1 - lg(k + 1) - lg(n - k + 1) + k * log_p + (n - k) * log_1p
        cdf += math.exp(log_pmf)
        if cdf >= q:
            return k
    return n


def uniform_band(N: int, B: int, coverage: float = 0.99) -> tuple[int, int]:
    """Per-bin count band expected of a uniform histogram.

    Exact lower/upper quantiles of Binomial(N, 1/B) at (1-coverage)/2 and
    1-(1-coverage)/2.  After rebinning, the per-display-bin probability is
    1/B in place of 1/(L+1).
    """
    if N < 1 or B < 1 or not (0.0 < coverage < 1.0):
        raise ValueError("need N >= 1, B >= 1, 0 < coverage < 1")
    tail = (1.0 - coverage) / 2.0
    p = 1.0 / B
    return binomial_quantile(tail, N, p), binomial_quantile(1.0 - tail, N, p)


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


def quantile_bin_counts(ranks, L: int, B: int) -> np.ndarray:
    """Histogram of empirical quantiles rank/L over B equal bins of [0, 1].

    Unlike :func:`rebin` this bins a [0, 1]-valued statistic, so the L+1
    discrete quantile values generally do not split evenly across bins; the
    resulting artifacts are the point of the quantile-baseline comparison.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    q = ranks / L
    idx = np.minimum((q * B).astype(np.int64), B - 1)
    return np.bincount(idx, minlength=B)


def ecdf_summary(ranks, L: int, coverage: float = 0.99) -> EcdfSummary:
    """ECDF of ranks at each value k with exact pointwise binomial envelope."""
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.size and (ranks.min() < 0 or ranks.max() > L):
        raise ValueError("ranks outside [0, L]")
    N = ranks.size
    counts = np.bincount(ranks, minlength=L + 1)
    values = np.cumsum(counts) / N
    k = np.arange(L + 1)
    expected = (k + 1) / (L + 1)
    tail = (1.0 - coverage) / 2.0
    env_low = np.empty(L + 1)
    env_high = np.empty(L + 1)
    for i in range(L + 1):
        p = expected[i]
        env_low[i] = binomial_quantile(tail, N, p) / N
        env_high[i] = binomial_quantile(1.0 - tail, N, p) / N
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
