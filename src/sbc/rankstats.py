"""Rank statistics and uniformity diagnostics.

The rank of a prior draw within L posterior draws is uniform on {0, ..., L}
when the posterior sampler is exact, so departures from discrete uniformity
localize inference bugs.  This module computes ranks, derives exact binomial
variation bands, counts ranks into display bins, computes ECDF values, and
classifies the common failure shapes.

A histogram is its (B,) counts and an ECDF its (L+1,) values at 0..L, each
an array drawn against a band, a :class:`HistogramBand` or an
:class:`EcdfBand`.  A band holds the variation expected under uniformity,
depends on (N, L, B, coverage) or (N, L, coverage) alone and is shared by
every quantity of a run.  The report picks the bands.  Each band's
arguments are checked in one place when it is made, by
:func:`histogram_band` and :func:`ecdf_band` alike, and the ranks are
checked against a band in one place, by :func:`build_histogram` and
:func:`ecdf_summary` alike; the ECDF difference plot subtracts the band's
expectation when it is drawn.

Every band rests on one routine, :func:`binomial_quantiles`.  Its quantiles
are exactly those of summing the binomial pmf sequentially from k = 0 until
the running sum reaches the level, but it computes them for a whole grid of
success probabilities at once (all L+1 points of an ECDF band in one call),
in chunks of rows that bound its working set.  It sums each row over a
window sized by that row's own Binomial(n, p), not all n+1 terms: from a
few of its standard deviations left of its mode to past the crossing of the
largest level.  The pmf is log-concave, which bounds the mass left of the
window, the only mass a running sum in it leaves out, and a level within
that bound of a window's sum, or crossed outside the window, is summed
again over every term, so no quantile changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndivisibleBinning, NonFiniteInput


@dataclass(frozen=True)
class HistogramBand:
    """Binomial variation band of a histogram of N ranks on 0..L in B display bins.

    Display bin b collects the raw ranks in [b * (L+1)/B, (b+1) * (L+1)/B).
    ``low``, ``median`` and ``high`` are the Binomial(N, 1/B) quantiles at
    (1-coverage)/2, 1/2 and 1-(1-coverage)/2, the count of one display bin
    under uniformity.  The band depends on (N, L, B, coverage) alone, so one
    band serves every quantity of a run.
    """

    N: int
    L: int
    B: int
    low: int
    median: int
    high: int
    coverage: float


@dataclass(frozen=True)
class EcdfBand:
    """Pointwise band of the ECDF of N uniform ranks on 0..L, as fractions of N.

    ``expected[k]`` is the uniform ECDF (k+1)/(L+1), and ``low[k]`` and
    ``high[k]`` are the Binomial(N, expected[k]) quantiles at (1-coverage)/2
    and 1-(1-coverage)/2, divided by N.  The band depends on (N, L, coverage)
    alone, so one band serves every quantity of a run.  Being pointwise,
    about (1 - coverage) of an ECDF's points are expected outside it even
    under perfect uniformity.
    """

    expected: np.ndarray
    low: np.ndarray
    high: np.ndarray
    N: int
    L: int
    coverage: float


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
    if not (np.isfinite(values).all() and np.isfinite(prior).all()):
        raise NonFiniteInput("rank_statistic requires finite inputs")
    ranks = np.sum(values < prior[..., np.newaxis], axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


# binomial_quantiles works through the probability grid in chunks of rows
# whose (rows, window) temporaries hold at most this many floats (256 KiB), so
# a band costs a few such temporaries however many points it has.
QUANTILE_CHUNK_FLOATS = 2**15
# Each row's pmf is summed from this many standard deviations of its own
# binomial left of its mode (see _windows).  9 is the smallest integer for
# which no row was summed again in 128 ECDF and histogram bands, n = 10 to
# 200,000: at 8 one was, and at 7 nineteen were.
QUANTILE_WINDOW_SDS = 9
_LOG_MIN_NORMAL = math.log(np.finfo(np.float64).tiny)


def _windows(qs: np.ndarray, n: int, ps: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """The windows :func:`binomial_quantiles` sums, as chunks (rows, firsts, width): the
    rows of ``ps`` strictly inside (0, 1), and row i's window k = firsts[i] ..
    firsts[i]+width-1.

    A row's own window reaches QUANTILE_WINDOW_SDS of its standard deviations
    sqrt(np(1-p)) left of its mode floor((n+1)p), and right of the mean np as
    far as Bernstein's inequality, P(X >= np + t) <= exp(-t^2 / (2(np(1-p) + t/3))),
    puts the crossing of the largest level, but no further than its left reach.
    Rows are taken widest first, and each chunk's rows are widened to its first
    row's width, moving left where that would pass k = n, so that a chunk's
    (rows, width) temporaries hold at most QUANTILE_CHUNK_FLOATS floats.
    """
    inner = np.flatnonzero((ps > 0.0) & (ps < 1.0))
    if inner.size == 0 or qs.size == 0:
        return []
    p = ps[inner]
    var = n * p * (1.0 - p)
    reach = QUANTILE_WINDOW_SDS * np.sqrt(var)
    top = float(qs.max())
    a = -math.log1p(-top) if top < 1.0 else math.inf  # 1 - top = exp(-a)
    past_mean = np.minimum(a / 3.0 + np.sqrt(a * a / 9.0 + 2.0 * a * var), reach)
    modes = np.minimum(np.floor((n + 1) * p), n)
    firsts = np.maximum(modes - np.ceil(reach), 0.0).astype(np.int64)
    lasts = np.minimum(np.maximum(np.ceil(n * p + past_mean), modes), n).astype(np.int64)
    widths = lasts - firsts + 1
    order = np.argsort(-widths, kind="stable")
    chunks = []
    start = 0
    while start < order.size:
        width = int(widths[order[start]])
        rows = order[start:start + max(1, QUANTILE_CHUNK_FLOATS // (width + 1))]
        chunks.append((inner[rows], np.minimum(firsts[rows], n + 1 - width), width))
        start += rows.size
    return chunks


def _is_count(value) -> bool:
    """Whether ``value`` is a Python or numpy integer >= 0; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 0


def binomial_quantiles(qs, n: int, ps) -> np.ndarray:
    """Smallest k with P(Binomial(n, p) <= k) >= q, for every p in ps and q in qs.

    Returns a (len(ps), len(qs)) int64 array.  Each entry is exactly what
    summing the pmf in sequence gives: ``cdf += math.exp(log_pmf(k))`` for
    k = 0, 1, ... until ``cdf >= q``, and n if that never happens; p <= 0
    gives 0 and p >= 1 gives n.  An n that is not an integer >= 0 (a Python
    or numpy integer, not a bool), or a p that is NaN or outside [0, 1],
    raises ValueError.

    Each p's pmf is summed over a window sized by its own binomial (see
    :func:`_windows`), so a row costs O(sqrt(np(1-p))) terms rather than n+1.
    Every log term is evaluated with the sequential sum's operations in the
    same order (``math.lgamma`` once per argument, only for the k the windows
    read unless the whole row takes fewer calls or a row is summed again, and
    ``math.log`` once per p) and ``np.cumsum`` adds in the same order, a chunk
    of rows at a time.  A window's running sums then differ from the
    sequential ones by less than a bound kept here:

    - numpy's ``exp`` may differ from ``math.exp`` by an ulp, and pmf terms
      below the smallest normal float are left out;
    - the ``first`` terms left of the window, the only ones a running sum in
      it includes, are left out.  The pmf is log-concave and the window starts
      at or before its mode, so each of them is at most the term just left of
      the window; their sum is at most ``first`` times that term, doubled to
      cover the rounding of the computed terms.

    A row whose sum is within that bound of a level, or whose crossing of a
    level is not inside its window (at the window's first term when the
    window starts past k = 0, or past its end when it ends before n), is
    summed again with ``math.exp`` over every term, so a window's width sets
    the cost and never a quantile.
    """
    qs = np.atleast_1d(np.asarray(qs, dtype=np.float64))
    if not np.all((qs >= 0.0) & (qs <= 1.0)):
        raise ValueError("quantile level must be in [0, 1]")
    ps = np.atleast_1d(np.asarray(ps, dtype=np.float64))
    if not np.all((ps >= 0.0) & (ps <= 1.0)):
        raise ValueError("success probability must be in [0, 1]")
    if not _is_count(n):
        raise ValueError(f"number of trials must be an integer >= 0, got {n!r}")
    out = np.empty((ps.size, qs.size), dtype=np.int64)
    out[:] = np.where(ps <= 0.0, 0, n)[:, None]
    chunks = _windows(qs, n, ps)
    if not chunks:
        return out

    # lgamma(n+1) - lgamma(k+1) - lgamma(n-k+1) at lead[k+1], for the k the
    # windows read (all k = 0..n once a row is summed again); the -inf at
    # k = -1 makes the term just left of a window that starts at 0 read 0.
    lead = np.full(n + 2, -np.inf)

    def fill_lead(lo: int, hi: int) -> bool:
        """Set lead at k = lo..hi, calling math.lgamma at k+1, n-k+1 and n+1, or at every
        k+1 of the row when that is fewer calls; returns whether the whole row is set."""
        size = hi - lo + 1
        if 2 * size < n + 1:
            lead[lo + 1:hi + 2] = (
                math.lgamma(n + 1)
                - np.fromiter(map(math.lgamma, range(lo + 1, hi + 2)), np.float64, size)
                - np.fromiter(map(math.lgamma, range(n - lo + 1, n - hi, -1)), np.float64, size))
            return False
        lgamma = np.fromiter(map(math.lgamma, range(1, n + 2)), np.float64, n + 1)
        lead[1:] = lgamma[n] - lgamma - lgamma[::-1]
        return True

    whole = fill_lead(max(min(int(first.min()) for _, first, _ in chunks) - 1, 0),
                      max(int(first.max()) + width - 1 for _, first, width in chunks))
    # A bound on |cdf - exact sequential cdf|, before the terms left of the
    # window: relative, for numpy's exp within 2**-40 of math.exp and both
    # running sums' rounding; absolute, for the terms below the smallest normal
    # float (their exp is slow, and they add at most (n+1) * 2**-1021).
    rtol = 2.0**-40 + 2.0**-51 * (n + 1)
    slack = 2.0 * rtol * qs + (n + 1) * 2.0**-1020

    def log_pmf(lead_rows, ks, rows) -> np.ndarray:
        """lead + k log(p) + (n-k) log(1-p) at k = ks, a row per p = ps[rows]; overwrites ks."""
        p = ps[rows].tolist()
        log_p = np.fromiter(map(math.log, p), np.float64, len(p))[:, None]
        log_1p = np.fromiter((math.log1p(-x) for x in p), np.float64, len(p))[:, None]
        logs = lead_rows + ks * log_p
        ks *= -1.0
        ks += n
        ks *= log_1p
        logs += ks
        return logs

    for rows, first, width in chunks:
        # Terms k = first-1 .. first+width-1: the one just left of the window, then the window.
        windows = np.lib.stride_tricks.sliding_window_view(lead, width + 1)
        first = first[:, None]
        logs = log_pmf(windows[first[:, 0]], first + np.arange(-1.0, width), rows)
        terms = np.exp(logs, out=np.zeros_like(logs), where=logs >= _LOG_MIN_NORMAL)
        left_out = 2.0 * first * terms[:, :1]
        cdf = np.cumsum(terms[:, 1:], axis=1)
        # cdf is non-decreasing, so searchsorted counts the sums below a level.
        tol = slack + left_out
        levels = np.concatenate([qs - tol, qs + tol], axis=1)
        below = np.array([np.searchsorted(*pair) for pair in zip(cdf, levels)])
        lo, hi = below[:, :qs.size], below[:, qs.size:]
        out[rows] = np.minimum(first + lo, n)
        unsure = (lo != hi) | ((lo == 0) & (first > 0)) | ((lo == width) & (first + width <= n))
        for r in np.flatnonzero(unsure.any(axis=1)):
            i, redo = rows[r], unsure[r]
            if not whole:
                whole = fill_lead(0, n)
            logs = log_pmf(lead[1:], np.arange(n + 1.0)[None], [i])[0]
            sums = np.cumsum(np.fromiter(map(math.exp, logs), np.float64, n + 1))
            out[i, redo] = np.minimum(np.searchsorted(sums, qs[redo]), n)
    return out


def default_bins(N: int, L: int) -> int:
    """Largest divisor B of L+1 keeping roughly 20 or more counts per bin."""
    divisors = [b for b in range(1, L + 2) if (L + 1) % b == 0]
    feasible = [b for b in divisors if N / b >= 20]
    return max(feasible) if feasible else 1


def _band_tails(coverage, **sizes) -> tuple[float, float]:
    """The levels (1-coverage)/2 and 1-(1-coverage)/2 of a band, whose ``sizes`` (N and L,
    and B for a histogram) must each be an integer >= 1 (a Python or numpy integer, not a
    bool) and whose coverage must be in (0, 1); else ValueError names the first argument
    that is not."""
    for name, value in sizes.items():
        if not (_is_count(value) and value >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    if not 0.0 < coverage < 1.0:
        raise ValueError(f"coverage must be in (0, 1), got {coverage!r}")
    tail = (1.0 - coverage) / 2.0
    return tail, 1.0 - tail


def _checked_ranks(ranks, band: HistogramBand | EcdfBand) -> np.ndarray:
    """``ranks`` as int64, which must be the band's N ranks, each in [0, band.L]."""
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.size != band.N:
        raise ValueError(f"{ranks.size} ranks against a band for N={band.N}")
    if ranks.min() < 0 or ranks.max() > band.L:
        raise ValueError("ranks outside [0, L]")
    return ranks


def histogram_band(N: int, L: int, B: int, coverage: float = 0.99) -> HistogramBand:
    """The band of a histogram of N uniform ranks on 0..L in B bins (see
    :class:`HistogramBand`), from one :func:`binomial_quantiles` call.

    N, L or B that is not an integer >= 1, or a coverage outside (0, 1),
    raises ValueError naming it; a B that does not divide L+1 raises
    IndivisibleBinning.
    """
    tail, top = _band_tails(coverage, N=N, L=L, B=B)
    if (L + 1) % B != 0:
        raise IndivisibleBinning(
            f"B={B} does not divide L+1={L + 1}; pick L so that L+1 is divisible "
            "by a large power of 2 (e.g. L=1023), or choose a divisor of L+1"
        )
    low, median, high = binomial_quantiles([tail, 0.5, top], N, 1.0 / B)[0].tolist()
    return HistogramBand(N=N, L=L, B=B, low=low, median=median, high=high, coverage=coverage)


def build_histogram(ranks, band: HistogramBand) -> np.ndarray:
    """The (B,) counts of ranks in each display bin of ``band``.

    The band must be the one for as many ranks as are given.
    """
    return np.bincount(_checked_ranks(ranks, band) // ((band.L + 1) // band.B), minlength=band.B)


def ecdf_band(N: int, L: int, coverage: float = 0.99) -> EcdfBand:
    """The pointwise ECDF band of N uniform ranks on 0..L (see :class:`EcdfBand`).

    Every quantile comes from one :func:`binomial_quantiles` call.  An N or
    L that is not an integer >= 1, or a coverage outside (0, 1), raises
    ValueError naming it.
    """
    levels = _band_tails(coverage, N=N, L=L)
    expected = np.arange(1, L + 2) / (L + 1)
    bounds = binomial_quantiles(levels, N, expected) / N
    return EcdfBand(expected=expected, low=bounds[:, 0], high=bounds[:, 1], N=N, L=L,
                    coverage=coverage)


def ecdf_summary(ranks, band: EcdfBand) -> np.ndarray:
    """The (L+1,) ECDF of ranks at each value 0..L of ``band``.

    The band must be the one for as many ranks as are given.
    """
    return np.cumsum(np.bincount(_checked_ranks(ranks, band), minlength=band.L + 1)) / band.N


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


def classify_shape(counts, band: HistogramBand, rank_mean: float) -> str:
    """Heuristic label for the deviation from uniformity of a histogram's ``counts``, drawn
    against ``band``, whose ranks' mean divided by L is ``rank_mean``.

    Checked in order: boundary spikes (both extreme bins above the band, the
    interior inside it and flat), then u/cap shapes (both extreme bins
    jointly high/low with the central half of the mass on the opposite
    side), then mean-rank bias, else uniform.  Boundary spikes must be
    tested before the u-shape because an isolated spike pair also satisfies
    the u-shape inequalities.  With fewer than 4 bins no shape test can run,
    so a histogram that shows no mean-rank bias is "inconclusive", not
    uniform.
    """
    counts = np.asarray(counts, dtype=np.float64)
    B = counts.size
    N = band.N
    expected_bin = N / B

    if B >= 6:
        interior = counts[1:-1]
        lo, hi = B // 4, B - B // 4
        central_mean = counts[lo:hi].mean()
        neighbor_mean = counts[[1, 2, -3, -2]].mean()
        spikes = (
            counts[0] > band.high
            and counts[-1] > band.high
            and np.all(interior <= band.high)
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

    displacement = rank_mean - 0.5
    if abs(displacement) > BIAS_SIGMA / math.sqrt(12.0 * N):
        return "biased-high-ranks" if displacement > 0 else "biased-low-ranks"
    return "uniform" if B >= 4 else "inconclusive"
