"""Report rendering: SVG diagnostics and machine-readable summaries.

SVG documents are emitted directly (no plotting dependency) with fixed
geometry and fixed-precision coordinates, so identical inputs yield
byte-identical files.  Styling follows the usual convention: red for the
data, gray for the variation expected under uniformity.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .rankstats import (
    EcdfSummary,
    SbcHistogram,
    binomial_quantile,
    build_histogram,
    chi_square_uniformity,
    classify_shape,
    default_bins,
    ecdf_band,
    ecdf_diff,
    ecdf_summary,
)
from .runner import RunArtifact

DATA_RED = "#8f2727"
BAND_GRAY = "#dddddd"
MEDIAN_GRAY = "#8c8c8c"
AXIS_GRAY = "#444444"

WIDTH, HEIGHT = 640, 400
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 52, 16, 42, 36
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

REPORT_FORMATS = ("svg", "csv", "json")


@dataclass(frozen=True)
class ReportRequest:
    artifact_path: str
    quantities: tuple[str, ...] = ()
    bins: int | None = None
    formats: tuple[str, ...] = REPORT_FORMATS
    coverage: float = 0.99

    def __post_init__(self):
        bad = set(self.formats) - set(REPORT_FORMATS)
        if bad:
            raise ValueError(f"unknown report formats: {sorted(bad)}")
        if not (0.0 < self.coverage < 1.0):
            raise ValueError("coverage must be in (0, 1)")
        if self.bins is not None and self.bins < 1:
            raise ValueError(f"bins must be at least 1, got {self.bins}")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def rank_histogram(artifact: RunArtifact, quantity: str, B: int | None = None,
                   coverage: float = 0.99) -> SbcHistogram:
    """The quantity's rank histogram in B bins (by default :func:`default_bins`'s choice)."""
    ranks = artifact.ranks_for(quantity)
    if B is None:
        B = default_bins(ranks.size, artifact.L)
    return build_histogram(ranks, artifact.L, B, coverage)


def _svg_open(title: str) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15" fill="{AXIS_GRAY}">{_escape(title)}</text>',
    ]


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_histogram_svg(hist: SbcHistogram, quantity: str) -> str:
    """Self-contained SVG of the quantity's rank histogram with its binomial variation band.

    Bars carry their raw count in a data-count attribute so the document is
    exactly recoverable.
    """
    n_bins = hist.B
    median = binomial_quantile(0.5, hist.N, 1.0 / n_bins)
    y_max = max(max(hist.counts), hist.band_high, 1) * 1.08

    def x_of(i: float) -> float:
        return MARGIN_LEFT + PLOT_W * i / n_bins

    def y_of(c: float) -> float:
        return MARGIN_TOP + PLOT_H * (1.0 - c / y_max)

    title = f"{quantity} rank histogram (N={hist.N}, L={hist.L}, B={n_bins})"
    parts = _svg_open(title)
    parts.append(
        f'<rect x="{_fmt(MARGIN_LEFT)}" y="{_fmt(y_of(hist.band_high))}" '
        f'width="{_fmt(PLOT_W)}" height="{_fmt(y_of(hist.band_low) - y_of(hist.band_high))}" '
        f'fill="{BAND_GRAY}" data-band-low="{hist.band_low}" data-band-high="{hist.band_high}"/>')
    parts.append(
        f'<line x1="{_fmt(MARGIN_LEFT)}" y1="{_fmt(y_of(median))}" '
        f'x2="{_fmt(MARGIN_LEFT + PLOT_W)}" y2="{_fmt(y_of(median))}" '
        f'stroke="{MEDIAN_GRAY}" stroke-width="1.5"/>')
    pad = 0.06 * PLOT_W / n_bins
    for b, count in enumerate(hist.counts):
        x = x_of(b) + pad
        w = PLOT_W / n_bins - 2 * pad
        parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y_of(count))}" width="{_fmt(w)}" '
            f'height="{_fmt(y_of(0) - y_of(count))}" fill="{DATA_RED}" '
            f'data-count="{count}"/>')
    parts.append(
        f'<line x1="{_fmt(MARGIN_LEFT)}" y1="{_fmt(y_of(0))}" '
        f'x2="{_fmt(MARGIN_LEFT + PLOT_W)}" y2="{_fmt(y_of(0))}" '
        f'stroke="{AXIS_GRAY}" stroke-width="1"/>')
    for label, xpos, anchor in (("0", MARGIN_LEFT, "start"),
                                (str(hist.L), MARGIN_LEFT + PLOT_W, "end")):
        parts.append(
            f'<text x="{_fmt(xpos)}" y="{_fmt(y_of(0) + 18)}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="12" fill="{AXIS_GRAY}">{label}</text>')
    parts.append(
        f'<text x="{_fmt(MARGIN_LEFT - 6)}" y="{_fmt(y_of(y_max / 1.08) + 4)}" '
        f'text-anchor="end" font-family="sans-serif" font-size="12" '
        f'fill="{AXIS_GRAY}">{max(max(hist.counts), hist.band_high)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _polyline(points: list[tuple[float, float]]) -> str:
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)


def _step_points(xs: np.ndarray, ys: np.ndarray, x_of, y_of) -> list[tuple[float, float]]:
    pts = []
    for i, (xv, yv) in enumerate(zip(xs, ys)):
        if i > 0:
            pts.append((x_of(xv), pts[-1][1]))
        pts.append((x_of(xv), y_of(yv)))
    return pts


def render_ecdf_svg(summary: EcdfSummary, quantity: str, mode: str = "ecdf") -> str:
    """SVG of the quantity's rank ECDF (or ECDF minus uniform expectation) with its envelope."""
    if mode not in ("ecdf", "diff"):
        raise ValueError("mode must be 'ecdf' or 'diff'")
    L = summary.L
    k = np.arange(L + 1)
    if mode == "ecdf":
        curve = summary.values
        env_low, env_high = summary.envelope_low, summary.envelope_high
        baseline = summary.expected
        y_lo, y_hi = 0.0, 1.0
        title = f"{quantity} rank ECDF (N={summary.N}, L={L})"
    else:
        diff = ecdf_diff(summary)
        curve = diff.values
        env_low, env_high = diff.envelope_low, diff.envelope_high
        baseline = np.zeros(L + 1)
        span = max(float(np.max(np.abs(env_low))), float(np.max(np.abs(env_high))),
                   float(np.max(np.abs(curve))), 1e-9) * 1.15
        y_lo, y_hi = -span, span
        title = f"{quantity} rank ECDF difference (N={summary.N}, L={L})"

    def x_of(kv: float) -> float:
        return MARGIN_LEFT + PLOT_W * kv / L

    def y_of(v: float) -> float:
        return MARGIN_TOP + PLOT_H * (1.0 - (v - y_lo) / (y_hi - y_lo))

    parts = _svg_open(title)
    upper = [(x_of(kv), y_of(v)) for kv, v in zip(k, env_high)]
    lower = [(x_of(kv), y_of(v)) for kv, v in zip(k[::-1], env_low[::-1])]
    parts.append(f'<polygon points="{_polyline(upper + lower)}" fill="{BAND_GRAY}"/>')
    parts.append(
        f'<polyline points="{_polyline([(x_of(kv), y_of(v)) for kv, v in zip(k, baseline)])}" '
        f'fill="none" stroke="{MEDIAN_GRAY}" stroke-width="1"/>')
    values_attr = " ".join(repr(float(v)) for v in curve)
    parts.append(
        f'<polyline points="{_polyline(_step_points(k, curve, x_of, y_of))}" fill="none" '
        f'stroke="{DATA_RED}" stroke-width="1.5" data-values="{values_attr}"/>')
    parts.append(
        f'<line x1="{_fmt(MARGIN_LEFT)}" y1="{_fmt(y_of(y_lo))}" '
        f'x2="{_fmt(MARGIN_LEFT + PLOT_W)}" y2="{_fmt(y_of(y_lo))}" '
        f'stroke="{AXIS_GRAY}" stroke-width="1"/>')
    for label, xpos, anchor in (("0", MARGIN_LEFT, "start"),
                                (str(L), MARGIN_LEFT + PLOT_W, "end")):
        parts.append(
            f'<text x="{_fmt(xpos)}" y="{_fmt(y_of(y_lo) + 18)}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="12" fill="{AXIS_GRAY}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def summarize(artifact: RunArtifact, quantity: str, hist: SbcHistogram) -> dict:
    """JSON-serializable summary of one quantity's calibration evidence, from its histogram."""
    stat, dof = chi_square_uniformity(hist.counts)
    counts = np.asarray(hist.counts)
    outside = int(np.sum((counts < hist.band_low) | (counts > hist.band_high)))
    ess = artifact.ess_for(quantity)
    summary = {
        "quantity": quantity,
        "N": hist.N,
        "L": hist.L,
        "B": hist.B,
        "counts": list(hist.counts),
        "band_low": hist.band_low,
        "band_high": hist.band_high,
        "band_coverage": hist.band_coverage,
        "bins_outside_band": outside,
        "chi_square": stat,
        "chi_square_dof": dof,
        "classification": classify_shape(hist),
        "rank_mean_normalized": hist.rank_mean_normalized,
        "rank_var_normalized": hist.rank_var_normalized,
        "failure_count": len(artifact.failures),
        "ess_quartiles": ([float(q) for q in np.percentile(ess, [25, 50, 75])]
                          if ess.size else None),
    }
    return summary


_CSV_COLUMNS = ["quantity", "N", "L", "B", "band_low", "band_high",
                "bins_outside_band", "chi_square", "chi_square_dof", "classification",
                "rank_mean_normalized", "rank_var_normalized", "failure_count",
                "ess_q25", "ess_median", "ess_q75"]


def summary_csv(rows: list[dict]) -> str:
    """One CSV row per quantity summary."""
    lines = [",".join(_CSV_COLUMNS)]
    for row in rows:
        ess = row["ess_quartiles"] or ["", "", ""]
        values = [row[c] for c in _CSV_COLUMNS[:13]] + list(ess)
        lines.append(",".join(str(v) for v in values))
    return "\n".join(lines) + "\n"


def safe_filename(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


def write_report(artifact: RunArtifact, request: ReportRequest, out_dir) -> list[str]:
    """Render every requested artifact; returns the relative file names written.

    Each quantity's histogram and ECDF summary are built once and shared by
    the files that show them.  The ECDF band depends only on (N, L,
    coverage), which every quantity of the artifact shares, so it is computed
    once per call.
    """
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    quantities = request.quantities or artifact.quantities
    hists = [rank_histogram(artifact, q, request.bins, request.coverage) for q in quantities]
    rows = [summarize(artifact, q, h) for q, h in zip(quantities, hists)]
    written: list[str] = []
    if "svg" in request.formats:
        band = ecdf_band(artifact.ranks.shape[0], artifact.L, request.coverage)
        for q, hist in zip(quantities, hists):
            ecdf = ecdf_summary(artifact.ranks_for(q), band)
            stem = safe_filename(q)
            for suffix, doc in (
                ("hist", render_histogram_svg(hist, q)),
                ("ecdf", render_ecdf_svg(ecdf, q, "ecdf")),
                ("ecdf_diff", render_ecdf_svg(ecdf, q, "diff")),
            ):
                name = f"{stem}_{suffix}.svg"
                (out / name).write_text(doc, encoding="utf-8")
                written.append(name)
    if "json" in request.formats:
        (out / "summary.json").write_text(
            json.dumps({r["quantity"]: r for r in rows}, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        written.append("summary.json")
    if "csv" in request.formats:
        (out / "summary.csv").write_text(summary_csv(rows), encoding="utf-8")
        written.append("summary.csv")
    return written
