"""Report rendering: SVG diagnostics and machine-readable summaries.

SVG documents are emitted directly (no plotting dependency) with fixed
geometry and fixed-precision coordinates, so identical inputs yield
byte-identical files.  Coordinates are computed as numpy arrays and
formatted in one pass per element.  Styling follows the usual convention:
red for the data, gray for the variation expected under uniformity.

A histogram is drawn from its :class:`SbcHistogram`, band and median
included.  Both ECDF plots are drawn from one :class:`EcdfSummary`, the
ECDF's values and its band: the difference plot subtracts the band's
uniform expectation from the values and the bounds.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .rankstats import (
    EcdfSummary,
    SbcHistogram,
    build_histogram,
    chi_square_uniformity,
    classify_shape,
    default_bins,
    ecdf_band,
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
        if not self.formats:
            raise ValueError(f"no report format given; choose from {','.join(REPORT_FORMATS)}")
        bad = set(self.formats) - set(REPORT_FORMATS)
        if bad:
            raise ValueError(f"unknown report formats: {sorted(bad)}")
        if not (0.0 < self.coverage < 1.0):
            raise ValueError("coverage must be in (0, 1)")
        if self.bins is not None and self.bins < 1:
            raise ValueError(f"bins must be at least 1, got {self.bins}")
        # A quantity named twice is reported once, where it is first named.
        object.__setattr__(self, "quantities", tuple(dict.fromkeys(self.quantities)))


def rank_histogram(artifact: RunArtifact, quantity: str, B: int | None = None,
                   coverage: float = 0.99) -> SbcHistogram:
    """The quantity's rank histogram in B bins (by default :func:`default_bins`'s choice)."""
    ranks = artifact.ranks_for(quantity)
    if B is None:
        B = default_bins(ranks.size, artifact.L)
    return build_histogram(ranks, artifact.L, B, coverage)


def _coords(xs: np.ndarray, ys: np.ndarray) -> str:
    """SVG point list of the coordinate arrays."""
    return " ".join(map("{:.2f},{:.2f}".format, xs.tolist(), ys.tolist()))


def _document(title: str, marks: list[str], axis_y: float, L: int, labels: list[str]) -> str:
    """The SVG document: header and title, ``marks``, the x axis at ``axis_y`` with its
    0 and L labels, then ``labels``."""
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15" fill="{AXIS_GRAY}">{title}</text>',
        *marks,
        f'<line x1="{MARGIN_LEFT:.2f}" y1="{axis_y:.2f}" '
        f'x2="{MARGIN_LEFT + PLOT_W:.2f}" y2="{axis_y:.2f}" '
        f'stroke="{AXIS_GRAY}" stroke-width="1"/>',
        *(f'<text x="{x:.2f}" y="{axis_y + 18:.2f}" text-anchor="{anchor}" '
          f'font-family="sans-serif" font-size="12" fill="{AXIS_GRAY}">{label}</text>'
          for label, x, anchor in (("0", MARGIN_LEFT, "start"),
                                   (str(L), MARGIN_LEFT + PLOT_W, "end"))),
        *labels,
        "</svg>",
    ]) + "\n"


def render_histogram_svg(hist: SbcHistogram, quantity: str) -> str:
    """Self-contained SVG of the quantity's rank histogram with its binomial variation band.

    Bars carry their raw count in a data-count attribute so the document is
    exactly recoverable.
    """
    n_bins = hist.B
    top = max(max(hist.counts), hist.band_high)
    y_max = max(top, 1) * 1.08

    def y_of(c):
        return MARGIN_TOP + PLOT_H * (1.0 - c / y_max)

    pad = 0.06 * PLOT_W / n_bins
    width = PLOT_W / n_bins - 2 * pad
    xs = MARGIN_LEFT + PLOT_W * np.arange(n_bins) / n_bins + pad
    tops = y_of(np.asarray(hist.counts))
    heights = y_of(0) - tops
    marks = [
        f'<rect x="{MARGIN_LEFT:.2f}" y="{y_of(hist.band_high):.2f}" '
        f'width="{PLOT_W:.2f}" height="{y_of(hist.band_low) - y_of(hist.band_high):.2f}" '
        f'fill="{BAND_GRAY}" data-band-low="{hist.band_low}" data-band-high="{hist.band_high}"/>',
        f'<line x1="{MARGIN_LEFT:.2f}" y1="{y_of(hist.band_median):.2f}" '
        f'x2="{MARGIN_LEFT + PLOT_W:.2f}" y2="{y_of(hist.band_median):.2f}" '
        f'stroke="{MEDIAN_GRAY}" stroke-width="1.5"/>',
    ] + [
        f'<rect x="{x:.2f}" y="{y:.2f}" width="{width:.2f}" height="{h:.2f}" '
        f'fill="{DATA_RED}" data-count="{count}"/>'
        for x, y, h, count in zip(xs.tolist(), tops.tolist(), heights.tolist(), hist.counts)
    ]
    y_label = (
        f'<text x="{MARGIN_LEFT - 6:.2f}" y="{y_of(y_max / 1.08) + 4:.2f}" '
        f'text-anchor="end" font-family="sans-serif" font-size="12" '
        f'fill="{AXIS_GRAY}">{top}</text>')
    title = f"{quantity} rank histogram (N={hist.N}, L={hist.L}, B={n_bins})"
    return _document(title, marks, y_of(0), hist.L, [y_label])


def render_ecdf_svg(summary: EcdfSummary, quantity: str, mode: str = "ecdf") -> str:
    """SVG of the quantity's rank ECDF (or ECDF minus uniform expectation) with its band."""
    if mode not in ("ecdf", "diff"):
        raise ValueError("mode must be 'ecdf' or 'diff'")
    band = summary.band
    L = band.L
    # The difference plot subtracts the uniform expectation from everything it draws.
    shift = band.expected if mode == "diff" else 0.0
    curve, low, high, baseline = (a - shift for a in (summary.values, band.low, band.high,
                                                      band.expected))
    y_lo, y_hi = 0.0, 1.0
    if mode == "diff":
        span = max(float(np.max(np.abs(low))), float(np.max(np.abs(high))),
                   float(np.max(np.abs(curve))), 1e-9) * 1.15
        y_lo, y_hi = -span, span

    def y_of(v):
        return MARGIN_TOP + PLOT_H * (1.0 - (v - y_lo) / (y_hi - y_lo))

    xs = MARGIN_LEFT + PLOT_W * np.arange(L + 1) / L
    outline = _coords(np.concatenate([xs, xs[::-1]]), y_of(np.concatenate([high, low[::-1]])))
    steps = _coords(np.repeat(xs, 2)[1:], np.repeat(y_of(curve), 2)[:-1])
    values_attr = " ".join(map(repr, curve.tolist()))
    marks = [
        f'<polygon points="{outline}" fill="{BAND_GRAY}"/>',
        f'<polyline points="{_coords(xs, y_of(baseline))}" '
        f'fill="none" stroke="{MEDIAN_GRAY}" stroke-width="1"/>',
        f'<polyline points="{steps}" fill="none" '
        f'stroke="{DATA_RED}" stroke-width="1.5" data-values="{values_attr}"/>',
    ]
    title = f"{quantity} rank ECDF{' difference' if mode == 'diff' else ''} (N={band.N}, L={L})"
    return _document(title, marks, y_of(y_lo), L, [])


def summarize(artifact: RunArtifact, quantity: str, hist: SbcHistogram) -> dict:
    """JSON-serializable summary of one quantity's calibration evidence, from its histogram."""
    stat, dof = chi_square_uniformity(hist.counts)
    counts = np.asarray(hist.counts)
    outside = int(np.sum((counts < hist.band_low) | (counts > hist.band_high)))
    ess = artifact.ess_for(quantity)
    return {
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
    the files that show them, and its summary row only when ``json`` or
    ``csv`` is requested.  The ECDF band depends only on (N, L,
    coverage), which every quantity of the artifact shares, so it is computed
    once per call.
    """
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    quantities = request.quantities or artifact.quantities
    hists = [rank_histogram(artifact, q, request.bins, request.coverage) for q in quantities]
    rows = ([summarize(artifact, q, h) for q, h in zip(quantities, hists)]
            if {"json", "csv"} & set(request.formats) else [])
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
