"""Report rendering: SVG diagnostics and machine-readable summaries.

SVG documents are emitted directly (no plotting dependency) with fixed
geometry and fixed-precision coordinates, so identical inputs yield
byte-identical files.  Coordinates are computed as numpy arrays and
formatted in one pass per element.  Styling follows the usual convention:
red for the data, gray for the variation expected under uniformity.

Each plot has one path.  A histogram is drawn from its counts, an array,
against the :class:`~sbc.rankstats.HistogramBand` that the report picks,
band and median included (:func:`render_histogram_svg`).  Both ECDF plots
are drawn from the ECDF's values, an array, against an :class:`EcdfFrame`
of the :class:`~sbc.rankstats.EcdfBand` that the report picks
(:func:`render_ecdf_svg`): the difference plot subtracts the band's uniform
expectation from the values and the bounds.

The bands depend on (N, L, B, coverage) alone, which every quantity of an
artifact shares, so a report computes them once: the histogram band and its
median in one quantile call (:func:`sbc.rankstats.histogram_band`), and the
ECDF band with its frame, the x coordinates formatted once and the band
polygon and baseline of each y range.  Per quantity it computes the rank
counts (:func:`sbc.rankstats.build_histogram`), the ECDF values, the
curve's coordinates and the documents, and for a summary the rank moments.
Nothing is kept from one report to the next.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass

import numpy as np

from .errors import Rule, check_fields, checked, is_finite_number, is_integer
from .rankstats import (
    EcdfBand,
    HistogramBand,
    build_histogram,
    chi_square_uniformity,
    classify_shape,
    default_bins,
    ecdf_band,
    ecdf_summary,
    histogram_band,
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
    bins: int | None = checked(  # an integer, or None for default_bins's choice
        Rule("at least 1", lambda v: v is None or (is_integer(v) and v >= 1)), None)
    formats: tuple[str, ...] = checked(Rule(
        f"a non-empty list of formats to choose from {','.join(REPORT_FORMATS)}",
        lambda v: isinstance(v, (list, tuple)) and v and set(v) <= set(REPORT_FORMATS)),
        REPORT_FORMATS)
    coverage: float = checked(
        Rule("a number in (0, 1)", lambda v: is_finite_number(v) and 0 < v < 1), 0.99)

    def __post_init__(self):
        check_fields(self, ValueError, prefix="")  # named as `sbc report`'s options are
        # A quantity named twice is reported once, where it is first named.
        object.__setattr__(self, "quantities", tuple(dict.fromkeys(self.quantities)))


def rank_histograms(artifact: RunArtifact, quantities, B: int | None = None,
                    coverage: float = 0.99) -> tuple[np.ndarray, HistogramBand]:
    """Each quantity's rank counts in B bins (by default :func:`default_bins`'s choice), a
    (Q, B) array, and the one band they are all drawn against."""
    columns = [artifact.ranks_for(q) for q in quantities]
    N = artifact.ranks.shape[0]
    band = histogram_band(N, artifact.L, default_bins(N, artifact.L) if B is None else B,
                          coverage)
    return np.array([build_histogram(ranks, band) for ranks in columns]), band


def _formatted(values: np.ndarray) -> list[str]:
    """Each value as an SVG coordinate, to two decimals."""
    return list(map("{:.2f}".format, values.tolist()))


def _points(xs: list[str], ys: list[str]) -> str:
    """SVG point list of formatted x coordinates, each ending in a comma, and y coordinates."""
    return " ".join(map(str.__add__, xs, ys))


def _interleaved(evens: list, odds: list) -> list:
    """evens[0], odds[0], evens[1], odds[1], ..., evens[-1]; evens has one item more."""
    out = evens + odds
    out[0::2], out[1::2] = evens, odds
    return out


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


def render_histogram_svg(counts: np.ndarray, band: HistogramBand, quantity: str) -> str:
    """Self-contained SVG of the quantity's rank histogram ``counts`` with the binomial
    variation ``band``.

    Bars carry their raw count in a data-count attribute so the document is
    exactly recoverable.
    """
    n_bins = band.B
    top = max(int(counts.max()), band.high)
    y_max = max(top, 1) * 1.08

    def y_of(c):
        return MARGIN_TOP + PLOT_H * (1.0 - c / y_max)

    pad = 0.06 * PLOT_W / n_bins
    width = PLOT_W / n_bins - 2 * pad
    xs = MARGIN_LEFT + PLOT_W * np.arange(n_bins) / n_bins + pad
    tops = y_of(counts)
    heights = y_of(0) - tops
    marks = [
        f'<rect x="{MARGIN_LEFT:.2f}" y="{y_of(band.high):.2f}" '
        f'width="{PLOT_W:.2f}" height="{y_of(band.low) - y_of(band.high):.2f}" '
        f'fill="{BAND_GRAY}" data-band-low="{band.low}" data-band-high="{band.high}"/>',
        f'<line x1="{MARGIN_LEFT:.2f}" y1="{y_of(band.median):.2f}" '
        f'x2="{MARGIN_LEFT + PLOT_W:.2f}" y2="{y_of(band.median):.2f}" '
        f'stroke="{MEDIAN_GRAY}" stroke-width="1.5"/>',
    ] + [
        f'<rect x="{x:.2f}" y="{y:.2f}" width="{width:.2f}" height="{h:.2f}" '
        f'fill="{DATA_RED}" data-count="{count}"/>'
        for x, y, h, count in zip(xs.tolist(), tops.tolist(), heights.tolist(), counts.tolist())
    ]
    y_label = (
        f'<text x="{MARGIN_LEFT - 6:.2f}" y="{y_of(y_max / 1.08) + 4:.2f}" '
        f'text-anchor="end" font-family="sans-serif" font-size="12" '
        f'fill="{AXIS_GRAY}">{top}</text>')
    title = f"{quantity} rank histogram (N={band.N}, L={band.L}, B={n_bins})"
    return _document(title, marks, y_of(0), band.L, [y_label])


class EcdfFrame:
    """What every ECDF plot drawn against one band shares, built once per report.

    It holds the band; the x coordinates of 0..L, each formatted once, in
    the orders the step curve and the band's outline take them; the extent of
    the band less its uniform expectation; and the band polygon and baseline
    marks of each y range (mode, y_lo, y_hi) drawn so far.  An ECDF plot's y
    range is [0, 1].  A difference plot's is set by the band's extent unless
    its curve leaves it.  So most plots of a report share their band marks,
    and per plot only the curve is formatted.
    """

    def __init__(self, band: EcdfBand):
        self.band = band
        xs = [x + "," for x in _formatted(MARGIN_LEFT + PLOT_W * np.arange(band.L + 1) / band.L)]
        self.xs, self.outline_xs, self.step_xs = xs, xs + xs[::-1], _interleaved(xs, xs[1:])
        self.extent = float(np.max(np.abs(np.stack([band.low, band.high]) - band.expected)))
        self.band_marks: dict[tuple[str, float, float], list[str]] = {}


def render_ecdf_svg(values: np.ndarray, frame: EcdfFrame, quantity: str,
                    mode: str = "ecdf") -> str:
    """SVG of the quantity's rank ECDF ``values`` at 0..L (or, with mode "diff", their
    difference from the uniform expectation) against the band of ``frame``, whose band
    marks it keeps for the next plot of the same y range."""
    if mode not in ("ecdf", "diff"):
        raise ValueError("mode must be 'ecdf' or 'diff'")
    band = frame.band
    # The difference plot subtracts the uniform expectation from everything it draws.
    shift = band.expected if mode == "diff" else 0.0
    curve = values - shift
    y_lo, y_hi = 0.0, 1.0
    if mode == "diff":
        span = max(frame.extent, float(np.max(np.abs(curve))), 1e-9) * 1.15
        y_lo, y_hi = -span, span

    def y_of(v):
        return MARGIN_TOP + PLOT_H * (1.0 - (v - y_lo) / (y_hi - y_lo))

    key = (mode, y_lo, y_hi)
    if key not in frame.band_marks:
        low, high, baseline = (a - shift for a in (band.low, band.high, band.expected))
        outline = _points(frame.outline_xs, _formatted(y_of(np.concatenate([high, low[::-1]]))))
        frame.band_marks[key] = [
            f'<polygon points="{outline}" fill="{BAND_GRAY}"/>',
            f'<polyline points="{_points(frame.xs, _formatted(y_of(baseline)))}" '
            f'fill="none" stroke="{MEDIAN_GRAY}" stroke-width="1"/>',
        ]
    ys = _formatted(y_of(curve))
    steps = _points(frame.step_xs, _interleaved(ys, ys[:-1]))
    values_attr = " ".join(map(repr, curve.tolist()))
    marks = frame.band_marks[key] + [
        f'<polyline points="{steps}" fill="none" '
        f'stroke="{DATA_RED}" stroke-width="1.5" data-values="{values_attr}"/>',
    ]
    title = (f"{quantity} rank ECDF{' difference' if mode == 'diff' else ''} "
             f"(N={band.N}, L={band.L})")
    return _document(title, marks, y_of(y_lo), band.L, [])


def summarize(artifact: RunArtifact, quantities, counts: np.ndarray,
              band: HistogramBand) -> list[dict]:
    """JSON-serializable summary of each quantity's calibration evidence, from its row of the
    (Q, B) ``counts`` drawn against ``band``, and its ranks' moments.

    A quantity's ESS quartiles are taken over the replications with an
    estimate for it, and are None where none has one.  Quantities whose
    estimates are missing from the same replications share one
    ``np.percentile`` call, so a report takes one unless a quantity's series
    was constant where another's was not.
    """
    ess = artifact.ess_columns(quantities)
    known = ~np.isnan(ess)
    groups: dict[bytes, list[int]] = {}
    for j, column in enumerate(known.T):
        groups.setdefault(column.tobytes(), []).append(j)
    ess_quartiles = [None] * len(quantities)
    for columns in groups.values():
        rows = known[:, columns[0]]
        if rows.any():
            quartiles = np.percentile(ess[rows][:, columns], [25, 50, 75], axis=0)
            for j, values in zip(columns, quartiles.T.tolist()):
                ess_quartiles[j] = values
    summaries = []
    for quantity, row, quartiles in zip(quantities, counts, ess_quartiles):
        stat, dof = chi_square_uniformity(row)
        normalized = artifact.ranks_for(quantity) / band.L
        rank_mean = float(np.mean(normalized))
        summaries.append({
            "quantity": quantity,
            "N": band.N,
            "L": band.L,
            "B": band.B,
            "counts": row.tolist(),
            "band_low": band.low,
            "band_high": band.high,
            "band_coverage": band.coverage,
            "bins_outside_band": int(np.sum((row < band.low) | (row > band.high))),
            "chi_square": stat,
            "chi_square_dof": dof,
            "classification": classify_shape(row, band, rank_mean),
            "rank_mean_normalized": rank_mean,
            "rank_var_normalized": float(np.var(normalized)),
            "failure_count": len(artifact.failures),
            "ess_quartiles": quartiles,
        })
    return summaries


_CSV_COLUMNS = ["quantity", "N", "L", "B", "band_low", "band_high",
                "bins_outside_band", "chi_square", "chi_square_dof", "classification",
                "rank_mean_normalized", "rank_var_normalized", "failure_count",
                "ess_q25", "ess_median", "ess_q75"]


def summary_csv(rows: list[dict]) -> str:
    """One CSV row per quantity summary, quoted where a value needs it, as in ranks.csv."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    writer.writerows([row[c] for c in _CSV_COLUMNS[:13]] + (row["ess_quartiles"] or [""] * 3)
                     for row in rows)
    return buf.getvalue()


def safe_filename(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


def write_report(artifact: RunArtifact, request: ReportRequest, out_dir) -> list[str]:
    """Render every requested artifact; returns the relative file names written.

    What depends only on (N, L, B, coverage), which every quantity of the
    artifact shares, is built once per call: the histogram band, the ECDF
    band and its frame (:class:`EcdfFrame`).  Each quantity's counts and
    ECDF values are built once and shared by the files that show them, and
    its summary row only when ``json`` or ``csv`` is requested.  The bands,
    counts and summary rows are built before ``out_dir`` is created, so a
    report refused for an unknown quantity or bins that do not divide L+1
    creates nothing; so does one with ``svg`` whose quantities' plots would
    share a file name.
    """
    from pathlib import Path

    quantities = request.quantities or artifact.quantities
    stems: dict[str, str] = {}  # each plotted quantity by its file name stem
    for q in quantities if "svg" in request.formats else ():
        stem = safe_filename(q)
        if stems.setdefault(stem, q) != q:
            raise ValueError(f"quantities {stems[stem]!r} and {q!r} would both be plotted "
                             f"to {stem}_*.svg")
    counts, band = rank_histograms(artifact, quantities, request.bins, request.coverage)
    rows = (summarize(artifact, quantities, counts, band)
            if {"json", "csv"} & set(request.formats) else [])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    if "svg" in request.formats:
        frame = EcdfFrame(ecdf_band(artifact.ranks.shape[0], artifact.L, request.coverage))
        for stem, q, row in zip(stems, quantities, counts):
            ecdf = ecdf_summary(artifact.ranks_for(q), frame.band)
            for suffix, doc in (
                ("hist", render_histogram_svg(row, band, q)),
                ("ecdf", render_ecdf_svg(ecdf, frame, q, "ecdf")),
                ("ecdf_diff", render_ecdf_svg(ecdf, frame, q, "diff")),
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
