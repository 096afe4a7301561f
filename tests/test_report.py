import csv
import dataclasses
import hashlib
import io
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import sbc.rankstats as rankstats
import sbc.report as report
from sbc.config import RunConfig, SamplerConfig
from sbc.errors import UnknownQuantity
from sbc.rankstats import binomial_quantiles, build_histogram, ecdf_band, ecdf_summary, histogram_band
from sbc.report import (
    EcdfFrame,
    ReportRequest,
    rank_histograms,
    render_ecdf_svg,
    render_histogram_svg,
    summarize,
    summary_csv,
    write_report,
)
from sbc.runner import RunArtifact, run


def artifact_from_ranks(ranks, L=19, quantities=("mu",)):
    """Hand-built artifact wrapping a fixed rank table, one column per quantity."""
    ranks = np.reshape(ranks, (-1, len(quantities)))
    n = ranks.shape[0]
    config = RunConfig(model={"kind": "normal-normal"},
                       sampler=SamplerConfig(kind="exact-conjugate"),
                       N=n, L=L, master_seed=1)
    return RunArtifact(config=config, quantities=tuple(quantities), replications=np.arange(n),
                       ranks=ranks, ess=np.full(ranks.shape, np.nan),
                       chain_lengths=np.full(n, L), diagnostics=(), failures=(),
                       wall_clock_seconds=0.0)


def eighteen_quantity_artifact(shifted=None):
    """300 replications of 18 quantities q00..q17 at L=49, each column's ranks spread
    over 0..49 in its own order; the ``shifted`` quantity's ranks all sit in its top fifth."""
    i = np.arange(300)
    steps = [m for m in range(1, 50, 2) if m % 5][:18]
    columns = [(i * m + i * i // 131) % 50 for m in steps]
    names = tuple(f"q{j:02d}" for j in range(18))
    if shifted is not None:
        columns[names.index(shifted)] = 40 + i % 10
    return artifact_from_ranks(np.column_stack(columns), L=49, quantities=names)


def two_quantity_artifact():
    i = np.arange(300)
    return artifact_from_ranks(np.column_stack([(i * 37) % 50, (i * i) % 50]), L=49,
                               quantities=("mu", "theta[1]"))


# SHA-256 of every file of the default report of two_quantity_artifact(),
# frozen from the per-point quantile implementation the vectorised one replaced.
FROZEN_REPORT_SHA256 = {
    "mu_hist.svg": "5ac05b9793a34618c61d2fa18a8f8574c1b2172b7a2bc7c89515357af7564444",
    "mu_ecdf.svg": "95bfacc67b665bcb1b885b4d431450d4d4a8802da1b2fb0fd64d2bba0d482bbf",
    "mu_ecdf_diff.svg": "7113336fd055473d1412dcbd5c7ccfc3239dc8f90433f44d91f657aad3f18514",
    "theta_1__hist.svg": "51287bba7884b19fcc54f7f69297c046831be5c4beb14fd16d2f1301b5471024",
    "theta_1__ecdf.svg": "3a391b50e0bc5434e2055227b261173a62a8d09ca5927f6a7d93a16690f49452",
    "theta_1__ecdf_diff.svg": "5c84e7b2a8ea4fbdce121315584102b7218305b852b75240ee45b92b881724f6",
    "summary.json": "561cbfe14572996335673e4dff4a924923ed9a1fdf9f2a2bb6ef43fc2067c10e",
    "summary.csv": "17ed992ac5b1e1f1f77fa500766759984214bb556eab91acc9d6d8b57e8c3b13",
}


def ecdf_of(artifact, quantity):
    """The quantity's ECDF values, and a frame of the artifact's 99% band."""
    band = ecdf_band(artifact.ranks.shape[0], artifact.L)
    return ecdf_summary(artifact.ranks_for(quantity), band), EcdfFrame(band)


def histogram_of(artifact, quantity, B):
    """The quantity's counts in B bins and their band, as render_histogram_svg takes them."""
    counts, band = rank_histograms(artifact, [quantity], B=B)
    return counts[0], band


@pytest.fixture(scope="module")
def exact_artifact():
    config = RunConfig(model={"kind": "normal-normal"},
                       sampler=SamplerConfig(kind="exact-conjugate"),
                       N=400, L=19, master_seed=63)
    return run(config)


class TestHistogramSvg:
    def test_well_formed_and_counts_recoverable(self, exact_artifact):
        doc = render_histogram_svg(*histogram_of(exact_artifact, "mu", 10), "mu")
        root = ET.fromstring(doc)
        bars = [el for el in root.iter() if el.get("data-count") is not None]
        counts = [int(el.get("data-count")) for el in bars]
        ranks = exact_artifact.ranks_for("mu")
        expected = build_histogram(ranks, histogram_band(ranks.size, 19, 10))
        np.testing.assert_array_equal(counts, expected)

    def test_bar_heights_proportional_to_counts(self, exact_artifact):
        doc = render_histogram_svg(*histogram_of(exact_artifact, "mu", 10), "mu")
        root = ET.fromstring(doc)
        bars = [el for el in root.iter() if el.get("data-count") is not None]
        heights = np.array([float(el.get("height")) for el in bars])
        counts = np.array([int(el.get("data-count")) for el in bars])
        nonzero = counts > 0
        ratio = heights[nonzero] / counts[nonzero]
        assert ratio.std() < 0.02 * ratio.mean()

    def test_byte_stable(self, exact_artifact):
        a = render_histogram_svg(*histogram_of(exact_artifact, "mu", 10), "mu")
        b = render_histogram_svg(*histogram_of(exact_artifact, "mu", 10), "mu")
        assert a == b

    def test_band_annotated(self, exact_artifact):
        doc = render_histogram_svg(*histogram_of(exact_artifact, "mu", 10), "mu")
        root = ET.fromstring(doc)
        band = [el for el in root.iter() if el.get("data-band-low") is not None]
        assert len(band) == 1

    def test_unknown_quantity(self, exact_artifact):
        with pytest.raises(UnknownQuantity):
            rank_histograms(exact_artifact, ["mu", "sigma"])


class TestEcdfSvg:
    def test_perfect_uniform_diff_is_zero(self):
        L = 19
        artifact = artifact_from_ranks(list(range(L + 1)), L=L)
        doc = render_ecdf_svg(*ecdf_of(artifact, "mu"), "mu", mode="diff")
        root = ET.fromstring(doc)
        curve = [el for el in root.iter() if el.get("data-values") is not None][0]
        values = [float(v) for v in curve.get("data-values").split()]
        assert values == [0.0] * (L + 1)

    def test_point_mass_steps_to_one_at_zero(self):
        L = 19
        artifact = artifact_from_ranks([0] * 50, L=L)
        doc = render_ecdf_svg(*ecdf_of(artifact, "mu"), "mu", mode="ecdf")
        root = ET.fromstring(doc)
        curve = [el for el in root.iter() if el.get("data-values") is not None][0]
        values = [float(v) for v in curve.get("data-values").split()]
        assert values == [1.0] * (L + 1)

    def test_byte_stable(self, exact_artifact):
        for mode in ("ecdf", "diff"):
            assert (render_ecdf_svg(*ecdf_of(exact_artifact, "mu"), "mu", mode)
                    == render_ecdf_svg(*ecdf_of(exact_artifact, "mu"), "mu", mode))

    def test_bad_mode(self, exact_artifact):
        with pytest.raises(ValueError):
            render_ecdf_svg(*ecdf_of(exact_artifact, "mu"), "mu", mode="qq")


class TestSummarize:
    def test_contents(self, exact_artifact):
        s, = summarize(exact_artifact, ["mu"], *rank_histograms(exact_artifact, ["mu"], B=10))
        assert s["N"] == 400
        assert s["B"] == 10
        assert sum(s["counts"]) == 400
        assert s["chi_square_dof"] == 9
        assert s["classification"] in ("uniform", "u-shaped", "cap-shaped",
                                       "biased-low-ranks", "biased-high-ranks",
                                       "boundary-spikes")
        assert s["failure_count"] == 0
        assert s["ess_quartiles"] is None
        json.loads(json.dumps(s))

    def test_default_binning_rule(self, exact_artifact):
        s, = summarize(exact_artifact, ["mu"], *rank_histograms(exact_artifact, ["mu"]))
        assert s["B"] == 20  # largest divisor of 20 with 400/B >= 20

    @pytest.mark.parametrize("n", [1, 2, 5, 300])
    @pytest.mark.parametrize("constant_series", [False, True])
    def test_ess_quartiles_equal_each_quantity_alone(self, monkeypatch, n, constant_series):
        # A replication without a chain has no estimate for any quantity, and a
        # constant series none for its own quantity.
        rng = np.random.default_rng(n)
        ess = rng.lognormal(3.0, 2.0, size=(n, 18))
        ess[rng.random(n) < 0.3] = np.nan
        if constant_series:
            ess[rng.random(n) < 0.5, 4] = np.nan
            ess[:, 7] = np.nan
        artifact = eighteen_quantity_artifact()
        artifact = dataclasses.replace(artifact, ranks=artifact.ranks[:n], ess=ess,
                                       replications=np.arange(n))
        calls, percentile = [], np.percentile
        monkeypatch.setattr(np, "percentile", lambda *a, **k: calls.append(a) or percentile(*a, **k))
        rows = summarize(artifact, artifact.quantities,
                         *rank_histograms(artifact, artifact.quantities, B=1))
        for j, row in enumerate(rows):
            column = ess[:, j][~np.isnan(ess[:, j])]
            assert row["ess_quartiles"] == ([float(q) for q in percentile(column, [25, 50, 75])]
                                            if column.size else None)
        # One call for each set of quantities missing estimates in the same replications.
        patterns = {known.tobytes() for known in ~np.isnan(ess.T) if known.any()}
        assert len(calls) == len(patterns) <= (2 if constant_series else 1)

    def test_counts_sum_excludes_failures(self, exact_artifact):
        s, = summarize(exact_artifact, ["mu"], *rank_histograms(exact_artifact, ["mu"]))
        assert sum(s["counts"]) == s["N"] - 0


class TestWriteReport:
    def test_all_formats(self, exact_artifact, tmp_path):
        request = ReportRequest(artifact_path="x", formats=("svg", "csv", "json"), bins=10)
        written = write_report(exact_artifact, request, tmp_path)
        assert set(written) == {"mu_hist.svg", "mu_ecdf.svg", "mu_ecdf_diff.svg",
                                "summary.json", "summary.csv"}
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "mu" in summary

    def test_csv_has_one_row_per_quantity(self, exact_artifact):
        rows = summarize(exact_artifact, ["mu"], *rank_histograms(exact_artifact, ["mu"], B=10))
        text = summary_csv(rows)
        lines = text.strip().split("\n")
        assert len(lines) == 2

    def test_csv_quotes_a_name_with_a_comma(self):
        """Each row has one field per column, and a quoted name reads back whole."""
        artifact = artifact_from_ranks(np.arange(40).reshape(20, 2) % 20,
                                       quantities=("a,b", "mu"))
        rows = summarize(artifact, ["a,b", "mu"], *rank_histograms(artifact, ["a,b", "mu"], B=5))
        table = list(csv.reader(io.StringIO(summary_csv(rows))))
        assert [len(row) for row in table] == [16] * 3
        assert [row[0] for row in table] == ["quantity", "a,b", "mu"]

    def test_subset_of_formats(self, exact_artifact, tmp_path):
        request = ReportRequest(artifact_path="x", formats=("json",))
        written = write_report(exact_artifact, request, tmp_path)
        assert written == ["summary.json"]

    def test_unknown_quantity_rejected(self, exact_artifact, tmp_path):
        request = ReportRequest(artifact_path="x", quantities=("sigma",))
        with pytest.raises(UnknownQuantity):
            write_report(exact_artifact, request, tmp_path)

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            ReportRequest(artifact_path="x", formats=("png",))
        with pytest.raises(ValueError, match="choose from svg,csv,json"):
            ReportRequest(artifact_path="x", formats=())

    def test_repeated_quantities_kept_once_in_first_seen_order(self):
        request = ReportRequest(artifact_path="x", quantities=("tau", "mu", "tau", "mu"))
        assert request.quantities == ("tau", "mu")

    @pytest.mark.parametrize("bins", [0, -1])
    def test_bins_below_one_rejected(self, bins):
        with pytest.raises(ValueError, match="bins must be at least 1"):
            ReportRequest(artifact_path="x", bins=bins)

    @pytest.mark.parametrize("bins", [True, 2.5, 4.0, "4"])
    def test_bins_that_are_not_integers_rejected_when_built(self, bins):
        with pytest.raises(ValueError, match="bins must be at least 1"):
            ReportRequest(artifact_path="x", bins=bins)

    def test_files_match_frozen_digests(self, tmp_path):
        written = write_report(two_quantity_artifact(), ReportRequest(artifact_path="x"),
                               tmp_path)
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in written}
        assert digests == FROZEN_REPORT_SHA256

    def test_each_summary_and_the_band_built_once(self, tmp_path, monkeypatch):
        """Whatever the number of quantities, a report makes one histogram-band quantile
        call and one ECDF band, and one ECDF value array per quantity."""
        calls = {"ecdf_summary": 0, "ecdf_band": 0, "histogram band": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        def quantiles(qs, n, ps):
            calls["histogram band"] += np.size(ps) == 1  # an ECDF band has L+1 points
            return binomial_quantiles(qs, n, ps)

        counted(report, "ecdf_summary")
        counted(report, "ecdf_band")
        monkeypatch.setattr(rankstats, "binomial_quantiles", quantiles)
        for artifact in (two_quantity_artifact(), eighteen_quantity_artifact()):
            calls.update(dict.fromkeys(calls, 0))
            write_report(artifact, ReportRequest(artifact_path="x"), tmp_path)
            assert calls == {"ecdf_summary": len(artifact.quantities), "ecdf_band": 1,
                             "histogram band": 1}

    def test_each_plot_drawn_through_its_one_path(self, tmp_path, monkeypatch):
        """For Q quantities a report counts ranks through `build_histogram` Q times, and
        draws through `render_histogram_svg` Q times and `render_ecdf_svg` 2Q times, under
        the names `sbc.report` binds; wrapping them changes no byte written."""
        artifact = eighteen_quantity_artifact()
        plain = write_report(artifact, ReportRequest(artifact_path="x"), tmp_path / "plain")
        calls = dict.fromkeys(("build_histogram", "render_histogram_svg", "render_ecdf_svg"), 0)
        for name in calls:
            def wrapper(*args, _name=name, _original=getattr(report, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(report, name, wrapper)
        wrapped = write_report(artifact, ReportRequest(artifact_path="x"), tmp_path / "wrapped")
        Q = len(artifact.quantities)
        assert calls == {"build_histogram": Q, "render_histogram_svg": Q, "render_ecdf_svg": 2 * Q}
        assert wrapped == plain
        for name in plain:
            assert (tmp_path / "wrapped" / name).read_bytes() == (
                tmp_path / "plain" / name).read_bytes()

    def test_subset_report_matches_full_report(self, tmp_path):
        """A report of some quantities writes their files byte for byte as the report of
        every quantity does."""
        artifact = eighteen_quantity_artifact()
        full = write_report(artifact, ReportRequest(artifact_path="x"), tmp_path / "full")
        subset = ("q07", "q00")
        picked = write_report(artifact, ReportRequest(artifact_path="x", quantities=subset,
                                                      formats=("svg",)), tmp_path / "subset")
        assert picked == [f"{q}_{suffix}.svg" for q in subset
                          for suffix in ("hist", "ecdf", "ecdf_diff")]
        assert set(picked) < set(full)
        for name in picked:
            assert (tmp_path / "subset" / name).read_bytes() == (
                tmp_path / "full" / name).read_bytes()

    def test_curve_outside_the_band_gets_its_own_range(self, tmp_path):
        """A shifted quantity's ECDF difference leaves the band's extent, and the others stay
        inside it: each SVG of one report equals the plot of its quantity rendered alone,
        and the report draws three sets of band marks, the ECDF's, the shared difference
        range's and the shifted quantity's."""
        artifact = eighteen_quantity_artifact(shifted="q03")
        request = ReportRequest(artifact_path="x", bins=5)
        write_report(artifact, request, tmp_path)
        band = ecdf_band(artifact.ranks.shape[0], artifact.L, request.coverage)
        frame = EcdfFrame(band)
        for q in artifact.quantities:
            ecdf = ecdf_summary(artifact.ranks_for(q), band)
            counts, hist_band = rank_histograms(artifact, [q], request.bins, request.coverage)
            leaves = np.max(np.abs(ecdf - band.expected)) > frame.extent
            assert leaves == (q == "q03")
            for suffix, doc in (("hist", render_histogram_svg(counts[0], hist_band, q)),
                                ("ecdf", render_ecdf_svg(ecdf, EcdfFrame(band), q, "ecdf")),
                                ("ecdf_diff", render_ecdf_svg(ecdf, EcdfFrame(band), q, "diff"))):
                assert (tmp_path / f"{q}_{suffix}.svg").read_text(encoding="utf-8") == doc
            for mode in ("ecdf", "diff"):
                assert (render_ecdf_svg(ecdf, frame, q, mode)
                        == render_ecdf_svg(ecdf, EcdfFrame(band), q, mode))
        assert [key[0] for key in frame.band_marks] == ["ecdf", "diff", "diff"]

    def test_quantities_that_share_a_file_name_refused_before_any_file(self, tmp_path):
        """`a/b` and `a_b` would both be plotted to a_b_*.svg; without svg no file is named
        after a quantity."""
        artifact = artifact_from_ranks(np.arange(40) % 20, quantities=("x", "a/b", "a_b",
                                                                        "y"))
        with pytest.raises(ValueError, match=r"^quantities 'a/b' and 'a_b' would both be "
                                             r"plotted to a_b_\*\.svg$"):
            write_report(artifact, ReportRequest(artifact_path="x"), tmp_path / "r")
        assert not (tmp_path / "r").exists()
        written = write_report(artifact, ReportRequest(artifact_path="x", formats=("json",)),
                               tmp_path / "r")
        assert written == ["summary.json"]

    @pytest.mark.parametrize("formats, expected", [
        (("svg",), 0), (("json",), 2), (("csv",), 2), (("svg", "csv", "json"), 2)])
    def test_summary_rows_only_for_summary_formats(self, tmp_path, monkeypatch, formats,
                                                   expected):
        calls = []
        original = report.summarize

        def counted(*args, **kwargs):
            calls.extend(args[1])
            return original(*args, **kwargs)
        monkeypatch.setattr(report, "summarize", counted)
        write_report(two_quantity_artifact(), ReportRequest(artifact_path="x", formats=formats),
                     tmp_path)
        assert len(calls) == expected
