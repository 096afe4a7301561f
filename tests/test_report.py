import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from sbc.errors import UnknownQuantity
from sbc.rankstats import rebin
from sbc.report import (
    ReportRequest,
    render_ecdf_svg,
    render_histogram_svg,
    summarize,
    summary_csv,
    write_report,
)
from sbc.runner import RunArtifact, RunConfig, run
from sbc.samplers import SamplerConfig


def artifact_from_ranks(ranks, L=19, quantity="mu"):
    """Hand-built artifact wrapping a fixed rank list."""
    n = len(ranks)
    config = RunConfig(model={"kind": "normal-normal"},
                       sampler=SamplerConfig(kind="exact-conjugate"),
                       N=n, L=L, master_seed=1)
    return RunArtifact(config=config, quantities=(quantity,), replications=np.arange(n),
                       ranks=np.reshape(ranks, (n, 1)), ess=np.full((n, 1), np.nan),
                       chain_lengths=np.full(n, L), diagnostics=(), failures=(),
                       wall_clock_seconds=0.0)


@pytest.fixture(scope="module")
def exact_artifact():
    config = RunConfig(model={"kind": "normal-normal"},
                       sampler=SamplerConfig(kind="exact-conjugate"),
                       N=400, L=19, master_seed=63)
    return run(config)


class TestHistogramSvg:
    def test_well_formed_and_counts_recoverable(self, exact_artifact):
        doc = render_histogram_svg(exact_artifact, "mu", B=10)
        root = ET.fromstring(doc)
        bars = [el for el in root.iter() if el.get("data-count") is not None]
        counts = [int(el.get("data-count")) for el in bars]
        expected = rebin(exact_artifact.ranks_for("mu"), 19, 10)
        np.testing.assert_array_equal(counts, expected)

    def test_bar_heights_proportional_to_counts(self, exact_artifact):
        doc = render_histogram_svg(exact_artifact, "mu", B=10)
        root = ET.fromstring(doc)
        bars = [el for el in root.iter() if el.get("data-count") is not None]
        heights = np.array([float(el.get("height")) for el in bars])
        counts = np.array([int(el.get("data-count")) for el in bars])
        nonzero = counts > 0
        ratio = heights[nonzero] / counts[nonzero]
        assert ratio.std() < 0.02 * ratio.mean()

    def test_byte_stable(self, exact_artifact):
        a = render_histogram_svg(exact_artifact, "mu", B=10)
        b = render_histogram_svg(exact_artifact, "mu", B=10)
        assert a == b

    def test_band_annotated(self, exact_artifact):
        doc = render_histogram_svg(exact_artifact, "mu", B=10)
        root = ET.fromstring(doc)
        band = [el for el in root.iter() if el.get("data-band-low") is not None]
        assert len(band) == 1

    def test_unknown_quantity(self, exact_artifact):
        with pytest.raises(UnknownQuantity):
            render_histogram_svg(exact_artifact, "sigma")


class TestEcdfSvg:
    def test_perfect_uniform_diff_is_zero(self):
        L = 19
        artifact = artifact_from_ranks(list(range(L + 1)), L=L)
        doc = render_ecdf_svg(artifact, "mu", mode="diff")
        root = ET.fromstring(doc)
        curve = [el for el in root.iter() if el.get("data-values") is not None][0]
        values = [float(v) for v in curve.get("data-values").split()]
        assert values == [0.0] * (L + 1)

    def test_point_mass_steps_to_one_at_zero(self):
        L = 19
        artifact = artifact_from_ranks([0] * 50, L=L)
        doc = render_ecdf_svg(artifact, "mu", mode="ecdf")
        root = ET.fromstring(doc)
        curve = [el for el in root.iter() if el.get("data-values") is not None][0]
        values = [float(v) for v in curve.get("data-values").split()]
        assert values == [1.0] * (L + 1)

    def test_byte_stable(self, exact_artifact):
        assert (render_ecdf_svg(exact_artifact, "mu", "ecdf")
                == render_ecdf_svg(exact_artifact, "mu", "ecdf"))
        assert (render_ecdf_svg(exact_artifact, "mu", "diff")
                == render_ecdf_svg(exact_artifact, "mu", "diff"))

    def test_bad_mode(self, exact_artifact):
        with pytest.raises(ValueError):
            render_ecdf_svg(exact_artifact, "mu", mode="qq")


class TestSummarize:
    def test_contents(self, exact_artifact):
        s = summarize(exact_artifact, "mu", B=10)
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
        s = summarize(exact_artifact, "mu")
        assert s["B"] == 20  # largest divisor of 20 with 400/B >= 20

    def test_counts_sum_excludes_failures(self, exact_artifact):
        s = summarize(exact_artifact, "mu")
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
        rows = [summarize(exact_artifact, "mu", B=10)]
        text = summary_csv(rows)
        lines = text.strip().split("\n")
        assert len(lines) == 2

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
