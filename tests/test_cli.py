import dataclasses
import json

import numpy as np
import pytest

from sbc import models
from sbc.cli import main
from sbc.streams import RandomStream

from sbc_test_models import make_flagged_model


@pytest.fixture
def tiny_config(tmp_path):
    config = {
        "model": {"kind": "normal-normal"},
        "sampler": {"kind": "exact-conjugate"},
        "N": 40,
        "L": 19,
        "master_seed": 77,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_run_and_report_end_to_end(tiny_config, tmp_path, capsys):
    run_dir = tmp_path / "artifact"
    assert main(["run", "--config", str(tiny_config), "--out", str(run_dir)]) == 0
    assert (run_dir / "ranks.csv").exists()
    assert (run_dir / "meta.json").exists()
    assert (run_dir / "sha256sums.txt").exists()
    out = capsys.readouterr().out
    assert "mu" in out

    report_dir = tmp_path / "report"
    code = main(["report", "--run", str(run_dir), "--quantity", "mu",
                 "--bins", "10", "--format", "svg,json", "--out", str(report_dir)])
    assert code == 0
    assert (report_dir / "mu_hist.svg").exists()
    assert (report_dir / "summary.json").exists()
    assert not (report_dir / "summary.csv").exists()


def test_single_bin_run_is_inconclusive(tmp_path, capsys):
    """A scale-0.2 corruption at N=15 gets one display bin, which cannot show its shape."""
    config = tmp_path / "underdispersed.json"
    config.write_text(json.dumps({
        "model": {"kind": "normal-normal"},
        "sampler": {"kind": "exact-conjugate"},
        "corruption": {"kind": "scale", "amount": 0.2, "target_quantity": "mu"},
        "N": 15,
        "L": 99,
        "master_seed": 16}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    assert "  mu: inconclusive (chi2=0.0, dof=0, 0/1 bins outside band)" in capsys.readouterr().out


def test_seed_override_changes_ranks(tiny_config, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    main(["run", "--config", str(tiny_config), "--out", str(a)])
    main(["run", "--config", str(tiny_config), "--seed", "78", "--out", str(b)])
    main(["run", "--config", str(tiny_config), "--seed", "77", "--out", str(c)])
    assert (a / "ranks.csv").read_bytes() != (b / "ranks.csv").read_bytes()
    assert (a / "ranks.csv").read_bytes() == (c / "ranks.csv").read_bytes()


def test_workers_env_var(tiny_config, tmp_path, monkeypatch):
    serial = tmp_path / "serial"
    main(["run", "--config", str(tiny_config), "--out", str(serial)])
    monkeypatch.setenv("SBC_WORKERS", "2")
    parallel = tmp_path / "parallel"
    assert main(["run", "--config", str(tiny_config), "--out", str(parallel)]) == 0
    assert (serial / "ranks.csv").read_bytes() == (parallel / "ranks.csv").read_bytes()


def test_config_errors_exit_2(tmp_path):
    missing = tmp_path / "missing.json"
    assert main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["run", "--config", str(bad_json), "--out", str(tmp_path / "o")]) == 2

    unknown_key = tmp_path / "unknown.json"
    unknown_key.write_text(json.dumps({
        "model": {"kind": "normal-normal"},
        "sampler": {"kind": "exact-conjugate"},
        "replications": 5}))
    assert main(["run", "--config", str(unknown_key), "--out", str(tmp_path / "o")]) == 2

    not_conjugate = tmp_path / "not_conjugate.json"
    not_conjugate.write_text(json.dumps({
        "model": {"kind": "lin-reg"},
        "sampler": {"kind": "exact-conjugate"},
        "N": 500,
        "L": 9}))
    assert main(["run", "--config", str(not_conjugate), "--out", str(tmp_path / "o")]) == 2


@dataclasses.dataclass(frozen=True)
class FlaggedSpec:
    cut: float


def test_failure_rate_exit_3(tmp_path, capsys, monkeypatch):
    """Fits that fail row by row (datasets above the cut) trip the failure cap."""
    monkeypatch.setitem(models.MODEL_KINDS, "flagged",
                        (FlaggedSpec, lambda spec: make_flagged_model(spec.cut)))
    config = tmp_path / "failing.json"
    config.write_text(json.dumps({
        "model": {"kind": "flagged", "cut": 0.0},
        "sampler": {"kind": "hmc", "warmup": 20},
        "N": 20,
        "L": 9,
        "master_seed": 1}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 3
    assert "floor(0.01 * N) = 0 failures allowed at N=20" in capsys.readouterr().err


@pytest.mark.parametrize("model, sampler", [
    ({"kind": "eight-schools", "parameterization": "non-centered",
      "sigma_j": [1e308, 10, 16, 11, 9, 11, 10, 18]}, "hmc"),
    ({"kind": "normal-normal", "prior_sd": 1e-200}, "exact-conjugate"),
    ({"kind": "lin-reg", "prior_sd_alpha": 1e200}, "hmc"),
    ({"kind": "lin-reg", "noise_sd_prior_scale": 1e200}, "hmc"),
])
def test_scale_whose_square_overflows_or_underflows_exits_2(model, sampler, tmp_path, capsys):
    config = tmp_path / "scale.json"
    config.write_text(json.dumps({"model": model, "sampler": {"kind": sampler},
                                  "N": 20, "L": 15, "master_seed": 1}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "neither overflow" in capsys.readouterr().err


@dataclasses.dataclass(frozen=True)
class InfDataSpec:
    cut: float


def make_inf_data_model(cut):
    """Normal-normal whose simulated observation reads inf where it exceeds ``cut``."""
    base = models.model_from_dict({"kind": "normal-normal"})

    def data_simulator(theta, rng):
        y = base.data_simulator(theta, rng)
        return np.where(y > cut, np.inf, y)

    return dataclasses.replace(base, data_simulator=data_simulator)


@pytest.mark.parametrize("sampler", ["exact-conjugate", "hmc"])
def test_non_finite_data_fails_its_row(sampler, tmp_path, capsys, monkeypatch):
    """A row with inf data fails alone (exit 0) and counts against the failure cap (exit 3)."""
    monkeypatch.setitem(models.MODEL_KINDS, "inf-data",
                        (InfDataSpec, lambda spec: make_inf_data_model(spec.cut)))
    base = models.model_from_dict({"kind": "normal-normal"})
    ys = [base.data_simulator(base.prior_simulator(RandomStream(1, i, "prior")),
                              RandomStream(1, i, "data"))[0] for i in range(100)]
    second, first = sorted(ys)[-2:]
    config = tmp_path / "inf.json"
    for cut, N, code in (((second + first) / 2, 100, 0), (0.0, 20, 3)):
        config.write_text(json.dumps({
            "model": {"kind": "inf-data", "cut": cut},
            "sampler": {"kind": sampler, "warmup": 20}, "N": N, "L": 15, "master_seed": 1}))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == code
    meta = json.loads((tmp_path / "o" / "meta.json").read_text())
    reason = "NonFiniteInput: simulated observations must be finite"
    assert meta["failures"] == [{"replication": int(np.argmax(ys)), "reason": reason}]
    assert "first failure: NonFiniteInput: simulated observations must be finite" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("sampler", ["hmc", "rw-metropolis"])
def test_short_mcmc_chains_run_without_ess(sampler, tmp_path):
    """Chains of fewer than 4 draws have no ESS estimate; the run records NaN, not a crash."""
    config = tmp_path / "short.json"
    config.write_text(json.dumps({
        "model": {"kind": "lin-reg"},
        "sampler": {"kind": sampler, "warmup": 20},
        "N": 5,
        "L": 3,
        "master_seed": 2}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "ranks.csv").read_text().splitlines()
    assert len(lines) == 1 + 5 * 3
    assert all(line.split(",")[4] == "" for line in lines[1:])


def test_report_errors_exit_4(tiny_config, tmp_path):
    assert main(["report", "--run", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "r")]) == 4

    run_dir = tmp_path / "artifact"
    main(["run", "--config", str(tiny_config), "--out", str(run_dir)])
    assert main(["report", "--run", str(run_dir), "--quantity", "zeta",
                 "--out", str(tmp_path / "r")]) == 4
    assert main(["report", "--run", str(run_dir), "--bins", "7",
                 "--out", str(tmp_path / "r")]) == 4
    assert main(["report", "--run", str(run_dir), "--format", "png",
                 "--out", str(tmp_path / "r")]) == 4


def test_report_names_a_repeated_quantity_once(tiny_config, tmp_path, capsys):
    run_dir, report_dir = tmp_path / "artifact", tmp_path / "r"
    main(["run", "--config", str(tiny_config), "--out", str(run_dir)])
    capsys.readouterr()
    assert main(["report", "--run", str(run_dir), "--quantity", "mu", "--quantity", "mu",
                 "--out", str(report_dir)]) == 0
    written = capsys.readouterr().out.splitlines()
    assert sorted(written) == sorted(f"wrote {report_dir}/{name}" for name in (
        "mu_hist.svg", "mu_ecdf.svg", "mu_ecdf_diff.svg", "summary.json", "summary.csv"))
    rows = (report_dir / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["mu"]


@pytest.mark.parametrize("formats", ["", ",", " , "])
def test_report_rejects_empty_format(tiny_config, tmp_path, capsys, formats):
    run_dir = tmp_path / "artifact"
    main(["run", "--config", str(tiny_config), "--out", str(run_dir)])
    capsys.readouterr()
    assert main(["report", "--run", str(run_dir), "--format", formats,
                 "--out", str(tmp_path / "r")]) == 4
    assert "choose from svg,csv,json" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("bins", ["0", "-1"])
def test_report_rejects_bins_below_one(tiny_config, tmp_path, capsys, bins):
    run_dir = tmp_path / "artifact"
    main(["run", "--config", str(tiny_config), "--out", str(run_dir)])
    capsys.readouterr()
    assert main(["report", "--run", str(run_dir), "--bins", bins,
                 "--out", str(tmp_path / "r")]) == 4
    err = capsys.readouterr().err
    assert f"sbc: report error: bins must be at least 1, got {bins}" in err
    assert not (tmp_path / "r").exists()


def test_list_models(capsys):
    assert main(["list-models"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert set(listing) == {"normal-normal", "lin-reg", "eight-schools"}
    assert "prior_sd" in listing["normal-normal"]


def test_list_samplers(capsys):
    assert main(["list-samplers"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert "exact-conjugate" in listing["kinds"]
    assert "step_size" in listing["config_schema"]
