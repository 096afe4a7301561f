import dataclasses
import json
import math

import numpy as np
import pytest

from sbc import cli, models, rankstats, runner
from sbc.cli import main
from sbc.config import config_from_dict
from sbc.runner import run, save_artifact
from sbc.streams import RandomStream

from sbc_test_artifacts import rewrite
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


def test_run_summary_draws_every_quantity_against_one_band(tmp_path, capsys, monkeypatch):
    """`sbc run` prints one line per quantity, all from one histogram-band quantile call:
    18 for non-centered eight schools."""
    config = tmp_path / "eight-schools.json"
    config.write_text(json.dumps({
        "model": {"kind": "eight-schools", "parameterization": "non-centered"},
        "sampler": {"kind": "hmc", "warmup": 20}, "N": 20, "L": 19, "master_seed": 3}))
    band_calls = []
    quantiles = rankstats.binomial_quantiles

    def counted(qs, n, ps):
        band_calls.append(n)
        return quantiles(qs, n, ps)
    monkeypatch.setattr(rankstats, "binomial_quantiles", counted)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    assert band_calls == [20]
    lines = capsys.readouterr().out.splitlines()[2:]
    assert len(lines) == 18
    assert all(line.endswith("bins outside band)") for line in lines)


def test_seed_override_changes_ranks(tiny_config, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    main(["run", "--config", str(tiny_config), "--out", str(a)])
    main(["run", "--config", str(tiny_config), "--seed", "78", "--out", str(b)])
    main(["run", "--config", str(tiny_config), "--seed", "77", "--out", str(c)])
    assert (a / "ranks.csv").read_bytes() != (b / "ranks.csv").read_bytes()
    assert (a / "ranks.csv").read_bytes() == (c / "ranks.csv").read_bytes()


def test_workers_env_var(tiny_config, tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)  # a real 2-process pool
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


@pytest.mark.parametrize("change", [
    {"N": 50.5},
    {"L": 15.0},
    {"master_seed": 1.5},
    {"sampler": {"kind": "hmc", "n_leapfrog": 2.5}},
    {"sampler": {"kind": "hmc", "step_size": math.inf}},
    {"model": {"kind": "normal-normal", "n_obs": 2.5}},
    {"model": {"kind": "normal-normal", "prior_mean": math.inf}},
    {"corruption": {"kind": "shift", "amount": math.nan, "target_quantity": "mu"}},
    {"model": {"kind": "lin-reg", "n_obs": 3, "covariates": [1e200, 1.0, 2.0]},
     "sampler": {"kind": "hmc"}},
    {"model": {"kind": "lin-reg", "covariates": 5}, "sampler": {"kind": "hmc"}},
    {"model": {"kind": "eight-schools", "sigma_j": 3}, "sampler": {"kind": "hmc"}},
    # Strings and bools are not numbers, and a string is not a list of its characters.
    {"model": {"kind": "lin-reg", "n_obs": 2, "covariates": "12"}, "sampler": {"kind": "hmc"}},
    {"model": {"kind": "lin-reg", "n_obs": 2, "covariates": [True, False]},
     "sampler": {"kind": "hmc"}},
    {"model": {"kind": "lin-reg", "n_obs": 2, "covariates": ["1.5", "2"]},
     "sampler": {"kind": "hmc"}},
    {"model": {"kind": "eight-schools", "sigma_j": "12345678"}, "sampler": {"kind": "hmc"}},
    # An integer too large for a float.
    {"model": {"kind": "lin-reg", "n_obs": 2, "covariates": [10**400, 1]},
     "sampler": {"kind": "hmc"}},
    {"model": {"kind": "normal-normal", "prior_mean": 10**400}},
    {"model": {"kind": "normal-normal", "prior_sd": 10**400}},
    {"model": {"kind": "normal-normal", "prior_sd": 10**200}},  # its square overflows
])
def test_non_integer_or_non_finite_numbers_exit_2(change, tmp_path, capsys):
    """Integer fields take ints only, float fields finite numbers, lin-reg covariates and
    eight-schools sigma_j lists, and covariates a finite sum of squares; anything else is
    a one-line config error, not a run."""
    config = tmp_path / "numbers.json"
    config.write_text(json.dumps({"model": {"kind": "normal-normal"},
                                  "sampler": {"kind": "exact-conjugate"},
                                  "N": 20, "L": 15, "master_seed": 1, **change}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sbc: config error: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("model, spec", [("normal-normal", "NormalNormalSpec"),
                                         ("lin-reg", "LinRegSpec")])
def test_n_obs_above_2_to_the_20_exits_2(model, spec, tmp_path, capsys):
    config = tmp_path / "n_obs.json"
    config.write_text(json.dumps({"model": {"kind": model, "n_obs": 2**20 + 1},
                                  "sampler": {"kind": "hmc"}, "N": 20, "L": 15}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (f"sbc: config error: invalid model spec: {spec}.n_obs "
                                       "must be an integer in [1, 1048576], got 1048577\n")


@pytest.mark.parametrize("change, message", [
    ({"L": 2**20 + 1, "max_chain_length": 2**22},
     "RunConfig.L must be an integer in [1, 1048576], got 1048577"),
    ({"max_chain_length": 2**22 + 1},
     "RunConfig.max_chain_length must be an integer in [1, 4194304], got 4194305"),
    ({"sampler": {"kind": "hmc", "warmup": 2**22 + 1}},
     "invalid sampler: SamplerConfig.warmup must be an integer in [0, 4194304], got 4194305"),
    ({"sampler": {"kind": "meanfield-vi", "vi_iterations": 2**22 + 1}},
     "invalid sampler: SamplerConfig.vi_iterations must be an integer in [1, 4194304], "
     "got 4194305"),
], ids=["L", "max_chain_length", "warmup", "vi_iterations"])
def test_sizes_above_their_bounds_exit_2(change, message, tmp_path, capsys):
    config = tmp_path / "sizes.json"
    config.write_text(json.dumps({"model": {"kind": "normal-normal"},
                                  "sampler": {"kind": "exact-conjugate"}, "N": 20, "L": 15,
                                  **change}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"sbc: config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_out_that_cannot_be_created_exits_2_before_running(tiny_config, tmp_path, capsys,
                                                           monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(runner, "run", lambda config: pytest.fail("the run started"))
    for out in (blocker / "artifact", blocker):
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sbc: cannot create output directory: ") and err.count("\n") == 1


def test_artifact_that_cannot_be_written_exits_2(tiny_config, tmp_path, capsys):
    out = tmp_path / "artifact"
    (out / "meta.json").mkdir(parents=True)
    assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sbc: cannot write artifact: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("option", [["--quantity", "zeta"], ["--bins", "7"]])
def test_refused_report_creates_nothing(option, tiny_config, tmp_path, capsys):
    """An unknown quantity, or bins that do not divide L+1 = 20, is refused before the
    output directory is made."""
    run_dir = tmp_path / "artifact"
    main(["run", "--config", str(tiny_config), "--out", str(run_dir)])
    capsys.readouterr()
    assert main(["report", "--run", str(run_dir), *option, "--out", str(tmp_path / "r")]) == 4
    assert capsys.readouterr().err.startswith("sbc: report error: ")
    assert not (tmp_path / "r").exists()


# Nested deeper than Python's JSON parser recurses.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def test_config_nested_too_deep_exits_2(tmp_path, capsys):
    config = tmp_path / "deep.json"
    config.write_text(DEEP_JSON)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("sbc: cannot read config: ")


def test_report_on_meta_nested_too_deep_exits_4(tiny_config, tmp_path, capsys):
    """A checksummed meta.json that the parser cannot read is a damaged artifact."""
    run_dir = tmp_path / "artifact"
    main(["run", "--config", str(tiny_config), "--out", str(run_dir)])
    capsys.readouterr()
    rewrite(run_dir, "meta.json", DEEP_JSON.encode())
    assert main(["report", "--run", str(run_dir), "--out", str(tmp_path / "r")]) == 4
    assert capsys.readouterr().err.startswith("sbc: report error: meta.json does not parse: ")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("model", [{"kind": "lin-reg", "covariates": 5},
                                   {"kind": "eight-schools", "sigma_j": 3},
                                   {"kind": "lin-reg", "n_obs": 2, "covariates": "12"},
                                   {"kind": "lin-reg", "n_obs": 2, "covariates": [True, False]},
                                   {"kind": "lin-reg", "n_obs": 2, "covariates": ["1.5", "2"]},
                                   {"kind": "eight-schools", "sigma_j": "12345678"}])
def test_report_on_a_model_that_cannot_be_built_exits_4(model, tiny_config, tmp_path, capsys):
    """A config naming such a model cannot be made, so only a saved meta.json can hold one."""
    out = save_artifact(run(config_from_dict(json.loads(tiny_config.read_text()))),
                        tmp_path / "artifact")
    meta = json.loads((out / "meta.json").read_text())
    meta["config"]["model"] = model
    rewrite(out, "meta.json", json.dumps(meta).encode())
    assert main(["report", "--run", str(out), "--out", str(tmp_path / "r")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("sbc: report error: invalid model spec") and err.count("\n") == 1


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


def test_report_refuses_quantities_that_share_a_file_name(tiny_config, tmp_path, capsys):
    """The plots of `a/b` and `a_b` would both be written to a_b_*.svg."""
    artifact = run(config_from_dict(json.loads(tiny_config.read_text())))
    ranks = np.repeat(artifact.ranks, 2, axis=1)
    out = save_artifact(dataclasses.replace(artifact, quantities=("a/b", "a_b"), ranks=ranks,
                                            ess=np.repeat(artifact.ess, 2, axis=1)),
                        tmp_path / "artifact")
    assert main(["report", "--run", str(out), "--out", str(tmp_path / "r")]) == 4
    assert capsys.readouterr().err == ("sbc: report error: quantities 'a/b' and 'a_b' would "
                                       "both be plotted to a_b_*.svg\n")
    assert not (tmp_path / "r").exists()


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
