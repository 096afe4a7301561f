import dataclasses
import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbc import runner
from sbc.cli import main
from sbc.errors import (
    ChecksumMismatch,
    ConfigError,
    FailureRateExceeded,
    FormatVersionMismatch,
    InvalidArtifact,
)
from sbc.rankstats import build_histogram, chi_square_uniformity, classify_shape, default_bins
from sbc.runner import (
    RunArtifact,
    RunConfig,
    config_from_dict,
    config_to_dict,
    load_artifact,
    run,
    save_artifact,
)
from sbc.model import Quantity
from sbc.models import model_from_dict
from sbc.samplers import Corruption, SamplerConfig, sample_exact_conjugate
from sbc.streams import RandomStream

from sbc_test_models import make_flagged_model


def exact_config(N=100, L=19, seed=7, **kwargs):
    return RunConfig(
        model={"kind": "normal-normal"},
        sampler=SamplerConfig(kind="exact-conjugate"),
        N=N, L=L, master_seed=seed, **kwargs)


def assert_same_table(a, b):
    assert a.quantities == b.quantities
    for name in ("replications", "ranks", "ess", "chain_lengths"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def rewrite(out, name, blob):
    """Replace one artifact file and its recorded checksum."""
    (out / name).write_bytes(blob)
    lines = []
    for line in (out / "sha256sums.txt").read_text().splitlines():
        digest, listed = line.split(None, 1)
        if listed == name:
            digest = hashlib.sha256(blob).hexdigest()
        lines.append(f"{digest}  {listed}")
    (out / "sha256sums.txt").write_text("\n".join(lines) + "\n")


class TestRunConfig:
    def test_thinning_requires_mcmc(self):
        with pytest.raises(ConfigError):
            RunConfig(sampler=SamplerConfig(kind="exact-conjugate"), thinning="algorithm-2")

    def test_bad_thinning_value(self):
        with pytest.raises(ConfigError):
            RunConfig(thinning="always")

    def test_dict_round_trip(self):
        config = RunConfig(
            model={"kind": "lin-reg", "prior_sd_beta": 1.0, "gen_prior_sd_beta": 10.0},
            sampler=SamplerConfig(kind="hmc", step_size=0.2),
            corruption=Corruption(kind="shift", amount=-0.5, target_quantity="beta"),
            N=10, L=99, thinning="algorithm-2", master_seed=123)
        rebuilt = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
        assert rebuilt == config

    def test_unknown_top_level_key(self):
        d = config_to_dict(exact_config())
        d["models"] = d.pop("model")
        with pytest.raises(ConfigError):
            config_from_dict(d)

    def test_unknown_sampler_key(self):
        d = config_to_dict(exact_config())
        d["sampler"]["stepsize"] = 1.0
        with pytest.raises(ConfigError):
            config_from_dict(d)

    def test_invalid_model_spec_reported(self):
        d = config_to_dict(exact_config())
        d["model"]["prior_sd"] = -1.0
        with pytest.raises(ConfigError):
            config_from_dict(d)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError):
            config_from_dict({"model": {"kind": "normal-normal"}})


class TestRunSbc:
    def test_single_replication_yields_one_record_per_quantity(self):
        artifact = run(exact_config(N=1))
        assert artifact.quantities == ("mu",)
        assert artifact.ranks.shape == (1, 1)
        assert np.isnan(artifact.ess).all()
        assert artifact.ess_for("mu").size == 0

    def test_all_ranks_in_range(self):
        artifact = run(exact_config(N=200, L=19))
        ranks = artifact.ranks_for("mu")
        assert ranks.size == 200
        assert ranks.min() >= 0 and ranks.max() <= 19

    def test_rank_mean_near_half_L(self):
        config = exact_config(N=2000, L=99, seed=11)
        artifact = run(config)
        ranks = artifact.ranks_for("mu")
        assert abs(ranks.mean() - 99 / 2) < 4 * 99 / math.sqrt(12 * 2000)

    def test_config_failing_every_replication_rejected(self, monkeypatch):
        """Such a config raises ConfigError when parsed, and in `run` before any replication."""
        shift = {"kind": "shift", "amount": 1.0}
        doomed = [
            ({"kind": "normal-normal"}, "exact-conjugate",
             {**shift, "target_quantity": "not-a-parameter"}, "not a parameter"),
            ({"kind": "lin-reg"}, "exact-conjugate", {}, "closed-form posterior"),
            # theta[1] is a quantity of non-centered eight schools, not a parameter.
            ({"kind": "eight-schools", "parameterization": "non-centered"}, "hmc",
             {**shift, "target_quantity": "theta[1]"}, "not a parameter"),
        ]
        monkeypatch.setattr(runner, "_run_block", lambda *args: pytest.fail("a block ran"))
        for model, sampler, corruption, message in doomed:
            d = {"model": model, "sampler": {"kind": sampler}, "corruption": corruption,
                 "N": 100, "L": 9}
            with pytest.raises(ConfigError, match=message):
                config_from_dict(d)
            config = RunConfig(model=model, sampler=SamplerConfig(kind=sampler),
                               corruption=Corruption(**corruption), N=100, L=9)
            for workers in (1, 2):
                with pytest.raises(ConfigError, match=message):
                    run(dataclasses.replace(config, worker_count_hint=workers))

    def test_model_built_once_per_run(self, monkeypatch):
        builds = []
        build = runner.model_from_dict
        monkeypatch.setattr(runner, "model_from_dict", lambda d: builds.append(d) or build(d))
        run(exact_config(N=30))
        assert len(builds) == 1

    def test_replication_independence(self):
        """Replication i's ranks depend on the seed and i, not on N."""
        small = run(exact_config(N=200, L=19, seed=13))
        large = run(exact_config(N=300, L=19, seed=13))
        np.testing.assert_array_equal(small.replications, np.arange(200))
        np.testing.assert_array_equal(small.ranks, large.ranks[:200])


class TestRunSbcMcmc:
    def test_thinned_run_records_metadata(self):
        config = RunConfig(
            model={"kind": "normal-normal"},
            sampler=SamplerConfig(kind="rw-metropolis", step_size=1.5, warmup=100),
            N=20, L=19, thinning="algorithm-2", master_seed=21)
        artifact = run(config)
        assert artifact.ranks.shape == (20, 1)
        assert (artifact.chain_lengths >= 190).all()
        assert (artifact.ess > 0).all()
        for diag in artifact.diagnostics:
            assert "ess_min" in diag and "cap_hit" in diag

    def test_hmc_algorithm_2_ranks_are_uniform(self):
        """Lockstep HMC with reruns and thinning stays calibrated on a conjugate model."""
        config = RunConfig(
            model={"kind": "normal-normal"}, sampler=SamplerConfig(kind="hmc"),
            N=200, L=19, thinning="algorithm-2", master_seed=71)
        artifact = run(config)
        assert artifact.failures == ()
        assert (artifact.chain_lengths > 10 * config.L).any()  # some replications reran
        hist = build_histogram(artifact.ranks_for("mu"), config.L,
                               default_bins(config.N, config.L))
        stat, dof = chi_square_uniformity(hist.counts)
        assert dof == 9
        assert stat < 27.877  # chi-square(9) upper 0.001 quantile
        assert classify_shape(hist) == "uniform"

    def test_cap_hit_reported_for_sticky_chain(self):
        config = RunConfig(
            model={"kind": "normal-normal"},
            sampler=SamplerConfig(kind="rw-metropolis", step_size=1e-4, warmup=0),
            N=3, L=99, thinning="algorithm-2", master_seed=22, max_chain_length=2000)
        artifact = run(config)
        assert any(d.get("cap_hit") for d in artifact.diagnostics)
        assert any(d.get("still_short") for d in artifact.diagnostics)


# Runs that must not depend on how replications are split into lockstep
# blocks or spread over workers: the exact sampler, plain and corrupted
# (block-wide stream keys and ranks), an HMC fit, Algorithm 2 with reruns of
# several planned lengths (ragged rerun groups), and mean-field VI.
INVARIANCE_CONFIGS = {
    "exact-normal": exact_config(N=2000, L=1023, seed=64),
    "exact-normal-scale": exact_config(
        N=2000, L=1023, seed=65,
        corruption=Corruption(kind="scale", amount=0.2, target_quantity="mu")),
    "hmc-lin-reg": RunConfig(
        model={"kind": "lin-reg"}, sampler=SamplerConfig(kind="hmc", warmup=50),
        N=20, L=19, master_seed=61),
    "rw-normal-algorithm-2": RunConfig(
        model={"kind": "normal-normal"},
        sampler=SamplerConfig(kind="rw-metropolis", step_size=0.3, warmup=20),
        N=24, L=19, thinning="algorithm-2", master_seed=62),
    "vi-normal": RunConfig(
        model={"kind": "normal-normal"},
        sampler=SamplerConfig(kind="meanfield-vi", vi_iterations=300),
        N=20, L=19, master_seed=63),
}


def saved_files(config, out):
    """ranks.csv and meta.json of a run, less meta.json's wall clock and worker count lines."""
    save_artifact(run(config), out)
    meta = b"".join(line for line in (out / "meta.json").read_bytes().splitlines(True)
                    if not line.lstrip().startswith((b'"wall_clock_seconds"',
                                                     b'"worker_count_hint"')))
    return (out / "ranks.csv").read_bytes(), meta


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(INVARIANCE_CONFIGS))
    def test_block_size_and_workers_leave_files_unchanged(self, tmp_path, monkeypatch, name):
        config = INVARIANCE_CONFIGS[name]
        files = {}
        for block in (1, 7, config.N):
            monkeypatch.setattr(runner, "BLOCK_SIZE", block)
            for workers in (1, 2):
                out = tmp_path / f"b{block}-w{workers}"
                files[block, workers] = saved_files(
                    dataclasses.replace(config, worker_count_hint=workers), out)
        reference = files[config.N, 1]
        assert reference[1].count(b'"replication"') == config.N  # per-row diagnostics
        for key, got in files.items():
            assert got == reference, key
        if config.thinning == "algorithm-2":
            lengths = load_artifact(tmp_path / f"b{config.N}-w1").chain_lengths
            assert len(set(lengths[lengths > 10 * config.L].tolist())) >= 2


    def test_worker_counts_give_identical_ranks(self, tmp_path):
        base = exact_config(N=48, L=19, seed=31)
        runs = {}
        for workers in (1, 4):
            config = dataclasses.replace(base, worker_count_hint=workers)
            out = tmp_path / f"w{workers}"
            save_artifact(run(config), out)
            runs[workers] = (out / "ranks.csv").read_bytes()
        assert runs[1] == runs[4]

    def test_same_seed_same_records(self):
        a = run(exact_config(N=30, seed=41))
        b = run(exact_config(N=30, seed=41))
        assert_same_table(a, b)

    def test_different_seed_differs(self):
        a = run(exact_config(N=30, seed=41))
        b = run(exact_config(N=30, seed=42))
        assert not np.array_equal(a.ranks, b.ranks)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        config = RunConfig(
            model={"kind": "lin-reg"},
            sampler=SamplerConfig(kind="rw-metropolis", step_size=0.8, warmup=50),
            N=5, L=19, master_seed=51)
        artifact = run(config)
        out = save_artifact(artifact, tmp_path / "run")
        loaded = load_artifact(out)
        assert loaded.config == artifact.config
        assert_same_table(loaded, artifact)
        assert loaded.failures == artifact.failures
        assert loaded.diagnostics == artifact.diagnostics
        assert loaded.wall_clock_seconds == artifact.wall_clock_seconds

    def test_truncated_file_detected(self, tmp_path):
        artifact = run(exact_config(N=10))
        out = save_artifact(artifact, tmp_path / "run")
        blob = (out / "ranks.csv").read_bytes()
        (out / "ranks.csv").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ChecksumMismatch):
            load_artifact(out)

    def test_minor_version_accepted_major_rejected(self, tmp_path):
        artifact = run(exact_config(N=3))
        out = save_artifact(artifact, tmp_path / "run")

        def rewrite_version(version):
            meta = json.loads((out / "meta.json").read_text())
            meta["format_version"] = version
            rewrite(out, "meta.json", (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())

        rewrite_version("1.7")
        assert load_artifact(out).format_version == "1.7"
        rewrite_version("2.0")
        with pytest.raises(FormatVersionMismatch):
            load_artifact(out)

    def test_missing_directory_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_artifact(tmp_path / "nope")

    def test_format_1_0_config_with_output_path_loads(self, tmp_path):
        artifact = run(exact_config(N=5))
        out = save_artifact(artifact, tmp_path / "run")
        meta = json.loads((out / "meta.json").read_text())
        meta["format_version"] = "1.0"
        meta["config"]["output_path"] = str(out)
        rewrite(out, "meta.json", (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())
        loaded = load_artifact(out)
        assert loaded.config == artifact.config
        assert_same_table(loaded, artifact)

    @pytest.mark.parametrize("unlisted", ["ranks.csv", "meta.json", "every file"])
    def test_unlisted_file_rejected(self, tmp_path, unlisted):
        out = save_artifact(run(exact_config(N=10)), tmp_path / "run")
        if unlisted == "ranks.csv":  # a changed rank must not pass for want of a checksum
            header, first, *rest = (out / "ranks.csv").read_text().split("\n")
            fields = first.split(",")
            fields[2] = "0" if fields[2] != "0" else "1"
            (out / "ranks.csv").write_text("\n".join([header, ",".join(fields), *rest]))
        kept = [line for line in (out / "sha256sums.txt").read_text().splitlines()
                if unlisted != "every file" and not line.endswith(unlisted)]
        (out / "sha256sums.txt").write_text("".join(f"{line}\n" for line in kept))
        with pytest.raises(ChecksumMismatch):
            load_artifact(out)


class TestRankTableValidation:
    """ranks.csv is outside input: a bad table is rejected on load and by `sbc report`."""

    @pytest.mark.parametrize("defect", ["rank-above-L", "negative-rank", "wrong-L",
                                        "missing-row", "duplicate-row", "extra-quantity"])
    def test_bad_table_rejected(self, tmp_path, defect):
        L = 9
        out = save_artifact(run(exact_config(N=20, L=L)), tmp_path / "run")
        header, *rows = (out / "ranks.csv").read_text().splitlines()
        first = rows[0].split(",")
        if defect == "rank-above-L":
            first[2] = str(L + 1)
        elif defect == "negative-rank":
            first[2] = "-1"
        elif defect == "wrong-L":
            first[3] = "5"
        if defect == "missing-row":
            rows = rows[1:]
        elif defect == "duplicate-row":
            rows = rows[:1] + rows
        elif defect == "extra-quantity":
            rows = rows[:1] + [rows[0].replace(",mu,", ",sigma,")] + rows[1:]
        else:
            rows[0] = ",".join(first)
        rewrite(out, "ranks.csv", "\n".join([header, *rows, ""]).encode())
        with pytest.raises(InvalidArtifact):
            load_artifact(out)
        assert main(["report", "--run", str(out), "--out", str(tmp_path / "report")]) == 4


class TestMetaValidation:
    """meta.json's failure and diagnostics lists are outside input too (N=20, none failed)."""

    @pytest.mark.parametrize("key, value", [
        ("failures", [3]),
        ("failures", None),
        ("diagnostics", None),
        ("failures", [{"replication": "3", "reason": "x"}]),
        ("failures", [{"replication": True, "reason": "x"}]),
        ("failures", [{"replication": 20, "reason": "x"}]),
        ("failures", [{"replication": -1, "reason": "x"}]),
        ("failures", [{"replication": 3, "reason": 5}]),
        ("failures", [{"replication": 3, "reason": "x"}, {"replication": 3, "reason": "y"}]),
        ("diagnostics", "one per replication"),
        ("diagnostics", [{"replication": i} for i in range(19)]),
        ("diagnostics", list(range(20))),
    ], ids=["failure-not-object", "failures-null", "diagnostics-null",
            "replication-string", "replication-bool", "replication-N", "replication-negative",
            "reason-not-string", "replication-twice", "diagnostics-string",
            "diagnostics-one-short", "diagnostic-not-object"])
    def test_bad_list_rejected(self, tmp_path, key, value):
        out = save_artifact(run(exact_config(N=20)), tmp_path / "run")
        meta = json.loads((out / "meta.json").read_text())
        meta[key] = value
        rewrite(out, "meta.json", (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())
        with pytest.raises(InvalidArtifact, match="meta.json"):
            load_artifact(out)
        assert main(["report", "--run", str(out), "--out", str(tmp_path / "report")]) == 4


_names = st.lists(st.text(alphabet="abz_[],.\"' 019", min_size=1, max_size=6),
                  min_size=1, max_size=4, unique=True)


@st.composite
def rank_tables(draw):
    n = draw(st.integers(1, 12))
    quantities = draw(_names)
    L = draw(st.integers(1, 2000))
    ranks = draw(st.lists(st.integers(0, L), min_size=n * len(quantities),
                          max_size=n * len(quantities)))
    ess = draw(st.lists(st.one_of(st.just(math.nan),
                                  st.floats(1e-3, 1e6, allow_nan=False)),
                        min_size=n * len(quantities), max_size=n * len(quantities)))
    lengths = draw(st.lists(st.integers(L, 10**6), min_size=n, max_size=n))
    config = RunConfig(N=n, L=L, master_seed=draw(st.integers(0, 2**32)))
    return RunArtifact(
        config=config, quantities=tuple(quantities), replications=np.arange(n),
        ranks=np.reshape(ranks, (n, len(quantities))),
        ess=np.reshape(ess, (n, len(quantities))), chain_lengths=np.array(lengths),
        diagnostics=tuple({"replication": i} for i in range(n)), failures=(),
        wall_clock_seconds=draw(st.floats(0, 1e4)))


@settings(max_examples=60, deadline=None)
@given(rank_tables())
def test_save_load_save_round_trip(artifact):
    with tempfile.TemporaryDirectory() as tmp:
        first = save_artifact(artifact, Path(tmp) / "first")
        loaded = load_artifact(first)
        second = save_artifact(loaded, Path(tmp) / "second")
        assert loaded.config == artifact.config
        assert_same_table(loaded, artifact)
        for name in ("meta.json", "ranks.csv", "sha256sums.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


def flagged_run(monkeypatch, config, cut):
    monkeypatch.setattr(runner, "model_from_dict", lambda d: make_flagged_model(cut))
    return run(config)


def observations(config):
    """Each replication's single observation under the flagged model's simulators."""
    model = make_flagged_model(math.inf)
    seed = config.master_seed
    return np.array([
        model.data_simulator(model.prior_simulator(RandomStream(seed, i, "prior")),
                             RandomStream(seed, i, "data"))[0]
        for i in range(config.N)])


def cut_above(ys, k):
    """A threshold that flags exactly the k largest observations."""
    top = np.sort(ys)[::-1]
    return (top[k - 1] + top[k]) / 2


def expected_reason(config, i):
    if config.sampler.kind == "meanfield-vi":
        return "Diverged: non-finite ELBO gradient at iteration 0"
    model = make_flagged_model(math.inf)
    z0 = model.prior_simulator(RandomStream(config.master_seed, i, "chain"))
    return f"NonFiniteDensity: non-finite log density at initial point {z0}"


class TestRowFailures:
    """A replication whose fit fails is dropped alone; the rest of its block is unaffected."""

    @pytest.mark.parametrize("kind", ["hmc", "meanfield-vi"])
    @pytest.mark.parametrize("block", [7, 128])
    def test_failed_row_fails_alone(self, monkeypatch, kind, block):
        monkeypatch.setattr(runner, "BLOCK_SIZE", block)
        config = RunConfig(sampler=SamplerConfig(kind=kind, warmup=50, vi_iterations=200),
                           N=100, L=19, master_seed=81)
        ys = observations(config)
        bad = int(np.argmax(ys))
        flagged = flagged_run(monkeypatch, config, cut_above(ys, 1))
        clean = flagged_run(monkeypatch, config, math.inf)
        assert flagged.failures == ({"replication": bad, "reason": expected_reason(config, bad)},)
        assert clean.failures == ()
        kept = clean.replications != bad
        np.testing.assert_array_equal(flagged.replications, clean.replications[kept])
        np.testing.assert_array_equal(flagged.ranks, clean.ranks[kept])
        assert flagged.diagnostics == tuple(
            d for d in clean.diagnostics if d["replication"] != bad)

    @pytest.mark.parametrize("kind", ["hmc", "meanfield-vi"])
    @pytest.mark.parametrize("N, n_bad", [(50, 1), (100, 2)])
    def test_failure_cap_counts_row_failures(self, monkeypatch, kind, N, n_bad):
        config = RunConfig(sampler=SamplerConfig(kind=kind, warmup=50, vi_iterations=200),
                           N=N, L=19, master_seed=82)
        ys = observations(config)
        first = int(np.sort(np.argsort(ys)[::-1][:n_bad])[0])
        allowed = math.floor(0.01 * N)
        with pytest.raises(FailureRateExceeded) as caught:
            flagged_run(monkeypatch, config, cut_above(ys, n_bad))
        assert str(caught.value) == (
            f"{n_bad} replications failed; at most floor(0.01 * N) = {allowed} failures "
            f"allowed at N={N}; first failure: {expected_reason(config, first)}")


def inf_data_model(cut):
    """Normal-normal whose simulated observation reads inf where it exceeds ``cut``."""
    model = model_from_dict({"kind": "normal-normal"})

    def data_simulator(theta, rng):
        y = model.data_simulator(theta, rng)
        return np.where(y > cut, np.inf, y)

    return dataclasses.replace(model, data_simulator=data_simulator)


class TestNonFiniteData:
    """A replication whose simulated data are not finite fails alone and counts against the cap."""

    @pytest.mark.parametrize("kind", ["exact-conjugate", "hmc"])
    @pytest.mark.parametrize("block", [7, 128])
    def test_row_with_inf_data_fails_alone(self, monkeypatch, kind, block):
        monkeypatch.setattr(runner, "BLOCK_SIZE", block)
        config = RunConfig(sampler=SamplerConfig(kind=kind, warmup=50), N=100, L=19,
                           master_seed=84)
        ys = observations(config)  # the flagged model draws normal-normal's prior and data
        bad = int(np.argmax(ys))
        runs = {}
        for cut in (cut_above(ys, 1), math.inf):
            monkeypatch.setattr(runner, "model_from_dict", lambda d, cut=cut: inf_data_model(cut))
            runs[cut] = run(config)
        flagged, clean = runs.values()
        reason = "NonFiniteInput: simulated observations must be finite"
        assert flagged.failures == ({"replication": bad, "reason": reason},)
        assert clean.failures == ()
        kept = clean.replications != bad
        np.testing.assert_array_equal(flagged.replications, clean.replications[kept])
        np.testing.assert_array_equal(flagged.ranks, clean.ranks[kept])
        assert flagged.diagnostics == tuple(
            d for d in clean.diagnostics if d["replication"] != bad)

    def test_failure_cap_counts_inf_data(self, monkeypatch):
        config = exact_config(N=100, L=19, seed=85)
        ys = observations(config)
        monkeypatch.setattr(runner, "model_from_dict",
                            lambda d: inf_data_model(cut_above(ys, 2)))
        with pytest.raises(FailureRateExceeded, match="2 replications failed.*NonFiniteInput"):
            run(config)


def capped_normal_model(cut):
    """Exact normal-normal with a second quantity, mu where mu <= cut and inf above it."""
    model = model_from_dict({"kind": "normal-normal"})
    capped = Quantity("capped", lambda values, names: np.where(values[:, 0] > cut, np.inf,
                                                               values[:, 0]))
    return dataclasses.replace(model, quantities=model.quantities + (capped,))


class TestNonFiniteQuantity:
    @pytest.mark.parametrize("block", [7, 128])
    def test_row_with_non_finite_quantity_fails_alone(self, monkeypatch, block):
        monkeypatch.setattr(runner, "BLOCK_SIZE", block)
        config = exact_config(N=100, L=19, seed=83)
        model = capped_normal_model(math.inf)
        peaks = []  # the largest of each replication's prior value and draws
        for i in range(config.N):
            theta = model.prior_simulator(RandomStream(config.master_seed, i, "prior"))
            data = model.data_simulator(theta, RandomStream(config.master_seed, i, "data"))
            draws = sample_exact_conjugate(model, data[np.newaxis], config.L,
                                           [RandomStream(config.master_seed, i, "chain")])
            peaks.append(max(theta[0], draws.max()))
        bad = int(np.argmax(peaks))
        runs = {}
        for cut in (cut_above(np.array(peaks), 1), math.inf):
            monkeypatch.setattr(runner, "model_from_dict", lambda d, cut=cut: capped_normal_model(cut))
            runs[cut] = run(config)
        flagged, clean = runs.values()
        assert flagged.failures == (
            {"replication": bad, "reason": "NonFiniteInput: rank_statistic requires finite inputs"},)
        assert clean.failures == ()
        kept = clean.replications != bad
        np.testing.assert_array_equal(flagged.replications, clean.replications[kept])
        np.testing.assert_array_equal(flagged.ranks, clean.ranks[kept])
        np.testing.assert_array_equal(clean.ranks_for("capped"), clean.ranks_for("mu"))
