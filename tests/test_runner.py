import collections
import concurrent.futures
import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbc import report, runner
from sbc.cli import main
from sbc.config import Corruption, RunConfig, SamplerConfig, config_from_dict, config_to_dict
from sbc.errors import (
    ChecksumMismatch,
    ConfigError,
    FailureRateExceeded,
    FormatVersionMismatch,
    InvalidArtifact,
    InvalidSpec,
    SbcError,
)
from sbc.rankstats import (build_histogram, chi_square_uniformity, classify_shape, default_bins,
                           histogram_band)
from sbc.runner import RunArtifact, load_artifact, run, save_artifact
from sbc.model import PosteriorTarget, Quantity
from sbc.models import model_from_dict
from sbc.samplers import sample_exact_conjugate
from sbc.streams import RandomStream

from sbc_test_artifacts import rewrite
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


def assert_same_health(a, b, rows=slice(None)):
    """``a``'s health columns are ``b``'s rows ``rows``, of the same types."""
    assert a.health.keys() == b.health.keys()
    for name, column in a.health.items():
        assert column.dtype == b.health[name].dtype
        assert np.array_equal(column, b.health[name][rows]), name


def assert_resaved_at_1_1(artifact, out):
    """Saved again, the artifact is written at format 1.1, with no output_path, and loads
    back equal."""
    meta = json.loads((save_artifact(artifact, out) / "meta.json").read_text())
    assert meta["format_version"] == "1.1" and "output_path" not in meta["config"]
    reloaded = load_artifact(out)
    assert reloaded.config == artifact.config
    assert_same_table(reloaded, artifact)
    assert reloaded.failures == artifact.failures
    assert_same_health(reloaded, artifact)
    assert reloaded.wall_clock_seconds == artifact.wall_clock_seconds


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

    @pytest.mark.parametrize("field", ["N", "L", "master_seed", "max_chain_length",
                                       "worker_count_hint"])
    @pytest.mark.parametrize("value", [20.0, 20.5, True, "20"])
    def test_integer_fields_take_ints_only(self, field, value):
        with pytest.raises(ConfigError, match=f"RunConfig.{field} must be an integer"):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("make", [
        lambda: SamplerConfig(n_leapfrog=10.0),
        lambda: SamplerConfig(vi_iterations=False),
        lambda: SamplerConfig(warmup=2.5),
        lambda: SamplerConfig(step_size=math.inf),
        lambda: SamplerConfig(vi_learning_rate=math.nan),
        lambda: Corruption(kind="shift", amount=-math.inf, target_quantity="mu"),
        lambda: Corruption(amount=True),
    ])
    def test_sampler_and_corruption_numbers(self, make):
        with pytest.raises(InvalidSpec, match="must be an integer|must be a finite number"):
            make()

    @pytest.mark.parametrize("model", [5, "normal-normal", ["kind", "normal-normal"], None])
    def test_model_that_is_not_an_object_rejected_when_built(self, model):
        with pytest.raises(ConfigError, match="RunConfig.model must be a JSON object"):
            RunConfig(model=model)

    @pytest.mark.parametrize("model, message", [
        ({"kind": "nope"}, "unknown model kind 'nope'"),
        ({"kind": "normal-normal", "prior_sd": -1}, "NormalNormalSpec.prior_sd must be")])
    def test_model_spec_its_model_refuses_rejected_when_built(self, model, message):
        """A config made in Python is checked against its model as a parsed one is."""
        with pytest.raises(ConfigError, match=f"^invalid model spec: .*{message}"):
            RunConfig(model=model)

    @pytest.mark.parametrize("thinning", ["off", "algorithm-2"])
    @pytest.mark.parametrize("field, value, rule", [
        ("sampler", 5, "a SamplerConfig"), ("sampler", {"kind": "hmc"}, "a SamplerConfig"),
        ("corruption", "x", "a Corruption"), ("corruption", None, "a Corruption")])
    def test_sampler_and_corruption_of_another_type_rejected_when_built(self, field, value,
                                                                         rule, thinning):
        with pytest.raises(ConfigError, match=f"RunConfig.{field} must be {rule}, got"):
            RunConfig(N=3, thinning=thinning, **{field: value})

    def test_parse_errors_are_wrapped_once(self):
        d = config_to_dict(exact_config())
        d["sampler"]["warmup"] = -1
        with pytest.raises(ConfigError) as caught:
            config_from_dict(d)
        assert str(caught.value) == "invalid sampler: SamplerConfig.warmup must be an " \
                                    "integer in [0, 4194304], got -1"
        d = {**config_to_dict(exact_config()), "N": 0}
        with pytest.raises(ConfigError) as caught:
            config_from_dict(d)
        assert str(caught.value) == "RunConfig.N must be an integer in [1, 4294967296], got 0"
        d = config_to_dict(exact_config())
        d["model"]["n_obs"] = 0
        with pytest.raises(ConfigError) as caught:
            config_from_dict(d)
        assert str(caught.value) == "invalid model spec: NormalNormalSpec.n_obs must be an " \
                                    "integer in [1, 1048576], got 0"

    @pytest.mark.parametrize("kind", [[], {}, 1, None])
    def test_model_kind_that_is_not_a_name_is_a_config_error(self, kind):
        d = config_to_dict(exact_config())
        d["model"]["kind"] = kind
        with pytest.raises(ConfigError, match="unknown model kind"):
            config_from_dict(d)


class TestRunSbc:
    def test_single_replication_yields_one_record_per_quantity(self):
        artifact = run(exact_config(N=1))
        assert artifact.quantities == ("mu",)
        assert artifact.ranks.shape == (1, 1)
        assert np.isnan(artifact.ess).all()
        assert np.isnan(artifact.ess_columns(["mu"])).all()

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

    def test_config_failing_every_replication_rejected(self):
        """Such a config raises ConfigError when it is made, parsed or built in Python, so it
        never reaches `run`."""
        shift = {"kind": "shift", "amount": 1.0}
        doomed = [
            ({"kind": "normal-normal"}, "exact-conjugate",
             {**shift, "target_quantity": "not-a-parameter"}, "not a parameter"),
            ({"kind": "lin-reg"}, "exact-conjugate", {}, "closed-form posterior"),
            # theta[1] is a quantity of non-centered eight schools, not a parameter.
            ({"kind": "eight-schools", "parameterization": "non-centered"}, "hmc",
             {**shift, "target_quantity": "theta[1]"}, "not a parameter"),
        ]
        for model, sampler, corruption, message in doomed:
            d = {"model": model, "sampler": {"kind": sampler}, "corruption": corruption,
                 "N": 100, "L": 9}
            with pytest.raises(ConfigError, match=message):
                config_from_dict(d)
            with pytest.raises(ConfigError, match=message):
                RunConfig(model=model, sampler=SamplerConfig(kind=sampler),
                          corruption=Corruption(**corruption), N=100, L=9)

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
        assert {"ess_min", "cap_hit"} <= artifact.health.keys()
        assert all(len(column) == 20 for column in artifact.health.values())

    def test_hmc_algorithm_2_ranks_are_uniform(self):
        """Lockstep HMC with reruns and thinning stays calibrated on a conjugate model."""
        config = RunConfig(
            model={"kind": "normal-normal"}, sampler=SamplerConfig(kind="hmc"),
            N=200, L=19, thinning="algorithm-2", master_seed=71)
        artifact = run(config)
        assert artifact.failures == ()
        assert (artifact.chain_lengths > 10 * config.L).any()  # some replications reran
        ranks = artifact.ranks_for("mu")
        band = histogram_band(ranks.size, config.L, default_bins(config.N, config.L))
        counts = build_histogram(ranks, band)
        stat, dof = chi_square_uniformity(counts)
        assert dof == 9
        assert stat < 27.877  # chi-square(9) upper 0.001 quantile
        assert classify_shape(counts, band, float(np.mean(ranks / config.L))) == "uniform"

    def test_first_chain_respects_max_chain_length(self):
        """The first chain has min(10 * L, max_chain_length) draws: no chain runs past the
        cap, and rows that fall short of L report it."""
        config = RunConfig(
            model={"kind": "eight-schools", "parameterization": "non-centered"},
            sampler=SamplerConfig(kind="hmc"), N=6, L=19, thinning="algorithm-2",
            master_seed=3, max_chain_length=40)
        artifact = run(config)
        assert artifact.failures == ()
        np.testing.assert_array_equal(artifact.chain_lengths, np.full(6, 40))
        health = artifact.health
        np.testing.assert_array_equal(health["cap_hit"], health["still_short"])
        np.testing.assert_array_equal(health["cap_hit"], health["ess_min"] < config.L)
        assert health["cap_hit"].any()

    def test_cap_hit_reported_for_sticky_chain(self):
        config = RunConfig(
            model={"kind": "normal-normal"},
            sampler=SamplerConfig(kind="rw-metropolis", step_size=1e-4, warmup=0),
            N=3, L=99, thinning="algorithm-2", master_seed=22, max_chain_length=2000)
        artifact = run(config)
        assert artifact.health["cap_hit"].any()
        assert artifact.health["still_short"].any()


# Runs that must not depend on how replications are split into lockstep
# blocks or spread over workers: the exact sampler, plain and corrupted
# (streams shared across blocks, and ranks), an HMC fit, Algorithm 2 with
# reruns of several planned lengths (ragged rerun groups), and mean-field VI.
# The Algorithm-2 case walks with a fixed step about a fourteenth of the
# posterior sd (warmup 0, so it is never adapted): every row's first chain
# falls far short of L effective draws, so every row reruns, each at a length
# set by its own ESS.
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
        sampler=SamplerConfig(kind="rw-metropolis", step_size=0.05, warmup=0),
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
        monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)  # a real 2-process pool
        for block in (1, 7, config.N):
            monkeypatch.setattr(runner, "BLOCK_SIZE", block)
            for workers in (1, 2):
                out = tmp_path / f"b{block}-w{workers}"
                files[block, workers] = saved_files(
                    dataclasses.replace(config, worker_count_hint=workers), out)
        if config.sampler.kind != "exact-conjugate":
            # Lockstep groups of one row, and of two or three rows (a row's noise
            # holds 69 * 3, 190 * 1 and 300 * 1 floats in the first fits here).
            for floats in (1, 700):
                monkeypatch.setattr(runner, "BLOCK_FLOATS", floats)
                for workers in (1, 2):
                    out = tmp_path / f"f{floats}-w{workers}"
                    files[f"floats={floats}", workers] = saved_files(
                        dataclasses.replace(config, worker_count_hint=workers), out)
        reference = files[config.N, 1]
        assert reference[1].count(b'"replication"') == config.N  # per-row diagnostics
        for key, got in files.items():
            assert got == reference, key
        if config.thinning == "algorithm-2":
            lengths = load_artifact(tmp_path / f"b{config.N}-w1").chain_lengths
            assert len(set(lengths[lengths > 10 * config.L].tolist())) >= 2


    def test_worker_counts_give_identical_ranks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)  # 4 workers get 2 processes
        base = exact_config(N=48, L=19, seed=31)
        runs = {}
        for workers in (1, 4):
            config = dataclasses.replace(base, worker_count_hint=workers)
            out = tmp_path / f"w{workers}"
            save_artifact(run(config), out)
            runs[workers] = (out / "ranks.csv").read_bytes()
        assert runs[1] == runs[4]

    @pytest.mark.parametrize("cpus, N, pool, chunk_sizes", [
        # N=10 over 7 workers makes 5 chunks of 2 replications, so the pool gets 5 workers.
        (64, 10, 5, [2] * 5),
        # With 2 CPUs, 7 workers are 2: N=300 makes chunks of a full block.
        (2, 300, 2, [128, 128, 44]),
    ], ids=["chunk-bound", "cpu-bound"])
    def test_pool_has_no_more_workers_than_chunks(self, monkeypatch, cpus, N, pool,
                                                  chunk_sizes):
        pools, chunks = [], []

        class InProcessPool:
            """Records its worker count and chunk sizes and maps in this process."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, ranges):
                chunks.extend(len(r) for r in ranges)
                return map(fn, ranges)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
        pooled = run(exact_config(N=N, worker_count_hint=7))
        assert (pools, chunks) == ([pool], chunk_sizes)
        assert_same_table(pooled, run(exact_config(N=N)))

    def test_one_usable_cpu_takes_the_serial_path(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda **kwargs: pytest.fail("a pool was started"))
        monkeypatch.setattr(runner, "_usable_cpus", lambda: 1)
        assert_same_table(run(exact_config(N=10, worker_count_hint=7)),
                          run(exact_config(N=10)))

    def test_usable_cpus_counts_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        assert runner._usable_cpus() == 3
        monkeypatch.delattr(runner.os, "sched_getaffinity")
        monkeypatch.setattr(runner.os, "cpu_count", lambda: None)
        assert runner._usable_cpus() == 1

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
        assert_same_health(loaded, artifact)
        assert loaded.wall_clock_seconds == artifact.wall_clock_seconds

    def test_health_columns_are_read_only(self, tmp_path):
        """Each health column of a run, and of the artifact loaded back, is read-only, as
        the rank table is."""
        config = RunConfig(model={"kind": "normal-normal"},
                           sampler=SamplerConfig(kind="hmc", warmup=20), N=5, L=9,
                           thinning="algorithm-2", master_seed=3)
        artifact = run(config)
        loaded = load_artifact(save_artifact(artifact, tmp_path / "run"))
        assert sorted(loaded.health) == ["acceptance_rate", "cap_hit", "divergences", "ess_min",
                                         "step_size", "still_short"]
        for health in (artifact.health, loaded.health):
            for column in health.values():
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = column[1]

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
        assert_resaved_at_1_1(load_artifact(out), tmp_path / "resaved")
        rewrite_version("2.0")
        with pytest.raises(FormatVersionMismatch):
            load_artifact(out)

    def test_missing_directory_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_artifact(tmp_path / "nope")

    def test_each_file_is_read_once(self, tmp_path, monkeypatch):
        """load_artifact opens the writer's three files alone, each once, and parses the
        bytes whose checksums it checked."""
        out = save_artifact(run(exact_config(N=10)), tmp_path / "run")
        reads, depth = collections.Counter(), [0]
        for method in ("read_bytes", "read_text", "open"):
            def counted(path, *args, _original=getattr(Path, method), **kwargs):
                # read_bytes and read_text call open: count the outermost call alone.
                reads[path.name] += depth[0] == 0
                depth[0] += 1
                try:
                    return _original(path, *args, **kwargs)
                finally:
                    depth[0] -= 1
            monkeypatch.setattr(Path, method, counted)
        load_artifact(out)
        assert reads == {"meta.json": 1, "ranks.csv": 1, "sha256sums.txt": 1}

    @pytest.mark.parametrize("name, shape", [("exact-nn", (20, 1)),
                                             ("hmc-8s-nc-alg2", (5, 18))])
    def test_artifacts_written_by_the_format_1_0_writer_load(self, tmp_path, capsys, name,
                                                             shape):
        """Artifacts that the first release's ``sbc run`` wrote: exact normal-normal, and
        non-centered eight schools under HMC with Algorithm 2."""
        fixture = Path(__file__).parent / "data" / "format-1.0" / name
        assert json.loads((fixture / "meta.json").read_text())["format_version"] == "1.0"
        artifact = load_artifact(fixture)
        assert artifact.ranks.shape == shape
        assert main(["report", "--run", str(fixture), "--out", str(tmp_path / "r")]) == 0
        capsys.readouterr()
        assert_resaved_at_1_1(artifact, tmp_path / "resaved")
        # Re-saved, it is the fixture at format 1.1, less output_path, byte for byte.
        meta = json.loads((fixture / "meta.json").read_text())
        meta["format_version"] = "1.1"
        del meta["config"]["output_path"]
        resaved = tmp_path / "resaved"
        assert (resaved / "meta.json").read_bytes() == (
            json.dumps(meta, indent=2, sort_keys=True) + "\n").encode()
        assert (resaved / "ranks.csv").read_bytes() == (fixture / "ranks.csv").read_bytes()

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


    @pytest.mark.parametrize("line", ["", "deadbeef  ../../../../etc/hostname",
                                      f"{'0' * 64}  /etc/hostname", f"{'0' * 64}  ..",
                                      f"{'0' * 64} meta.json", f"{'A' * 64}  meta.json"],
                             ids=["blank", "outside-path", "absolute-path", "parent-dir",
                                  "one-space", "uppercase-digest"])
    def test_malformed_checksum_line_rejected(self, tmp_path, monkeypatch, line):
        """Each line is a 64-hex-digit digest, two spaces and a plain file name; any other
        line is named in the error, and no file outside the artifact is opened."""
        out = save_artifact(run(exact_config(N=10)), tmp_path / "run")
        sums = out / "sha256sums.txt"
        sums.write_text(sums.read_text() + line + "\n")
        opened = []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda self: opened.append(self) or read_bytes(self))
        with pytest.raises(InvalidArtifact, match="sha256sums.txt") as caught:
            load_artifact(out)
        assert repr(line) in str(caught.value)
        assert main(["report", "--run", str(out), "--out", str(tmp_path / "report")]) == 4
        assert all(path.parent == out for path in opened)


    @pytest.mark.parametrize("listing", ["stale-then-right", "right-twice"])
    def test_file_listed_twice_rejected(self, tmp_path, listing):
        """A meta.json edited after the run and listed under its old digest, then its new
        one, is rejected, and so is a name listed twice under one digest."""
        out = save_artifact(run(exact_config(N=10)), tmp_path / "run")
        stale = hashlib.sha256((out / "meta.json").read_bytes()).hexdigest()
        meta = json.loads((out / "meta.json").read_text())
        meta["wall_clock_seconds"] += 1.0
        rewrite(out, "meta.json", (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())
        sums = out / "sha256sums.txt"
        lines = sums.read_text().splitlines()
        right = next(line for line in lines if line.endswith("  meta.json"))
        extra = f"{stale}  meta.json" if listing == "stale-then-right" else right
        sums.write_text("\n".join([extra, *lines]) + "\n")
        with pytest.raises(ChecksumMismatch, match="^sha256sums.txt is not what the writer "
                                                   "writes: line [12] is '[0-9a-f]{64}  meta.json'"):
            load_artifact(out)
        assert main(["report", "--run", str(out), "--out", str(tmp_path / "report")]) == 4


    @pytest.mark.parametrize("message, damage", [
        ("ranks.csv does not parse: ", lambda out: rewrite(
            out, "ranks.csv", b"\xff\xfe" + (out / "ranks.csv").read_bytes())),
        ("sha256sums.txt is not what the writer writes: line 3 is '\ufffd', not the end of the file",
         lambda out: (out / "sha256sums.txt").write_bytes(
             (out / "sha256sums.txt").read_bytes() + b"\xff\n")),
        ("ranks.csv does not parse: ", lambda out: rewrite(
            out, "ranks.csv", (out / "ranks.csv").read_bytes() + b"x" * 200_000 + b"\n")),
    ], ids=["ranks-not-utf-8", "sums-not-utf-8", "ranks-field-past-the-csv-limit"])
    def test_file_that_does_not_parse_rejected(self, tmp_path, capsys, message, damage):
        """A file that is not UTF-8, or a ranks.csv field longer than the csv module reads,
        is a damaged artifact: InvalidArtifact, and `sbc report` exits 4 with one line."""
        out = save_artifact(run(exact_config(N=5, L=9)), tmp_path / "run")
        damage(out)
        with pytest.raises(InvalidArtifact, match=f"^{message}"):
            load_artifact(out)
        assert main(["report", "--run", str(out), "--out", str(tmp_path / "report")]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"sbc: report error: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name", ["meta.json", "ranks.csv", "sha256sums.txt"])
    def test_symlinked_file_rejected(self, tmp_path, capsys, name):
        """A file that links to one outside the artifact is not read, though its bytes and
        checksum are right."""
        out = save_artifact(run(exact_config(N=5, L=9)), tmp_path / "run")
        elsewhere = tmp_path / f"elsewhere-{name}"
        (out / name).rename(elsewhere)
        (out / name).symlink_to(elsewhere)
        with pytest.raises(InvalidArtifact, match=f"^{name} is a symbolic link"):
            load_artifact(out)
        assert main(["report", "--run", str(out), "--out", str(tmp_path / "report")]) == 4
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("damage, error, message", [
        ("sub-listed-and-missing", ChecksumMismatch, "sha256sums.txt is not what the writer "
                                                     "writes: line 3 is '0{64}  sub', not the end of the "
                                                     "file"),
        ("sub-listed-and-a-directory", ChecksumMismatch, "sha256sums.txt is not what the "
                                                         "writer writes: line 3 is '0{64}  sub', not the "
                                                         "end of the file"),
        ("no-sha256sums", InvalidArtifact, "sha256sums.txt is missing or not a regular file"),
        ("ranks-a-directory", InvalidArtifact, "ranks.csv is missing or not a regular file"),
    ], ids=["sub-listed-and-missing", "sub-listed-and-a-directory", "no-sha256sums",
            "ranks-a-directory"])
    def test_files_other_than_the_writers_rejected(self, tmp_path, capsys, damage, error,
                                                   message):
        """The loader reads the writer's three files alone: a listed file it does not
        write, missing or a directory, and a missing or non-regular file of its own are a
        damaged artifact, and `sbc report` exits 4 with one line."""
        out = save_artifact(run(exact_config(N=5, L=9)), tmp_path / "run")
        sums = out / "sha256sums.txt"
        if damage == "no-sha256sums":
            sums.unlink()
        elif damage == "ranks-a-directory":
            (out / "ranks.csv").unlink()
            (out / "ranks.csv").mkdir()
        else:
            sums.write_text(sums.read_text() + f"{'0' * 64}  sub\n")
            if damage == "sub-listed-and-a-directory":
                (out / "sub").mkdir()
        with pytest.raises(error, match=f"^{message}"):
            load_artifact(out)
        assert main(["report", "--run", str(out), "--out", str(tmp_path / "report")]) == 4
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("name, error", [("ranks.csv", InvalidArtifact),
                                             ("sha256sums.txt", ChecksumMismatch)])
    def test_crlf_line_endings_rejected(self, tmp_path, capsys, name, error):
        """The writer ends each line with LF alone; a file with CRLF endings (ranks.csv with
        its checksum recomputed) is refused at its first line."""
        out = save_artifact(run(exact_config(N=5, L=9)), tmp_path / "run")
        crlf = (out / name).read_bytes().replace(b"\n", b"\r\n")
        if name == "ranks.csv":
            rewrite(out, name, crlf)
        else:
            (out / name).write_bytes(crlf)
        with pytest.raises(error, match=rf"^{name} is not what the writer writes: line 1 is "
                                        r"'.*\\r', not"):
            load_artifact(out)
        assert main(["report", "--run", str(out), "--out", str(tmp_path / "report")]) == 4
        assert capsys.readouterr().err.count("\n") == 1


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


    @pytest.mark.parametrize("cell, value", [
        (4, "-5.0"), (4, "0.0"), (4, "inf"), (4, "nan"), (5, "0"), (5, "14"),
    ], ids=["n_eff-negative", "n_eff-zero", "n_eff-inf", "n_eff-nan", "chain-length-0",
            "chain-length-below-L"])
    def test_impossible_n_eff_or_chain_length_rejected(self, tmp_path, capsys, cell, value):
        """The writer writes an empty n_eff or a finite positive one, and every raw chain
        holds at least L draws; an HMC artifact (L=15) with another value exits 4."""
        config = RunConfig(model={"kind": "normal-normal"},
                           sampler=SamplerConfig(kind="hmc", warmup=20), N=40, L=15,
                           master_seed=5)
        out = save_artifact(run(config), tmp_path / "run")
        assert np.isfinite(load_artifact(out).ess).all()
        header, *rows = (out / "ranks.csv").read_text().splitlines()
        first = rows[0].split(",")
        first[cell] = value
        rows[0] = ",".join(first)
        rewrite(out, "ranks.csv", "\n".join([header, *rows, ""]).encode())
        with pytest.raises(InvalidArtifact, match="n_eff" if cell == 4 else "raw_chain_length"):
            load_artifact(out)
        assert main(["report", "--run", str(out), "--out", str(tmp_path / "report")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("sbc: report error: ranks.csv") and err.count("\n") == 1

    @pytest.mark.parametrize("cell, edit, message", [
        (2, lambda rank: "0" + rank, "is not what the writer writes: line 2 is '0,mu,0"),
        (4, lambda n_eff: "3.08e1", "is not what the writer writes: line 2 is "
                                    "'0,mu,[0-9],9,3.08e1,9', not '0,mu,[0-9],9,30.8,9'"),
        (2, lambda rank: "1" + "0" * 20, "Python int too large"),
        (0, lambda replication: "1" + "0" * 20, "is not what the writer writes: line 2"),
        (5, lambda length: "1" + "0" * 20, "Python int too large"),
    ], ids=["rank-05", "n_eff-3.08e1", "rank-21-digits", "replication-21-digits",
            "chain-length-21-digits"])
    def test_value_not_written_as_the_writer_writes_it_rejected(self, tmp_path, capsys,
                                                                cell, edit, message):
        """A value that parses but is not written as the writer writes it (a rank with a
        leading zero, an n_eff of 30.8 in exponent form), and an integer beyond int64, are
        refused: InvalidArtifact, and `sbc report` exits 4 with one line."""
        artifact = dataclasses.replace(run(exact_config(N=5, L=9)), ess=np.full((5, 1), 30.8))
        out = save_artifact(artifact, tmp_path / "run")
        assert_same_table(load_artifact(out), artifact)
        header, *rows = (out / "ranks.csv").read_text().splitlines()
        first = rows[0].split(",")
        first[cell] = edit(first[cell])
        rows[0] = ",".join(first)
        rewrite(out, "ranks.csv", "\n".join([header, *rows, ""]).encode())
        with pytest.raises(InvalidArtifact, match=f"^ranks.csv.*{message}"):
            load_artifact(out)
        assert main(["report", "--run", str(out), "--out", str(tmp_path / "report")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("sbc: report error: ranks.csv") and err.count("\n") == 1


# Marks a meta.json key that a case deletes.
DELETED = object()

# A value the writer could write for each key of a diagnostics entry.
WRITTEN = {"acceptance_rate": 0.5, "divergences": 0, "step_size": 0.25, "cap_hit": False,
           "still_short": False, "ess_min": 50.0}


class TestMetaValidation:
    """meta.json is outside input too: its shape, config, failures, diagnostics and wall
    clock (N=20)."""

    @pytest.mark.parametrize("key, value", [
        ("config", 5),
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
        ("diagnostics", [{"replication": i} for i in [1, 0, *range(2, 20)]]),
        ("diagnostics", [{"replication": 0.0}] + [{"replication": i} for i in range(1, 20)]),
        ("failures", DELETED),
        ("diagnostics", DELETED),
        ("wall_clock_seconds", DELETED),
        ("wall_clock_seconds", "soon"),
        ("wall_clock_seconds", -1.0),
    ], ids=["config-not-object", "failure-not-object", "failures-null", "diagnostics-null",
            "replication-string", "replication-bool", "replication-N", "replication-negative",
            "reason-not-string", "replication-twice", "diagnostics-string",
            "diagnostics-one-short", "diagnostic-not-object", "diagnostics-swapped",
            "diagnostic-replication-float", "failures-deleted",
            "diagnostics-deleted", "wall-clock-deleted", "wall-clock-string",
            "wall-clock-negative"])
    def test_bad_list_rejected(self, tmp_path, key, value):
        out = save_artifact(run(exact_config(N=20)), tmp_path / "run")
        meta = json.loads((out / "meta.json").read_text())
        if value is DELETED:
            del meta[key]
        else:
            meta[key] = value
        rewrite(out, "meta.json", (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())
        with pytest.raises(InvalidArtifact, match="meta.json") as caught:
            load_artifact(out)
        if value is DELETED or key == "wall_clock_seconds":
            assert key in str(caught.value)
        assert main(["report", "--run", str(out), "--out", str(tmp_path / "report")]) == 4

    def test_diagnostics_must_name_the_completed_replications(self, tmp_path, capsys):
        """Entry i of diagnostics belongs to the i-th completed replication."""
        out = save_artifact(run(exact_config(N=5)), tmp_path / "run")
        meta = json.loads((out / "meta.json").read_text())
        meta["diagnostics"] = [{"replication": 999, "acceptance_rate": "bogus"}] * 5
        rewrite(out, "meta.json", (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())
        with pytest.raises(InvalidArtifact, match="meta.json: diagnostics"):
            load_artifact(out)
        assert main(["report", "--run", str(out), "--out", str(tmp_path / "report")]) == 4

    @pytest.mark.parametrize("value", [7, 5.0, True, DELETED],
                             ids=["seven", "float", "bool", "deleted"])
    def test_n_records_must_count_the_rank_table(self, tmp_path, value):
        """n_records is the rank table's replications times quantities: 5 here."""
        out = save_artifact(run(exact_config(N=5)), tmp_path / "run")
        meta = json.loads((out / "meta.json").read_text())
        assert meta["n_records"] == 5
        if value is DELETED:
            del meta["n_records"]
        else:
            meta["n_records"] = value
        rewrite(out, "meta.json", (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())
        with pytest.raises(InvalidArtifact, match="meta.json.*n_records"):
            load_artifact(out)
        assert main(["report", "--run", str(out), "--out", str(tmp_path / "report")]) == 4

    @pytest.mark.parametrize("key, value", [
        ("acceptance_rate", "bogus"), ("acceptance_rate", 1.5), ("acceptance_rate", -0.25),
        ("acceptance_rate", 1), ("acceptance_rate", math.nan),
        ("divergences", -1), ("divergences", 2.0), ("divergences", True),
        ("divergences", 2**63), ("divergences", 2**70),
        ("step_size", -0.5), ("step_size", math.inf), ("step_size", "0.1"), ("step_size", 3),
        ("cap_hit", 1), ("cap_hit", "true"), ("still_short", 0), ("still_short", None),
        ("ess_min", 0.0), ("ess_min", -3.0), ("ess_min", math.nan), ("ess_min", False),
        ("ess_min", 2),
    ])
    def test_impossible_diagnostic_value_rejected(self, tmp_path, capsys, key, value):
        """Each value the writer puts in a diagnostics entry is checked on load: one JSON
        type per key, so that the values make a column (an int is not a float, and
        divergences fit int64), and within the key's bounds.  Every entry carries ``key``;
        entry 3's value is the impossible one."""
        out = save_artifact(run(exact_config(N=5)), tmp_path / "run")
        meta = json.loads((out / "meta.json").read_text())
        for entry in meta["diagnostics"]:
            entry[key] = WRITTEN[key]
        rewrite(out, "meta.json", (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())
        assert load_artifact(out).health[key].tolist() == [WRITTEN[key]] * 5
        meta["diagnostics"][3][key] = value
        rewrite(out, "meta.json", (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())
        with pytest.raises(InvalidArtifact, match=f"replication 3: {key} must be"):
            load_artifact(out)
        assert main(["report", "--run", str(out), "--out", str(tmp_path / "report")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("sbc: report error: meta.json: diagnostics") and err.count("\n") == 1

    def test_edge_diagnostic_values_load_as_columns(self, tmp_path):
        """Values at the edges of what the writer gives load into columns of one type each,
        and the artifact saves back to the same bytes."""
        out = save_artifact(run(exact_config(N=5)), tmp_path / "run")
        meta = json.loads((out / "meta.json").read_text())
        edges = {"acceptance_rate": [0.0, 1.0], "divergences": [0, 10**6],
                 "step_size": [0.0, 3.0], "cap_hit": [False, True],
                 "still_short": [True, False], "ess_min": [1e-300, 2.0]}
        for i, entry in enumerate(meta["diagnostics"]):
            entry.update({key: values[i % 2] for key, values in edges.items()})
        blob = (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode()
        rewrite(out, "meta.json", blob)
        loaded = load_artifact(out)
        assert {key: column.tolist() for key, column in loaded.health.items()} == {
            key: [values[i % 2] for i in range(5)] for key, values in edges.items()}
        assert [loaded.health[key].dtype for key in edges] == [
            np.float64, np.int64, np.float64, np.bool_, np.bool_, np.float64]
        assert (save_artifact(loaded, tmp_path / "resaved") / "meta.json").read_bytes() == blob

    @pytest.mark.parametrize("edit, message", [
        (lambda entries: entries[0].update(elbo=-1.5), "replication 0: 'elbo' is not a measure"),
        (lambda entries: entries[2].update(elbo=-1.5),
         r"replication 2: keys \['divergences', 'elbo', 'replication'\] are not those of "
         r"replication 0, \['divergences', 'replication'\]"),
        (lambda entries: entries[3].pop("divergences"),
         r"replication 3: keys \['replication'\] are not those of replication 0"),
        (lambda entries: entries[0].pop("divergences"),
         r"replication 1: keys \['divergences', 'replication'\] are not those of "
         r"replication 0, \['replication'\]"),
    ], ids=["unknown-key", "unknown-key-later", "key-missing", "key-missing-from-first"])
    def test_diagnostics_keys_must_be_the_writers(self, tmp_path, capsys, edit, message):
        """Each diagnostics entry carries the first entry's keys, each one a key the writer
        writes: so the entries make one column per key."""
        out = save_artifact(run(exact_config(N=5)), tmp_path / "run")
        meta = json.loads((out / "meta.json").read_text())
        for entry in meta["diagnostics"]:
            entry["divergences"] = 0
        edit(meta["diagnostics"])
        rewrite(out, "meta.json", (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())
        with pytest.raises(InvalidArtifact, match=f"^meta.json: diagnostics of {message}"):
            load_artifact(out)
        assert main(["report", "--run", str(out), "--out", str(tmp_path / "report")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("sbc: report error: meta.json: diagnostics") and err.count("\n") == 1

    def test_diagnostics_must_not_name_a_failed_replication(self, tmp_path):
        """N - len(failures) entries, ascending and in [0, N), none of them failed, are the
        completed replications; here entry 3 names the failed replication 3."""
        out = save_artifact(run(exact_config(N=20)), tmp_path / "run")
        meta = json.loads((out / "meta.json").read_text())
        meta["failures"] = [{"replication": 3, "reason": "x"}]
        del meta["diagnostics"][19]
        rewrite(out, "meta.json", (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())
        with pytest.raises(InvalidArtifact, match="meta.json: diagnostics must be a list of 19"):
            load_artifact(out)

    def test_a_huge_N_is_refused_without_memory_that_grows_with_it(self, tmp_path):
        """The completed replications are read from the diagnostics, not listed from
        range(N): a meta.json that claims N = 2,000,000 beside three completed rows is
        refused within 1 MB."""
        out = save_artifact(run(exact_config(N=3)), tmp_path / "run")
        meta = json.loads((out / "meta.json").read_text())
        meta["config"]["N"] = 2_000_000
        rewrite(out, "meta.json", (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())
        tracemalloc.start()
        try:
            with pytest.raises(InvalidArtifact, match="a list of 2000000 objects"):
                load_artifact(out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_an_L_above_its_bound_is_refused_before_the_report(self, tmp_path, capsys,
                                                              monkeypatch):
        """An artifact whose meta.json and ranks.csv agree on L = 10**12 is refused on
        load, so `sbc report` exits 4 before it bins anything."""
        out = save_artifact(run(exact_config(N=3)), tmp_path / "run")
        meta = json.loads((out / "meta.json").read_text())
        meta["config"]["L"] = meta["config"]["max_chain_length"] = 10**12
        rewrite(out, "meta.json", (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())
        header, *rows = (out / "ranks.csv").read_text().splitlines()
        rows = [row.split(",") for row in rows]
        for row in rows:
            row[3] = row[5] = str(10**12)
        rewrite(out, "ranks.csv", "\n".join([header, *map(",".join, rows), ""]).encode())
        with pytest.raises(ConfigError, match=r"RunConfig\.L must be an integer in "
                                              r"\[1, 1048576\], got 1000000000000"):
            load_artifact(out)
        monkeypatch.setattr(report, "write_report", lambda *args: pytest.fail("report ran"))
        assert main(["report", "--run", str(out), "--out", str(tmp_path / "report")]) == 4
        assert capsys.readouterr().err.startswith("sbc: report error: RunConfig.L must be")

    def test_meta_not_an_object_rejected(self, tmp_path, capsys):
        out = save_artifact(run(exact_config(N=20)), tmp_path / "run")
        rewrite(out, "meta.json", b"[]\n")
        with pytest.raises(InvalidArtifact, match="meta.json"):
            load_artifact(out)
        assert main(["report", "--run", str(out), "--out", str(tmp_path / "report")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("sbc: report error: meta.json") and err.count("\n") == 1


_names = st.lists(st.text(alphabet="abz_[],.\"' 019", min_size=1, max_size=6),
                  min_size=1, max_size=4, unique=True)


HEALTH_DTYPES = {"acceptance_rate": np.float64, "divergences": np.int64, "step_size": np.float64,
                 "cap_hit": np.bool_, "still_short": np.bool_, "ess_min": np.float64}

# Values the loader accepts for each health measure.
VALID_HEALTH = {
    "acceptance_rate": st.floats(0, 1), "divergences": st.integers(0, 2**63 - 1),
    "step_size": st.floats(0, 1e308), "cap_hit": st.booleans(), "still_short": st.booleans(),
    "ess_min": st.floats(5e-324, 1e308),
}


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
    health = {key: np.array(draw(st.lists(VALID_HEALTH[key], min_size=n, max_size=n)),
                            dtype=HEALTH_DTYPES[key])
              for key in draw(st.sets(st.sampled_from(sorted(VALID_HEALTH))))}
    return RunArtifact(
        config=config, quantities=tuple(quantities), replications=np.arange(n),
        ranks=np.reshape(ranks, (n, len(quantities))),
        ess=np.reshape(ess, (n, len(quantities))), chain_lengths=np.array(lengths),
        health=health, failures=(),
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
        assert_same_health(loaded, artifact)
        for name in ("meta.json", "ranks.csv", "sha256sums.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


def meta_json_of_objects(artifact) -> bytes:
    """meta.json as one ``json.dumps`` call writes the artifact with an object per completed
    replication, its index and its value of each health measure: the writer's reference."""
    rows = zip(artifact.replications.tolist(),
               *(column.tolist() for column in artifact.health.values()))
    meta = {
        "format_version": runner.FORMAT_VERSION,
        "config": config_to_dict(artifact.config),
        "failures": list(artifact.failures),
        "diagnostics": [dict(zip(("replication", *artifact.health), row)) for row in rows],
        "wall_clock_seconds": artifact.wall_clock_seconds,
        "n_records": artifact.ranks.size,
    }
    return (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode("utf-8")


def ranks_csv_of_rows(artifact) -> bytes:
    """ranks.csv as ``csv.writer`` writes the rank table's rows: the writer's reference."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["replication", "quantity", "rank", "L", "n_eff", "raw_chain_length"])
    for i, ranks, ess, length in zip(artifact.replications.tolist(), artifact.ranks.tolist(),
                                     artifact.ess.tolist(), artifact.chain_lengths.tolist()):
        writer.writerows([i, name, rank, artifact.L, "" if math.isnan(x) else repr(x), length]
                         for name, rank, x in zip(artifact.quantities, ranks, ess))
    return buf.getvalue().encode("utf-8")


# Any float, with the writer's edge cases: a negative zero, the least subnormal and a
# value near the largest float.
_any_float = st.one_of(st.sampled_from([-0.0, 5e-324, 1e308]), st.floats())
_ANY_HEALTH = {"acceptance_rate": _any_float, "step_size": _any_float, "ess_min": _any_float,
                  "divergences": st.integers(0, 2**63 - 1), "cap_hit": st.booleans(),
                  "still_short": st.booleans()}
# Text that needs escaping in JSON: quotes, backslashes, control characters, non-ASCII.
_awkward_text = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x7f%\u00e9\u2603\U0001d11e'),
                                  st.characters()), max_size=12)


@st.composite
def written_artifacts(draw):
    """Artifacts as a run could hold them, with values that stress both writers."""
    n = draw(st.integers(0, 6))
    quantities = draw(st.lists(st.text(alphabet='ab,"\' \r\n%', min_size=1, max_size=5),
                               min_size=1, max_size=3, unique=True))
    q, L = len(quantities), draw(st.integers(1, 2000))
    health = {key: np.array(draw(st.lists(_ANY_HEALTH[key], min_size=n, max_size=n)),
                            dtype=HEALTH_DTYPES[key])
              for key in draw(st.sets(st.sampled_from(sorted(_ANY_HEALTH))))}
    ess = draw(st.lists(st.one_of(st.just(math.nan), _any_float), min_size=n * q,
                        max_size=n * q))
    failures = draw(st.lists(st.fixed_dictionaries(
        {"replication": st.integers(0, 2**32), "reason": _awkward_text}), max_size=3))
    return RunArtifact(
        config=RunConfig(N=n + len(failures) or 1, L=L), quantities=tuple(quantities),
        replications=np.array(sorted(draw(st.sets(st.integers(0, 2**32), min_size=n,
                                                  max_size=n))), dtype=np.int64),
        ranks=np.array(draw(st.lists(st.integers(0, L), min_size=n * q, max_size=n * q)),
                       dtype=np.int64).reshape(n, q),
        ess=np.array(ess).reshape(n, q),
        chain_lengths=np.array(draw(st.lists(st.integers(L, 10**6), min_size=n, max_size=n)),
                               dtype=np.int64),
        health=health, failures=tuple(failures), wall_clock_seconds=draw(_any_float))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(written_artifacts())
def test_writers_write_what_json_and_csv_write(artifact):
    """The writers fill templates from columns; their bytes are what ``json.dumps`` writes
    for the artifact as per-replication objects and what ``csv.writer`` writes for its
    rows."""
    assert runner._meta_json_bytes(artifact) == meta_json_of_objects(artifact)
    assert runner._ranks_csv_bytes(artifact) == ranks_csv_of_rows(artifact)


@functools.cache
def fuzz_base() -> dict[str, bytes]:
    """The files of a small saved artifact, with a fixed wall clock so they never vary."""
    artifact = dataclasses.replace(run(exact_config(N=5, L=9)), wall_clock_seconds=1.0)
    with tempfile.TemporaryDirectory() as tmp:
        out = save_artifact(artifact, Path(tmp) / "run")
        return {name: (out / name).read_bytes()
                for name in ("meta.json", "ranks.csv", "sha256sums.txt")}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(name=st.sampled_from(["meta.json", "ranks.csv"]),
       kind=st.sampled_from(["replace", "delete", "insert"]),
       at=st.integers(0, 2**16), byte=st.integers(0, 255), count=st.integers(1, 200_000))
@example(name="ranks.csv", kind="replace", at=0, byte=0xff, count=1)
@example(name="sha256sums.txt", kind="insert", at=0, byte=0xff, count=1)
@example(name="ranks.csv", kind="insert", at=0, byte=ord("x"), count=200_000)
@example(name="ranks.csv", kind="insert", at=56, byte=ord("9"), count=20)  # a 21-digit rank
def test_damaged_artifact_is_loaded_or_refused(name, kind, at, byte, count):
    """One file of a saved artifact has a byte replaced, a span of ``count`` bytes deleted
    or a run of ``count`` copies of one byte inserted at ``at`` (modulo its size), and its
    checksum recomputed, unless it is sha256sums.txt itself.  The loader then returns or
    raises an SbcError, and `sbc report` exits 0 or 4."""
    blob = fuzz_base()[name]
    at %= len(blob) + (kind == "insert")
    if kind == "replace":
        blob = blob[:at] + bytes([byte]) + blob[at + 1:]
    elif kind == "delete":
        blob = blob[:at] + blob[at + count:]
    else:
        blob = blob[:at] + bytes([byte]) * count + blob[at:]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        out.mkdir()
        for listed, content in fuzz_base().items():
            (out / listed).write_bytes(content)
        if name == "sha256sums.txt":
            (out / name).write_bytes(blob)
        else:
            rewrite(out, name, blob)
        try:
            load_artifact(out)
        except SbcError:
            pass
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["report", "--run", str(out), "--out", str(Path(tmp) / "report")])
        assert code in (0, 4)



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
    @pytest.mark.parametrize("block", [1, 7, 128])
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
        assert_same_health(flagged, clean, kept)

    @pytest.mark.parametrize("kind", ["hmc", "meanfield-vi"])
    @pytest.mark.parametrize("N, n_bad", [(50, 1), (100, 2), (100, 3)])
    def test_failure_cap_counts_row_failures(self, monkeypatch, kind, N, n_bad):
        """The run aborts at the failure that passes the cap, even when its block holds
        more: the message counts floor(0.01 * N) + 1 failures and names the first."""
        config = RunConfig(sampler=SamplerConfig(kind=kind, warmup=50, vi_iterations=200),
                           N=N, L=19, master_seed=82)
        ys = observations(config)
        first = int(np.sort(np.argsort(ys)[::-1][:n_bad])[0])
        allowed = math.floor(0.01 * N)
        with pytest.raises(FailureRateExceeded) as caught:
            flagged_run(monkeypatch, config, cut_above(ys, n_bad))
        assert str(caught.value) == (
            f"{allowed + 1} replications failed; at most floor(0.01 * N) = {allowed} failures "
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
    @pytest.mark.parametrize("block", [1, 7, 128])
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
        assert_same_health(flagged, clean, kept)

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
    capped = Quantity("capped", lambda values: np.where(values[..., 0] > cut, np.inf,
                                                        values[..., 0]))
    return dataclasses.replace(model, quantities=model.quantities + (capped,))


class TestNonFiniteQuantity:
    @pytest.mark.parametrize("block", [1, 7, 128])
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


def stuck_model(cut, stuck_fit):
    """The flagged model's normal-normal, except that for a dataset with y > cut the chain
    cannot leave its initial point from that dataset's ``stuck_fit``-th fit on (1: its
    first chain, 2: its Algorithm-2 rerun).  There every density after a target's first
    call, which evaluates the initial points, reads -inf, so random-walk Metropolis rejects
    every move and the model's one quantity is constant over the chain."""
    base = make_flagged_model(math.inf)
    fits = collections.Counter()

    def posterior_factory(observations):
        target = base.posterior_factory(observations)
        ys = observations[:, 0].tolist()
        fits.update(y for y in ys if y > cut)
        stuck = np.array([y > cut and fits[y] >= stuck_fit for y in ys])
        calls = []

        def logpdf(Z):
            logp = target.logpdf(Z)
            if calls:
                logp = np.where(stuck, -np.inf, logp)
            calls.append(len(Z))
            return logp

        return PosteriorTarget(logpdf, target.grad)

    return dataclasses.replace(base, posterior_factory=posterior_factory)


class TestAlgorithm2Floor:
    """A row of an Algorithm-2 block without any ESS estimate fails alone, before its rerun
    or after it, and leaves the other rows' results unchanged."""

    @pytest.mark.parametrize("stuck_fit", [1, 2], ids=["first-chain", "rerun"])
    @pytest.mark.parametrize("block", [1, 7])
    def test_constant_row_fails_alone(self, monkeypatch, block, stuck_fit):
        monkeypatch.setattr(runner, "BLOCK_SIZE", block)
        config = RunConfig(sampler=SamplerConfig(kind="rw-metropolis", step_size=0.2, warmup=0),
                           N=14, L=19, thinning="algorithm-2", master_seed=86)
        ys = observations(config)
        bad = int(np.argmax(ys))
        rows, failures = {}, {}
        for cut in (cut_above(ys, 1), math.inf):
            model = stuck_model(cut, stuck_fit)
            tables = list(runner._run_blocks(config, model, model.quantities, range(config.N)))
            rows[cut] = [(*row, {name: column[r] for name, column in table["health"].items()})
                         for table in tables for r, row in enumerate(zip(
                             *(table[key].tolist() for key in ("replications", "ranks", "ess",
                                                                "chain_lengths"))))]
            failures[cut] = [failure for table in tables for failure in table["failures"]]
        flagged, clean = rows.values()
        reason = "AllConstant: every quantity is constant or degenerate over the chain"
        assert list(failures.values()) == [[{"replication": bad, "reason": reason}], []]
        assert flagged == [row for row in clean if row[0] != bad]
        # The first chains fall short of L, so the stuck row is rerun before it sticks.
        assert clean[bad][3] > 10 * config.L
