"""Smoke tests of the benchmark: tiny-N workloads, traced mode, hooks and checks.

Run from the repository root with `python3 -m pytest perfbench/tests -q`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import sbc
from layers import LAYER_METRICS, TracedVerdict, layer_metrics
from tracing import FitLog, Tracer, traced
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_N = {"exact-nn": 300, "hmc-linreg-off": 4, "hmc-8s-nc-off": 3}


def sbc_bindings() -> dict:
    """Every attribute of every loaded sbc module, by identity."""
    out = {(name, attr): id(value)
           for name, mod in sys.modules.items() if name == "sbc" or name.startswith("sbc.")
           for attr, value in vars(mod).items()}
    out[("RandomStream", "__init__")] = id(sbc.RandomStream.__dict__["__init__"])
    return out


def test_benchmark_json_lists_every_metric():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in LAYER_METRICS]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_config_is_accepted(name):
    config = sbc.config_from_dict(WORKLOADS[name].config(seed=7, verdict=0))
    assert config.worker_count_hint == 1
    assert WORKLOADS[name].config(7, 0) == WORKLOADS[name].config(7, 0)
    assert WORKLOADS[name].config(7, 0) != WORKLOADS[name].config(8, 0)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_tiny(name):
    record = run.measure(WORKLOADS[name], seed=3, seconds=0.01, trace=False, N=TINY_N[name])
    result = record["result"]
    assert result["correct"], record["problems"]
    assert result["attempted"] == TINY_N[name] and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_tiny(name):
    before = sbc_bindings()
    record = run.measure(WORKLOADS[name], seed=3, seconds=0.01, trace=True, N=TINY_N[name])
    assert sbc_bindings() == before
    assert record["result"]["correct"], record["problems"]
    assert record["missing"] == []
    assert list(record["result"]["metrics"]) == [m.name for m in LAYER_METRICS]


def test_hooks_restored_after_an_error():
    before = sbc_bindings()
    with pytest.raises(RuntimeError):
        with traced(Tracer(), FitLog()):
            assert sbc_bindings() != before
            raise RuntimeError("boom")
    assert sbc_bindings() == before


def test_moved_hook_target_is_reported_missing(monkeypatch):
    monkeypatch.delattr(sbc.ess, "ess_by_quantity")
    monkeypatch.delattr(sbc.streams.RandomStream, "__init__")  # falls back to object.__init__
    tracer, fits = Tracer(), FitLog()
    with traced(tracer, fits) as patches:
        pass
    assert sorted(patches.missing) == ["sbc.ess.ess_by_quantity",
                                       "sbc.streams.RandomStream.__init__"]
    verdict = TracedVerdict(tracer, fits, completed=1, L=1, artifact_bytes=1, report_bytes=1,
                      reps_per_s_traced=1.0, reps_per_s_untraced=1.0)
    metrics, missing = layer_metrics(verdict, patches.missing)
    assert {"ess.s", "ess.calls", "streams.created", "streams.create_us",
            "runner.self_s"} <= set(missing)
    assert not set(missing) & set(metrics)
    assert "model.grad_calls" in metrics


def test_checks_flag_bad_outputs(tmp_path):
    rows = [(i, "mu", 0, 9) for i in range(200)]
    assert checks.uniform_ranks(rows, 9)
    assert not checks.uniform_ranks([(i, "mu", i % 10, 9) for i in range(200)], 9)
    assert checks.ranks_in_range([(0, "mu", 10, 9)], 9)
    assert checks.round_trip_identical(rows, rows[:-1])

    artifact = sbc.run(sbc.config_from_dict(WORKLOADS["exact-nn"].config(1, 0, N=50)))
    path = sbc.save_artifact(artifact, tmp_path / "artifact")
    assert checks.checksums_verify(path) == []
    (path / "ranks.csv").write_text("replication,quantity,rank,L,n_eff,raw_chain_length\n")
    assert checks.checksums_verify(path)


def test_without_sbc_source_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", "exact-nn", "--seed", "1", "--seconds", "1",
                                "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
