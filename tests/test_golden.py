"""Golden outputs: the SHA-256 of every file that fixed-seed runs and their reports write.

Refactors must leave these bytes unchanged.  ``meta.json`` is hashed without
``wall_clock_seconds`` and the config's ``worker_count_hint``, which do not
depend on the seed.  Digests are only comparable under the numpy version they
were recorded with, so another version skips the test.

A change that alters results on purpose re-records the digests with
``PYTHONPATH=src python tests/test_golden.py``, which lists every (case, file)
digest it changes, and says why in its notes.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from sbc.config import config_from_dict
from sbc.report import ReportRequest, write_report
from sbc.runner import load_artifact, run, save_artifact

DIGESTS = Path(__file__).with_name("golden_digests.json")

CONFIGS = {
    "exact-nn": {"model": {"kind": "normal-normal"}, "sampler": {"kind": "exact-conjugate"},
                 "N": 2000, "L": 1023, "master_seed": 11},
    "exact-nn-scale": {"model": {"kind": "normal-normal"},
                       "sampler": {"kind": "exact-conjugate"}, "N": 2000, "L": 1023,
                       "master_seed": 12,
                       "corruption": {"kind": "scale", "amount": 0.2, "target_quantity": "mu"}},
    "hmc-linreg": {"model": {"kind": "lin-reg"}, "sampler": {"kind": "hmc"},
                   "N": 20, "L": 99, "master_seed": 13},
    "hmc-8s-nc-alg2": {"model": {"kind": "eight-schools", "parameterization": "non-centered"},
                       "sampler": {"kind": "hmc"}, "N": 20, "L": 99,
                       "thinning": "algorithm-2", "master_seed": 14},
    # Nineteen of twenty rows stop at max_chain_length, still short of L effective draws.
    "hmc-8s-c-alg2-cap": {"model": {"kind": "eight-schools", "parameterization": "centered"},
                          "sampler": {"kind": "hmc"}, "N": 20, "L": 31,
                          "thinning": "algorithm-2", "max_chain_length": 600,
                          "master_seed": 20},
    "hmc-8s-nc-off": {"model": {"kind": "eight-schools", "parameterization": "non-centered"},
                      "sampler": {"kind": "hmc"}, "N": 20, "L": 99, "thinning": "off",
                      "master_seed": 18},
    "rw-linreg-alg2": {"model": {"kind": "lin-reg"}, "sampler": {"kind": "rw-metropolis"},
                       "N": 20, "L": 31, "thinning": "algorithm-2", "master_seed": 15},
    # Every proposal's log density overflows to -inf or NaN and is rejected.
    "rw-linreg-overflow": {"model": {"kind": "lin-reg"},
                           "sampler": {"kind": "rw-metropolis", "step_size": 1e200, "warmup": 0},
                           "N": 20, "L": 31, "master_seed": 17},
    "vi-nn": {"model": {"kind": "normal-normal"},
              "sampler": {"kind": "meanfield-vi", "vi_iterations": 500},
              "N": 100, "L": 99, "master_seed": 16},
}

# Each case is a config of CONFIGS and the report settings other than the defaults.
CASES = {name: (name, {}) for name in CONFIGS}
CASES["hmc-linreg-bins10-cov90"] = ("hmc-linreg", {"bins": 10, "coverage": 0.9})


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def output_digests(config: dict, root: Path, **report) -> dict[str, str]:
    """Run ``config``, save it and report on it under ``root`` with the ``report``
    settings; digest every written file.  The saved artifact must load back."""
    artifact = run(config_from_dict(config))
    out = save_artifact(artifact, root / "artifact")
    assert load_artifact(out).diagnostics == artifact.diagnostics
    meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
    del meta["wall_clock_seconds"], meta["config"]["worker_count_hint"]
    digests = {
        "ranks.csv": _sha256((out / "ranks.csv").read_bytes()),
        "meta.json": _sha256(json.dumps(meta, indent=2, sort_keys=True).encode("utf-8")),
    }
    request = ReportRequest(artifact_path=str(out), **report)
    for name in write_report(artifact, request, root / "report"):
        digests[f"report/{name}"] = _sha256((root / "report" / name).read_bytes())
    return digests


def _recorded() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_recorded_digests(name, tmp_path):
    recorded = _recorded()
    if np.__version__ != recorded["numpy"]:
        pytest.skip(f"digests were recorded under numpy {recorded['numpy']}, "
                    f"this is numpy {np.__version__}")
    config, report = CASES[name]
    assert output_digests(CONFIGS[config], tmp_path, **report) == recorded["runs"][name]


def record() -> None:
    """Rewrite the digest file from the current code, first printing each (case, file)
    whose digest differs from the recorded one."""
    import tempfile

    recorded = _recorded()["runs"] if DIGESTS.exists() else {}
    runs = {}
    for name, (config, report) in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            runs[name] = output_digests(CONFIGS[config], Path(tmp), **report)
        old = recorded.get(name, {})
        for file in sorted(runs[name].keys() | old.keys()):
            if runs[name].get(file) != old.get(file):
                print(f"{name} {file}: {old.get(file)} -> {runs[name].get(file)}")
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "runs": runs}, indent=1,
                                  sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
