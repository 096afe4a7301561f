"""The benchmark's workloads: run configs generated from the benchmark seed.

Each workload is a paper experiment whose cost per run hardly depends on the
seed, so that runs at different seeds agree.  The three together stress
different layers:

* exact-nn: normal-normal with the exact conjugate sampler, L=1023.  No
  gradient and no ESS; the run is per-replication overhead (model build,
  random streams, ranking) and the verdict is dominated by the report's ECDF
  band.  Sampler and model changes must not move it.
* hmc-linreg-off: linear regression, HMC with default settings, no
  thinning, L=99.  A fixed 299 transitions per replication, so nearly all
  time is sampler self time and a cheap (d=3) gradient.
* hmc-8s-nc-off: non-centered eight schools, the same sampler and thinning.
  A gradient about 2.5 times as costly (d=10), and 18 quantities, so ESS,
  ranking, the artifact and the report scale with Q.

Left out: HMC with Algorithm 2 on lin-reg and on eight schools, whose rare
long reruns make the time of a run depend on its seed (a coefficient of
variation of about 1.2 per replication); mean-field VI on lin-reg, which
aborts; centered eight schools, at about 2.3 s per replication.

N is the size of one verdict.  A run repeats verdicts, each with its own
master seed, until the measuring time is used up.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict
    sampler: dict
    N: int
    L: int
    thinning: str
    expect_uniform: bool  # an exact sampler: ranks must pass a uniformity test

    def config(self, seed: int, verdict: int, N: int | None = None) -> dict:
        """The JSON run config of one verdict; the only input `sbc` receives."""
        return {
            "model": dict(self.model),
            "sampler": dict(self.sampler),
            "N": self.N if N is None else N,
            "L": self.L,
            "thinning": self.thinning,
            "master_seed": master_seed(self.name, seed, verdict),
            "worker_count_hint": 1,
        }


def master_seed(workload: str, seed: int, verdict: int) -> int:
    """A 32-bit master seed, distinct per (workload, benchmark seed, verdict)."""
    key = f"{workload}/{seed}/{verdict}".encode("utf-8")
    return int.from_bytes(hashlib.blake2b(key, digest_size=4).digest(), "big")


WORKLOADS = {w.name: w for w in (
    Workload("exact-nn", {"kind": "normal-normal"}, {"kind": "exact-conjugate"},
             N=10_000, L=1023, thinning="off", expect_uniform=True),
    Workload("hmc-linreg-off", {"kind": "lin-reg"}, {"kind": "hmc"},
             N=100, L=99, thinning="off", expect_uniform=False),
    Workload("hmc-8s-nc-off", {"kind": "eight-schools", "parameterization": "non-centered"},
             {"kind": "hmc"}, N=50, L=99, thinning="off", expect_uniform=False),
)}
