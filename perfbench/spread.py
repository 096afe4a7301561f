"""Run the benchmark over several seeds and summarise each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--seconds S]
                                [--trace 0|1] [--out FILE]

Each run is the command in BENCHMARK.json, one after another.  For every
workload and metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them), and the spread, which is
the distance between the quartiles as a share of the median.  `--out` writes
the same summary, every run's values and the machine record as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def run_once(bench: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout[-2000:]}"
                         f"\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "_out" / f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text(encoding="utf-8"))
    return {"seed": seed, "wall_s": wall, "result": result, "context": record["context"]}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args(argv)

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = [run_once(bench, workload, s, args.seconds, args.trace)
                for s in parse_seeds(args.seeds)]
        metrics = {name: summarise([r["result"]["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["result"]["metrics"]}
        report["workloads"][workload] = {
            "correct": all(r["result"]["correct"] for r in runs),
            "wall_s": summarise([r["wall_s"] for r in runs]),
            "metrics": metrics,
            "context": {k: v for k, v in runs[0]["context"].items() if k != "seed"},
            "seeds": [r["seed"] for r in runs],
        }
        print(f"{workload}: {len(runs)} runs, wall {report['workloads'][workload]['wall_s']['median']:.1f} s"
              f" median, all correct: {report['workloads'][workload]['correct']}")
        for name, s in metrics.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:<28} median {s['median']:<14.6g} q1 {s['q1']:<14.6g} "
                  f"q3 {s['q3']:<14.6g} spread {spread}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
