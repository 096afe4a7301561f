"""Correctness checks on what one verdict wrote.

The checks read the artifact and report directories, not `sbc`'s in-memory
types, so the program may change how it stores ranks without the benchmark
changing.  Each check returns a list of problems; an empty list means it
passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Significance level of the uniformity test on exact-sampler ranks.  The test
# is the Dvoretzky-Kiefer-Wolfowitz bound on the ECDF's distance from the
# uniform CDF, which holds (conservatively) for discrete distributions, so a
# correct exact sampler fails it with probability below this level.
UNIFORMITY_ALPHA = 1e-6

REPORT_SVG_SUFFIXES = ("hist", "ecdf", "ecdf_diff")


def read_ranks(artifact_dir: Path) -> list[tuple[int, str, int, int]]:
    """(replication, quantity, rank, L) rows of the artifact's ranks.csv."""
    with (artifact_dir / "ranks.csv").open(newline="", encoding="utf-8") as fh:
        return [(int(r["replication"]), r["quantity"], int(r["rank"]), int(r["L"]))
                for r in csv.DictReader(fh)]


def ranks_in_range(rows, L: int) -> list[str]:
    bad = [r for r in rows if r[3] != L or not 0 <= r[2] <= L]
    return [f"{len(bad)} ranks outside [0, {L}], e.g. {bad[0]}"] if bad else []


def checksums_verify(artifact_dir: Path) -> list[str]:
    problems = []
    lines = (artifact_dir / "sha256sums.txt").read_text(encoding="utf-8").splitlines()
    if not lines:
        return ["sha256sums.txt is empty"]
    for line in lines:
        digest, name = line.split(None, 1)
        actual = hashlib.sha256((artifact_dir / name.strip()).read_bytes()).hexdigest()
        if actual != digest:
            problems.append(f"checksum mismatch for {name.strip()}")
    return problems


def round_trip_identical(rows, resaved_rows) -> list[str]:
    if rows != resaved_rows:
        return ["ranks differ after a save/load round trip"]
    return []


def summary_counts(report_dir: Path, meta: dict, quantities: set[str]) -> list[str]:
    """Every quantity's histogram counts sum to N minus failed replications."""
    summary = json.loads((report_dir / "summary.json").read_text(encoding="utf-8"))
    expected = meta["config"]["N"] - len(meta["failures"])
    problems = []
    if set(summary) != quantities:
        problems.append(f"summary.json quantities {sorted(summary)} != ranks {sorted(quantities)}")
    for q, row in summary.items():
        if sum(row["counts"]) != expected:
            problems.append(f"{q}: counts sum to {sum(row['counts'])}, expected {expected}")
    return problems


def report_files(report_dir: Path, written: list[str], safe_names: list[str]) -> list[str]:
    expected = {"summary.json", "summary.csv"}
    expected |= {f"{q}_{suffix}.svg" for q in safe_names for suffix in REPORT_SVG_SUFFIXES}
    problems = [f"report file {n} not written" for n in sorted(expected - set(written))]
    for name in written:
        path = report_dir / name
        if not path.is_file() or path.stat().st_size == 0:
            problems.append(f"report file {name} missing or empty")
    return problems


def uniform_ranks(rows, L: int) -> list[str]:
    """DKW test of each quantity's ranks against the discrete uniform on 0..L."""
    by_quantity: dict[str, list[int]] = {}
    for _, q, rank, _ in rows:
        by_quantity.setdefault(q, []).append(rank)
    problems = []
    for q, ranks in by_quantity.items():
        n = len(ranks)
        counts = [0] * (L + 1)
        for r in ranks:
            counts[r] += 1
        cumulative, distance = 0, 0.0
        for k, c in enumerate(counts):
            cumulative += c
            distance = max(distance, abs(cumulative / n - (k + 1) / (L + 1)))
        limit = math.sqrt(math.log(2.0 / UNIFORMITY_ALPHA) / (2.0 * n))
        if distance > limit:
            problems.append(f"{q}: ranks not uniform (ECDF distance {distance:.4f} > {limit:.4f})")
    return problems
