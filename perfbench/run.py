"""SBC benchmark: wall time from a run config to a calibration verdict.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A verdict is what `sbc run` followed by `sbc report` does: `run`,
`save_artifact`, `load_artifact` and `write_report` with every format.
With `--trace 0` the run repeats verdicts (each with its own master seed
drawn from `--seed`) until `--seconds` have passed, times set-up in fresh
interpreters between them, and prints the end-to-end metrics: medians over
the verdicts and set-ups of the run.  With `--trace 1` it runs the first
verdict's config once untraced and twice with every layer hooked, prints the
per-layer metrics of the first traced verdict, and checks that the exact
counts repeat in the second.  Every verdict's written files are checked; a
failed check fails the run.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when
every check passed, 1 when one failed, and 2 when the benchmark could not
start (for example, when `src/sbc` is absent).
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported, here and in set-up probes.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from layers import EXACT_COUNTS, TracedVerdict, layer_metrics  # noqa: E402
from tracing import FitLog, Tracer, traced  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

# Set-up is timed in fresh interpreters: a few before the first verdict, a few
# after each verdict and more at the end up to a minimum, so that the median
# does not rest on one moment of a machine whose speed drifts.
SETUP_FIRST = 3
SETUP_PER_VERDICT = 2
SETUP_MIN = 9
SETUP_TIMEOUT_S = 60

# A report faster than this is rendered again until this much time is spent,
# and its time is the median per render.
REPORT_MIN_S = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "reps_per_s": "1/s",
    "report_s": "s",
    "verdict_s": "s",
    "peak_rss_mb": "MB",
    "completed_frac": "fraction",
    "ess_reached_frac": "fraction",
}


class SetupError(RuntimeError):
    """The benchmark cannot run here (no `sbc` source, or a set-up probe failed)."""


def import_sbc():
    """Import `sbc` from this checkout's `src/`, and from nowhere else."""
    if not (SRC / "sbc" / "__init__.py").is_file():
        raise SetupError(f"no sbc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sbc

    if not Path(sbc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"imported sbc from {sbc.__file__}, not from {SRC}")
    return sbc


@dataclass
class VerdictResult:
    N: int
    run_s: float = 0.0
    save_s: float = 0.0
    load_s: float = 0.0
    report_s: float = 0.0  # median per render
    failed: int = 0
    still_short: int = 0
    artifact_bytes: int = 0
    report_bytes: int = 0
    problems: list = field(default_factory=list)

    @property
    def verdict_s(self) -> float:
        return self.run_s + self.save_s + self.load_s + self.report_s


def run_verdict(sbc, config, work: Path,
                report_min_s: float = 0.0) -> tuple[VerdictResult, object, list[str]]:
    """One timed verdict; returns its timings, the loaded artifact and the report files."""
    result = VerdictResult(N=config.N)
    shutil.rmtree(work, ignore_errors=True)
    artifact_dir = work / "artifact"
    try:
        t0 = time.perf_counter()
        artifact = sbc.run(config)
        t1 = time.perf_counter()
        sbc.save_artifact(artifact, artifact_dir)
        t2 = time.perf_counter()
        loaded = sbc.load_artifact(artifact_dir)
        t3 = time.perf_counter()
        renders = []
        while not renders or sum(renders) < report_min_s:
            start = time.perf_counter()
            written = sbc.write_report(
                loaded, sbc.ReportRequest(artifact_path=str(artifact_dir)), work / "report")
            renders.append(time.perf_counter() - start)
    except sbc.SbcError as exc:
        result.failed = config.N
        result.problems.append(f"verdict aborted: {type(exc).__name__}: {exc}")
        return result, None, []
    result.run_s, result.save_s, result.load_s = t1 - t0, t2 - t1, t3 - t2
    result.report_s = statistics.median(renders)
    return result, loaded, written


def check_verdict(sbc, workload: Workload, result: VerdictResult, loaded, written: list[str],
                  work: Path) -> list:
    """Check what the verdict wrote, record its counts, delete it; returns its ranks."""
    if loaded is None:
        return []
    artifact_dir, report_dir = work / "artifact", work / "report"
    L = loaded.config.L
    meta = json.loads((artifact_dir / "meta.json").read_text(encoding="utf-8"))
    result.failed = len(meta["failures"])
    result.still_short = sum(bool(d.get("still_short")) for d in meta["diagnostics"])
    ranks = checks.read_ranks(artifact_dir)
    resaved = sbc.save_artifact(loaded, work / "artifact_resaved")
    quantities = {q for _, q, _, _ in ranks}
    safe_names = [sbc.report.safe_filename(q) for q in sorted(quantities)]
    result.problems += (
        checks.ranks_in_range(ranks, L)
        + checks.checksums_verify(artifact_dir)
        + checks.round_trip_identical(ranks, checks.read_ranks(resaved))
        + checks.summary_counts(report_dir, meta, quantities)
        + checks.report_files(report_dir, written, safe_names)
        + (checks.uniform_ranks(ranks, L) if workload.expect_uniform else [])
    )
    result.artifact_bytes = _dir_bytes(artifact_dir)
    result.report_bytes = _dir_bytes(report_dir)
    shutil.rmtree(work, ignore_errors=True)
    return ranks


def checked_verdict(sbc, workload: Workload, config, work: Path,
                    report_min_s: float = 0.0) -> tuple[VerdictResult, list]:
    result, loaded, written = run_verdict(sbc, config, work, report_min_s)
    return result, check_verdict(sbc, workload, result, loaded, written, work)


def measure_setup(config_path: Path, repeats: int) -> list[float]:
    """Set-up times of `repeats` fresh interpreters."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config_path)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(probe["sbc_file"]).resolve().is_relative_to(SRC.resolve()):
            raise SetupError(f"set-up probe imported sbc from {probe['sbc_file']}")
        times.append(probe["setup_s"])
    return times


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(sbc, workload: Workload, seed: int, seconds: float, work: Path,
               N: int | None = None):
    work.mkdir(parents=True, exist_ok=True)
    config_path = work / "setup-config.json"
    config_path.write_text(json.dumps(workload.config(seed, 0, N)), encoding="utf-8")
    setup_times = measure_setup(config_path, SETUP_FIRST)
    verdicts: list[VerdictResult] = []
    started = time.perf_counter()
    while not verdicts or time.perf_counter() - started < seconds:
        config = sbc.config_from_dict(workload.config(seed, len(verdicts), N))
        v, _ = checked_verdict(sbc, workload, config, work / f"v{len(verdicts)}", REPORT_MIN_S)
        verdicts.append(v)
        if v.problems:
            break
        setup_times += measure_setup(config_path, SETUP_PER_VERDICT)
    setup_times += measure_setup(config_path, max(0, SETUP_MIN - len(setup_times)))
    attempted = sum(v.N for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    short = sum(v.still_short for v in verdicts)
    values = {
        "setup_s": statistics.median(setup_times),
        "reps_per_s": statistics.median(v.N / v.run_s if v.run_s > 0 else 0.0 for v in verdicts),
        "report_s": statistics.median(v.report_s for v in verdicts),
        "verdict_s": statistics.median(v.verdict_s for v in verdicts),
        "peak_rss_mb": peak_rss_mb(),
        "completed_frac": (attempted - failed) / attempted,
        "ess_reached_frac": (attempted - failed - short) / attempted,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    detail = {"setup_s": setup_times, "verdicts": [_verdict_record(v) for v in verdicts]}
    return verdicts, metrics, detail, []


def per_layer(sbc, workload: Workload, seed: int, work: Path, N: int | None = None):
    config = sbc.config_from_dict(workload.config(seed, 0, N))
    untraced, untraced_ranks = checked_verdict(sbc, workload, config, work / "untraced")
    runs = []
    for i in range(2):
        tracer, fits = Tracer(), FitLog()
        with traced(tracer, fits) as patches:
            v, loaded, written = run_verdict(sbc, config, work / f"traced{i}")
        if check_verdict(sbc, workload, v, loaded, written, work / f"traced{i}") != untraced_ranks:
            v.problems.append("traced ranks differ from untraced ranks")
        layer = TracedVerdict(
            tracer=tracer, fits=fits, completed=v.N - v.failed, L=config.L,
            artifact_bytes=v.artifact_bytes, report_bytes=v.report_bytes,
            reps_per_s_traced=v.N / v.run_s if v.run_s > 0 else 0.0,
            reps_per_s_untraced=untraced.N / untraced.run_s if untraced.run_s > 0 else 0.0)
        metrics, missing = layer_metrics(layer, patches.missing)
        runs.append((v, tracer, metrics, missing, patches.missing))
    (first, tracer, metrics, missing, missing_hooks), (second, _, repeat, _, _) = runs
    for name in EXACT_COUNTS:
        if name in metrics and metrics[name]["value"] != repeat[name]["value"]:
            first.problems.append(f"{name} differs between traced runs: "
                                  f"{metrics[name]['value']} vs {repeat[name]['value']}")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}-seed{seed}-spans.json"
    spans_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    verdicts = [untraced, first, second]
    detail = {"verdicts": [_verdict_record(v) for v in verdicts],
              "missing_hooks": missing_hooks, "spans_file": spans_path.name}
    return verdicts, metrics, detail, missing


def _verdict_record(v: VerdictResult) -> dict:
    return {"N": v.N, "run_s": v.run_s, "save_s": v.save_s, "load_s": v.load_s,
            "report_s": v.report_s, "failed": v.failed, "still_short": v.still_short,
            "artifact_bytes": v.artifact_bytes, "report_bytes": v.report_bytes,
            "problems": v.problems}


def context(sbc, workload: Workload, seed: int, seconds: float, trace: bool, N: int) -> dict:
    """The machine and settings a result was measured with."""
    import numpy

    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "N": N, "L": workload.L,
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "commit": _commit(), "src_sha256": _src_digest(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    """HEAD of the checkout if it is a git work tree (not of any enclosing repository)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    """Digest of every file under src/sbc, which identifies the measured code."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "sbc").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            N: int | None = None) -> dict:
    """Run the benchmark in this process; returns the full result record."""
    sbc = import_sbc()
    work = HERE / "_work" / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        if trace:
            verdicts, metrics, detail, missing = per_layer(sbc, workload, seed, work, N)
        else:
            verdicts, metrics, detail, missing = end_to_end(sbc, workload, seed, seconds, work, N)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = [p for v in verdicts for p in v.problems]
    result = {
        "correct": not problems,
        "attempted": sum(v.N for v in verdicts),
        "failed": sum(v.failed for v in verdicts),
        "metrics": metrics,
    }
    return {"result": result, "problems": problems, "missing": missing,
            "context": context(sbc, workload, seed, seconds, trace, verdicts[0].N),
            "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (SetupError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")
    for metric in record["missing"]:
        print(f"MISSING: {metric} (its hook target was not found)")
    for key, value in record["context"].items():
        print(f"# {key}: {value}")
    for metric, m in record["result"]["metrics"].items():
        print(f"{metric:<28} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
