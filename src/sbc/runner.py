"""Replication harness: runs the calibration loop and persists artifacts.

Each replication draws a ground truth from the prior, simulates a dataset,
fits the configured sampler, and records the rank of the ground truth within
the posterior draws for every quantity of interest.  Replications are
independent, so they run in blocks: a block derives each purpose's random
streams for all its rows in one pass, draws its priors and data row by row,
fits all its datasets in one lockstep sampler call, and ranks each quantity
in one pass over the block's stacked draws.  Every random stream is derived
from (master_seed, replication index, purpose tag), and the batched
densities and quantities keep each row's arithmetic within its row, so
results are bit-identical for any block size and any number of workers.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import (
    ChecksumMismatch,
    ConfigError,
    FailureRateExceeded,
    FormatVersionMismatch,
    InvalidArtifact,
    NonFiniteInput,
    SbcError,
    UnknownQuantity,
)
from .ess import ess_by_quantity, min_ess, required_chain_length, thin_to
from .model import GenerativeModel, Quantity, draw_data, draw_prior
from .models import model_from_dict
from .rankstats import rank_statistic
from .samplers import (
    Corruption,
    SamplerConfig,
    corrupt,
    fit_meanfield_vi,
    sample_exact_conjugate,
    sample_hmc,
    sample_rw_metropolis,
)
from .streams import RandomStream

FORMAT_VERSION = "1.1"
INITIAL_CHAIN_FACTOR = 10
DEFAULT_MAX_CHAIN_LENGTH = 100_000
# A run aborts once more than floor(FAILURE_RATE_CAP * N) replications fail,
# so no failure is allowed when N < 100.
FAILURE_RATE_CAP = 0.01
# Replications run in blocks of at most BLOCK_SIZE rows, fitted in lockstep.
BLOCK_SIZE = 128
# A lockstep fit holds its noise as one (steps, rows, d) float64 array, and an
# MCMC chain of about the same size; a block is fitted in groups of rows for
# which that array has at most BLOCK_FLOATS entries (16 MiB), which caps the
# memory of Algorithm 2's long reruns.
BLOCK_FLOATS = 2**21

_MCMC_KINDS = ("rw-metropolis", "hmc")


@dataclass(frozen=True)
class RunConfig:
    model: dict = field(default_factory=lambda: {"kind": "normal-normal"})
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    corruption: Corruption = field(default_factory=Corruption)
    N: int = 2000
    L: int = 99
    thinning: str = "off"
    master_seed: int = 0
    max_chain_length: int = DEFAULT_MAX_CHAIN_LENGTH
    worker_count_hint: int = 1

    def __post_init__(self):
        # Canonicalize the model mapping through JSON so that save/load
        # round-trips compare equal (tuples become lists, keys become str).
        object.__setattr__(self, "model", json.loads(json.dumps(self.model)))
        if self.N < 1 or self.L < 1:
            raise ConfigError("N and L must be >= 1")
        if self.thinning not in ("off", "algorithm-2"):
            raise ConfigError("thinning must be 'off' or 'algorithm-2'")
        if self.thinning == "algorithm-2" and self.sampler.kind not in _MCMC_KINDS:
            raise ConfigError("algorithm-2 thinning requires an MCMC sampler")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be a non-negative integer")
        if self.max_chain_length < self.L:
            raise ConfigError("max_chain_length must be >= L")
        if self.worker_count_hint < 1:
            raise ConfigError("worker_count_hint must be >= 1")


def config_to_dict(config: RunConfig) -> dict:
    d = asdict(config)
    d["model"] = dict(config.model)
    return d


_REQUIRED_KEYS = {"model", "sampler"}
_OPTIONAL_KEYS = {"corruption", "N", "L", "thinning", "master_seed",
                  "max_chain_length", "worker_count_hint"}


def _sub_config(cls, d: dict, what: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a JSON object")
    allowed = set(cls.__dataclass_fields__)
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    try:
        return cls(**d)
    except (TypeError, SbcError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def config_from_dict(d: dict) -> RunConfig:
    """Strict parse of the JSON run-config shape; unknown keys are rejected."""
    if not isinstance(d, dict):
        raise ConfigError("run config must be a JSON object")
    unknown = set(d) - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(d)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    if not isinstance(d["model"], dict):
        raise ConfigError("model must be a JSON object with a 'kind' key")
    try:
        model = model_from_dict(d["model"])  # validate eagerly for fast feedback
    except SbcError as exc:
        raise ConfigError(f"invalid model spec: {exc}") from exc
    kwargs = {k: v for k, v in d.items() if k not in ("model", "sampler", "corruption")}
    try:
        config = RunConfig(
            model=dict(d["model"]),
            sampler=_sub_config(SamplerConfig, d["sampler"], "sampler"),
            corruption=_sub_config(Corruption, d.get("corruption", {}), "corruption"),
            **kwargs,
        )
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    _check_model(config, model)
    return config


def _check_model(config: RunConfig, model: GenerativeModel) -> None:
    """Reject a config that would fail every replication of ``model``."""
    if config.sampler.kind == "exact-conjugate" and model.exact_posterior is None:
        raise ConfigError(f"the exact-conjugate sampler needs a closed-form posterior; "
                          f"model {model.name!r} has none")
    target = config.corruption.target_quantity
    if config.corruption.kind != "none" and target not in model.parameter_names:
        raise ConfigError(f"corruption target {target!r} is not a parameter of model "
                          f"{model.name!r}; choose from {list(model.parameter_names)}")


@dataclass(frozen=True, eq=False)
class RunArtifact:
    """Everything one run produced: config echo, the rank table, diagnostics.

    Row i of ``ranks``, ``ess`` and ``chain_lengths`` belongs to completed
    replication ``replications[i]`` (ascending); column j of ``ranks`` and
    ``ess`` to ``quantities[j]`` (a run sorts them by name).  ``ess`` is NaN where there
    is no estimate: a sampler without a chain, or a constant series.  The
    arrays are read-only.
    """

    config: RunConfig
    quantities: tuple[str, ...]
    replications: np.ndarray  # (n,)
    ranks: np.ndarray  # (n, Q)
    ess: np.ndarray  # (n, Q)
    chain_lengths: np.ndarray  # (n,) raw chain length before thinning
    diagnostics: tuple[dict, ...]
    failures: tuple[dict, ...]
    wall_clock_seconds: float
    format_version: str = FORMAT_VERSION

    def __post_init__(self):
        for table in (self.replications, self.ranks, self.ess, self.chain_lengths):
            table.flags.writeable = False

    def _column(self, quantity: str) -> int:
        try:
            return self.quantities.index(quantity)
        except ValueError:
            raise UnknownQuantity(
                f"quantity {quantity!r} not in artifact (has {self.quantities})") from None

    def ranks_for(self, quantity: str) -> np.ndarray:
        return self.ranks[:, self._column(quantity)]

    def ess_for(self, quantity: str) -> np.ndarray:
        """The quantity's effective sample sizes, for replications that have one."""
        ess = self.ess[:, self._column(quantity)]
        return ess[~np.isnan(ess)]

    @property
    def L(self) -> int:
        return self.config.L


def _build(config: RunConfig) -> tuple[GenerativeModel, tuple[Quantity, ...]]:
    """The run's checked model, and its quantities in the rank table's column order (by name)."""
    model = model_from_dict(config.model)
    _check_model(config, model)
    return model, tuple(sorted(model.quantities, key=lambda q: q.name))


class _Row:
    """One replication's state while its block runs; ``failure`` ends it."""

    __slots__ = ("i", "diag", "failure", "theta", "data", "length", "draws", "ess", "ranks")

    def __init__(self, i: int, n_quantities: int):
        self.i = i
        self.diag: dict = {"replication": i}
        self.failure: str | None = None
        self.ess = np.full(n_quantities, np.nan)

    def fail(self, exc: SbcError) -> None:
        self.failure = f"{type(exc).__name__}: {exc}"


def _each(rows: list[_Row], step) -> list[_Row]:
    """Apply ``step`` to every live row; an SbcError fails that row alone.

    Returns the rows still live.
    """
    for row in rows:
        if row.failure is None:
            try:
                step(row)
            except SbcError as exc:
                row.fail(exc)
    return [row for row in rows if row.failure is None]


def _streams(seed: int, rows: list[_Row], tag: str) -> dict[int, RandomStream]:
    """Each row's stream for ``tag``, keyed by replication, derived in one pass."""
    indices = [row.i for row in rows]
    return dict(zip(indices, RandomStream.block(seed, indices, tag)))


def _fit(model: GenerativeModel, config: RunConfig, rows: list[_Row], tag: str) -> None:
    """Fit each row's dataset for ``row.length`` draws; sets ``row.draws`` or fails the row.

    MCMC and VI rows are fitted in lockstep, longest first, in groups whose
    noise array holds at most BLOCK_FLOATS values; the rows of a group may
    differ in length.  The exact sampler fits row by row.
    """
    if not rows:
        return
    cfg, seed = config.sampler, config.master_seed
    rngs = _streams(seed, rows, tag)
    if cfg.kind == "exact-conjugate":
        def exact(row):
            row.draws = sample_exact_conjugate(model, row.data, row.length, rngs[row.i])
        _each(rows, exact)
        return
    vi_rngs = _streams(seed, rows, "vi") if cfg.kind == "meanfield-vi" else {}
    rows = sorted(rows, key=lambda row: -row.length)
    start = 0
    while start < len(rows):
        n_steps = rows[start].length
        steps = cfg.vi_iterations if cfg.kind == "meanfield-vi" else n_steps + cfg.warmup
        group = rows[start:start + max(1, BLOCK_FLOATS // (steps * len(model.parameter_names)))]
        start += len(group)
        datasets, lengths = [row.data for row in group], [row.length for row in group]
        group_rngs = [rngs[row.i] for row in group]
        if cfg.kind == "rw-metropolis":
            fitted = sample_rw_metropolis(model, datasets, n_steps, cfg.step_size, cfg.warmup,
                                          group_rngs, lengths).rows
        elif cfg.kind == "hmc":
            fitted = sample_hmc(model, datasets, n_steps, cfg.step_size, cfg.n_leapfrog,
                                cfg.warmup, group_rngs, lengths).rows
        else:
            approxes = fit_meanfield_vi(model, datasets, cfg.vi_iterations, cfg.vi_learning_rate,
                                        [vi_rngs[row.i] for row in group])
            fitted = [a if isinstance(a, SbcError) else a.sample(n, rng)
                      for a, n, rng in zip(approxes, lengths, group_rngs)]
        for row, result in zip(group, fitted):
            if isinstance(result, SbcError):
                row.fail(result)
            else:
                row.draws = result


def _rank(rows: list[_Row], quantities: tuple[Quantity, ...]) -> None:
    """Set each row's ranks, or fail the row; one pass per quantity over the stacked rows.

    Each quantity is evaluated once on all rows' draws, stacked into one
    (R * L, d) matrix, and once on their (R, d) prior points.  A row with a
    non-finite value of any quantity fails alone; the others are ranked.
    """
    if not rows:
        return
    draws = np.concatenate([row.draws.values for row in rows])
    priors = np.stack([row.theta.values for row in rows])
    draw_names, prior_names = rows[0].draws.names, rows[0].theta.names
    ranks = np.zeros((len(rows), len(quantities)), dtype=np.int64)
    finite = np.ones(len(rows), dtype=bool)
    for j, q in enumerate(quantities):
        series = np.asarray(q.batch_evaluator(draws, draw_names),
                            dtype=np.float64).reshape(len(rows), -1)
        prior = np.asarray(q.batch_evaluator(priors, prior_names), dtype=np.float64)
        ok = np.isfinite(series).all(axis=1) & np.isfinite(prior)
        finite &= ok
        if ok.any():
            ranks[ok, j] = rank_statistic(series[ok], prior[ok])
    for row, row_ranks, ok in zip(rows, ranks, finite):
        if ok:
            row.ranks = row_ranks
        else:
            row.fail(NonFiniteInput("rank_statistic requires finite inputs"))


def _run_block(config: RunConfig, model: GenerativeModel, quantities: tuple[Quantity, ...],
               indices) -> list[dict]:
    """Run a block of replications; returns each one's row of the rank table, or its failure.

    Each purpose's streams (prior, data, chain, rerun, VI) are derived for
    the whole block in one pass.  Priors and data are drawn per row, the
    block is fitted in lockstep, and ESS, Algorithm 2's plan and thinning
    are computed per row.  The block's Algorithm-2 reruns are fitted in one
    more lockstep call, each row for its own planned length.  Corruption is
    applied per row, then each quantity is ranked for the whole block at
    once (see :func:`_rank`).
    """
    seed = config.master_seed
    rows = [_Row(i, len(quantities)) for i in indices]
    prior_rngs, data_rngs = _streams(seed, rows, "prior"), _streams(seed, rows, "data")

    def simulate(row):
        row.theta = draw_prior(model, prior_rngs[row.i])
        row.data = draw_data(model, row.theta, data_rngs[row.i])
        row.length = config.L if config.thinning == "off" else INITIAL_CHAIN_FACTOR * config.L

    def estimate(row):
        row.ess = ess_by_quantity(row.draws, quantities)

    live = _each(rows, simulate)
    _fit(model, config, live, "chain")
    if config.thinning == "off":
        if config.sampler.kind in _MCMC_KINDS:
            _each(live, estimate)
    else:
        reruns: list[_Row] = []

        def plan(row):
            estimate(row)
            chain_plan = required_chain_length(row.length, config.L, min_ess(row.ess),
                                               config.max_chain_length)
            row.diag["cap_hit"] = chain_plan.cap_hit
            if chain_plan.length > row.length:
                row.length = chain_plan.length
                reruns.append(row)

        live = _each(live, plan)
        _fit(model, config, reruns, "chain-rerun")
        _each(reruns, estimate)

        def thin(row):
            ess_min = min_ess(row.ess)
            row.diag["ess_min"] = ess_min
            row.diag["still_short"] = bool(ess_min < config.L)
            row.draws = thin_to(row.draws, config.L)

        _each(live, thin)

    def prepare(row):
        for key in ("acceptance_rate", "divergences", "step_size"):
            if key in row.draws.diagnostics:
                row.diag[key] = row.draws.diagnostics[key]
        row.draws = corrupt(row.draws, config.corruption)

    _rank(_each(rows, prepare), quantities)
    names = tuple(q.name for q in quantities)
    return [{"replication": row.i, "diagnostics": row.diag, "failure": row.failure}
            if row.failure is not None else
            {"replication": row.i, "quantities": names, "ranks": row.ranks, "ess": row.ess,
             "chain_length": row.draws.chain_length_raw, "diagnostics": row.diag,
             "failure": None}
            for row in rows]


def _run_blocks(config: RunConfig, model: GenerativeModel, quantities: tuple[Quantity, ...],
                indices: range) -> Iterator[dict]:
    """Run the indices block by block; yields rows in order."""
    for start in range(0, len(indices), BLOCK_SIZE):
        yield from _run_block(config, model, quantities, indices[start:start + BLOCK_SIZE])


def _run_chunk(config: RunConfig, indices: range) -> list[dict]:
    """A pool task: build the model, then the rows of a range of replications."""
    return list(_run_blocks(config, *_build(config), indices))


def _collect(config: RunConfig, results) -> dict:
    """The RunArtifact fields that results determine; both executors yield them in order."""
    max_failures = math.floor(FAILURE_RATE_CAP * config.N)
    rows: list[dict] = []
    failures: list[dict] = []
    for result in results:
        if result["failure"] is None:
            rows.append(result)
            continue
        failures.append({"replication": result["replication"], "reason": result["failure"]})
        if len(failures) > max_failures:
            raise FailureRateExceeded(
                f"{len(failures)} replications failed; at most "
                f"floor({FAILURE_RATE_CAP:g} * N) = {max_failures} failures allowed at "
                f"N={config.N}; first failure: {failures[0]['reason']}")
    # The cap is below N, so at least one replication completed.
    return {
        "quantities": rows[0]["quantities"],
        "replications": np.array([r["replication"] for r in rows], dtype=np.int64),
        "ranks": np.array([r["ranks"] for r in rows], dtype=np.int64),
        "ess": np.array([r["ess"] for r in rows], dtype=np.float64),
        "chain_lengths": np.array([r["chain_length"] for r in rows], dtype=np.int64),
        "diagnostics": tuple(r["diagnostics"] for r in rows),
        "failures": tuple(failures),
    }


def run(config: RunConfig) -> RunArtifact:
    """Run every replication of a calibration.

    Replications run in blocks of up to BLOCK_SIZE, each fitted in lockstep
    (see :func:`_run_block`).  A pool worker runs whole blocks of a range of
    replications, the serial path all of them; every row draws from its own
    (seed, replication, tag) streams and computes its values within its own
    row, so the result does not depend on the block size or the worker
    count.  With ``thinning='algorithm-2'`` each MCMC chain's effective
    sample size is estimated, the chain is rerun longer when it falls short
    of L, and the draws are thinned to L before ranking.  A config that
    would fail every replication raises ConfigError before any runs.
    """
    started = time.perf_counter()
    model, quantities = _build(config)
    workers = config.worker_count_hint
    if workers == 1:
        table = _collect(config, _run_blocks(config, model, quantities, range(config.N)))
    else:
        size = min(BLOCK_SIZE, math.ceil(config.N / workers))
        chunks = [range(start, min(start + size, config.N)) for start in range(0, config.N, size)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                table = _collect(config, chain.from_iterable(
                    pool.map(partial(_run_chunk, config), chunks)))
            except FailureRateExceeded:
                pool.shutdown(wait=False, cancel_futures=True)
                raise
    return RunArtifact(config=config, **table,
                       wall_clock_seconds=time.perf_counter() - started)


# ---------------------------------------------------------------------------
# Persistence: <dir>/meta.json + <dir>/ranks.csv + <dir>/sha256sums.txt
# ---------------------------------------------------------------------------

_CSV_HEADER = ["replication", "quantity", "rank", "L", "n_eff", "raw_chain_length"]


def _ranks_csv_bytes(artifact: RunArtifact) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    n, q = artifact.ranks.shape
    writer.writerows(zip(
        np.repeat(artifact.replications, q).tolist(),
        artifact.quantities * n,
        artifact.ranks.ravel().tolist(),
        [artifact.L] * (n * q),
        ["" if math.isnan(x) else repr(x) for x in artifact.ess.ravel().tolist()],
        np.repeat(artifact.chain_lengths, q).tolist(),
    ))
    return buf.getvalue().encode("utf-8")


def _meta_json_bytes(artifact: RunArtifact) -> bytes:
    meta = {
        "format_version": artifact.format_version,
        "config": config_to_dict(artifact.config),
        "failures": list(artifact.failures),
        "diagnostics": list(artifact.diagnostics),
        "wall_clock_seconds": artifact.wall_clock_seconds,
        "n_records": artifact.ranks.size,
    }
    return (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode("utf-8")


def save_artifact(artifact: RunArtifact, path) -> Path:
    """Write the artifact directory; returns its path."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    files = {"meta.json": _meta_json_bytes(artifact), "ranks.csv": _ranks_csv_bytes(artifact)}
    checksum_lines = []
    for name, blob in files.items():
        (out / name).write_bytes(blob)
        checksum_lines.append(f"{hashlib.sha256(blob).hexdigest()}  {name}")
    (out / "sha256sums.txt").write_text("\n".join(checksum_lines) + "\n", encoding="utf-8")
    return out


def _verify_checksums(root: Path) -> None:
    """Check every file sha256sums.txt lists; meta.json and ranks.csv must be listed."""
    sums = {}
    for line in (root / "sha256sums.txt").read_text(encoding="utf-8").splitlines():
        digest, name = line.split(None, 1)
        sums[name.strip()] = digest
    unlisted = [name for name in ("meta.json", "ranks.csv") if name not in sums]
    if unlisted:
        raise ChecksumMismatch(f"sha256sums.txt has no checksum for {unlisted}")
    for name, digest in sums.items():
        actual = hashlib.sha256((root / name).read_bytes()).hexdigest()
        if actual != digest:
            raise ChecksumMismatch(f"{name}: expected sha256 {digest}, got {actual}")


def _rank_table(rows: list[list[str]], config: RunConfig, failures) -> dict:
    """The rank-table fields of a RunArtifact, from the rows of ranks.csv.

    The rows must hold one rank in [0, L] for each quantity of each completed
    replication: replications ascending, each listing the same quantities in
    the same order, every row with the run's L and its replication's raw
    chain length.
    """
    try:
        if any(len(row) != len(_CSV_HEADER) for row in rows):
            raise ValueError(f"every row must have {len(_CSV_HEADER)} fields")
        replications = np.array([int(row[0]) for row in rows], dtype=np.int64)
        ranks = np.array([int(row[2]) for row in rows], dtype=np.int64)
        L_cells = np.array([int(row[3]) for row in rows], dtype=np.int64)
        ess = np.array([float(row[4]) if row[4] else math.nan for row in rows])
        lengths = np.array([int(row[5]) for row in rows], dtype=np.int64)
    except ValueError as exc:
        raise InvalidArtifact(f"ranks.csv: {exc}") from None
    if np.any(L_cells != config.L):
        raise InvalidArtifact(f"ranks.csv has L values other than the run's L={config.L}")
    if np.any((ranks < 0) | (ranks > config.L)):
        raise InvalidArtifact(f"ranks.csv has ranks outside [0, {config.L}]")

    failed = {f["replication"] for f in failures}
    completed = [i for i in range(config.N) if i not in failed]
    n = len(completed)
    q = len(rows) // n if n else 0
    quantities = tuple(row[1] for row in rows[:q])
    if (len(rows) != n * q or (n and not q) or len(set(quantities)) != q
            or not np.array_equal(replications, np.repeat(completed, q))
            or [row[1] for row in rows] != list(quantities) * n):
        raise InvalidArtifact(
            f"ranks.csv does not hold one row per quantity for each of the {n} "
            f"completed replications")
    lengths = lengths.reshape(n, q)
    first_lengths = lengths[:, :1]
    if np.any(lengths != first_lengths):
        raise InvalidArtifact("ranks.csv: raw_chain_length differs within a replication")
    return {"quantities": quantities, "replications": np.array(completed, dtype=np.int64),
            "ranks": ranks.reshape(n, q), "ess": ess.reshape(n, q),
            "chain_lengths": first_lengths.ravel()}


def load_artifact(path) -> RunArtifact:
    """Read an artifact directory back, verifying checksums, version and the rank table."""
    root = Path(path)
    _verify_checksums(root)

    meta = json.loads((root / "meta.json").read_text(encoding="utf-8"))
    version = str(meta.get("format_version", ""))
    if version.split(".")[0] != FORMAT_VERSION.split(".")[0]:
        raise FormatVersionMismatch(
            f"artifact format {version!r} not supported by reader {FORMAT_VERSION!r}")
    raw_config = dict(meta["config"])
    if version == "1.0":
        raw_config.pop("output_path", None)  # recorded but never read; dropped in 1.1
    config = config_from_dict(raw_config)
    failures = tuple(meta["failures"])

    with (root / "ranks.csv").open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise FormatVersionMismatch(f"unexpected ranks.csv header: {header}")
        table = _rank_table(list(reader), config, failures)

    return RunArtifact(
        config=config,
        **table,
        diagnostics=tuple(meta["diagnostics"]),
        failures=failures,
        wall_clock_seconds=meta["wall_clock_seconds"],
        format_version=version,
    )
