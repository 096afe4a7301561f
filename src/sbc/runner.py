"""Replication harness: runs the calibration loop and persists artifacts.

Each replication draws a ground truth from the prior, simulates a dataset,
fits the configured sampler, and records the rank of the ground truth within
the posterior draws for every quantity of interest.  Replications are
embarrassingly parallel; every random stream is derived from
(master_seed, replication index, purpose tag), so results are bit-identical
no matter how many workers execute them.
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

import numpy as np

from .errors import (
    ChecksumMismatch,
    ConfigError,
    FailureRateExceeded,
    FormatVersionMismatch,
    InvalidArtifact,
    SbcError,
    UnknownQuantity,
)
from .ess import ess_by_quantity, min_ess, required_chain_length, thin_to
from .model import GenerativeModel, Quantity, draw_data, draw_prior, evaluate_series
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
        model_from_dict(d["model"])  # validate eagerly for fast feedback
    except SbcError as exc:
        raise ConfigError(f"invalid model spec: {exc}") from exc
    kwargs = {k: v for k, v in d.items() if k not in ("model", "sampler", "corruption")}
    try:
        return RunConfig(
            model=dict(d["model"]),
            sampler=_sub_config(SamplerConfig, d["sampler"], "sampler"),
            corruption=_sub_config(Corruption, d.get("corruption", {}), "corruption"),
            **kwargs,
        )
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


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


def _sample_once(model: GenerativeModel, data, config: RunConfig, n_draws: int,
                 seed: int, i: int, tag: str):
    cfg = config.sampler
    rng = RandomStream(seed, i, tag)
    if cfg.kind == "exact-conjugate":
        return sample_exact_conjugate(model, data, n_draws, rng)
    if cfg.kind == "rw-metropolis":
        return sample_rw_metropolis(model, data, n_draws, cfg.step_size, cfg.warmup, rng)
    if cfg.kind == "hmc":
        return sample_hmc(model, data, n_draws, cfg.step_size, cfg.n_leapfrog,
                          cfg.warmup, rng)
    approx = fit_meanfield_vi(model, data, cfg.vi_iterations, cfg.vi_learning_rate,
                              RandomStream(seed, i, "vi"))
    return approx.sample(n_draws, rng)


def _build(config: RunConfig) -> tuple[GenerativeModel, tuple[Quantity, ...]]:
    """The run's model, and its quantities in the rank table's column order (by name)."""
    model = model_from_dict(config.model)
    return model, tuple(sorted(model.quantities, key=lambda q: q.name))


def _replicate(config: RunConfig, model: GenerativeModel, quantities: tuple[Quantity, ...],
               i: int) -> dict:
    """Run one replication; returns its row of the rank table, or a failure."""
    seed = config.master_seed
    diag: dict = {"replication": i}
    try:
        theta = draw_prior(model, RandomStream(seed, i, "prior"))
        data = draw_data(model, theta, RandomStream(seed, i, "data"))

        ess = np.full(len(quantities), np.nan)
        if config.thinning == "off":
            draws = _sample_once(model, data, config, config.L, seed, i, "chain")
            if config.sampler.kind in _MCMC_KINDS:
                ess = ess_by_quantity(draws, quantities)
        else:
            initial = INITIAL_CHAIN_FACTOR * config.L
            draws = _sample_once(model, data, config, initial, seed, i, "chain")
            ess = ess_by_quantity(draws, quantities)
            ess_min = min_ess(ess)
            plan = required_chain_length(initial, config.L, ess_min, config.max_chain_length)
            diag["cap_hit"] = plan.cap_hit
            if plan.length > initial:
                draws = _sample_once(model, data, config, plan.length, seed, i, "chain-rerun")
                ess = ess_by_quantity(draws, quantities)
                ess_min = min_ess(ess)
            diag["ess_min"] = ess_min
            diag["still_short"] = bool(ess_min < config.L)
            draws = thin_to(draws, config.L)

        for key in ("acceptance_rate", "divergences", "step_size"):
            if key in draws.diagnostics:
                diag[key] = draws.diagnostics[key]

        draws = corrupt(draws, config.corruption)

        prior_point = theta.values[np.newaxis]
        ranks = [rank_statistic(evaluate_series(q, draws),
                                float(q.batch_evaluator(prior_point, theta.names)[0]))
                 for q in quantities]
        return {"replication": i, "quantities": tuple(q.name for q in quantities),
                "ranks": ranks, "ess": ess, "chain_length": draws.chain_length_raw,
                "diagnostics": diag, "failure": None}
    except SbcError as exc:
        return {"replication": i, "diagnostics": diag,
                "failure": f"{type(exc).__name__}: {exc}"}


def _replicate_chunk(config: RunConfig, indices: range) -> list[dict]:
    """Run a block of replications in a worker process, building the model once."""
    model, quantities = _build(config)
    return [_replicate(config, model, quantities, i) for i in indices]


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

    With ``thinning='algorithm-2'`` each MCMC chain's effective sample size
    is estimated, the chain is rerun longer when it falls short of L, and
    the draws are thinned to L before ranking.
    """
    started = time.perf_counter()
    workers = config.worker_count_hint
    if workers == 1:
        model, quantities = _build(config)
        table = _collect(config, (_replicate(config, model, quantities, i)
                                  for i in range(config.N)))
    else:
        size = max(1, config.N // (workers * 8))
        chunks = [range(start, min(start + size, config.N)) for start in range(0, config.N, size)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                table = _collect(config, chain.from_iterable(
                    pool.map(partial(_replicate_chunk, config), chunks)))
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
