"""Replication harness: runs the calibration loop and persists artifacts.

Each replication draws a ground truth from the prior, simulates a dataset,
fits the configured sampler, and ranks the ground truth among the posterior
draws for every quantity of interest.  Replications are independent, so they
run in blocks, and a block runs as one table of arrays indexed by row, from
simulation to rank: (R, d) priors and (R, n) data, each checked once, one
sampler call's (R, n, d) draws, thinned in one gather, (R, Q) ESS and ranks,
and one (R,) column per health measure.  A quantity reads any (..., d) array
in its model's column order, so it is evaluated on the stacked priors and
draws directly.  A failed row keeps the reason it failed and leaves the
index array of live rows; the others go on.  Each block returns its
completed rows as arrays, with each row's ``meta.json`` object built once
from its health columns, and the run concatenates them.
Every random stream is derived from (master_seed, replication index, purpose
tag), through one Philox generator per purpose and run or pool chunk (see
:mod:`sbc.streams`), and the batched densities and quantities keep each
row's arithmetic within its row, so results are bit-identical for any block
size and any number of workers.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re
import time
from dataclasses import dataclass
from functools import partial
from itertools import chain, groupby
from pathlib import Path
from typing import Iterator

import numpy as np

from .config import (
    FAILURE_RATE_CAP,
    MCMC_KINDS,
    RunConfig,
    config_from_dict,
    config_to_dict,
)
from .errors import (
    BOOLEAN,
    NON_NEGATIVE,
    POSITIVE,
    AllConstant,
    ChecksumMismatch,
    FailureRateExceeded,
    FormatVersionMismatch,
    InvalidArtifact,
    NonFiniteInput,
    NonFiniteParameter,
    Rule,
    SbcError,
    UnknownQuantity,
    integer,
)
from .ess import ess_by_quantity, required_chain_length, thin_to
from .model import GenerativeModel, Quantity
from .models import model_from_dict
from .rankstats import rank_statistic
from .samplers import (
    corrupt,
    fit_meanfield_vi,
    sample_exact_conjugate,
    sample_hmc,
    sample_rw_metropolis,
)
from .streams import Streams

FORMAT_VERSION = "1.1"
INITIAL_CHAIN_FACTOR = 10
# Replications run in blocks of at most BLOCK_SIZE rows, fitted in lockstep.
BLOCK_SIZE = 128
# A lockstep fit holds its noise as one (steps, rows, d) float64 array, and an
# MCMC chain of about the same size; a block is fitted in groups of rows for
# which that array has at most BLOCK_FLOATS entries (16 MiB), which caps the
# memory of Algorithm 2's long reruns.
BLOCK_FLOATS = 2**21


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

    def ess_columns(self, quantities) -> np.ndarray:
        """The quantities' effective sample sizes, a column each, NaN where there is none."""
        return self.ess[:, [self._column(q) for q in quantities]]

    @property
    def L(self) -> int:
        return self.config.L


def _build(config: RunConfig) -> tuple[GenerativeModel, tuple[Quantity, ...]]:
    """The run's model, which ``config`` was checked against when it was made, and its
    quantities in the rank table's column order (by name)."""
    model = model_from_dict(config.model)
    return model, tuple(sorted(model.quantities, key=lambda q: q.name))


class _Block:
    """The rows of one block while it runs, as arrays indexed by row: replication, chain
    length, ESS (NaN until the row's chain has one), why the row failed (None while it is
    live), and ``health``, one (R,) column per measure of ``meta.json``'s diagnostics: the
    sampler's (:class:`sbc.samplers.DrawBlock`), and with Algorithm 2 ``cap_hit``,
    ``ess_min`` and ``still_short``.  A live row has a value in every column."""

    __slots__ = ("replications", "lengths", "ess", "health", "reasons")

    def __init__(self, indices, n_quantities: int, length: int):
        self.replications = np.asarray(indices, dtype=np.int64)
        self.lengths = np.full(len(indices), length)
        self.ess = np.full((len(indices), n_quantities), np.nan)
        self.health: dict[str, np.ndarray] = {}
        self.reasons = np.full(len(indices), None, dtype=object)

    def fail(self, rows, exc: SbcError) -> None:
        """Fail a row, or an index array of rows, for ``exc``."""
        self.reasons[rows] = f"{type(exc).__name__}: {exc}"

    def live(self, rows: np.ndarray) -> np.ndarray:
        """The rows of ``rows`` that have not failed."""
        return rows[np.equal(self.reasons[rows], None)]

    def record(self, rows: np.ndarray, **columns: np.ndarray) -> None:
        """Set ``rows``' values of each named health column."""
        for name, values in columns.items():
            column = np.zeros(len(self.replications), values.dtype)
            self.health.setdefault(name, column)[rows] = values

    def ess_floor(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Algorithm 2's floor: each of ``rows``' smallest ESS over the quantities that have
        one.  Rows with none fail (AllConstant); returns the others and their floors."""
        floor = np.fmin.reduce(self.ess[rows], axis=1, initial=np.nan)
        missing = np.isnan(floor)
        self.fail(rows[missing],
                  AllConstant("every quantity is constant or degenerate over the chain"))
        return rows[~missing], floor[~missing]


def _simulate(model: GenerativeModel, streams: Streams,
              block: _Block) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw the block's priors and data; returns the live rows, the (R, d) priors and the
    (R, n) observations, both indexed by row.

    Each row draws its prior, then its data given that prior, from its own
    streams.  The priors are stacked and checked once: a row with a
    non-finite prior fails (NonFiniteParameter) and draws no data.  The
    others' observations are stacked and checked once: a row with non-finite
    data fails (NonFiniteInput).
    """
    rows = np.arange(len(block.replications))
    with np.errstate(all="ignore"):  # a non-finite draw fails its row below
        priors = np.array([model.prior_simulator(rng) for rng
                           in streams(block.replications.tolist(), "prior")],
                          dtype=np.float64).reshape(len(rows), len(model.parameter_names))
        finite = np.isfinite(priors).all(axis=1)
        for r in rows[~finite].tolist():
            block.fail(r, NonFiniteParameter(f"non-finite parameter values: {priors[r]}"))
        rows = rows[finite]
        if not rows.size:
            return rows, priors, np.empty((len(priors), 0))
        data = np.array([model.data_simulator(theta, rng) for theta, rng
                         in zip(priors[rows], streams(block.replications[rows].tolist(), "data"))],
                        dtype=np.float64).reshape(len(rows), -1)
    observations = np.empty((len(priors), data.shape[1]))
    observations[rows] = data
    finite = np.isfinite(data).all(axis=1)
    block.fail(rows[~finite], NonFiniteInput("simulated observations must be finite"))
    return rows[finite], priors, observations


def _fit(model: GenerativeModel, config: RunConfig, quantities: tuple[Quantity, ...],
         streams: Streams, block: _Block, observations: np.ndarray, draws: np.ndarray,
         rows: np.ndarray, tag: str) -> None:
    """Fit each row's dataset for the row's chain length; fails the row, or sets its
    health, its ESS and its L thinned draws, ``draws[r]``.

    Rows are fitted with the MCMC or VI sampler in lockstep, longest first,
    in groups whose noise array holds at most BLOCK_FLOATS values, each group
    with its own block of streams; the rows of a group may differ in length.
    A group's (R, n, d) draws are thinned in one gather (:func:`thin_to`),
    and an MCMC group's ESS is estimated from them, one
    :func:`ess_by_quantity` call per run of equal-length rows.
    """
    cfg = config.sampler
    rows = rows[np.argsort(-block.lengths[rows], kind="stable")]
    start = 0
    while start < len(rows):
        n_steps = int(block.lengths[rows[start]])
        steps = cfg.vi_iterations if cfg.kind == "meanfield-vi" else n_steps + cfg.warmup
        group = rows[start:start + max(1, BLOCK_FLOATS // (steps * len(model.parameter_names)))]
        data, lengths = observations[group], block.lengths[group]
        indices = block.replications[group].tolist()
        rngs = streams(indices, tag)
        if cfg.kind == "meanfield-vi":
            fit = fit_meanfield_vi(model, data, cfg.vi_iterations, cfg.vi_learning_rate,
                                   streams(indices, "vi"), n_steps, rngs)
        elif cfg.kind == "rw-metropolis":
            fit = sample_rw_metropolis(model, data, n_steps, cfg.step_size, cfg.warmup,
                                       rngs, lengths)
        else:
            fit = sample_hmc(model, data, n_steps, cfg.step_size, cfg.n_leapfrog,
                             cfg.warmup, rngs, lengths)
        for k, exc in fit.failures.items():
            block.fail(group[k], exc)
        block.record(group, **fit.health)
        draws[group] = thin_to(fit.draws, config.L, lengths)
        if cfg.kind in MCMC_KINDS:
            first = 0
            for n, run in groupby(lengths.tolist()):
                stop = first + len(list(run))
                block.ess[group[first:stop]] = ess_by_quantity(fit.draws[first:stop, :n],
                                                               quantities)
                first = stop
        start += len(group)


def _rank(draws: np.ndarray, priors: np.ndarray,
          quantities: tuple[Quantity, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The rows' (R, Q) ranks and which rows have them; one :func:`rank_statistic` call
    per quantity.

    Row r's (L, d) draws ``draws[r]`` are ranked against its prior
    ``priors[r]``, both in the model's column order.  Each quantity is
    evaluated once on the block's draws and once on its priors.  A
    row with a non-finite value of any quantity has no ranks; the others are
    ranked, and rows are copied out only when one is non-finite.
    """
    ranks = np.zeros((len(draws), len(quantities)), dtype=np.int64)
    finite = np.ones(len(draws), dtype=bool)
    for j, q in enumerate(quantities):
        series, prior = q.batch_evaluator(draws), q.batch_evaluator(priors)
        ok = np.isfinite(series).all(axis=1) & np.isfinite(prior)
        finite &= ok
        if ok.all():
            ranks[:, j] = rank_statistic(series, prior)
        elif ok.any():
            ranks[ok, j] = rank_statistic(series[ok], prior[ok])
    return ranks, finite


def _run_block(config: RunConfig, model: GenerativeModel, quantities: tuple[Quantity, ...],
               streams: Streams, indices) -> dict:
    """Run a block of replications as one table; returns its completed rows' replications
    (R,), ranks (R, Q), ESS (R, Q), chain lengths (R,) and diagnostics, and its failures
    in replication order.

    Each purpose's streams (prior, data, chain, rerun, VI) come from
    ``streams``, which keys each purpose once per run or pool chunk.  The
    block's priors and data are drawn row by row and checked as stacked
    arrays (see :func:`_simulate`).  The exact sampler draws the live rows'
    (R, L, 1) draws in one call; the MCMC and VI samplers fit them in
    lockstep (see :func:`_fit`).  With Algorithm 2, the block's ESS floors
    are taken at once (:meth:`_Block.ess_floor`), each row's plan is made from
    its floor, the rows that fall short are refitted in one more lockstep
    call, each for its own planned length, and the floors are taken again.
    Corruption is applied to the live rows' draws, then each quantity is
    ranked for them all at once (see :func:`_rank`).
    """
    L, names = config.L, model.parameter_names
    block = _Block(indices, len(quantities), L if config.thinning == "off"
                   else min(INITIAL_CHAIN_FACTOR * L, config.max_chain_length))
    live, priors, observations = _simulate(model, streams, block)
    if config.sampler.kind == "exact-conjugate":
        draws = sample_exact_conjugate(model, observations[live], L,
                                       streams(block.replications[live].tolist(), "chain"))
    else:
        draws = np.empty((len(priors), L, len(names)))
        _fit(model, config, quantities, streams, block, observations, draws, live, "chain")
        if config.thinning != "off":
            rows, floor = block.ess_floor(block.live(live))
            plans = np.array([required_chain_length(n, L, ess_min, config.max_chain_length)
                              for n, ess_min in zip(block.lengths[rows].tolist(), floor.tolist())],
                             dtype=np.int64).reshape(-1, 2)  # (length, cap_hit) per row
            reruns = rows[plans[:, 0] > block.lengths[rows]]
            block.lengths[rows] = plans[:, 0]
            block.record(rows, cap_hit=plans[:, 1].astype(bool))
            _fit(model, config, quantities, streams, block, observations, draws, reruns,
                 "chain-rerun")
            rows, floor = block.ess_floor(block.live(rows))
            block.record(rows, ess_min=floor, still_short=floor < L)
        live = block.live(live)
        draws = draws[live]
    ranks = np.empty((0, len(quantities)), dtype=np.int64)
    if live.size:  # rank_statistic needs at least one row
        ranks, finite = _rank(corrupt(draws, names, config.corruption), priors[live],
                              quantities)
        block.fail(live[~finite], NonFiniteInput("rank_statistic requires finite inputs"))
        live, ranks = live[finite], ranks[finite]
    health = zip(block.replications[live].tolist(),
                 *(column[live].tolist() for column in block.health.values()))
    return {"replications": block.replications[live], "ranks": ranks, "ess": block.ess[live],
            "chain_lengths": block.lengths[live],
            "diagnostics": [dict(zip(("replication", *block.health), row)) for row in health],
            "failures": [{"replication": i, "reason": reason}
                         for i, reason in zip(block.replications.tolist(), block.reasons.tolist())
                         if reason is not None]}


def _run_blocks(config: RunConfig, model: GenerativeModel, quantities: tuple[Quantity, ...],
                indices: range) -> Iterator[dict]:
    """Run the indices block by block, with one Philox key per tag; yields the blocks'
    tables in order."""
    streams = Streams(config.master_seed)
    for start in range(0, len(indices), BLOCK_SIZE):
        yield _run_block(config, model, quantities, streams, indices[start:start + BLOCK_SIZE])


def _run_chunk(config: RunConfig, indices: range) -> list[dict]:
    """A pool task: build the model, then the tables of a range of replications' blocks."""
    return list(_run_blocks(config, *_build(config), indices))


def _collect(config: RunConfig, tables) -> dict:
    """The RunArtifact fields that the blocks' tables determine, concatenated; both
    executors yield the tables in order.  The run aborts once more than
    floor(FAILURE_RATE_CAP * N) replications have failed."""
    max_failures = math.floor(FAILURE_RATE_CAP * config.N)
    done: list[dict] = []
    failures: list[dict] = []
    for table in tables:
        failures += table["failures"]
        if len(failures) > max_failures:
            raise FailureRateExceeded(
                f"{max_failures + 1} replications failed; at most "
                f"floor({FAILURE_RATE_CAP:g} * N) = {max_failures} failures allowed at "
                f"N={config.N}; first failure: {failures[0]['reason']}")
        done.append(table)
    return {**{key: np.concatenate([table[key] for table in done])
               for key in ("replications", "ranks", "ess", "chain_lengths")},
            "diagnostics": tuple(chain.from_iterable(table["diagnostics"] for table in done)),
            "failures": tuple(failures)}


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run(config: RunConfig) -> RunArtifact:
    """Run every replication of a calibration.

    Replications run in blocks of up to BLOCK_SIZE, each fitted in lockstep
    (see :func:`_run_block`).  A pool worker runs whole blocks of a range of
    replications, the serial path all of them; every row draws from its own
    (seed, replication, tag) streams and computes its values within its own
    row, so the result does not depend on the block size or the worker
    count, which is capped at the CPUs this process may use.  With
    ``thinning='algorithm-2'`` each MCMC chain's effective sample size is
    estimated, the chain is rerun longer when it falls short of L, and the
    draws are thinned to L before ranking.  A config that would fail every
    replication is refused with ConfigError when the RunConfig is made, so
    it never reaches a run.
    """
    started = time.perf_counter()
    model, quantities = _build(config)
    workers = min(config.worker_count_hint, _usable_cpus())
    if workers == 1:
        table = _collect(config, _run_blocks(config, model, quantities, range(config.N)))
    else:
        from concurrent.futures import ProcessPoolExecutor  # a serial run never loads the pool

        size = min(BLOCK_SIZE, math.ceil(config.N / workers))
        chunks = [range(start, min(start + size, config.N)) for start in range(0, config.N, size)]
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            try:
                table = _collect(config, chain.from_iterable(
                    pool.map(partial(_run_chunk, config), chunks)))
            except FailureRateExceeded:
                pool.shutdown(wait=False, cancel_futures=True)
                raise
    return RunArtifact(config=config, quantities=tuple(q.name for q in quantities), **table,
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
        "format_version": FORMAT_VERSION,
        "config": config_to_dict(artifact.config),
        "failures": list(artifact.failures),
        "diagnostics": list(artifact.diagnostics),
        "wall_clock_seconds": artifact.wall_clock_seconds,
        "n_records": artifact.ranks.size,
    }
    return (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode("utf-8")


def save_artifact(artifact: RunArtifact, path) -> Path:
    """Write the artifact directory, at this writer's FORMAT_VERSION; returns its path."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    files = {"meta.json": _meta_json_bytes(artifact), "ranks.csv": _ranks_csv_bytes(artifact)}
    checksum_lines = []
    for name, blob in files.items():
        (out / name).write_bytes(blob)
        checksum_lines.append(f"{hashlib.sha256(blob).hexdigest()}  {name}")
    (out / "sha256sums.txt").write_text("\n".join(checksum_lines) + "\n", encoding="utf-8")
    return out


def _parsed(name: str, blob: bytes, parse):
    """``parse`` of the UTF-8 text of artifact file ``name``; a file that does not decode or
    parse, nested too deep for a parser or past a csv field's size limit included, raises
    InvalidArtifact."""
    try:
        return parse(blob.decode("utf-8"))
    except (ValueError, RecursionError, csv.Error) as exc:  # ValueError covers decode errors
        raise InvalidArtifact(f"{name} does not parse: {exc}") from None


def _read(root: Path, name: str) -> bytes:
    """The bytes of artifact file ``name``, which must not be a symbolic link."""
    if (root / name).is_symlink():
        raise InvalidArtifact(f"{name} is a symbolic link; an artifact's files must be in "
                              f"its directory")
    return (root / name).read_bytes()


def _verified_files(root: Path) -> dict[str, bytes]:
    """The bytes of every file sha256sums.txt lists, each checked against its checksum;
    meta.json and ranks.csv must be listed, and no file twice.  Each line must be a
    lowercase 64-hex-digit SHA-256, two spaces and the plain name of a file in the
    artifact directory, and neither that file nor sha256sums.txt may be a symbolic link,
    so no file outside the directory is read."""
    sums = {}
    for line in _parsed("sha256sums.txt", _read(root, "sha256sums.txt"), str.splitlines):
        match = re.fullmatch(r"([0-9a-f]{64})  ([^/\\\0]+)", line)
        if match is None or match[2] in (".", ".."):
            raise InvalidArtifact(f"sha256sums.txt: {line!r} is not a SHA-256 digest, two "
                                  f"spaces and a file name")
        if match[2] in sums:
            raise InvalidArtifact(f"sha256sums.txt lists {match[2]!r} more than once")
        sums[match[2]] = match[1]
    unlisted = [name for name in ("meta.json", "ranks.csv") if name not in sums]
    if unlisted:
        raise ChecksumMismatch(f"sha256sums.txt has no checksum for {unlisted}")
    blobs = {}
    for name, digest in sums.items():
        blobs[name] = _read(root, name)
        actual = hashlib.sha256(blobs[name]).hexdigest()
        if actual != digest:
            raise ChecksumMismatch(f"{name}: expected sha256 {digest}, got {actual}")
    return blobs


# What each value of a meta.json diagnostics entry must be, by the key the writer gives
# it; an entry's other keys are not read.
_DIAGNOSTIC_VALUES = {
    "acceptance_rate": Rule("a float in [0, 1]", lambda v: type(v) is float and 0 <= v <= 1),
    "divergences": integer(0),
    "step_size": NON_NEGATIVE,
    "cap_hit": BOOLEAN,
    "still_short": BOOLEAN,
    "ess_min": POSITIVE,
}


def _checked_failures(meta: dict, config: RunConfig) -> tuple[tuple[dict, ...], list[int]]:
    """meta.json's failures, objects with a unique replication in [0, N) and a reason, and
    the completed replications.  Its diagnostics must hold one object per completed
    replication, naming it, in ascending order (that of ranks.csv), each of whose values
    is what its key's entry in ``_DIAGNOSTIC_VALUES`` requires.

    The completed replications are read from the diagnostics: N - len(failures) of them,
    ascending, in [0, N) and none failed, which is the rest of range(N) in order, so the
    check's memory grows with the files and not with N."""
    failures, diagnostics = meta["failures"], meta["diagnostics"]
    if not (isinstance(failures, list) and all(
            isinstance(f, dict) and type(f.get("replication")) is int
            and 0 <= f["replication"] < config.N and isinstance(f.get("reason"), str)
            for f in failures)):
        raise InvalidArtifact(f"meta.json: failures must be a list of objects with an integer "
                              f"replication in [0, {config.N}) and a string reason")
    failed = {f["replication"] for f in failures}
    if len(failed) != len(failures):
        raise InvalidArtifact("meta.json: a replication is listed as failed more than once")
    shape = (f"meta.json: diagnostics must be a list of {config.N - len(failed)} objects, one "
             f"per completed replication, ascending, each naming its replication")
    if not (isinstance(diagnostics, list) and len(diagnostics) + len(failed) == config.N):
        raise InvalidArtifact(shape)
    completed: list[int] = []
    for d in diagnostics:
        i = d.get("replication") if isinstance(d, dict) else None
        if not (type(i) is int and (completed[-1] if completed else -1) < i < config.N
                and i not in failed):
            raise InvalidArtifact(shape)
        completed.append(i)
        if len(d) == 1:  # the replication alone, as with the exact sampler
            continue
        for key, value in d.items():
            rule = _DIAGNOSTIC_VALUES.get(key)
            if rule is not None and not rule.test(value):
                raise InvalidArtifact(f"meta.json: diagnostics of replication {i}: {key} "
                                      f"must be {rule.text}, got {value!r}")
    return tuple(failures), completed


def _rank_table(rows: list[list[str]], config: RunConfig, completed: list[int]) -> dict:
    """The rank-table fields of a RunArtifact, from the rows of ranks.csv.

    The rows must hold one rank in [0, L] for each quantity of each completed
    replication: replications ascending, each listing the same quantities in
    the same order, every row with the run's L, an ``n_eff`` that is empty
    or finite and positive, and its replication's raw chain length, at
    least L.
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
    estimated = ess[[bool(row[4]) for row in rows]]
    if not np.all(np.isfinite(estimated) & (estimated > 0)):
        raise InvalidArtifact("ranks.csv has an n_eff that is neither empty nor finite and "
                              "positive")
    if np.any(lengths < config.L):
        raise InvalidArtifact(f"ranks.csv has a raw_chain_length below L={config.L}")

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
    """Read an artifact directory back, verifying checksums, version, meta.json and the rank
    table, whose size meta.json's ``n_records`` must give.  It parses the bytes whose
    checksums it checked, so each file is read once.  A file that does not decode as UTF-8
    or parse raises InvalidArtifact."""
    blobs = _verified_files(Path(path))
    meta = _parsed("meta.json", blobs["meta.json"], json.loads)
    if not isinstance(meta, dict):
        raise InvalidArtifact("meta.json must hold a JSON object")
    version = str(meta.get("format_version", ""))
    if version.split(".")[0] != FORMAT_VERSION.split(".")[0]:
        raise FormatVersionMismatch(
            f"artifact format {version!r} not supported by reader {FORMAT_VERSION!r}")
    missing = [key for key in ("failures", "diagnostics", "wall_clock_seconds", "n_records")
               if key not in meta]
    if missing:
        raise InvalidArtifact(f"meta.json has no {missing[0]!r} key")
    seconds = meta["wall_clock_seconds"]
    if not NON_NEGATIVE.test(seconds):
        raise InvalidArtifact(f"meta.json: wall_clock_seconds must be {NON_NEGATIVE.text}, "
                              f"got {seconds!r}")
    if not isinstance(meta.get("config"), dict):
        raise InvalidArtifact("meta.json: config must be an object")
    raw_config = dict(meta["config"])
    if version == "1.0":
        raw_config.pop("output_path", None)  # recorded but never read; dropped in 1.1
    config = config_from_dict(raw_config)
    failures, completed = _checked_failures(meta, config)

    rows = _parsed("ranks.csv", blobs["ranks.csv"],
                   lambda text: list(csv.reader(io.StringIO(text, newline=""))))
    header = rows[0] if rows else None
    if header != _CSV_HEADER:
        raise FormatVersionMismatch(f"unexpected ranks.csv header: {header}")
    table = _rank_table(rows[1:], config, completed)
    n_records = meta["n_records"]
    if not (type(n_records) is int and n_records == table["ranks"].size):
        raise InvalidArtifact(f"meta.json: n_records must be the rank table's "
                              f"{table['ranks'].size} records, got {n_records!r}")

    return RunArtifact(
        config=config,
        **table,
        diagnostics=tuple(meta["diagnostics"]),
        failures=failures,
        wall_clock_seconds=seconds,
    )
