"""Per-layer metrics computed from one traced verdict.

Each entry names the hooks it rests on (as `tracing.Patches.missing` spells
them); when one of them could not be installed the metric is reported
missing instead of being computed from partial data.  Times named `*_s` are
totals over the verdict, `*_us` are means per call, and counts are exact.
Span times are self times (children excluded) where the layer wraps another
traced layer: `samplers.self_s`, `runner.self_s`, `report.summarize_s` and
`report.svg_s`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median
from typing import Callable

from tracing import FitLog, Tracer

# Hook names, as `tracing.Patches.missing` reports them.
RUN, SAVE, LOAD = "sbc.runner.run", "sbc.runner.save_artifact", "sbc.runner.load_artifact"
BUILD = "sbc.models.model_from_dict"
STREAM = "sbc.streams.RandomStream.__init__"
TARGET = "sbc.model.posterior_target"
HMC, EXACT = "sbc.samplers.sample_hmc", "sbc.samplers.sample_exact_conjugate"
ESS, PLAN = "sbc.ess.ess_by_quantity", "sbc.ess.required_chain_length"
RANK, ECDF, HIST = ("sbc.rankstats.rank_statistic", "sbc.rankstats.ecdf_summary",
                    "sbc.rankstats.build_histogram")
SUMMARIZE = "sbc.report.summarize"
SVG = ("sbc.report.render_histogram_svg", "sbc.report.render_ecdf_svg")
FITS = (HMC, EXACT)

# Share of replications counted as the slow tail by `samplers.tail_share`.
TAIL_FRACTION = 0.10


@dataclass
class TracedVerdict:
    """What the per-layer metrics need to know about the traced verdict."""

    tracer: Tracer
    fits: FitLog
    completed: int  # replications that produced ranks
    L: int
    artifact_bytes: int
    report_bytes: int
    reps_per_s_traced: float
    reps_per_s_untraced: float


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    needs: tuple[str, ...]
    compute: Callable[[TracedVerdict], float]
    better: str = "lower"  # work counts, times and bytes; rates and yields are "higher"


def _s(ns: int) -> float:
    return ns / 1e9


def _leaf_count(name):
    return lambda v: v.tracer.leaves[name][0]


def _leaf_us(name):
    def compute(v: TracedVerdict) -> float:
        count, ns = v.tracer.leaves[name]
        return ns / count / 1e3 if count else 0.0
    return compute


def _total_s(name):
    return lambda v: _s(v.tracer.total_ns[name])


def _self_s(name):
    return lambda v: _s(v.tracer.self_ns[name])


def _per_rep_fit_s(v: TracedVerdict) -> list[float]:
    by_rep: dict[int, int] = {}
    for fit in v.fits.fits:
        by_rep[fit["rep"]] = by_rep.get(fit["rep"], 0) + fit["ns"]
    return [_s(ns) for ns in by_rep.values()]


def _tail_share(v: TracedVerdict) -> float:
    times = sorted(_per_rep_fit_s(v), reverse=True)
    if not times:
        return 0.0
    k = math.ceil(TAIL_FRACTION * len(times))
    return sum(times[:k]) / sum(times)


def _reruns(v: TracedVerdict) -> list[dict]:
    """Every fit after the first of its replication (Algorithm 2's longer rerun)."""
    seen: set[int] = set()
    out = []
    for fit in v.fits.fits:
        if fit["rep"] in seen:
            out.append(fit)
        seen.add(fit["rep"])
    return out


def _steps(v: TracedVerdict) -> int:
    return sum(f["steps"] for f in v.fits.fits)


def _kept_ratio(v: TracedVerdict) -> float:
    sampled = sum(f["kept_steps"] for f in v.fits.fits)
    return v.L * v.completed / sampled if sampled else 0.0


def _median_or_zero(values) -> float:
    values = list(values)
    return float(median(values)) if values else 0.0


LAYER_METRICS: tuple[LayerMetric, ...] = (
    LayerMetric("model.grad_calls", "count", (TARGET,), _leaf_count("model.grad")),
    LayerMetric("model.logp_calls", "count", (TARGET,), _leaf_count("model.logp")),
    LayerMetric("model.grad_us", "us", (TARGET,), _leaf_us("model.grad")),
    LayerMetric("model.logp_us", "us", (TARGET,), _leaf_us("model.logp")),

    LayerMetric("samplers.fit_s", "s", FITS, _total_s("samplers.fit")),
    LayerMetric("samplers.self_s", "s", FITS + (TARGET,), _self_s("samplers.fit")),
    LayerMetric("samplers.steps", "count", FITS, _steps),
    LayerMetric("samplers.steps_per_s", "1/s", FITS,
                lambda v: _steps(v) / max(_s(v.tracer.total_ns["samplers.fit"]), 1e-9), "higher"),
    LayerMetric("samplers.fit_p50_s", "s", FITS, lambda v: _median_or_zero(_per_rep_fit_s(v))),
    LayerMetric("samplers.fit_max_s", "s", FITS, lambda v: max(_per_rep_fit_s(v), default=0.0)),
    LayerMetric("samplers.tail_share", "fraction", FITS, _tail_share),
    LayerMetric("samplers.accept_p50", "fraction", FITS,
                lambda v: _median_or_zero(f["accept"] for f in v.fits.fits), "higher"),
    LayerMetric("samplers.divergences", "count", FITS,
                lambda v: sum(f["divergences"] for f in v.fits.fits)),

    LayerMetric("ess.s", "s", (ESS,), _total_s("ess.estimate")),
    LayerMetric("ess.calls", "count", (ESS,), lambda v: v.tracer.calls["ess.estimate"]),
    LayerMetric("ess.rerun_count", "count", FITS, lambda v: len(_reruns(v))),
    LayerMetric("ess.rerun_steps", "count", FITS,
                lambda v: sum(f["kept_steps"] for f in _reruns(v))),
    LayerMetric("ess.cap_hit", "count", (PLAN,), lambda v: v.fits.cap_hits),
    LayerMetric("ess.kept_ratio", "fraction", FITS, _kept_ratio, "higher"),

    LayerMetric("streams.created", "count", (STREAM,), _leaf_count("streams.create")),
    LayerMetric("streams.create_us", "us", (STREAM,), _leaf_us("streams.create")),

    LayerMetric("models.build_calls", "count", (BUILD,), lambda v: v.tracer.calls["models.build"]),
    LayerMetric("models.build_us", "us", (BUILD,),
                lambda v: (v.tracer.total_ns["models.build"] / v.tracer.calls["models.build"] / 1e3
                           if v.tracer.calls["models.build"] else 0.0)),

    LayerMetric("rankstats.rank_calls", "count", (RANK,), _leaf_count("rankstats.rank")),
    LayerMetric("rankstats.rank_us", "us", (RANK,), _leaf_us("rankstats.rank")),
    LayerMetric("rankstats.ecdf_calls", "count", (ECDF,), lambda v: v.tracer.calls["rankstats.ecdf"]),
    LayerMetric("rankstats.ecdf_s", "s", (ECDF,), _total_s("rankstats.ecdf")),
    LayerMetric("rankstats.histogram_s", "s", (HIST,), _total_s("rankstats.histogram")),

    LayerMetric("report.summarize_s", "s", (SUMMARIZE, HIST), _self_s("report.summarize")),
    LayerMetric("report.svg_s", "s", SVG + (ECDF, HIST), _self_s("report.svg")),
    LayerMetric("report.bytes_written", "bytes", (), lambda v: v.report_bytes),

    LayerMetric("runner.self_s", "s", (RUN, BUILD, STREAM, TARGET, RANK, ESS) + FITS,
                _self_s("runner.run")),
    LayerMetric("runner.save_s", "s", (SAVE,), _total_s("runner.save")),
    LayerMetric("runner.load_s", "s", (LOAD,), _total_s("runner.load")),
    LayerMetric("runner.artifact_bytes", "bytes", (), lambda v: v.artifact_bytes),

    LayerMetric("trace.reps_per_s_traced", "1/s", (), lambda v: v.reps_per_s_traced, "higher"),
    LayerMetric("trace.reps_per_s_untraced", "1/s", (), lambda v: v.reps_per_s_untraced,
                "higher"),
)

# Counts that must repeat exactly between two traced verdicts of one config.
EXACT_COUNTS = ("model.grad_calls", "samplers.steps", "ess.rerun_steps",
                "streams.created", "rankstats.ecdf_calls")


def layer_metrics(v: TracedVerdict, missing: list[str]) -> tuple[dict, list[str]]:
    """Returns ({name: {"value", "unit"}}, [names reported missing])."""
    gone = set(missing)
    out, skipped = {}, []
    for m in LAYER_METRICS:
        if gone.intersection(m.needs):
            skipped.append(m.name)
            continue
        out[m.name] = {"value": m.compute(v), "unit": m.unit}
    return out, skipped
