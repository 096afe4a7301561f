"""In-memory span tracer and the hooks that attach it to `sbc`'s layers.

Hooks live here, not in `sbc`: each one replaces a public function (or a
method) with a wrapper for the duration of a traced verdict and puts the
original back afterwards.  A function is replaced under every name that
binds it in an `sbc.*` module, because modules import each other's functions
by name.  A hook whose target no longer exists is skipped and its layer's
metrics are reported missing.

Two kinds of record are kept:

* spans, for calls at layer boundaries: name, start, end, parent span and
  replication (-1 when unknown);
* leaves, for the per-call hot paths (log density, gradient, stream
  creation, rank) that run up to millions of times per verdict: a count and
  a total time, with no span, to bound memory and overhead.

A span's self time is its duration minus the time of the spans and leaves
directly under it.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    """Spans and leaf counters of one traced verdict, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name_id, start_ns, end_ns, parent, rep]
        self._open: list[int] = []
        self._child_ns: list[int] = []
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.leaves: dict[str, list[int]] = defaultdict(lambda: [0, 0])  # [count, ns]

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str, rep: int = -1) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([self._name_id(name), perf_counter_ns(), 0, parent, rep])
        self._child_ns.append(0)

    def close(self) -> int:
        """Close the innermost open span; returns its duration in ns."""
        end = perf_counter_ns()
        span = self.spans[self._open.pop()]
        child = self._child_ns.pop()
        span[2] = end
        duration = end - span[1]
        name = self.names[span[0]]
        self.total_ns[name] += duration
        self.self_ns[name] += duration - child
        self.calls[name] += 1
        if self._child_ns:
            self._child_ns[-1] += duration
        return duration

    def leaf(self, name: str):
        """Return a recorder `record(duration_ns)` for one hot call site."""
        acc = self.leaves[name]
        child_ns = self._child_ns

        def record(duration_ns: int) -> None:
            acc[0] += 1
            acc[1] += duration_ns
            if child_ns:
                child_ns[-1] += duration_ns

        return record

    def dump(self) -> dict:
        """JSON-ready form of every span (times in ns from the first span)."""
        origin = self.spans[0][1] if self.spans else 0
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "rep"],
            "names": self.names,
            "spans": [[n, s - origin, e - origin, p, r] for n, s, e, p, r in self.spans],
            "leaves": {k: {"count": c, "ns": t} for k, (c, t) in self.leaves.items()},
        }


class Patches:
    """Replacements made in `sbc`'s modules, undone in reverse order by `restore`."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def replace_function(self, module: str, attr: str, make_wrapper) -> None:
        """Replace `module.attr` wherever an `sbc` module binds the same object."""
        try:
            original = getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = make_wrapper(original)
        for mod in _sbc_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def replace_method(self, module: str, cls: str, attr: str, make_wrapper) -> None:
        try:
            klass = getattr(importlib.import_module(module), cls)
            original = klass.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module}.{cls}.{attr}")
            return
        self._undo.append((klass, attr, original))
        setattr(klass, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _sbc_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sbc" or name.startswith("sbc."))]


class FitLog:
    """Per sampler call: replication, time, post-warmup and total steps, health;
    and the number of Algorithm-2 rerun plans that hit the chain-length cap."""

    def __init__(self):
        self.fits: list[dict] = []
        self.cap_hits = 0


@contextmanager
def traced(tracer: Tracer, fits: FitLog):
    """Attach every layer hook for the duration of the block; yields the patches."""
    patches = Patches()
    try:
        _install(patches, tracer, fits)
        yield patches
    finally:
        patches.restore()


def _install(patches: Patches, tracer: Tracer, fits: FitLog) -> None:
    def spanned(name, after=None, rep_of=None):
        def make(fn):
            signature = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                bound = signature.bind(*args, **kwargs).arguments if after or rep_of else None
                tracer.open(name, rep_of(bound) if rep_of else -1)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = tracer.close()
                if after is not None:
                    after(bound, result, duration)
                return result
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    def leafed(name):
        record = tracer.leaf(name)

        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record(perf_counter_ns() - t0)
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    # runner: the run entry point, persistence
    patches.replace_function("sbc.runner", "run", spanned("runner.run"))
    patches.replace_function("sbc.runner", "save_artifact", spanned("runner.save"))
    patches.replace_function("sbc.runner", "load_artifact", spanned("runner.load"))

    # models: one model build per replication
    patches.replace_function("sbc.models", "model_from_dict", spanned("models.build"))

    # streams: every RandomStream construction
    patches.replace_method("sbc.streams", "RandomStream", "__init__", leafed("streams.create"))

    # model: the unconstrained target's density and gradient, per call
    logp_leaf, grad_leaf = leafed("model.logp"), leafed("model.grad")

    def wrap_target(fn):
        def wrapper(*args, **kwargs):
            return _TimedTarget(fn(*args, **kwargs), logp_leaf, grad_leaf)
        wrapper.__wrapped__ = fn
        return wrapper

    patches.replace_function("sbc.model", "posterior_target", wrap_target)

    # samplers: one span per fit, with steps and health from its arguments and result
    def fit_rep(bound):
        return int(getattr(bound.get("rng"), "replication", -1))

    def fit_done(steps_of):
        def after(bound, draws, duration):
            kept, total = steps_of(bound)
            diag = getattr(draws, "diagnostics", {})
            # The exact sampler reports no acceptance: its draws all count as accepted.
            fits.fits.append({
                "rep": fit_rep(bound), "ns": duration, "kept_steps": kept, "steps": total,
                "accept": float(diag.get("acceptance_rate", 1.0)),
                "divergences": int(diag.get("divergences", 0)),
            })
        return after

    patches.replace_function(
        "sbc.samplers", "sample_hmc",
        spanned("samplers.fit", fit_done(lambda b: (b["n_steps"], b["n_steps"] + b["warmup"])),
                fit_rep))
    patches.replace_function(
        "sbc.samplers", "sample_exact_conjugate",
        spanned("samplers.fit", fit_done(lambda b: (b["L"], b["L"])), fit_rep))

    # ess: estimation, and the rerun plan's cap
    patches.replace_function("sbc.ess", "ess_by_quantity", spanned("ess.estimate"))

    def count_cap(fn):
        def wrapper(*args, **kwargs):
            plan = fn(*args, **kwargs)
            fits.cap_hits += bool(getattr(plan, "cap_hit", False))
            return plan
        wrapper.__wrapped__ = fn
        return wrapper

    patches.replace_function("sbc.ess", "required_chain_length", count_cap)

    # rankstats: ranks per (replication, quantity); ECDF bands and histograms per report
    patches.replace_function("sbc.rankstats", "rank_statistic", leafed("rankstats.rank"))
    patches.replace_function("sbc.rankstats", "ecdf_summary", spanned("rankstats.ecdf"))
    patches.replace_function("sbc.rankstats", "build_histogram", spanned("rankstats.histogram"))

    # report
    patches.replace_function("sbc.report", "write_report", spanned("report.write"))
    patches.replace_function("sbc.report", "summarize", spanned("report.summarize"))
    patches.replace_function("sbc.report", "render_histogram_svg", spanned("report.svg"))
    patches.replace_function("sbc.report", "render_ecdf_svg", spanned("report.svg"))


class _TimedTarget:
    """Proxy for a posterior target whose density and gradient calls are timed."""

    def __init__(self, target, logp_leaf, grad_leaf):
        self._target = target
        self.logpdf = logp_leaf(target.logpdf)
        self.grad = grad_leaf(target.grad)

    def __getattr__(self, name):
        return getattr(self._target, name)
