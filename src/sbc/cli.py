"""Command-line interface.

Exit codes: 0 success, 2 configuration error (including an output directory
that cannot be created or an artifact that cannot be written there), 3 run
aborted because too many replications failed, 4 report error.

The run and report layers are imported by the subcommands that use them, so
``list-models`` and ``list-samplers`` load only the config and model layers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .config import FAILURE_RATE_CAP, SAMPLER_KINDS, SamplerConfig, config_from_dict
from .errors import ConfigError, FailureRateExceeded, SbcError
from .models import MODEL_KINDS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUN_ABORTED = 3
EXIT_REPORT = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbc",
        description="Simulation-based calibration of Bayesian posterior samplers.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="execute a calibration run from a JSON config",
        description=f"Execute a calibration run from a JSON config.  The run aborts with "
                    f"exit code {EXIT_RUN_ABORTED} once more than floor({FAILURE_RATE_CAP:g} * N) "
                    f"replications fail, so none may fail when N < {round(1 / FAILURE_RATE_CAP)}.")
    run_p.add_argument("--config", required=True, help="JSON run configuration file")
    run_p.add_argument("--seed", type=int, default=None, help="override master_seed")
    run_p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: $SBC_WORKERS or config)")
    run_p.add_argument("--out", required=True, help="artifact output directory")

    rep_p = sub.add_parser("report", help="render diagnostics from a run artifact")
    rep_p.add_argument("--run", required=True, help="artifact directory from 'sbc run'")
    rep_p.add_argument("--quantity", action="append", default=[],
                       help="quantity to report on (repeatable; default: all)")
    rep_p.add_argument("--bins", type=int, default=None, help="display bins B")
    rep_p.add_argument("--format", default="svg,csv,json",
                       help="comma-separated subset of svg,csv,json")
    rep_p.add_argument("--coverage", type=float, default=0.99, help="band coverage")
    rep_p.add_argument("--out", required=True, help="report output directory")

    sub.add_parser("list-models", help="built-in models and their spec schemas")
    sub.add_parser("list-samplers", help="built-in samplers and their config schema")
    return parser


def _schema(cls) -> dict:
    out = {}
    for f in dataclasses.fields(cls):
        default = "required"
        if f.default is not dataclasses.MISSING:
            default = f.default
        elif f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
            default = f.default_factory()
        out[f.name] = {"type": str(f.type), "default": default}
    return out


def _cmd_run(args) -> int:
    from .report import rank_histograms, summarize
    from .runner import run, save_artifact

    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        print(f"sbc: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        workers = args.workers
        if workers is None and os.environ.get("SBC_WORKERS"):
            workers = int(os.environ["SBC_WORKERS"])
        overrides = {"master_seed": args.seed, "worker_count_hint": workers}
        if isinstance(raw, dict):  # merged before parsing, so the config is made once
            raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
        config = config_from_dict(raw)
    except (ConfigError, SbcError, ValueError) as exc:
        print(f"sbc: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"sbc: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        artifact = run(config)
    except FailureRateExceeded as exc:
        print(f"sbc: run aborted: {exc}", file=sys.stderr)
        return EXIT_RUN_ABORTED

    try:
        out = save_artifact(artifact, args.out)
    except OSError as exc:
        print(f"sbc: cannot write artifact: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"artifact written to {out}")
    print(f"replications: {config.N}  failures: {len(artifact.failures)}  "
          f"wall clock: {artifact.wall_clock_seconds:.1f}s")
    counts, band = rank_histograms(artifact, artifact.quantities)
    for s in summarize(artifact, artifact.quantities, counts, band):
        print(f"  {s['quantity']}: {s['classification']} "
              f"(chi2={s['chi_square']:.1f}, dof={s['chi_square_dof']}, "
              f"{s['bins_outside_band']}/{s['B']} bins outside band)")
    return EXIT_OK


def _cmd_report(args) -> int:
    from .report import ReportRequest, write_report
    from .runner import load_artifact

    try:
        artifact = load_artifact(args.run)
        formats = tuple(f.strip() for f in args.format.split(",") if f.strip())
        request = ReportRequest(
            artifact_path=args.run,
            quantities=tuple(args.quantity),
            bins=args.bins,
            formats=formats,
            coverage=args.coverage,
        )
        written = write_report(artifact, request, args.out)
    except (SbcError, OSError, ValueError, KeyError) as exc:
        print(f"sbc: report error: {exc}", file=sys.stderr)
        return EXIT_REPORT
    for name in written:
        print(f"wrote {args.out}/{name}")
    return EXIT_OK


def _cmd_list_models() -> int:
    listing = {kind: _schema(spec_cls) for kind, (spec_cls, _) in MODEL_KINDS.items()}
    print(json.dumps(listing, indent=2, sort_keys=True, default=str))
    return EXIT_OK


def _cmd_list_samplers() -> int:
    listing = {"kinds": list(SAMPLER_KINDS), "config_schema": _schema(SamplerConfig)}
    print(json.dumps(listing, indent=2, sort_keys=True, default=str))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "list-models":
        return _cmd_list_models()
    return _cmd_list_samplers()


if __name__ == "__main__":
    sys.exit(main())
