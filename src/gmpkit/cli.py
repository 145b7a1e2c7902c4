"""Command-line interface.

Subcommands: simulate, analyze, stats, stabilize, all. Exit codes:
0 success, 2 configuration error, 3 I/O error, 4 analysis/data failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import StudyConfig, default_config, load_config
from .errors import ConfigError, GmpkitError
from .study import SCHEMA_VERSION, SLOPE_CONTRAST, analyze_study, simulate_study, stats_study, stabilize_study

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_ANALYSIS = 4

MISSING_TRIAL_BUDGET = 0.10


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmpkit",
        description="Synthetic GMP-map study: simulate, analyze, stats, stabilize.",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"gmpkit {__version__} (format schema {SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "record the MVC calibration and run the randomized perturbation protocol"),
        ("analyze", "estimate EoP per trial and build GMP maps"),
        ("stats", "statistical report over the analysis outputs"),
        ("stabilize", "run the configured stabilizer scenario"),
        ("all", "simulate + analyze + stats + stabilize"),
    ):
        # each subcommand takes only the flags it reads
        simulates = name in ("simulate", "all")
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=Path, default=None, help="key=value config file")
        if simulates:
            cmd.add_argument("--seed", type=int, default=None, help="override [cohort] seed")
        cmd.add_argument("--out", type=Path, default=None, help="override the output directory")
        if simulates:
            cmd.add_argument("--jobs", type=int, default=None,
                             help="override [output] jobs: parallel simulation workers")
        if name in ("stabilize", "all"):
            cmd.add_argument("--map", type=Path, default=None, help="GMP map JSON for the stabilizer")
    return parser


def _load(args) -> StudyConfig:
    config = default_config() if args.config is None else load_config(args.config)
    if getattr(args, "seed", None) is not None:
        config = replace(config, cohort=replace(config.cohort, seed=args.seed))
    if args.out is not None:
        config = replace(config, output=replace(config.output, dir=str(args.out)))
    if getattr(args, "jobs", None) is not None:
        config = replace(config, output=replace(config.output, jobs=args.jobs))
    config.validate()
    return config


def _cmd_simulate(config: StudyConfig) -> int:
    manifest = simulate_study(config, config.output.dir)
    n_trials = sum(len(s["trials"]) for s in manifest["subjects"])
    print(f"simulated {len(manifest['subjects'])} subjects, {n_trials} trials -> {config.output.dir}")
    return EXIT_OK


def _cmd_analyze(config: StudyConfig) -> int:
    result = analyze_study(config.output.dir, config=config)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    complete = sum(1 for m in result.maps.values() if m.complete)
    print(
        f"analyzed {result.n_expected - result.n_missing}/{result.n_expected} trials, "
        f"{complete}/{len(result.maps)} complete maps -> {config.output.dir}/analysis"
    )
    if result.missing_fraction > MISSING_TRIAL_BUDGET:
        print(
            f"error: {result.n_missing}/{result.n_expected} trials missing or unreadable "
            f"(> {MISSING_TRIAL_BUDGET:.0%})",
            file=sys.stderr,
        )
        return EXIT_ANALYSIS
    return EXIT_OK


def _cmd_stats(config: StudyConfig) -> int:
    report = stats_study(None, config.output.dir)
    for name, doc in report.get("contrasts", {}).items():
        if "p_value" in doc:
            print(f"{name}: p={doc['p_value']:.3g} {doc['mark']}")
    contrast = report.get("slopes", {}).get("contrast", {})
    if "p_value" in contrast:
        print(f"{SLOPE_CONTRAST}: p={contrast['p_value']:.3g} {contrast['mark']}")
    print(f"report -> {config.output.dir}/stats")
    return EXIT_OK


def _cmd_stabilize(config: StudyConfig, map_path) -> int:
    summary = stabilize_study(config, config.output.dir, map_path=map_path)
    line = (
        f"baseline: {summary['baseline']['verdict']}, "
        f"{summary['baseline']['injected_joules']:.4g} J injected"
    )
    if "with_map" in summary:
        line += (
            f"; with map: {summary['with_map']['verdict']}, "
            f"{summary['with_map']['injected_joules']:.4g} J injected"
        )
    print(line)
    print(f"scenario outputs -> {config.output.dir}/stabilize")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load(args)
        if args.command == "simulate":
            return _cmd_simulate(config)
        if args.command == "analyze":
            return _cmd_analyze(config)
        if args.command == "stats":
            return _cmd_stats(config)
        if args.command == "stabilize":
            return _cmd_stabilize(config, args.map)
        # all
        if config.cohort.subjects < 2:
            raise ConfigError(
                f"gmpkit all needs cohort.subjects >= 2 (got {config.cohort.subjects}): "
                "its stats stage compares subjects; run simulate and analyze instead"
            )
        code = _cmd_simulate(config)
        if code == EXIT_OK:
            code = _cmd_analyze(config)
        if code == EXIT_OK:
            code = _cmd_stats(config)
        if code == EXIT_OK:
            map_path = args.map
            if map_path is None:
                candidate = Path(config.output.dir) / "analysis" / "gmp_median.json"
                map_path = candidate if candidate.exists() else None
            code = _cmd_stabilize(config, map_path)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GmpkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    raise SystemExit(main())
