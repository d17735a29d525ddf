"""Command-line front end: run experiments, report brute-force optima, plot.

Exit codes: 0 on success, 2 on configuration errors, 3 on runtime errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .bench import (
    ConfigError,
    brute_force_opt,
    build_objective,
    load_config,
    run_experiment,
    write_svg,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zogreedy",
        description=(
            "Derivative-free, projection-free maximization of monotone "
            "DR-submodular and submodular set objectives"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="run every (algorithm, seed) cell of a config")
    run_cmd.add_argument("config", help="experiment INI file")
    run_cmd.add_argument("--seed-override", type=int, nargs="+", default=None,
                         help="replace the config's seed list")
    run_cmd.add_argument("--out-dir", default=None, help="override the output directory")
    run_cmd.add_argument("--jobs", type=int, default=1,
                         help="run cells in up to this many worker processes, "
                              "one per cell at most")

    opt_cmd = sub.add_parser("opt", help="brute-force optimum of a discrete config")
    opt_cmd.add_argument("config", help="experiment INI file")

    plot_cmd = sub.add_parser("plot", help="render a value-vs-queries SVG from a trace CSV")
    plot_cmd.add_argument("csv", help="trace CSV produced by 'run'")
    plot_cmd.add_argument("--out", default=None, help="output SVG path")
    return parser


def _cmd_run(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    cfg = load_config(args.config)
    if args.seed_override:
        cfg = replace(cfg, seeds=tuple(args.seed_override))
    trace_path, summary_path = run_experiment(cfg, jobs=args.jobs, out_dir=args.out_dir)
    print(f"trace:   {trace_path}")
    print(f"summary: {summary_path}")
    failures = trace_path.parent / f"{cfg.name}_failures.txt"
    if failures.exists():
        sys.stderr.write(f"some cells failed; see {failures}\n")
        return EXIT_RUNTIME
    return EXIT_OK


def _cmd_opt(args) -> int:
    cfg = load_config(args.config)
    if not cfg.discrete:
        raise ConfigError("brute-force optimum applies to discrete objectives only")
    oracle = build_objective(cfg)
    best_set, best_value = brute_force_opt(oracle, cfg.constraint)
    members = " ".join(str(i) for i in sorted(best_set)) or "(empty)"
    print(f"optimum value: {best_value!r}")
    print(f"optimum set:   {members}")
    return EXIT_OK


def _cmd_plot(args) -> int:
    csv_path = Path(args.csv)
    if not csv_path.exists():
        raise ConfigError(f"trace file {csv_path} does not exist")
    out = Path(args.out) if args.out else csv_path.with_suffix(".svg")
    write_svg(csv_path, out)
    print(f"chart: {out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "opt":
            return _cmd_opt(args)
        return _cmd_plot(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except Exception as exc:
        sys.stderr.write(f"runtime error: {type(exc).__name__}: {exc}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
