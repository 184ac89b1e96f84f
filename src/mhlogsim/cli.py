"""Command-line interface.

Subcommands:

  simulate    one replicated simulation of the configured strategy
  analytic    closed-form report for the configured parameters
  figure      run one figure experiment and write its CSV
  crosscheck  analytic vs simulated interval probabilities and cost

Exit codes: 0 success, 1 validation or config error, 2 I/O error,
3 trend violation (figure with --assert-trends only).
"""

from __future__ import annotations

import argparse
import sys

from . import analytic
from .config import Config, ConfigError, check_count, check_seed, default_config, parse_config
from .engine import replicate
from .experiments import FIGURE_IDS, PRICED_BY, check_finite, crosscheck_analytic, write_figure
from .model import ValidationError
from .strategies import StrategyKind

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_TREND = 3

# The most intervals ``crosscheck`` simulates. One draw holds two float arrays, a mask and
# the priced array of that length, a peak RSS of 265 MiB at this bound, so a far larger
# count would end in a MemoryError or an out-of-memory kill.
MAX_INTERVALS = 10_000_000


def _load_config(path: str | None) -> Config:
    if path is None:
        return default_config()
    return parse_config(path)


def _warned_config(path: str | None) -> Config:
    """The config, with each of its model-regime warnings printed to stderr."""
    config = _load_config(path)
    for warning in config.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return config


def _seed_flag(args: argparse.Namespace) -> int | None:
    if args.seed is not None:
        check_seed("--seed", args.seed)
    return args.seed


def _cmd_simulate(args: argparse.Namespace) -> int:
    seed = _seed_flag(args)
    config = _warned_config(args.config)
    strategy = StrategyKind(args.strategy or config.sim.strategy)
    seed = config.sim.seed if seed is None else seed
    runs, summary = replicate(config, strategy, seed, config.sim.replications)
    check_finite([(name, name, stats) for name, stats in summary.items() if name in PRICED_BY])
    print(f"strategy {strategy.value}, seed {seed}, replications {len(runs)}")
    width = max(len(name) for name in summary)
    for name, (mean, lo, hi) in summary.items():
        print(f"{name:<{width}}  mean {mean:.6g}  ci95 [{lo:.6g}, {hi:.6g}]")
    return EXIT_OK


def _cmd_analytic(args: argparse.Namespace) -> int:
    for flag, p in (("--p-prop", args.p_prop), ("--p-lazy", args.p_lazy)):
        # The negated range test also rejects nan.
        if p is not None and not 0.0 <= p <= 1.0:
            raise ValidationError([f"{flag} must be a probability in [0, 1], got {p}"])
    config = _warned_config(args.config)
    report = analytic.build_report(config.sim, config.cost, p_prop=args.p_prop, p_lazy=args.p_lazy)
    print(report.as_text())
    print()
    print(report.CSV_HEADER)
    print(report.as_csv_row())
    return EXIT_OK


def _cmd_figure(args: argparse.Namespace) -> int:
    seed = _seed_flag(args)
    if args.reps is not None:
        check_count("--reps", args.reps)
    config = _load_config(args.config)
    out_path, rows, violations, _ = write_figure(
        args.figure, config, args.out, reps=args.reps, master_seed=seed
    )
    print(f"wrote {out_path} ({len(rows)} rows)")
    if args.assert_trends:
        if violations:
            for v in violations:
                print(f"trend violation: {v}", file=sys.stderr)
            return EXIT_TREND
        print("trends ok")
    return EXIT_OK


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    seed = _seed_flag(args)
    check_count("--intervals", args.intervals, MAX_INTERVALS)
    config = _warned_config(args.config)
    report = crosscheck_analytic(config, n_intervals=args.intervals, seed=seed)
    print(report.as_text())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhlogsim",
        description=(
            "Simulate and analyze log-management strategies for mobile-host "
            "transaction recovery in a cellular network."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run replicated simulations")
    p_sim.add_argument("--config", help="config file (defaults apply if omitted)")
    p_sim.add_argument("--strategy", choices=[s.value for s in StrategyKind])
    p_sim.add_argument("--seed", type=int)
    p_sim.set_defaults(func=_cmd_simulate)

    p_an = sub.add_parser("analytic", help="print the closed-form report")
    p_an.add_argument("--config")
    p_an.add_argument("--p-prop", type=float, dest="p_prop",
                      help="measured recovery probability of the proposed strategy")
    p_an.add_argument("--p-lazy", type=float, dest="p_lazy",
                      help="measured recovery probability of the lazy strategy")
    p_an.set_defaults(func=_cmd_analytic)

    p_fig = sub.add_parser("figure", help="run a figure experiment, write CSV")
    p_fig.add_argument("figure", choices=FIGURE_IDS)
    p_fig.add_argument("--config")
    p_fig.add_argument("--out", required=True, help="output directory")
    p_fig.add_argument("--reps", type=int)
    p_fig.add_argument("--seed", type=int)
    p_fig.add_argument("--assert-trends", action="store_true")
    p_fig.set_defaults(func=_cmd_figure)

    p_cc = sub.add_parser("crosscheck", help="analytic vs simulation agreement")
    p_cc.add_argument("--config")
    p_cc.add_argument("--intervals", type=int, default=100_000,
                      help=f"handoff intervals to simulate, 1 to {MAX_INTERVALS}")
    p_cc.add_argument("--seed", type=int)
    p_cc.set_defaults(func=_cmd_crosscheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
