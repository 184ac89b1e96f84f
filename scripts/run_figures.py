#!/usr/bin/env python3
"""Run every figure experiment and write one CSV per figure.

Usage:
    python scripts/run_figures.py [--out results] [--config FILE]
                                  [--reps N] [--seed N] [--figures fig3,fig5]

Each CSV carries a provenance header with the effective configuration, the
experiment overrides, and the recovery deadline at every sweep point, so a
re-run with the same arguments is byte-identical. A config file that does
not parse or validate ends the script with one ``error:`` line and exit
code 1, as ``mhlogsim`` reports it; an unreadable one with exit code 2.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mhlogsim.config import ConfigError, default_config, parse_config
from mhlogsim.experiments import FIGURE_IDS, write_figure
from mhlogsim.model import ValidationError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--config")
    parser.add_argument("--reps", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--figures", default=",".join(FIGURE_IDS),
                        help="comma-separated subset of figure ids")
    args = parser.parse_args()
    figure_ids = [f.strip() for f in args.figures.split(",")]
    unknown = [f for f in figure_ids if f not in FIGURE_IDS]
    if unknown:
        parser.error(f"unknown figure id(s) {', '.join(unknown)}; "
                     f"choose from {', '.join(FIGURE_IDS)}")

    try:
        config = parse_config(args.config) if args.config else default_config()
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2

    any_violations = False
    for figure_id in figure_ids:
        t0 = time.time()
        path, rows, violations = write_figure(
            figure_id, config, args.out, reps=args.reps, master_seed=args.seed
        )
        status = "ok" if not violations else f"{len(violations)} trend violation(s)"
        print(f"{figure_id}: {len(rows)} rows -> {path}  [{time.time() - t0:.1f}s, {status}]")
        for v in violations:
            print(f"  - {v}")
        any_violations = any_violations or bool(violations)
    return 1 if any_violations else 0


if __name__ == "__main__":
    sys.exit(main())
