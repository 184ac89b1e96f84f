#!/usr/bin/env python3
"""Run every figure experiment and write one CSV per figure.

Usage:
    python scripts/run_figures.py [--out results] [--config FILE]
                                  [--reps N] [--seed N] [--figures fig3,fig5]

Each CSV carries a provenance header with the effective configuration, the
experiment overrides, and the recovery deadline at every sweep point, so a
re-run with the same arguments is byte-identical. Timings, which differ
from run to run, go to ``manifest.json`` beside the CSVs instead: each
figure's wall time, run count, replications and model-regime warnings
(each mapped to the sweep points it holds at), and the Python, numpy and
scipy versions and core count of the machine. A config file that does
not parse or validate, or a ``--reps`` below 1, ends the script before
anything runs, with one ``error:`` line and exit code 1 as ``mhlogsim``
reports it. An unreadable config file, or an output directory that cannot
be made or written, ends it with one ``i/o error:`` line and exit code 2.
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mhlogsim.config import check_count, check_seed, default_config, parse_config
from mhlogsim.experiments import FIGURE_IDS, figure_spec, write_figure


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
        if args.seed is not None:
            check_seed("--seed", args.seed)
        if args.reps is not None:
            check_count("--reps", args.reps)
        config = parse_config(args.config) if args.config else default_config()
        specs = {f: figure_spec(f, config, reps=args.reps, master_seed=args.seed)
                 for f in figure_ids}
    except ValueError as exc:  # ConfigError and ValidationError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2

    manifest = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "figures": {},
    }
    any_violations = False
    try:
        for figure_id in figure_ids:
            t0 = time.perf_counter()
            path, rows, violations, warnings = write_figure(
                figure_id, config, args.out, reps=args.reps, master_seed=args.seed
            )
            wall_s = time.perf_counter() - t0
            spec = specs[figure_id]
            manifest["figures"][figure_id] = {
                "wall_s": wall_s,
                "runs": len(spec.sweep_values) * len(spec.strategies) * spec.reps,
                "reps": spec.reps,
                "warnings": warnings,
            }
            status = "ok" if not violations else f"{len(violations)} trend violation(s)"
            print(f"{figure_id}: {len(rows)} rows -> {path}  [{wall_s:.1f}s, {status}]")
            for v in violations:
                print(f"  - {v}")
            any_violations = any_violations or bool(violations)
        manifest_path = Path(args.out) / "manifest.json"
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        print(f"manifest -> {manifest_path}")
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 1 if any_violations else 0


if __name__ == "__main__":
    sys.exit(main())
