#!/usr/bin/env python3
"""Record the benchmark's golden outputs at the default seed.

Usage (from the repository root):

    python3 benchmarks/record_golden.py

Runs one iteration of every workload at ``DEFAULT_SEED`` and writes
``benchmarks/golden.json``: the RunStats digest of every
``(point, strategy, rep)`` run and the SHA-256 of the workload's CSV. Re-record
only for a change that is meant to move the numbers, and say so.
"""

import json
import sys
import tempfile
from pathlib import Path

from checks import GOLDEN_PATH, RunRecorder, run_key
from run import run_iteration
from tracer import patched
from workloads import DEFAULT_SEED, ROOT, WORKLOADS, import_mhlogsim


def golden_entry(workload, config, seed: int, out_dir: Path) -> dict:
    """Digests of one clean iteration of ``workload`` at ``seed``."""
    from mhlogsim import engine

    recorder = RunRecorder(engine.run_simulation, workload.spec(config, seed).swept_param)
    with patched([(engine, "run_simulation", lambda _: recorder)]):
        it = run_iteration(workload, config, seed, out_dir)
    bad = [r for r in recorder.records if r.problems]
    if bad:
        raise RuntimeError(f"{workload.name}: refusing to record, {bad[0].problems}")
    rep_of = {engine.split_seed(seed, i): i for i in range(workload.reps)}
    return {
        "seed": seed,
        "reps": workload.reps,
        "csv_sha256": it.csv_sha256,
        "runs": {run_key(r, rep_of[r.seed]): r.digest for r in recorder.records},
    }


def main() -> int:
    import_mhlogsim()
    from mhlogsim.config import default_config

    config = default_config()
    golden = {}
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        for workload in WORKLOADS.values():
            entry = golden_entry(workload, config, DEFAULT_SEED, Path(tmp))
            golden[workload.name] = entry
            print(f"{workload.name}: {len(entry['runs'])} runs, csv {entry['csv_sha256']}")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
