#!/usr/bin/env python3
"""Record one point of the performance trajectory as ``BENCH_<label>.json``.

Usage (from the repository root):

    python scripts/bench.py --label N [--root DIR]

Measures the checkout at ``--root`` (by default this one) with that
checkout's own code, one step after another so that no step competes with
another for a core:

1. the tier-1 suite, ``python -m pytest -q --continue-on-collection-errors``
   with ``src`` on ``PYTHONPATH``: its wall time and outcome counts;
2. ``scripts/run_figures.py --reps 20`` into a temporary directory: its
   ``manifest.json`` (per-figure ``wall_s`` and ``runs``) and total wall time;
3. ``benchmarks/run.py --trace 0`` on every workload ``BENCHMARK.json``
   names, at the run length the benchmark fixes: the result object each
   run prints last (``benchmarks``), then ``--trace 1`` on each, the
   per-layer record of self time and calls per span (``benchmarks_traced``);
4. ``cli_analytic_s``: the median wall time of 5 fresh ``mhlogsim analytic``
   processes (``python -m mhlogsim.cli analytic``), raw: the program's
   start-up cost;
5. ``src_lines``: the total ``wc -l`` of ``src/mhlogsim/*.py``, the
   program's size;
6. the machine: Python, numpy and scipy versions and the core count.

Every step runs as a subprocess of this interpreter. Wall times are raw:
over five records of one tree, scaling the tier-1 and figure times by a
host-speed reference chunk run after each step widened their spread, so
compare records by alternating runs, not by scaling them. The record
names the measured commit; when the checkout has uncommitted changes to
tracked files it also carries the SHA-256 of ``git diff HEAD`` without the
documents (``*.md``) and the ``BENCH_*.json`` records, so the measured code
can be identified. The file goes to
``BENCH_<label>.json`` at the root of the repository that holds this
script; nothing else is written outside a temporary directory, apart from
the caches pytest and hypothesis keep in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

REPO = Path(__file__).resolve().parents[1]
FIGURE_REPS = 20
CLI_RUNS = 5


def timed(cmd: list[str], cwd: Path, env: dict | None = None) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    return time.perf_counter() - t0, proc


def git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, check=True).stdout


def git_state(root: Path) -> dict:
    # Hashed as git prints it, so piping the same command to sha256sum
    # reproduces the digest.
    diff = git(root, "diff", "HEAD", "--", ".", ":(exclude)*.md", ":(exclude)BENCH_*.json")
    state = {"commit": git(root, "rev-parse", "HEAD").decode().strip(), "dirty": bool(diff)}
    if diff:
        state["diff_sha256"] = hashlib.sha256(diff).hexdigest()
    return state


def src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def tier1(root: Path) -> dict:
    wall_s, proc = timed(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"], root, src_env()
    )
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) ([a-z]+)", summary)}
    return {"wall_s": wall_s, "exit_code": proc.returncode, "summary": summary, **counts}


def figures(root: Path) -> dict:
    with tempfile.TemporaryDirectory() as out:
        wall_s, proc = timed(
            [sys.executable, "scripts/run_figures.py", "--reps", str(FIGURE_REPS), "--out", out],
            root,
        )
        manifest_path = Path(out) / "manifest.json"
        if not manifest_path.exists():
            raise RuntimeError(f"run_figures.py wrote no manifest:\n{proc.stderr}")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    # Exit code 1 with a manifest means trend violations, which tier-1's
    # criterion checks report; the timings stand.
    return {"wall_s": wall_s, "exit_code": proc.returncode, "manifest": manifest}


def cli_analytic(root: Path) -> float:
    times = []
    for _ in range(CLI_RUNS):
        wall_s, proc = timed([sys.executable, "-m", "mhlogsim.cli", "analytic"], root, src_env())
        if proc.returncode != 0:
            raise RuntimeError(f"mhlogsim analytic failed:\n{proc.stderr}")
        times.append(wall_s)
    return statistics.median(times)


def src_lines(root: Path) -> int:
    """What ``wc -l src/mhlogsim/*.py`` totals: the newlines in those files."""
    return sum(path.read_bytes().count(b"\n") for path in (root / "src" / "mhlogsim").glob("*.py"))


def benchmark(root: Path, workload: str, trace: int, seconds: float | None = None) -> dict:
    """The result object of one ``benchmarks/run.py`` run in ``root``,
    ``seconds`` long (by default run.py's own run length)."""
    args = ["benchmarks/run.py", "--workload", workload, "--trace", str(trace)]
    if seconds is not None:
        args += ["--seconds", str(seconds)]
    proc = subprocess.run([sys.executable, *args], cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--root", type=Path, default=REPO, help="checkout to measure")
    args = parser.parse_args()
    root = args.root.resolve()
    out = REPO / f"BENCH_{args.label}.json"
    workloads = [w["name"] for w in
                 json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]

    record = {
        "label": args.label,
        **git_state(root),
        "machine": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
    }
    record["src_lines"] = src_lines(root)
    print(f"src/mhlogsim: {record['src_lines']} lines", flush=True)
    print("tier-1 ...", flush=True)
    record["tier1"] = tier1(root)
    print(f"  {record['tier1']['summary']}", flush=True)
    print(f"run_figures.py --reps {FIGURE_REPS} ...", flush=True)
    record["figures"] = figures(root)
    print(f"  {record['figures']['wall_s']:.1f} s", flush=True)
    print(f"mhlogsim analytic x{CLI_RUNS} ...", flush=True)
    record["cli_analytic_s"] = cli_analytic(root)
    print(f"  median {record['cli_analytic_s']:.3f} s", flush=True)
    record["benchmarks"] = {}
    for workload in workloads:
        print(f"benchmarks/run.py --workload {workload} ...", flush=True)
        result = benchmark(root, workload, 0)
        record["benchmarks"][workload] = result
        print(f"  correct={result['correct']} wall_s={result['metrics']['wall_s']['value']:.3f}",
              flush=True)
    record["benchmarks_traced"] = {}
    for workload in workloads:
        print(f"benchmarks/run.py --workload {workload} --trace 1 ...", flush=True)
        result = benchmark(root, workload, 1)
        record["benchmarks_traced"][workload] = result
        print(f"  correct={result['correct']}", flush=True)
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"-> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
