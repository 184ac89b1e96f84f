#!/usr/bin/env python3
"""Run the benchmark on a base revision and on the working tree in
alternating pairs, and say per metric whether the working tree wins.

Usage (from the repository root):

    python scripts/ab.py BASE [--pairs 10] [--seconds 25] [--workload NAME ...]

BASE is a git revision. Its files (``git archive BASE``) and the working
tree's (tracked files as they are now, and untracked files that are not
ignored) are copied into two fresh temporary directories, and
``benchmarks/run.py --trace 0`` runs in each, one run at a time, every run
``--seconds`` long at run.py's default seed, so every run checks its
output against ``benchmarks/golden.json``. Pair ``i`` runs BASE first when
``i`` is even and the working tree first when it is odd, so neither side
always runs second on a host the other has just warmed. ``--workload``
defaults to every workload in the working tree's ``BENCHMARK.json``.

For each workload and each end-to-end metric that ``BENCHMARK.json``
names, it prints each side's median and interquartile range, the pairs
the working tree won by the metric's ``better`` direction (equal values
count for neither side), and the exact two-sided sign-test p-value over
the pairs that were not ties. The level is Bonferroni-corrected and fixed
before the run: a p-value is significant below ``ALPHA`` divided by the
number of (workload, metric) comparisons. The last line of standard output
is one JSON object that holds all of it, every run's value included.

A run that exits non-zero, or reports ``correct: false`` or a failed
operation, stops the comparison with exit code 1. Nothing is written under
the repository: both copies live in a temporary directory, removed at exit.
"""

import argparse
import io
import json
import math
import shutil
import statistics
import sys
import tarfile
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench import REPO, benchmark, git  # noqa: E402

ALPHA = 0.05  # family-wise significance level


def sign_test(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value for ``wins`` against ``losses``
    (ties already dropped): twice the binomial(n, 1/2) tail at the smaller
    count, at most 1."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def export_base(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git(REPO, "archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def export_tree(dest: Path) -> None:
    names = git(REPO, "ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in filter(None, names):
        src = REPO / name.decode()
        if src.is_file():  # a tracked file deleted in the tree is left out
            (dest / name.decode()).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name.decode())


def run_once(root: Path, workload: str, seconds: float) -> dict:
    try:
        result = benchmark(root, workload, 0, seconds)
    except RuntimeError as exc:
        raise SystemExit(f"error: in {root.name}, {exc}")
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"error: in {root.name}, benchmarks/run.py --workload {workload} reports "
                         f"correct {result['correct']}, failed {result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def compare(base: list[float], tree: list[float], better: str, level: float) -> dict:
    sign = 1 if better == "lower" else -1
    won = sum(sign * (b - t) > 0 for b, t in zip(base, tree))
    lost = sum(sign * (b - t) < 0 for b, t in zip(base, tree))
    p = sign_test(won, lost)
    return {"base": spread(base), "tree": spread(tree), "won": won, "lost": lost,
            "ties": len(base) - won - lost, "p": p, "significant": p < level}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="git revision to compare the working tree against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length of each run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--workload", action="append", help="repeat for several (default: all)")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    level = ALPHA / (len(workloads) * len(metrics))
    base_commit = git(REPO, "rev-parse", "--verify", f"{args.base}^{{commit}}").decode().strip()

    values = {side: {w: {m: [] for m in metrics} for w in workloads} for side in ("base", "tree")}
    with tempfile.TemporaryDirectory(prefix="mhlogsim-ab-") as tmp:
        roots = {"base": Path(tmp) / "base", "tree": Path(tmp) / "tree"}
        export_base(base_commit, roots["base"])
        export_tree(roots["tree"])
        for i in range(args.pairs):
            order = ("base", "tree") if i % 2 == 0 else ("tree", "base")
            for workload in workloads:
                for side in order:
                    for name, value in run_once(roots[side], workload, seconds).items():
                        if name in metrics:
                            values[side][workload][name].append(value)
            print(f"pair {i + 1}/{args.pairs} done ({' first, '.join(order)} second)", flush=True)

    print(f"base {args.base} ({base_commit[:12]}) against the working tree: {args.pairs} pairs "
          f"of {seconds:g} s; significant at p < {ALPHA:g}/"
          f"{len(workloads) * len(metrics)} = {level:.3g}")
    results = {}
    for workload in workloads:
        results[workload] = {}
        for name, m in metrics.items():
            r = compare(values["base"][workload][name], values["tree"][workload][name],
                        m["better"], level)
            results[workload][name] = r
            b, t = r["base"], r["tree"]
            print(f"{workload:15s} {name:13s} base {b['median']:.6g} (IQR {b['iqr']:.3g}) "
                  f"tree {t['median']:.6g} (IQR {t['iqr']:.3g}) {m['unit']}, "
                  f"{m['better']} is better: tree won {r['won']}/{args.pairs} "
                  f"(ties {r['ties']}), p = {r['p']:.3g}{' *' if r['significant'] else ''}")
    print(json.dumps({"base": args.base, "base_commit": base_commit, "pairs": args.pairs,
                      "seconds": seconds, "alpha": ALPHA,
                      "level": level, "results": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
