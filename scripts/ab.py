#!/usr/bin/env python3
"""Run the benchmark on a base revision and on the working tree in
alternating pairs, and say per metric whether the working tree wins.

Usage (from the repository root):

    python scripts/ab.py BASE [--pairs 10] [--seconds 25] [--seed S]
                              [--workload NAME ...] [--figures]

BASE is a git revision. Its files (``git archive BASE``) and the working
tree's (tracked files as they are now, and untracked files that are not
ignored) are copied into two fresh temporary directories, and
``benchmarks/run.py --trace 0`` runs in each, one run at a time, every run
``--seconds`` long. Pair ``i`` runs BASE first when ``i`` is even and the
working tree first when it is odd, so neither side always runs second on a
host the other has just warmed. ``--workload`` defaults to every workload
in the working tree's ``BENCHMARK.json``.

``--seed S`` passes ``--seed S`` to run.py, so that a claim can be checked
on a seed it was not made on. Without it run.py runs at its default seed
and checks every run's output against ``benchmarks/golden.json``; at any
other seed it has no golden digests, and checks only that the runs of one
(point, strategy, seed) agree with each other.

``--figures`` also runs ``scripts/run_figures.py --reps 20`` on each side
in every pair, after the workloads and in the same order. It compares the
script's total wall time and each figure's (``total`` and the figure ids).
A figures run must write a manifest, exit 0 or 1 (1 is a trend
violation, which criterion 5 gives on every side), and write CSVs whose
SHA-256 sums equal that side's ``tests/figures.sha256``.

For each workload and each end-to-end metric that ``BENCHMARK.json``
names, and each figures wall time, it prints each side's median and
interquartile range, the pairs the working tree won by the metric's
``better`` direction (equal values count for neither side; a shorter wall
time is better), and the exact two-sided sign-test p-value over the pairs
that were not ties. The level is Bonferroni-corrected and fixed before the
run: a p-value is significant below ``ALPHA`` divided by the number of
comparisons. The last line of standard output is one JSON object that
holds all of it, every run's value included.

A run that exits non-zero (a figures run: other than 0 or 1), or reports
``correct: false``, a failed operation or a CSV off its pin, stops the
comparison with exit code 1. Nothing is written under the repository:
both copies live in a temporary directory, removed at exit.
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
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from bench import REPO, benchmark, figures, git  # noqa: E402
from mhlogsim.experiments import FIGURE_IDS  # noqa: E402

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


def run_once(root: Path, workload: str, seconds: float, seed: int | None) -> dict:
    try:
        result = benchmark(root, workload, 0, seconds, seed)
    except RuntimeError as exc:
        raise SystemExit(f"error: in {root.name}, {exc}")
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"error: in {root.name}, benchmarks/run.py --workload {workload} reports "
                         f"correct {result['correct']}, failed {result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def figures_once(root: Path) -> dict:
    """One ``run_figures.py --reps 20`` run in ``root``: its total wall
    time and each figure's, once its CSVs are checked against the pins."""
    try:
        result = figures(root)
    except RuntimeError as exc:
        raise SystemExit(f"error: in {root.name}, {exc}")
    lines = (root / "tests" / "figures.sha256").read_text(encoding="utf-8").splitlines()
    pins = {name: digest for digest, name in map(str.split, lines)}
    if result["exit_code"] not in (0, 1) or result["csv_sha256"] != pins:
        raise SystemExit(f"error: in {root.name}, run_figures.py exits {result['exit_code']}, "
                         f"and its CSVs {'match' if result['csv_sha256'] == pins else 'differ from'} "
                         f"tests/figures.sha256")
    walls = {"total": result["wall_s"]}
    walls.update((f, m["wall_s"]) for f, m in result["manifest"]["figures"].items())
    return walls


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
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed passed to run.py (default: run.py's, with its golden check)")
    parser.add_argument("--workload", action="append", help="repeat for several (default: all)")
    parser.add_argument("--figures", action="store_true",
                        help="also compare run_figures.py --reps 20 wall times")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    walls = ["total", *FIGURE_IDS] if args.figures else []
    comparisons = len(workloads) * len(metrics) + len(walls)
    level = ALPHA / comparisons
    base_commit = git(REPO, "rev-parse", "--verify", f"{args.base}^{{commit}}").decode().strip()

    values = {side: {w: {m: [] for m in metrics} for w in workloads} for side in ("base", "tree")}
    wall_values = {side: {w: [] for w in walls} for side in ("base", "tree")}
    with tempfile.TemporaryDirectory(prefix="mhlogsim-ab-") as tmp:
        roots = {"base": Path(tmp) / "base", "tree": Path(tmp) / "tree"}
        export_base(base_commit, roots["base"])
        export_tree(roots["tree"])
        for i in range(args.pairs):
            order = ("base", "tree") if i % 2 == 0 else ("tree", "base")
            for workload in workloads:
                for side in order:
                    for name, value in run_once(roots[side], workload, seconds, args.seed).items():
                        if name in metrics:
                            values[side][workload][name].append(value)
            for side in order if walls else ():
                run = figures_once(roots[side])
                for name in walls:
                    wall_values[side][name].append(run[name])
            print(f"pair {i + 1}/{args.pairs} done ({' first, '.join(order)} second)", flush=True)

    seed = "run.py's default seed" if args.seed is None else f"seed {args.seed}, no golden check"
    print(f"base {args.base} ({base_commit[:12]}) against the working tree: {args.pairs} pairs "
          f"of {seconds:g} s at {seed}; significant at p < {ALPHA:g}/{comparisons} = {level:.3g}")

    def report(label: str, name: str, base: list, tree: list, unit: str, better: str) -> dict:
        r = compare(base, tree, better, level)
        b, t = r["base"], r["tree"]
        print(f"{label:15s} {name:13s} base {b['median']:.6g} (IQR {b['iqr']:.3g}) "
              f"tree {t['median']:.6g} (IQR {t['iqr']:.3g}) {unit}, "
              f"{better} is better: tree won {r['won']}/{args.pairs} "
              f"(ties {r['ties']}), p = {r['p']:.3g}{' *' if r['significant'] else ''}")
        return r

    results = {workload: {name: report(workload, name, values["base"][workload][name],
                                       values["tree"][workload][name], m["unit"], m["better"])
                          for name, m in metrics.items()} for workload in workloads}
    figure_results = {name: report("run_figures.py", name, wall_values["base"][name],
                                   wall_values["tree"][name], "s", "lower") for name in walls}
    print(json.dumps({"base": args.base, "base_commit": base_commit, "pairs": args.pairs,
                      "seconds": seconds, "seed": args.seed, "alpha": ALPHA, "level": level,
                      "results": results, "figures": figure_results or None}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
