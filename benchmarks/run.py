#!/usr/bin/env python3
"""mhlogsim figure-pipeline benchmark.

Usage (from the repository root):

    python3 benchmarks/run.py --workload fig4-recovery [--seed 12345]
                              [--seconds 25] [--trace 0|1]

One iteration runs a workload's ``ExperimentSpec`` through ``run_figure``,
``emit_csv`` and ``check_trends`` in this process, with no worker pool, and
iterations repeat until ``--seconds`` have passed. Every ``run_simulation``
call is one attempted operation and is checked (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends a third
of the time on untraced iterations and the rest on traced ones, and reports
per-layer self time and call counts, exact per-iteration counts, and the
tracing overhead. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report with sample counts, spreads and machine
facts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from checks import EVENT_FIELDS, RunRecorder, cross_run_problems, file_sha256, load_golden
from hostref import NOMINAL_CHUNK_MS, NOMINAL_IMPORT_S, HostRef, import_ref_s
from tracer import SpanTracer, patched, span_names, tracing
from workloads import DEFAULT_SEED, ROOT, WORKLOADS, import_mhlogsim

SETUP_PROBES = 3
PROBE = Path(__file__).resolve().parent / "probe_setup.py"
WARMUP_HORIZON = 2000.0
KINDS = ("lazy", "pessimistic", "proposed")


@dataclass
class Iteration:
    wall_s: float
    csv_sha256: str
    trend_violations: int
    traced: bool = False
    self_s: dict | None = None
    calls: dict | None = None


def run_iteration(workload, config, seed: int, out_dir: Path, tracer=None,
                  hostref=None) -> Iteration:
    """Spec to written CSV and trend check: the work one figure costs a user.

    Reference chunks that ``hostref`` runs between the runs are not counted.
    """
    from mhlogsim import experiments

    path = out_dir / f"{workload.figure_id}.csv"
    ref0 = hostref.spent_s if hostref is not None else 0.0
    t0 = time.perf_counter()
    spec = workload.spec(config, seed)
    rows = experiments.run_figure(spec, config)
    experiments.emit_csv(rows, path, provenance=experiments.provenance_lines(spec, config))
    violations = experiments.check_trends(spec.figure_id, rows)
    wall = time.perf_counter() - t0
    if hostref is not None:
        wall -= hostref.spent_s - ref0
    it = Iteration(wall, file_sha256(path), len(violations), traced=tracer is not None)
    if tracer is not None:
        it.self_s, it.calls = tracer.take()
    return it


def measure_setup(workload, seed: int, probes: int = SETUP_PROBES) -> list[tuple[float, float]]:
    """(probe, import reference) seconds for each set-up probe.

    A probe is a fresh process timed from spawn to its first run_simulation
    call; the reference that follows it is ``hostref.import_ref_s``.
    """
    out = []
    for _ in range(probes):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, str(PROBE), workload.name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append((float(proc.stdout.strip()) - t0, import_ref_s()))
    return out


def spread(values) -> str:
    values = sorted(values)
    if len(values) < 2:
        return f"median {values[0]:.6g} (n=1)"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {q2:.6g} q1 {q1:.6g} q3 {q3:.6g} (n={len(values)})"


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile, as numpy's default computes it."""
    values = sorted(values)
    pos = (len(values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def _loop(budget_s: float, body) -> None:
    """Run ``body`` at least once and until ``budget_s`` seconds have passed."""
    end = time.perf_counter() + budget_s
    while True:
        body()
        if time.perf_counter() >= end:
            return


def measure(workload, seed: int, seconds: float, trace: bool, golden=None,
            setup_probes: int = SETUP_PROBES) -> tuple[dict, list[str]]:
    """Run one benchmark measurement; return the result object and report lines."""
    import_mhlogsim()
    import mhlogsim
    import numpy
    import scipy
    from mhlogsim import engine
    from mhlogsim.config import default_config

    report = [f"mhlogsim benchmark: workload {workload.name}, seed {seed}, "
              f"seconds {seconds:g}, trace {int(trace)}"]
    facts = {"python": platform.python_version(), "numpy": numpy.__version__,
             "scipy": scipy.__version__, "mhlogsim": mhlogsim.__version__,
             "nproc": os.cpu_count()}
    hostref = HostRef()
    setup = [] if trace else measure_setup(workload, seed, setup_probes)
    config = default_config()
    swept = workload.spec(config, seed).swept_param
    iterations: list[Iteration] = []
    recorders: list[RunRecorder] = []
    errors: list[str] = []

    def phase(budget_s: float, tracer, ref) -> None:
        recorder = RunRecorder(engine.run_simulation, swept, tracer, ref)
        recorders.append(recorder)

        def one() -> None:
            recorder.iteration = len(iterations)
            iterations.append(run_iteration(workload, config, seed, out_dir, tracer, ref))

        with patched([(engine, "run_simulation", lambda _: recorder)]):
            try:
                _loop(budget_s, one)
            except Exception:
                errors.append(traceback.format_exc())

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        out_dir = Path(tmp)
        run_iteration(workload.scaled(WARMUP_HORIZON, 2), config, seed, out_dir)
        phase(seconds / 3 if trace else seconds, None, hostref)
        if trace and not errors:
            tracer = SpanTracer()
            with tracing(tracer):
                phase(seconds - seconds / 3, tracer, None)
    if hostref.chunks:
        facts["host_ref_ms"] = round(hostref.chunk_ms, 4)

    records = [r for rec in recorders for r in rec.records]
    if iterations:
        reps_of_seed = {engine.split_seed(seed, i): i for i in range(workload.reps)}
        cross_run_problems(records, reps_of_seed, [it.csv_sha256 for it in iterations], golden)
    failed = [r for r in records if r.problems]
    problems = list(errors)
    if not iterations:
        problems.append("no iteration completed")
    elif len({it.trend_violations for it in iterations}) > 1:
        problems.append("trend violation count differs between iterations")
    for r in failed[:10]:
        report.append(f"FAILED run it{r.iteration} {r.point!r} {r.strategy} seed {r.seed}: "
                      + "; ".join(r.problems))

    untraced = [it for it in iterations if not it.traced]
    plain = [r for r in records if r.stats is not None and r.iteration < len(untraced)]
    if not untraced or not plain:
        metrics = {}
    elif trace:
        metrics = _layer_metrics(iterations, records, untraced, plain, problems, report)
    else:
        metrics = _end_to_end_metrics(untraced, plain, setup, hostref.scale, report)
    report.append("machine: " + json.dumps(facts, sort_keys=True))
    for p in problems:
        report.append("PROBLEM: " + p.rstrip())
    result = {
        "correct": not failed and not problems,
        "attempted": max(1, len(records)),
        "failed": len(failed) if records else 1,
        "metrics": metrics,
    }
    return result, report


def _runs_of(records, iteration: int) -> list:
    return [r for r in records if r.iteration == iteration]


def _events_per_s(runs) -> float:
    return sum(r.events for r in runs) / sum(r.elapsed_s for r in runs)


def _end_to_end_metrics(untraced, plain, setup, scale, report) -> dict:
    # The host changes speed within and between runs (see hostref.py). The
    # gated timings are means over the whole run, which move with the share
    # of time spent at each speed, times the host scale measured over the
    # same runs. Set-up is scaled by its own paired import references. The
    # report gives the raw figures with their quartiles too.
    walls = [it.wall_s for it in untraced]
    repeats: dict[tuple, list[float]] = {}
    for r in plain:
        repeats.setdefault((r.point, r.strategy, r.seed), []).append(r.elapsed_s * 1e3)
    run_ms = [statistics.fmean(v) for v in repeats.values()]
    eps = [_events_per_s(_runs_of(plain, i)) for i in range(len(untraced))]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (statistics.fmean(walls) * scale, "s"),
        "run_ms.p50": (percentile(run_ms, 50) * scale, "ms"),
        "run_ms.p90": (percentile(run_ms, 90) * scale, "ms"),
        "events_per_s": (_events_per_s(plain) / scale, "1/s"),
        "setup_s": (statistics.median(p / r for p, r in setup) * NOMINAL_IMPORT_S, "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }
    report.append(f"host scale    {scale:.6g} (nominal chunk {NOMINAL_CHUNK_MS} ms); "
                  "raw figures below")
    report.append(f"setup_s       probes {spread([p for p, _ in setup])}; "
                  f"import references {spread([r for _, r in setup])}")
    report.append(f"wall_s        mean {statistics.fmean(walls):.6g}; {spread(walls)}")
    report.append(f"run_ms        {len(run_ms)} distinct runs, each the mean of its {len(untraced)} "
                  f"repeats: {spread(run_ms)}")
    report.append(f"events_per_s  over all runs {_events_per_s(plain):.6g}; per iteration {spread(eps)}")
    report.append(f"trend_violations per iteration {untraced[0].trend_violations}, "
                  f"CSV sha256 {untraced[0].csv_sha256}")
    report.append("gated: " + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()))
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _layer_metrics(iterations, records, untraced, plain, problems, report) -> dict:
    traced = [(i, it) for i, it in enumerate(iterations) if it.traced]
    if not traced:
        return {}
    metrics: dict[str, dict] = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    first_id, first = traced[0]
    if any(it.calls != first.calls for _, it in traced):
        problems.append("traced call counts differ between iterations")
    for name in span_names():
        put(f"{name}.self_s", statistics.median(it.self_s.get(name, 0.0) for _, it in traced), "s")
        put(f"{name}.calls", first.calls.get(name, 0), "count")

    # Exact per-iteration counts, from the first traced iteration; the
    # digest and pairing checks already tie every other iteration to it.
    runs = _runs_of(records, first_id)
    for event, (count_field, _) in EVENT_FIELDS.items():
        put(f"engine.events.{event.lower()}", sum(getattr(r.stats, count_field) for r in runs), "count")
    for kind in KINDS:
        mine = [r for r in plain if r.strategy == kind]
        put(f"engine.{kind}.events_per_s", _events_per_s(mine), "1/s")
        put(f"strategies.{kind}.data_items_moved",
            sum(r.items_moved for r in runs if r.strategy == kind), "count")
        put(f"strategies.{kind}.control_msgs",
            sum(r.control_msgs for r in runs if r.strategy == kind), "count")
    put("strategies.lazy.peak_fragments",
        max(r.stats.peak_fragments for r in runs if r.strategy == "lazy"), "count")
    put("experiments.trend_violations", first.trend_violations, "count")
    traced_wall = statistics.fmean(it.wall_s for _, it in traced)
    put("trace_overhead", traced_wall / statistics.fmean(it.wall_s for it in untraced), "ratio")

    report.append(f"traced iterations {len(traced)}, untraced {len(untraced)}, "
                  f"traced wall {spread([it.wall_s for _, it in traced])}")
    report.append(f"{'span':<40} {'self_s':>10} {'share':>7} {'calls':>10}")
    shown = 0.0
    for name in sorted(span_names(), key=lambda n: -metrics[f"{n}.self_s"]["value"]):
        s = metrics[f"{name}.self_s"]["value"]
        shown += s
        report.append(f"{name:<40} {s:>10.4f} {s / traced_wall:>7.1%} "
                      f"{metrics[f'{name}.calls']['value']:>10}")
    report.append(f"{'(spec, provenance, bookkeeping)':<40} {traced_wall - shown:>10.4f} "
                  f"{(traced_wall - shown) / traced_wall:>7.1%}")
    return metrics


def print_result(result: dict, report: list[str]) -> None:
    """The readable report, then the result object as the last line."""
    print("\n".join(report))
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    workload = WORKLOADS[args.workload]
    golden = load_golden().get(workload.name) if args.seed == DEFAULT_SEED else None
    print_result(*measure(workload, args.seed, args.seconds, bool(args.trace), golden))
    return 0


if __name__ == "__main__":
    sys.exit(main())
