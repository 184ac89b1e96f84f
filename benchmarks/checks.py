"""Per-run records and the correctness checks the benchmark applies to them.

A run is one ``run_simulation`` call and counts as one attempted operation.
It fails when it raises, when a ``RunStats`` field is non-finite, when it
breaks a ``RunStats`` invariant, when its traced cost fold disagrees with its
``RunStats`` totals, when its digest differs from an earlier run with the
same label or from the golden digest, when strategies at its
``(point, rep)`` saw different event timelines, or when the CSV of its
iteration differs from the expected bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

from workloads import SIM_ATTR

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# RunStats count field and RunStats cost field for each traced event kind.
EVENT_FIELDS = {
    "WRITE": ("write_count", "total_logging_cost"),
    "HANDOFF": ("handoff_count", "total_handoff_cost"),
    "CHECKPOINT": ("checkpoint_count", "total_checkpoint_cost"),
    "FAILURE": ("failure_count", "total_recovery_cost"),
}
TIMELINE_FIELDS = tuple(count for count, _ in EVENT_FIELDS.values())


def digest(stats) -> str:
    """SHA-256 over every RunStats field, floats written exactly in hex."""
    parts = []
    for f in fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, float):
            value = value.hex()
        elif isinstance(value, dict):
            value = sorted(value.items())
        parts.append(f"{f.name}={value}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def file_sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.is_file() else {}


def stats_problems(stats) -> list[str]:
    problems = []
    for f in fields(stats):
        value = getattr(stats, f.name)
        values = value.values() if isinstance(value, dict) else (value,)
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{f.name} is not finite")
    if stats.handoff_count != stats.intra_bsc_count + stats.inter_bsc_count:
        problems.append("handoff_count != intra_bsc_count + inter_bsc_count")
    if stats.recovery_success_count > stats.failure_count:
        problems.append("recovery_success_count > failure_count")
    return problems


def fold_trace(events) -> dict[str, list]:
    """Per event kind: [events, summed cost, data items moved, control messages].

    Costs are summed in dispatch order from 0.0, as the engine sums them, so
    the fold must equal the RunStats totals exactly.
    """
    fold = {kind: [0, 0.0, 0, 0] for kind in EVENT_FIELDS}
    for _, kind, delta in events:
        acc = fold[kind]
        acc[0] += 1
        acc[1] += delta.total
        acc[2] += delta.data_items_moved
        acc[3] += delta.control_msgs
    return fold


def fold_problems(stats, fold) -> list[str]:
    problems = []
    for kind, (count_field, cost_field) in EVENT_FIELDS.items():
        n, cost = fold[kind][0], fold[kind][1]
        if n != getattr(stats, count_field):
            problems.append(f"trace has {n} {kind} events, RunStats.{count_field} differs")
        if cost != getattr(stats, cost_field):
            problems.append(f"trace {kind} cost {cost!r} != RunStats.{cost_field}")
    return problems


@dataclass
class RunRecord:
    iteration: int
    point: float
    strategy: str
    seed: int
    elapsed_s: float = 0.0
    stats: object = None
    digest: str = ""
    items_moved: int = 0
    control_msgs: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def events(self) -> int:
        return sum(getattr(self.stats, f) for f in TIMELINE_FIELDS) if self.stats else 0


class RunRecorder:
    """Stands in for ``engine.run_simulation``: times and checks every run.

    With a tracer, each run also gets a ``trace=`` list whose cost fold is
    checked against its RunStats; that bookkeeping runs in a benchmark span
    so no layer's self time includes it. With a ``HostRef``, each run is
    followed by reference chunks for a share of its time.
    """

    def __init__(self, run_simulation, swept_param: str, tracer=None, hostref=None):
        self._run = run_simulation
        self._attr = SIM_ATTR[swept_param]
        self.tracer = tracer
        self.hostref = hostref
        self.iteration = 0
        self.records: list[RunRecord] = []

    def __call__(self, cfg, kind, seed, trace=None):
        rec = RunRecord(
            self.iteration, float(getattr(cfg.sim, self._attr)), getattr(kind, "value", kind), seed
        )
        self.records.append(rec)
        events = [] if self.tracer is not None else trace
        t0 = time.perf_counter()
        try:
            stats = self._run(cfg, kind, seed, trace=events)
        except Exception as exc:
            rec.problems.append(f"raised {exc!r}")
            raise
        rec.elapsed_s = time.perf_counter() - t0
        rec.stats = stats
        if self.tracer is None:
            self._check(rec, None)
        else:
            self.tracer.wrap("bench.check", self._check)(rec, events)
            if trace is not None:
                trace.extend(events)
        if self.hostref is not None:
            self.hostref.follow(rec.elapsed_s)
        return stats

    @staticmethod
    def _check(rec: RunRecord, events) -> None:
        rec.digest = digest(rec.stats)
        rec.problems += stats_problems(rec.stats)
        if events is not None:
            fold = fold_trace(events)
            rec.problems += fold_problems(rec.stats, fold)
            rec.items_moved = sum(acc[2] for acc in fold.values())
            rec.control_msgs = sum(acc[3] for acc in fold.values())


def run_key(rec: RunRecord, rep: int) -> str:
    return f"{rec.point!r}|{rec.strategy}|rep{rep}"


def cross_run_problems(records, reps_of_seed, csv_digests, golden) -> None:
    """Append to each record the problems only visible across runs.

    ``reps_of_seed`` maps a stream seed to its replication index,
    ``csv_digests`` lists each iteration's CSV SHA-256, and ``golden`` is the
    workload's golden entry (None when the seed is not the golden one).
    """
    first: dict[str, str] = {}
    groups: dict[tuple, list[RunRecord]] = {}
    expected_csv = golden["csv_sha256"] if golden else csv_digests[0]
    for rec in records:
        if rec.stats is None:
            continue
        key = run_key(rec, reps_of_seed[rec.seed])
        if first.setdefault(key, rec.digest) != rec.digest:
            rec.problems.append(f"{key}: digest differs from its first run")
        if golden is not None and golden["runs"].get(key) != rec.digest:
            rec.problems.append(f"{key}: digest differs from golden")
        # An iteration cut short by a raising run wrote no CSV.
        if rec.iteration < len(csv_digests) and csv_digests[rec.iteration] != expected_csv:
            rec.problems.append(f"iteration {rec.iteration}: CSV SHA-256 differs")
        groups.setdefault((rec.iteration, rec.point, rec.seed), []).append(rec)
    for group in groups.values():
        timelines = {tuple(getattr(r.stats, f) for f in TIMELINE_FIELDS) for r in group}
        if len(timelines) > 1:
            for rec in group:
                rec.problems.append(f"strategies saw different event counts {sorted(timelines)}")
