import sys
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import settings

from mhlogsim import topology
from mhlogsim.config import default_config
from mhlogsim.engine import Timeline, generate_timeline
from mhlogsim.experiments import figure_spec, run_figure
from mhlogsim.strategies import RunStats

# Every run draws the same examples, seeded from each test, so the suite's
# time and coverage do not move from run to run. max_examples and each
# @example stay as the tests set them.
settings.register_profile("fixed", derandomize=True)
settings.load_profile("fixed")


@pytest.fixture(scope="session")
def figure_rows():
    """``figure_rows(figure_id)``: the figure's rows at the default config
    (20 replications, master seed 12345), run once per session."""
    cache: dict[str, list] = {}
    cfg = default_config()

    def get(figure_id: str):
        if figure_id not in cache:
            spec = figure_spec(figure_id, cfg)
            cache[figure_id] = run_figure(spec, cfg)
        return cache[figure_id]

    return get


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(*names)`` routes every mhlogsim binding of the named
    ``topology`` functions through one counter, keyed by name."""
    calls: Counter = Counter()

    def install(*names: str) -> Counter:
        for fname in names:
            original = getattr(topology, fname)

            def counting(*args, _original=original, _name=fname):
                calls[_name] += 1
                return _original(*args)

            for name, module in list(sys.modules.items()):
                if name.startswith("mhlogsim") and getattr(module, fname, None) is original:
                    monkeypatch.setattr(module, fname, counting)
        return calls

    return install


def mean_pending_log(seed):
    """The mean pending-log size that writes walk in on, read from
    ``generate_timeline``'s run at lambda_w = 0.2, T_c = 100 and a horizon of
    10**6: k_expected = 20 writes a checkpoint interval, over 10,000 closed
    intervals. Each write sees the writes since the last ``CHECKPOINT``, so
    an interval of n > 0 writes averages (n - 1) / 2; the result is the mean
    of that over the closed intervals, the writes after the last checkpoint
    left out."""
    cfg = default_config().with_overrides(
        {"sim.lambda_w": 0.2, "sim.T_c": 100.0, "sim.horizon": 1e6})
    timeline = generate_timeline(cfg, seed)
    means, n = [], 0
    for k, (_, kind, _) in zip(timeline.writes, timeline.events):
        n += k
        if kind == "CHECKPOINT":
            if n:
                means.append((n - 1) / 2)
            n = 0
    return float(np.mean(means))


def nonempty_fragments(strategy):
    """How many of the strategy's fragments hold entries."""
    return sum(1 for frag in strategy.fragments if frag.entries)


def held_pieces(strategy):
    """The non-empty fragments, the host's cache counting as one."""
    return nonempty_fragments(strategy) + bool(strategy.cache)


def event_piece(strategy, event):
    """One event, ``(time, kind, cell)`` as in ``Timeline.events``, as a
    ``Timeline`` of its own for ``strategy``'s host where it stands."""
    _, kind, to = event
    handoff = kind == "HANDOFF"
    intra = handoff and strategy.tree.cell_bsc[to] == strategy.current_bsc
    return Timeline([event], [0, 0], int(intra), int(handoff and not intra),
                    int(kind == "CHECKPOINT"), int(kind == "FAILURE"), [])


def fold_in_pieces(strategy, timeline):
    """Fold ``timeline`` into ``strategy`` one piece at a time: a piece is
    one run of writes or one event, a ``Timeline`` of its own with its
    write times (dated at the event before when ``timeline`` has none).
    Yield each piece's (``Timeline``, ``RunStats``, trace) once it is
    folded, so a caller can read the strategy between pieces."""
    times = iter(timeline.write_times or ())
    t = 0.0
    for k, event in zip(timeline.writes, chain(timeline.events, (None,))):
        if k:
            piece = Timeline([], [k], 0, 0, 0, 0, [next(times, t) for _ in range(k)])
            trace: list = []
            yield piece, strategy.fold(piece, trace), trace
        if event is None:
            return
        t = event[0]
        piece = event_piece(strategy, event)
        trace = []
        yield piece, strategy.fold(piece, trace), trace


def stats_of(strategy, pieces):
    """The ``RunStats`` that folding ``pieces`` into ``strategy`` makes of
    the whole timeline. Counts add up; each cost is summed one trace entry
    at a time from 0.0, in dispatch order, as a per-event loop sums it,
    since adding up the pieces' totals would round differently."""
    pieces = list(pieces)
    stats = [s for _, s, _ in pieces]
    count = {f: sum(getattr(s, f) for s in stats) for f in (
        "intra_bsc_count", "inter_bsc_count", "write_count", "checkpoint_count",
        "failure_count", "recovery_success_count", "lost_entries", "home_recovery_count")}
    cost = dict.fromkeys(("WRITE", "HANDOFF", "CHECKPOINT", "FAILURE", "HOME"), 0.0)
    retrieval_sum = 0.0
    for _, s, trace in pieces:
        for _, kind, delta in trace:
            cost[kind] += delta.total
        if s.failure_count:
            retrieval_sum += s.mean_retrieval_time
        if s.home_recovery_count:
            cost["HOME"] += trace[0][2].total
    handoffs = count["intra_bsc_count"] + count["inter_bsc_count"]
    failures, successes = count["failure_count"], count["recovery_success_count"]
    return RunStats(
        handoff_count=handoffs,
        **{f: count[f] for f in ("intra_bsc_count", "inter_bsc_count", "write_count",
                                 "checkpoint_count", "failure_count", "recovery_success_count")},
        total_handoff_cost=cost["HANDOFF"],
        total_recovery_cost=cost["FAILURE"],
        total_logging_cost=cost["WRITE"],
        total_checkpoint_cost=cost["CHECKPOINT"],
        mean_cost_per_handoff_interval=(
            cost["HANDOFF"] + cost["FAILURE"] + cost["WRITE"] + cost["CHECKPOINT"]
        ) / max(1, handoffs),
        recovery_probability=successes / failures if failures else 1.0,
        mean_retrieval_time=retrieval_sum / failures if failures else 0.0,
        peak_fragments=max((s.peak_fragments for s in stats), default=0),
        lost_entries=count["lost_entries"],
        recovery_cost_home_total=cost["HOME"],
        home_recovery_count=count["home_recovery_count"],
        bsc_peak_entries=dict(strategy.settle_peaks()),
    )


def fold_steps(strategy, *steps):
    """Fold ``steps`` into ``strategy``, each a piece of its own at time 0:
    an int ``k`` is a run of ``k`` writes, ``"CHECKPOINT"`` a checkpoint,
    and ``(kind, cell)`` a handoff to, or a failure restarting in, ``cell``.
    Return the last piece's (``RunStats``, trace)."""
    for step in steps:
        if isinstance(step, int):
            piece = Timeline([], [step], 0, 0, 0, 0, [0.0] * step)
        else:
            kind, to = (step, strategy.current_cell) if step == "CHECKPOINT" else step
            piece = event_piece(strategy, (0.0, kind, to))
        trace: list = []
        stats = strategy.fold(piece, trace)
    return stats, trace
