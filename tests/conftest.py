import sys
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import settings

from mhlogsim import topology
from mhlogsim.config import default_config
from mhlogsim.engine import generate_timeline
from mhlogsim.experiments import figure_spec, run_figure
from mhlogsim.strategies import NO_COST, RunStats

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


def step(strategy, timeline, trace=None):
    """Feed ``timeline`` to ``strategy``'s event handlers one event at a
    time, each run of writes through one ``on_writes``, and return the
    ``RunStats`` summed from what they return, as a per-event kernel would.
    Tests wrap the handlers of ``strategy`` to check its state after every
    event, and compare the result with ``strategy.fold``'s on a fresh
    object. ``trace``, when given, receives (time, kind, delta) for every
    event and write, as ``run_simulation``'s does."""
    write_times = iter(timeline.write_times or ())
    handoffs = checkpoints = failures = successes = lost = home = peak = 0
    cost_handoff = cost_recovery = cost_logging = cost_checkpoint = 0.0
    retrieval_sum = cost_home = 0.0
    for k, event in zip(timeline.writes, chain(timeline.events, (None,))):
        if k:
            run = strategy.on_writes(k)
            for i in range(k):
                delta = run.delta if i in run.charged else NO_COST
                cost_logging += delta.total
                if trace is not None:
                    trace.append((next(write_times), "WRITE", delta))
            peak = max(peak, run.peak_pieces)
        if event is None:
            break
        t, ev, cell = event
        if ev == "CHECKPOINT":
            delta = strategy.on_checkpoint()
            checkpoints += 1
            cost_checkpoint += delta.total
        elif ev == "HANDOFF":
            delta = strategy.on_handoff(cell)
            handoffs += 1
            cost_handoff += delta.total
        else:
            outcome = strategy.recover(cell)
            delta = outcome.cost
            failures += 1
            successes += outcome.success
            cost_recovery += delta.total
            retrieval_sum += outcome.retrieval_time
            lost += outcome.lost_entries
            if outcome.recovered_in_home_region:
                cost_home += delta.total
                home += 1
        if trace is not None:
            trace.append((t, ev, delta))
    return RunStats(
        handoff_count=handoffs,
        intra_bsc_count=timeline.intra_bsc,
        inter_bsc_count=timeline.inter_bsc,
        write_count=sum(timeline.writes),
        checkpoint_count=checkpoints,
        failure_count=failures,
        recovery_success_count=successes,
        total_handoff_cost=cost_handoff,
        total_recovery_cost=cost_recovery,
        total_logging_cost=cost_logging,
        total_checkpoint_cost=cost_checkpoint,
        mean_cost_per_handoff_interval=(
            cost_handoff + cost_recovery + cost_logging + cost_checkpoint
        ) / max(1, handoffs),
        recovery_probability=successes / failures if failures else 1.0,
        mean_retrieval_time=retrieval_sum / failures if failures else 0.0,
        peak_fragments=peak,
        lost_entries=lost,
        recovery_cost_home_total=cost_home,
        home_recovery_count=home,
        bsc_peak_entries=dict(strategy.settle_peaks()),
    )
