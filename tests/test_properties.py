"""Properties every config that validation accepts must have, drawn over
every ``config.CONFIG_KEYS`` entry within its bounds at a short horizon."""

import dataclasses
import math
from dataclasses import fields

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from mhlogsim import strategies
from mhlogsim.config import CONFIG_KEYS, default_config
from mhlogsim.engine import RunStats, Timeline, generate_timeline, run_simulation
from mhlogsim.experiments import FIGURE_IDS, figure_spec, run_figure
from mhlogsim.model import CostParams, ValidationError
from mhlogsim.strategies import NO_COST, make_strategy

from conftest import fold_in_pieces, held_pieces, nonempty_fragments, stats_of
from price_checks import assert_cached_prices_fresh, fresh_write_run

KINDS = ("lazy", "pessimistic", "proposed")
EVENT_FIELDS = {  # trace kind -> (RunStats count, RunStats total cost)
    "WRITE": ("write_count", "total_logging_cost"),
    "HANDOFF": ("handoff_count", "total_handoff_cost"),
    "CHECKPOINT": ("checkpoint_count", "total_checkpoint_cost"),
    "FAILURE": ("failure_count", "total_recovery_cost"),
}


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


POSITIVE = floats(1e-3, 2.0)
COST = floats(0.0, 10.0)

# Rates and T_c are capped so that a run stays within a few thousand events.
VALUES = {
    "sim.lambda_f": floats(1e-4, 1.0),
    "sim.lambda_w": st.one_of(st.just(0.0), floats(0.0, 4.0)),
    "sim.mu": POSITIVE,
    "sim.T_c": floats(0.5, 2000.0),
    "sim.cache_capacity": st.integers(1, 64),
    "sim.horizon": floats(1.0, 400.0),
    "sim.seed": st.integers(0, 2**64 - 1),
    "sim.replications": st.integers(1, 100),
    "cost.r": POSITIVE,
    "cost.C_c": COST,
    "cost.C_1": COST,
    "cost.C_m": COST,
    "cost.alpha": COST,
    "cost.rho": COST,
    "cost.T_load_ckpt": COST,
    "cost.T_load_log": COST,
    "cost.C_p": COST,
    "topology.msc": st.integers(1, 3),
    "topology.bsc_per_msc": st.integers(1, 4),
    "topology.bs_per_bsc": st.integers(1, 6),
    "topology.adjacency": st.sampled_from(["ring", "grid"]),
    "topology.inter_msc_hops": st.integers(2, 8),
    "strategy": st.sampled_from(KINDS),
    "recovery.deadline": st.one_of(st.just("auto"), floats(1e-3, 1e4)),
    "recovery.p_same_region": floats(0.0, 1.0),
    "frcr.erratum_bound": st.booleans(),
}


def test_every_config_key_is_drawn():
    assert set(VALUES) == set(CONFIG_KEYS)


def fold(trace):
    out = {kind: [0, 0.0] for kind in EVENT_FIELDS}
    for _, kind, delta in trace:
        out[kind][0] += 1
        out[kind][1] += delta.total
    return out


def assert_trace_folds_to(stats, trace, kind):
    """Costs are summed in dispatch order from 0.0, as the fold sums them,
    so each event kind's trace total equals its ``RunStats`` total exactly."""
    for kind_name, (n, cost) in fold(trace).items():
        count_field, cost_field = EVENT_FIELDS[kind_name]
        assert n == getattr(stats, count_field), (kind, kind_name)
        assert cost == getattr(stats, cost_field), (kind, kind_name)


def multi_cell(values):
    return values["topology.msc"] * values["topology.bsc_per_msc"] * values["topology.bs_per_bsc"] >= 2


def accepted(values):
    """The config ``values`` draw; a draw validation rejects is skipped, as
    the properties are claimed for accepted configs only (an all-zero set
    of load times and transfer costs calibrates an auto deadline to 0)."""
    try:
        return default_config().with_overrides(values)
    except ValidationError:
        reject()


@settings(max_examples=80, deadline=None)
@given(values=st.fixed_dictionaries(VALUES))
def test_accepted_configs_run_finite_conserved_and_paired(values):
    assume(multi_cell(values))
    cfg = accepted(values)
    counts = set()
    for kind in KINDS:
        trace: list = []
        stats = run_simulation(cfg, kind, cfg.sim.seed, trace=trace)
        for f in fields(RunStats):
            value = getattr(stats, f.name)
            assert all(map(math.isfinite, value.values() if isinstance(value, dict) else [value])), f.name
        assert_trace_folds_to(stats, trace, kind)
        counts.add(tuple(getattr(stats, count) for count, _ in EVENT_FIELDS.values())
                   + (stats.intra_bsc_count, stats.inter_bsc_count))
    assert len(counts) == 1


@settings(max_examples=40, deadline=None)
@given(values=st.fixed_dictionaries(VALUES))
def test_cached_prices_equal_fresh_prices_after_every_event(values):
    # The trace holds the cached deltas themselves, every one a piece was
    # handed, so a mutated shared delta would also break the trace fold.
    assume(multi_cell(values))
    cfg = accepted(values)
    # An empty store keeps the check after each event to this run's own
    # entries; test_inherited_prices_equal_fresh_prices checks inherited ones.
    strategies._price_tables.clear()
    timeline = generate_timeline(cfg, cfg.sim.seed, True)
    for kind in KINDS:
        strategy, fresh = make_strategy(kind, cfg.tree, cfg.sim, cfg.cost), {}
        assert_cached_prices_fresh(strategy, fresh)
        pieces = []
        for piece in fold_in_pieces(strategy, timeline):
            assert_cached_prices_fresh(strategy, fresh)
            pieces.append(piece)
        stats = stats_of(strategy, pieces)
        assert_trace_folds_to(stats, [entry for *_, trace in pieces for entry in trace], kind)
        assert stats == make_strategy(kind, cfg.tree, cfg.sim, cfg.cost).fold(timeline), kind


def run_kinds(cfg):
    """Every kind's ``RunStats`` and trace fold at the config's seed."""
    out = {}
    for kind in KINDS:
        trace: list = []
        stats = run_simulation(cfg, kind, cfg.sim.seed, trace=trace)
        out[kind] = stats, fold(trace)
    return out


@settings(max_examples=40, deadline=None)
@given(values=st.fixed_dictionaries(VALUES))
def test_runs_are_unchanged_when_no_price_is_stored(values):
    assume(multi_cell(values))
    cfg = accepted(values)
    stored = run_kinds(cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(strategies, "_PRICE_TABLE_LIMIT", 0)
        strategies._price_tables.clear()  # no table inherited from earlier runs
        assert run_kinds(cfg) == stored


def assert_full_table_prices_misses_afresh(overrides, table):
    # No checkpoint within the horizon, so the log only grows: pessimistic
    # meets more distinct (log size, hops) keys than ``table`` stores.
    cfg = default_config().with_overrides({
        "sim.T_c": 600.0, "sim.horizon": 500.0, "sim.lambda_w": 20.0, "sim.mu": 20.0,
        **overrides,
    })
    timeline = generate_timeline(cfg, cfg.sim.seed)
    assert "CHECKPOINT" not in {ev for _, ev, _ in timeline.events}
    strategy = make_strategy("pessimistic", cfg.tree, cfg.sim, cfg.cost)
    stats = strategy.fold(timeline)
    assert len(getattr(strategy, table)) == strategies._PRICE_TABLE_LIMIT
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(strategies, "_PRICE_TABLE_LIMIT", 0)
        strategies._price_tables.clear()  # no table inherited from earlier runs
        strategy = make_strategy("pessimistic", cfg.tree, cfg.sim, cfg.cost)
        assert strategy.fold(timeline) == stats
        assert not getattr(strategy, table)


def test_a_full_price_table_prices_its_misses_afresh():
    # ~10,000 handoffs.
    assert_full_table_prices_misses_afresh({}, "_move_prices")


def test_a_full_recovery_table_prices_its_misses_afresh():
    # ~10,000 failures, a write rate as high, and three hop counts.
    assert_full_table_prices_misses_afresh({"sim.lambda_f": 20.0}, "_recovery_prices")


def test_inherited_prices_equal_fresh_prices():
    # A grid of 16 cells under two MSCs 6 hops apart, then a ring of 9 cells
    # under one MSC, each at three handoff rates: every run of a kind shares
    # one set of tables, as no price reads the tree or the rates. The ring's
    # runs inherit the grid's cross-MSC recoveries, 8 hops for pessimistic
    # and 7 for proposed, which no BS of the ring lies at.
    strategies._price_tables.clear()
    grid = {"topology.adjacency": "grid", "topology.msc": 2, "topology.bsc_per_msc": 2,
            "topology.bs_per_bsc": 4, "topology.inter_msc_hops": 6}
    tables = {}
    for shape in (grid, {}):
        for mu in (0.02, 0.2, 2.0):
            cfg = default_config().with_overrides({
                **shape, "sim.mu": mu, "sim.lambda_f": 0.05, "sim.T_c": 300.0,
                "sim.horizon": 3000.0})
            timeline = generate_timeline(cfg, 11)
            for kind in KINDS:
                strategy = make_strategy(kind, cfg.tree, cfg.sim, cfg.cost)
                strategy.fold(timeline)
                assert_cached_prices_fresh(strategy)
                table = tables.setdefault(kind, strategy._recovery_prices)
                assert strategy._recovery_prices is table, kind
    assert {hops for _, hops in tables["pessimistic"]} >= {0, 2, 4, 8}
    assert {hops for _, hops in tables["proposed"]} >= {1, 3, 7}


@pytest.mark.parametrize("kind", KINDS)
def test_a_signed_zero_cost_gets_its_own_tables(kind):
    cfg = default_config().with_overrides({"cost.C_m": 0.0})
    timeline = generate_timeline(cfg, 5)
    runs = []
    for c_m in (0.0, -0.0, 0.0):
        cp = dataclasses.replace(cfg.cost, c_m=c_m)
        runs.append(make_strategy(kind, cfg.tree, cfg.sim, cp))
        runs[-1].fold(timeline)
        assert_cached_prices_fresh(runs[-1])
    zero, negative, zero_again = (run._write_runs for run in runs)
    assert zero and negative and zero_again
    assert negative is not zero
    # One slot a kind: the -0.0 tables replaced the 0.0 ones, which a
    # later 0.0 run builds afresh, so the store never grows past three sets.
    assert zero_again is not zero
    assert len(strategies._price_tables) <= len(KINDS)


@pytest.mark.parametrize("key", [*(f.metadata["key"] for f in fields(CostParams)),
                                 "sim.cache_capacity"])
def test_the_tables_key_on_every_price_input(key):
    # A run whose config changes only ``key`` gets new tables when a price
    # of its kind could read it, and otherwise shares the last run's. Had
    # the key left out an input its prices read, the changed run would
    # inherit prices made at the old value, and the fresh check would fail.
    base = default_config()
    value = base.raw_values()[key]
    changed = base.with_overrides({key: not value if isinstance(value, bool) else value * 2 + 1})
    unread = {"cost.C_p", "frcr.erratum_bound"}
    for kind in KINDS:
        runs = []
        for cfg in (base, changed):
            runs.append(make_strategy(kind, cfg.tree, cfg.sim, cfg.cost))
            runs[-1].fold(generate_timeline(cfg, 9))
        assert_cached_prices_fresh(runs[1])
        read = key not in unread and (kind == "proposed" or key != "sim.cache_capacity")
        assert (runs[1]._write_runs is not runs[0]._write_runs) == read, kind


def test_tables_shared_by_every_figure_leave_a_run_unchanged(monkeypatch):
    # Six figures in one process fill the tables a default run then
    # inherits: 3 reps a point keeps it short. A shared CostDelta or
    # WriteRun that any run changed would make the inherited run differ
    # from one priced from an empty store.
    cfg = default_config()
    for figure_id in FIGURE_IDS:
        run_figure(figure_spec(figure_id, cfg, reps=3), cfg)
    shared = run_kinds(cfg)
    for kind in KINDS:
        strategy = make_strategy(kind, cfg.tree, cfg.sim, cfg.cost)
        assert strategy._write_runs, kind
        assert_cached_prices_fresh(strategy)
    monkeypatch.setattr(strategies, "_price_tables", {})
    assert run_kinds(cfg) == shared


@settings(max_examples=40, deadline=None)
@given(values=st.fixed_dictionaries({
    **VALUES, "sim.cache_capacity": st.integers(1, 4), "sim.lambda_w": floats(2.0, 20.0),
}))
def test_proposed_write_runs_equal_a_per_write_replay(values):
    # Small caches and long runs flush several times within one run, so a
    # run can end on a flush after writes past an earlier one. Each run the
    # fold meets is checked against the replay of its own writes, from the
    # cache fill and piece count the fold left before it.
    assume(multi_cell(values))
    cfg = accepted(values)
    strategy = make_strategy("proposed", cfg.tree, cfg.sim, cfg.cost)
    timeline = generate_timeline(cfg, cfg.sim.seed)
    pieces, before = [], (len(strategy.cache), nonempty_fragments(strategy))
    for timed, stats, trace in fold_in_pieces(strategy, timeline):
        k = timed.writes[0]
        if k:
            key = (k, *before)
            run = fresh_write_run(strategy, key)
            assert [delta for *_, delta in trace] == [
                run.delta if i in run.charged else NO_COST for i in range(k)], key
            assert stats.peak_fragments == run.peak_pieces, key
        before = (len(strategy.cache), nonempty_fragments(strategy))
        pieces.append((timed, stats, trace))
    assert stats_of(strategy, pieces) == make_strategy(
        "proposed", cfg.tree, cfg.sim, cfg.cost).fold(timeline)


@settings(max_examples=60, deadline=None)
@given(values=st.fixed_dictionaries(VALUES), short=st.booleans(), no_failure=st.booleans())
def test_timeline_counts_each_kind_of_event(values, short, no_failure):
    # ``short`` ends the run before the first checkpoint, which fires at T_c.
    # ``no_failure`` makes the first failure gap, -log(1 - u) / 1e-300,
    # outlast any drawn horizon unless u is exactly 0.
    assume(multi_cell(values))
    if short:
        values = {**values, "sim.horizon": values["sim.T_c"] / 2}
    if no_failure:
        values = {**values, "sim.lambda_f": 1e-300}
    cfg = accepted(values)
    timeline = generate_timeline(cfg, cfg.sim.seed)
    kinds = [ev for _, ev, _ in timeline.events]
    assert timeline.checkpoints == kinds.count("CHECKPOINT")
    assert timeline.failures == kinds.count("FAILURE")
    assert timeline.intra_bsc + timeline.inter_bsc == kinds.count("HANDOFF")
    cell_bsc, cell, intra = cfg.tree.cell_bsc, 0, 0
    for _, ev, to in timeline.events:
        if ev == "HANDOFF":
            intra += cell_bsc[cell] == cell_bsc[to]
        if ev != "CHECKPOINT":
            cell = to
    assert timeline.intra_bsc == intra
    if short:
        assert timeline.checkpoints == 0
    if no_failure:
        assert timeline.failures == 0


@settings(max_examples=60, deadline=None)
@given(values=st.fixed_dictionaries(VALUES))
def test_write_times_leave_the_timeline_unchanged(values):
    # writes[i] fire between events[i - 1] and events[i]. On a tie a
    # checkpoint or handoff dispatches before a write and a write before a
    # failure; the last run ends at the horizon, which a write may meet.
    assume(multi_cell(values))
    cfg = accepted(values)
    plain = generate_timeline(cfg, cfg.sim.seed)
    timed = generate_timeline(cfg, cfg.sim.seed, True)
    assert plain.write_times is None
    assert timed.events == plain.events
    assert timed.writes == plain.writes
    assert (timed.intra_bsc, timed.inter_bsc) == (plain.intra_bsc, plain.inter_bsc)
    times = timed.write_times
    assert len(times) == sum(timed.writes)
    assert all(a <= b for a, b in zip(times, times[1:]))
    before = [(0.0, "CHECKPOINT")] + [(t, ev) for t, ev, _ in timed.events]
    after = [(t, ev) for t, ev, _ in timed.events] + [(cfg.sim.sim_horizon, "FAILURE")]
    i = 0
    for k, (lo, prev), (hi, nxt) in zip(timed.writes, before, after):
        for w in times[i:i + k]:
            assert lo < w if prev == "FAILURE" else lo <= w
            assert w <= hi if nxt == "FAILURE" else w < hi
        i += k


@settings(max_examples=60, deadline=None)
@given(values=st.fixed_dictionaries({**VALUES, "sim.lambda_f": floats(1e-6, 1e-3)}))
def test_replay_without_loss_when_no_failure_occurs(values):
    assume(multi_cell(values))
    cfg = accepted(values)
    timeline = generate_timeline(cfg, cfg.sim.seed)
    kinds = [ev for _, ev, _ in timeline.events]
    assume("FAILURE" not in kinds)
    # writes[i] precedes events[i]; the last entry follows the last event.
    last_checkpoint = max((i for i, ev in enumerate(kinds) if ev == "CHECKPOINT"), default=-1)
    total = sum(timeline.writes)
    pending = sum(timeline.writes[last_checkpoint + 1:])
    expected = list(range(total - pending + 1, total + 1))
    for kind in KINDS:
        strategy = make_strategy(kind, cfg.tree, cfg.sim, cfg.cost)
        strategy.fold(timeline)
        assert strategy.replay_sequence() == expected, kind


@settings(max_examples=40, deadline=None)
@given(values=st.fixed_dictionaries(VALUES))
def test_replay_loses_only_what_recoveries_report(values):
    # After every event the log replays the writes since the last
    # checkpoint, less the newest entries each recovery since then reported
    # lost. A failure loses only the host's cache, which every other event
    # empties, so it loses at most the writes since the event before it.
    assume(multi_cell(values))
    cfg = accepted(values)
    timeline = generate_timeline(cfg, cfg.sim.seed)
    assume("FAILURE" in {ev for _, ev, _ in timeline.events})
    for kind in KINDS:
        strategy = make_strategy(kind, cfg.tree, cfg.sim, cfg.cost)
        # The writes since the last event, and those the log should replay.
        run, expected, pieces = 0, [], []
        for timed, stats, trace in fold_in_pieces(strategy, timeline):
            pieces.append((timed, stats, trace))
            ev = timed.events[0][1] if timed.events else "WRITE"
            if ev == "WRITE":
                run = timed.writes[0]
                expected.extend(range(strategy.next_seq - run, strategy.next_seq))
            else:
                if ev == "CHECKPOINT":
                    expected.clear()
                elif ev == "FAILURE":
                    lost = stats.lost_entries
                    assert lost <= (run if kind == "proposed" else 0), kind
                    del expected[len(expected) - lost:]
                run = 0
            assert strategy.replay_sequence() == expected, (kind, ev)
        assert stats_of(strategy, pieces) == make_strategy(kind, cfg.tree, cfg.sim, cfg.cost).fold(timeline)


def log_state(strategy):
    """What folding leaves of the host and its log, entries included."""
    return (
        strategy.replay_sequence(), list(strategy.cache),
        [(frag.site, frag.region, list(frag.entries)) for frag in strategy.fragments],
        strategy.checkpoint_site, strategy.checkpoint_region, nonempty_fragments(strategy),
        dict(strategy.region_peaks), strategy.current_cell, strategy.current_bsc,
        strategy.next_seq,
    )


@settings(max_examples=40, deadline=None)
@given(values=st.fixed_dictionaries({
    **VALUES, "sim.cache_capacity": st.integers(2, 8), "sim.lambda_f": floats(0.01, 1.0),
}), cuts=st.lists(st.integers(0, 2**32), max_size=4))
def test_folding_whole_leaves_the_log_that_stepping_leaves(values, cuts):
    # Writes, handoffs and failures between purges leave entries in the
    # fragments and in the cache, and recoveries lose cached ones. Folding
    # the timeline whole, in pieces cut at drawn events, or one run of
    # writes or one event at a time must leave the same log, though a fold
    # of many events rebuilds it once, at its end. Folded a run of writes
    # or an event at a time, the pieces' traces, joined, are the whole
    # fold's entry by entry, and so are the RunStats joined from them.
    assume(multi_cell(values))
    cfg = accepted(values)
    timeline = generate_timeline(cfg, cfg.sim.seed, True)
    n = len(timeline.events)
    assume("FAILURE" in {ev for _, ev, _ in timeline.events})
    bounds = sorted({0, n, *(cut % (n + 1) for cut in cuts)})
    for kind in KINDS:
        whole, stepped, cut = (make_strategy(kind, cfg.tree, cfg.sim, cfg.cost) for _ in range(3))
        trace: list = []
        stats = whole.fold(timeline, trace)
        pieces = list(fold_in_pieces(stepped, timeline))
        assert [entry for *_, piece_trace in pieces for entry in piece_trace] == trace, kind
        assert stats_of(stepped, pieces) == stats, kind
        for a, b in zip(bounds, bounds[1:]):
            writes = timeline.writes[a:b] + [timeline.writes[n] if b == n else 0]
            cut.fold(Timeline(timeline.events[a:b], writes, 0, 0, 0, 0))
        assert log_state(whole) == log_state(stepped) == log_state(cut), kind


@settings(max_examples=40, deadline=None)
@given(values=st.fixed_dictionaries({**VALUES, "sim.cache_capacity": st.integers(1, 8)}))
def test_only_writes_raise_the_piece_count(values):
    # The fold reads peak_fragments from the runs of writes alone, so no
    # checkpoint, handoff or recovery may leave more pieces than it found.
    # Small caches make proposed flush inside runs of writes as well. Lazy
    # keys its write runs on its fragment count as its piece count, so no
    # lazy fragment may ever be empty.
    assume(multi_cell(values))
    cfg = accepted(values)
    timeline = generate_timeline(cfg, cfg.sim.seed)
    for kind in KINDS:
        strategy = make_strategy(kind, cfg.tree, cfg.sim, cfg.cost)
        before, pieces = held_pieces(strategy), []
        for timed, stats, trace in fold_in_pieces(strategy, timeline):
            assert kind != "lazy" or all(f.entries for f in strategy.fragments)
            if timed.events:
                assert held_pieces(strategy) <= before, (kind, timed.events[0][1])
            before = held_pieces(strategy)
            pieces.append((timed, stats, trace))
        assert stats_of(strategy, pieces) == make_strategy(kind, cfg.tree, cfg.sim, cfg.cost).fold(timeline)

