import json
import math
import subprocess
import sys
import time
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mhlogsim.config import Config, default_config
from mhlogsim.engine import (
    PCG64Stream,
    RunStats,
    failure_first,
    replicate,
    run_simulation,
    sample_exponential,
    split_seed,
)
from mhlogsim.model import CostParams, SimParams, ValidationError
from mhlogsim.strategies import make_strategy
from mhlogsim.topology import BS, bsc_site
from mhlogsim import engine, experiments, topology

from conftest import fold_in_pieces, fold_steps, mean_pending_log, stats_of


class FakeRng:
    """Returns a scripted uniform value and bounded integer so draws can be
    pinned."""

    def __init__(self, value, index=0):
        self.value, self.index = value, index

    def random(self):
        return self.value

    def integers(self, n):
        assert 0 <= self.index < n
        return self.index


def sim_config(**overrides) -> Config:
    return default_config().with_overrides(overrides)


class TestSampleExponential:
    def test_u_equal_one_gives_zero(self):
        assert sample_exponential(2.0, FakeRng(0.0)) == 0.0

    def test_analytic_inversion(self):
        rng = FakeRng(1.0 - math.exp(-1.0))
        assert sample_exponential(1.0, rng) == pytest.approx(1.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            sample_exponential(0.0, FakeRng(0.5))

    def test_sample_mean_matches_rate(self):
        rng = np.random.Generator(np.random.PCG64(11))
        n = 100_000
        mean = sum(sample_exponential(0.01, rng) for _ in range(n)) / n
        assert abs(mean - 100.0) / 100.0 < 0.02


# integers(n) bounds: no draw at 1, then Lemire's method, whose rejection
# fires on about half the draws just above 2**31.
STREAM_BOUNDS = (1, 2, 3, 4, 7, 1000, topology.MAX_CELLS, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32)


class TestPCG64Stream:
    """The timeline's stream must give exactly what scalar
    ``Generator.random()`` and ``Generator.integers(n)`` calls give."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        lead=st.integers(0, engine._BLOCK),
        ops=st.lists(st.sampled_from((None,) + STREAM_BOUNDS), min_size=1, max_size=8),
    )
    @example(seed=1, lead=0, ops=[2**31 + 1])
    @example(seed=2, lead=engine._BLOCK - 1, ops=[2, 2**32])
    def test_mixed_draws_equal_generator(self, seed, lead, ops):
        """``lead`` random() calls, then ``ops`` (None is a random() call,
        n an integers(n) call) with a random() after each pass, repeated
        until more than two blocks of raw words have been read."""
        ours = PCG64Stream(seed)
        theirs = np.random.Generator(np.random.PCG64(seed))
        for _ in range(lead):
            assert ours.random() == theirs.random()
        randoms = lead
        while randoms <= 2 * engine._BLOCK:
            for n in ops + [None]:
                if n is None:
                    assert ours.random() == theirs.random()
                    randoms += 1
                else:
                    assert ours.integers(n) == int(theirs.integers(n))

    @pytest.mark.parametrize("n", [0, 2**32 + 1])
    def test_rejects_bounds_outside_32_bits(self, n):
        with pytest.raises(ValueError):
            PCG64Stream(0).integers(n)


def test_split_seed_documented_formula():
    master = 0xDEADBEEF
    mult = 0x9E3779B97F4A7C15
    assert split_seed(master, 0) == (master ^ (mult & 0xFFFFFFFFFFFFFFFF))
    assert split_seed(master, 2) == (master ^ ((mult * 3) & 0xFFFFFFFFFFFFFFFF))


class TestEventQueue:
    """generate_timeline's four next-time clocks, one per event kind, are its
    event queue: the earliest clock fires, the earlier kind in dispatch
    priority first on a tie."""

    @pytest.fixture(autouse=True)
    def scripted_timeline_stays_here(self, monkeypatch):
        # These tests script the draws; keep their timelines out of the
        # engine's slot, where a later run on the same config and seed
        # would find them.
        monkeypatch.setattr(engine, "_last", None)

    # A stream whose every uniform is 0.5 makes every gap -log(0.5) / rate,
    # so a clock at rate L = -log(0.5) ticks exactly once per time unit.
    L = -math.log(0.5)

    def test_priority_order_for_simultaneous_events(self, monkeypatch):
        # Every gap equal to T_c makes all four kinds fire together.
        monkeypatch.setattr(engine, "PCG64Stream", lambda seed: FakeRng(0.5))
        L = self.L
        cfg = sim_config(**{
            "sim.T_c": 1.0, "sim.lambda_w": L, "sim.mu": L, "sim.lambda_f": L,
            "sim.horizon": 2.5,
        })
        trace = []
        run_simulation(cfg, "lazy", 3, trace=trace)
        order = ["CHECKPOINT", "HANDOFF", "WRITE", "FAILURE"]
        assert [(t, kind) for t, kind, _ in trace] == (
            [(1.0, kind) for kind in order] + [(2.0, kind) for kind in order]
        )

    def test_time_order_dominates(self, monkeypatch):
        trace = []
        run_simulation(sim_config(**{"sim.horizon": 1000.0}), "lazy", 3, trace=trace)
        times = [t for t, _, _ in trace]
        assert times == sorted(times)

        # A failure due at T_c / 2 goes before the checkpoint due at T_c,
        # although FAILURE is the lowest-priority kind; writes and handoffs
        # are due at 2 * T_c.
        monkeypatch.setattr(engine, "PCG64Stream", lambda seed: FakeRng(0.5))
        L = self.L
        cfg = sim_config(**{
            "sim.T_c": 1.0, "sim.lambda_w": L / 2, "sim.mu": L / 2, "sim.lambda_f": 2 * L,
            "sim.horizon": 1.2,
        })
        trace = []
        run_simulation(cfg, "lazy", 3, trace=trace)
        assert [(t, kind) for t, kind, _ in trace] == [
            (0.5, "FAILURE"),
            (1.0, "CHECKPOINT"),
            (1.0, "FAILURE"),
        ]


class TestRunSimulation:
    def test_identical_inputs_identical_stats(self):
        cfg = sim_config()
        for kind in ("lazy", "pessimistic", "proposed"):
            assert run_simulation(cfg, kind, 7) == run_simulation(cfg, kind, 7)

    def test_no_failures_before_horizon(self):
        # A vanishing failure rate puts the first failure far past the
        # horizon; with nothing to recover the probability reports 1.
        cfg = sim_config(**{"sim.lambda_f": 1e-12, "sim.horizon": 2000.0})
        stats = run_simulation(cfg, "proposed", 3)
        assert stats.failure_count == 0
        assert stats.recovery_probability == 1.0
        assert stats.total_recovery_cost == 0.0

    def test_write_free_pessimistic_moves_only_checkpoints(self):
        cfg = sim_config(**{
            "sim.lambda_w": 0.0,
            "sim.lambda_f": 1e-12,
            "sim.horizon": 5000.0,
            "topology.msc": 1,
            "topology.bsc_per_msc": 1,
            "topology.bs_per_bsc": 3,
        })
        stats = run_simulation(cfg, "pessimistic", 9)
        # single region: every move is 2 wired hops, so each handoff costs
        # exactly the checkpoint transfer plus the acknowledgement
        cp = CostParams()
        expected = stats.handoff_count * (cp.c_c * cp.rho * 2 + cp.c_m)
        assert stats.total_handoff_cost == pytest.approx(expected, rel=1e-12)
        assert stats.write_count == 0

    def test_proposed_recovers_cheaper_than_lazy_on_same_seed(self):
        cfg = sim_config()
        prop = run_simulation(cfg, "proposed", 21)
        lazy = run_simulation(cfg, "lazy", 21)
        assert prop.failure_count == lazy.failure_count > 0
        assert prop.total_recovery_cost < lazy.total_recovery_cost

    def test_same_seed_same_timeline_across_strategies(self):
        cfg = sim_config()
        runs = {k: run_simulation(cfg, k, 5) for k in ("lazy", "pessimistic", "proposed")}
        counts = {
            (r.handoff_count, r.write_count, r.failure_count, r.checkpoint_count)
            for r in runs.values()
        }
        assert len(counts) == 1

    def test_totals_equal_fold_of_event_deltas(self):
        cfg = sim_config(**{"sim.horizon": 5000.0})
        for kind in ("lazy", "pessimistic", "proposed"):
            trace = []
            stats = run_simulation(cfg, kind, 13, trace=trace)
            by_kind = {"CHECKPOINT": 0.0, "HANDOFF": 0.0, "WRITE": 0.0, "FAILURE": 0.0}
            for _, name, delta in trace:
                by_kind[name] += delta.total
            assert stats.total_checkpoint_cost == pytest.approx(by_kind["CHECKPOINT"])
            assert stats.total_handoff_cost == pytest.approx(by_kind["HANDOFF"])
            assert stats.total_logging_cost == pytest.approx(by_kind["WRITE"])
            assert stats.total_recovery_cost == pytest.approx(by_kind["FAILURE"])
            total = sum(by_kind.values())
            assert stats.mean_cost_per_handoff_interval == pytest.approx(
                total / max(1, stats.handoff_count)
            )

    def test_recovery_probability_in_unit_interval(self):
        cfg = sim_config(**{"sim.lambda_f": 0.01})
        stats = run_simulation(cfg, "lazy", 2)
        assert 0.0 <= stats.recovery_probability <= 1.0
        assert stats.recovery_success_count <= stats.failure_count

    def test_bsc_peak_memory_tracked(self):
        cfg = sim_config()
        stats = run_simulation(cfg, "proposed", 17)
        assert stats.bsc_peak_entries
        assert all(v > 0 for v in stats.bsc_peak_entries.values())


# Each bounded SimParams and CostParams row, with a value outside its bound.
OUT_OF_RANGE = [
    (f, "eager" if isinstance(f.default, str) else type(f.default)(-1))
    for cls in (SimParams, CostParams) for f in fields(cls) if f.metadata["bound"]
] + [(SimParams.__dataclass_fields__["p_same_region"], 1.5)]


@pytest.mark.parametrize("row, value", OUT_OF_RANGE,
                         ids=[f"{f.name}={v}" for f, v in OUT_OF_RANGE])
def test_run_guard_checks_every_row(row, value):
    """A Config made outside parsing, by ``dataclasses.replace``, is checked
    by ``run_simulation`` against the same rows, naming the field."""
    cfg = default_config()
    part = "sim" if row.name in SimParams.__dataclass_fields__ else "cost"
    bad = replace(cfg, **{part: replace(getattr(cfg, part), **{row.name: value})})
    with pytest.raises(ValidationError) as info:
        run_simulation(bad, "proposed", 1)
    assert info.value.violations == [row.metadata["bound"].violation(row.name, value)]


def rescan_placement(strategy) -> tuple[int, dict[int, int]]:
    """Brute-force placement of a strategy's log: non-empty pieces (the cache
    counts as one) and entries per BSC region, from the fragments themselves.
    The regions the strategy records must be those of its sites."""
    tree = strategy.tree
    assert strategy.checkpoint_region == topology.region_of(tree, strategy.checkpoint_site)
    pieces = int(bool(strategy.cache))
    per_bsc: dict[int, int] = {}
    for frag in strategy.fragments:
        if frag.entries:
            pieces += 1
            kind, idx = frag.site
            region = idx // tree.bss_per_bsc if kind == BS else idx
            assert frag.region == region, frag
            per_bsc[region] = per_bsc.get(region, 0) + len(frag.entries)
    return pieces, per_bsc


class TestPlacementPeaks:
    """The placement peaks come from running tallies; a rescan of the log
    after every event, each write included, must give the same maxima."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["lazy", "pessimistic", "proposed"]),
        t_c=st.sampled_from([20.0, 150.0, 1000.0, 5000.0]),
        mu=st.sampled_from([0.005, 0.05, 0.3]),
        lambda_w=st.sampled_from([0.0, 0.1, 0.6]),
        lambda_f=st.sampled_from([0.001, 0.02]),
        cache=st.integers(1, 6),
        shape=st.sampled_from([(1, 1, 2), (1, 3, 3), (2, 2, 2), (1, 2, 4)]),
        adjacency=st.sampled_from(["ring", "grid"]),
        seed=st.integers(0, 2**32),
    )
    def test_peaks_equal_rescan_after_every_event(
        self, kind, t_c, mu, lambda_w, lambda_f, cache, shape, adjacency, seed
    ):
        cfg = sim_config(**{
            "sim.T_c": t_c, "sim.mu": mu, "sim.lambda_w": lambda_w,
            "sim.lambda_f": lambda_f, "sim.cache_capacity": cache,
            "sim.horizon": 1500.0, "topology.msc": shape[0],
            "topology.bsc_per_msc": shape[1], "topology.bs_per_bsc": shape[2],
            "topology.adjacency": adjacency,
        })
        peak = [0]
        bsc_peaks: dict[int, int] = {}

        def rescan(strategy):
            # Pessimistic keeps its one fragment with the checkpoint at the
            # host's BS; proposed holds at most one, with the checkpoint at
            # the host's BSC.
            if kind == "pessimistic":
                site = (BS, strategy.current_cell)
                assert [f.site for f in strategy.fragments] == [site]
                assert strategy.checkpoint_site == site
            elif kind == "proposed":
                site = bsc_site(strategy.current_bsc)
                assert [f.site for f in strategy.fragments] in ([], [site])
                assert strategy.checkpoint_site == site
            pieces, per_bsc = rescan_placement(strategy)
            peak[0] = max(peak[0], pieces)
            for region, n in per_bsc.items():
                bsc_peaks[region] = max(bsc_peaks.get(region, 0), n)

        timeline = engine.generate_timeline(cfg, seed)
        strategy, single = (make_strategy(kind, cfg.tree, cfg.sim, cfg.cost) for _ in range(2))
        pieces = []
        for timed, stats, trace in fold_in_pieces(strategy, timeline):
            pieces.append((timed, stats, trace))
            if timed.events:
                single.fold(timed)
                rescan(strategy)
            else:
                # The fold takes whole runs of writes. ``single`` takes each
                # run one write at a time and is rescanned after every write.
                for _ in range(timed.writes[0]):
                    fold_steps(single, 1)
                    rescan(single)
            assert rescan_placement(strategy) == rescan_placement(single)
        stats = stats_of(strategy, pieces)
        assert stats.peak_fragments == peak[0]
        assert stats.bsc_peak_entries == bsc_peaks
        assert stats == make_strategy(kind, cfg.tree, cfg.sim, cfg.cost).fold(timeline)


def fold_event(strategy, step):
    """Fold one write or event, a step as ``fold_steps`` reads it, into
    ``strategy``, and return its ``RunStats`` and its traced price."""
    stats, [(_, _, delta)] = fold_steps(strategy, step)
    return stats, delta


def reference_run(cfg, kind, seed, trace):
    """The per-event kernel that the timeline fold replaced, kept here as a
    reference: four clocks, one dispatch per event, each write and event
    folded as a piece of its own, and placement peaks read after every
    event."""
    sp, tree = cfg.sim, cfg.tree
    rng = np.random.Generator(np.random.PCG64(seed))
    strategy = make_strategy(kind, tree, sp, cfg.cost)
    write_at = sample_exponential(sp.lambda_w, rng) if sp.lambda_w > 0 else math.inf
    handoff_at = sample_exponential(sp.mu, rng)
    clocks = [sp.t_c, handoff_at, write_at, sample_exponential(sp.lambda_f, rng)]
    names = ("CHECKPOINT", "HANDOFF", "WRITE", "FAILURE")
    count = dict.fromkeys(names, 0)
    cost = dict.fromkeys(names, 0.0)
    intra = successes = lost = home = peak = 0
    retrieval = cost_home = 0.0
    bsc_peaks: dict[int, int] = {}
    while True:
        t = min(clocks)
        if t > sp.sim_horizon:
            break
        ev = clocks.index(t)
        if ev == 0:
            _, delta = fold_event(strategy, "CHECKPOINT")
            clocks[0] = t + sp.t_c
        elif ev == 1:
            frm = strategy.current_cell
            to = topology.sample_next_cell(tree, frm, rng)
            intra += topology.bsc_of(tree, frm) == topology.bsc_of(tree, to)
            _, delta = fold_event(strategy, ("HANDOFF", to))
            clocks[1] = t + sample_exponential(sp.mu, rng)
        elif ev == 2:
            _, delta = fold_event(strategy, 1)
            clocks[2] = t + sample_exponential(sp.lambda_w, rng)
        else:
            region = topology.cells_of_bsc(tree, strategy.current_bsc)
            if rng.random() < cfg.sim.p_same_region or tree.n_bscs == 1:
                cells = region
            else:
                cells = [c for c in range(tree.n_cells) if c not in region]
            stats, delta = fold_event(strategy, ("FAILURE", cells[int(rng.integers(len(cells)))]))
            successes += stats.recovery_success_count
            retrieval += stats.mean_retrieval_time
            lost += stats.lost_entries
            if stats.home_recovery_count:
                cost_home += delta.total
                home += 1
            clocks[3] = t + sample_exponential(sp.lambda_f, rng)
        count[names[ev]] += 1
        cost[names[ev]] += delta.total
        trace.append((t, names[ev], delta))
        peak = max(peak, strategy.pieces + bool(strategy.cache))
        for region, n in rescan_placement(strategy)[1].items():
            bsc_peaks[region] = max(bsc_peaks.get(region, 0), n)
    failures = count["FAILURE"]
    return RunStats(
        handoff_count=count["HANDOFF"],
        intra_bsc_count=intra,
        inter_bsc_count=count["HANDOFF"] - intra,
        write_count=count["WRITE"],
        checkpoint_count=count["CHECKPOINT"],
        failure_count=failures,
        recovery_success_count=successes,
        total_handoff_cost=cost["HANDOFF"],
        total_recovery_cost=cost["FAILURE"],
        total_logging_cost=cost["WRITE"],
        total_checkpoint_cost=cost["CHECKPOINT"],
        mean_cost_per_handoff_interval=(
            cost["HANDOFF"] + cost["FAILURE"] + cost["WRITE"] + cost["CHECKPOINT"]
        ) / max(1, count["HANDOFF"]),
        recovery_probability=successes / failures if failures else 1.0,
        mean_retrieval_time=retrieval / failures if failures else 0.0,
        peak_fragments=peak,
        lost_entries=lost,
        recovery_cost_home_total=cost_home,
        home_recovery_count=home,
        bsc_peak_entries=bsc_peaks,
    )


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["lazy", "pessimistic", "proposed"]),
    t_c=st.sampled_from([20.0, 150.0, 1000.0]),
    mu=st.sampled_from([0.005, 0.05, 0.3]),
    lambda_w=st.sampled_from([0.0, 0.1, 0.6, 2.0]),
    lambda_f=st.sampled_from([0.001, 0.02, 0.2]),
    cache=st.integers(1, 6),
    shape=st.sampled_from([(1, 1, 2), (1, 3, 3), (2, 2, 2), (1, 2, 4)]),
    adjacency=st.sampled_from(["ring", "grid"]),
    p_same_region=st.sampled_from([0.0, 0.8, 1.0]),
    # Unit costs such as 0.1 are inexact in binary, so a run's cost summed
    # as k * c would differ from k additions in the last bits, and every
    # CostDelta field's float order shows in the trace.
    c_1=st.sampled_from([1.0, 0.1, 0.7]),
    alpha=st.sampled_from([1.0, 0.3]),
    rho=st.sampled_from([1.0, 0.1, 1.3]),
    r=st.sampled_from([0.1, 0.7, 1.3]),
    c_m=st.sampled_from([0.5, 0.1, 1.3]),
    c_c=st.sampled_from([5.0, 0.7, 1.3]),
    seed=st.integers(0, 2**64 - 1),
)
def test_fold_equals_per_event_reference(
    kind, t_c, mu, lambda_w, lambda_f, cache, shape, adjacency, p_same_region, c_1, alpha,
    rho, r, c_m, c_c, seed,
):
    cfg = sim_config(**{
        "sim.T_c": t_c, "sim.mu": mu, "sim.lambda_w": lambda_w,
        "sim.lambda_f": lambda_f, "sim.cache_capacity": cache,
        "sim.horizon": 1500.0, "topology.msc": shape[0],
        "topology.bsc_per_msc": shape[1], "topology.bs_per_bsc": shape[2],
        "topology.adjacency": adjacency, "recovery.p_same_region": p_same_region,
        "cost.C_1": c_1, "cost.alpha": alpha, "cost.rho": rho, "cost.r": r,
        "cost.C_m": c_m, "cost.C_c": c_c,
    })
    expected_trace: list = []
    expected = reference_run(cfg, kind, seed, expected_trace)
    trace: list = []
    assert run_simulation(cfg, kind, seed, trace=trace) == expected
    assert trace == expected_trace
    # The untraced fold takes the same timeline without write times.
    engine._last = None
    assert run_simulation(cfg, kind, seed) == expected


class TestTimelineCache:
    """The engine keeps one timeline, with the Config object and seed it
    was made for."""

    @pytest.fixture(autouse=True)
    def empty_slot(self, monkeypatch):
        monkeypatch.setattr(engine, "_last", None)

    def test_sweep_generates_each_timeline_once(self, monkeypatch):
        made = []
        original = engine.generate_timeline

        def counting(cfg, seed, keep_write_times=False):
            made.append((cfg, seed))
            return original(cfg, seed, keep_write_times)

        monkeypatch.setattr(engine, "generate_timeline", counting)
        cfg = default_config()
        spec = experiments.figure_spec("fig8", cfg, reps=3, master_seed=5)
        spec = replace(spec, sweep_values=(50.0, 500.0),
                       overrides={**spec.overrides, "sim.horizon": 1000.0})
        rows = experiments.run_figure(spec, cfg)
        assert len(rows) == 2 * 3
        assert len(made) == len(set(made)) == 2 * 3
        point, seed = made[-1]
        assert engine._last[0] is point and engine._last[1] == seed

    def test_fresh_timeline_gives_the_cached_result(self):
        cfg = sim_config(**{"sim.horizon": 3000.0})
        kinds = ("lazy", "pessimistic", "proposed")
        shared = [run_simulation(cfg, "lazy", 77)]
        timeline = engine._last[2]
        shared += [run_simulation(cfg, kind, 77) for kind in kinds[1:]]
        assert engine._last[2] is timeline
        for kind, stats in zip(kinds, shared):
            engine._last = None
            assert run_simulation(cfg, kind, 77) == stats
        # An equal but distinct Config gets a timeline of its own.
        assert run_simulation(sim_config(**{"sim.horizon": 3000.0}), "lazy", 77) == shared[0]
        assert engine._last[0] is not cfg
        # A traced run on a kept timeline without write times makes a new
        # one with them; the numbers stay the same.
        run_simulation(cfg, "proposed", 77)
        assert engine._last[2].write_times is None
        trace: list = []
        assert run_simulation(cfg, "proposed", 77, trace=trace) == shared[2]
        assert engine._last[0] is cfg and engine._last[2].write_times is not None

    def test_kept_timeline_runs_never_hash_the_network(self, monkeypatch):
        hashes = []
        original = topology.NetworkTree.__hash__

        def counting(tree):
            hashes.append(tree)
            return original(tree)

        monkeypatch.setattr(topology.NetworkTree, "__hash__", counting)
        cfg = sim_config(**{"sim.horizon": 1000.0})
        for kind in ("lazy", "pessimistic", "proposed"):
            run_simulation(cfg, kind, 3)
        assert hashes == []


def test_bsc_of_calls_per_event_do_not_grow_with_the_log(count_calls):
    # Lazy keeps ~mu * T_c fragments between purges: about 3 at T_c=50 and
    # well over 100 at T_c=4000. Placement work per event must not follow:
    # the fold reads each cell's BSC from the tree's table, so a run
    # calls bsc_of once, at birth, and hops_between once at birth and once
    # per piece a recovery fetches, the checkpoint included. No write,
    # handoff or checkpoint calls either. Folded one piece at a time, a
    # recovery fetches the non-empty fragments held before it and the
    # checkpoint; the whole fold makes the same calls.
    calls = count_calls("bsc_of", "hops_between")
    for t_c in (50.0, 4000.0):
        cfg = sim_config(**{
            "sim.T_c": t_c, "sim.mu": 0.1, "sim.lambda_w": 0.1, "sim.horizon": 20000.0,
        })
        timeline = engine.generate_timeline(cfg, 12345)
        calls.clear()
        strategy = make_strategy("lazy", cfg.tree, cfg.sim, cfg.cost)
        fetched, pieces, held = [], [], 0
        for timed, stats, trace in fold_in_pieces(strategy, timeline):
            if stats.failure_count:
                fetched.append(held + 1)
            held = sum(bool(frag.entries) for frag in strategy.fragments)
            pieces.append((timed, stats, trace))
        stats = stats_of(strategy, pieces)
        assert len(fetched) == stats.failure_count > 0, t_c
        assert calls["bsc_of"] == 1, t_c
        assert calls["hops_between"] == 1 + sum(fetched), t_c
        stepped = dict(calls)
        calls.clear()
        assert run_simulation(cfg, "lazy", 12345) == stats, t_c
        assert calls == stepped, t_c
    assert stats.peak_fragments > 100


class TestRecoveryCell:
    @pytest.mark.parametrize("shape", [(1, 2, 1), (1, 3, 3), (2, 2, 2), (1, 2, 4), (3, 2, 5)])
    def test_foreign_index_skips_the_region_block(self, shape):
        tree = topology.build_topology(*shape)
        size = tree.bss_per_bsc
        for region in range(tree.n_bscs):
            foreign = [c for c in range(tree.n_cells) if c // size != region]
            for j, cell in enumerate(foreign):
                # u = 1 is never below p_same_region = 1: a foreign restart.
                assert engine._sample_recovery_cell(tree, region, 1.0, FakeRng(1.0, j)) == cell
            for j in range(size):
                drawn = engine._sample_recovery_cell(tree, region, 1.0, FakeRng(0.5, j))
                assert drawn == region * size + j

    def test_large_ring_with_foreign_restarts_finishes(self):
        cfg = sim_config(**{
            "topology.msc": 1, "topology.bsc_per_msc": 1000, "topology.bs_per_bsc": 200,
            "recovery.p_same_region": 0.0, "sim.lambda_f": 1.0, "sim.mu": 1.0,
            "sim.horizon": 2000.0,
        })
        assert cfg.tree.n_cells == 200_000
        t0 = time.perf_counter()
        stats = run_simulation(cfg, "proposed", 5)
        # About 2,000 restarts, none in the failure region; listing the
        # foreign cells for each would take tens of seconds.
        assert stats.failure_count > 1500
        assert stats.home_recovery_count == 0
        assert time.perf_counter() - t0 < 10.0


class TestEmptySamples:
    def test_summarize_empty_is_nan_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert all(math.isnan(x) for x in engine.summarize([]))

    def test_fig4_without_home_recoveries_writes_nan_rows(self):
        cfg = default_config().with_overrides({"recovery.p_same_region": 0.0})
        spec = experiments.figure_spec("fig4", cfg, reps=2, master_seed=3)
        spec = replace(spec, sweep_values=(0.02, 0.1),
                       overrides={**spec.overrides, "sim.horizon": 2000.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = experiments.run_figure(spec, cfg)
        home = [r for r in rows if r.metric_name == "recovery_cost_per_failure_home"]
        assert len(home) == 6
        assert all(math.isnan(v) for r in home for v in (r.mean, r.ci95_low, r.ci95_high))
        others = [r for r in rows if r not in home]
        assert others and all(math.isfinite(r.mean) for r in others)


# Runs in a fresh interpreter, whose sys.modules shows what the program
# itself loaded; argv[1] is the src directory, argv[2] an output directory.
DEFERRED_SCIPY = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from mhlogsim import cli, engine
from mhlogsim.config import default_config
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["analytic"]), cli.main(["crosscheck", "--intervals", "1000"]),
             cli.main(["figure", "fig6", "--reps", "2", "--out", sys.argv[2],
                       "--assert-trends"])]
engine.run_simulation(default_config().with_overrides({"sim.horizon": 500.0}), "proposed", 1)
narrow = [engine.summarize([1.0]), engine.summarize([2.0, 2.0])]
ci = engine.summarize([1.0, 2.0])
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "narrow": narrow, "loaded": loaded, "ci": ci}))
"""


def test_scipy_loads_only_for_a_t_interval(tmp_path):
    """Only a t interval of more than 101 values loads scipy. The CLI's
    analytic and crosscheck, fig6 at 2 replications with its trend check, a
    run and summaries of up to 2 values load no scipy module, and the t
    half-width from the table is the value scipy.stats' t.ppf gave."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", DEFERRED_SCIPY, str(src), str(tmp_path)],
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    assert out["codes"] == [0, 0, 0]
    assert out["narrow"] == [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]
    assert out["loaded"] == []
    assert tuple(out["ci"]) == (1.5, -4.853102368087347, 7.853102368087347)


def test_stdtrit_is_the_t_quantile_bit_for_bit():
    """``summarize`` takes its t quantile from ``engine._T975`` up to df 100
    and from ``scipy.special.stdtrit`` beyond. Each table entry, and stdtrit
    itself, must equal ``scipy.stats.t.ppf`` exactly, so the CSVs keep their
    bytes: at every replication count up to 501 and a few up to 10**6."""
    from scipy.special import stdtrit
    from scipy.stats import t

    q = (1 + 0.95) / 2.0
    assert len(engine._T975) == 100
    for df, quantile in enumerate(engine._T975, start=1):
        assert quantile == float(stdtrit(df, q)) == float(t.ppf(q, df)), df
    for df in [*range(1, 501), 1_000, 4_999, 10_000, 123_456, 1_000_000]:
        assert float(stdtrit(df, q)) == float(t.ppf(q, df)), df


def test_df_101_takes_the_stdtrit_miss_path():
    """102 values are one past the table: the half-width is stdtrit's."""
    from scipy.special import stdtrit

    arr = np.arange(102.0) % 7
    mean = float(arr.mean())
    half = float(arr.std(ddof=1) / math.sqrt(arr.size)) * float(stdtrit(101, 0.975))
    assert engine.summarize(list(arr)) == (mean, mean - half, mean + half)


class TestFailureFirstShares:
    """The share of ``failure_first``'s intervals that end in a failure is
    the empirical p02, as crosscheck reads it, and p01 is the rest."""

    def test_symmetric_competing_clocks(self):
        sp = SimParams(lambda_f=0.01, mu=0.01)
        p02 = float(np.mean(failure_first(sp, 1, 100_000)))
        p01 = 1.0 - p02
        assert abs(p02 - 0.5) < 0.01
        assert p01 + p02 == pytest.approx(1.0)

    def test_one_to_three_rate_ratio(self):
        sp = SimParams(lambda_f=1.0, mu=3.0)
        p02 = float(np.mean(failure_first(sp, 2, 100_000)))
        assert abs(p02 - 0.25) < 0.01

    def test_rare_failures_limit(self):
        sp = SimParams(lambda_f=1e-7, mu=0.01)
        p01 = 1.0 - float(np.mean(failure_first(sp, 3, 100_000)))
        assert p01 > 0.999


def test_mean_pending_log_matches_half_k_minus_one():
    # k_expected = 20 -> the log a write walks in on averages 9.5 entries
    emp = mean_pending_log(seed=8)
    assert abs(emp - 9.5) / 9.5 < 0.05


def test_interval_costs_without_failures_equal_handoff_cost():
    """With no failures no interval is marked, so crosscheck prices every
    interval at the handoff cost and p02 reads 0."""
    sp = SimParams(lambda_f=0.0)
    failed = failure_first(sp, 4, 1000)
    assert failed.shape == (1000,) and not failed.any()
    p02 = float(np.mean(failed))
    assert (1.0 - p02, p02) == (1.0, 0.0)


class TestReplicate:
    def test_single_rep_has_zero_width_interval(self):
        cfg = sim_config(**{"sim.horizon": 2000.0})
        _, summary = replicate(cfg, "lazy", 99, 1)
        mean, lo, hi = summary["total_handoff_cost"]
        assert lo == mean == hi

    def test_rerun_is_identical(self):
        cfg = sim_config(**{"sim.horizon": 2000.0})
        runs1, s1 = replicate(cfg, "proposed", 123, 5)
        runs2, s2 = replicate(cfg, "proposed", 123, 5)
        assert runs1 == runs2
        assert s1 == s2

    def test_recovery_probability_interval_is_tight_at_desk_scale(self):
        cfg = sim_config()
        _, summary = replicate(cfg, "proposed", 42, 30)
        mean, lo, hi = summary["recovery_probability"]
        assert (hi - lo) / 2 < 0.05

    def test_replications_use_distinct_streams(self):
        cfg = sim_config(**{"sim.horizon": 2000.0})
        runs, _ = replicate(cfg, "lazy", 7, 4)
        assert len({r.total_handoff_cost for r in runs}) > 1
