import copy

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mhlogsim.engine import Timeline
from mhlogsim.model import CostParams, SimParams
from mhlogsim.strategies import NO_COST, CostDelta, make_strategy
from mhlogsim.topology import BS, bsc_site, build_topology, hop_distance, region_of
from conftest import fold_steps, held_pieces
from price_checks import assert_cached_prices_fresh, copy_sharing_tables

CP = CostParams()  # r=0.1, C_c=5, C_1=1, C_m=0.5, alpha=rho=1
KINDS = ("lazy", "pessimistic", "proposed")


def setup(kind, tree=None, cache_capacity=8, deadline=42.0, cp=CP):
    tree = tree or build_topology(1, 2, 2, "ring")
    sp = SimParams(cache_capacity=cache_capacity, recovery_deadline=deadline)
    return make_strategy(kind, tree, sp, cp)


def cost(strat, *steps):
    """Fold ``steps`` into ``strat`` and return the price the trace gives
    the last one: for a run of writes, its last write's."""
    return fold_steps(strat, *steps)[1][-1][2]


def recover(strat, cell):
    """Fold a failure whose host restarts in ``cell`` into ``strat``, and
    return its ``RunStats``, its price and the pieces it fetched: every
    non-empty fragment, then the checkpoint."""
    fetched = 1 + sum(bool(frag.entries) for frag in strat.fragments)
    stats, [(_, _, delta)] = fold_steps(strat, ("FAILURE", cell))
    return stats, delta, fetched


class TestOnWrite:
    def test_proposed_cache_append_is_free(self):
        strat = setup("proposed", cache_capacity=8)
        delta = cost(strat, 4)
        assert len(strat.cache) == 4
        assert delta.total == 0.0
        assert delta.control_msgs == 0

    def test_proposed_flush_on_exhaustion(self):
        strat = setup("proposed", cache_capacity=8)
        delta = cost(strat, 8)  # 8th write fills the cache
        assert strat.cache == []
        assert delta.wireless_cost == pytest.approx(8 * CP.alpha * CP.c_1)
        assert delta.wired_cost == pytest.approx(8 * CP.rho * CP.c_1 * 1 + CP.c_m)
        assert delta.control_msgs == 1
        assert delta.data_items_moved == 8
        assert delta.elapsed_transfer_time == pytest.approx(8 * (1 + CP.r))
        assert strat.fragments[0].site == bsc_site(0)
        assert len(strat.fragments[0].entries) == 8

    def test_lazy_write_appends_at_current_bs(self):
        strat = setup("lazy")
        delta = cost(strat, 1)
        assert [(f.site, len(f.entries)) for f in strat.fragments] == [((BS, 0), 1)]
        assert delta.wireless_cost == pytest.approx(CP.alpha * CP.c_1)
        assert delta.wired_cost == pytest.approx(CP.c_m)
        assert delta.total == pytest.approx(1.5)

    def test_pessimistic_write_costs_match_lazy(self):
        strat = setup("pessimistic")
        delta = cost(strat, 1)
        assert delta.total == pytest.approx(1.5)
        assert len(strat.fragments) == 1


class TestOnCheckpoint:
    def test_empty_log_purge_is_noop_cost_is_transfer_only(self):
        for kind, expected in (("lazy", 5.0), ("pessimistic", 5.0), ("proposed", 10.0)):
            strat = setup(kind)
            delta = cost(strat, "CHECKPOINT")
            assert delta.total == pytest.approx(expected), kind
            assert strat.replay_sequence() == []

    def test_proposed_checkpoint_pays_one_wired_hop(self):
        strat = setup("proposed")
        delta = cost(strat, "CHECKPOINT")
        assert delta.wireless_cost == pytest.approx(CP.alpha * CP.c_c)
        assert delta.wired_cost == pytest.approx(CP.rho * CP.c_c)
        assert strat.checkpoint_site == bsc_site(0)

    def test_pessimistic_purge_restarts_single_empty_fragment(self):
        strat = setup("pessimistic")
        fold_steps(strat, 5, "CHECKPOINT")
        assert [(f.site, len(f.entries)) for f in strat.fragments] == [((BS, 0), 0)]

    def test_proposed_checkpoint_clears_cache(self):
        strat = setup("proposed")
        fold_steps(strat, 1, "CHECKPOINT")
        assert strat.cache == []

    def test_lazy_pointer_chain_resets_with_purge(self):
        strat = setup("lazy")
        fold_steps(strat, ("HANDOFF", 1))
        assert strat.pointer_chain_length == 1
        fold_steps(strat, "CHECKPOINT")
        assert strat.pointer_chain_length == 0


class TestOnHandoff:
    def test_proposed_intra_bsc_empty_cache_is_free(self):
        strat = setup("proposed")
        delta = cost(strat, ("HANDOFF", 1))
        assert delta.total == 0.0
        assert delta.data_items_moved == 0
        assert delta.control_msgs == 0

    def test_proposed_inter_bsc_migrates_log_and_checkpoint(self):
        strat = setup("proposed", cache_capacity=4)
        fold_steps(strat, 4)  # 4th write flushes to BSC 0
        assert [(f.site, len(f.entries)) for f in strat.fragments] == [(bsc_site(0), 4)]
        delta = cost(strat, ("HANDOFF", 2))  # BSC 0 -> BSC 1
        assert delta.wired_cost == pytest.approx((4 * CP.c_1 + CP.c_c) * CP.rho * 2 + 2 * CP.c_m)
        assert delta.control_msgs == 2
        assert delta.wireless_cost == 0.0
        assert delta.data_items_moved == 5
        assert strat.current_bsc == 1
        assert strat.checkpoint_site == strat.fragments[0].site == bsc_site(strat.current_bsc)
        assert strat.checkpoint_site == bsc_site(1)
        assert [(f.site, len(f.entries)) for f in strat.fragments] == [(bsc_site(1), 4)]

    def test_proposed_handoff_flushes_cache_to_new_home(self):
        strat = setup("proposed", cache_capacity=8)
        delta = cost(strat, 2, ("HANDOFF", 2))
        assert strat.cache == []
        assert len(strat.fragments[0].entries) == 2
        # cache flush rides the new BS -> new BSC hop
        assert delta.wireless_cost == pytest.approx(2 * CP.alpha * CP.c_1)

    def test_lazy_handoff_moves_nothing(self):
        strat = setup("lazy")
        delta = cost(strat, 1, ("HANDOFF", 1))
        assert delta.data_items_moved == 0
        assert delta.control_msgs == 1
        assert strat.pointer_chain_length == 1
        assert strat.fragments[0].site == (BS, 0)  # fragment stays put

    def test_pessimistic_handoff_moves_log_and_checkpoint(self):
        strat = setup("pessimistic")
        delta = cost(strat, 3, ("HANDOFF", 1))  # sibling cells, 2 hops
        assert delta.wired_cost == pytest.approx((3 * CP.c_1 + CP.c_c) * CP.rho * 2 + CP.c_m)
        assert delta.data_items_moved == 4
        assert strat.fragments[0].site == (BS, 1)
        assert strat.checkpoint_site == (BS, 1)

    def test_pessimistic_handoff_cost_strictly_increases_with_pending(self):
        totals = []
        for n in (0, 1, 4, 9):
            strat = setup("pessimistic")
            totals.append(cost(strat, n, ("HANDOFF", 1)).total)
        assert all(b > a for a, b in zip(totals, totals[1:]))

    def test_proposed_intra_bsc_moves_key_on_no_log(self):
        # Cells 0 and 1 share BSC 0. Each move flushes the cache into a log
        # that keeps growing, but a move of 0 hops carries no log, so its
        # price is keyed on log size 0: at most one key per cache fill.
        cap = 4
        strat = setup("proposed", cache_capacity=cap)
        runs = [1 + i % 7 for i in range(60)]
        for k in runs:
            fold_steps(strat, k, ("HANDOFF", 1 - strat.current_cell))
        assert len(strat.fragments[0].entries) == sum(runs)
        intra = [key for key in strat._move_prices if key[1] == 0]
        assert 0 < len(intra) <= cap
        assert {n for n, _, _ in intra} == {0}
        assert_cached_prices_fresh(strat)

    def test_handoff_cost_non_decreasing_in_pending_for_all_kinds(self):
        for kind in ("lazy", "pessimistic", "proposed"):
            totals = []
            for n in (0, 2, 5):
                strat = setup(kind, cache_capacity=100)
                totals.append(cost(strat, n, ("HANDOFF", 1)).total)
            assert all(b >= a for a, b in zip(totals, totals[1:])), kind


class TestHandoffLookups:
    """A handoff reads the destination cell's BSC from the tree's table and
    prices its hops from the host's regions: no topology function call,
    whatever the strategy holds."""

    @pytest.mark.parametrize("kind", ["lazy", "pessimistic", "proposed"])
    @pytest.mark.parametrize("to_cell", [1, 2], ids=["intra_bsc", "inter_bsc"])
    def test_no_topology_lookups(self, count_calls, kind, to_cell):
        strat = setup(kind, cache_capacity=4)
        fold_steps(strat, 6)  # proposed: one flush to the BSC and two cached
        calls = count_calls("bsc_of", "classify_move", "hop_distance", "hops_between")
        fold_steps(strat, ("HANDOFF", to_cell))
        assert strat.current_bsc == strat.tree.cell_bsc[to_cell]
        assert calls["bsc_of"] == 0
        assert calls["classify_move"] == 0
        assert calls["hop_distance"] == 0
        assert calls["hops_between"] == 0

    @pytest.mark.parametrize("kind", ["lazy", "pessimistic", "proposed"])
    def test_bad_moves_still_raise(self, kind):
        strat = setup(kind)
        with pytest.raises(ValueError, match="not a handoff"):
            strat.on_handoff(0)
        with pytest.raises(ValueError, match="unknown cell 99"):
            strat.on_handoff(99)


class TestCheckpointLookups:
    """A checkpoint prices its hops from the regions the strategy already
    holds: the current cell's and, for proposed, its BSC's."""

    @pytest.mark.parametrize("kind", ["lazy", "pessimistic", "proposed"])
    def test_no_topology_lookups(self, count_calls, kind):
        strat = setup(kind, cache_capacity=4)
        tree = strat.tree
        fold_steps(strat, 6, ("HANDOFF", 2))  # into the second region
        site, region = strat._checkpoint_site(strat.current_cell, strat.current_bsc)
        hops = hop_distance(tree, (BS, strat.current_cell), site)
        assert region_of(tree, site) == region
        calls = count_calls("bsc_of", "hop_distance")
        delta = cost(strat, "CHECKPOINT")
        assert calls["bsc_of"] == 0
        assert calls["hop_distance"] == 0
        assert hops == (1 if kind == "proposed" else 0)
        assert delta.wired_cost == CP.rho * CP.c_c * hops
        assert delta.elapsed_transfer_time == 1.0 + CP.r * hops


class TestRecoverLookups:
    """A recovery reads the restart cell's BSC from the tree's table, and
    the fragments and the checkpoint carry their regions. Lazy prices each
    fetched piece's hops with one ``hops_between``."""

    @pytest.mark.parametrize("kind", ["lazy", "pessimistic", "proposed"])
    def test_no_bsc_lookup(self, count_calls, kind):
        strat = setup(kind, cache_capacity=4)
        fold_steps(strat, 6, ("HANDOFF", 2), 1)  # into the second region
        calls = count_calls("bsc_of", "hop_distance", "hops_between")
        _, _, fetched = recover(strat, 1)  # back in the first region
        assert calls["bsc_of"] == 0
        assert calls["hop_distance"] == 0
        if kind == "lazy":  # two fragments and the checkpoint
            assert calls["hops_between"] == fetched == 3
        assert strat.checkpoint_region == region_of(strat.tree, strat.checkpoint_site) == 0

    @pytest.mark.parametrize("kind", ["lazy", "pessimistic", "proposed"])
    def test_cells_outside_the_table_raise(self, kind):
        # A negative index would wrap around the table without the check.
        strat = setup(kind)
        for cell in (-1, strat.tree.n_cells):
            with pytest.raises(ValueError, match=f"unknown cell {cell}"):
                strat.recover(cell)
            with pytest.raises(ValueError, match=f"unknown cell {cell}"):
                strat.on_handoff(cell)
        assert (strat.current_cell, strat.current_bsc) == (0, 0)


class TestRecover:
    def test_empty_log_fetches_checkpoint_only(self):
        for kind in ("lazy", "pessimistic", "proposed"):
            strat = setup(kind)
            stats, delta, fetched = recover(strat, 0)
            assert fetched == 1, kind
            assert stats.recovery_success_count == 1
            # request message plus the checkpoint's wireless delivery; the
            # checkpoint sits zero wired hops away for the BS-resident kinds
            if kind != "proposed":
                assert delta.total == pytest.approx(CP.alpha * CP.c_m + CP.alpha * CP.c_c)

    def test_lazy_chases_pointer_chain(self):
        tree = build_topology(1, 3, 3, "ring")
        strat = setup("lazy", tree=tree)
        # A fragment at BS 0, at BS 1 and at BS 2.
        fold_steps(strat, 1, ("HANDOFF", 1), 1, ("HANDOFF", 2), 1)
        assert strat.pointer_chain_length == 2
        stats, delta, fetched = recover(strat, 2)
        # request + 2 chase messages
        assert delta.control_msgs == 3
        assert fetched == 4  # 3 fragments + checkpoint
        assert delta.wireless_cost == pytest.approx(0.5 + 3 * 1.0 + 5.0)
        assert delta.wired_cost == pytest.approx(2 * 0.5 + (2 + 2 + 0) + 5.0 * 2)
        assert stats.mean_retrieval_time == pytest.approx(10 + 1 * 4 + (1.2 + 1.2 + 1.0 + 1.2))
        assert stats.home_recovery_count == 1

    def test_proposed_home_region_single_fragment(self):
        strat = setup("proposed", cache_capacity=2)
        fold_steps(strat, 2)  # flush of 2 to BSC 0
        stats, delta, fetched = recover(strat, 1)
        assert stats.home_recovery_count == 1
        assert fetched == 2
        assert delta.wireless_cost == pytest.approx(0.5 + 2 * 1.0 + 5.0)
        assert delta.wired_cost == pytest.approx(2 * 1 * 1 + 5 * 1)
        assert stats.mean_retrieval_time == pytest.approx(10 + 2 * 1 + (2 * 1.1 + 1.1))

    def test_proposed_cache_entries_are_lost(self):
        strat = setup("proposed", cache_capacity=8)
        fold_steps(strat, 2)
        stats, _, _ = recover(strat, 0)
        assert stats.lost_entries == 2
        assert strat.cache == []
        assert strat.replay_sequence() == []

    def test_proposed_foreign_recovery_pays_tracking_and_rehomes(self):
        strat = setup("proposed", cache_capacity=2)
        fold_steps(strat, 2)
        stats, delta, _ = recover(strat, 2)  # cell 2 is BSC 1
        assert stats.home_recovery_count == 0
        assert delta.control_msgs == 2  # request + tracking lookup
        assert strat.current_bsc == 1
        assert strat.checkpoint_site == strat.fragments[0].site == bsc_site(strat.current_bsc)
        assert strat.fragments[0].site == bsc_site(1)
        assert strat.checkpoint_site == bsc_site(1)

    def test_pessimistic_relocates_to_recovery_bs(self):
        strat = setup("pessimistic")
        fold_steps(strat, 1, ("FAILURE", 1))
        assert strat.fragments[0].site == (BS, 1)
        assert strat.checkpoint_site == (BS, 1)
        assert strat.current_cell == 1

    @pytest.mark.parametrize("kind", ["lazy", "pessimistic", "proposed"])
    def test_fresh_strategy_recovers_its_birth_checkpoint(self, kind):
        # Checkpoint 0 sits at the birth site and only a checkpoint replaces
        # it, so a recovery before any event fetches exactly that checkpoint.
        tree = build_topology(2, 2, 2, "ring", inter_msc_bsc_hops=3)
        for cell in range(tree.n_cells):
            strat = setup(kind, tree=tree)
            site, region = strat.checkpoint_site, strat.checkpoint_region
            assert region == region_of(tree, site) == strat.current_bsc
            hops = hop_distance(tree, site, (BS, cell))
            tracking = int(kind == "proposed" and region_of(tree, (BS, cell)) != region)
            stats, delta, fetched = recover(strat, cell)
            assert fetched == 1
            assert delta == CostDelta(
                CP.alpha * CP.c_m + CP.alpha * CP.c_c,
                tracking * CP.c_m + CP.rho * CP.c_c * hops,
                1 + tracking,
                1,
                1.0 + CP.r * hops,
            )
            assert stats.mean_retrieval_time == CP.t_load_ckpt + (CP.t_load_log + (1.0 + CP.r * hops))

    def test_deadline_governs_success(self):
        strat = setup("lazy", deadline=11.9)
        stats, _, _ = recover(strat, 0)  # retrieval_time = 12.0
        assert stats.mean_retrieval_time == pytest.approx(12.0)
        assert stats.recovery_success_count == 0


XP = CostParams(r=0.37, c_c=2.3, c_1=0.7, c_m=0.11, alpha=0.3, rho=1.3)
# Cells 2b and 2b+1 form BSC b; BSCs 0 and 1 hang off one MSC, 2 and 3 off
# the other, 3 wired hops away. Hop counts that are not powers of two make a
# reassociated product round differently.
TWO_MSC = build_topology(2, 2, 2, "ring", inter_msc_bsc_hops=3)


class TestExactPricing:
    """Every event's traced CostDelta, checked with == at unit costs whose
    products round, against the pricing formulas written out term by term
    in the order the strategies evaluate them. Default costs make most of
    these products exact, so only inexact ones show a reordered
    expression."""

    @staticmethod
    def exact(kind):
        return setup(kind, tree=TWO_MSC, cache_capacity=3, deadline=1e9, cp=XP)

    @pytest.mark.parametrize("kind", ["lazy", "pessimistic"])
    def test_write_run(self, kind):
        strat = self.exact(kind)
        _, trace = fold_steps(strat, 4)
        assert [delta for _, _, delta in trace] == [CostDelta(XP.alpha * XP.c_1, XP.c_m, 1, 1, 1.0)] * 4

    def test_proposed_write_run_flushes_full_caches(self):
        strat = self.exact("proposed")
        _, trace = fold_steps(strat, 7)
        n, hops = 3, 1  # a full cache, from the host's BS up to its home BSC
        flush = CostDelta(
            n * XP.alpha * XP.c_1, n * XP.rho * XP.c_1 * hops + XP.c_m, 1, n, n * (1.0 + XP.r * hops)
        )
        assert [delta for _, _, delta in trace] == [flush if i in (2, 5) else NO_COST for i in range(7)]

    @pytest.mark.parametrize("kind, hops", [("lazy", 0), ("pessimistic", 0), ("proposed", 1)])
    def test_checkpoint(self, kind, hops):
        strat = self.exact(kind)
        delta = cost(strat, 5, ("HANDOFF", 3), "CHECKPOINT")
        assert delta == CostDelta(
            XP.alpha * XP.c_c, XP.rho * XP.c_c * hops, 0, 1, 1.0 + XP.r * hops
        )

    @pytest.mark.parametrize("to_cell", [1, 2, 4], ids=["intra_bsc", "inter_bsc", "inter_msc"])
    def test_lazy_handoff(self, to_cell):
        strat = self.exact("lazy")
        assert cost(strat, 5, ("HANDOFF", to_cell)) == CostDelta(0.0, XP.c_m, 1, 0, 0.0)

    @pytest.mark.parametrize("to_cell, gap", [(1, 0), (2, 2), (4, 3)],
                             ids=["intra_bsc", "inter_bsc", "inter_msc"])
    def test_pessimistic_handoff(self, to_cell, gap):
        strat = self.exact("pessimistic")
        n, hops = 5, 2 + gap
        assert cost(strat, 5, ("HANDOFF", to_cell)) == CostDelta(
            0.0, (n * XP.c_1 + XP.c_c) * XP.rho * hops + XP.c_m, 1, n + 1, (n + 1) * XP.r * hops
        )

    def test_proposed_intra_bsc_handoff_flushes_the_cache(self):
        strat = self.exact("proposed")
        fold_steps(strat, 5)  # 3 at the home BSC, 2 cached
        n, hops = 2, 1
        assert cost(strat, ("HANDOFF", 1)) == CostDelta(
            n * XP.alpha * XP.c_1, n * XP.rho * XP.c_1 * hops + XP.c_m, 1, n, n * (1.0 + XP.r * hops)
        )

    @pytest.mark.parametrize("to_cell, gap", [(2, 2), (4, 3)], ids=["inter_bsc", "inter_msc"])
    def test_proposed_inter_bsc_handoff(self, to_cell, gap):
        strat = self.exact("proposed")
        fold_steps(strat, 5)  # 3 at the home BSC, 2 cached
        home, cached = 3, 2
        # Registration and the home log's move, then the cache flush.
        wired = 2 * XP.c_m + (home * XP.c_1 + XP.c_c) * XP.rho * gap
        time = (home + 1) * XP.r * gap
        assert cost(strat, ("HANDOFF", to_cell)) == CostDelta(
            cached * XP.alpha * XP.c_1,
            wired + (cached * XP.rho * XP.c_1 * 1 + XP.c_m),
            3,
            home + 1 + cached,
            time + cached * (1.0 + XP.r * 1),
        )

    # (kind, restart cell): control messages, the wired cost of locating the
    # log, (entries, hops) of each non-empty fragment, the checkpoint's hops.
    RECOVERIES = {
        ("lazy", 3): (2, 1 * XP.c_m, [(3, 4), (2, 2)], 4),
        ("lazy", 4): (2, 1 * XP.c_m, [(3, 5), (2, 5)], 5),
        ("pessimistic", 3): (1, 0.0, [(5, 2)], 2),
        ("pessimistic", 4): (1, 0.0, [(5, 5)], 5),
        ("proposed", 3): (1, 0.0, [(3, 1)], 1),
        ("proposed", 4): (2, XP.c_m, [(3, 4)], 4),
        # Restarts at a fragment's own cell: that fragment moves 0 wired hops.
        ("lazy", 2): (2, 1 * XP.c_m, [(3, 4), (2, 0)], 4),
        ("pessimistic", 2): (1, 0.0, [(5, 0)], 0),
        # Fragments under both MSCs (LATER_STEPS), fetched back to BSC 0.
        ("lazy", 1): (3, 2 * XP.c_m, [(3, 2), (2, 4), (1, 5)], 2),
    }
    # (kind, restart cell): (handoff cell, writes) steps after the common
    # walk and before the failure.
    LATER_STEPS = {("lazy", 1): [(4, 1)]}  # into BSC 2, under the other MSC

    @pytest.mark.parametrize("kind, cell", list(RECOVERIES), ids=lambda v: str(v))
    def test_recovery(self, kind, cell):
        strat = self.exact(kind)
        # Proposed flushes the first 3 to BSC 0, then moves into BSC 1.
        fold_steps(strat, 3, ("HANDOFF", 2), 2)
        for to_cell, k in self.LATER_STEPS.get((kind, cell), ()):
            fold_steps(strat, ("HANDOFF", to_cell), k)
        home = TWO_MSC.cell_bsc[cell] == strat.current_bsc
        control, wired, fragments, ckpt_hops = self.RECOVERIES[kind, cell]
        wireless, items, time = XP.alpha * XP.c_m, 0, 0.0
        for n, hops in fragments:
            wired += XP.rho * n * XP.c_1 * hops
            wireless += XP.alpha * n * XP.c_1
            items += n
            time += n * (1.0 + XP.r * hops)
        wired += XP.rho * XP.c_c * ckpt_hops
        wireless += XP.alpha * XP.c_c
        time += 1.0 + XP.r * ckpt_hops
        stats, delta, _ = recover(strat, cell)
        assert stats.home_recovery_count == home
        assert delta == CostDelta(wireless, wired, control, items + 1, time)
        assert stats.mean_retrieval_time == (
            XP.t_load_ckpt + XP.t_load_log * (len(fragments) + 1) + time
        )


class TestRegionPeaks:
    """A region whose largest holding is one entry still has a peak. One
    write in cell 0, then a handoff to cell 3 in the other region: lazy
    leaves its entry in region 0, pessimistic carries it to region 1, and
    proposed flushes its cache into region 1."""

    PEAKS = {"lazy": {0: 1}, "pessimistic": {0: 1, 1: 1}, "proposed": {1: 1}}

    @pytest.mark.parametrize("kind", list(PEAKS))
    def test_one_entry_regions_through_the_handlers(self, kind):
        # Folded a piece at a time, each fold settling the peaks.
        strat = setup(kind)
        stats, _ = fold_steps(strat, 1, ("HANDOFF", 3))
        assert stats.bsc_peak_entries == strat.settle_peaks() == self.PEAKS[kind]

    @pytest.mark.parametrize("kind", list(PEAKS))
    def test_one_entry_regions_through_the_fold(self, kind):
        strat = setup(kind)
        stats = strat.fold(Timeline([(1.0, "HANDOFF", 3)], [1, 0], 0, 1, 0, 0))
        assert stats.bsc_peak_entries == self.PEAKS[kind]


class TestLogLocations:
    def test_proposed_quiescent_at_most_home_bsc(self):
        strat = setup("proposed", cache_capacity=2)
        fold_steps(strat, 2)
        assert [(f.site, len(f.entries)) for f in strat.fragments] == [(bsc_site(0), 2)]
        assert strat.cache == []

    def test_pessimistic_exactly_one_fragment(self):
        strat = setup("pessimistic")
        fold_steps(strat, 4, ("HANDOFF", 1))
        assert [(f.site, len(f.entries)) for f in strat.fragments] == [((BS, 1), 4)]
        assert strat.cache == []

    def test_lazy_m_handoffs_with_writes_gives_m_plus_1_fragments(self):
        tree = build_topology(1, 3, 3, "ring")
        strat = setup("lazy", tree=tree)
        m = 3
        fold_steps(strat, 1, *[step for i in range(m) for step in (("HANDOFF", i + 1), 1)])
        assert strat.cache == []
        assert len(strat.fragments) == m + 1
        assert [f.site for f in strat.fragments] == [(BS, c) for c in range(m + 1)]


class TestOnWrites:
    """A run of k writes leaves what k single writes leave, costs what they
    cost, and reports the largest placement count they pass through."""

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["lazy", "pessimistic", "proposed"]),
        cap=st.integers(1, 5),
        ops=st.lists(st.tuples(st.sampled_from("wwhcf"), st.integers(0, 7)), max_size=25),
        k=st.integers(1, 12),
    )
    # Proposed's count peaks inside the run: before its one flush, which
    # extends the fragment already at the BSC, and after its first flush.
    @example(kind="proposed", cap=2, ops=[("w", 0), ("w", 0)], k=2)
    @example(kind="proposed", cap=3, ops=[("w", 0)], k=4)
    def test_run_equals_single_writes(self, kind, cap, ops, k):
        tree = build_topology(2, 2, 2, "ring")
        strat = setup(kind, tree=tree, cache_capacity=cap)
        for op, n in ops:
            if op == "w":
                fold_steps(strat, 1)
            elif op == "h":
                nbrs = tree.adjacency[strat.current_cell]
                fold_steps(strat, ("HANDOFF", nbrs[n % len(nbrs)]))
            elif op == "c":
                fold_steps(strat, "CHECKPOINT")
            else:
                fold_steps(strat, ("FAILURE", n))
        one = copy_sharing_tables(strat)
        deltas, peak = [], 0
        for _ in range(k):
            deltas.append(cost(one, 1))
            peak = max(peak, held_pieces(one))

        stats, trace = fold_steps(strat, k)
        assert [delta for _, _, delta in trace] == deltas
        assert stats.peak_fragments == peak
        # One run and k single writes file their WriteRuns under different
        # keys of the per-run table; every entry is still priced right.
        assert {**vars(strat), "_write_runs": None} == {**vars(one), "_write_runs": None}
        assert_cached_prices_fresh(strat)
        assert_cached_prices_fresh(one)

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_slot_of_no_writes_changes_nothing(self, kind):
        # A timeline counts 0 writes between two events with no write
        # between them; such a slot makes no piece and prices nothing.
        strat = setup(kind, cache_capacity=3)
        fold_steps(strat, 1)
        before = copy.deepcopy(vars(strat))
        trace: list = []
        stats = strat.fold(Timeline([], [0], 0, 0, 0, 0, []), trace)
        assert vars(strat) == before
        assert trace == []
        assert stats.write_count == stats.peak_fragments == 0


class TestReplayCompleteness:
    def test_sequences_replay_in_order_without_cache_loss(self):
        tree = build_topology(1, 3, 3, "ring")
        for kind in ("lazy", "pessimistic", "proposed"):
            strat = setup(kind, tree=tree, cache_capacity=3)
            expected = []
            cell = 0
            for step in range(40):
                if step % 11 == 10:
                    fold_steps(strat, "CHECKPOINT")
                    expected = []
                elif step % 4 == 3:
                    nxt = (cell + 1) % tree.n_cells
                    fold_steps(strat, ("HANDOFF", nxt))
                    cell = nxt
                else:
                    seq = strat.next_seq
                    fold_steps(strat, 1)
                    expected.append(seq)
                assert strat.replay_sequence() == expected, kind


class TestTracedNames:
    """The benchmark's tracer wraps ``on_write``, ``on_handoff``,
    ``on_checkpoint`` and ``recover`` by name. Each folds its one event, so
    it leaves the state that folding that event as a piece leaves, once the
    region peaks, which ``fold`` settles at its end, are settled."""

    CALLS = {  # event kind -> (name, arguments, the same event as a step)
        "WRITE": ("on_write", (), 1),
        "HANDOFF": ("on_handoff", (2,), ("HANDOFF", 2)),
        "CHECKPOINT": ("on_checkpoint", (), "CHECKPOINT"),
        "FAILURE": ("recover", (3,), ("FAILURE", 3)),
    }

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("event", list(CALLS))
    def test_each_name_folds_its_one_event(self, kind, event):
        strat = setup(kind, cache_capacity=3)
        fold_steps(strat, 5, ("HANDOFF", 1), 2)  # a log at cell 1, and a cache
        piece = copy_sharing_tables(strat)
        name, args, step = self.CALLS[event]
        getattr(strat, name)(*args)
        strat.settle_peaks()
        fold_steps(piece, step)
        assert vars(strat) == vars(piece)
