"""Checks that a strategy's cached prices equal the same prices made
afresh: one fresh builder per shared price table, and the check that runs
them over every table entry, those inherited from earlier runs included.
Shared by the property and strategy tests."""

import copy
from itertools import chain

from mhlogsim import strategies
from mhlogsim.strategies import (
    NO_COST, CostDelta, LogStrategy, StrategyKind, WriteRun, make_strategy,
)
from mhlogsim.topology import BS, build_topology, hops_between


def fresh_move_price(strategy, key):
    """A handoff priced afresh. Pessimistic sends one message and
    carries the log and checkpoint. Proposed's intra-BSC move (0 hops, no
    log) only flushes the cache; an inter-BSC move sends two messages and
    migrates the log, then flushes. An empty cache flushes for nothing."""
    n, hops, cached = key
    if strategy.kind is StrategyKind.PESSIMISTIC:
        assert cached == 0
        return strategy._carry(strategy._messages(1), n, hops)
    flush = strategy._flush_cost(cached) if cached else CostDelta()
    if hops == 0:
        assert n == 0
        return flush
    return strategy._carry(strategy._messages(2), n, hops).add(flush)


def fresh_recovery_price(strategy, key):
    """A recovery of a log of ``n`` entries from ``hops`` away, priced by
    the base hook with the one fragment at the checkpoint's site, once a BS
    ``hops`` from that site is found. An entry inherited from a run on
    another tree may hold hops that no BS of this tree lies at; the BS is
    then found on a new run of the same kind and price inputs on a tree of
    two regions of two cells, whose BSC gap gives those hops."""
    n, hops = key
    others = (make_strategy(strategy.kind, build_topology(2, 1, 2, "ring", gap), strategy.sp,
                            strategy.cp) for gap in (max(2, hops - 2), max(2, hops - 1)))
    for run in chain([strategy], others):
        tree, site, region = run.tree, run.checkpoint_site, run.checkpoint_region
        cell = next((c for c in range(tree.n_cells)
                     if hops_between(tree, site, region, (BS, c), tree.cell_bsc[c]) == hops), None)
        if cell is not None:
            break
    assert cell is not None, key
    # Proposed locates its log exactly when the restart lies outside the
    # checkpoint's region, which the price reads from the hops alone.
    in_home = tree.cell_bsc[cell] == region
    assert (strategy.kind is not StrategyKind.PROPOSED or (hops == 1) == in_home), key
    return LogStrategy._recovery_price(run, [(n, hops)] if n else [], hops)


def fresh_write_run(strategy, key):
    """A run of writes replayed one write at a time by the policy's rule.
    Lazy and pessimistic charge every write and end the run with the key's
    piece count. Proposed charges the write that fills the cache, which
    then empties into the one fragment."""
    if strategy.kind is not StrategyKind.PROPOSED:
        k, pieces = key
        return WriteRun(strategy._write_cost, range(k), pieces)
    k, n, pieces = key
    cap = strategy.sp.cache_capacity
    charged, peak = [], 0
    for i in range(k):
        n += 1
        if n == cap:
            charged.append(i)
            n, pieces = 0, 1
        peak = max(peak, pieces + bool(n))
    if not charged:
        return WriteRun(NO_COST, range(0), peak)
    return WriteRun(strategy._write_cost, range(k)[charged[0]::cap], peak)


def copy_sharing_tables(strategy):
    """A deep copy of ``strategy`` that shares its price tables, as every
    run of its kind and price inputs does, rather than copying thousands of
    entries inherited from earlier runs."""
    tables = (strategy._write_runs, strategy._move_prices, strategy._recovery_prices)
    return copy.deepcopy(strategy, {id(table): table for table in tables})


PRICE_TABLES = {  # shared price table -> its key's price made afresh
    "_write_runs": fresh_write_run,
    "_move_prices": fresh_move_price,
    "_recovery_prices": fresh_recovery_price,
}


def assert_cached_prices_fresh(strategy):
    """The prices a strategy made once at birth, and every entry of its
    price tables, equal the same prices made afresh by the same rules: the
    fixed ones from the state it stands in now, each table entry from its
    key, whichever run of the same kind and price inputs stored it. No
    table holds more than ``_PRICE_TABLE_LIMIT`` entries. Pessimistic and
    proposed hold exactly one fragment, empty after a purge, and it shares
    the checkpoint's site and region, as the recovery table's key assumes."""
    cp = strategy.cp
    if strategy.kind is StrategyKind.PROPOSED:
        assert strategy._write_cost == strategy._flush_cost(strategy.sp.cache_capacity)
    else:
        assert strategy._write_cost == strategy._ship(strategy._messages(1), cp.c_1, [(1, 0)])
    site, region = strategy._checkpoint_site(strategy.current_cell, strategy.current_bsc)
    hops = hops_between(strategy.tree, (BS, strategy.current_cell), strategy.current_bsc,
                        site, region)
    assert strategy._checkpoint_cost == strategy._ship(CostDelta(), cp.c_c, [(1, hops)])
    if strategy.kind is StrategyKind.LAZY:
        assert strategy._pointer_cost == strategy._messages(1)
    if strategy.kind is not StrategyKind.LAZY:
        assert len(strategy.fragments) == 1
        for frag in strategy.fragments:
            assert (frag.site, frag.region) == (strategy.checkpoint_site, strategy.checkpoint_region)
    for name, price in PRICE_TABLES.items():
        table = getattr(strategy, name)
        assert len(table) <= strategies._PRICE_TABLE_LIMIT
        for key, delta in table.items():
            assert delta == price(strategy, key), (name, key)
    assert NO_COST == CostDelta()
