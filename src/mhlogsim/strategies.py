"""The three log-management strategies, each a fold of a run's events.

A strategy object is one run: it holds the host's cell, BSC and cache and
where the checkpoint and log fragments sit. ``fold`` applies a ``Timeline``,
which counts the events, to that state in one loop, lazy's or the one
pessimistic and proposed share. A loop keeps the placement, the prices that
vary per event and the recovery accounting, with its scalars in locals and
the ``fragments`` and ``cache`` lists changed in place. Each rule lives in
its loop: an event handler checks its input and folds that one event. Make
a fresh object for every run.

lazy         log fragments stay at the BS where they were written; each
             handoff stores a pointer in the new BS, recovery chases the
             pointer chain.
pessimistic  the entire log plus checkpoint follows the host to the new BS
             on every handoff, so recovery is local.
proposed     write events buffer in the host cache and flush to the host's
             BSC (on cache exhaustion and on handoff); inter-BSC handoffs
             re-register the host and migrate the consolidated log.

Cost accounting conventions, applied uniformly; each of the first three is
one ``LogStrategy`` method:

* ``_ship``: data items (log entries, checkpoints) that cross the wireless
  hop pay ``alpha * unit`` there and ``rho * unit * hops`` on the wired path;
  one call ships a list of ``(n, hops)`` loads, so lazy's recovery ships all
  its fragments at once.
* ``_carry``: a log of ``n`` entries plus the checkpoint, moved between
  network sites, pays ``(n * c_1 + c_c) * rho * hops`` on the wired path only.
* ``_messages``: control messages pay a flat ``c_m`` each, booked as wired
  cost, except the recovery request which the model prices at
  ``alpha * c_m`` (wireless).
* ``elapsed_transfer_time`` counts 1 per item crossing the wireless link and
  ``r`` per item per wired hop; control messages take no time.
* Handoff channel signalling common to every strategy is not priced; only
  strategy-differential costs appear in a CostDelta.
* Prices fixed for a whole run (one charged write, which for proposed is
  the full-cache flush, a checkpoint, lazy's pointer message) are computed
  once in ``__init__`` by the same rules, and every event that pays one
  returns that same object. Handoff and recovery prices that depend only
  on a few small integers (a log size, a hop count, a cache fill) are
  priced by the same rules on first use and kept in a table under those
  integers (``_keep``), up to ``_PRICE_TABLE_LIMIT`` entries a table.
  Pessimistic's and proposed's handoffs are kept in ``_move_prices``
  under (log size, hops the log moves, cache fill), the log size 0 for a
  move of 0 hops, and their recoveries in ``_recovery_prices`` under (log
  size, hops from the checkpoint to the restart BS). A run of writes is
  kept the same way in ``_write_runs``: lazy's and pessimistic's under (run
  length, piece count after it), proposed's under (run length, cache fill,
  piece count before it). A loop prices a key only on a miss
  (``_write_run``, ``_move_price``, ``_recovery_price``, which lazy calls
  every recovery).
* The tables are process-wide: every run of a kind with the same price
  inputs, the eight ``CostParams`` fields a price reads and, for proposed,
  the cache capacity, shares them (``_price_tables``). Floats key by their
  bits, so ``C_m = 0.0`` and ``-0.0`` get different tables, and the network
  is never hashed. The tree need not be in the key: a move's or recovery's
  hops are in its own, and as two BSCs lie at least 2 hops apart, proposed
  restarts in its home region exactly when ``hops == 1`` on every tree. A
  figure sweeps only rates that no price reads, so its reps and points
  share one set of tables. A returned CostDelta, a ``RecoveryOutcome.cost``
  included, and a returned ``WriteRun`` are therefore shared across runs
  and read-only.

The loops index the tree's cell -> BSC table, behind the handlers' range
checks, and call ``_bsc_gap`` only across two BSCs. A region's peak entries
are settled when the log leaves it or is purged, and at the end of a fold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, repeat
from operator import add
from typing import TYPE_CHECKING, NamedTuple, TypeVar

from .model import CostParams, SimParams, StrategyKind
from .topology import (
    BS,
    BscId,
    CellId,
    NetworkTree,
    Site,
    _bsc_gap,
    bsc_of,
    bsc_site,
    hops_between,
)

if TYPE_CHECKING:
    from .engine import Timeline


# The most entries one shared price table stores; a miss once a table is
# full is priced afresh. Without a cap a table grows with the distinct log
# sizes its runs reach, which a long checkpoint interval and a high write
# rate make a quarter of a million, costing memory and time for keys that
# rarely repeat. The six default figures at 20 replications fill proposed's
# handoff table, the largest, to 3,968 entries.
_PRICE_TABLE_LIMIT = 4096

# Each kind's price tables (write runs, handoffs, recoveries) with the price
# inputs they were made for. One slot a kind, replaced when a run's inputs
# differ, so the store holds at most three sets of capped tables whatever
# configs a process runs.
_price_tables: dict[StrategyKind, tuple[tuple, tuple[dict, dict, dict]]] = {}

_Price = TypeVar("_Price")


@dataclass(slots=True)
class CostDelta:
    """Cost of one strategy action, split by link type. One a handler
    returns may be shared with other events: read it, never change it."""

    wireless_cost: float = 0.0  # alpha-weighted
    wired_cost: float = 0.0  # rho-weighted data plus flat control messages
    control_msgs: int = 0
    data_items_moved: int = 0
    elapsed_transfer_time: float = 0.0

    @property
    def total(self) -> float:
        return self.wireless_cost + self.wired_cost

    def add(self, other: "CostDelta") -> "CostDelta":
        self.wireless_cost += other.wireless_cost
        self.wired_cost += other.wired_cost
        self.control_msgs += other.control_msgs
        self.data_items_moved += other.data_items_moved
        self.elapsed_transfer_time += other.elapsed_transfer_time
        return self


# The price of a write that moves and sends nothing; only write runs and
# the trace hand it out, never a handler that callers might add to.
NO_COST = CostDelta()


@dataclass(slots=True)
class RecoveryOutcome:
    """Result of one recovery attempt. ``cost`` prices the request, any
    log-locating messages, then every fetched piece, the checkpoint last;
    it may be a price shared with other events and runs: read it, never
    change it."""

    success: bool
    retrieval_time: float
    cost: CostDelta
    fragments_fetched: int  # non-empty log fragments plus the checkpoint
    recovered_in_home_region: bool
    lost_entries: int = 0  # cached-but-unflushed writes lost with the host


@dataclass
class Fragment:
    """A contiguous run of log entries held at one site."""

    site: Site
    region: BscId  # the BSC region of ``site``
    entries: list[int] = field(default_factory=list)  # write sequence numbers


class WriteRun(NamedTuple):
    """What a run of writes cost, all issued from one cell with no other
    event between them: ``delta`` on each write whose index within the run
    is in ``charged``, nothing on the others. ``delta`` is the price of one
    such write, shared with other runs. ``peak_pieces`` is the largest
    non-empty fragment count, the cache counting as one, after any write of
    the run. One ``WriteRun`` goes to every run of writes of the same shape
    and price inputs: read it, never change it."""

    delta: CostDelta
    charged: range
    peak_pieces: int


@dataclass(frozen=True)
class RunStats:
    """Accumulated per-run counts, costs, and recovery outcomes."""

    handoff_count: int
    intra_bsc_count: int
    inter_bsc_count: int
    write_count: int
    checkpoint_count: int
    failure_count: int
    recovery_success_count: int
    total_handoff_cost: float
    total_recovery_cost: float
    total_logging_cost: float
    total_checkpoint_cost: float
    mean_cost_per_handoff_interval: float
    recovery_probability: float
    mean_retrieval_time: float
    peak_fragments: int
    lost_entries: int
    recovery_cost_home_total: float
    home_recovery_count: int
    bsc_peak_entries: dict[int, int] = field(default_factory=dict)


class LogStrategy:
    """One run of one strategy: the mobile host and the durable placement
    of its checkpoint and log. Subclasses fill in the placement policy and
    the loop that folds a timeline (``_fold``)."""

    kind: StrategyKind
    _caches = False  # whether writes wait in the host's cache
    checkpoint_site: Site
    checkpoint_region: BscId

    def __init__(self, tree: NetworkTree, sp: SimParams, cp: CostParams):
        self.tree = tree
        self.sp = sp
        self.cp = cp
        self._cell_bsc, self._n_cells = tree.cell_bsc, len(tree.cell_bsc)
        # The host, born in cell 0.
        self.current_cell: CellId = 0
        self.current_bsc: BscId = bsc_of(tree, 0)
        self.cache: list[int] = []  # write sequence numbers
        self.next_seq = 1
        # Checkpoint 0 sits at the host's birth site, and in its region, at
        # zero cost: the initial application state is registered where the
        # transaction starts, and no handler clears it, so recovery always
        # has a durable baseline.
        site, region = self._checkpoint_site(0, self.current_bsc)
        self.checkpoint_site, self.checkpoint_region = site, region
        # The log: its fragments, the running tally of non-empty ones, and
        # the most entries each BSC region held as of the last settle.
        self.fragments: list[Fragment] = []
        self.pointer_chain_length = 0  # lazy only
        self.pieces = 0
        self.region_peaks: dict[BscId, int] = {}
        # This kind's shared price tables for the inputs its prices read;
        # lazy fills only the first. Floats key by their bits: 0.0 != -0.0.
        key = tuple(v.hex() if isinstance(v, float) else v for v in (
            sp.cache_capacity if self._caches else None, cp.r, cp.c_c, cp.c_1, cp.c_m,
            cp.alpha, cp.rho, cp.t_load_ckpt, cp.t_load_log))
        slot = _price_tables.get(self.kind)
        if slot is None or slot[0] != key:
            slot = _price_tables[self.kind] = key, ({}, {}, {})
        self._write_runs, self._move_prices, self._recovery_prices = slot[1]
        # Prices no event of the run changes: one charged write, and a
        # checkpoint. The checkpoint site keeps its place relative to the
        # host's cell, so the hop count at birth holds for every checkpoint.
        self._write_cost = self._write_price()
        hops = hops_between(tree, (BS, 0), self.current_bsc, site, region)
        self._checkpoint_cost = self._ship(CostDelta(), cp.c_c, [(1, hops)])

    # -- events --------------------------------------------------------

    def fold(self, timeline: Timeline, trace: list | None = None) -> RunStats:
        """Apply ``timeline`` to this run's state, a run of writes at a time,
        and return the run's ``RunStats``. ``trace``, when given, receives
        (time, event kind, cost delta) for every event, one entry per write
        included, which needs the timeline's ``write_times``.

        The timeline counts the events. The subclass's loop, ``_fold(writes,
        events, write_times, trace)``, returns its tally (successes, lost
        entries, home-region recoveries, peak pieces, charged writes, then the
        handoff, recovery and home-recovery cost and retrieval time sums) and
        the price of the last event it applied. A checkpoint and a charged
        write cost the same all run: each sum adds its price once per event."""
        (successes, lost, home, peak, charged, cost_handoff, cost_recovery, cost_home,
         retrieval_sum), _ = self._fold(timeline.writes, timeline.events, timeline.write_times, trace)
        handoffs, failures = timeline.intra_bsc + timeline.inter_bsc, timeline.failures
        # n additions from 0.0, the floats of a per-event loop; n * price rounds differently.
        cost_checkpoint = reduce(add, repeat(self._checkpoint_cost.total, timeline.checkpoints), 0.0)
        cost_logging = reduce(add, repeat(self._write_cost.total, charged), 0.0)
        total_cost = cost_handoff + cost_recovery + cost_logging + cost_checkpoint
        return RunStats(
            handoff_count=handoffs,
            intra_bsc_count=timeline.intra_bsc,
            inter_bsc_count=timeline.inter_bsc,
            write_count=sum(timeline.writes),
            checkpoint_count=timeline.checkpoints,
            failure_count=failures,
            recovery_success_count=successes,
            total_handoff_cost=cost_handoff,
            total_recovery_cost=cost_recovery,
            total_logging_cost=cost_logging,
            total_checkpoint_cost=cost_checkpoint,
            mean_cost_per_handoff_interval=total_cost / max(1, handoffs),
            # No failures means nothing failed to recover; report 1, not 0/1.
            recovery_probability=(successes / failures) if failures else 1.0,
            mean_retrieval_time=retrieval_sum / failures if failures else 0.0,
            peak_fragments=peak,
            lost_entries=lost,
            recovery_cost_home_total=cost_home,
            home_recovery_count=home,
            bsc_peak_entries=dict(self.settle_peaks()),
        )

    def on_write(self) -> CostDelta:
        return self.on_writes(1).delta

    def on_writes(self, k: int) -> WriteRun:
        """Log ``k`` writes issued back to back from the host's cell; the
        same placement and costs as ``k`` calls of ``on_write``."""
        if k < 1:
            raise ValueError(f"not a run of writes: k must be >= 1, got {k}")
        return self._fold((k,), (), None, None)[1]

    def on_checkpoint(self) -> CostDelta:
        """Ship a fresh checkpoint from the host to its durable site and
        purge the log; every checkpoint of a run costs the same."""
        return self._fold((0, 0), ((0.0, "CHECKPOINT", self.current_cell),), None, None)[1]

    def on_handoff(self, to_cell: CellId) -> CostDelta:
        """Move the host from its cell to ``to_cell``; the move is intra-BSC
        when both cells share a region."""
        if to_cell == self.current_cell:
            raise ValueError(f"not a handoff: the host is already in cell {to_cell}")
        if not 0 <= to_cell < self._n_cells:
            raise ValueError(f"unknown cell {to_cell}")
        return self._fold((0, 0), ((0.0, "HANDOFF", to_cell),), None, None)[1]

    def recover(self, recovery_cell: CellId) -> RecoveryOutcome:
        """Retrieve the checkpoint and every durable fragment at the cell
        where the host restarts, replay, and re-home the fetched copies.

        Retrieval time is load time plus transfer time; transfer costs are
        priced per item over the wired path and the final wireless hop
        (``_recovery_price``). Unflushed cache entries die with the host.
        """
        if not 0 <= recovery_cell < self._n_cells:
            raise ValueError(f"unknown cell {recovery_cell}")
        tally, (cost, fragments_fetched, retrieval_time) = self._fold(
            (0, 0), ((0.0, "FAILURE", recovery_cell),), None, None)
        successes, lost, home = tally[:3]
        return RecoveryOutcome(
            success=successes == 1,
            retrieval_time=retrieval_time,
            cost=cost,
            fragments_fetched=fragments_fetched,
            recovered_in_home_region=home == 1,
            lost_entries=lost,
        )

    # Only tests read this: it is the replay order acceptance criterion 9 asserts.
    def replay_sequence(self) -> list[int]:
        """Entry seqs recoverable in order: durable fragments then cache."""
        seqs = [seq for f in self.fragments for seq in f.entries]
        seqs.extend(self.cache)
        return seqs

    # -- policy hooks ---------------------------------------------------

    def _checkpoint_site(self, cell: CellId, bsc: BscId) -> tuple[Site, BscId]:
        """Where the checkpoint of a host in ``cell`` of region ``bsc`` is
        kept, and that site's region."""
        return (BS, cell), bsc

    def _write_price(self) -> CostDelta:
        """One charged write: a wireless data item and the BSC's acknowledgement."""
        return self._ship(self._messages(1), self.cp.c_1, [(1, 0)])

    def _locate_log(self, in_home_region: bool) -> int:
        """How many wired control messages a recovery sends, after its
        request, to locate the log; by default none."""
        return 0

    def _write_run(self, k: int, pieces: int) -> WriteRun:
        """A run of ``k`` writes sent to the host's BS, each acknowledged,
        after which ``pieces`` fragments hold entries."""
        return WriteRun(self._write_cost, range(k), pieces)

    def _recovery_price(
        self, rec_site: Site, recovery_bsc: BscId, in_home_region: bool
    ) -> tuple[CostDelta, int, float]:
        """What fetching the log and checkpoint to ``rec_site`` costs, as
        (cost, fragments fetched, retrieval time). The wireless recovery
        request, then the wired messages that locate the log, then every
        non-empty fragment, then the checkpoint. Reads the placement and
        changes nothing."""
        cp, tree = self.cp, self.tree
        k = self._locate_log(in_home_region)
        delta = CostDelta(cp.alpha * cp.c_m, k * cp.c_m, 1 + k)
        loads = [
            (len(frag.entries), hops_between(tree, frag.site, frag.region, rec_site, recovery_bsc))
            for frag in self.fragments
            if frag.entries
        ]
        self._ship(delta, cp.c_1, loads)
        hops = hops_between(tree, self.checkpoint_site, self.checkpoint_region, rec_site, recovery_bsc)
        self._ship(delta, cp.c_c, [(1, hops)])
        fragments_fetched = len(loads) + 1
        retrieval_time = cp.t_load_ckpt + (
            cp.t_load_log * fragments_fetched + delta.elapsed_transfer_time
        )
        return delta, fragments_fetched, retrieval_time

    # -- shared pieces ---------------------------------------------------

    @staticmethod
    def _keep(table: dict, key: object, price: _Price) -> _Price:
        """Store ``price``, the price of a ``key`` its loop missed in the
        shared ``table``, unless the table holds ``_PRICE_TABLE_LIMIT``
        entries, and return it. The loops probe the table and build the
        price themselves, so a hit costs one probe, and a miss in a full
        table one probe and this call more than pricing afresh."""
        if len(table) < _PRICE_TABLE_LIMIT:
            table[key] = price
        return price

    def _messages(self, k: int) -> CostDelta:
        """``k`` wired control messages."""
        return CostDelta(wired_cost=k * self.cp.c_m, control_msgs=k)

    def _ship(self, delta: CostDelta, unit: float, loads: list[tuple[int, int]]) -> CostDelta:
        """Add to ``delta``, for each ``(n, hops)`` of ``loads`` in fetch
        order, ``n`` items of cost ``unit`` that cross the wireless hop and
        ``hops`` wired hops."""
        cp = self.cp
        for n, hops in loads:
            delta.wireless_cost += cp.alpha * n * unit
            delta.wired_cost += cp.rho * n * unit * hops
            delta.data_items_moved += n
            delta.elapsed_transfer_time += n * (1.0 + cp.r * hops)
        return delta

    def _carry(self, delta: CostDelta, n: int, hops: int) -> CostDelta:
        """Add to ``delta`` a log of ``n`` entries plus the checkpoint,
        moved ``hops`` wired hops between network sites."""
        cp = self.cp
        delta.wired_cost += (n * cp.c_1 + cp.c_c) * cp.rho * hops
        delta.data_items_moved += n + 1
        delta.elapsed_transfer_time += (n + 1) * cp.r * hops
        return delta

    def settle_peaks(self) -> dict[BscId, int]:
        """Lift each region's peak to the entries the log holds there now,
        and return the peaks. A region's entries fall only when the log leaves
        it or is purged, so settling then and at the end gives its maximum."""
        peaks = self.region_peaks
        held: dict[BscId, int] = {}
        for frag in self.fragments:
            if frag.entries:
                region = frag.region
                held[region] = n = held.get(region, 0) + len(frag.entries)
                if n > peaks.get(region, 0):
                    peaks[region] = n
        return peaks


class LazyStrategy(LogStrategy):
    """Fragments accumulate where written; handoffs only store pointers."""

    kind = StrategyKind.LAZY

    def __init__(self, tree: NetworkTree, sp: SimParams, cp: CostParams):
        super().__init__(tree, sp, cp)
        self._pointer_cost = self._messages(1)

    def _locate_log(self, in_home_region) -> int:
        # Chase the pointer chain back to the fragments, one message a link.
        return self.pointer_chain_length

    def _fold(self, writes, events, write_times, trace):
        """Writes extend the last fragment if it sits at the host's BS, else
        open one there; nothing is cached, so a recovery loses nothing. A
        handoff stores a pointer in the new BS. A checkpoint purges the log
        and the pointer chain, which only locates purged fragments. A
        recovery chases the chain and fetches every fragment where it lies;
        a restart BS away from the last fragment links into the chain, and
        its registration, common to all strategies, is not priced."""
        cell_bsc, fragments, settle = self._cell_bsc, self.fragments, self.settle_peaks
        cell, bsc, seq, pieces = self.current_cell, self.current_bsc, self.next_seq, self.pieces
        chain_length, deadline = self.pointer_chain_length, self.sp.recovery_deadline
        write_runs, keep, write_run = self._write_runs, self._keep, self._write_run
        recovery_price, site_of = self._recovery_price, self._checkpoint_site
        checkpoint_cost, pointer_cost = self._checkpoint_cost, self._pointer_cost
        pointer_total = pointer_cost.total
        # The cell whose BS holds the last fragment, and that fragment's entries.
        last_cell = fragments[-1].site[1] if fragments else None
        entries = fragments[-1].entries if fragments else None
        times = iter(write_times or ())
        last = None
        successes = home = peak = charged = 0
        cost_handoff = cost_recovery = retrieval_sum = cost_home = 0.0

        for k, event in zip(writes, chain(events, (None,))):
            if k:
                if last_cell != cell:
                    frag = Fragment((BS, cell), bsc)
                    fragments.append(frag)
                    last_cell, entries = cell, frag.entries
                if not entries:
                    pieces += 1
                entries += range(seq, seq + k)
                seq += k
                key = (k, pieces)
                run = last = write_runs.get(key)
                if run is None:
                    run = last = keep(write_runs, key, write_run(k, pieces))
                charged += len(run.charged)
                if trace is not None:
                    for i in range(k):
                        trace.append((next(times), "WRITE", run.delta if i in run.charged else NO_COST))
                if run.peak_pieces > peak:
                    peak = run.peak_pieces
            if event is None:
                break
            t, ev, to = event
            if ev == "CHECKPOINT":
                self.checkpoint_site, self.checkpoint_region = site_of(cell, bsc)
                settle()
                fragments.clear()
                pieces = chain_length = 0
                last_cell = entries = None
                delta = last = checkpoint_cost
            elif ev == "HANDOFF":
                cell, bsc = to, cell_bsc[to]
                chain_length += 1
                delta = last = pointer_cost
                cost_handoff += pointer_total
            else:  # FAILURE
                in_home, bsc = cell_bsc[to] == bsc, cell_bsc[to]
                cell = to
                self.pointer_chain_length = chain_length
                last = recovery_price((BS, to), bsc, in_home)
                delta, _, retrieval_time = last
                if last_cell is not None and last_cell != to:
                    chain_length += 1
                total = delta.total
                cost_recovery += total
                if retrieval_time <= deadline:
                    successes += 1
                retrieval_sum += retrieval_time
                if in_home:
                    cost_home += total
                    home += 1
            if trace is not None:
                trace.append((t, ev, delta))

        self.current_cell, self.current_bsc, self.next_seq = cell, bsc, seq
        self.pieces, self.pointer_chain_length = pieces, chain_length
        return (
            successes, 0, home, peak, charged, cost_handoff, cost_recovery, cost_home, retrieval_sum,
        ), last


class _OneFragmentStrategy(LogStrategy):
    """Pessimistic and proposed: exactly one fragment, empty after a purge,
    which shares the checkpoint's site and region after every event. A
    handoff moves both to the host's checkpoint site and appends the cache
    there; the subclasses price the move (``_move_price``)."""

    def __init__(self, tree: NetworkTree, sp: SimParams, cp: CostParams):
        super().__init__(tree, sp, cp)
        self.fragments.append(Fragment(self.checkpoint_site, self.checkpoint_region))
        # Hops a handoff adds to the BSC gap: a log kept at a BS goes up to
        # its BSC and, past the gap, down to the new BS.
        self._end_hops = 2 if self.checkpoint_site[0] == BS else 0

    def _fold(self, writes, events, write_times, trace):
        """Writes go to the fragment (pessimistic) or to the cache, whose
        filling write flushes it there (proposed). A handoff moves the log
        ``hops`` wired hops (none for 0 hops), priced by its entry count,
        ``hops`` and the cache fill, then re-homes the checkpoint and the
        fragment at the host's checkpoint site, and the cache joins it. A
        recovery fetches both over the same ``hops`` to the restart BS, so
        its price depends on the entry count and ``hops`` alone (proposed
        restarts at home exactly when ``hops == 1``); the cache dies with
        the host, and the fetched copies are re-homed as the durable ones
        at no further cost. Re-homing out of the fragment's region settles
        that region's peak, which the fragment alone fills."""
        tree, cell_bsc, cache, fragments = self.tree, self._cell_bsc, self.cache, self.fragments
        cell, bsc, seq, pieces = self.current_cell, self.current_bsc, self.next_seq, self.pieces
        site, region, peaks = self.checkpoint_site, self.checkpoint_region, self.region_peaks
        write_runs, move_prices = self._write_runs, self._move_prices
        recovery_prices, keep, write_run = self._recovery_prices, self._keep, self._write_run
        move_price, recovery_price = self._move_price, self._recovery_price
        site_of, settle = self._checkpoint_site, self.settle_peaks
        end_hops, caches, deadline = self._end_hops, self._caches, self.sp.recovery_deadline
        checkpoint_cost = self._checkpoint_cost
        frag = fragments[0]
        entries = frag.entries
        times = iter(write_times or ())
        last = None
        successes = lost = home = peak = charged = 0
        cost_handoff = cost_recovery = retrieval_sum = cost_home = 0.0

        for k, event in zip(writes, chain(events, (None,))):
            if k:
                first = seq
                seq += k
                if caches:
                    key = (k, len(cache), pieces)
                    run = last = write_runs.get(key)
                    if run is None:
                        run = last = keep(write_runs, key, write_run(*key))
                    if run.charged:
                        flushed = first + run.charged[-1] + 1
                        cache += range(first, flushed)
                        if not entries:
                            pieces += 1
                        entries += cache
                        cache[:] = range(flushed, seq)
                    else:
                        cache += range(first, seq)
                else:
                    if not entries:
                        pieces += 1
                    entries += range(first, seq)
                    key = (k, pieces)
                    run = last = write_runs.get(key)
                    if run is None:
                        run = last = keep(write_runs, key, write_run(k, pieces))
                charged += len(run.charged)
                if trace is not None:
                    for i in range(k):
                        trace.append((next(times), "WRITE", run.delta if i in run.charged else NO_COST))
                if run.peak_pieces > peak:
                    peak = run.peak_pieces
            if event is None:
                break
            t, ev, to = event
            if ev == "CHECKPOINT":
                site, region = site_of(cell, bsc)
                cache.clear()
                settle()
                fragments[0] = frag = Fragment(site, region)
                entries, pieces = frag.entries, 0
                delta = last = checkpoint_cost
            else:
                from_bsc, bsc = bsc, cell_bsc[to]
                cell = to
                if ev == "HANDOFF":
                    hops = end_hops if from_bsc == bsc else end_hops + _bsc_gap(tree, from_bsc, bsc)
                    n = len(entries) if hops else 0
                    key = (n, hops, len(cache))
                    delta = last = move_prices.get(key)
                    if delta is None:
                        delta = last = keep(move_prices, key, move_price(n, hops, len(cache)))
                    cost_handoff += delta.total
                else:  # FAILURE
                    in_home = bsc == from_bsc
                    hops = hops_between(tree, site, region, (BS, to), bsc)
                    key = (len(entries), hops)
                    last = recovery_prices.get(key)
                    if last is None:
                        self.checkpoint_site, self.checkpoint_region = site, region
                        last = keep(recovery_prices, key, recovery_price((BS, to), bsc, in_home))
                    delta, _, retrieval_time = last
                    lost += len(cache)
                    cache.clear()
                    total = delta.total
                    cost_recovery += total
                    if retrieval_time <= deadline:
                        successes += 1
                    retrieval_sum += retrieval_time
                    if in_home:
                        cost_home += total
                        home += 1
                # A recovery of 0 hops restarts at the checkpoint's own site.
                if hops:
                    to_site, to_region = site_of(cell, bsc)
                    if to_region != region and len(entries) > peaks.get(region, 0):
                        peaks[region] = len(entries)
                    site, region = frag.site, frag.region = to_site, to_region
                if cache:
                    if not entries:
                        pieces += 1
                    entries += cache
                    cache.clear()
            if trace is not None:
                trace.append((t, ev, delta))

        self.current_cell, self.current_bsc, self.next_seq, self.pieces = cell, bsc, seq, pieces
        self.checkpoint_site, self.checkpoint_region = site, region
        return (
            successes, lost, home, peak, charged, cost_handoff, cost_recovery, cost_home,
            retrieval_sum,
        ), last


class PessimisticStrategy(_OneFragmentStrategy):
    """One fragment, kept with the checkpoint at the host's BS at all times."""

    kind = StrategyKind.PESSIMISTIC

    def _move_price(self, n, hops, cached) -> CostDelta:
        # One message, then the log and checkpoint carried to the new BS.
        return self._carry(self._messages(1), n, hops)


class ProposedStrategy(_OneFragmentStrategy):
    """Cache on the host, consolidate at its BSC.

    The log is at most one fragment, and it and the checkpoint sit at the
    host's BSC after every event: flushes go there, and the host changes
    BSC only by an inter-BSC handoff or a recovery, each of which moves
    them along."""

    kind = StrategyKind.PROPOSED
    _caches = True

    def _checkpoint_site(self, cell, bsc) -> tuple[Site, BscId]:
        return bsc_site(bsc), bsc

    def _write_run(self, k: int, n: int, before: int) -> WriteRun:
        """A run of ``k`` writes onto a cache of ``n`` entries, with
        ``before`` non-empty fragments. Each write joins the cache, and the
        write that fills it flushes the cache to the host's BSC. Every flush
        of the run moves a full cache from the same cell, so they all cost
        the same."""
        cap = self.sp.cache_capacity
        first = cap - n - 1  # index of the write that fills the cache
        if first >= k:
            return WriteRun(NO_COST, range(0), before + 1)
        # Between flushes the cache holds entries; right after one it is
        # empty, and the one fragment then holds entries.
        after = 1 + (cap > 1 and first + 1 < k)
        return WriteRun(
            self._write_cost, range(first, k, cap), max(before + 1, after) if first else after
        )

    def _write_price(self) -> CostDelta:
        # Only the write that fills the cache is charged: it flushes it.
        return self._flush_cost(self.sp.cache_capacity)

    def _flush_cost(self, n: int) -> CostDelta:
        """Cost of moving ``n`` cached entries up one hop to the host's BSC."""
        return self._ship(self._messages(1), self.cp.c_1, [(n, 1)])

    def _move_price(self, n, hops, cached) -> CostDelta:
        """An intra-BSC move only flushes the cache. An inter-BSC move first
        re-registers the host (Connect(MHid, PBSCid) to the new BSC, which
        tells the old one) and migrates the log plus the checkpoint."""
        if hops == 0:
            return self._flush_cost(cached) if cached else CostDelta()
        delta = self._carry(self._messages(2), n, hops)
        return delta.add(self._flush_cost(cached)) if cached else delta

    def _locate_log(self, in_home_region) -> int:
        # Tracking agent asks the HLR/VLR where the log lives when the host
        # restarts outside the failure region.
        return 0 if in_home_region else 1


_STRATEGIES = {
    StrategyKind.LAZY: LazyStrategy,
    StrategyKind.PESSIMISTIC: PessimisticStrategy,
    StrategyKind.PROPOSED: ProposedStrategy,
}


def make_strategy(
    kind: StrategyKind | str, tree: NetworkTree, sp: SimParams, cp: CostParams
) -> LogStrategy:
    if isinstance(kind, str):
        kind = StrategyKind(kind)
    return _STRATEGIES[kind](tree, sp, cp)
