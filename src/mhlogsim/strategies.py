"""The three log-management strategies behind one event interface.

A strategy object is one run: it holds the host's cell, BSC and cache and
where the checkpoint and log fragments sit, and its handlers apply each
event to that state. Make a fresh object for every run.

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
* Prices fixed for a whole run (a BS-logged write, a checkpoint, lazy's
  pointer message, proposed's full-cache flush) are computed once in
  ``__init__`` by the same rules, and every event that pays one returns
  that same object. Handoff and recovery prices that depend only on a few
  small integers (a log size, a hop count, a cache fill) are priced by the
  same rules on first use and kept in a per-run table under those integers
  (``_keep``), up to ``_PRICE_TABLE_LIMIT`` entries a table. Pessimistic's
  and proposed's handoffs are kept in ``_move_prices`` under (log size,
  hops the log moves, cache fill), the log size 0 for a move of 0 hops,
  and their recoveries in ``_recovery_prices`` under (log size, hops from
  the checkpoint to the restart BS). A run of writes is kept the same
  way in ``_write_runs``: lazy's and pessimistic's under (run length, piece
  count after it), proposed's under (run length, cache fill, piece count
  before it). A returned CostDelta, a ``RecoveryOutcome.cost`` included,
  and a returned ``WriteRun`` are therefore shared and read-only.

Handlers index the tree's cell -> BSC table behind ``bsc_of``'s range check
and call ``_bsc_gap`` only across two BSCs. A region's peak entries are
settled when the log leaves it or is purged, and at the end of a run.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, TypeVar

from .model import CostParams, SimParams
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
    mh_site,
)


# The most entries one per-run price table stores; a miss once a table is
# full is priced afresh. Without a cap a table grows with the distinct log
# sizes a run reaches, which a long checkpoint interval and a high write
# rate make a quarter of a million, costing memory and time for keys that
# rarely repeat. The default figures reach a few hundred keys a run.
_PRICE_TABLE_LIMIT = 4096

_Price = TypeVar("_Price")


class StrategyKind(Enum):
    LAZY = "lazy"
    PESSIMISTIC = "pessimistic"
    PROPOSED = "proposed"


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
    it may be a shared per-run price: read it, never change it."""

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
    is in ``charged``, nothing on the others. ``delta`` is the strategy's
    shared per-run price of one such write. ``peak_pieces`` is the largest
    non-empty fragment count, the cache counting as one, after any write of
    the run. A strategy hands one ``WriteRun`` to every run of the same
    shape: read it, never change it."""

    delta: CostDelta
    charged: range
    peak_pieces: int


class LogStrategy:
    """One run of one strategy: the mobile host and the durable placement
    of its checkpoint and log. Subclasses fill in the placement policy."""

    kind: StrategyKind
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
        # The log: its fragments, the running tally of non-empty ones, and
        # the most entries each BSC region held as of the last settle.
        self.fragments: list[Fragment] = []
        self.pointer_chain_length = 0  # lazy only
        self.pieces = 0
        self.region_peaks: dict[BscId, int] = {}
        # Checkpoint 0 sits at the host's birth site, and in its region, at
        # zero cost: the initial application state is registered where the
        # transaction starts, and no handler clears it, so recovery always
        # has a durable baseline.
        self.checkpoint_site, self.checkpoint_region = self._checkpoint_site()
        self._reset_fragments()
        self._write_runs: dict[tuple[int, ...], WriteRun] = {}
        # Prices no event of the run changes. A write is one wireless data
        # item plus the BSC's acknowledgement message. The checkpoint site
        # keeps its place relative to the host's cell, so the hop count at
        # birth holds for every checkpoint of the run.
        self._write_cost = self._ship(self._messages(1), cp.c_1, [(1, 0)])
        site, region = self.checkpoint_site, self.checkpoint_region
        hops = hops_between(tree, (BS, 0), self.current_bsc, site, region)
        self._checkpoint_cost = self._ship(CostDelta(), cp.c_c, [(1, hops)])

    # -- events --------------------------------------------------------

    def on_write(self) -> CostDelta:
        return self.on_writes(1).delta

    def on_writes(self, k: int) -> WriteRun:
        """Log ``k`` writes issued back to back from the host's cell; the
        same placement and costs as ``k`` calls of ``on_write``. The default
        policy sends each entry to the current BS, which acknowledges it.
        The run depends only on ``k`` and the piece count after it, so it
        comes from the run's ``_write_runs`` table under ``(k, pieces)``."""
        first = self.next_seq
        self.next_seq += k
        self._append((BS, self.current_cell), self.current_bsc, range(first, first + k))
        key = (k, self.pieces)
        run = self._write_runs.get(key)
        if run is None:
            run = self._keep(self._write_runs, key, WriteRun(self._write_cost, range(k), self.pieces))
        return run

    def on_checkpoint(self) -> CostDelta:
        """Ship a fresh checkpoint to its durable site and purge the log.

        The checkpoint originates at the host: one wireless hop, then the
        wired path to the durable site. Every strategy purges fragments
        older than the new checkpoint, and lazy's pointer chain resets with
        them since the pointers only locate purged fragments. The durable
        site is always the same number of hops from the host's cell, so
        every checkpoint of a run costs the same.
        """
        self.checkpoint_site, self.checkpoint_region = self._checkpoint_site()
        self.cache.clear()
        self.pointer_chain_length = 0
        self._reset_fragments()
        return self._checkpoint_cost

    def on_handoff(self, to_cell: CellId) -> CostDelta:
        """Move the host from its cell to ``to_cell``; the move is intra-BSC
        when both cells share a region."""
        if to_cell == self.current_cell:
            raise ValueError(f"not a handoff: the host is already in cell {to_cell}")
        if not 0 <= to_cell < self._n_cells:
            raise ValueError(f"unknown cell {to_cell}")
        from_bsc = self.current_bsc
        self.current_bsc = self._cell_bsc[to_cell]
        self.current_cell = to_cell
        return self._handoff(from_bsc)

    def recover(self, recovery_cell: CellId) -> RecoveryOutcome:
        """Retrieve the checkpoint and every durable fragment at the cell
        where the host restarts, replay, and re-home the fetched copies.

        Retrieval time is load time plus transfer time; transfer costs are
        priced per item over the wired path and the final wireless hop
        (``_recovery_price``). The fetched copies physically arrive at the
        recovery site, so placement strategies that keep the log near the
        host adopt them as the new durable copy at no extra transfer cost.
        """
        if not 0 <= recovery_cell < self._n_cells:
            raise ValueError(f"unknown cell {recovery_cell}")
        recovery_bsc = self._cell_bsc[recovery_cell]
        in_home_region = recovery_bsc == self.current_bsc
        cost, fragments_fetched, retrieval_time = self._recovery_price(
            (BS, recovery_cell), recovery_bsc, in_home_region
        )

        # Unflushed cache entries die with the host; only durable state
        # replays.
        lost = len(self.cache)
        self.cache.clear()

        self.current_cell = recovery_cell
        self.current_bsc = recovery_bsc
        self._after_recovery()

        return RecoveryOutcome(
            success=retrieval_time <= self.sp.recovery_deadline,
            retrieval_time=retrieval_time,
            cost=cost,
            fragments_fetched=fragments_fetched,
            recovered_in_home_region=in_home_region,
            lost_entries=lost,
        )

    def log_locations(self) -> list[tuple[Site, int]]:
        """Current fragment placement snapshot, in replay order."""
        out = [(f.site, len(f.entries)) for f in self.fragments]
        if self.cache:
            out.append((mh_site(0), len(self.cache)))
        return out

    def replay_sequence(self) -> list[int]:
        """Entry seqs recoverable in order: durable fragments then cache."""
        seqs = [seq for f in self.fragments for seq in f.entries]
        seqs.extend(self.cache)
        return seqs

    # -- policy hooks ---------------------------------------------------

    def _checkpoint_site(self) -> tuple[Site, BscId]:
        """Where the host's next checkpoint is kept, and that site's region."""
        return (BS, self.current_cell), self.current_bsc

    def _reset_fragments(self) -> None:
        self._place([])

    def _handoff(self, from_bsc: BscId) -> CostDelta:
        """Policy for a move out of region ``from_bsc``; the host already
        stands in its new cell and region. The result may be a shared
        per-run price: never add to it or ship into it."""
        raise NotImplementedError

    def _locate_log(self, in_home_region: bool) -> int:
        """How many wired control messages a recovery sends, after its
        request, to locate the log; by default none."""
        return 0

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

    def _after_recovery(self) -> None:
        """Policy once retrieval delivered the log to the host's restart cell."""
        raise NotImplementedError

    # -- shared pieces ---------------------------------------------------

    @staticmethod
    def _keep(table: dict, key: object, price: _Price) -> _Price:
        """Store ``price``, the price of a ``key`` its handler missed in the
        per-run ``table``, unless the table holds ``_PRICE_TABLE_LIMIT``
        entries, and return it. Handlers probe the table and build the
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

    def _append(self, site: Site, region: BscId, seqs: Sequence[int]) -> None:
        """Extend the last fragment if it sits at ``site``, else open a new
        one there, and count it if it was empty; ``seqs`` is non-empty."""
        if not (self.fragments and self.fragments[-1].site == site):
            self.fragments.append(Fragment(site, region))
        frag = self.fragments[-1]
        if not frag.entries:
            self.pieces += 1
        frag.entries.extend(seqs)

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

    def _place(self, fragments: list[Fragment]) -> None:
        """Purge the log: it then holds ``fragments``, which hold no entries."""
        self.settle_peaks()
        self.fragments[:] = fragments
        self.pieces = 0


class LazyStrategy(LogStrategy):
    """Fragments accumulate where written; handoffs only store pointers."""

    kind = StrategyKind.LAZY

    def __init__(self, tree: NetworkTree, sp: SimParams, cp: CostParams):
        super().__init__(tree, sp, cp)
        self._pointer_cost = self._messages(1)

    def _handoff(self, from_bsc) -> CostDelta:
        # The new BS stores a pointer to the old one; no log data moves.
        self.pointer_chain_length += 1
        return self._pointer_cost

    def _locate_log(self, in_home_region) -> int:
        # Chase the pointer chain back to the fragments, one message a link.
        return self.pointer_chain_length

    def _after_recovery(self) -> None:
        # Fragments stay put; the restart BS links into the existing chain
        # so the next recovery can still find them. Registration signalling
        # is common to all strategies and not priced.
        if self.fragments and self.fragments[-1].site != (BS, self.current_cell):
            self.pointer_chain_length += 1


class _OneFragmentStrategy(LogStrategy):
    """Pessimistic and proposed: at most one fragment, which shares the
    checkpoint's site and region after every event. A handoff moves both to
    the host's checkpoint site and appends the cache there; the subclasses
    price the move (``_move_price``)."""

    def __init__(self, tree: NetworkTree, sp: SimParams, cp: CostParams):
        super().__init__(tree, sp, cp)
        self._move_prices: dict[tuple[int, int, int], CostDelta] = {}
        self._recovery_prices: dict[tuple[int, int], tuple[CostDelta, int, float]] = {}
        # Hops a handoff adds to the BSC gap: a log kept at a BS goes up to
        # its BSC and, past the gap, down to the new BS.
        self._end_hops = 2 if self.checkpoint_site[0] == BS else 0

    def _handoff(self, from_bsc) -> CostDelta:
        """The log moves ``hops`` wired hops, and a move of 0 hops carries
        none, so the price depends only on the log's entry count (0 for such
        a move), ``hops`` and the cache fill. It comes from the run's
        ``_move_prices`` table under those, at most ``_PRICE_TABLE_LIMIT``."""
        to_bsc = self.current_bsc
        hops = self._end_hops
        if from_bsc != to_bsc:
            hops += _bsc_gap(self.tree, from_bsc, to_bsc)
        cache = self.cache
        n = len(self.fragments[0].entries) if hops and self.fragments else 0
        key = (n, hops, len(cache))
        delta = self._move_prices.get(key)
        if delta is None:
            delta = self._keep(self._move_prices, key, self._move_price(n, hops, len(cache)))
        if hops:
            self._rehome()
        if cache:
            self._append(self.checkpoint_site, self.checkpoint_region, cache)
            cache.clear()
        return delta

    def _move_price(self, n: int, hops: int, cached: int) -> CostDelta:
        """A handoff moving ``n`` log entries ``hops`` hops, flushing ``cached``."""
        raise NotImplementedError

    def _rehome(self) -> None:
        """Move the checkpoint and the one fragment, if there is one, to the
        host's checkpoint site. A move out of the fragment's region settles
        that region's peak, which the fragment alone fills."""
        site, region = self._checkpoint_site()
        if self.fragments:
            frag = self.fragments[0]
            if frag.region != region:
                n, peaks = len(frag.entries), self.region_peaks
                if n > peaks.get(frag.region, 0):
                    peaks[frag.region] = n
            frag.site, frag.region = site, region
        self.checkpoint_site, self.checkpoint_region = site, region

    _after_recovery = _rehome  # the fetched copies become the durable ones

    def _recovery_price(self, rec_site, recovery_bsc, in_home_region):
        """The fragment and the checkpoint travel the same ``hops`` to the
        restart BS, so the price depends only on the fragment's entry count
        ``n`` and ``hops``; the locate messages follow from ``hops`` too
        (proposed restarts in its home region exactly when ``hops == 1``).
        It comes from the run's ``_recovery_prices`` table under
        ``(n, hops)``, at most ``_PRICE_TABLE_LIMIT`` entries."""
        n = len(self.fragments[0].entries) if self.fragments else 0
        hops = hops_between(
            self.tree, self.checkpoint_site, self.checkpoint_region, rec_site, recovery_bsc
        )
        key = (n, hops)
        price = self._recovery_prices.get(key)
        if price is None:
            price = super()._recovery_price(rec_site, recovery_bsc, in_home_region)
            self._keep(self._recovery_prices, key, price)
        return price


class PessimisticStrategy(_OneFragmentStrategy):
    """One fragment, kept with the checkpoint at the host's BS at all times."""

    kind = StrategyKind.PESSIMISTIC

    def _reset_fragments(self) -> None:
        self._place([Fragment((BS, self.current_cell), self.current_bsc)])

    def _move_price(self, n, hops, cached) -> CostDelta:
        # One message, then the log and checkpoint carried to the new BS.
        return self._carry(self._messages(1), n, hops)


class ProposedStrategy(_OneFragmentStrategy):
    """Cache on the host, consolidate at its BSC.

    The log is at most one fragment, and it and the checkpoint sit at the
    host's BSC after every event: flushes go there, and the host changes
    BSC only by an inter-BSC handoff or a recovery, each of which moves
    them along (``_rehome``)."""

    kind = StrategyKind.PROPOSED

    def __init__(self, tree: NetworkTree, sp: SimParams, cp: CostParams):
        super().__init__(tree, sp, cp)
        self._full_flush_cost = self._flush_cost(sp.cache_capacity)

    def _checkpoint_site(self) -> tuple[Site, BscId]:
        return bsc_site(self.current_bsc), self.current_bsc

    def on_writes(self, k: int) -> WriteRun:
        """Each write joins the cache, and the write that fills it flushes
        the cache to the host's BSC. Every flush of the run moves a full
        cache from the same cell, so they all cost the same. The run
        depends only on ``k``, the cache fill and the piece count before
        it, so it comes from the run's ``_write_runs`` table under those."""
        cache = self.cache
        first = self.next_seq
        self.next_seq = first + k
        key = (k, len(cache), self.pieces)
        run = self._write_runs.get(key)
        if run is None:
            run = self._keep(self._write_runs, key, self._write_run(*key))
        if not run.charged:
            cache.extend(range(first, first + k))
            return run
        flushed = first + run.charged[-1] + 1
        cache.extend(range(first, flushed))
        self._append(self.checkpoint_site, self.checkpoint_region, cache)
        cache[:] = range(flushed, first + k)
        return run

    def _write_run(self, k: int, n: int, before: int) -> WriteRun:
        """A run of ``k`` writes onto a cache of ``n`` entries, with
        ``before`` non-empty fragments."""
        cap = self.sp.cache_capacity
        first = cap - n - 1  # index of the write that fills the cache
        if first >= k:
            return WriteRun(NO_COST, range(0), before + 1)
        # Between flushes the cache holds entries; right after one it is
        # empty, and the one fragment then holds entries.
        after = 1 + (cap > 1 and first + 1 < k)
        return WriteRun(
            self._full_flush_cost, range(first, k, cap), max(before + 1, after) if first else after
        )

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
