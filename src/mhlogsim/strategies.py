"""The three log-management strategies behind one event interface.

lazy         log fragments stay at the BS where they were written; each
             handoff stores a pointer in the new BS, recovery chases the
             pointer chain.
pessimistic  the entire log plus checkpoint follows the host to the new BS
             on every handoff, so recovery is local.
proposed     write events buffer in the host cache and flush to the region's
             BSC (on cache exhaustion and on handoff); inter-BSC handoffs
             re-register the host and migrate the consolidated log.

Cost accounting conventions, applied uniformly; each of the first three is
one ``LogStrategy`` method:

* ``_ship``: data items (log entries, checkpoints) that cross the wireless
  hop pay ``alpha * unit`` there and ``rho * unit * hops`` on the wired path.
* ``_carry``: a log of ``n`` entries plus the checkpoint, moved between
  network sites, pays ``(n * c_1 + c_c) * rho * hops`` on the wired path only.
* ``_messages``: control messages pay a flat ``c_m`` each, booked as wired
  cost, except the recovery request which the model prices at
  ``alpha * c_m`` (wireless).
* ``elapsed_transfer_time`` counts 1 per item crossing the wireless link and
  ``r`` per item per wired hop; control messages take no time.
* Handoff channel signalling common to every strategy is not priced; only
  strategy-differential costs appear in a CostDelta.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

from .model import CostParams, SimParams
from .topology import (
    BscId,
    CellId,
    NetworkTree,
    Site,
    _bsc_gap,
    bs_site,
    bsc_of,
    bsc_site,
    hops_between,
    mh_site,
)


class StrategyKind(Enum):
    LAZY = "lazy"
    PESSIMISTIC = "pessimistic"
    PROPOSED = "proposed"


@dataclass
class CostDelta:
    """Cost of one strategy action, split by link type."""

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


@dataclass
class RecoveryOutcome:
    """Result of one recovery attempt."""

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


@dataclass(frozen=True)
class WriteRun:
    """What a run of writes cost, all issued from one cell with no other
    event between them: ``delta`` on each write whose index within the run
    is in ``charged``, nothing on the others. ``peak_pieces`` is the largest
    non-empty fragment count, the cache counting as one, after any write of
    the run."""

    delta: CostDelta
    charged: range
    peak_pieces: int


@dataclass
class HostState:
    """Mutable per-run state of the mobile host."""

    current_cell: CellId
    current_bsc: BscId
    home_bsc: BscId  # BSC holding the consolidated log (proposed only)
    cache: list[int] = field(default_factory=list)  # write sequence numbers
    next_seq: int = 1


@dataclass
class StrategyStore:
    """Durable placement of the checkpoint and log fragments."""

    checkpoint_site: Site | None
    checkpoint_region: BscId | None = None  # the BSC region of ``checkpoint_site``
    fragments: list[Fragment] = field(default_factory=list)
    pointer_chain_length: int = 0  # lazy only
    pieces: int = 0  # running tally of non-empty fragments
    region_entries: dict[BscId, int] = field(default_factory=dict)  # entries per BSC region
    region_peaks: dict[BscId, int] = field(default_factory=dict)  # most entries each region held

    def add_entries(self, region: BscId, n: int) -> None:
        """Count ``n`` more entries held in ``region`` and lift its peak."""
        total = self.region_entries.get(region, 0) + n
        self.region_entries[region] = total
        if total > self.region_peaks.get(region, 0):
            self.region_peaks[region] = total


class LogStrategy:
    """Shared machinery; subclasses fill in the placement policy."""

    kind: StrategyKind

    def __init__(self, tree: NetworkTree, sp: SimParams, cp: CostParams):
        self.tree = tree
        self.sp = sp
        self.cp = cp

    # -- setup ---------------------------------------------------------

    def initial_host(self) -> HostState:
        """The host, born in cell 0."""
        bsc = bsc_of(self.tree, 0)
        return HostState(current_cell=0, current_bsc=bsc, home_bsc=bsc)

    def initial_store(self, host: HostState) -> StrategyStore:
        """Seed checkpoint 0 at the host's birth site at zero cost: the
        initial application state is registered where the transaction
        starts, so recovery always has a durable baseline."""
        site, region = self._checkpoint_site(host)
        store = StrategyStore(checkpoint_site=site, checkpoint_region=region)
        self._reset_fragments(host, store)
        return store

    # -- events --------------------------------------------------------

    def on_write(self, host: HostState, store: StrategyStore, t: float) -> CostDelta:
        return self.on_writes(host, store, 1).delta

    def on_writes(self, host: HostState, store: StrategyStore, k: int) -> WriteRun:
        """Log ``k`` writes issued back to back from the host's cell; the
        same placement and costs as ``k`` calls of ``on_write``. The default
        policy sends each entry to the current BS, which acknowledges it."""
        first = host.next_seq
        host.next_seq += k
        self._append(store, bs_site(host.current_cell), host.current_bsc, range(first, first + k))
        # One wireless data item plus the BSC's acknowledgement message.
        delta = self._ship(self._messages(1), 1, self.cp.c_1, 0)
        return WriteRun(delta, range(k), store.pieces)

    def on_checkpoint(self, host: HostState, store: StrategyStore, t: float) -> CostDelta:
        """Ship a fresh checkpoint to its durable site and purge the log.

        The checkpoint originates at the host: one wireless hop, then the
        wired path to the durable site. Every strategy purges fragments
        older than the new checkpoint, and lazy's pointer chain resets with
        them since the pointers only locate purged fragments.
        """
        site, region = self._checkpoint_site(host)
        hops = hops_between(self.tree, bs_site(host.current_cell), host.current_bsc, site, region)
        delta = self._ship(CostDelta(), 1, self.cp.c_c, hops)
        store.checkpoint_site, store.checkpoint_region = site, region
        host.cache.clear()
        store.pointer_chain_length = 0
        self._reset_fragments(host, store)
        return delta

    def on_handoff(
        self,
        host: HostState,
        store: StrategyStore,
        from_cell: CellId,
        to_cell: CellId,
        t: float,
    ) -> CostDelta:
        """Move the host to ``to_cell``; the move is intra-BSC when both
        cells share a region."""
        if from_cell == to_cell:
            raise ValueError("not a handoff: from_cell == to_cell")
        from_bsc = bsc_of(self.tree, from_cell)
        to_bsc = bsc_of(self.tree, to_cell)
        host.current_cell = to_cell
        host.current_bsc = to_bsc
        return self._handoff(host, store, from_bsc, to_bsc)

    def recover(
        self, host: HostState, store: StrategyStore, recovery_cell: CellId, t: float
    ) -> RecoveryOutcome:
        """Retrieve the checkpoint and every durable fragment at the cell
        where the host restarts, replay, and re-home the fetched copies.

        Retrieval time is load time plus transfer time; transfer costs are
        priced per item over the wired path and the final wireless hop. The
        fetched copies physically arrive at the recovery site, so placement
        strategies that keep the log near the host adopt them as the new
        durable copy at no extra transfer cost.
        """
        cp = self.cp
        failure_bsc = host.current_bsc
        recovery_bsc = bsc_of(self.tree, recovery_cell)
        in_home_region = recovery_bsc == failure_bsc

        delta = CostDelta(wireless_cost=cp.alpha * cp.c_m, control_msgs=1)
        delta.add(self._locate_log(host, store, recovery_bsc))

        rec_site = bs_site(recovery_cell)
        fragments_fetched = 0
        for frag in store.fragments:
            n = len(frag.entries)
            if n == 0:
                continue
            hops = hops_between(self.tree, frag.site, frag.region, rec_site, recovery_bsc)
            self._ship(delta, n, cp.c_1, hops)
            fragments_fetched += 1

        if store.checkpoint_site is not None:
            hops = hops_between(
                self.tree, store.checkpoint_site, store.checkpoint_region, rec_site, recovery_bsc
            )
            self._ship(delta, 1, cp.c_c, hops)
            fragments_fetched += 1
            retrieval_time = cp.t_load_ckpt
        else:
            retrieval_time = 0.0
        retrieval_time += cp.t_load_log * fragments_fetched + delta.elapsed_transfer_time

        # Unflushed cache entries die with the host; only durable state
        # replays.
        lost = len(host.cache)
        host.cache.clear()

        host.current_cell = recovery_cell
        host.current_bsc = recovery_bsc
        self._after_recovery(host, store, recovery_cell)

        return RecoveryOutcome(
            success=retrieval_time <= self.sp.recovery_deadline,
            retrieval_time=retrieval_time,
            cost=delta,
            fragments_fetched=fragments_fetched,
            recovered_in_home_region=in_home_region,
            lost_entries=lost,
        )

    def log_locations(self, host: HostState, store: StrategyStore) -> list[tuple[Site, int]]:
        """Current fragment placement snapshot, in replay order."""
        out = [(f.site, len(f.entries)) for f in store.fragments]
        if host.cache:
            out.append((mh_site(0), len(host.cache)))
        return out

    def replay_sequence(self, host: HostState, store: StrategyStore) -> list[int]:
        """Entry seqs recoverable in order: durable fragments then cache."""
        seqs = [seq for f in store.fragments for seq in f.entries]
        seqs.extend(host.cache)
        return seqs

    # -- policy hooks ---------------------------------------------------

    def _checkpoint_site(self, host: HostState) -> tuple[Site, BscId]:
        """Where the host's next checkpoint is kept, and that site's region."""
        return bs_site(host.current_cell), host.current_bsc

    def _reset_fragments(self, host: HostState, store: StrategyStore) -> None:
        self._place(store, [])

    def _handoff(
        self, host: HostState, store: StrategyStore, from_bsc: BscId, to_bsc: BscId
    ) -> CostDelta:
        """Policy for a move from region ``from_bsc`` to ``to_bsc``; the
        host already stands in its new cell."""
        raise NotImplementedError

    def _locate_log(self, host: HostState, store: StrategyStore, recovery_bsc: BscId) -> CostDelta:
        return CostDelta()

    def _after_recovery(self, host: HostState, store: StrategyStore, recovery_cell: CellId) -> None:
        pass

    # -- shared pieces ---------------------------------------------------

    def _messages(self, k: int) -> CostDelta:
        """``k`` wired control messages."""
        return CostDelta(wired_cost=k * self.cp.c_m, control_msgs=k)

    def _ship(self, delta: CostDelta, n: int, unit: float, hops: int) -> CostDelta:
        """Add to ``delta`` ``n`` items of cost ``unit`` that cross the
        wireless hop and ``hops`` wired hops."""
        cp = self.cp
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

    def _append(self, store: StrategyStore, site: Site, region: BscId, seqs: Sequence[int]) -> None:
        """Extend the last fragment if it sits at ``site``, else open a new
        one there, and update the store's tallies; ``seqs`` is non-empty."""
        if not (store.fragments and store.fragments[-1].site == site):
            store.fragments.append(Fragment(site, region))
        frag = store.fragments[-1]
        if not frag.entries:
            store.pieces += 1
        frag.entries.extend(seqs)
        store.add_entries(region, len(seqs))

    def _place(self, store: StrategyStore, fragments: list[Fragment]) -> None:
        """Purge the log: the store then holds ``fragments``, which hold no
        entries."""
        store.fragments[:] = fragments
        store.pieces = 0
        store.region_entries.clear()

    def _move(self, store: StrategyStore, site: Site, region: BscId) -> None:
        """Move the one fragment pessimistic and proposed keep to ``site`` in
        ``region``, its entries' region tally with it."""
        frag = store.fragments[0]
        if frag.entries:
            del store.region_entries[frag.region]
            store.add_entries(region, len(frag.entries))
        frag.site, frag.region = site, region


class LazyStrategy(LogStrategy):
    """Fragments accumulate where written; handoffs only store pointers."""

    kind = StrategyKind.LAZY

    def _handoff(self, host, store, from_bsc, to_bsc) -> CostDelta:
        # The new BS stores a pointer to the old one; no log data moves.
        store.pointer_chain_length += 1
        return self._messages(1)

    def _locate_log(self, host, store, recovery_bsc) -> CostDelta:
        # Chase the pointer chain back to the fragments, one message a link.
        return self._messages(store.pointer_chain_length)

    def _after_recovery(self, host, store, recovery_cell) -> None:
        # Fragments stay put; the restart BS links into the existing chain
        # so the next recovery can still find them. Registration signalling
        # is common to all strategies and not priced.
        if store.fragments and store.fragments[-1].site != bs_site(recovery_cell):
            store.pointer_chain_length += 1


class PessimisticStrategy(LogStrategy):
    """One fragment, co-located with the host's BS at all times."""

    kind = StrategyKind.PESSIMISTIC

    def _reset_fragments(self, host: HostState, store: StrategyStore) -> None:
        self._place(store, [Fragment(bs_site(host.current_cell), host.current_bsc)])

    def _handoff(self, host, store, from_bsc, to_bsc) -> CostDelta:
        n = len(store.fragments[0].entries)
        # BS up to its BSC, across to the new BSC, down to the new BS.
        hops = 2 + _bsc_gap(self.tree, from_bsc, to_bsc)
        site = bs_site(host.current_cell)
        store.checkpoint_site, store.checkpoint_region = site, to_bsc
        self._move(store, site, to_bsc)
        return self._carry(self._messages(1), n, hops)

    def _after_recovery(self, host, store, recovery_cell) -> None:
        # The retrieval already delivered log and checkpoint to the restart
        # BS; they become the durable copy there.
        site = bs_site(recovery_cell)
        self._move(store, site, host.current_bsc)
        if store.checkpoint_site is not None:
            store.checkpoint_site, store.checkpoint_region = site, host.current_bsc


class ProposedStrategy(LogStrategy):
    """Cache on the host, consolidate at the region's BSC."""

    kind = StrategyKind.PROPOSED

    def _checkpoint_site(self, host: HostState) -> tuple[Site, BscId]:
        return bsc_site(host.home_bsc), host.home_bsc

    def on_writes(self, host: HostState, store: StrategyStore, k: int) -> WriteRun:
        """Each write joins the cache, and the write that fills it flushes
        the cache to the home BSC. Every flush of the run moves a full
        cache from the same cell, so they all cost the same."""
        cap = self.sp.cache_capacity
        cache = host.cache
        seqs = range(host.next_seq, host.next_seq + k)
        host.next_seq += k
        before = store.pieces
        first = cap - len(cache) - 1  # index of the write that fills the cache
        if first >= k:
            cache.extend(seqs)
            return WriteRun(CostDelta(), range(0), before + 1)
        delta = self._flush_cost(host, cap)
        charged = range(first, k, cap)
        flushed = charged[-1] + 1
        cache.extend(seqs[:flushed])
        self._append(store, bsc_site(host.home_bsc), host.home_bsc, cache)
        cache[:] = seqs[flushed:]
        # Between flushes the cache holds entries; right after one it is
        # empty, and every flush after the first extends the same fragment.
        after = store.pieces + (cap > 1 and first + 1 < k)
        return WriteRun(delta, charged, max(before + 1, after) if first else after)

    def _flush_cost(self, host: HostState, n: int) -> CostDelta:
        """Cost of moving ``n`` cached entries to the home BSC."""
        hops = 1 + _bsc_gap(self.tree, host.current_bsc, host.home_bsc)
        return self._ship(self._messages(1), n, self.cp.c_1, hops)

    def _flush_cache(self, host: HostState, store: StrategyStore) -> CostDelta:
        """Copy the entire cache to the home BSC and append it there."""
        n = len(host.cache)
        if n == 0:
            return CostDelta()
        delta = self._flush_cost(host, n)
        self._append(store, bsc_site(host.home_bsc), host.home_bsc, host.cache)
        host.cache.clear()
        return delta

    def _handoff(self, host, store, from_bsc, to_bsc) -> CostDelta:
        if from_bsc == to_bsc:
            # The durable log is already at this region's BSC; only the
            # cache moves.
            return self._flush_cache(host, store)

        # Registration: Connect(MHid, PBSCid) to the new BSC, which then
        # notifies the old home BSC of the host's reachability. The old home
        # BSC then transfers its whole fragment plus the checkpoint to the
        # new BSC, which becomes the home.
        n_home = sum(len(f.entries) for f in store.fragments)
        hops = _bsc_gap(self.tree, host.home_bsc, to_bsc)
        delta = self._carry(self._messages(2), n_home, hops)
        self._rehome(host, store, to_bsc)

        delta.add(self._flush_cache(host, store))
        return delta

    def _locate_log(self, host, store, recovery_bsc) -> CostDelta:
        # Tracking agent asks the HLR/VLR where the log lives when the host
        # restarts outside the home region.
        if recovery_bsc != host.home_bsc:
            return self._messages(1)
        return CostDelta()

    def _after_recovery(self, host, store, recovery_cell) -> None:
        # Retrieval delivered the full log and checkpoint to the recovery
        # region; its BSC adopts them and becomes the home BSC, restoring
        # the consolidation invariant.
        self._rehome(host, store, host.current_bsc)

    def _rehome(self, host: HostState, store: StrategyStore, bsc: BscId) -> None:
        """Move the log and the checkpoint to ``bsc``, the new home BSC. The
        log is at most one fragment: flushes only go to the home BSC, and
        only this method changes the home."""
        site = bsc_site(bsc)
        if store.fragments:
            self._move(store, site, bsc)
        store.checkpoint_site, store.checkpoint_region = site, bsc
        host.home_bsc = bsc


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
