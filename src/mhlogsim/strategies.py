"""The three log-management strategies, each a fold of a run's events.

A strategy object is one run: it holds the host's cell, BSC and cache and
where the checkpoint and log fragments sit. ``fold`` applies a ``Timeline``,
which counts the events, to that state in one loop, lazy's or the one
pessimistic and proposed share. Lazy's loop changes its ``fragments`` in
place. The one-fragment loop carries only integers (the entries in the
fragment and the cache, the host's cell, BSC and sequence number) and
rebuilds the fragment and the cache once, at its end, exact by the three
invariants ``_OneFragmentStrategy`` states. ``fold`` is the one way in:
the four one-event methods that remain (``on_write``, ``on_handoff``,
``on_checkpoint``, ``recover``) are spans for the benchmark's tracer, each
a fold of one event. Make a fresh object for every run.

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
* Prices fixed for a whole run (one charged write, which flushes a full
  cache, a checkpoint, lazy's pointer message) are computed once in
  ``__init__``, and every event that pays one traces that object. ``fold``
  totals the charged writes' and the checkpoints' with ``repeated_sum``,
  the float a per-event loop's additions from 0.0 make, in a few steps a
  binade the total crosses.
  Prices of a few small integers are made by the same rules on a loop's
  miss and kept in a table under them (``_keep``), up to
  ``_PRICE_TABLE_LIMIT`` entries: one-fragment handoffs in ``_move_prices``
  under (log size, hops the log moves, cache fill), the log size 0 for 0
  hops; their recoveries in ``_recovery_prices`` under (log size, hops from
  the checkpoint to the restart BS); runs of writes in ``_write_runs``,
  lazy's under (run length, fragment count after it), pessimistic's and
  proposed's under (run length, cache fill, whether the log holds
  entries). A recovery is priced from each fetched fragment's ``(entries,
  hops)``, the checkpoint's hops and the messages that locate the log
  (``_recovery_price``), so one rule serves the table and lazy, which
  prices every recovery afresh.
* The tables are process-wide (``_price_tables``), shared by every run of
  a kind with the same price inputs: the eight ``CostParams`` fields a
  price reads and the cache capacity ``_cap`` (1 but for proposed), floats
  by their bits (``C_m = 0.0`` and ``-0.0`` differ); the network is never
  hashed. Hops are in the move and recovery keys, and as two BSCs lie at
  least 2 hops apart, proposed restarts at home exactly when ``hops == 1``
  on every tree, so the tree stays out of the key and a figure's reps and
  points, which sweep only rates, share one set. A traced CostDelta or a
  ``WriteRun`` is therefore shared across runs: read it, never change it.

The loops index the tree's cell -> BSC table unchecked, as every cell of a
``Timeline`` comes from the tree (``on_handoff`` and ``recover`` check
theirs), and call ``_bsc_gap`` only across two BSCs. A region's peak entries
are settled when the log leaves it or is purged, and at the end of a fold.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from math import frexp, inf, ldexp, ulp
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
# full is priced afresh. Uncapped, a long checkpoint interval and a high
# write rate grow a table to a quarter of a million log sizes that rarely
# repeat. The six default figures at 20 replications fill proposed's
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
    """Cost of one strategy action, split by link type. One in a trace may
    be shared with other events and runs: read it, never change it."""

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


# The price of a write that moves and sends nothing; write runs and the
# trace hand it out, so never add to it.
NO_COST = CostDelta()


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
    the run. A price table keeps one ``WriteRun`` for every run of writes
    of the same shape and price inputs: read it, never change it."""

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


def repeated_sum(x: float, n: int) -> float:
    """``n`` additions of ``x`` from ``0.0``, each rounded as a per-event
    loop rounds it: exactly ``functools.reduce(operator.add,
    itertools.repeat(x, n), 0.0)``, the sign of zero, nan and inf included,
    in a few float steps a binade the sum crosses rather than ``n``.
    ``n * x`` rounds once, so it differs.

    Why it is exact (Goldberg 1991; round to nearest, ties to even). Take a
    finite ``x > 0``; rounding is odd in sign, so a negative ``x`` mirrors
    it. The floats of the binade ``[h, 2h)`` are the multiples of
    ``u = ulp(h)``. While the exact sum ``s + x`` of a running sum ``s`` in
    the binade stays below ``2h``, it rounds to a multiple of ``u``, so the
    step it takes depends only on ``x`` modulo ``u``, but for a tie (``x / u``
    ends in .5), which goes to the even multiple and so depends on the
    parity of ``s / u``. A sum rounded in the binade is even at a tie, so
    every step from one takes the same ``d``. Once three sums in a row lie
    in the binade, the last two were both rounded there, and their
    difference is ``d``, exact by Sterbenz's lemma. The next ``k`` steps are
    then one exact ``s + k * d``, for the largest ``k`` whose exact sums
    ``s + j * d + x`` (``j < k``) stay below ``2h``: ``k * d`` is a multiple
    of ``u`` no larger than ``2h - s``, so it and the sum are floats. Real
    additions carry the sum on into the next binade. A step of 0 repeats
    for ever, so the sum stops there. The room left, ``2h - s``, is taken as
    ``h - (s - h)``, both exact, as the top binade's ``2h = 2**1024`` is no
    float; an exact sum that rounds to it is ``inf``, as a real addition
    makes it.
    """
    if n == 0 or x == 0.0:
        return 0.0  # 0.0 + -0.0 is +0.0
    if x < 0.0:
        return -repeated_sum(-x, n)
    if not x < inf:  # inf or nan: every sum is x
        return x
    s, n = x, n - 1  # 0.0 + x
    h, run = ldexp(0.5, frexp(s)[1]), 1  # s's binade [h, 2h) and the sums in a row in it
    while n:
        t = s + x
        n -= 1
        if t - h >= h:  # t >= 2h, as t - h is exact below 2h
            if t == inf:
                return t
            h, run = ldexp(0.5, frexp(t)[1]), 1
        else:
            run += 1
            if run >= 3:
                d = t - s
                if d == 0.0:
                    return t
                # The largest k with (k - 1) d + x < 2h - t. In units of u,
                # where 2h - t and d are whole and x / u is exact, that is
                # (k - 1) d <= 2h - t - 1 - floor(x).
                u = ulp(h)
                k = min(n, (int((h - (t - h)) / u) - 1 - int(x / u)) // int(d / u) + 1)
                if k > 0:
                    t += k * d
                    n -= k
        s = t
    return s


class LogStrategy:
    """One run of one strategy: the mobile host and the durable placement
    of its checkpoint and log. Subclasses fill in the placement policy and
    the loop that folds a timeline (``_fold``)."""

    kind: StrategyKind
    _cap = 1  # writes the host's cache holds; a cache of one flushes each write
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
        # transaction starts, and only a checkpoint replaces it, so recovery
        # always has a durable baseline.
        site, region = self._checkpoint_site(0, self.current_bsc)
        self.checkpoint_site, self.checkpoint_region = site, region
        self._up = int(site[0] == BS)  # wired hops from the checkpoint's site up to its BSC
        # The log: its fragments, and the most entries each BSC region held
        # as of the last settle.
        self.fragments: list[Fragment] = []
        self.pointer_chain_length = 0  # lazy only
        self.region_peaks: dict[BscId, int] = {}
        # This kind's shared price tables for the inputs its prices read;
        # lazy fills only the first. Floats key by their bits: 0.0 != -0.0.
        key = tuple(v.hex() if isinstance(v, float) else v for v in (
            self._cap, cp.r, cp.c_c, cp.c_1, cp.c_m, cp.alpha, cp.rho, cp.t_load_ckpt, cp.t_load_log))
        slot = _price_tables.get(self.kind)
        if slot is None or slot[0] != key:
            slot = _price_tables[self.kind] = key, ({}, {}, {})
        self._write_runs, self._move_prices, self._recovery_prices = slot[1]
        # Prices no event of the run changes: one charged write, which
        # flushes a full cache, and a checkpoint, sent from the host's BS
        # to the checkpoint site, ``1 - _up`` hops away whatever the cell.
        self._write_cost = self._flush_price(self._cap)
        self._checkpoint_cost = self._ship(CostDelta(), cp.c_c, [(1, 1 - self._up)])

    # -- events --------------------------------------------------------

    def fold(self, timeline: Timeline, trace: list | None = None) -> RunStats:
        """Apply ``timeline`` to this run's state, a run of writes at a time,
        and return the run's ``RunStats``. ``trace``, when given, receives
        (time, event kind, cost delta) for every event, one entry per write
        included, which needs the timeline's ``write_times``.

        The subclass's loop, ``_fold(writes, events, write_times, trace)``,
        returns its tally (successes, lost entries, home-region recoveries,
        peak pieces, charged writes, then the handoff, recovery and
        home-recovery cost and retrieval time sums); the timeline counts
        the events."""
        (successes, lost, home, peak, charged, cost_handoff, cost_recovery, cost_home,
         retrieval_sum) = self._fold(timeline.writes, timeline.events, timeline.write_times, trace)
        handoffs, failures = timeline.intra_bsc + timeline.inter_bsc, timeline.failures
        # A per-event loop's n additions from 0.0, in a few exact steps a binade.
        cost_checkpoint = repeated_sum(self._checkpoint_cost.total, timeline.checkpoints)
        cost_logging = repeated_sum(self._write_cost.total, charged)
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

    # ``benchmarks/tracer.py`` wraps these four by name, which is why they
    # stay: each folds its one event through ``_fold`` and returns nothing.
    # The range checks guard the loops' unchecked cell -> BSC index.
    def on_write(self) -> None:
        self._fold((1,), (), None, None)

    def on_checkpoint(self) -> None:
        self._fold((0, 0), ((0.0, "CHECKPOINT", self.current_cell),), None, None)

    def on_handoff(self, to_cell: CellId) -> None:
        if to_cell == self.current_cell:
            raise ValueError(f"not a handoff: the host is already in cell {to_cell}")
        if not 0 <= to_cell < self._n_cells:
            raise ValueError(f"unknown cell {to_cell}")
        self._fold((0, 0), ((0.0, "HANDOFF", to_cell),), None, None)

    def recover(self, recovery_cell: CellId) -> None:
        if not 0 <= recovery_cell < self._n_cells:
            raise ValueError(f"unknown cell {recovery_cell}")
        self._fold((0, 0), ((0.0, "FAILURE", recovery_cell),), None, None)

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

    def _flush_price(self, n: int) -> CostDelta:
        """``n`` cached entries sent from the host's BS to the log's site,
        ``1 - _up`` hops away, and the acknowledgement."""
        return self._ship(self._messages(1), self.cp.c_1, [(n, 1 - self._up)])

    def _write_run(self, k: int, pieces: int) -> WriteRun:
        """A run of ``k`` writes sent to the host's BS, each acknowledged,
        after which ``pieces`` fragments hold entries."""
        return WriteRun(self._write_cost, range(k), pieces)

    def _recovery_price(self, loads: list[tuple[int, int]], hops: int, k: int) -> tuple[CostDelta, float]:
        """What fetching the log's non-empty fragments, ``(entries, hops)``
        each in ``loads``, and the checkpoint from ``hops`` away costs, as
        (cost, retrieval time). The wireless recovery request, then ``k``
        wired messages that locate the log, then every fragment, then the
        checkpoint; the retrieval time loads each of them."""
        cp = self.cp
        delta = CostDelta(cp.alpha * cp.c_m, k * cp.c_m, 1 + k)
        self._ship(delta, cp.c_1, loads)
        self._ship(delta, cp.c_c, [(1, hops)])
        return delta, cp.t_load_ckpt + (cp.t_load_log * (len(loads) + 1) + delta.elapsed_transfer_time)

    # -- shared pieces ---------------------------------------------------

    @staticmethod
    def _keep(table: dict, key: object, price: _Price) -> _Price:
        """Store ``price``, the price of a ``key`` a loop missed in the
        shared ``table``, unless the table is full, and return it; a hit
        costs the loop one probe."""
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
        peaks, held = self.region_peaks, defaultdict(int)
        for frag in self.fragments:
            held[frag.region] += len(frag.entries)
        for region, n in held.items():
            if n > peaks.get(region, 0):
                peaks[region] = n
        return peaks


class LazyStrategy(LogStrategy):
    """Fragments accumulate where written; handoffs only store pointers."""

    kind = StrategyKind.LAZY

    def __init__(self, tree: NetworkTree, sp: SimParams, cp: CostParams):
        super().__init__(tree, sp, cp)
        self._pointer_cost = self._messages(1)

    def _fold(self, writes, events, write_times, trace):
        """Writes extend the last fragment if it sits at the host's BS, else
        open one there; nothing is cached, so a recovery loses nothing. A
        handoff stores a pointer in the new BS. A checkpoint purges the log
        and the pointer chain, which only locates purged fragments. A
        recovery chases the chain and fetches every fragment where it lies;
        a restart BS away from the last fragment links into the chain, and
        its registration, common to all strategies, is not priced."""
        tree, cell_bsc, fragments, settle = self.tree, self._cell_bsc, self.fragments, self.settle_peaks
        cell, bsc, seq = self.current_cell, self.current_bsc, self.next_seq
        chain_length, deadline = self.pointer_chain_length, self.sp.recovery_deadline
        write_runs, keep, write_run = self._write_runs, self._keep, self._write_run
        recovery_price, site_of = self._recovery_price, self._checkpoint_site
        checkpoint_cost, pointer_cost = self._checkpoint_cost, self._pointer_cost
        pointer_total = pointer_cost.total
        # The cell whose BS holds the last fragment, and that fragment's entries.
        last_cell = fragments[-1].site[1] if fragments else None
        entries = fragments[-1].entries if fragments else None
        times = iter(write_times or ())
        successes = home = peak = charged = 0
        cost_handoff = cost_recovery = retrieval_sum = cost_home = 0.0

        for k, event in zip(writes, chain(events, (None,))):
            if k:
                if last_cell != cell:
                    frag = Fragment((BS, cell), bsc)
                    fragments.append(frag)
                    last_cell, entries = cell, frag.entries
                entries += range(seq, seq + k)
                seq += k
                # A write opens a fragment and only a purge drops one: none is empty.
                key = (k, len(fragments))
                run = write_runs.get(key)
                if run is None:
                    run = keep(write_runs, key, write_run(*key))
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
                chain_length = 0
                last_cell = entries = None
                delta = checkpoint_cost
            elif ev == "HANDOFF":
                cell, bsc = to, cell_bsc[to]
                chain_length += 1
                delta = pointer_cost
                cost_handoff += pointer_total
            else:  # FAILURE
                in_home, bsc = cell_bsc[to] == bsc, cell_bsc[to]
                cell = to
                site = (BS, to)
                loads = [(len(frag.entries), hops_between(tree, frag.site, frag.region, site, bsc))
                         for frag in fragments]
                # Chase the pointer chain back to the fragments, one message a link.
                delta, retrieval_time = recovery_price(loads, hops_between(
                    tree, self.checkpoint_site, self.checkpoint_region, site, bsc), chain_length)
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
        self.pointer_chain_length = chain_length
        return successes, 0, home, peak, charged, cost_handoff, cost_recovery, cost_home, retrieval_sum


class _OneFragmentStrategy(LogStrategy):
    """Pessimistic and proposed: exactly one fragment, empty after a purge,
    kept with the checkpoint at the host's checkpoint site, ``_up`` hops
    below its BSC. Writes wait in a cache of ``_cap`` entries, and the
    write that fills it flushes it to the fragment. A handoff moves the
    fragment and the checkpoint to the new site, sending ``_move_messages``
    control messages, and appends the cache there. A kind states only
    those three facts and how a recovery locates the log (``_locate_log``).

    The loop carries only integers, ``n`` entries in the fragment, ``c`` in
    the cache and the host's cell, BSC and next sequence number, and
    rebuilds the fragment and the cache once, at its end. Three invariants
    make that exact:

    1. After every event the fragment and the checkpoint sit at
       ``_checkpoint_site(cell, bsc)``, in the host's BSC region, so a
       region's peak settles exactly when the BSC changes, and at a
       checkpoint.
    2. The cache holds the newest ``c`` writes: every other event empties
       it (a checkpoint purges it, a handoff joins it to the log, a failure
       loses it).
    3. Every write since the last purge is in the fragment, in the cache,
       or in a range a recovery lost."""

    def __init__(self, tree: NetworkTree, sp: SimParams, cp: CostParams):
        super().__init__(tree, sp, cp)
        self.fragments.append(Fragment(self.checkpoint_site, self.checkpoint_region))

    def _fold(self, writes, events, write_times, trace):
        """Writes go to the cache, whose filling write flushes it to the
        fragment (at once, for a cache of one). A handoff moves the log
        ``hops`` wired hops, priced by its entry count (0 for 0 hops),
        ``hops`` and the cache fill; the cache then joins it at the host's
        checkpoint site. A recovery fetches both over ``hops`` to the
        restart BS, priced by the entry count and ``hops`` alone, loses the
        cache, the range ``(seq - c, seq)``, and re-homes the fetched copies
        at no cost. The log is rebuilt from what it held when the loop
        began, or nothing after a checkpoint, then the writes since, less
        the lost ranges."""
        tree, cell_bsc, peaks = self.tree, self._cell_bsc, self.region_peaks
        cell, bsc, seq = self.current_cell, self.current_bsc, self.next_seq
        n, c = len(self.fragments[0].entries), len(self.cache)
        write_runs, move_prices = self._write_runs, self._move_prices
        recovery_prices, keep, write_run = self._recovery_prices, self._keep, self._write_run
        move_price, recovery_price = self._move_price, self._recovery_price
        up, cap, deadline = self._up, self._cap, self.sp.recovery_deadline
        checkpoint_cost = self._checkpoint_cost
        # The first write this loop left in the log, whether a checkpoint
        # purged what came before it, and the ranges recoveries lost since.
        start, purged, lost_ranges = seq, False, []
        times = iter(write_times or ())
        successes = lost = home = peak = charged = 0
        cost_handoff = cost_recovery = retrieval_sum = cost_home = 0.0

        for k, event in zip(writes, chain(events, (None,))):
            if k:
                seq += k
                key = (k, c, n > 0)
                run = write_runs.get(key)
                if run is None:
                    run = keep(write_runs, key, write_run(*key))
                # Each charged write flushes a full cache.
                flushed = len(run.charged)
                charged += flushed
                n += flushed * cap
                c += k - flushed * cap
                if trace is not None:
                    for i in range(k):
                        trace.append((next(times), "WRITE", run.delta if i in run.charged else NO_COST))
                if run.peak_pieces > peak:
                    peak = run.peak_pieces
            if event is None:
                break
            t, ev, to = event
            if ev == "CHECKPOINT":
                if n > peaks.get(bsc, 0):
                    peaks[bsc] = n
                n = c = 0
                start, purged = seq, True
                lost_ranges.clear()
                delta = checkpoint_cost
            else:
                from_bsc, bsc = bsc, cell_bsc[to]
                gap = 0 if from_bsc == bsc else _bsc_gap(tree, from_bsc, bsc)
                # The log leaves its region, which it alone fills.
                if gap and n > peaks.get(from_bsc, 0):
                    peaks[from_bsc] = n
                if ev == "HANDOFF":
                    # Up from the old site, across the gap, down to the new one.
                    hops = 2 * up + gap
                    key = (n if hops else 0, hops, c)
                    delta = move_prices.get(key)
                    if delta is None:
                        delta = keep(move_prices, key, move_price(*key))
                    cost_handoff += delta.total
                    n += c
                else:  # FAILURE
                    # Up from the checkpoint, across the gap, down to the
                    # restart BS: none when that is the checkpoint's own BS.
                    hops = up + 1 + gap if to != cell or not up else 0
                    key = (n, hops)
                    price = recovery_prices.get(key)
                    if price is None:
                        price = keep(recovery_prices, key, recovery_price(
                            [(n, hops)] if n else [], hops, self._locate_log(hops)))
                    delta, retrieval_time = price
                    if c:
                        lost_ranges.append((seq - c, seq))
                        lost += c
                    total = delta.total
                    cost_recovery += total
                    if retrieval_time <= deadline:
                        successes += 1
                    retrieval_sum += retrieval_time
                    if not gap:
                        cost_home += total
                        home += 1
                c = 0
                cell = to
            if trace is not None:
                trace.append((t, ev, delta))

        # The log, rebuilt: what it held before ``start`` unless purged, then
        # the writes since, less the lost ranges; the newest ``c`` are the cache.
        cache = self.cache
        if purged:
            log = []
        else:
            log = self.fragments[0].entries
            log += cache
        for lo, hi in lost_ranges:
            if lo < start:  # the loss reaches into the cache the loop began with
                del log[lo - start:]
            else:
                log += range(start, lo)
            start = hi
        log += range(start, seq)
        cache[:] = log[len(log) - c:]
        del log[len(log) - c:]
        site, region = self.checkpoint_site, self.checkpoint_region = self._checkpoint_site(cell, bsc)
        self.fragments[0] = Fragment(site, region, log)
        self.current_cell, self.current_bsc, self.next_seq = cell, bsc, seq
        return successes, lost, home, peak, charged, cost_handoff, cost_recovery, cost_home, retrieval_sum

    def _locate_log(self, hops: int) -> int:
        """How many wired messages a recovery from ``hops`` away sends, after
        its request, to locate the log; by default none."""
        return 0

    def _write_run(self, k: int, n: int, before: int) -> WriteRun:
        """A run of ``k`` writes onto a cache of ``n`` entries, with
        ``before`` non-empty fragments. Each write joins the cache, and the
        write that fills it flushes the cache to the log's site (a cache of
        one, every write). Every flush of the run moves a full cache from the
        same cell, so they all cost the same."""
        cap = self._cap
        first = cap - n - 1  # index of the write that fills the cache
        if first >= k:
            return WriteRun(NO_COST, range(0), before + 1)
        # Between flushes the cache holds entries; right after one it is
        # empty, and the one fragment then holds entries.
        after = 1 + (cap > 1 and first + 1 < k)
        return WriteRun(
            self._write_cost, range(first, k, cap), max(before + 1, after) if first else after
        )

    def _move_price(self, n, hops, cached) -> CostDelta:
        """A move within the region (0 hops) only flushes the cache. One
        across sites sends ``_move_messages`` messages, carries the log and
        the checkpoint ``hops`` wired hops, then flushes."""
        if hops == 0:
            return self._flush_price(cached) if cached else CostDelta()
        delta = self._carry(self._messages(self._move_messages), n, hops)
        return delta.add(self._flush_price(cached)) if cached else delta


class PessimisticStrategy(_OneFragmentStrategy):
    """A cache of one, so every write is flushed at once to the one
    fragment, kept with the checkpoint at the host's BS. A handoff sends
    one message and carries both to the new BS, at least 2 hops away."""

    kind = StrategyKind.PESSIMISTIC
    _move_messages = 1


class ProposedStrategy(_OneFragmentStrategy):
    """Cache on the host, consolidate at its BSC.

    The log is at most one fragment, and it and the checkpoint sit at the
    host's BSC after every event: flushes go there, and the host changes
    BSC only by an inter-BSC handoff or a recovery, each of which moves
    them along. An inter-BSC handoff sends two messages: it re-registers
    the host (Connect(MHid, PBSCid) to the new BSC, which tells the old one)."""

    kind = StrategyKind.PROPOSED
    _move_messages = 2
    _cap = property(lambda self: self.sp.cache_capacity)

    def _checkpoint_site(self, cell, bsc) -> tuple[Site, BscId]:
        return bsc_site(bsc), bsc

    def _locate_log(self, hops) -> int:
        # Tracking agent asks the HLR/VLR where the log lives when the host
        # restarts outside the failure region: the BSC holding the checkpoint
        # is 1 hop from each BS of its region and, as BSCs lie at least 2
        # apart, at least 3 from any other.
        return int(hops != 1)


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
