"""Seeded discrete-event kernel and statistical estimators.

Every stochastic choice in a run comes from one PCG64 stream seeded with a
64-bit integer, so identical (config, strategy, seed) triples reproduce
identical RunStats bit for bit. Strategies themselves never touch the
stream, which also makes runs with different strategies on the same seed
see the same event timeline, a big variance saver for paired comparisons.

Draw order, fixed for reproducibility:

  at start     next write, next handoff, next failure (in that order)
  handoff      destination cell, then the next handoff gap
  failure      restart region, restart cell, then the next failure gap
  write/ckpt   the next gap only (checkpoints are a deterministic timer)

One event of each kind is pending at a time. Simultaneous events dispatch
by kind priority: checkpoint, handoff, write, failure.

The placement peaks ``peak_fragments`` and ``bsc_peak_entries`` are post-event
maxima, read after each event from running tallies kept on the strategy's
store: O(1) work per event, however many fragments lazy logging leaves.

Replication i of a master seed uses stream seed
``master ^ ((0x9E3779B97F4A7C15 * (i + 1)) mod 2^64)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import IntEnum

import numpy as np
from scipy import stats as sstats

from .model import CostParams, SimParams, derive_quantities, validate_params
from .strategies import CostDelta, StrategyKind, make_strategy
from .topology import MoveKind, NetworkTree, cells_of_bsc, classify_move, sample_next_cell

SEED_MASK = 0xFFFFFFFFFFFFFFFF
_SPLIT_MULTIPLIER = 0x9E3779B97F4A7C15  # fixed odd multiplier for stream splits


class EventKind(IntEnum):
    """Dispatch priority for simultaneous events is the enum value."""

    CHECKPOINT = 0
    HANDOFF = 1
    WRITE = 2
    FAILURE = 3


_KINDS = tuple(EventKind)


def split_seed(master_seed: int, index: int) -> int:
    """Stream seed for replication ``index`` of ``master_seed``."""
    return (master_seed ^ ((_SPLIT_MULTIPLIER * (index + 1)) & SEED_MASK)) & SEED_MASK


def sample_exponential(rate: float, rng: np.random.Generator) -> float:
    """Inverse-transform exponential draw: -ln(u)/rate with u in (0, 1]."""
    if rate <= 0:
        raise ValueError("rate must be > 0")
    u = 1.0 - rng.random()
    return -math.log(u) / rate


@dataclass(frozen=True)
class SimConfig:
    """Everything one run needs besides the strategy and the seed."""

    sim: SimParams
    cost: CostParams
    tree: NetworkTree
    p_same_region: float = 0.8


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


# Scalar fields eligible for replication summaries.
SUMMARY_FIELDS: tuple[str, ...] = tuple(
    f.name for f in fields(RunStats) if f.name != "bsc_peak_entries"
)


def _sample_recovery_cell(
    tree: NetworkTree, region_bsc: int, p_same_region: float, rng: np.random.Generator
) -> int:
    """Restart cell: uniform within the failure-time region with probability
    p_same_region, else uniform over foreign cells. Single-region networks
    always restart in-region."""
    same = rng.random() < p_same_region
    region = cells_of_bsc(tree, region_bsc)
    if same or tree.n_bscs == 1:
        cells = region
    else:
        in_region = set(region)
        cells = [c for c in range(tree.n_cells) if c not in in_region]
    return cells[int(rng.integers(len(cells)))]


def run_simulation(
    cfg: SimConfig,
    kind: StrategyKind | str,
    seed: int,
    trace: list[tuple[float, str, CostDelta]] | None = None,
) -> RunStats:
    """Simulate one host for ``cfg.sim.sim_horizon`` time units.

    ``trace``, when given, receives (time, event kind, cost delta) for every
    processed event; tests use it to check cost conservation.
    """
    validate_params(cfg.sim, cfg.cost)
    sp, tree = cfg.sim, cfg.tree
    rng = np.random.Generator(np.random.PCG64(seed & SEED_MASK))
    strategy = make_strategy(kind, tree, sp, cfg.cost)
    host = strategy.initial_host()
    store = strategy.initial_store(host)

    # Next firing time of each event kind, indexed by EventKind value; the
    # write clock of a host that never writes reads inf and never fires.
    write_at = sample_exponential(sp.lambda_w, rng) if sp.lambda_w > 0 else math.inf
    handoff_at = sample_exponential(sp.mu, rng)
    clocks = [sp.t_c, handoff_at, write_at, sample_exponential(sp.lambda_f, rng)]

    handoffs = intra = inter = writes = checkpoints = 0
    failures = successes = 0
    cost_handoff = cost_recovery = cost_logging = cost_checkpoint = 0.0
    retrieval_sum = 0.0
    lost_total = 0
    peak_fragments = 0
    cost_home = 0.0
    home_recoveries = 0
    bsc_peaks: dict[int, int] = {}

    while True:
        t = min(clocks)
        if t > sp.sim_horizon:
            break
        # index() finds the first minimum, so the lower kind wins a tie.
        ev = _KINDS[clocks.index(t)]

        if ev is EventKind.CHECKPOINT:
            delta = strategy.on_checkpoint(host, store, t)
            checkpoints += 1
            cost_checkpoint += delta.total
            clocks[ev] = t + sp.t_c
        elif ev is EventKind.HANDOFF:
            from_cell = host.current_cell
            to_cell = sample_next_cell(tree, from_cell, rng)
            if classify_move(tree, from_cell, to_cell) is MoveKind.INTRA_BSC:
                intra += 1
            else:
                inter += 1
            delta = strategy.on_handoff(host, store, from_cell, to_cell, t)
            handoffs += 1
            cost_handoff += delta.total
            clocks[ev] = t + sample_exponential(sp.mu, rng)
        elif ev is EventKind.WRITE:
            delta = strategy.on_write(host, store, t)
            writes += 1
            cost_logging += delta.total
            clocks[ev] = t + sample_exponential(sp.lambda_w, rng)
        else:  # FAILURE
            cell = _sample_recovery_cell(tree, host.current_bsc, cfg.p_same_region, rng)
            outcome = strategy.recover(host, store, cell, t)
            delta = outcome.cost
            failures += 1
            successes += int(outcome.success)
            cost_recovery += delta.total
            retrieval_sum += outcome.retrieval_time
            lost_total += outcome.lost_entries
            if outcome.recovered_in_home_region:
                cost_home += delta.total
                home_recoveries += 1
            clocks[ev] = t + sample_exponential(sp.lambda_f, rng)

        if trace is not None:
            trace.append((t, ev.name, delta))
        # Post-event only: mid-flush, entries sit in both cache and store.
        pieces = store.pieces + bool(host.cache)
        if pieces > peak_fragments:
            peak_fragments = pieces
        for region, n in store.region_entries.items():
            if n > bsc_peaks.get(region, 0):
                bsc_peaks[region] = n

    total_cost = cost_handoff + cost_recovery + cost_logging + cost_checkpoint
    return RunStats(
        handoff_count=handoffs,
        intra_bsc_count=intra,
        inter_bsc_count=inter,
        write_count=writes,
        checkpoint_count=checkpoints,
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
        peak_fragments=peak_fragments,
        lost_entries=lost_total,
        recovery_cost_home_total=cost_home,
        home_recovery_count=home_recoveries,
        bsc_peak_entries=bsc_peaks,
    )


def summarize(values: list[float], confidence: float = 0.95) -> tuple[float, float, float]:
    """Mean with a Student-t confidence interval; width 0 for one value, and
    ``(nan, nan, nan)`` with no warning for an empty sample."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return math.nan, math.nan, math.nan
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, mean, mean
    sem = float(arr.std(ddof=1) / math.sqrt(arr.size))
    if sem == 0.0:
        return mean, mean, mean
    half = sem * float(sstats.t.ppf((1 + confidence) / 2.0, arr.size - 1))
    return mean, mean - half, mean + half


def replicate(
    cfg: SimConfig, kind: StrategyKind | str, master_seed: int, reps: int
) -> tuple[list[RunStats], dict[str, tuple[float, float, float]]]:
    """Run ``reps`` independent replications and summarize every metric."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    runs = [run_simulation(cfg, kind, split_seed(master_seed, i)) for i in range(reps)]
    summary = {
        name: summarize([float(getattr(r, name)) for r in runs])
        for name in SUMMARY_FIELDS
    }
    return runs, summary


def estimate_transition_probs(
    sp: SimParams, seed: int, n_intervals: int
) -> tuple[float, float]:
    """Empirical handoff-interval outcome split from competing clocks.

    p02_hat is the fraction of intervals where a failure fires before the
    handoff ends the interval; p01_hat is its complement.
    """
    if n_intervals < 1:
        raise ValueError("n_intervals must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed & SEED_MASK))
    u_handoff = 1.0 - rng.random(n_intervals)
    d_handoff = -np.log(u_handoff) / sp.mu
    if sp.lambda_f <= 0:
        return 1.0, 0.0
    u_fail = 1.0 - rng.random(n_intervals)
    t_fail = -np.log(u_fail) / sp.lambda_f
    p02 = float(np.mean(t_fail < d_handoff))
    return 1.0 - p02, p02


def measure_mean_pending_log(
    lambda_w: float, t_c: float, n_intervals: int, seed: int
) -> float:
    """Mean pending-log size observed by arriving writes.

    Writes arrive as a Poisson process and the log purges on the t_c grid.
    Each write observes the number of entries already pending in its
    interval; intervals contribute the mean of their writes' observations
    (write-free intervals contribute nothing), and those per-interval means
    are averaged. The arrival epochs of a Poisson process are uniform order
    statistics within each interval, so these are uniformly-timed probes of
    the pending log as the sequence of writes sees it.
    """
    if lambda_w <= 0 or t_c <= 0 or n_intervals < 1:
        raise ValueError("lambda_w, t_c must be > 0 and n_intervals >= 1")
    rng = np.random.Generator(np.random.PCG64(seed & SEED_MASK))
    horizon = n_intervals * t_c
    n_events = rng.poisson(lambda_w * horizon)
    times = np.sort(rng.random(n_events) * horizon)
    interval = np.floor(times / t_c).astype(np.int64)
    # Pending-before count: the write's rank within its interval.
    idx, counts = np.unique(interval, return_counts=True)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    rank = np.arange(n_events) - np.repeat(starts, counts)
    sums = np.zeros(n_intervals)
    np.add.at(sums, interval, rank)
    occupied = np.zeros(n_intervals, dtype=np.int64)
    occupied[idx] = counts
    nonempty = occupied > 0
    per_interval_mean = sums[nonempty] / occupied[nonempty]
    return float(per_interval_mean.mean())


def simulate_interval_costs(
    sp: SimParams, cp: CostParams, seed: int, n_intervals: int
) -> float:
    """Mean per-interval cost with analytic term accounting.

    Each interval is priced with the closed-form handoff cost when it
    completes without failure and with the closed-form recovery cost when a
    failure fires first, so comparing the mean against the analytic total
    cost isolates the stochastic interval mixing.
    """
    from . import analytic  # local import to avoid a cycle at module load

    d = derive_quantities(sp)
    if d.k_expected < 1:
        raise ValueError("interval cost model needs k_expected >= 1")
    c01 = analytic.total_handoff_cost(d.k_expected, d.eta, cp)
    c_r = analytic.recovery_cost(d.eta, cp)
    rng = np.random.Generator(np.random.PCG64(seed & SEED_MASK))
    d_handoff = -np.log(1.0 - rng.random(n_intervals)) / sp.mu
    if sp.lambda_f <= 0:
        return c01
    t_fail = -np.log(1.0 - rng.random(n_intervals)) / sp.lambda_f
    costs = np.where(t_fail < d_handoff, c_r, c01)
    return float(costs.mean())
