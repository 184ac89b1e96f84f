"""Seeded discrete-event kernel, replications and their summaries.

Every stochastic choice in a run comes from one PCG64 stream seeded with a
64-bit integer, so identical (config, strategy, seed) triples reproduce
identical RunStats bit for bit. ``PCG64Stream`` reads that stream as raw
words, 512 at a time, and decodes them exactly as ``Generator.random`` and
``Generator.integers`` do, so a run draws the same numbers as scalar
``np.random.Generator(np.random.PCG64(seed))`` calls without numpy's
per-call cost. Strategies never touch the stream, and the
host's cell follows the same handoffs and restarts under each of them, so
the event sequence depends on the config and the seed alone.

The kernel is therefore two steps. ``generate_timeline`` runs the event
clocks once and records the non-write events (time, kind, cell), the
number of writes before each and the count of each kind (a ``Timeline``).
A new strategy object then folds that record in one loop of its own
(``LogStrategy.fold``), taking each run of writes between two other events
at once, and returns the run's ``RunStats``; no handler is called per
event. ``run_simulation`` keeps the last timeline with the ``Config``
object and the seed it was made for, so the strategies of one replication
share one timeline object: the pairing of common random numbers holds by
construction, and the clocks run once per replication, not once per
strategy. The strategy object is new for every run, but its price tables
are shared by every run of its kind with the same price inputs
(``strategies``). No price reads a rate, so the runs of a figure, over all
its reps and sweep points, price each handoff, run of writes or recovery
key once, up to the tables' cap.

Draw order, fixed for reproducibility:

  at start     next write, next handoff, next failure (in that order)
  handoff      destination cell, then the next handoff gap
  failure      restart region, restart cell, then the next failure gap
               (a foreign restart draws an index among the cells outside
               the failure region, which skips that region's contiguous block)
  write/ckpt   the next gap only (checkpoints are a deterministic timer)

Every gap is ``sample_exponential``'s draw, ``-log(1 - u) / rate``. The
three start draws call it, and its ``rate > 0`` check covers every rate the
clocks divide by; every later gap evaluates the same expression inline, so
a traced run counts 3 ``sample_exponential`` calls per timeline.

One event of each kind is pending at a time. Simultaneous events dispatch
by kind priority: checkpoint, handoff, write, failure. The trace names the
kinds "CHECKPOINT", "HANDOFF", "WRITE" and "FAILURE".

The placement peaks ``peak_fragments`` and ``bsc_peak_entries`` are post-event
maxima. Only a write raises the piece count, the non-empty fragments with the
host's cache counting as one: a checkpoint purges, a handoff adds a pointer,
moves the one fragment or flushes the cache into one, and a recovery empties
the cache. A fold therefore reads ``peak_fragments`` from the runs of
writes alone, each of whose ``WriteRun`` reports the peak inside the run.
``bsc_peak_entries`` copies the strategy's region peaks, which it settles
when the log leaves a region or is purged and once more at the end of
the fold (``settle_peaks``): O(1) placement work per event amortised,
however many fragments lazy logging leaves.

Replication i of a master seed uses stream seed
``master ^ ((0x9E3779B97F4A7C15 * (i + 1)) mod 2^64)``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, fields
from itertools import chain
from operator import itemgetter

import numpy as np

from .config import Config
from .model import SEED_MASK, SimParams, validate_params
from .strategies import CostDelta, RunStats, StrategyKind, make_strategy
from .topology import NetworkTree, UniformDraws, sample_next_cell

_SPLIT_MULTIPLIER = 0x9E3779B97F4A7C15  # fixed odd multiplier for stream splits


def split_seed(master_seed: int, index: int) -> int:
    """Stream seed for replication ``index`` of ``master_seed``."""
    return (master_seed ^ ((_SPLIT_MULTIPLIER * (index + 1)) & SEED_MASK)) & SEED_MASK


def sample_exponential(rate: float, rng: UniformDraws) -> float:
    """Inverse-transform exponential draw: -ln(u)/rate with u in (0, 1]."""
    if rate <= 0:
        raise ValueError("rate must be > 0")
    u = 1.0 - rng.random()
    return -math.log(u) / rate


_BLOCK = 512  # raw words per refill: 4 KiB


def _decoded_words(bits: np.random.PCG64) -> Iterator[zip]:
    """Blocks of raw words from ``bits``, each word as (double, word); the
    double is ``Generator.random``'s top 53 bits * 2**-53."""
    while True:
        raw = bits.random_raw(_BLOCK)
        yield zip(((raw >> 11) * 2.0**-53).tolist(), raw.tolist())


class PCG64Stream:
    """The draws ``np.random.Generator(np.random.PCG64(seed))`` makes for
    ``random()`` and ``integers(n)``, decoded from raw words read in blocks,
    without numpy's per-call cost.

    ``random()`` takes one word. ``integers(n)`` draws nothing for n == 1,
    and otherwise is Lemire's method on 32-bit draws, each the low half of
    a new word or the high half the previous one left buffered; only
    ``integers`` splits a word into its halves. ``random()`` neither reads
    nor clears the buffered half, as in numpy's PCG64.
    """

    __slots__ = ("random", "_word", "_half")

    def __init__(self, seed: int):
        words = chain.from_iterable(_decoded_words(np.random.PCG64(seed)))
        self.random = map(itemgetter(0), words).__next__
        self._word = words.__next__
        self._half: int | None = None

    def integers(self, n: int) -> int:
        """Uniform integer in [0, n), for 1 <= n <= 2**32: ``x * n >> 32``
        for the first 32-bit draw x whose ``x * n mod 2**32`` is at least
        ``2**32 mod n``."""
        if not 1 < n <= 1 << 32:
            if n == 1:
                return 0
            raise ValueError(f"integers needs 1 <= n <= 2**32, got {n}")
        threshold = (1 << 32) % n
        while True:
            if self._half is None:
                word = self._word()[1]
                x, self._half = word & 0xFFFFFFFF, word >> 32
            else:
                x, self._half = self._half, None
            m = x * n
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32


# Scalar fields eligible for replication summaries.
SUMMARY_FIELDS: tuple[str, ...] = tuple(
    f.name for f in fields(RunStats) if f.name != "bsc_peak_entries"
)


def _sample_recovery_cell(
    tree: NetworkTree, region_bsc: int, p_same_region: float, rng: UniformDraws
) -> int:
    """Restart cell: uniform within the failure-time region with probability
    p_same_region, else uniform over foreign cells, whose ascending order
    skips the region's contiguous block. Single-region networks always
    restart in-region."""
    same = rng.random() < p_same_region
    size = tree.bss_per_bsc
    start = region_bsc * size
    if same or tree.n_bscs == 1:
        return start + int(rng.integers(size))
    j = int(rng.integers(tree.n_cells - size))
    return j if j < start else j + size


@dataclass(frozen=True)
class Timeline:
    """The event sequence of one ``(config, seed)`` run, which does not
    depend on the strategy.

    ``events`` lists the non-write events in dispatch order as (time, kind,
    cell), the kind named as in the trace: a handoff's destination cell, a
    failure's restart cell, the host's cell for a checkpoint. ``writes[i]``
    counts the writes dispatched just before ``events[i]``, and its one
    extra last entry the writes after the last event; the four counts are
    the events of each kind. ``write_times``, kept only when asked for,
    holds every write's time in order.
    """

    events: list[tuple[float, str, int]]
    writes: list[int]
    intra_bsc: int
    inter_bsc: int
    checkpoints: int
    failures: int
    write_times: list[float] | None = None


def generate_timeline(cfg: Config, seed: int, keep_write_times: bool = False) -> Timeline:
    """Run the four event clocks of one run and record what they fire.

    The host is born in cell 0, where a new ``LogStrategy`` puts it,
    and moves to each handoff's destination and each failure's restart cell.
    Every cell comes from the adjacency table or a region's cells, so the
    cell -> BSC table is read without a range check.
    """
    sp, tree = cfg.sim, cfg.tree
    cell_bsc, p_same_region = tree.cell_bsc, sp.p_same_region
    horizon, t_c, lambda_w, mu, lambda_f = sp.sim_horizon, sp.t_c, sp.lambda_w, sp.mu, sp.lambda_f
    rng = PCG64Stream(seed & SEED_MASK)
    random, log, nextafter, inf = rng.random, math.log, math.nextafter, math.inf

    # The write clock of a host that never writes reads inf and never fires.
    # The start draws check every rate the gaps below divide by.
    write_at = sample_exponential(lambda_w, rng) if lambda_w > 0 else inf
    handoff_at = sample_exponential(mu, rng)
    failure_at = sample_exponential(lambda_f, rng)
    checkpoint_at = t_c
    # A write fires before a failure at the same time, and at the horizon:
    # ``w <= x`` is ``w < nextafter(x, inf)``, as no float lies between.
    # Horizon is fixed, so this bound moves only when a failure fires.
    last = nextafter(failure_at if failure_at < horizon else horizon, inf)

    events: list[tuple[float, str, int]] = []
    writes: list[int] = []
    write_times = [] if keep_write_times else None
    cell = 0
    k = intra = inter = checkpoints = failures = 0
    while True:
        # Writes fire until a checkpoint or handoff is due at or before the
        # next one, or a failure strictly before it.
        ahead = checkpoint_at if checkpoint_at <= handoff_at else handoff_at
        bound = ahead if ahead < last else last
        while write_at < bound:
            k += 1
            if write_times is not None:
                write_times.append(write_at)
            # sample_exponential's arithmetic; lambda_w > 0 once a write fires.
            write_at += -log(1.0 - random()) / lambda_w

        t = ahead if ahead <= failure_at else failure_at
        if t > horizon:
            break
        writes.append(k)
        k = 0
        if checkpoint_at == t:
            events.append((t, "CHECKPOINT", cell))
            checkpoint_at = t + t_c
            checkpoints += 1
        elif handoff_at == t:
            to_cell = sample_next_cell(tree, cell, rng)
            if cell_bsc[cell] == cell_bsc[to_cell]:
                intra += 1
            else:
                inter += 1
            cell = to_cell
            events.append((t, "HANDOFF", cell))
            handoff_at = t + -log(1.0 - random()) / mu
        else:
            cell = _sample_recovery_cell(tree, cell_bsc[cell], p_same_region, rng)
            events.append((t, "FAILURE", cell))
            failures += 1
            failure_at = t + -log(1.0 - random()) / lambda_f
            last = nextafter(failure_at if failure_at < horizon else horizon, inf)
    writes.append(k)
    return Timeline(events, writes, intra, inter, checkpoints, failures, write_times)


# The last timeline made, with the Config object and seed it was made for: a
# figure sweep runs every strategy of a (point, rep) back to back on one
# point object, so one slot is enough. The slot holds the frozen Config
# itself, so an identity match is an equal config, found without hashing
# its network.
_last: tuple[Config, int, Timeline] | None = None


def _timeline(cfg: Config, seed: int, keep_write_times: bool) -> Timeline:
    global _last
    if _last is not None and _last[0] is cfg and _last[1] == seed:
        timeline = _last[2]
        if not keep_write_times or timeline.write_times is not None:
            return timeline
    timeline = generate_timeline(cfg, seed, keep_write_times)
    _last = (cfg, seed, timeline)
    return timeline


def run_simulation(
    cfg: Config,
    kind: StrategyKind | str,
    seed: int,
    trace: list[tuple[float, str, CostDelta]] | None = None,
) -> RunStats:
    """Simulate one host for ``cfg.sim.sim_horizon`` time units.

    The timeline is the kept one when the last run had this very ``cfg``
    object and seed, and a new one otherwise. ``trace``, when given, receives
    (time, event kind, cost delta) for every processed event, one entry per
    write included; tests use it to check cost conservation.
    """
    validate_params(cfg.sim, cfg.cost)
    timeline = _timeline(cfg, seed, trace is not None)
    return make_strategy(kind, cfg.tree, cfg.sim, cfg.cost).fold(timeline, trace)


# The Student-t 0.975 quantile for df 1..100: each entry is the double that
# scipy.special.stdtrit(df, 0.975) returns, and scipy.stats.t.ppf equals it bit
# for bit. A summary of more than 101 values calls stdtrit on its own df.
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
    2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
    2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
    2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788, 1.998340542520741, 1.997729654317693,
    1.9971379083920038, 1.9965644189523117, 1.996008354025296, 1.9954689314298435,
    1.9949454151072374, 1.994437111771186, 1.9939433678456255, 1.9934635666618719,
    1.992997125889855, 1.992543495180932, 1.9921021540022417, 1.9916726096446642,
    1.9912543953883846, 1.9908470688116906, 1.9904502102301285, 1.990063421254446,
    1.9896863234569029, 1.989318557136572, 1.9889597801751624, 1.9886096669757083,
    1.9882679074772216, 1.98793420623902, 1.9876082815890708, 1.9872898648311692,
    1.986978699506281, 1.9866745407037683, 1.9863771544186177, 1.98608631695113,
    1.9858018143458227, 1.985523441866604, 1.9852510035054978, 1.984984311522457,
    1.9847231860139845, 1.9844674545084815, 1.9842169515864174, 1.9839715185235518,
)


def summarize(values: list[float]) -> tuple[float, float, float]:
    """Mean with a 95% Student-t confidence interval; width 0 for one value, and
    ``(nan, nan, nan)`` with no warning for an empty sample. Values too large
    to sum or square give an inf or nan bound, also with no warning."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return math.nan, math.nan, math.nan
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(arr.mean())
        if arr.size < 2:
            return mean, mean, mean
        sem = float(arr.std(ddof=1) / math.sqrt(arr.size))
    if sem == 0.0:
        return mean, mean, mean
    df = arr.size - 1
    if df <= len(_T975):
        quantile = _T975[df - 1]
    else:
        from scipy.special import stdtrit  # deferred: importing it is most of start-up

        quantile = float(stdtrit(df, 0.975))
    half = sem * quantile
    return mean, mean - half, mean + half


def replicate(
    cfg: Config, kind: StrategyKind | str, master_seed: int, reps: int
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


def failure_first(sp: SimParams, seed: int, n_intervals: int) -> np.ndarray:
    """For each of ``n_intervals`` handoff intervals, whether a failure fires
    before the handoff that ends it.

    One PCG64 stream of ``seed`` draws every interval's handoff clock, then
    every interval's failure clock. With no failures no interval is marked.
    """
    if n_intervals < 1:
        raise ValueError("n_intervals must be >= 1")
    if sp.lambda_f <= 0:
        return np.zeros(n_intervals, dtype=bool)
    rng = np.random.Generator(np.random.PCG64(seed & SEED_MASK))
    d_handoff = -np.log(1.0 - rng.random(n_intervals)) / sp.mu
    t_fail = -np.log(1.0 - rng.random(n_intervals)) / sp.lambda_f
    return t_fail < d_handoff

