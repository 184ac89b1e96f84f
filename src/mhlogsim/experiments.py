"""Figure experiments: parameter sweeps, CSV emission, and trend checks.

Each experiment sweeps one parameter and reports one metric per strategy:

  fig3  mean handoff cost per handoff        vs handoff rate mu
  fig4  mean recovery cost per failure       vs handoff rate mu
  fig5  total cost per handoff interval      vs handoff rate mu
  fig6  recovery probability                 vs write arrival rate lambda_w
  fig7  recovery probability                 vs checkpoint interval T_c
  fig8  recoverability-per-cost ratio (FRCR) vs checkpoint interval T_c

A figure is one ``FIGURES`` entry: its sweep, its fixed overrides, its
strategies, one extractor per reported metric and its trend check. The
overrides put each comparison in a regime where its trend is measurable at
desk scale; they are part of the experiment definition, echoed into the CSV
provenance header, and listed in the README. Replication i of the master
seed uses the engine's documented stream split, and the same streams drive
every strategy at a sweep point, so comparisons are paired.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import Callable

import numpy as np

from . import analytic, engine
from .config import Config
from .engine import RunStats, failure_first, split_seed, summarize
from .model import ValidationError
from .strategies import StrategyKind

ALL_STRATEGIES = (StrategyKind.LAZY, StrategyKind.PESSIMISTIC, StrategyKind.PROPOSED)

MU_SWEEP = (0.005, 0.01, 0.02, 0.05, 0.1)
LAMBDA_W_SWEEP = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
T_C_SWEEP = (50.0, 200.0, 500.0, 1000.0, 2000.0, 4000.0)


@dataclass(frozen=True)
class ExperimentSpec:
    figure_id: str
    swept_param: str
    sweep_values: tuple[float, ...]
    strategies: tuple[StrategyKind, ...]
    reps: int
    master_seed: int
    overrides: dict[str, object]

    def __post_init__(self):
        if not self.sweep_values:
            raise ValueError("sweep_values must be non-empty")
        if any(b <= a for a, b in zip(self.sweep_values, self.sweep_values[1:])):
            raise ValueError("sweep_values must be strictly increasing")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")


@dataclass(frozen=True)
class MetricRow:
    figure_id: str
    strategy: str
    param_name: str
    param_value: float
    metric_name: str
    mean: float
    ci95_low: float
    ci95_high: float
    reps: int
    seed: int


# -- trend checks -------------------------------------------------------
#
# Each returns the violations of one figure's documented qualitative
# behavior. Statistical comparisons use the rows' own confidence intervals,
# so a flat curve measured with noise is not flagged against an exactly
# flat reference.


def _series(rows: list[MetricRow], strategy: str, metric: str) -> list[MetricRow]:
    out = [r for r in rows if r.strategy == strategy and r.metric_name == metric]
    return sorted(out, key=lambda r: r.param_value)


def _three(rows: list[MetricRow], metric: str) -> list[list[MetricRow]]:
    """The lazy, pessimistic and proposed series of one metric."""
    return [_series(rows, s.value, metric) for s in ALL_STRATEGIES]


def _fitted_slope(series: list[MetricRow]) -> tuple[float, float]:
    """Least-squares slope of mean vs swept value, with a half-CI estimate
    propagated from the per-point CIs."""
    x = np.array([r.param_value for r in series])
    y = np.array([r.mean for r in series])
    x_c = x - x.mean()
    denom = float((x_c**2).sum())
    slope = float((x_c * y).sum() / denom)
    half_ci = np.array([(r.ci95_high - r.ci95_low) / 2 for r in series])
    slope_ci = float(np.sqrt(((x_c * half_ci) ** 2).sum()) / denom)
    return slope, slope_ci


def _check_fig3(rows: list[MetricRow]) -> list[str]:
    violations: list[str] = []
    lazy, pess, prop = _three(rows, "handoff_cost_per_handoff")
    # Lazy is flat: every mean inside every other point's CI envelope.
    lo = max(r.ci95_low for r in lazy)
    hi = min(r.ci95_high for r in lazy)
    if lo > hi + 1e-12:
        violations.append("fig3: lazy per-handoff cost is not flat (CIs disjoint)")
    for lz, pe, pr in zip(lazy, pess, prop):
        if not (pe.mean >= pr.mean >= lz.mean):
            violations.append(
                f"fig3: ordering pessimistic >= proposed >= lazy broken at "
                f"mu={lz.param_value:g}"
            )
    s_pess, ci_pess = _fitted_slope(pess)
    s_prop, ci_prop = _fitted_slope(prop)
    s_lazy, ci_lazy = _fitted_slope(lazy)
    # Largest slope, allowing statistical ties: pessimistic must not sit
    # measurably below either other slope. The simulator's own expectation
    # of pessimistic's handoff cost
    # (``analytic.expected_pessimistic_handoff_cost``) has no mu in it, so
    # this clause can only pass as a statistical tie.
    tol = ci_pess + ci_lazy
    if s_pess < s_lazy - tol:
        violations.append("fig3: pessimistic slope measurably below lazy slope")
    if s_pess < s_prop - (ci_pess + ci_prop):
        violations.append("fig3: pessimistic slope measurably below proposed slope")
    return violations


def _check_fig4(rows: list[MetricRow]) -> list[str]:
    violations: list[str] = []
    lazy, pess, prop = _three(rows, "recovery_cost_per_failure")
    for a, b in zip(lazy, lazy[1:]):
        if not b.mean > a.mean:
            violations.append(
                f"fig4: lazy recovery cost not strictly increasing at "
                f"mu={b.param_value:g}"
            )
    for lz, pe, pr in zip(lazy, pess, prop):
        if pe.mean > pr.mean or pe.mean > lz.mean:
            violations.append(
                f"fig4: pessimistic not lowest at mu={lz.param_value:g} "
                f"(pess={pe.mean:.3g} prop={pr.mean:.3g} lazy={lz.mean:.3g})"
            )
    pess_home = _series(rows, "pessimistic", "recovery_cost_per_failure_home")
    prop_home = _series(rows, "proposed", "recovery_cost_per_failure_home")
    for pe, pr in zip(pess_home, prop_home):
        if abs(pr.mean - pe.mean) > 0.25 * pe.mean:
            violations.append(
                f"fig4: proposed not within 25% of pessimistic for home-region "
                f"recoveries at mu={pe.param_value:g} "
                f"(pess={pe.mean:.3g} prop={pr.mean:.3g})"
            )
    return violations


def _check_fig5(rows: list[MetricRow]) -> list[str]:
    violations: list[str] = []
    lazy, pess, prop = _three(rows, "total_cost_per_handoff_interval")
    for lz, pe, pr in zip(lazy, pess, prop):
        if pr.mean > pe.mean or pr.mean > lz.mean:
            violations.append(
                f"fig5: proposed not the minimum at mu={lz.param_value:g} "
                f"(prop={pr.mean:.3g} pess={pe.mean:.3g} lazy={lz.mean:.3g})"
            )
    return violations


def _spearman(x: list[float], y: list[float]) -> float:
    """Spearman's rho as scipy.stats.spearmanr gives it: the Pearson correlation
    of the ranks, ties given their mean rank; NaN for a constant series or one
    holding a NaN."""
    ranks = []
    for a in (np.asarray(x, dtype=float), np.asarray(y, dtype=float)):
        rank = (a[:, None] > a).sum(1) + ((a[:, None] == a).sum(1) + 1) / 2
        ranks.append(np.where(np.isnan(a), np.nan, rank))
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.corrcoef(ranks)[0, 1])


def _check_fig6(rows: list[MetricRow]) -> list[str]:
    violations: list[str] = []
    series = _three(rows, "recovery_probability")
    for strategy, ser in zip(ALL_STRATEGIES, series):
        rho = _spearman([r.param_value for r in ser], [r.mean for r in ser])
        # A rho of exactly -0.9 computes as -0.8999999999999998.
        if not rho <= -0.9 + 1e-12:
            violations.append(
                f"fig6: {strategy.value} recovery probability not monotone decreasing "
                f"(spearman {rho:.3f})"
            )
    for lz, pe, pr in zip(*series):
        if pr.mean + 1e-12 < pe.mean or pr.mean + 1e-12 < lz.mean:
            violations.append(
                f"fig6: proposed not >= baselines at lambda_w={lz.param_value:g}"
            )
    return violations


def _check_fig8(rows: list[MetricRow]) -> list[str]:
    violations: list[str] = []
    ser = _series(rows, "proposed-vs-lazy", "frcr")
    means = [r.mean for r in ser]
    half = [(r.ci95_high - r.ci95_low) / 2 for r in ser]
    peak = int(np.argmax(means))
    if peak in (0, len(means) - 1):
        violations.append(
            f"fig8: FRCR maximum at endpoint index {peak}, not interior"
        )
    else:
        if means[0] >= means[peak] - half[peak] - half[0]:
            violations.append("fig8: FRCR does not rise measurably to its peak")
        if means[-1] >= means[peak] - half[peak] - half[-1]:
            violations.append("fig8: FRCR does not decline measurably after its peak")
    # Smallest interval: |FRCR| indistinguishable from the low-range floor.
    low = means[: max(2, len(means) // 2)]
    low_floor = min(abs(m) for m in low)
    if abs(means[0]) > low_floor + 2 * half[0] + 1e-12:
        violations.append(
            "fig8: |FRCR| at the smallest interval exceeds the low-range floor"
        )
    return violations


# -- the figure table ---------------------------------------------------


@dataclass(frozen=True)
class Figure:
    """One figure experiment. Each metric extractor maps one run to its
    value, or to None when the run has nothing to report for that metric."""

    swept_param: str
    sweep_values: tuple[float, ...]
    metrics: dict[str, Callable[[RunStats], float | None]]
    check: Callable[[list[MetricRow]], list[str]]
    overrides: dict[str, object] = field(default_factory=dict)
    strategies: tuple[StrategyKind, ...] = ALL_STRATEGIES


RECOVERY_PROBABILITY = {"recovery_probability": attrgetter("recovery_probability")}

FIGURES: dict[str, Figure] = {
    "fig3": Figure(
        "sim.mu", MU_SWEEP,
        {"handoff_cost_per_handoff": lambda r: r.total_handoff_cost / max(1, r.handoff_count)},
        _check_fig3,
    ),
    # Recovery-cost comparison: a long horizon and a high failure rate
    # tighten the per-failure means, a longer checkpoint interval lets
    # fragments actually spread between purges, and a small cache makes
    # the comparison about placement rather than unflushed volume.
    "fig4": Figure(
        "sim.mu", MU_SWEEP,
        {
            "recovery_cost_per_failure": lambda r: r.total_recovery_cost / max(1, r.failure_count),
            "recovery_cost_per_failure_home": lambda r: (
                r.recovery_cost_home_total / r.home_recovery_count
                if r.home_recovery_count > 0 else None
            ),
        },
        _check_fig4,
        overrides={
            "sim.lambda_f": 0.02,
            "sim.cache_capacity": 4,
            "sim.horizon": 50000.0,
            "sim.T_c": 200.0,
        },
    ),
    # Total-cost comparison runs in a failure-weighted regime: recovery
    # has to carry real weight per interval for the placement strategies
    # to differentiate on total cost.
    "fig5": Figure(
        "sim.mu", MU_SWEEP,
        {"total_cost_per_handoff_interval": attrgetter("mean_cost_per_handoff_interval")},
        _check_fig5,
        overrides={"sim.lambda_f": 0.05},
    ),
    "fig6": Figure(
        "sim.lambda_w", LAMBDA_W_SWEEP, RECOVERY_PROBABILITY, _check_fig6,
        overrides={"sim.T_c": 400.0, "sim.lambda_f": 0.005},
    ),
    # Descriptive experiment, no asserted trend.
    "fig7": Figure(
        "sim.T_c", T_C_SWEEP, RECOVERY_PROBABILITY, lambda rows: [],
        overrides={"sim.lambda_w": 0.1, "sim.horizon": 50000.0},
    ),
    # The literal log-transfer bound makes the investment-cost
    # difference change sign inside this sweep, which turns the ratio
    # into noise around a pole; the alternate bound keeps one sign past
    # the smallest interval and yields the documented shape. run_figure
    # adds the FRCR row from the paired recovery probabilities.
    "fig8": Figure(
        "sim.T_c", T_C_SWEEP, RECOVERY_PROBABILITY, _check_fig8,
        overrides={
            "sim.lambda_w": 0.1,
            "sim.horizon": 50000.0,
            "frcr.erratum_bound": True,
        },
        strategies=(StrategyKind.PROPOSED, StrategyKind.LAZY),
    ),
}
FIGURE_IDS = tuple(FIGURES)


def _figure(figure_id: str) -> Figure:
    if figure_id not in FIGURES:
        raise ValueError(f"unknown figure id: {figure_id!r}")
    return FIGURES[figure_id]


def figure_spec(
    figure_id: str,
    config: Config,
    reps: int | None = None,
    master_seed: int | None = None,
) -> ExperimentSpec:
    """The canonical experiment definition for one figure id."""
    fig = _figure(figure_id)
    return ExperimentSpec(
        figure_id, fig.swept_param, fig.sweep_values, fig.strategies,
        reps=config.sim.replications if reps is None else reps,
        master_seed=config.sim.seed if master_seed is None else master_seed,
        overrides=dict(fig.overrides),
    )


def check_trends(figure_id: str, rows: list[MetricRow]) -> list[str]:
    """Violations of the documented qualitative behavior of one figure."""
    return _figure(figure_id).check(rows)


def run_figure(spec: ExperimentSpec, config: Config) -> list[MetricRow]:
    """Execute one sweep and return CSV-ready rows in sweep order.

    Every strategy runs on a replication's stream before the next
    replication starts, so they all fold the one timeline the engine keeps.
    """
    return _run_points(spec, _points(spec, config)[1])


def _run_points(spec: ExperimentSpec, points: list[tuple[float, Config]]) -> list[MetricRow]:
    """The rows of every sweep point. A sample with no values, such as
    fig8's FRCR when the investment costs tie, reports nan; every other row
    must be finite (``check_finite``)."""
    metrics = _figure(spec.figure_id).metrics
    rows: list[MetricRow] = []
    summaries = []
    for value, point in points:
        runs: dict[StrategyKind, list[RunStats]] = {s: [] for s in spec.strategies}
        for i in range(spec.reps):
            seed = split_seed(spec.master_seed, i)
            for strategy in spec.strategies:
                runs[strategy].append(engine.run_simulation(point, strategy, seed))
        samples = [(strategy.value, metric, [v for v in map(extract, runs[strategy]) if v is not None])
                   for strategy in spec.strategies for metric, extract in metrics.items()]
        if spec.figure_id == "fig8":
            samples.append(("proposed-vs-lazy", "frcr", _frcr_sample(point, runs)))
        for strategy, metric, values in samples:
            stats = summarize(values)
            rows.append(MetricRow(spec.figure_id, strategy, spec.swept_param, float(value), metric,
                                  *stats, spec.reps, spec.master_seed))
            if values:
                label = f"{spec.figure_id} {strategy} {metric} at {spec.swept_param}={_fmt(value)}"
                summaries.append((label, metric, stats))
    check_finite(summaries)
    return rows


def _points(spec: ExperimentSpec, config: Config) -> tuple[Config, list[tuple[float, Config]]]:
    """The sweep's base config, ``config`` under the experiment's overrides,
    and each sweep value with the config it runs at."""
    base = config.with_overrides(spec.overrides)
    return base, [(v, base.with_overrides({spec.swept_param: v})) for v in spec.sweep_values]


def _frcr_sample(point: Config, runs: dict[StrategyKind, list[RunStats]]) -> list[float]:
    """FRCR at one sweep point, one value per pair of replications."""
    cost_prop = analytic.c_prop(point.sim.t_c, point.sim.lambda_f, point.sim.mu, point.cost)
    cost_lazy = analytic.c_lazy(point.sim.t_c, point.sim.lambda_f, point.cost)
    paired = [
        analytic.frcr(pp.recovery_probability, pl.recovery_probability, cost_prop, cost_lazy)
        for pp, pl in zip(runs[StrategyKind.PROPOSED], runs[StrategyKind.LAZY])
    ]
    # Equal investment costs leave the ratio undefined: an empty sample,
    # which summarizes to NaN.
    return [v for v in paired if v is not None]


# Each summary statistic or figure metric a price can overflow -> the keys that price it.
_COSTS = "cost.C_c, cost.C_1, cost.C_m, cost.alpha, cost.rho"
_LOAD = "cost.r, cost.T_load_ckpt, cost.T_load_log"
PRICED_BY = {
    "total_handoff_cost": _COSTS,
    "total_recovery_cost": _COSTS,
    "total_logging_cost": "cost.C_1, cost.C_m, cost.alpha, cost.rho",
    "total_checkpoint_cost": "cost.C_c, cost.alpha, cost.rho",
    "mean_cost_per_handoff_interval": _COSTS,
    "mean_retrieval_time": _LOAD,
    "recovery_cost_home_total": _COSTS,
    **dict.fromkeys(("handoff_cost_per_handoff", "recovery_cost_per_failure",
                     "recovery_cost_per_failure_home", "total_cost_per_handoff_interval"), _COSTS),
    # The investment costs read rates and the erratum bound too; a figure
    # measures the recovery probabilities that the closed form takes as flags.
    "frcr": ", ".join(k for k in analytic.READS["frcr"].split(", ") if not k.startswith("--")),
}


def check_finite(summaries: list[tuple[str, str, tuple[float, float, float]]]) -> None:
    """Raise a ``ValidationError`` naming each ``(label, metric, (mean,
    low, high))`` whose mean or interval is not finite, and the config keys
    that price its metric."""
    bad = [f"{label} mean {mean:.6g} ci95 [{lo:.6g}, {hi:.6g}] is not finite: "
           f"it is priced by {PRICED_BY[metric]}"
           for label, metric, (mean, lo, hi) in summaries if not all(map(math.isfinite, (mean, lo, hi)))]
    if bad:
        raise ValidationError(bad)


CSV_HEADER = "figure,strategy,param,value,metric,mean,ci_low,ci_high,reps,seed"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# Each column is the MetricRow field in its place, written by the field's
# declared type: a float field goes through _fmt whatever number it holds,
# any other field through str.
_COLUMNS = tuple((f.name, _fmt if f.type == "float" else str) for f in fields(MetricRow))


def emit_csv(
    rows: list[MetricRow],
    out_path: str | Path,
    provenance: tuple[str, ...] = (),
) -> Path:
    """Write rows as UTF-8 CSV with LF line endings and 6 significant digits.

    ``provenance`` lines, when given, are emitted first as '#' comments;
    they must be deterministic so identical invocations stay byte-identical.
    """
    if not rows:
        raise ValueError("rows must be non-empty")
    out_path = Path(out_path)
    lines = [f"# {line}" for line in provenance]
    lines.append(CSV_HEADER)
    for r in rows:
        lines.append(",".join(write(getattr(r, name)) for name, write in _COLUMNS))
    try:
        out_path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write {out_path}: {exc}") from exc
    return out_path


def provenance_lines(spec: ExperimentSpec, config: Config) -> tuple[str, ...]:
    """Deterministic provenance: effective base config, the experiment's
    overrides, and the recovery deadline at every sweep point."""
    return _provenance(spec, *_points(spec, config))


def _provenance(spec: ExperimentSpec, base: Config,
                points: list[tuple[float, Config]]) -> tuple[str, ...]:
    return (
        f"experiment {spec.figure_id}: sweep {spec.swept_param} over "
        + " ".join(_fmt(v) for v in spec.sweep_values),
        "strategies: " + " ".join(s.value for s in spec.strategies),
        f"reps {spec.reps} master_seed {spec.master_seed}",
        "config: " + " ".join(f"{k}={v}" for k, v in base.raw),
        "recovery.deadline per sweep point: "
        + " ".join(f"{_fmt(value)}:{_fmt(point.sim.recovery_deadline)}" for value, point in points),
    )


def write_figure(
    figure_id: str,
    config: Config,
    out_dir: str | Path,
    reps: int | None = None,
    master_seed: int | None = None,
) -> tuple[Path, list[MetricRow], list[str], dict[str, list[str]]]:
    """Run one figure, write ``<out_dir>/<figure_id>.csv`` with its
    provenance header, and check its trends. Each distinct model-regime
    warning goes to stderr once, with the sweep points it holds at.

    Returns the CSV path, the rows, the trend violations and the warnings,
    each mapped to the sweep points it holds at.
    """
    spec = figure_spec(figure_id, config, reps=reps, master_seed=master_seed)
    base, points = _points(spec, config)
    warned: dict[str, list[str]] = {}
    for value, point in points:
        for warning in point.warnings:
            warned.setdefault(warning, []).append(_fmt(value))
    for warning, at in warned.items():
        print(f"warning: {figure_id} at {spec.swept_param}={','.join(at)}: {warning}", file=sys.stderr)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = _run_points(spec, points)
    path = emit_csv(rows, out_dir / f"{figure_id}.csv", provenance=_provenance(spec, base, points))
    return path, rows, check_trends(figure_id, rows), warned


# -- analytic vs simulation crosscheck -----------------------------------


@dataclass(frozen=True)
class CrosscheckRow:
    name: str
    analytic: float
    empirical: float
    rel_err: float
    flagged: bool


@dataclass(frozen=True)
class CrosscheckReport:
    rows: tuple[CrosscheckRow, ...]
    n_intervals: int
    seed: int
    threshold: float

    @property
    def flagged(self) -> bool:
        return any(r.flagged for r in self.rows)

    def as_text(self) -> str:
        lines = [f"{'metric':<12} {'analytic':>12} {'empirical':>12} {'rel_err':>10}  flag"]
        for r in self.rows:
            mark = "FLAG" if r.flagged else "ok"
            lines.append(
                f"{r.name:<12} {r.analytic:>12.6g} {r.empirical:>12.6g} "
                f"{r.rel_err:>10.3%}  {mark}"
            )
        lines.append(f"({self.n_intervals} intervals, seed {self.seed}, "
                     f"threshold {self.threshold:.0%})")
        return "\n".join(lines)


def crosscheck_analytic(
    config: Config,
    n_intervals: int = 100_000,
    seed: int | None = None,
    threshold: float = 0.05,
) -> CrosscheckReport:
    """Compare closed-form interval probabilities and total cost against one
    draw of ``n_intervals`` competing interval clocks, flagging relative
    errors above the threshold. A drawn interval is priced at the closed-form
    handoff cost when it completes and at the closed-form recovery cost when
    a failure fires first, so the cost row isolates the interval mixing."""
    seed = config.sim.seed if seed is None else seed
    report = analytic.build_report(config.sim, config.cost)
    failed = failure_first(config.sim, seed, n_intervals)
    p02_e = float(np.mean(failed))
    c_t_e = float(np.where(failed, report.c_r, report.c01).mean())

    def rel(a: float, e: float) -> float:
        if a == 0:
            return abs(e)
        return abs(e - a) / abs(a)

    rows = []
    for name, a, e in (
        ("p01", report.p01, 1.0 - p02_e),
        ("p02", report.p02, p02_e),
        ("c_t", report.c_t, c_t_e),
    ):
        err = rel(a, e)
        rows.append(CrosscheckRow(name, a, e, err, err > threshold))
    return CrosscheckReport(tuple(rows), n_intervals, seed, threshold)
