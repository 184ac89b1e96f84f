"""Closed-form evaluator for the cost model.

Every formula is implemented literally as printed in its source model, even
where that looks odd (the lazy investment cost reduces to c_p for all
checkpoint intervals, and the handoff cost mixes the alpha and rho
coefficients on the per-hop terms). Where the model text offers two
readings of the log-transfer bound, both are implemented and selected by a
flag; neither is silently repaired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import Config
from .model import CostParams, SimParams, ValidationError, derive_quantities
from .topology import _bsc_gap


def markov_probs(lambda_f: float, mu: float) -> tuple[float, float]:
    """(p01, p02): chance a handoff interval completes without / with failure."""
    if lambda_f < 0 or mu < 0 or lambda_f + mu == 0:
        raise ValueError("need lambda_f >= 0, mu >= 0, and lambda_f + mu > 0")
    p02 = lambda_f / (lambda_f + mu)
    return 1.0 - p02, p02


def avg_handoff_cost(eta: float, cp: CostParams) -> float:
    """Average handoff cost: eta*C_1 + C_c + C_m."""
    if eta < 0:
        raise ValueError("eta must be >= 0")
    return eta * cp.c_1 + cp.c_c + cp.c_m


def total_handoff_cost(k: float, eta: float, cp: CostParams) -> float:
    """Total handoff cost with the checkpoint amortized over k writes.

    r*alpha*C_c/k + rho*alpha*C_1 + rho*alpha*C_m + eta*C_1 + C_c + C_m,
    evaluated term by term as printed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if eta < 0:
        raise ValueError("eta must be >= 0")
    return (
        cp.r * cp.alpha * cp.c_c / k
        + cp.rho * cp.alpha * cp.c_1
        + cp.rho * cp.alpha * cp.c_m
        + eta * cp.c_1
        + cp.c_c
        + cp.c_m
    )


def recovery_cost(eta: float, cp: CostParams) -> float:
    """Recovery cost: r * (eta*C_1 + C_c + C_m)."""
    if eta < 0:
        raise ValueError("eta must be >= 0")
    return cp.r * (eta * cp.c_1 + cp.c_c + cp.c_m)


def total_cost(p01: float, p02: float, c01: float, c_r: float) -> float:
    """Expected per-interval cost: p01*c01 + p02*c_r."""
    if abs(p01 + p02 - 1.0) > 1e-12:
        raise ValueError("p01 + p02 must equal 1")
    return p01 * c01 + p02 * c_r


def log_transfer_ops(
    t_c: float, lambda_f: float, mu: float, erratum_bound: bool = False
) -> float:
    """Expected log-entry transfer operations between two checkpoints.

    Literal bound: N = floor(t_c * lambda_f), summing (mu/lambda_f) * n for
    n = 1..N, which collapses to (mu/lambda_f) * N(N+1)/2. The alternate
    ``erratum_bound`` uses N = floor(t_c * mu), matching the prose that the
    moves between checkpoints number t_c * mu.
    """
    if t_c <= 0 or lambda_f <= 0 or mu <= 0:
        raise ValueError("t_c, lambda_f, mu must be > 0")
    n = math.floor(t_c * (mu if erratum_bound else lambda_f))
    if n <= 0:
        return 0.0
    return (mu / lambda_f) * n * (n + 1) / 2.0


def c_prop(t_c: float, lambda_f: float, mu: float, cp: CostParams) -> float:
    """Investment cost of the consolidating strategy per failure interval,
    counting log transfers by ``cp.erratum_bound``'s reading."""
    ops = log_transfer_ops(t_c, lambda_f, mu, erratum_bound=cp.erratum_bound)
    return (1.0 / (lambda_f * t_c)) * (
        cp.r * cp.t_load_ckpt * t_c * lambda_f + cp.r * cp.t_load_log * ops
    )


def c_lazy(t_c: float, lambda_f: float, cp: CostParams) -> float:
    """Investment cost of the lazy strategy, evaluated literally.

    Algebraically this is c_p for every t_c and lambda_f; the literal form
    is kept so the reduction stays visible and testable.
    """
    if t_c <= 0 or lambda_f <= 0:
        raise ValueError("t_c and lambda_f must be > 0")
    return (1.0 / lambda_f) / t_c * (t_c * lambda_f * cp.c_p)


def frcr(p_prop: float, p_lazy: float, cost_prop: float, cost_lazy: float) -> float | None:
    """Recoverability gain per unit of extra cost invested.

    Returns None when the cost difference is zero: the ratio is undefined,
    not infinite.
    """
    denom = cost_prop - cost_lazy
    if denom == 0:
        return None
    return (p_prop - p_lazy) / denom


# -- the simulator's own expectations --------------------------------------
#
# Unlike the paper's forms above, these follow from the simulator's pricing
# rules (README, "Cost accounting") and stationarity. They check the
# simulator against itself, so they are kept apart from the paper's model.
# Only tests read them, as oracles that expectations for more metrics extend.


def expected_lazy_handoff_cost(cfg: Config) -> float:
    """The simulator's expected cost of one lazy handoff.

    A handoff stores one pointer at the new BS, a single control message,
    and moves no log data: exactly ``c_m`` on every handoff, whatever the
    log holds, the hop count or ``mu``.
    """
    return cfg.cost.c_m


def expected_pessimistic_handoff_cost(cfg: Config) -> float:
    """The simulator's expected cost of one pessimistic handoff.

    A handoff sends one control message and carries the log plus the
    checkpoint ``2 + gap`` wired hops, BS to BS through the two BSCs:
    ``c_m + (n * c_1 + c_c) * rho * E[hops]``. Checkpoints purge the log on
    a deterministic timer, so a handoff finds on average ``lambda_w * T_c /
    2`` entries in it. The host picks each next cell uniformly among its
    neighbours, so in the long run it crosses every directed adjacency edge
    equally often, and ``E[hops]`` is 2 plus the mean BSC gap over those
    edges. No term depends on ``mu``.
    """
    tree, sp, cp = cfg.tree, cfg.sim, cfg.cost
    gaps = [
        _bsc_gap(tree, tree.cell_bsc[a], tree.cell_bsc[b])
        for a, neighbours in enumerate(tree.adjacency)
        for b in neighbours
    ]
    hops = 2 + sum(gaps) / len(gaps)
    return cp.c_m + (sp.lambda_w * sp.t_c / 2 * cp.c_1 + cp.c_c) * cp.rho * hops


@dataclass(frozen=True)
class AnalyticReport:
    """All closed-form quantities for one parameter set."""

    p01: float
    p02: float
    c_handoff_avg: float
    c01: float
    c_r: float
    c_t: float
    n_ops: float
    c_prop: float
    c_lazy: float
    frcr: float | None  # None when measured probabilities were not supplied
    k_expected: float
    eta: float

    def as_text(self) -> str:
        rows = [
            ("p01 (interval completes)", f"{self.p01:.6g}"),
            ("p02 (failure in interval)", f"{self.p02:.6g}"),
            ("k expected writes/interval", f"{self.k_expected:.6g}"),
            ("eta average log size", f"{self.eta:.6g}"),
            ("avg handoff cost", f"{self.c_handoff_avg:.6g}"),
            ("total handoff cost", f"{self.c01:.6g}"),
            ("recovery cost", f"{self.c_r:.6g}"),
            ("total cost per interval", f"{self.c_t:.6g}"),
            ("log transfer ops", f"{self.n_ops:.6g}"),
            ("investment cost (proposed)", f"{self.c_prop:.6g}"),
            ("investment cost (lazy)", f"{self.c_lazy:.6g}"),
            ("frcr", "undefined" if self.frcr is None else f"{self.frcr:.6g}"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)

    CSV_HEADER = (
        "p01,p02,k_expected,eta,c_handoff_avg,c01,c_r,c_t,n_ops,c_prop,c_lazy,frcr"
    )

    def as_csv_row(self) -> str:
        values = (getattr(self, name) for name in self.CSV_HEADER.split(","))
        return ",".join("undefined" if v is None else f"{v:.6g}" for v in values)


def build_report(
    sp: SimParams,
    cp: CostParams,
    p_prop: float | None = None,
    p_lazy: float | None = None,
) -> AnalyticReport:
    """Evaluate the whole closed-form stack for one parameter set.

    eta and k come from derive_quantities so every consumer shares the same
    source. FRCR needs measured recovery probabilities; without them the
    ratio is reported as undefined. A quantity that overflows is an error.
    """
    d = derive_quantities(sp)
    if d.k_expected < 1:
        raise ValidationError([
            "k_expected = sim.lambda_w * sim.T_c must be >= 1 for the closed-form handoff "
            f"cost, got {sp.lambda_w:g} * {sp.t_c:g} = {d.k_expected:g}"
        ])
    p01, p02 = markov_probs(sp.lambda_f, sp.mu)
    c01 = total_handoff_cost(d.k_expected, d.eta, cp)
    c_r = recovery_cost(d.eta, cp)
    ops = log_transfer_ops(sp.t_c, sp.lambda_f, sp.mu, erratum_bound=cp.erratum_bound)
    cost_prop = c_prop(sp.t_c, sp.lambda_f, sp.mu, cp)
    cost_lazy = c_lazy(sp.t_c, sp.lambda_f, cp)
    ratio = None
    if p_prop is not None and p_lazy is not None:
        ratio = frcr(p_prop, p_lazy, cost_prop, cost_lazy)
    report = AnalyticReport(
        p01=p01,
        p02=p02,
        c_handoff_avg=avg_handoff_cost(d.eta, cp),
        c01=c01,
        c_r=c_r,
        c_t=total_cost(p01, p02, c01, c_r),
        n_ops=ops,
        c_prop=cost_prop,
        c_lazy=cost_lazy,
        frcr=ratio,
        k_expected=d.k_expected,
        eta=d.eta,
    )
    # Each quantity, with the config keys and flags its formula reads.
    k, p = "sim.lambda_w, sim.T_c", "sim.lambda_f, sim.mu"
    avg, ops = f"{k}, cost.C_1, cost.C_c, cost.C_m", f"sim.T_c, {p}, frcr.erratum_bound"
    c01 = f"{avg}, cost.r, cost.alpha, cost.rho"
    invest = f"{ops}, cost.r, cost.T_load_ckpt, cost.T_load_log"
    reads = dict(p01=p, p02=p, k_expected=k, eta=k, c_handoff_avg=avg, c01=c01,
                 c_r=f"{avg}, cost.r", c_t=f"{c01}, {p}", n_ops=ops, c_prop=invest,
                 c_lazy="sim.lambda_f, sim.T_c, cost.C_p",
                 frcr=f"{invest}, cost.C_p, --p-prop, --p-lazy")
    bad = [f"{name} = {v} is not finite: it reads {keys}" for name, keys in reads.items()
           if (v := getattr(report, name)) is not None and not math.isfinite(v)]
    if bad:
        raise ValidationError(bad)
    return report
