"""Model parameters and shared domain value objects.

All rates are per abstract time unit and all costs are in abstract cost
units; there is no wall-clock binding. A validated configuration bundle is
immutable and can be shared freely between simulation runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


# Cap on a run's expected event count, horizon * (lambda_w + mu + lambda_f
# + 1/T_c). The kernel keeps every non-write event of a run in memory, about
# 0.1 KiB each, so a run may not expect more than this many events. The
# largest figure run, fig4 at mu=0.1, expects about 31 thousand.
MAX_EXPECTED_EVENTS = 1_000_000

# Stream seeds are 64-bit; the kernel masks any other int to this range.
SEED_MASK = 0xFFFFFFFFFFFFFFFF


class ValidationError(ValueError):
    """Raised when a parameter bundle violates a model invariant.

    Carries one message per violated invariant so callers can report all
    problems at once instead of fixing them one by one.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class SimParams:
    """Stochastic rates and run controls for one simulation."""

    lambda_f: float = 0.001  # failure rate (failures per time unit)
    lambda_w: float = 0.5  # write-event (log) arrival rate
    mu: float = 0.01  # handoff rate
    t_c: float = 100.0  # checkpoint interval
    cache_capacity: int = 16  # max write events buffered on the host
    recovery_deadline: float = 42.0  # retrieval time budget for a recovery
    sim_horizon: float = 20000.0  # simulated time per run
    seed: int = 12345  # 64-bit master seed
    replications: int = 20

    # The default recovery_deadline equals default_recovery_deadline() for
    # the default rates; the harness recomputes it when rates change unless
    # the config pins an explicit value.


@dataclass(frozen=True)
class CostParams:
    """Unit transfer costs and link coefficients.

    ``r`` is the ratio of wired-hop transfer time to wireless-hop transfer
    time, so moving one item across d wired hops takes ``d * r`` of the time
    the final wireless hop takes.
    """

    r: float = 0.1
    c_c: float = 5.0  # checkpoint transfer cost over one wired hop
    c_1: float = 1.0  # logged message transfer cost over one wired hop
    c_m: float = 0.5  # control message transfer cost over one wired hop
    alpha: float = 1.0  # wireless link cost coefficient
    rho: float = 1.0  # wired link cost coefficient
    t_load_ckpt: float = 10.0  # time to load the last checkpoint
    t_load_log: float = 1.0  # time to load one log batch
    c_p: float = 3.0  # per-checkpoint investment cost (explicit config knob)


@dataclass(frozen=True)
class DerivedQuantities:
    """Expectations derived from the rate parameters."""

    k_expected: float  # expected write events per checkpoint interval
    eta: float  # average log size, (k - 1) / 2 floored at zero


def validate_params(sp: SimParams, cp: CostParams) -> list[str]:
    """Check every model invariant; raise ValidationError naming each one.

    Every float must be finite: an infinite horizon or rate never ends a
    run, and NaN makes every comparison false, so the ``< 0`` checks below
    would let it through. lambda_w may be zero (a host that never writes is
    meaningful); the failure and handoff rates must be strictly positive
    because they drive exponential clocks. The expected event count must
    stay within ``MAX_EXPECTED_EVENTS``. Returns the warnings: lambda_f
    >= mu is allowed but stresses the single-failure-per-interval reading
    of the model.
    """
    violations = [
        f"{name} must be finite, got {value}"
        for name, value in {**vars(cp), **vars(sp)}.items()
        if isinstance(value, float) and not math.isfinite(value)
    ]
    if violations:
        raise ValidationError(violations)

    if not sp.lambda_f > 0:
        violations.append("lambda_f must be > 0")
    if sp.lambda_w < 0:
        violations.append("lambda_w must be >= 0")
    if not sp.mu > 0:
        violations.append("mu must be > 0")
    if not sp.t_c > 0:
        violations.append("t_c must be > 0")
    if sp.cache_capacity < 1:
        violations.append("cache_capacity must be >= 1")
    if not sp.recovery_deadline > 0:
        violations.append("recovery_deadline must be > 0")
    if not sp.sim_horizon > 0:
        violations.append("sim_horizon must be > 0")
    if sp.replications < 1:
        violations.append("replications must be >= 1")

    if not cp.r > 0:
        violations.append("r must be > 0")
    for name in ("c_c", "c_1", "c_m", "alpha", "rho", "t_load_ckpt", "t_load_log", "c_p"):
        if getattr(cp, name) < 0:
            violations.append(f"{name} must be >= 0")

    if not violations:
        expected = sp.sim_horizon * (sp.lambda_w + sp.mu + sp.lambda_f + 1.0 / sp.t_c)
        if expected > MAX_EXPECTED_EVENTS:
            violations.append(
                f"sim.horizon: {sp.sim_horizon:g} time units expect {expected:.4g} events, "
                f"over the budget of {MAX_EXPECTED_EVENTS}; shorten the horizon"
            )

    if violations:
        raise ValidationError(violations)

    warnings = []
    if sp.lambda_f >= sp.mu:
        warnings.append(
            "single-failure assumption stressed: "
            f"lambda_f={sp.lambda_f} >= mu={sp.mu}"
        )
    return warnings


def derive_quantities(sp: SimParams) -> DerivedQuantities:
    """Compute the expected per-interval write count and log size.

    eta follows (k - 1) / 2 and is floored at zero because a log cannot have
    negative size when fewer than one write is expected per interval.
    """
    k = sp.lambda_w * sp.t_c
    return DerivedQuantities(k_expected=k, eta=max(0.0, (k - 1.0) / 2.0))


def default_recovery_deadline(sp: SimParams, cp: CostParams) -> float:
    """Deadline calibration: 3x the analytic single-fragment retrieval time.

    Keeps the recovery-probability metric away from its 0/1 saturation
    points across the default sweeps.
    """
    eta = derive_quantities(sp).eta
    single = cp.t_load_ckpt + cp.t_load_log + cp.r * (eta * cp.c_1 + cp.c_c + cp.c_m)
    return 3.0 * single
