"""Model parameters and shared domain value objects.

All rates are per abstract time unit and all costs are in abstract cost
units; there is no wall-clock binding. A validated configuration bundle is
immutable and can be shared freely between simulation runs.

Every config key is one parameter row (``param``), a field of the
dataclass that holds its value: ``SimParams``, ``CostParams`` or
``topology.NetworkTree``. A row holds its default, its config key, its
``Bound`` and, where the default's type does not parse its text, its
parser. The config keys, the checks and their messages, by field or by key,
all read the rows.
"""

from __future__ import annotations

import math
from dataclasses import Field, dataclass, field, fields
from enum import Enum
from typing import Any, Callable, NamedTuple


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


class Bound(NamedTuple):
    """The range a parameter must lie in, as its message words it."""

    text: str  # "<name> must be <text>"; a "{!r}" in it shows the value
    holds: Callable[[Any], bool]

    def violation(self, name: str, value: Any) -> str | None:
        """The message naming ``name`` if ``value`` is out of range, else None."""
        return None if self.holds(value) else f"{name} must be {self.text.format(value)}"


POSITIVE = Bound("> 0", lambda v: v > 0)
NON_NEGATIVE = Bound(">= 0", lambda v: v >= 0)
AT_LEAST_ONE = Bound(">= 1", lambda v: v >= 1)
COUNT = Bound(">= 1, got {!r}", lambda v: v >= 1)
SEED_RANGE = Bound("in [0, 2**64), got {!r}", lambda v: 0 <= v <= SEED_MASK)


class StrategyKind(Enum):
    LAZY = "lazy"
    PESSIMISTIC = "pessimistic"
    PROPOSED = "proposed"


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_deadline(text: str) -> float | str:
    if text.lower() == "auto":
        return "auto"
    return float(text)


def param(default: Any, key: str, bound: Bound | None = None,
          parse: Callable[[str], Any] | None = None) -> Any:
    """A parameter row: a field with its default, config key, bound and the
    parser of its text, the default's type unless given."""
    metadata = {"key": key, "bound": bound, "parse": parse or type(default)}
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class SimParams:
    """Stochastic rates and run controls for one simulation. The failure and
    handoff rates drive exponential clocks, so must be > 0; lambda_w may be 0."""

    lambda_f: float = param(0.001, "sim.lambda_f", POSITIVE)  # failures per time unit
    lambda_w: float = param(0.5, "sim.lambda_w", NON_NEGATIVE)  # write-event (log) arrival rate
    mu: float = param(0.01, "sim.mu", POSITIVE)  # handoff rate
    t_c: float = param(100.0, "sim.T_c", POSITIVE)  # checkpoint interval
    cache_capacity: int = param(16, "sim.cache_capacity", AT_LEAST_ONE)  # writes buffered on host
    sim_horizon: float = param(20000.0, "sim.horizon", POSITIVE)  # simulated time per run
    seed: int = param(12345, "sim.seed", SEED_RANGE)  # 64-bit master seed
    replications: int = param(20, "sim.replications", AT_LEAST_ONE)
    # The strategy ``mhlogsim simulate`` runs unless its flag names one.
    strategy: str = param("proposed", "strategy", Bound(
        "one of lazy|pessimistic|proposed, got {!r}",
        lambda v: v in {kind.value for kind in StrategyKind}))
    # Retrieval time budget for a recovery; default_recovery_deadline() of
    # the default rates. The config key defaults to "auto", which
    # recalibrates it from the rates, unless a config pins a value.
    recovery_deadline: float = param(42.0, "recovery.deadline", POSITIVE, _parse_deadline)
    # Chance a failed host restarts in its failure-time region.
    p_same_region: float = param(0.8, "recovery.p_same_region",
                                 Bound("in [0, 1]", lambda v: 0 <= v <= 1))


@dataclass(frozen=True)
class CostParams:
    """Unit transfer costs and link coefficients.

    ``r`` is the ratio of wired-hop transfer time to wireless-hop transfer
    time, so moving one item across d wired hops takes ``d * r`` of the time
    the final wireless hop takes.
    """

    r: float = param(0.1, "cost.r", POSITIVE)
    c_c: float = param(5.0, "cost.C_c", NON_NEGATIVE)  # checkpoint cost over one wired hop
    c_1: float = param(1.0, "cost.C_1", NON_NEGATIVE)  # logged message cost over one wired hop
    c_m: float = param(0.5, "cost.C_m", NON_NEGATIVE)  # control message cost over one wired hop
    alpha: float = param(1.0, "cost.alpha", NON_NEGATIVE)  # wireless link cost coefficient
    rho: float = param(1.0, "cost.rho", NON_NEGATIVE)  # wired link cost coefficient
    t_load_ckpt: float = param(10.0, "cost.T_load_ckpt", NON_NEGATIVE)  # load the last checkpoint
    t_load_log: float = param(1.0, "cost.T_load_log", NON_NEGATIVE)  # load one log batch
    c_p: float = param(3.0, "cost.C_p", NON_NEGATIVE)  # per-checkpoint investment cost
    # FRCR's log-transfer bound: floor(t_c * mu), not the literal floor(t_c * lambda_f).
    erratum_bound: bool = param(False, "frcr.erratum_bound", parse=_parse_bool)


@dataclass(frozen=True)
class DerivedQuantities:
    """Expectations derived from the rate parameters."""

    k_expected: float  # expected write events per checkpoint interval
    eta: float  # average log size, (k - 1) / 2 floored at zero


def _name(row: Field, by_key: bool) -> str:
    """A parameter row's name in a message: its field's or its config key."""
    return row.metadata["key"] if by_key else row.name


def violation(row: Field, name: str, value: Any) -> str | None:
    """The message naming ``name`` if ``value`` is outside ``row``, else None.
    A float must be finite: an infinite rate or horizon never ends a run."""
    if isinstance(value, float) and not math.isfinite(value):
        return f"{name} must be finite, got {value}"
    bound = row.metadata["bound"]
    return bound and bound.violation(name, value)


def validate_params(sp: SimParams, cp: CostParams, by_key: bool = False) -> list[str]:
    """Check every row of ``sp`` and ``cp``, then the event budget of
    ``MAX_EXPECTED_EVENTS``; raise ValidationError naming each violation by
    its field or, ``by_key``, its config key. Returns the warnings: lambda_f
    >= mu is allowed but stresses the single-failure-per-interval reading of
    the model.
    """
    violations = [
        message for params in (sp, cp) for f in fields(params)
        if (message := violation(f, _name(f, by_key), getattr(params, f.name)))
    ]
    if not violations:
        expected = sp.sim_horizon * (sp.lambda_w + sp.mu + sp.lambda_f + 1.0 / sp.t_c)
        if expected > MAX_EXPECTED_EVENTS:
            horizon = _name(SimParams.__dataclass_fields__["sim_horizon"], by_key)
            violations.append(
                f"{horizon}: {sp.sim_horizon:g} time units expect {expected:.4g} events, "
                f"over the budget of {MAX_EXPECTED_EVENTS}; shorten the horizon"
            )

    if violations:
        raise ValidationError(violations)

    if sp.lambda_f >= sp.mu:
        return [f"single-failure assumption stressed: lambda_f={sp.lambda_f} >= mu={sp.mu}"]
    return []


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
