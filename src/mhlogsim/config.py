"""Flat key=value config files and the resolved run configuration.

Format: one ``key = value`` per line, ``#`` comments and blank lines
ignored. Unknown keys are errors, as are values that fail to parse; missing
keys take the documented defaults. ``recovery.deadline`` accepts ``auto``
(the default), which recalibrates the deadline from the current rates, or
an explicit number, which pins it across sweeps. A value set from code, as
``Config.with_overrides`` takes it, is parsed as its text would be.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .model import (
    SEED_MASK,
    CostParams,
    SimParams,
    ValidationError,
    default_recovery_deadline,
    validate_params,
)
from .strategies import StrategyKind
from .topology import NetworkTree, build_topology


class ConfigError(ValueError):
    """A config file failed to parse; the message carries the location."""


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


# Each SimParams and CostParams field -> the config key it is read from. A
# violation validate_params names by field is reported under its key.
_SIM_KEYS = {
    "lambda_f": "sim.lambda_f",
    "lambda_w": "sim.lambda_w",
    "mu": "sim.mu",
    "t_c": "sim.T_c",
    "cache_capacity": "sim.cache_capacity",
    "sim_horizon": "sim.horizon",
    "seed": "sim.seed",
    "replications": "sim.replications",
}
_COST_KEYS = {
    "r": "cost.r",
    "c_c": "cost.C_c",
    "c_1": "cost.C_1",
    "c_m": "cost.C_m",
    "alpha": "cost.alpha",
    "rho": "cost.rho",
    "t_load_ckpt": "cost.T_load_ckpt",
    "t_load_log": "cost.T_load_log",
    "c_p": "cost.C_p",
}
_KEY_OF_FIELD = {**_SIM_KEYS, **_COST_KEYS, "recovery_deadline": "recovery.deadline"}


def _field_keys(params: type, keys: dict[str, str]) -> dict[str, tuple]:
    """The ``CONFIG_KEYS`` entries of ``keys``: each key is parsed as its
    ``params`` field's type and defaults to that field's default."""
    types = {"float": float, "int": int}
    return {keys[f.name]: (types[f.type], f.default) for f in fields(params) if f.name in keys}


# key -> (parser, default)
CONFIG_KEYS: dict[str, tuple] = {
    **_field_keys(SimParams, _SIM_KEYS),
    **_field_keys(CostParams, _COST_KEYS),
    "topology.msc": (int, 1),
    "topology.bsc_per_msc": (int, 3),
    "topology.bs_per_bsc": (int, 3),
    "topology.adjacency": (str, "ring"),
    "topology.inter_msc_hops": (int, 4),
    "strategy": (str, "proposed"),
    "recovery.deadline": (_parse_deadline, "auto"),
    "recovery.p_same_region": (float, 0.8),
    "frcr.erratum_bound": (_parse_bool, False),
}


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _parse(key: str, value: object) -> object:
    """``value`` as ``key``'s type. A value from code is parsed as its text,
    so an int key rejects ``4.7`` as it rejects ``"4.7"``, and the text
    ``Config.raw`` records parses back to the value that ran."""
    text = value if isinstance(value, str) else _format_value(value)
    try:
        return CONFIG_KEYS[key][0](text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from None


@dataclass(frozen=True)
class Config:
    """Fully resolved configuration for the harness."""

    sim: SimParams
    cost: CostParams
    tree: NetworkTree
    strategy: StrategyKind
    p_same_region: float
    frcr_erratum_bound: bool
    raw: tuple[tuple[str, str], ...]  # every effective key=value, sorted
    warnings: tuple[str, ...]  # model-regime warnings from validate_params

    def build_tree(self) -> NetworkTree:
        return self.tree

    def with_overrides(self, overrides: dict[str, object]) -> "Config":
        """New Config with the given keys replaced and everything
        revalidated; an auto deadline is recalibrated for the new rates."""
        values = self.raw_values()
        for key, value in overrides.items():
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key: {key!r}")
            values[key] = _parse(key, value)
        return _build_config(values)

    def raw_values(self) -> dict[str, object]:
        return {key: _parse(key, text) for key, text in self.raw}


def _keyed(violation: str) -> str:
    """``violation`` with its leading field name replaced by the config key."""
    name, sep, rest = violation.partition(" must be ")
    return f"{_KEY_OF_FIELD[name]}{sep}{rest}" if name in _KEY_OF_FIELD else violation


def check_seed(name: str, seed: int) -> None:
    """Reject a seed that is not a 64-bit stream seed, naming its source."""
    if not 0 <= seed <= SEED_MASK:
        raise ValidationError([f"{name} must be in [0, 2**64), got {seed}"])


def check_count(name: str, value: int, most: int | None = None) -> None:
    """Reject a count below 1, or above ``most`` when given, naming its source."""
    if value < 1:
        raise ValidationError([f"{name} must be >= 1, got {value}"])
    if most is not None and value > most:
        raise ValidationError([f"{name} must be <= {most}, got {value}"])


def _build_config(values: dict[str, object]) -> Config:
    """The Config of ``values``, each already of its key's type."""
    merged = {key: default for key, (_, default) in CONFIG_KEYS.items()}
    merged.update(values)

    deadline = merged["recovery.deadline"]

    # recovery_deadline is a placeholder until calibrated below.
    sim = SimParams(
        recovery_deadline=1.0, **{name: merged[key] for name, key in _SIM_KEYS.items()}
    )
    cost = CostParams(**{name: merged[key] for name, key in _COST_KEYS.items()})
    if deadline == "auto":
        sim = replace(sim, recovery_deadline=default_recovery_deadline(sim, cost))
    else:
        sim = replace(sim, recovery_deadline=deadline)

    try:
        warnings = tuple(validate_params(sim, cost))
    except ValidationError as exc:
        violations = exc.violations
        if deadline == "auto":
            # With every other parameter valid, an auto deadline is 0 only when
            # each load time and transfer cost it is calibrated from is 0.
            if violations == ["recovery_deadline must be > 0"]:
                raise ValidationError([
                    "recovery.deadline = auto calibrated to 0 because every load time and "
                    "transfer cost is 0 (cost.T_load_ckpt, cost.T_load_log, cost.C_c, "
                    "cost.C_m, and cost.C_1 at the expected log size); set an explicit "
                    "recovery.deadline"
                ]) from None
            # Made from the other keys, the deadline fails only in their wake.
            others = [v for v in violations if not v.startswith("recovery_deadline ")]
            violations = others or violations
        raise ValidationError([_keyed(v) for v in violations]) from None
    check_seed("sim.seed", sim.seed)

    try:
        strategy = StrategyKind(merged["strategy"])
    except ValueError:
        raise ValidationError(
            [f"strategy must be one of lazy|pessimistic|proposed, got {merged['strategy']!r}"]
        ) from None

    p_same = merged["recovery.p_same_region"]
    if not 0.0 <= p_same <= 1.0:
        raise ValidationError(["recovery.p_same_region must be in [0, 1]"])

    try:
        tree = build_topology(
            merged["topology.msc"],
            merged["topology.bsc_per_msc"],
            merged["topology.bs_per_bsc"],
            merged["topology.adjacency"],
            merged["topology.inter_msc_hops"],
        )
    except ValueError as exc:
        raise ValidationError([f"topology: {exc}"]) from None

    return Config(
        sim=sim,
        cost=cost,
        tree=tree,
        strategy=strategy,
        p_same_region=p_same,
        frcr_erratum_bound=merged["frcr.erratum_bound"],
        raw=tuple(sorted((key, _format_value(value)) for key, value in merged.items())),
        warnings=warnings,
    )


def default_config() -> Config:
    return _build_config({})


def parse_config(path: str | Path) -> Config:
    """Parse and validate a config file; raises ConfigError with the line
    number on malformed input and ValidationError on invariant violations."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value_text = stripped.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _parse(key, value_text.strip())
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return _build_config(values)
