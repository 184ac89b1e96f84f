"""Flat key=value config files and the resolved run configuration.

Format: one ``key = value`` per line, ``#`` comments and blank lines
ignored. Unknown keys are errors, as are values that fail to parse; missing
keys take the documented defaults. ``recovery.deadline`` accepts ``auto``
(the default), which recalibrates the deadline from the current rates, or
an explicit number, which pins it across sweeps. A value set from code, as
``Config.with_overrides`` takes it, is parsed as its text would be.

A parsed config is checked in two stages. First every key on its own, by
its parameter row or its own bound, with all failures reported together in
row order. Then, once every key passes, the checks that join keys: the auto
deadline's calibration, the event budget and the topology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .model import (
    SEED_RANGE,
    CostParams,
    SimParams,
    ValidationError,
    default_recovery_deadline,
    row_violations,
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


# key -> (parser, default). Each SimParams and CostParams field is read from
# the key its row declares, parsed as the type of its default.
CONFIG_KEYS: dict[str, tuple] = {
    **{f.metadata["key"]: (type(f.default), f.default)
       for f in (*fields(SimParams), *fields(CostParams))},
    "topology.msc": (int, 1),
    "topology.bsc_per_msc": (int, 3),
    "topology.bs_per_bsc": (int, 3),
    "topology.adjacency": (str, "ring"),
    "topology.inter_msc_hops": (int, 4),
    "strategy": (str, "proposed"),
    # Replaces the recovery_deadline row's entry: the key also takes "auto".
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


def check_seed(name: str, seed: int) -> None:
    """Reject a seed that is not a 64-bit stream seed, naming its source."""
    if message := SEED_RANGE.violation(name, seed):
        raise ValidationError([message])


def check_count(name: str, value: int, most: int | None = None) -> None:
    """Reject a count below 1, or above ``most`` when given, naming its source."""
    if value < 1:
        raise ValidationError([f"{name} must be >= 1, got {value}"])
    if most is not None and value > most:
        raise ValidationError([f"{name} must be <= {most}, got {value}"])


def _build_config(values: dict[str, object]) -> Config:
    """The Config of ``values``, each already of its key's type."""
    merged = {key: default for key, (_, default) in CONFIG_KEYS.items()} | values
    raw = tuple(sorted((key, _format_value(value)) for key, value in merged.items()))

    # An auto deadline is a placeholder until every rate it reads is checked.
    auto = merged["recovery.deadline"] == "auto"
    numbers = {**merged, "recovery.deadline": 1.0} if auto else merged
    sim, cost = (cls(**{f.name: numbers[f.metadata["key"]] for f in fields(cls)})
                 for cls in (SimParams, CostParams))
    violations = row_violations(sim, by_key=True) + row_violations(cost, by_key=True)
    if merged["strategy"] not in {kind.value for kind in StrategyKind}:
        violations.append(
            f"strategy must be one of lazy|pessimistic|proposed, got {merged['strategy']!r}")
    if not 0.0 <= merged["recovery.p_same_region"] <= 1.0:
        violations.append("recovery.p_same_region must be in [0, 1]")
    if violations:
        raise ValidationError(violations)

    if auto:
        deadline = default_recovery_deadline(sim, cost)
        if deadline == 0 or not math.isfinite(deadline):
            why = "every load time and transfer cost is 0" if deadline == 0 else "it overflows"
            raise ValidationError([
                f"recovery.deadline = auto calibrated to {deadline:g} because {why} "
                "(cost.T_load_ckpt, cost.T_load_log, cost.C_c, cost.C_m, and cost.C_1 at the "
                "expected log size); set an explicit recovery.deadline"
            ])
        sim = replace(sim, recovery_deadline=deadline)
    warnings = tuple(validate_params(sim, cost, by_key=True))

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
        strategy=StrategyKind(merged["strategy"]),
        p_same_region=merged["recovery.p_same_region"],
        frcr_erratum_bound=merged["frcr.erratum_bound"],
        raw=raw,
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
