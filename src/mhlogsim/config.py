"""Flat key=value config files and the resolved run configuration.

Format: one ``key = value`` per line, ``#`` comments and blank lines
ignored. Unknown keys are errors, as are values that fail to parse; missing
keys take the documented defaults. Each key is a parameter row of
``SimParams``, ``CostParams`` or ``NetworkTree`` (see ``model.param``).
``recovery.deadline`` accepts ``auto`` (the default), which recalibrates
the deadline from the current rates, or an explicit number, which pins it
across sweeps. A value set from code, as ``Config.with_overrides`` takes
it, is parsed as its text would be.

A parsed config is checked in two stages. First every key on its own, by
its row, with all failures reported together in row order. Then, once every
key passes, the checks that join keys: the auto deadline's calibration, the
event budget and the cell count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .model import (
    COUNT,
    SEED_RANGE,
    CostParams,
    SimParams,
    ValidationError,
    default_recovery_deadline,
    validate_params,
    violation,
)
from .topology import NetworkTree, build_topology


class ConfigError(ValueError):
    """A config file failed to parse; the message carries the location."""


_ROWS = tuple(f for cls in (SimParams, CostParams, NetworkTree) for f in fields(cls)
              if "key" in f.metadata)

# key -> (parser, default), in row order, the order failures are reported in.
CONFIG_KEYS: dict[str, tuple] = {f.metadata["key"]: (f.metadata["parse"], f.default)
                                 for f in _ROWS}
# The key's default recalibrates the deadline from the rates; the row's
# default is that calibration at the default rates.
CONFIG_KEYS["recovery.deadline"] = (CONFIG_KEYS["recovery.deadline"][0], "auto")


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
    if message := COUNT.violation(name, value):
        raise ValidationError([message])
    if most is not None and value > most:
        raise ValidationError([f"{name} must be <= {most}, got {value}"])


def _row_values(cls: type, values: dict[str, object]) -> dict[str, object]:
    """The keyword arguments of ``cls``'s rows, read from ``values`` by key."""
    return {f.name: values[f.metadata["key"]] for f in fields(cls) if "key" in f.metadata}


def _build_config(values: dict[str, object]) -> Config:
    """The Config of ``values``, each already of its key's type."""
    merged = {key: default for key, (_, default) in CONFIG_KEYS.items()} | values
    raw = tuple(sorted((key, _format_value(value)) for key, value in merged.items()))

    # An auto deadline is a placeholder until every rate it reads is checked.
    auto = merged["recovery.deadline"] == "auto"
    numbers = {**merged, "recovery.deadline": 1.0} if auto else merged
    violations = [message for f in _ROWS if (message := violation(
        f, f.metadata["key"], numbers[f.metadata["key"]]))]
    if violations:
        raise ValidationError(violations)

    sim, cost = (cls(**_row_values(cls, numbers)) for cls in (SimParams, CostParams))
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
    tree = build_topology(**_row_values(NetworkTree, merged))
    return Config(sim=sim, cost=cost, tree=tree, raw=raw, warnings=warnings)


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
