import re
from dataclasses import replace
from pathlib import Path

import pytest

from mhlogsim import cli, topology
from mhlogsim.config import CONFIG_KEYS, ConfigError, default_config, parse_config
from mhlogsim.model import (
    MAX_EXPECTED_EVENTS,
    ValidationError,
    default_recovery_deadline,
    validate_params,
)
from mhlogsim.strategies import StrategyKind


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, ""))
        assert cfg == default_config()
        assert cfg.sim.lambda_f == 0.001
        assert StrategyKind(cfg.sim.strategy) is StrategyKind.PROPOSED
        assert cfg.raw_values()["recovery.deadline"] == "auto"

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = parse_config(write(tmp_path, "# comment\n\nsim.mu = 0.05\n"))
        assert cfg.sim.mu == 0.05

    def test_overrides_apply_rest_default(self, tmp_path):
        cfg = parse_config(write(tmp_path, "strategy = proposed\nsim.mu = 0.05\n"))
        assert StrategyKind(cfg.sim.strategy) is StrategyKind.PROPOSED
        assert cfg.sim.mu == 0.05
        assert cfg.sim.lambda_w == 0.5

    def test_negative_rate_is_validation_error(self, tmp_path):
        with pytest.raises(ValidationError, match="mu must be > 0"):
            parse_config(write(tmp_path, "sim.mu = -1\n"))

    @pytest.mark.parametrize("key, text, field", [
        ("sim.horizon", "inf", "sim_horizon"),
        ("sim.mu", "inf", "mu"),
        ("sim.lambda_w", "nan", "lambda_w"),
        ("cost.C_m", "inf", "c_m"),
        ("cost.C_1", "nan", "c_1"),
    ])
    def test_non_finite_value_is_named(self, tmp_path, key, text, field):
        # A config names the key; bare dataclasses, as run_simulation
        # validates them, name the field.
        path = write(tmp_path, f"{key} = {text}\n")
        with pytest.raises(ValidationError, match=rf"^{re.escape(key)} must be finite"):
            parse_config(path)
        assert cli.main(["simulate", "--config", str(path)]) == 1
        cfg = default_config()
        sim, cost = cfg.sim, cfg.cost
        if hasattr(sim, field):
            sim = replace(sim, **{field: float(text)})
        else:
            cost = replace(cost, **{field: float(text)})
        with pytest.raises(ValidationError, match=rf"^{field} must be finite"):
            validate_params(sim, cost)

    def test_unknown_key_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match=r":2: unknown key"):
            parse_config(write(tmp_path, "sim.mu = 0.01\nsim.nope = 3\n"))

    def test_type_mismatch_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match=r":1: bad value"):
            parse_config(write(tmp_path, "sim.cache_capacity = many\n"))

    def test_missing_equals_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match=r":1: expected"):
            parse_config(write(tmp_path, "just some words\n"))

    def test_bad_strategy_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="strategy"):
            parse_config(write(tmp_path, "strategy = eager\n"))

    def test_erratum_flag_parses(self, tmp_path):
        cfg = parse_config(write(tmp_path, "frcr.erratum_bound = true\n"))
        assert cfg.cost.erratum_bound

    @pytest.mark.parametrize("text, message", [
        ("topology.inter_msc_hops = 1\n",
         "topology.inter_msc_hops must be >= 2, got 1"),
        ("topology.adjacency = hex\n",
         "topology.adjacency must be ring or grid, got 'hex'"),
        ("topology.msc = 0\n", "topology.msc must be >= 1, got 0"),
        ("topology.bsc_per_msc = 1\ntopology.bs_per_bsc = 1\n",
         "topology.msc * topology.bsc_per_msc * topology.bs_per_bsc must be >= 2 "
         "cells for mobility, got 1"),
        # Every key is checked on its own first, and all its failures are
        # reported together in row order: sim keys, cost keys, topology keys.
        # Checks that join keys, as the event budget and the cell count do,
        # wait until every key passes.
        ("sim.mu = 0\nsim.seed = -5\nstrategy = eager\ntopology.msc = 0\n",
         "sim.mu must be > 0; sim.seed must be in [0, 2**64), got -5; "
         "strategy must be one of lazy|pessimistic|proposed, got 'eager'; "
         "topology.msc must be >= 1, got 0"),
        ("sim.horizon = 1e7\nrecovery.p_same_region = 2\n",
         "recovery.p_same_region must be in [0, 1]"),
        ("cost.C_m = nan\nsim.mu = inf\n",
         "sim.mu must be finite, got inf; cost.C_m must be finite, got nan"),
    ], ids=["inter_msc_hops=1", "adjacency=hex", "msc=0", "one_cell", "mu+seed+strategy",
            "over_budget+p_same_region", "non_finite_sim_before_cost"])
    def test_bad_topology_rejected_at_parse_time(self, tmp_path, text, message):
        path = write(tmp_path, text)
        with pytest.raises(ValidationError) as info:
            parse_config(path)
        assert str(info.value) == message
        assert cli.main(["analytic", "--config", str(path)]) == 1


class TestEventBudget:
    """horizon * (lambda_w + mu + lambda_f + 1/T_c) may not exceed the cap.
    Neither side is run: parse-time validation decides."""

    @staticmethod
    def horizon_at(fraction: float) -> float:
        sp = default_config().sim
        rate = sp.lambda_w + sp.mu + sp.lambda_f + 1.0 / sp.t_c
        return fraction * MAX_EXPECTED_EVENTS / rate

    def test_just_under_the_cap_is_accepted(self, tmp_path):
        horizon = self.horizon_at(0.999)
        cfg = parse_config(write(tmp_path, f"sim.horizon = {horizon!r}\n"))
        assert cfg.sim.sim_horizon == horizon

    def test_just_over_the_cap_is_rejected_naming_the_horizon(self, tmp_path):
        path = write(tmp_path, f"sim.horizon = {self.horizon_at(1.001)!r}\n")
        with pytest.raises(ValidationError, match=r"^sim\.horizon: .* over the budget"):
            parse_config(path)
        assert cli.main(["analytic", "--config", str(path)]) == 1

    def test_figure_configs_sit_far_below_the_cap(self):
        # fig4 at mu=0.1 expects the most events of any figure run.
        sp = default_config().with_overrides({
            "sim.mu": 0.1, "sim.lambda_f": 0.02, "sim.horizon": 50000.0, "sim.T_c": 200.0,
        }).sim
        expected = sp.sim_horizon * (sp.lambda_w + sp.mu + sp.lambda_f + 1.0 / sp.t_c)
        assert 30_000 < expected < MAX_EXPECTED_EVENTS / 10


class TestTopologySizeBudget:
    """msc * bsc_per_msc * bs_per_bsc may not exceed topology.MAX_CELLS.
    The adjacency builders are stubbed out, so no large tree is built: a
    config under the cap reaches them, one over it is rejected first."""

    class Built(Exception):
        pass

    @pytest.fixture(autouse=True)
    def no_adjacency(self, monkeypatch):
        def stub(n):
            raise self.Built(n)

        monkeypatch.setattr(topology, "_ring_adjacency", stub)
        monkeypatch.setattr(topology, "_grid_adjacency", stub)

    @staticmethod
    def cells_at(tmp_path, fraction: float):
        bscs = round(fraction * topology.MAX_CELLS / 1000)
        text = f"topology.bsc_per_msc = {bscs}\ntopology.bs_per_bsc = 1000\n"
        return write(tmp_path, text), bscs * 1000

    def test_just_under_the_cap_is_built(self, tmp_path):
        path, cells = self.cells_at(tmp_path, 0.999)
        with pytest.raises(self.Built, match=f"^{cells}$"):
            parse_config(path)

    def test_just_over_the_cap_is_rejected_before_building(self, tmp_path):
        path, cells = self.cells_at(tmp_path, 1.001)
        with pytest.raises(ValidationError) as info:
            parse_config(path)
        assert str(info.value) == (
            "topology.msc * topology.bsc_per_msc * topology.bs_per_bsc "
            f"must be <= MAX_CELLS (1000000), got {cells}"
        )
        assert cli.main(["analytic", "--config", str(path)]) == 1


class TestDeadlineCalibration:
    def test_auto_deadline_tracks_rates(self, tmp_path):
        cfg = parse_config(write(tmp_path, "sim.lambda_w = 0.2\n"))
        assert cfg.sim.recovery_deadline == pytest.approx(
            default_recovery_deadline(cfg.sim, cfg.cost)
        )

    def test_explicit_deadline_is_pinned(self, tmp_path):
        cfg = parse_config(write(tmp_path, "recovery.deadline = 55.5\n"))
        assert cfg.raw_values()["recovery.deadline"] == 55.5
        assert cfg.sim.recovery_deadline == 55.5
        bumped = cfg.with_overrides({"sim.lambda_w": 0.25})
        assert bumped.sim.recovery_deadline == 55.5

    def test_auto_deadline_recalibrates_on_override(self):
        cfg = default_config()
        bumped = cfg.with_overrides({"sim.lambda_w": 0.25})
        assert bumped.sim.recovery_deadline == pytest.approx(
            default_recovery_deadline(bumped.sim, bumped.cost)
        )
        assert bumped.sim.recovery_deadline != cfg.sim.recovery_deadline


class TestWithOverrides:
    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            default_config().with_overrides({"sim.bogus": 1})

    def test_override_roundtrips_raw_values(self):
        cfg = default_config().with_overrides({"sim.mu": 0.05, "sim.cache_capacity": 4})
        again = cfg.with_overrides({})
        assert again == cfg

    def test_topology_spec_buildable(self):
        cfg = default_config()
        tree = cfg.build_tree()
        assert tree.n_cells == 9
        assert tree.adjacency[0] == (1, 8)


# A valid value from code for every key, none its default.
VALID = {
    "sim.lambda_f": 0.002,
    "sim.lambda_w": 0.25,
    "sim.mu": 0.02,
    "sim.T_c": 200,  # an int for a float key
    "sim.cache_capacity": 4,
    "sim.horizon": 5000.0,
    "sim.seed": 2**64 - 1,
    "sim.replications": 3,
    "cost.r": 0.2,
    "cost.C_c": 6.0,
    "cost.C_1": 2.0,
    "cost.C_m": 0.0,
    "cost.alpha": 1.5,
    "cost.rho": 2.0,
    "cost.T_load_ckpt": 12.0,
    "cost.T_load_log": 0.5,
    "cost.C_p": 4.0,
    "topology.msc": 2,
    "topology.bsc_per_msc": 2,
    "topology.bs_per_bsc": 4,
    "topology.adjacency": "grid",
    "topology.inter_msc_hops": 6,
    "strategy": "lazy",
    "recovery.deadline": 55.5,
    "recovery.p_same_region": 0.5,
    "frcr.erratum_bound": True,
}


def built(make):
    """``make()``'s Config and no error, or no Config and its error."""
    try:
        return make(), None
    except ValueError as exc:  # ConfigError or ValidationError
        return None, exc


class TestOneParsePath:
    """A value set from code ends as its text ends in a config file."""

    def test_every_key_has_a_valid_value(self):
        assert set(VALID) == set(CONFIG_KEYS)

    @pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
    def test_file_text_and_code_value_agree(self, tmp_path, key):
        valid = VALID[key]
        cases = [
            ("true" if valid is True else str(valid), valid),
            ("2.5", 2.5),
            ("true", "true"),
            ("false", False),
            ("auto", "auto"),
        ]
        for text, value in cases:
            path = write(tmp_path, f"{key} = {text}\n")
            from_file, file_error = built(lambda: parse_config(path))
            from_code, code_error = built(lambda: default_config().with_overrides({key: value}))
            if from_file is None or from_code is None:
                assert type(file_error) is type(code_error), (text, file_error, code_error)
                assert str(file_error) in (str(code_error), f"{path}:1: {code_error}")
                assert key in str(code_error), (text, code_error)
            else:
                assert from_file == from_code, text
                assert from_code.with_overrides({}) == from_code, text

    @pytest.mark.parametrize("key, value", [
        ("sim.cache_capacity", 4.7),
        ("topology.msc", 1.9),
        ("sim.replications", True),
    ])
    def test_int_keys_reject_what_their_text_would_not_parse_as(self, key, value):
        with pytest.raises(ConfigError, match=rf"^bad value for {re.escape(key)}: "):
            default_config().with_overrides({key: value})

    def test_false_text_turns_a_flag_off(self):
        on = default_config().with_overrides({"frcr.erratum_bound": True})
        off = on.with_overrides({"frcr.erratum_bound": "false"})
        assert on.cost.erratum_bound is True
        assert off.cost.erratum_bound is False
        assert off.raw_values()["frcr.erratum_bound"] is False

    def test_raw_records_the_value_that_ran(self):
        cfg = default_config().with_overrides({"sim.T_c": 200})
        assert dict(cfg.raw)["sim.T_c"] == "200.0"
        assert cfg.sim.t_c == 200.0


def readme_key_table():
    """(key, default text) per row of README's Configuration key table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    return [
        (cells[1].strip().strip("`"), cells[2].strip().strip("`"))
        for cells in (line.split("|") for line in section.splitlines())
        if len(cells) > 2 and cells[1].strip().startswith("`")
    ]


class TestReadmeKeyTable:
    """README's key table lists every config key once, with its default, in
    row order, the order failures are reported in."""

    def test_lists_exactly_the_config_keys(self):
        keys = [key for key, _ in readme_key_table()]
        assert keys == list(CONFIG_KEYS)

    @pytest.mark.parametrize("key, text", readme_key_table())
    def test_default_cell_parses_to_the_declared_default(self, key, text):
        parse, default = CONFIG_KEYS[key]
        assert parse(text) == default
