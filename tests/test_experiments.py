import importlib.util
import json
import math
import os
import sys
import warnings
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhlogsim.config import CONFIG_KEYS, Config, check_count, default_config, parse_config
from mhlogsim.experiments import (
    CSV_HEADER,
    FIGURE_IDS,
    MU_SWEEP,
    T_C_SWEEP,
    ExperimentSpec,
    MetricRow,
    check_trends,
    crosscheck_analytic,
    emit_csv,
    figure_spec,
    provenance_lines,
    run_figure,
)
from mhlogsim.model import CostParams, SimParams
from mhlogsim.strategies import StrategyKind
from mhlogsim.topology import NetworkTree
from mhlogsim import analytic, cli, engine, experiments


def load_script(name):
    script = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def row(value=0.01, mean=1.0, strategy="lazy", metric="handoff_cost_per_handoff",
        lo=None, hi=None, figure="fig3"):
    lo = mean - 0.1 if lo is None else lo
    hi = mean + 0.1 if hi is None else hi
    return MetricRow(figure, strategy, "sim.mu", value, metric, mean, lo, hi, 5, 42)


class TestEmitCsv:
    def test_single_row_two_lines(self, tmp_path):
        path = emit_csv([row()], tmp_path / "out.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER

    def test_same_rows_byte_identical(self, tmp_path):
        rows = [row(value=v) for v in (0.01, 0.02)]
        p1 = emit_csv(rows, tmp_path / "a.csv")
        p2 = emit_csv(rows, tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_roundtrip_at_six_significant_digits(self, tmp_path):
        rows = [row(value=0.0123456789, mean=123.456789)]
        path = emit_csv(rows, tmp_path / "rt.csv")
        assert path.read_text(encoding="utf-8").splitlines()[1] == (
            "fig3,lazy,sim.mu,0.0123457,handoff_cost_per_handoff,123.457,123.357,123.557,5,42"
        )

    def test_every_column_round_trips(self, tmp_path):
        """Each field is written as the exact text that reads back as it:
        values at 6 significant digits, nan as nan, and a seed of 2**64 - 1
        in full. A float field is written by its declared type, so an int
        held there still reads 1.23457e+06."""
        nan = float("nan")
        rows = [
            MetricRow("fig8", "proposed-vs-lazy", "sim.T_c", 4000.0, "frcr",
                      -0.0125, nan, 1.5e-07, 1, 2**64 - 1),
            row(value=0.005, mean=123.456, lo=0.0, hi=1e300),
        ]
        path = emit_csv(rows, tmp_path / "rt.csv")
        assert path.read_text(encoding="utf-8").splitlines()[1:] == [
            "fig8,proposed-vs-lazy,sim.T_c,4000,frcr,-0.0125,nan,1.5e-07,1,18446744073709551615",
            "fig3,lazy,sim.mu,0.005,handoff_cost_per_handoff,123.456,0,1e+300,5,42",
        ]
        held = replace(row(), mean=1234567)
        cells = emit_csv([held], tmp_path / "int.csv").read_text().splitlines()[1]
        assert cells.split(",")[5] == "1.23457e+06"

    def test_provenance_lines_are_comments(self, tmp_path):
        path = emit_csv([row()], tmp_path / "p.csv", provenance=("alpha", "beta"))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# alpha"
        assert lines[2] == CSV_HEADER

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "no.csv")

    def test_lf_line_endings(self, tmp_path):
        path = emit_csv([row()], tmp_path / "lf.csv")
        assert b"\r" not in path.read_bytes()


class TestExperimentSpec:
    def test_sweeps_must_increase(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                "fig3", "sim.mu", (0.02, 0.01), (StrategyKind.LAZY,), 1, 0, {}
            )

    def test_reps_must_be_positive(self):
        with pytest.raises(ValueError, match="reps must be >= 1"):
            ExperimentSpec("fig3", "sim.mu", (0.01,), (StrategyKind.LAZY,), 0, 0, {})

    def test_figure_specs_sweep_the_documented_parameter(self):
        cfg = default_config()
        assert figure_spec("fig3", cfg).swept_param == "sim.mu"
        assert figure_spec("fig4", cfg).swept_param == "sim.mu"
        assert figure_spec("fig5", cfg).swept_param == "sim.mu"
        assert figure_spec("fig6", cfg).swept_param == "sim.lambda_w"
        assert figure_spec("fig7", cfg).swept_param == "sim.T_c"
        assert figure_spec("fig8", cfg).swept_param == "sim.T_c"

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            figure_spec("fig9", default_config())


THREE = ("lazy", "pessimistic", "proposed")
SIMULATED_TOTALS = ["total_handoff_cost", "total_recovery_cost", "total_logging_cost",
                    "mean_cost_per_handoff_interval", "recovery_cost_home_total"]
FIGURE_METRICS = {
    "fig3": {(s, "handoff_cost_per_handoff") for s in THREE},
    "fig4": {(s, m) for s in THREE
             for m in ("recovery_cost_per_failure", "recovery_cost_per_failure_home")},
    "fig5": {(s, "total_cost_per_handoff_interval") for s in THREE},
    "fig6": {(s, "recovery_probability") for s in THREE},
    "fig7": {(s, "recovery_probability") for s in THREE},
    "fig8": {("proposed", "recovery_probability"), ("lazy", "recovery_probability"),
             ("proposed-vs-lazy", "frcr")},
}


@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_each_figure_reports_its_metrics(figure_id):
    """Every figure, cut to two sweep points and one short replication,
    reports exactly its documented (strategy, metric) pairs at each point."""
    cfg = default_config()
    spec = figure_spec(figure_id, cfg, reps=1, master_seed=5)
    spec = replace(spec, sweep_values=spec.sweep_values[:2],
                   overrides={**spec.overrides, "sim.horizon": 500.0})
    rows = run_figure(spec, cfg)
    assert {(r.strategy, r.metric_name) for r in rows} == FIGURE_METRICS[figure_id]
    assert len(rows) == 2 * len(FIGURE_METRICS[figure_id])


class TestRunFigure:
    def test_rows_in_sweep_order_with_interval_invariant(self):
        cfg = default_config().with_overrides({"sim.horizon": 2000.0})
        spec = ExperimentSpec(
            "fig3", "sim.mu", (0.01, 0.05), (StrategyKind.LAZY, StrategyKind.PROPOSED),
            reps=3, master_seed=7, overrides={},
        )
        rows = run_figure(spec, cfg)
        assert [r.param_value for r in rows] == [0.01, 0.01, 0.05, 0.05]
        for r in rows:
            assert r.ci95_low <= r.mean <= r.ci95_high
            assert r.reps == 3 and r.seed == 7

    def test_rerun_identical(self):
        cfg = default_config().with_overrides({"sim.horizon": 2000.0})
        spec = ExperimentSpec(
            "fig6", "sim.lambda_w", (0.1, 0.3), (StrategyKind.PROPOSED,),
            reps=2, master_seed=3, overrides={},
        )
        assert run_figure(spec, cfg) == run_figure(spec, cfg)

    def test_fig8_emits_frcr_rows(self):
        cfg = default_config().with_overrides({"sim.horizon": 2000.0})
        spec = ExperimentSpec(
            "fig8", "sim.T_c", (100.0, 500.0),
            (StrategyKind.PROPOSED, StrategyKind.LAZY),
            reps=2, master_seed=3,
            overrides={"frcr.erratum_bound": True},
        )
        rows = run_figure(spec, cfg)
        frcr_rows = [r for r in rows if r.metric_name == "frcr"]
        assert len(frcr_rows) == 2
        assert all(r.strategy == "proposed-vs-lazy" for r in frcr_rows)


class TestCheckTrends:
    def test_fig3_ordering_violation_detected(self):
        rows = []
        for mu in (0.01, 0.02):
            rows.append(row(mu, 0.5, "lazy"))
            rows.append(row(mu, 10.0, "pessimistic"))
            rows.append(row(mu, 20.0, "proposed"))  # above pessimistic: wrong
        violations = check_trends("fig3", rows)
        assert any("ordering" in v for v in violations)

    def test_fig3_clean_rows_pass(self):
        rows = []
        for mu in (0.01, 0.02, 0.05):
            rows.append(row(mu, 0.5, "lazy", lo=0.5, hi=0.5))
            rows.append(row(mu, 80.0, "pessimistic"))
            rows.append(row(mu, 30.0, "proposed"))
        assert check_trends("fig3", rows) == []

    def test_fig8_endpoint_peak_flagged(self):
        rows = [
            row(v, m, "proposed-vs-lazy", "frcr", figure="fig8")
            for v, m in ((50, 0.0), (200, 0.1), (500, 0.4), (1000, 0.9))
        ]
        violations = check_trends("fig8", rows)
        assert any("endpoint" in v for v in violations)

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            check_trends("fig99", [])

    @staticmethod
    def assert_spearman_is_scipys(x, y):
        from scipy.stats import spearmanr

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns on a constant series
            want = float(spearmanr(x, y).statistic)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = experiments._spearman(x, y)
        if math.isnan(want):
            assert math.isnan(rho)
        else:
            assert abs(rho - want) <= 1e-12
            assert (rho <= -0.9) == (want <= -0.9)

    @settings(deadline=None)
    @given(st.data())
    def test_spearman_is_scipys(self, data):
        """fig6's rho equals scipy.stats.spearmanr's, ties included."""
        n = data.draw(st.integers(2, 8))
        values = st.one_of(st.integers(0, 3).map(float), st.floats(-1e6, 1e6))
        x, y = (data.draw(st.lists(values, min_size=n, max_size=n)) for _ in "xy")
        self.assert_spearman_is_scipys(x, y)

    @pytest.mark.parametrize("y", [[5.0, 5.0, 5.0, 5.0], [4.0, 2.0, 2.0, 1.0],
                                   [1.0, 1.0, 3.0, 3.0], [1.0, math.nan, 0.0, 2.0]])
    def test_spearman_is_scipys_on_constant_tied_and_nan_series(self, y):
        self.assert_spearman_is_scipys([0.1, 0.3, 0.5, 0.7], y)
        self.assert_spearman_is_scipys(y, y)

    @staticmethod
    def fig6_rows(y):
        return [row(x, m, kind.value, "recovery_probability", figure="fig6")
                for kind in StrategyKind for x, m in zip(range(1, 6), y)]

    def test_fig6_rho_of_exactly_minus_0_9_passes(self):
        y = [5.0, 4.0, 2.0, 3.0, 1.0]  # sum of squared rank differences 38
        assert experiments._spearman(range(1, 6), y) != -0.9
        assert check_trends("fig6", self.fig6_rows(y)) == []

    def test_fig6_rho_of_minus_0_8_is_flagged(self):
        violations = check_trends("fig6", self.fig6_rows([4.0, 5.0, 3.0, 1.0, 2.0]))
        assert violations == [
            f"fig6: {kind.value} recovery probability not monotone decreasing (spearman -0.800)"
            for kind in StrategyKind
        ]

    def test_fig6_check_reads_as_with_scipys_rho(self, figure_rows, monkeypatch):
        from scipy.stats import spearmanr

        rows = figure_rows("fig6")
        ours = check_trends("fig6", rows)
        monkeypatch.setattr(experiments, "_spearman",
                            lambda x, y: float(spearmanr(x, y).statistic))
        assert check_trends("fig6", rows) == ours == []


class TestCrosscheck:
    def test_defaults_agree_within_threshold(self):
        report = crosscheck_analytic(default_config(), n_intervals=100_000, seed=5)
        assert not any(r.flagged for r in report.rows)
        names = [r.name for r in report.rows]
        assert names == ["p01", "p02", "c_t"]
        assert "ok" in report.as_text()

    def test_reads_one_draw_and_its_own_report(self, monkeypatch):
        """One call seeds one stream. p02 is the share of the draw's
        intervals that a failure ends and p01 the rest, and c_t prices that
        same draw with the report's c_r and c01."""
        config = default_config()
        seeded, pcg64 = [], np.random.PCG64
        monkeypatch.setattr(np.random, "PCG64", lambda seed: seeded.append(seed) or pcg64(seed))
        cc = crosscheck_analytic(config, n_intervals=5000, seed=11)
        assert seeded == [11]
        monkeypatch.undo()
        report = analytic.build_report(config.sim, config.cost)
        failed = engine.failure_first(config.sim, 11, 5000)
        p02 = float(np.mean(failed))
        p01 = 1.0 - p02
        c_t = float(np.where(failed, report.c_r, report.c01).mean())
        assert [(r.analytic, r.empirical) for r in cc.rows] == [
            (report.p01, p01), (report.p02, p02), (report.c_t, c_t),
        ]

    def test_flag_raised_at_absurd_threshold(self):
        report = crosscheck_analytic(
            default_config(), n_intervals=1000, seed=5, threshold=1e-9
        )
        assert any(r.flagged for r in report.rows)


# One failing config line per bounded parameter row, and the CLI's message.
CONFIG_ERRORS = [
    ("sim.lambda_f = 0", "sim.lambda_f must be > 0"),
    ("sim.lambda_w = -1", "sim.lambda_w must be >= 0"),
    ("sim.mu = 0", "sim.mu must be > 0"),
    ("sim.T_c = 0", "sim.T_c must be > 0"),
    ("sim.horizon = 0", "sim.horizon must be > 0"),
    ("sim.cache_capacity = 0", "sim.cache_capacity must be >= 1"),
    ("sim.replications = 0", "sim.replications must be >= 1"),
    ("sim.seed = -5", "sim.seed must be in [0, 2**64), got -5"),
    ("strategy = eager", "strategy must be one of lazy|pessimistic|proposed, got 'eager'"),
    ("recovery.deadline = 0", "recovery.deadline must be > 0"),
    ("recovery.p_same_region = 2", "recovery.p_same_region must be in [0, 1]"),
    ("recovery.p_same_region = nan", "recovery.p_same_region must be finite, got nan"),
    ("cost.r = 0", "cost.r must be > 0"),
    ("cost.C_c = -1", "cost.C_c must be >= 0"),
    ("cost.C_1 = -1", "cost.C_1 must be >= 0"),
    ("cost.C_m = -1", "cost.C_m must be >= 0"),
    ("cost.alpha = -1", "cost.alpha must be >= 0"),
    ("cost.rho = -1", "cost.rho must be >= 0"),
    ("cost.T_load_ckpt = -1", "cost.T_load_ckpt must be >= 0"),
    ("cost.T_load_log = -1", "cost.T_load_log must be >= 0"),
    ("cost.C_p = -1", "cost.C_p must be >= 0"),
    ("cost.alpha = nan", "cost.alpha must be finite, got nan"),
    ("sim.T_c = inf", "sim.T_c must be finite, got inf"),
    ("cost.C_m = inf", "cost.C_m must be finite, got inf"),
    ("topology.msc = 0", "topology.msc must be >= 1, got 0"),
    ("topology.bsc_per_msc = 0", "topology.bsc_per_msc must be >= 1, got 0"),
    ("topology.bs_per_bsc = -2", "topology.bs_per_bsc must be >= 1, got -2"),
    ("topology.adjacency = hex", "topology.adjacency must be ring or grid, got 'hex'"),
    ("topology.inter_msc_hops = 1", "topology.inter_msc_hops must be >= 2, got 1"),
]


class TestCli:
    def test_figure_roundtrip_and_determinism(self, tmp_path):
        args = ["figure", "fig3", "--out", str(tmp_path / "a"), "--reps", "2", "--seed", "9"]
        # shrink runtime: a small horizon via config file
        cfg_file = tmp_path / "small.cfg"
        cfg_file.write_text("sim.horizon = 1500\n", encoding="utf-8")
        args += ["--config", str(cfg_file)]
        assert cli.main(args) == 0
        args2 = list(args)
        args2[3] = str(tmp_path / "b")
        assert cli.main(args2) == 0
        a = (tmp_path / "a" / "fig3.csv").read_bytes()
        b = (tmp_path / "b" / "fig3.csv").read_bytes()
        assert a == b

    def test_analytic_command_runs(self, capsys):
        assert cli.main(["analytic"]) == 0
        out = capsys.readouterr().out
        assert "total cost per interval" in out

    def test_simulate_command_runs(self, capsys, tmp_path):
        cfg_file = tmp_path / "fast.cfg"
        cfg_file.write_text("sim.horizon = 1000\nsim.replications = 2\n", encoding="utf-8")
        assert cli.main(["simulate", "--config", str(cfg_file), "--strategy", "lazy"]) == 0
        assert "recovery_probability" in capsys.readouterr().out

    def test_crosscheck_command_runs(self, capsys):
        assert cli.main(["crosscheck", "--intervals", "20000"]) == 0
        assert "p02" in capsys.readouterr().out

    @pytest.mark.parametrize("args, message", [
        (["--p-prop", "2", "--p-lazy", "0.5"],
         "--p-prop must be a probability in [0, 1], got 2.0"),
        (["--p-prop", "nan", "--p-lazy", "0.5"],
         "--p-prop must be a probability in [0, 1], got nan"),
        (["--p-prop", "0.5", "--p-lazy=-inf"],
         "--p-lazy must be a probability in [0, 1], got -inf"),
    ], ids=["above_one", "nan", "minus_inf"])
    def test_analytic_rejects_a_non_probability(self, capsys, args, message):
        assert cli.main(["analytic", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command, text, quantities", [
        (["analytic"], "cost.C_m = 1e308\n", ["c01", "c_t"]),
        (["analytic"], "sim.lambda_f = 5e-324\n", ["c_prop", "c_lazy"]),
        (["analytic"], "cost.r = 1e308\nrecovery.deadline = 50\n", ["c01", "c_r", "c_t", "c_prop"]),
        (["crosscheck", "--intervals", "1000"], "cost.C_m = 1e308\n", ["c01", "c_t"]),
    ], ids=["analytic-C_m", "analytic-lambda_f", "analytic-r", "crosscheck-C_m"])
    def test_a_closed_form_overflow_is_rejected(self, tmp_path, capsys, command, text, quantities):
        # Validation accepts each config, and its closed form overflows.
        path = tmp_path / "big.cfg"
        path.write_text(text, encoding="utf-8")
        assert cli.main([*command, "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")
        messages = line.removeprefix("error: ").split("; ")
        assert [m.split(" = ")[0] for m in messages] == quantities
        key = text.split(" = ")[0]
        assert all(key in m.split(" is not finite: it reads ")[1] for m in messages)

    @pytest.mark.parametrize("text, kind, statistics", [
        *(("cost.C_m = 1e308\n", kind, SIMULATED_TOTALS) for kind in THREE),
        *(("cost.r = 1e308\nrecovery.deadline = 50\n", kind, ["mean_retrieval_time"])
          for kind in THREE),
        # A charged write costs about 2e307, so a logging total reaches
        # [2**1023, DBL_MAX], which has no float at its top, within about 9
        # writes. Lazy moves no log at a handoff, so its handoff total holds.
        ("cost.C_1 = 1e307\nrecovery.deadline = 42\n", "lazy", SIMULATED_TOTALS[1:]),
        *(("cost.C_1 = 1e307\nrecovery.deadline = 42\n", kind, SIMULATED_TOTALS)
          for kind in ("pessimistic", "proposed")),
    ], ids=[f"{key}-{kind}" for key in ("C_m", "r", "C_1") for kind in THREE])
    def test_a_simulated_overflow_is_rejected(self, tmp_path, capsys, kind, text, statistics):
        # Validation accepts each config, and its prices overflow: a sum
        # reads inf, or its interval's spread overflows to inf or nan.
        path = tmp_path / "big.cfg"
        path.write_text(text + "sim.horizon = 2000\nsim.replications = 2\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["simulate", "--strategy", kind, "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")
        messages = line.removeprefix("error: ").split("; ")
        assert [m.split(" mean ")[0] for m in messages] == statistics
        key = text.split(" = ")[0]
        assert all(key in m.split(" is not finite: it is priced by ")[1] for m in messages)

    def test_a_figure_logging_total_in_the_top_binade_is_rejected(self, tmp_path, capsys):
        # fig5's total cost per interval reads the logging total that
        # overflows in test_a_simulated_overflow_is_rejected's C_1 case.
        path = tmp_path / "big.cfg"
        path.write_text("cost.C_1 = 1e307\nrecovery.deadline = 42\n"
                        "sim.horizon = 2000\nsim.replications = 2\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["figure", "fig5", "--reps", "1", "--config", str(path),
                             "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # fig5's lambda_f reaches mu at four points, which warns.
        [line] = [ln for ln in captured.err.splitlines() if not ln.startswith("warning: ")]
        assert line.startswith("error: ")
        messages = line.removeprefix("error: ").split("; ")
        assert [m.split(" mean ")[0] for m in messages] == [
            f"fig5 {kind} total_cost_per_handoff_interval at sim.mu={mu:g}"
            for mu in MU_SWEEP for kind in THREE]
        assert all(m.split(" is not finite: it is priced by ")[1] == experiments.PRICED_BY[
            "total_cost_per_handoff_interval"] for m in messages)

    @pytest.mark.parametrize("kind", ["lazy", "pessimistic"])
    def test_a_zero_hop_load_costs_no_wired_nan(self, tmp_path, capsys, kind):
        # A fragment fetched from the restart BS itself crosses no wire. At
        # C_1 = 1e307 its rho * n * C_1 overflows, and inf * 0 hops would
        # book a nan wired cost, so the recovery totals would read nan.
        path = tmp_path / "big.cfg"
        path.write_text("cost.C_1 = 1e307\nrecovery.deadline = 42\n"
                        "sim.horizon = 2000\nsim.replications = 2\n", encoding="utf-8")
        cfg = parse_config(str(path))
        for rep in range(cfg.sim.replications):
            trace = []
            engine.run_simulation(cfg, kind, engine.split_seed(cfg.sim.seed, rep), trace=trace)
            assert not [(t, ev, delta) for t, ev, delta in trace
                        if any(math.isnan(v) for v in astuple(delta))], rep
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["simulate", "--strategy", kind, "--config", str(path)]) == 1
        messages = capsys.readouterr().err.removeprefix("error: ").split("; ")
        assert [m for m in messages if m.startswith("total_recovery_cost ")] == [
            f"total_recovery_cost mean inf ci95 [nan, nan] is not finite: it is priced by "
            f"{experiments.PRICED_BY['total_recovery_cost']}"]

    def test_a_figure_overflow_is_rejected_before_its_csv(self, tmp_path, capsys):
        # Every handoff cost overflows: written out, its rows would read
        # inf,nan,nan, and fig3's slope fit would warn.
        path = tmp_path / "big.cfg"
        path.write_text("cost.C_m = 1e308\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["figure", "fig3", "--reps", "2", "--config", str(path),
                             "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out" / "fig3.csv").exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")
        messages = line.removeprefix("error: ").split("; ")
        assert [m.split(" mean ")[0] for m in messages] == [
            f"fig3 {kind} handoff_cost_per_handoff at sim.mu={mu:g}"
            for mu in MU_SWEEP for kind in ("lazy", "pessimistic", "proposed")]
        assert all(m.split(" is not finite: it is priced by ")[1] == experiments.PRICED_BY[
            "handoff_cost_per_handoff"] and "cost.C_m" in m for m in messages)

    def test_an_undefined_frcr_is_written_as_nan(self, tmp_path, capsys):
        # Both investment costs are 0, so every FRCR sample is empty: the
        # documented undefined ratio, not an overflow.
        path = tmp_path / "tie.cfg"
        path.write_text("cost.T_load_ckpt = 0\ncost.T_load_log = 0\ncost.C_p = 0\n"
                        "recovery.deadline = 50\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["figure", "fig8", "--reps", "2", "--config", str(path),
                             "--out", str(tmp_path)]) == 0
        rows = [ln.split(",") for ln in (tmp_path / "fig8.csv").read_text().splitlines()
                if ",frcr," in ln]
        assert len(rows) == len(T_C_SWEEP)
        assert all(row[5:8] == ["nan", "nan", "nan"] for row in rows)

    def test_an_frcr_overflow_names_the_rates_it_reads(self, tmp_path, capsys):
        # A subnormal failure rate overflows both investment costs, so every
        # FRCR row is NaN; its message names the rate with the cost keys.
        path = tmp_path / "rare.cfg"
        path.write_text("sim.lambda_f = 5e-324\n", encoding="utf-8")
        assert cli.main(["figure", "fig8", "--reps", "2", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out" / "fig8.csv").exists()
        [line] = capsys.readouterr().err.splitlines()
        messages = line.removeprefix("error: ").split("; ")
        assert [m.split(" mean ")[0] for m in messages] == [
            f"fig8 proposed-vs-lazy frcr at sim.T_c={t_c:g}" for t_c in T_C_SWEEP]
        assert all("sim.lambda_f" in m.split(" is not finite: it is priced by ")[1] for m in messages)

    def test_analytic_prints_the_ratio_of_probabilities(self, capsys):
        assert cli.main(["analytic", "--p-prop", "0.9", "--p-lazy", "0.5"]) == 0
        frcr = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("frcr ")]
        cfg = default_config()
        expected = analytic.build_report(cfg.sim, cfg.cost, p_prop=0.9, p_lazy=0.5).frcr
        assert len(frcr) == 1
        assert float(frcr[0].split()[1]) == pytest.approx(expected)

    def test_validation_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("sim.mu = -2\n", encoding="utf-8")
        assert cli.main(["analytic", "--config", str(bad)]) == 1

    def test_auto_deadline_of_zero_is_located(self, tmp_path, capsys):
        # Every term the auto deadline is calibrated from is 0, so it is 0.
        bad = tmp_path / "free.cfg"
        bad.write_text(
            "cost.T_load_ckpt = 0\ncost.T_load_log = 0\ncost.C_c = 0\ncost.C_m = 0\n"
            "cost.C_1 = 0\n",
            encoding="utf-8",
        )
        assert cli.main(["simulate", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: recovery.deadline = auto calibrated to 0 because every "
                              "load time and transfer cost is 0")
        assert "set an explicit recovery.deadline" in err
        assert "recovery_deadline must be > 0" not in err

    @pytest.mark.parametrize("text, message", [
        ("cost.C_1 = 1e308\n",
         "recovery.deadline = auto calibrated to inf because it overflows (cost.T_load_ckpt, "
         "cost.T_load_log, cost.C_c, cost.C_m, and cost.C_1 at the expected log size); set an "
         "explicit recovery.deadline"),
        # A violation of a key on its own is reported before the calibration.
        ("cost.C_1 = 1e308\nsim.mu = 0\n", "sim.mu must be > 0"),
    ], ids=["alone", "with_zero_mu"])
    def test_auto_deadline_that_overflows_is_located(self, capsys, tmp_path, text, message):
        bad = tmp_path / "huge.cfg"
        bad.write_text(text, encoding="utf-8")
        self.assert_one_error(capsys, ["simulate", "--config", str(bad)], message)

    def test_unknown_key_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("wat = 1\n", encoding="utf-8")
        assert cli.main(["simulate", "--config", str(bad)]) == 1

    def test_provenance_contains_deadline_per_point(self):
        cfg = default_config()
        spec = figure_spec("fig6", cfg, reps=2)
        lines = provenance_lines(spec, cfg)
        assert any("recovery.deadline per sweep point" in ln for ln in lines)

    def test_write_figure_builds_each_point_once(self, tmp_path, monkeypatch):
        # One base config under the figure's overrides, then one per sweep
        # value: the warnings, the run and the provenance share them.
        made = []
        original = Config.with_overrides

        def counting(cfg, overrides):
            made.append(overrides)
            return original(cfg, overrides)

        cfg = default_config().with_overrides({"sim.horizon": 1000.0})
        monkeypatch.setattr(Config, "with_overrides", counting)
        spec = figure_spec("fig3", cfg, reps=1)
        made.clear()
        path, rows, _, _ = experiments.write_figure("fig3", cfg, tmp_path, reps=1)
        assert made == [spec.overrides] + [{spec.swept_param: v} for v in spec.sweep_values]
        assert rows == run_figure(spec, cfg)
        assert path.read_text(encoding="utf-8").startswith(
            "".join(f"# {line}\n" for line in provenance_lines(spec, cfg)))

    def test_io_error_exit_code(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x", encoding="utf-8")
        cfg_file = tmp_path / "small.cfg"
        cfg_file.write_text("sim.horizon = 1500\n", encoding="utf-8")
        code = cli.main([
            "figure", "fig3", "--config", str(cfg_file),
            "--out", str(blocker / "sub"), "--reps", "1",
        ])
        assert code == 2

    def test_trend_violation_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "check_trends", lambda fid, rows: ["synthetic"])
        cfg_file = tmp_path / "small.cfg"
        cfg_file.write_text("sim.horizon = 1500\n", encoding="utf-8")
        code = cli.main([
            "figure", "fig3", "--config", str(cfg_file),
            "--out", str(tmp_path / "out"), "--reps", "1", "--assert-trends",
        ])
        assert code == 3

    @staticmethod
    def assert_one_error(capsys, argv, message):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command, text, product", [
        ("analytic", "sim.lambda_w = 0.001\n", "0.001 * 100 = 0.1"),
        ("crosscheck", "sim.lambda_w = 0\n", "0 * 100 = 0"),
        ("analytic", "sim.T_c = 1\n", "0.5 * 1 = 0.5"),
    ], ids=["analytic-lambda_w", "crosscheck-lambda_w-zero", "analytic-T_c"])
    def test_closed_form_names_the_keys_of_k(self, capsys, tmp_path, command, text, product):
        cfg_file = tmp_path / "few.cfg"
        cfg_file.write_text(text, encoding="utf-8")
        self.assert_one_error(
            capsys, [command, "--config", str(cfg_file)],
            "k_expected = sim.lambda_w * sim.T_c must be >= 1 for the closed-form handoff "
            f"cost, got {product}",
        )

    def test_simulate_accepts_k_below_one(self, capsys, tmp_path):
        cfg_file = tmp_path / "few.cfg"
        cfg_file.write_text("sim.lambda_w = 0.001\nsim.horizon = 1000\nsim.replications = 2\n",
                            encoding="utf-8")
        assert cli.main(["simulate", "--config", str(cfg_file)]) == 0
        assert "write_count" in capsys.readouterr().out

    @pytest.mark.parametrize("text, message", CONFIG_ERRORS)
    def test_config_errors_name_the_key(self, capsys, tmp_path, text, message):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(text + "\n", encoding="utf-8")
        self.assert_one_error(capsys, ["simulate", "--config", str(cfg_file)], message)

    def test_every_bounded_row_has_an_error_case(self):
        rows = [f for cls in (SimParams, CostParams, NetworkTree) for f in fields(cls)
                if f.metadata]
        assert [f.metadata["key"] for f in rows] == list(CONFIG_KEYS)
        cased = {text.partition(" = ")[0] for text, _ in CONFIG_ERRORS}
        assert {f.metadata["key"] for f in rows if f.metadata["bound"]} <= cased

    @pytest.mark.parametrize("seed", ["-5", str(2**64)])
    def test_config_seed_outside_64_bits_is_rejected(self, capsys, tmp_path, seed):
        cfg_file = tmp_path / "seed.cfg"
        cfg_file.write_text(f"sim.seed = {seed}\n", encoding="utf-8")
        self.assert_one_error(capsys, ["simulate", "--config", str(cfg_file)],
                              f"sim.seed must be in [0, 2**64), got {seed}")

    @pytest.mark.parametrize("command", [["simulate"], ["figure", "fig3"], ["crosscheck"]],
                             ids=["simulate", "figure", "crosscheck"])
    @pytest.mark.parametrize("seed", ["-5", str(2**64)])
    def test_seed_flag_outside_64_bits_is_rejected(self, capsys, tmp_path, command, seed):
        out = tmp_path / "out"
        argv = [*command, "--seed", seed, *(["--out", str(out)] if command[0] == "figure" else [])]
        self.assert_one_error(capsys, argv, f"--seed must be in [0, 2**64), got {seed}")
        assert not out.exists()

    @pytest.mark.parametrize("intervals, message", [
        ("0", "--intervals must be >= 1, got 0"),
        ("-1", "--intervals must be >= 1, got -1"),
        (str(cli.MAX_INTERVALS + 1), f"--intervals must be <= {cli.MAX_INTERVALS}, "
                                     f"got {cli.MAX_INTERVALS + 1}"),
        (str(2**63), f"--intervals must be <= {cli.MAX_INTERVALS}, got {2**63}"),
    ], ids=["zero", "negative", "just-past-bound", "huge"])
    def test_intervals_flag_outside_bounds_is_named(self, capsys, monkeypatch, intervals,
                                                    message):
        # Rejected before the estimators allocate anything.
        monkeypatch.setattr(cli, "crosscheck_analytic", None)
        self.assert_one_error(capsys, ["crosscheck", "--intervals", intervals], message)

    def test_intervals_bound_is_inclusive(self):
        assert cli.MAX_INTERVALS == 10_000_000
        check_count("--intervals", cli.MAX_INTERVALS, cli.MAX_INTERVALS)


class TestRegimeWarning:
    """lambda_f >= mu is accepted but stresses the model; each entry point
    says so once on stderr, and the CSV bytes do not change."""

    STRESSED = "sim.lambda_f = 0.02\nsim.mu = 0.01\nsim.horizon = 500\nsim.replications = 2\n"
    MESSAGE = "single-failure assumption stressed: lambda_f=0.02 >= mu=0.01"

    def config_file(self, tmp_path):
        path = tmp_path / "stressed.cfg"
        path.write_text(self.STRESSED, encoding="utf-8")
        return str(path)

    def test_simulate_prints_the_warning_once(self, capsys, tmp_path):
        assert cli.main(["simulate", "--config", self.config_file(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert err == f"warning: {self.MESSAGE}\n"

    def test_figure_names_each_sweep_point(self, capsys, tmp_path):
        args = ["figure", "fig3", "--config", self.config_file(tmp_path),
                "--out", str(tmp_path), "--reps", "1"]
        assert cli.main(args) == 0
        err = capsys.readouterr().err.splitlines()
        # fig3 sweeps mu over 0.005 ... 0.1; lambda_f=0.02 reaches it at three points.
        assert err == [
            "warning: fig3 at sim.mu=0.005: single-failure assumption stressed: "
            "lambda_f=0.02 >= mu=0.005",
            f"warning: fig3 at sim.mu=0.01: {self.MESSAGE}",
            "warning: fig3 at sim.mu=0.02: single-failure assumption stressed: "
            "lambda_f=0.02 >= mu=0.02",
        ]
        assert "warning" not in (tmp_path / "fig3.csv").read_text(encoding="utf-8")

    def test_figure_groups_points_that_share_a_warning(self, capsys, tmp_path):
        args = ["figure", "fig7", "--config", self.config_file(tmp_path),
                "--out", str(tmp_path), "--reps", "1"]
        assert cli.main(args) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"warning: fig7 at sim.T_c=50,200,500,1000,2000,4000: {self.MESSAGE}"
        ]

    def test_run_figures_script_prints_the_warning(self, capsys, tmp_path, monkeypatch):
        module = load_script("run_figures")
        monkeypatch.setattr(sys, "argv", [
            "run_figures.py", "--config", self.config_file(tmp_path),
            "--out", str(tmp_path), "--reps", "1", "--figures", "fig5",
        ])
        module.main()
        err = capsys.readouterr().err.splitlines()
        # fig5 overrides lambda_f to 0.05, which reaches mu at four of its points.
        assert [line.split(":")[1] for line in err] == [
            " fig5 at sim.mu=0.005", " fig5 at sim.mu=0.01",
            " fig5 at sim.mu=0.02", " fig5 at sim.mu=0.05",
        ]

    @pytest.mark.parametrize("command", [["analytic"], ["crosscheck", "--intervals", "1000"]],
                             ids=["analytic", "crosscheck"])
    def test_closed_form_commands_print_the_warning_once(self, capsys, tmp_path, command):
        # The closed-form p02 is where the single-failure assumption bites.
        assert cli.main([*command, "--config", self.config_file(tmp_path)]) == 0
        out, err = capsys.readouterr()
        assert err == f"warning: {self.MESSAGE}\n"
        assert "warning" not in out

    def test_defaults_print_no_warning(self, capsys, tmp_path):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("sim.horizon = 500\nsim.replications = 1\n", encoding="utf-8")
        assert cli.main(["simulate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == ""


def test_run_figures_script_rejects_unknown_ids_before_running(capsys, tmp_path, monkeypatch):
    module = load_script("run_figures")
    monkeypatch.setattr(sys, "argv", [
        "run_figures.py", "--out", str(tmp_path), "--reps", "1", "--figures", "fig3,fig9",
    ])
    with pytest.raises(SystemExit) as exc:
        module.main()
    assert exc.value.code == 2
    assert "unknown figure id(s) fig9; choose from fig3, fig4, fig5, fig6, fig7, fig8" in (
        capsys.readouterr().err
    )
    assert list(tmp_path.iterdir()) == []


def test_run_figures_script_writes_a_manifest(tmp_path, monkeypatch):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("sim.horizon = 500\n", encoding="utf-8")
    out = tmp_path / "out"
    module = load_script("run_figures")
    monkeypatch.setattr(sys, "argv", [
        "run_figures.py", "--config", str(cfg), "--out", str(out), "--reps", "2",
        "--figures", "fig8",
    ])
    module.main()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert set(manifest) == {"python", "numpy", "scipy", "cpu_count", "figures"}
    assert manifest["cpu_count"] == os.cpu_count()
    fig8 = manifest["figures"]["fig8"]
    assert set(fig8) == {"wall_s", "runs", "reps", "warnings"}
    assert fig8["warnings"] == {}
    # Six sweep points, proposed and lazy, two replications each.
    assert (fig8["runs"], fig8["reps"]) == (6 * 2 * 2, 2)
    assert fig8["wall_s"] > 0
    # Timings stay out of the CSV.
    assert "wall" not in (out / "fig8.csv").read_text(encoding="utf-8")
    assert sorted(p.name for p in out.iterdir()) == ["fig8.csv", "manifest.json"]


def test_run_figures_script_writes_the_warnings_to_the_manifest(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "warn.cfg"
    cfg.write_text("sim.horizon = 500\nsim.lambda_f = 0.01\n", encoding="utf-8")
    out = tmp_path / "out"
    module = load_script("run_figures")
    monkeypatch.setattr(sys, "argv", [
        "run_figures.py", "--config", str(cfg), "--out", str(out), "--reps", "1",
        "--figures", "fig3",
    ])
    module.main()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    # fig3 sweeps mu over 0.005 ... 0.1; lambda_f=0.01 reaches it at two points.
    stressed = "single-failure assumption stressed: lambda_f=0.01 >= mu="
    assert manifest["figures"]["fig3"]["warnings"] == {
        f"{stressed}0.005": ["0.005"],
        f"{stressed}0.01": ["0.01"],
    }
    # The same collection goes to stderr, one line a warning.
    assert capsys.readouterr().err.splitlines() == [
        f"warning: fig3 at sim.mu=0.005: {stressed}0.005",
        f"warning: fig3 at sim.mu=0.01: {stressed}0.01",
    ]
    assert "warning" not in (out / "fig3.csv").read_text(encoding="utf-8")


def test_run_figures_script_reports_a_bad_config_in_one_line(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("topology.inter_msc_hops = 1\n", encoding="utf-8")
    out = tmp_path / "out"
    module = load_script("run_figures")
    monkeypatch.setattr(sys, "argv", [
        "run_figures.py", "--config", str(cfg), "--out", str(out), "--figures", "fig3",
    ])
    assert module.main() == 1
    assert capsys.readouterr().err == (
        "error: topology.inter_msc_hops must be >= 2, got 1\n"
    )
    assert not out.exists()


def test_run_figures_script_reports_bad_reps_as_the_cli_does(capsys, tmp_path, monkeypatch):
    out = tmp_path / "out"
    module = load_script("run_figures")
    monkeypatch.setattr(sys, "argv", ["run_figures.py", "--out", str(out), "--reps", "0"])
    assert module.main() == 1
    assert capsys.readouterr().err == "error: --reps must be >= 1, got 0\n"
    assert not out.exists()
    assert cli.main(["figure", "fig3", "--out", str(out), "--reps", "0"]) == 1
    assert capsys.readouterr().err == "error: --reps must be >= 1, got 0\n"
    assert not out.exists()


def test_run_figures_script_reports_an_unwritable_out_as_the_cli_does(capsys, tmp_path, monkeypatch):
    notadir = tmp_path / "notadir"
    notadir.write_text("a file\n", encoding="utf-8")
    out = str(notadir / "x")
    module = load_script("run_figures")
    monkeypatch.setattr(sys, "argv", ["run_figures.py", "--out", out, "--figures", "fig3"])
    assert module.main() == 2
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert cli.main(["figure", "fig3", "--out", out]) == 2
    assert capsys.readouterr().err == err


def test_bench_script_counts_source_lines_as_wc_does(tmp_path):
    pkg = tmp_path / "src" / "mhlogsim"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (pkg / "b.py").write_text("z = 3", encoding="utf-8")  # no final newline: wc counts 0
    (pkg / "notes.txt").write_text("not counted\n", encoding="utf-8")
    assert load_script("bench").src_lines(tmp_path) == 2


class TestAbSignTest:
    """``scripts/ab.py``'s exact two-sided sign test, against scipy's
    binomial test at p = 1/2 and at the counts a 10-pair run can give."""

    @settings(max_examples=100, deadline=None)
    @given(wins=st.integers(0, 60), losses=st.integers(0, 60))
    def test_equals_scipys_binomial_test(self, wins, losses):
        from scipy.stats import binomtest

        p = load_script("ab").sign_test(wins, losses)
        expected = binomtest(wins, wins + losses, 0.5).pvalue if wins + losses else 1.0
        assert p == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("wins, losses, p", [
        (10, 0, 2 / 1024), (0, 10, 2 / 1024), (9, 1, 22 / 1024), (5, 5, 1.0), (0, 0, 1.0),
    ])
    def test_ten_pairs(self, wins, losses, p):
        assert load_script("ab").sign_test(wins, losses) == p


class TestAbRuns:
    """What ``scripts/ab.py`` hands each run and what it accepts back,
    with the subprocesses replaced by records."""

    def test_the_seed_and_run_length_reach_run_py(self, monkeypatch, tmp_path):
        bench = load_script("bench")
        calls = []

        def run(cmd, **kwargs):
            calls.append(cmd[1:])
            return bench.subprocess.CompletedProcess(cmd, 0, stdout='{"correct": true}\n')

        monkeypatch.setattr(bench.subprocess, "run", run)
        assert bench.benchmark(tmp_path, "long-log", 0, 2.0, 2024) == {"correct": True}
        assert bench.benchmark(tmp_path, "long-log", 0) == {"correct": True}
        assert calls == [
            ["benchmarks/run.py", "--workload", "long-log", "--trace", "0", "--seconds", "2.0",
             "--seed", "2024"],
            ["benchmarks/run.py", "--workload", "long-log", "--trace", "0"]]

    @pytest.mark.parametrize("exit_code, digest, accepted", [
        (1, "ab", True), (0, "ab", True), (2, "ab", False), (1, "cd", False),
    ], ids=["trend-violations", "clean", "error", "off-pin"])
    def test_a_figures_run_is_held_to_its_pins(self, monkeypatch, tmp_path, exit_code, digest,
                                               accepted):
        ab = load_script("ab")
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "figures.sha256").write_text("ab  fig3.csv\n", encoding="utf-8")
        monkeypatch.setattr(ab, "figures", lambda root: {
            "wall_s": 2.5, "exit_code": exit_code, "csv_sha256": {"fig3.csv": digest},
            "manifest": {"figures": {"fig3": {"wall_s": 0.5}}}})
        if accepted:
            assert ab.figures_once(tmp_path) == {"total": 2.5, "fig3": 0.5}
        else:
            with pytest.raises(SystemExit, match="^error: in "):
                ab.figures_once(tmp_path)
