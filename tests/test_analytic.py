import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mhlogsim.analytic import (
    avg_handoff_cost,
    build_report,
    c_lazy,
    c_prop,
    expected_lazy_handoff_cost,
    expected_pessimistic_handoff_cost,
    frcr,
    log_transfer_ops,
    markov_probs,
    recovery_cost,
    total_cost,
    total_handoff_cost,
)
from mhlogsim.config import default_config
from mhlogsim.engine import run_simulation, split_seed, summarize
from mhlogsim.experiments import figure_spec
from mhlogsim.model import CostParams, SimParams

REL = 1e-12


class TestMarkovProbs:
    def test_hand_evaluation(self):
        p01, p02 = markov_probs(1.0, 3.0)
        assert p01 == pytest.approx(0.75, rel=REL)
        assert p02 == pytest.approx(0.25, rel=REL)

    def test_no_failures(self):
        assert markov_probs(0.0, 0.01) == (1.0, 0.0)

    def test_symmetry(self):
        assert markov_probs(0.42, 0.42) == (0.5, 0.5)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            markov_probs(0.0, 0.0)

    def test_probabilities_sum_to_one_over_random_inputs(self):
        rng = np.random.Generator(np.random.PCG64(0))
        lf = rng.uniform(0.0, 10.0, 10_000)
        mu = rng.uniform(1e-9, 10.0, 10_000)
        for a, b in zip(lf, mu):
            p01, p02 = markov_probs(float(a), float(b))
            assert abs(p01 + p02 - 1.0) <= 1e-12


class TestHandoffCosts:
    def test_avg_cost_empty_log(self):
        assert avg_handoff_cost(0.0, CostParams()) == pytest.approx(5.5, rel=REL)

    def test_avg_cost_hand_values(self):
        cp = CostParams()
        assert avg_handoff_cost(2.0, cp) == pytest.approx(7.5, rel=REL)
        assert avg_handoff_cost(9.5, CostParams(c_1=2.0)) == pytest.approx(24.5, rel=REL)

    def test_total_cost_hand_value(self):
        assert total_handoff_cost(5.0, 2.0, CostParams()) == pytest.approx(9.1, rel=REL)

    def test_total_cost_r_zero_kills_amortized_term(self):
        cp = CostParams(r=0.0)
        got = total_handoff_cost(1.0, 0.0, cp)
        assert got == pytest.approx(cp.rho * cp.alpha * 1.5 + 5.5, rel=REL)

    def test_total_cost_linear_in_message_cost(self):
        base = total_handoff_cost(5.0, 2.0, CostParams(c_1=1.0))
        doubled = total_handoff_cost(5.0, 2.0, CostParams(c_1=2.0))
        cp = CostParams()
        assert doubled - base == pytest.approx(2.0 + cp.rho * cp.alpha, rel=1e-9)

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            total_handoff_cost(0.5, 0.0, CostParams())

    @given(st.floats(1.0, 100.0), st.floats(0.0, 50.0))
    def test_linear_in_each_constant_by_finite_difference(self, k, eta):
        cp0 = CostParams(c_c=2.0)
        cp1 = CostParams(c_c=3.0)
        diff = total_handoff_cost(k, eta, cp1) - total_handoff_cost(k, eta, cp0)
        expected = cp0.r * cp0.alpha / k + 1.0
        assert diff == pytest.approx(expected, rel=1e-9)


class TestRecoveryCost:
    def test_hand_value(self):
        assert recovery_cost(2.0, CostParams()) == pytest.approx(0.75, rel=REL)

    def test_zero_ratio(self):
        assert recovery_cost(2.0, CostParams(r=0.0)) == 0.0

    def test_empty_log_floor(self):
        cp = CostParams()
        assert recovery_cost(0.0, cp) == pytest.approx(cp.r * (cp.c_c + cp.c_m), rel=REL)


class TestTotalCost:
    def test_hand_value(self):
        assert total_cost(0.5, 0.5, 9.1, 0.75) == pytest.approx(4.925, rel=REL)

    def test_degenerate_weights(self):
        assert total_cost(1.0, 0.0, 7.0, 3.0) == 7.0
        assert total_cost(0.0, 1.0, 7.0, 3.0) == 3.0

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            total_cost(0.6, 0.6, 1.0, 1.0)


class TestLogTransferOps:
    def test_empty_sum(self):
        assert log_transfer_ops(100.0, 0.001, 0.01) == 0.0

    def test_literal_bound_hand_value(self):
        assert log_transfer_ops(2000.0, 0.001, 0.01) == pytest.approx(30.0, rel=REL)

    def test_erratum_bound_hand_value(self):
        got = log_transfer_ops(100.0, 0.001, 0.05, erratum_bound=True)
        assert got == pytest.approx((0.05 / 0.001) * 5 * 6 / 2, rel=REL)
        assert got == pytest.approx(750.0, rel=REL)


class TestInvestmentCosts:
    def test_c_prop_checkpoint_term_only(self):
        cp = CostParams()
        # bound below one write: the sum is empty and the prefactor cancels
        assert c_prop(100.0, 0.001, 0.01, cp) == pytest.approx(cp.r * cp.t_load_ckpt, rel=REL)

    def test_c_prop_hand_value(self):
        assert c_prop(2000.0, 0.001, 0.01, CostParams()) == pytest.approx(2.5, rel=REL)

    def test_c_prop_linear_in_log_load_time(self):
        cp1 = CostParams(t_load_log=1.0)
        cp2 = CostParams(t_load_log=2.0)
        base = c_prop(2000.0, 0.001, 0.01, cp1)
        doubled = c_prop(2000.0, 0.001, 0.01, cp2)
        first_term = 0.1 * 10.0
        assert doubled - base == pytest.approx(base - first_term, rel=1e-9)

    def test_c_lazy_reduces_to_investment_constant(self):
        assert c_lazy(50.0, 0.002, CostParams(c_p=7.0)) == pytest.approx(7.0, rel=REL)
        assert c_lazy(100.0, 0.001, CostParams(c_p=3.0)) == pytest.approx(3.0, rel=REL)
        assert c_lazy(100.0, 0.001, CostParams(c_p=0.0)) == 0.0

    @given(st.floats(1.0, 10_000.0), st.floats(1e-6, 1.0), st.floats(0.0, 100.0))
    def test_c_lazy_independent_of_interval_and_rate(self, t_c, lf, investment):
        got = c_lazy(t_c, lf, CostParams(c_p=investment))
        assert got == pytest.approx(investment, rel=1e-9, abs=1e-12)


class TestFrcr:
    def test_zero_numerator(self):
        assert frcr(0.4, 0.4, 2.0, 1.0) == 0.0

    def test_hand_value(self):
        assert frcr(0.9, 0.6, 2.5, 1.5) == pytest.approx(0.3, rel=REL)

    def test_equal_costs_undefined(self):
        assert frcr(0.9, 0.6, 2.0, 2.0) is None


def test_estimated_interval_probs_converge_to_closed_form():
    from mhlogsim.engine import failure_first

    sp = SimParams(lambda_f=0.004, mu=0.02)
    p01_a, p02_a = markov_probs(sp.lambda_f, sp.mu)
    p02_e = float(np.mean(failure_first(sp, 6, 100_000)))
    p01_e = 1.0 - p02_e
    assert abs(p01_e - p01_a) < 0.02
    assert abs(p02_e - p02_a) < 0.02


class TestBuildReport:
    def test_report_wires_shared_eta(self):
        sp = SimParams(lambda_w=0.05, t_c=100.0)  # k = 5, eta = 2
        report = build_report(sp, CostParams())
        assert report.k_expected == pytest.approx(5.0)
        assert report.eta == pytest.approx(2.0)
        assert report.c01 == pytest.approx(9.1, rel=REL)
        assert report.c_r == pytest.approx(0.75, rel=REL)
        assert report.p01 + report.p02 == pytest.approx(1.0)
        assert report.frcr is None

    def test_report_with_measured_probabilities(self):
        sp = SimParams(lambda_w=0.05, t_c=2000.0)
        report = build_report(sp, CostParams(), p_prop=0.9, p_lazy=0.6)
        assert report.c_prop == pytest.approx(2.5, rel=REL)
        assert report.c_lazy == pytest.approx(3.0, rel=REL)
        assert report.frcr == pytest.approx((0.9 - 0.6) / (2.5 - 3.0), rel=REL)

    def test_text_and_csv_render(self):
        report = build_report(SimParams(), CostParams())
        assert "undefined" in report.as_text()
        row = report.as_csv_row()
        assert len(row.split(",")) == len(report.CSV_HEADER.split(","))


class TestSimulatorExpectations:
    def test_lazy_handoff_hand_value(self):
        # One pointer message per handoff, whatever the network or the rates.
        assert expected_lazy_handoff_cost(default_config()) == 0.5
        cfg = default_config().with_overrides(
            {"cost.C_m": 2.0, "sim.mu": 3.0, "topology.msc": 2, "topology.adjacency": "grid"}
        )
        assert expected_lazy_handoff_cost(cfg) == 2.0

    def test_fig3_lazy_handoff_cost_is_the_expectation_exactly(self, figure_rows):
        # C_m = 0.5 is dyadic, so every sum of handoff costs, their mean per
        # run and the replications' mean are exact; equal runs give a
        # zero-width interval.
        cfg = default_config()
        spec = figure_spec("fig3", cfg)
        rows = [r for r in figure_rows("fig3") if r.strategy == "lazy"]
        assert [r.param_value for r in rows] == list(spec.sweep_values)
        for row in rows:
            point = cfg.with_overrides({**spec.overrides, spec.swept_param: row.param_value})
            expected = expected_lazy_handoff_cost(point)
            assert row.mean == row.ci95_low == row.ci95_high == expected, row.param_value

    def test_pessimistic_handoff_hand_value(self):
        # Defaults: 9-cell ring over three BSCs of one MSC. Six of the 18
        # directed edges cross a region boundary, each a 2-hop BSC gap, so
        # E[hops] = 2 + 2/3 and the cost is 0.5 + (0.5*100/2 + 5) * 8/3.
        assert expected_pessimistic_handoff_cost(default_config()) == pytest.approx(80.5, rel=REL)
        # Two MSCs of one 2-cell BSC each: half the directed edges of the
        # 4-cell ring cross MSCs, at 4 hops, so E[hops] = 2 + 2.
        cfg = default_config().with_overrides(
            {"topology.msc": 2, "topology.bsc_per_msc": 1, "topology.bs_per_bsc": 2}
        )
        assert expected_pessimistic_handoff_cost(cfg) == pytest.approx(0.5 + 30.0 * 4, rel=REL)

    def test_fig3_pessimistic_handoff_cost_matches_the_expectation(self, figure_rows):
        cfg = default_config()
        spec = figure_spec("fig3", cfg)
        rows = [r for r in figure_rows("fig3") if r.strategy == "pessimistic"]
        assert [r.param_value for r in rows] == list(spec.sweep_values)
        for row in rows:
            point = cfg.with_overrides({**spec.overrides, spec.swept_param: row.param_value})
            expected = expected_pessimistic_handoff_cost(point)
            assert row.ci95_low <= expected <= row.ci95_high, (row.param_value, expected)

    def test_replication_intervals_cover_at_their_stated_rate(self):
        # 200 batches of 10 replications, batch b from master seed 1000 + b.
        # If each 95% interval covers the expectation independently, the
        # covering count is Binomial(200, 0.95); [179, 198] is its two-sided
        # 99.9% range, each tail below 0.0005, fixed before any run.
        cfg = default_config().with_overrides({"sim.horizon": 2000.0})
        expected = expected_pessimistic_handoff_cost(cfg)
        covered = 0
        for batch in range(200):
            runs = [run_simulation(cfg, "pessimistic", split_seed(1000 + batch, i))
                    for i in range(10)]
            _, low, high = summarize([r.total_handoff_cost / max(1, r.handoff_count) for r in runs])
            covered += low <= expected <= high
        assert 179 <= covered <= 198, covered
