import pytest
from hypothesis import given
from hypothesis import strategies as st

from mhlogsim.model import (
    CostParams,
    SimParams,
    ValidationError,
    default_recovery_deadline,
    derive_quantities,
    validate_params,
)


class TestValidateParams:
    def test_defaults_validate_without_warnings(self):
        assert validate_params(SimParams(), CostParams()) == []

    def test_zero_mu_is_named(self):
        with pytest.raises(ValidationError, match="mu must be > 0"):
            validate_params(SimParams(mu=0.0), CostParams())

    def test_warns_when_failure_rate_reaches_handoff_rate(self):
        warnings = validate_params(SimParams(lambda_f=0.02, mu=0.01), CostParams())
        assert any("single-failure assumption stressed" in w for w in warnings)

    def test_negative_cost_is_named(self):
        with pytest.raises(ValidationError, match="c_1 must be >= 0"):
            validate_params(SimParams(), CostParams(c_1=-1.0))

    def test_zero_cache_capacity_rejected(self):
        with pytest.raises(ValidationError, match="cache_capacity"):
            validate_params(SimParams(cache_capacity=0), CostParams())

    def test_over_the_event_budget_names_the_field(self):
        with pytest.raises(ValidationError, match=r"^sim_horizon: .* over the budget"):
            validate_params(SimParams(sim_horizon=1e9), CostParams())

    def test_all_violations_reported_together(self):
        with pytest.raises(ValidationError) as exc:
            validate_params(SimParams(mu=-1.0, t_c=0.0), CostParams(r=0.0))
        assert len(exc.value.violations) == 3

    @given(
        lambda_f=st.floats(-1, 1, allow_nan=False),
        mu=st.floats(-1, 1, allow_nan=False),
        t_c=st.floats(-10, 1000, allow_nan=False),
        r=st.floats(-1, 2, allow_nan=False),
    )
    def test_total_every_input_validates_or_names_errors(self, lambda_f, mu, t_c, r):
        sp = SimParams(lambda_f=lambda_f, mu=mu, t_c=t_c)
        cp = CostParams(r=r)
        try:
            validate_params(sp, cp)
        except ValidationError as exc:
            assert exc.violations
        else:
            assert mu > 0 and lambda_f > 0


class TestDeriveQuantities:
    def test_hand_evaluated_expectations(self):
        d = derive_quantities(SimParams(lambda_w=0.05, t_c=100.0))
        assert d.k_expected == pytest.approx(5.0)
        assert d.eta == pytest.approx(2.0)

    def test_single_write_per_interval_gives_zero_log(self):
        d = derive_quantities(SimParams(lambda_w=0.01, t_c=100.0))
        assert d.k_expected == pytest.approx(1.0)
        assert d.eta == 0.0

    def test_second_hand_evaluation(self):
        d = derive_quantities(SimParams(lambda_w=0.2, t_c=100.0))
        assert d.k_expected == pytest.approx(20.0)
        assert d.eta == pytest.approx(9.5)

    def test_eta_floors_at_zero(self):
        d = derive_quantities(SimParams(lambda_w=0.001, t_c=100.0))
        assert d.eta == 0.0

    @given(
        lw1=st.floats(0.0, 1.0),
        lw2=st.floats(0.0, 1.0),
        tc1=st.floats(1.0, 1000.0),
        tc2=st.floats(1.0, 1000.0),
    )
    def test_eta_monotone_in_rate_and_interval(self, lw1, lw2, tc1, tc2):
        lo = derive_quantities(SimParams(lambda_w=min(lw1, lw2), t_c=min(tc1, tc2)))
        hi = derive_quantities(SimParams(lambda_w=max(lw1, lw2), t_c=max(tc1, tc2)))
        assert hi.eta >= lo.eta
        assert lo.eta >= 0.0


def test_default_deadline_matches_default_params():
    # SimParams carries the calibrated value for the default rates.
    assert default_recovery_deadline(SimParams(), CostParams()) == pytest.approx(
        SimParams().recovery_deadline
    )
