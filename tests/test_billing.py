import math

import numpy as np
import pytest

from gridwatch.billing import TariffSchedule, accrue, issue_bills
from gridwatch.errors import ConfigurationError, InputError


def bill(reports, rate, month_len=None):
    """Bills of a ``(periods, consumers)`` reports matrix at a flat rate, one month by default."""
    reports = np.asarray(reports, dtype=float)
    month_len = month_len or reports.shape[0]
    costs = accrue(reports, np.full(reports.shape[0], rate), month_len)
    return issue_bills(costs, list(range(reports.shape[1])), month_len)


class TestTariffSchedule:
    def test_flat(self):
        t = TariffSchedule.flat(2.5)
        assert t.per_period(1000).tolist() == [2.5] * 1000

    def test_vector(self):
        t = TariffSchedule.from_vector([1.0, 2.0, 3.0], total_periods=3)
        assert t.per_period(3).tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(InputError):
            t.per_period(4)

    def test_vector_length_enforced(self):
        with pytest.raises(ConfigurationError):
            TariffSchedule.from_vector([1.0, 2.0], total_periods=3)

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            TariffSchedule.flat(-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            TariffSchedule.flat(value)
        with pytest.raises(ConfigurationError, match="finite"):
            TariffSchedule.from_vector([1.0, value], total_periods=2)

    def test_exactly_one_form(self):
        with pytest.raises(ConfigurationError):
            TariffSchedule(flat_rate=1.0, rates=(1.0,))
        with pytest.raises(ConfigurationError):
            TariffSchedule()


class TestAccrue:
    def test_zero_tariff_leaves_ledger_unchanged(self):
        costs = accrue(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), np.zeros(2), 2)
        assert costs.tolist() == [[0.0, 0.0, 0.0]]

    def test_flat_tariff_linear_in_usage(self):
        usage = [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]
        costs = accrue(np.array(usage), np.full(3, 2.0), 3)
        assert costs[0, 0] == pytest.approx(2.0 * 6.0)
        assert costs[0, 1] == pytest.approx(2.0 * 15.0)

    def test_underreporting_scales_bill(self):
        # a consumer reporting a tenth owes a tenth of the honest bill
        honest = bill([[3.0, 1.0], [5.0, 1.0]], 1.5)
        cheat = bill([[0.3, 1.0], [0.5, 1.0]], 1.5)
        assert cheat[0].amount == pytest.approx(0.1 * honest[0].amount)
        assert cheat[1].amount == honest[1].amount

    def test_period_outside_window(self):
        # periods past the last whole month belong to no bill: rejected, not dropped
        with pytest.raises(InputError, match="whole number"):
            accrue(np.ones((5, 3)), np.ones(5), 4)
        with pytest.raises(InputError):
            accrue(np.ones((4, 3)), np.ones(4), 0)

    def test_duplicate_period(self):
        # each period is billed once, in its own month: raising one period's
        # report by d raises that month's cost by exactly rate * d
        reports = np.full((6, 2), 0.5)
        bumped = reports.copy()
        bumped[4, 1] += 2.0
        rates = np.array([1.0, 1.0, 1.0, 1.0, 0.25, 1.0])
        delta = accrue(bumped, rates, 3) - accrue(reports, rates, 3)
        assert delta.tolist() == [[0.0, 0.0], [0.0, 0.5]]

    def test_report_count_mismatch(self):
        # one rate per period
        with pytest.raises(InputError):
            accrue(np.ones((4, 3)), np.ones(3), 4)

    def test_order_independence(self):
        # dyadic rationals make the additions exact, so permuted period
        # order must give bit-identical costs
        rng = np.random.default_rng(5)
        reports = rng.integers(0, 4096, size=(8, 3)) / 1024.0
        permuted = reports[[5, 2, 7, 0, 3, 6, 1, 4]]
        assert accrue(reports, np.ones(8), 8).tobytes() == accrue(permuted, np.ones(8), 8).tobytes()


class TestIssueBills:
    def test_untouched_ledger_issues_zero_bills(self):
        bills = bill(np.zeros((4, 3)), 1.0)
        assert [b.amount for b in bills] == [0.0, 0.0, 0.0]

    def test_equal_usage_equal_bills(self):
        bills = bill([[3.0, 3.0], [3.0, 3.0]], 1.2)
        assert bills[0].amount == bills[1].amount

    def test_reset_advances_window(self):
        # each month starts where the last ended and bills only its own periods
        bills = bill([[1.0, 2.0], [1.0, 2.0], [4.0, 8.0], [4.0, 8.0]], 1.0, month_len=2)
        windows = [(b.window_start, b.window_end) for b in bills]
        assert windows == [(0, 2), (0, 2), (2, 4), (2, 4)]
        assert [b.amount for b in bills] == [2.0, 4.0, 8.0, 16.0]
        assert [b.consumer_id for b in bills] == [0, 1, 0, 1]

    def test_total_conservation(self):
        # sum of bills equals sum over periods of tariff * reported_total
        rng = np.random.default_rng(9)
        periods, n = 30, 5
        reports = rng.uniform(0.0, 2.0, size=(periods, n))
        rates = rng.uniform(0.5, 2.0, size=periods)
        costs = accrue(reports, TariffSchedule.from_vector(rates, periods).per_period(periods), 10)
        bills = issue_bills(costs, list(range(n)), 10)
        total = sum(b.amount for b in bills)
        expected = float((rates * reports.sum(axis=1)).sum())
        assert total == pytest.approx(expected, rel=1e-9)
