import dataclasses
import math
from typing import NamedTuple

import numpy as np
import pytest

from conftest import tiny_config
from gridwatch.billing import TariffSchedule, accrue, issue_bills
from gridwatch.errors import ConfigurationError, InputError


def monthly_costs(reports, rates, month_len):
    """The ``(months, consumers)`` costs of a reports matrix, `accrue` month by month."""
    n = reports.shape[1]
    months = zip(np.reshape(rates, (-1, month_len)), np.reshape(reports, (-1, month_len, n)))
    return np.array([accrue(x, r) for r, x in months])


class Bills(NamedTuple):
    consumer_id: np.ndarray
    window_start: np.ndarray
    window_end: np.ndarray
    amount: np.ndarray


def bill(reports, rate, month_len=None, consumer_ids=None):
    """Bill columns of a ``(periods, consumers)`` reports matrix at a flat rate, one month by default."""
    reports = np.asarray(reports, dtype=float)
    month_len = month_len or reports.shape[0]
    costs = monthly_costs(reports, np.full(reports.shape[0], rate), month_len)
    return Bills(*issue_bills(costs, consumer_ids or list(range(reports.shape[1])), month_len))


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

    def test_scenario_vector_must_cover_its_window(self):
        # a short vector used to be ignored by a trial and to fail mid-run in billing
        cfg = tiny_config()  # 120 periods
        with pytest.raises(ConfigurationError, match="7 rates for a 120-period window"):
            dataclasses.replace(cfg, tariff=TariffSchedule(rates=(1.0,) * 7))
        covering = dataclasses.replace(cfg, tariff=TariffSchedule(rates=(2.0,) * 120))
        with pytest.raises(ConfigurationError, match="120 rates for a 240-period window"):
            dataclasses.replace(covering, months=2)

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
        costs = accrue(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), np.zeros(2))
        assert costs.tolist() == [0.0, 0.0, 0.0]

    def test_flat_tariff_linear_in_usage(self):
        usage = [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]
        costs = accrue(np.array(usage), np.full(3, 2.0))
        assert costs[0] == pytest.approx(2.0 * 6.0)
        assert costs[1] == pytest.approx(2.0 * 15.0)

    def test_underreporting_scales_bill(self):
        # a consumer reporting a tenth owes a tenth of the honest bill
        honest = bill([[3.0, 1.0], [5.0, 1.0]], 1.5)
        cheat = bill([[0.3, 1.0], [0.5, 1.0]], 1.5)
        assert cheat.amount[0] == pytest.approx(0.1 * honest.amount[0])
        assert cheat.amount[1] == honest.amount[1]

    def test_duplicate_period(self):
        # each period is billed once, in its own month: raising one period's
        # report by d raises that month's cost by exactly rate * d
        reports = np.full((6, 2), 0.5)
        bumped = reports.copy()
        bumped[4, 1] += 2.0
        rates = np.array([1.0, 1.0, 1.0, 1.0, 0.25, 1.0])
        delta = monthly_costs(bumped, rates, 3) - monthly_costs(reports, rates, 3)
        assert delta.tolist() == [[0.0, 0.0], [0.0, 0.5]]

    def test_report_count_mismatch(self):
        # one rate per period
        with pytest.raises(InputError):
            accrue(np.ones((4, 3)), np.ones(3))

    def test_order_independence(self):
        # dyadic rationals make the additions exact, so permuted period
        # order must give bit-identical costs
        rng = np.random.default_rng(5)
        reports = rng.integers(0, 4096, size=(8, 3)) / 1024.0
        permuted = reports[[5, 2, 7, 0, 3, 6, 1, 4]]
        assert accrue(reports, np.ones(8)).tobytes() == accrue(permuted, np.ones(8)).tobytes()


class TestIssueBills:
    def test_untouched_ledger_issues_zero_bills(self):
        bills = bill(np.zeros((4, 3)), 1.0)
        assert bills.amount.tolist() == [0.0, 0.0, 0.0]

    def test_equal_usage_equal_bills(self):
        bills = bill([[3.0, 3.0], [3.0, 3.0]], 1.2)
        assert bills.amount[0] == bills.amount[1]

    def test_reset_advances_window(self):
        # each month starts where the last ended and bills only its own periods
        bills = bill([[1.0, 2.0], [1.0, 2.0], [4.0, 8.0], [4.0, 8.0]], 1.0, month_len=2)
        assert list(zip(bills.window_start.tolist(), bills.window_end.tolist())) == [
            (0, 2), (0, 2), (2, 4), (2, 4)
        ]
        assert bills.amount.tolist() == [2.0, 4.0, 8.0, 16.0]
        assert bills.consumer_id.tolist() == [0, 1, 0, 1]

    def test_bills_ordered_by_consumer_id_within_month(self):
        # region order is not id order: each month's bills still go by id
        bills = bill([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]], 1.0, month_len=1, consumer_ids=[7, 2, 5])
        assert bills.consumer_id.tolist() == [2, 5, 7, 2, 5, 7]
        assert bills.amount.tolist() == [2.0, 3.0, 1.0, 2.0, 3.0, 1.0]

    def test_total_conservation(self):
        # sum of bills equals sum over periods of tariff * reported_total
        rng = np.random.default_rng(9)
        periods, n = 30, 5
        reports = rng.uniform(0.0, 2.0, size=(periods, n))
        rates = rng.uniform(0.5, 2.0, size=periods)
        costs = monthly_costs(reports, TariffSchedule.from_vector(rates, periods).per_period(periods), 10)
        bills = Bills(*issue_bills(costs, list(range(n)), 10))
        total = float(bills.amount.sum())
        expected = float((rates * reports.sum(axis=1)).sum())
        assert total == pytest.approx(expected, rel=1e-9)
