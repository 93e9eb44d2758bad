import dataclasses
import math
from typing import NamedTuple

import numpy as np
import pytest

from conftest import tiny_config
from gridwatch.billing import accrue, issue_bills
from gridwatch.errors import ConfigurationError


def monthly_costs(reports, rate, month_len):
    """The ``(months, consumers)`` costs of a reports matrix, `accrue` month by month."""
    return np.array([accrue(x, rate) for x in np.reshape(reports, (-1, month_len, reports.shape[1]))])


class Bills(NamedTuple):
    consumer_id: np.ndarray
    window_start: np.ndarray
    window_end: np.ndarray
    amount: np.ndarray


def bill(reports, rate, month_len=None):
    """Bill columns of a ``(periods, consumers)`` reports matrix at a flat rate, one month by default."""
    reports = np.asarray(reports, dtype=float)
    month_len = month_len or reports.shape[0]
    return Bills(*issue_bills(monthly_costs(reports, rate, month_len), month_len))


class TestTariff:
    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            dataclasses.replace(tiny_config(), tariff=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            dataclasses.replace(tiny_config(), tariff=value)


class TestAccrue:
    def test_zero_tariff_leaves_ledger_unchanged(self):
        costs = accrue(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), 0.0)
        assert costs.tolist() == [0.0, 0.0, 0.0]

    def test_flat_tariff_linear_in_usage(self):
        usage = [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]
        costs = accrue(np.array(usage), 2.0)
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
        delta = monthly_costs(bumped, 0.25, 3) - monthly_costs(reports, 0.25, 3)
        assert delta.tolist() == [[0.0, 0.0], [0.0, 0.5]]

    def test_order_independence(self):
        # dyadic rationals make the additions exact, so permuted period
        # order must give bit-identical costs
        rng = np.random.default_rng(5)
        reports = rng.integers(0, 4096, size=(8, 3)) / 1024.0
        permuted = reports[[5, 2, 7, 0, 3, 6, 1, 4]]
        assert accrue(reports, 1.0).tobytes() == accrue(permuted, 1.0).tobytes()


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
        # by month, then by position: a consumer's id is its column
        bills = bill([[3.0, 1.0, 2.0], [6.0, 4.0, 5.0]], 1.0, month_len=1)
        assert bills.consumer_id.tolist() == [0, 1, 2, 0, 1, 2]
        assert bills.window_start.tolist() == [0, 0, 0, 1, 1, 1]
        assert bills.amount.tolist() == [3.0, 1.0, 2.0, 6.0, 4.0, 5.0]

    def test_total_conservation(self):
        # sum of bills equals the tariff times the sum over periods of reported_total
        rng = np.random.default_rng(9)
        periods, n = 30, 5
        reports = rng.uniform(0.0, 2.0, size=(periods, n))
        rate = rng.uniform(0.5, 2.0)
        costs = monthly_costs(reports, rate, 10)
        bills = Bills(*issue_bills(costs, 10))
        total = float(bills.amount.sum())
        expected = float(rate * reports.sum(axis=1).sum())
        assert total == pytest.approx(expected, rel=1e-9)
