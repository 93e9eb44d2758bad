"""Aggregator-side billing: monthly costs from reports at a flat tariff.

Bills are computed from reported values only; the billing path never sees
ground-truth usage.  Each bill covers one month, a fixed span of periods:
`accrue` costs one month's reports at the rate, and `issue_bills` turns
the months' costs into bill columns.
"""

from __future__ import annotations

import numpy as np


def accrue(reports: np.ndarray, rate: float, carry: float | np.ndarray = 0.0) -> np.ndarray:
    """One month's cost of each consumer: ``reports`` is ``(periods, consumers)``,
    ``rate`` the price per energy unit and ``carry`` the month's cost so far.

    Each sum runs period by period for every consumer from ``carry``, so a cost is
    the float a running per-period total reaches, a month's in chunks of rows too
    (``einsum`` or ``matmul`` may reorder the sum).
    """
    costs = np.empty((len(reports) + 1, reports.shape[1]))
    costs[0] = carry
    np.multiply(rate, reports, out=costs[1:])
    return costs.sum(axis=0)


def issue_bills(costs: np.ndarray, month_len: int) -> tuple[np.ndarray, ...]:
    """The columns ``(consumer_id, window_start, window_end, amount)`` of the
    bills in a ``(months, consumers)`` cost matrix: one bill per consumer per
    month, by month and then by position (a consumer's id is its position)."""
    months, n = costs.shape
    starts = np.repeat(np.arange(months) * month_len, n)
    return np.tile(np.arange(n), months), starts, starts + month_len, costs.ravel()
