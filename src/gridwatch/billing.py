"""Aggregator-side billing: monthly costs from reports and tariffs.

Bills are computed from reported values only; the billing path never sees
ground-truth usage.  Each bill covers one month, a fixed span of periods,
and a window must be a whole number of months.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, InputError


@dataclass(frozen=True)
class TariffSchedule:
    """Per-period price per energy unit: one flat value or one value per period."""

    flat_rate: float | None = None
    rates: tuple[float, ...] | None = None

    def __post_init__(self):
        if (self.flat_rate is None) == (self.rates is None):
            raise ConfigurationError(
                "tariff must be either a flat rate or a per-period vector"
            )
        values = (self.flat_rate,) if self.rates is None else self.rates
        if not all(0.0 <= v < np.inf for v in values):
            raise ConfigurationError("tariff values must be finite and >= 0")

    @classmethod
    def flat(cls, rate: float) -> "TariffSchedule":
        return cls(flat_rate=rate)

    @classmethod
    def from_vector(
        cls, rates: Sequence[float], total_periods: int
    ) -> "TariffSchedule":
        rates = tuple(float(r) for r in rates)
        if len(rates) != total_periods:
            raise ConfigurationError(
                f"tariff vector has length {len(rates)}, expected {total_periods}"
            )
        return cls(rates=rates)

    def per_period(self, periods: int) -> np.ndarray:
        """The rate of every period of a ``periods``-period window."""
        if self.rates is None:
            return np.full(periods, self.flat_rate, dtype=float)
        if len(self.rates) != periods:
            raise InputError(
                f"tariff vector covers {len(self.rates)} periods, not {periods}"
            )
        return np.array(self.rates)


@dataclass(frozen=True)
class BillStatement:
    consumer_id: int
    window_start: int
    window_end: int
    amount: float


def accrue(reports: np.ndarray, rates: np.ndarray, month_len: int) -> np.ndarray:
    """Each consumer's cost in each month: a ``(months, consumers)`` matrix.

    ``reports`` is ``(periods, consumers)`` and ``rates`` has one entry per
    period.  Each month's sum runs period by period for every consumer, so
    a cost is the float a running per-period total reaches (``einsum`` or
    ``matmul`` may reorder the sum); a month at a time, so that no
    temporary is as large as ``reports``.
    """
    periods, n = reports.shape
    if rates.shape != (periods,):
        raise InputError(f"{periods} periods of reports but rates of shape {rates.shape}")
    if month_len < 1 or periods % month_len:
        raise InputError(
            f"{periods} periods are not a whole number of {month_len}-period months"
        )
    months = zip(rates.reshape(-1, month_len, 1), reports.reshape(-1, month_len, n))
    return np.array([(r * x).sum(axis=0) for r, x in months])


def issue_bills(costs: np.ndarray, consumer_ids: Sequence[int], month_len: int) -> list[BillStatement]:
    """One statement per consumer per month, month by month in consumer order."""
    return [
        BillStatement(cid, m * month_len, (m + 1) * month_len, amount)
        for m, month in enumerate(costs.tolist())
        for cid, amount in zip(consumer_ids, month)
    ]
