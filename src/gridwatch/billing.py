"""Aggregator-side billing: monthly costs from reports and tariffs.

Bills are computed from reported values only; the billing path never sees
ground-truth usage.  Each bill covers one month, a fixed span of periods:
`accrue` costs one month's reports, and `issue_bills` turns the months'
costs into bill columns.
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


def accrue(reports: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """One month's cost of each consumer: ``reports`` is ``(periods, consumers)``
    and ``rates`` has one entry per period.

    Each sum runs period by period for every consumer, so a cost is the
    float a running per-period total reaches (``einsum`` or ``matmul`` may
    reorder the sum).
    """
    if rates.shape != reports.shape[:1]:
        raise InputError(f"{len(reports)} periods of reports but rates of shape {rates.shape}")
    return (rates[:, None] * reports).sum(axis=0)


def issue_bills(costs: np.ndarray, consumer_ids: Sequence[int], month_len: int) -> tuple[np.ndarray, ...]:
    """The columns ``(consumer_id, window_start, window_end, amount)`` of the
    bills in a ``(months, consumers)`` cost matrix: one bill per consumer per
    month, by month and then by consumer id."""
    order = np.argsort(consumer_ids)
    ids = np.asarray(consumer_ids)[order]
    months, n = costs.shape
    starts = np.repeat(np.arange(months) * month_len, n)
    return np.tile(ids, months), starts, starts + month_len, costs[:, order].ravel()
