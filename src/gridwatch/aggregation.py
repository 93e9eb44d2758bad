"""Per-period aggregation: regional totals, leakage, and random report sampling.

Each period the aggregator sums all reports, computes the leakage
(actual regional total minus reported total) and keeps one uniformly
sampled consumer's ``(id, report)`` pair.  The sampled pairs and the
leakage values accumulate into one paired series per consumer, which the
detector's low-report filter path reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, InputError


@dataclass(frozen=True)
class PeriodRecord:
    period_index: int
    actual_total: float
    reported_total: float
    leakage: float
    sampled_id: int
    sampled_report: float


@dataclass
class SampleSeries:
    """Paired (report, leakage) observations per consumer.

    Consumers that were never sampled keep empty series.
    """

    reports: dict[int, Sequence[float]] = field(default_factory=dict)
    leakages: dict[int, Sequence[float]] = field(default_factory=dict)
    total_periods: int = 0

    @classmethod
    def empty(cls, consumer_ids: Iterable[int]) -> "SampleSeries":
        ids = list(consumer_ids)
        return cls(
            reports={cid: [] for cid in ids},
            leakages={cid: [] for cid in ids},
        )

    @property
    def consumer_ids(self) -> list[int]:
        return sorted(self.reports)

    def append(self, consumer_id: int, report: float, leakage: float) -> None:
        self.reports.setdefault(consumer_id, []).append(report)
        self.leakages.setdefault(consumer_id, []).append(leakage)
        self.total_periods += 1

    def count(self, consumer_id: int) -> int:
        return len(self.reports.get(consumer_id, ()))

    def pairs(self, consumer_id: int) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.asarray(self.reports.get(consumer_id, ()), dtype=float),
            np.asarray(self.leakages.get(consumer_id, ()), dtype=float),
        )


def aggregate_period(
    actuals: Sequence[float],
    reports: Sequence[float],
    period_index: int,
    rng: np.random.Generator,
) -> PeriodRecord:
    """Aggregate one period and sample one consumer's report uniformly.

    ``actuals[i]`` and ``reports[i]`` belong to the consumer at position
    ``i``; the sampled id is that position index.  Sampling is uniform and
    independent across periods.
    """
    actuals = np.asarray(actuals, dtype=float)
    reports = np.asarray(reports, dtype=float)
    if actuals.shape != reports.shape or actuals.ndim != 1:
        raise ConfigurationError(
            f"actuals and reports must be equal-length vectors, got shapes "
            f"{actuals.shape} and {reports.shape}"
        )
    n = actuals.shape[0]
    if n < 2:
        raise ConfigurationError(f"need at least 2 consumers per period, got {n}")
    actual_total = float(actuals.sum())
    reported_total = float(reports.sum())
    k = int(rng.integers(0, n))
    return PeriodRecord(
        period_index=period_index,
        actual_total=actual_total,
        reported_total=reported_total,
        leakage=actual_total - reported_total,
        sampled_id=k,
        sampled_report=float(reports[k]),
    )


def accumulate_samples(
    records: Iterable[PeriodRecord],
    consumer_ids: Iterable[int] | None = None,
) -> SampleSeries:
    """Fold period records into per-consumer paired sample series.

    ``consumer_ids``, when given, pre-registers every consumer so the
    never-sampled ones appear with empty series.
    """
    series = SampleSeries.empty(consumer_ids or ())
    seen: set[int] = set()
    for rec in records:
        if rec.period_index in seen:
            raise InputError(f"duplicate period_index {rec.period_index}")
        seen.add(rec.period_index)
        series.append(rec.sampled_id, rec.sampled_report, rec.leakage)
    return series


def series_from_arrays(
    sampled_ids: np.ndarray,
    sampled_reports: np.ndarray,
    leakages: np.ndarray,
    consumer_ids: Iterable[int],
) -> SampleSeries:
    """Build a SampleSeries from whole-window arrays (one entry per period)."""
    series = SampleSeries.empty(consumer_ids)
    if sampled_ids.size == 0:
        return series
    order = np.argsort(sampled_ids, kind="stable")
    ids_sorted = sampled_ids[order]
    boundaries = np.flatnonzero(np.diff(ids_sorted)) + 1
    for chunk in np.split(order, boundaries):
        cid = int(sampled_ids[chunk[0]])
        series.reports[cid] = sampled_reports[chunk]
        series.leakages[cid] = leakages[chunk]
    series.total_periods = int(sampled_ids.shape[0])
    return series
