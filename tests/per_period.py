"""Per-period reference for the whole-window array path.

The package aggregates, samples and bills a whole window of periods with
array operations.  These loops do the same one period at a time, the way
the scheme describes it, from a window's usage and reports matrices, its
sampled positions and its tariff rates.  Tests compare the array path
against them, the way `oracle_pearson` backs `pearson`.

`full_matrix_window` is the reference for the window itself: it scales
the whole usage matrix before reading any of it, where `simulate_window`
scales only the entries a trial reads.
"""

from typing import Iterable, NamedTuple

import numpy as np

from gridwatch.billing import BillStatement
from gridwatch.model import apply_behavior, is_benign


class FullWindow(NamedTuple):
    usage: np.ndarray
    reports: np.ndarray
    leakage: np.ndarray
    sampled_pos: np.ndarray
    sampled_reports: np.ndarray


def full_matrix_window(config, rng) -> FullWindow:
    """One window from the same draws as `simulate_window`, with usage
    scaled as one matrix in place and reports kept as a second matrix."""
    consumers = config.region.consumers
    n, periods = len(consumers), config.region.total_periods
    lows = np.array([c.usage_min for c in consumers])
    highs = np.array([c.usage_max for c in consumers])
    usage = rng.random((periods, n))
    if config.elasticity_factor is None:
        usage *= highs - lows
    else:
        above = (config.tariff.per_period(periods) > config.elasticity_level)[:, None]
        for factor, rows in ((config.elasticity_factor, above), (1.0, ~above)):
            span = np.maximum(highs * factor, lows + 1e-12) - lows
            np.multiply(usage, span, out=usage, where=rows)
    usage += lows
    reports = usage.copy()
    leakage = np.zeros(periods)
    for pos, profile in enumerate(consumers):
        if not is_benign(profile.behavior):
            reports[:, pos] = apply_behavior(profile.behavior, usage[:, pos], rng)
            leakage = leakage + (usage[:, pos] - reports[:, pos])
    sampled_pos = rng.integers(0, n, size=periods)
    sampled_reports = reports[np.arange(periods), sampled_pos]
    return FullWindow(usage, reports, leakage, sampled_pos, sampled_reports)


class PeriodRecord(NamedTuple):
    period: int
    actual_total: float
    reported_total: float
    leakage: float
    sampled: int  # position of the sampled consumer
    sampled_report: float


def aggregate_period(actuals, reports, period, sampled) -> PeriodRecord:
    """Total one period's actual and reported usage and keep the sampled pair."""
    actuals, reports = [float(v) for v in actuals], [float(v) for v in reports]
    if len(actuals) != len(reports):
        raise ValueError(f"{len(actuals)} actuals but {len(reports)} reports")
    if len(actuals) < 2:
        raise ValueError("a period needs at least 2 consumers")
    actual_total, reported_total = 0.0, 0.0
    for a, r in zip(actuals, reports):
        actual_total += a
        reported_total += r
    return PeriodRecord(
        period, actual_total, reported_total, actual_total - reported_total,
        int(sampled), reports[sampled],
    )


def window_records(usage, reports, sampled_pos) -> list[PeriodRecord]:
    return [
        aggregate_period(usage[t], reports[t], t, sampled_pos[t])
        for t in range(len(sampled_pos))
    ]


def accumulate_samples(pairs: Iterable[tuple], n: int) -> list[tuple[list, list]]:
    """Fold ``(period, position, report, leakage)`` into per-position series."""
    series = [([], []) for _ in range(n)]
    seen = set()
    for period, pos, report, leakage in pairs:
        if period in seen:
            raise ValueError(f"period {period} folded twice")
        seen.add(period)
        series[pos][0].append(report)
        series[pos][1].append(leakage)
    return series


def ledger_bills(reports, rates, month_len, consumer_ids) -> list[BillStatement]:
    """Accrue ``rate * report`` period by period; bill and reset each month."""
    bills = []
    costs = [0.0] * len(consumer_ids)
    for t, row in enumerate(reports):
        for i, report in enumerate(row):
            costs[i] += float(rates[t]) * float(report)
        if (t + 1) % month_len == 0:
            start = t + 1 - month_len
            bills += [
                BillStatement(cid, start, t + 1, cost) for cid, cost in zip(consumer_ids, costs)
            ]
            costs = [0.0] * len(consumer_ids)
    return bills
