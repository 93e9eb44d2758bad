"""Per-period reference for the whole-window array path.

The package aggregates, samples and bills a whole window of periods with
array operations.  These loops do the same one period at a time, the way
the scheme describes it, from a window's usage and reports matrices, its
sampled positions and its tariff rates.  Tests compare the array path
against them, the way `oracle_pearson` backs `pearson`.
"""

from typing import Iterable, NamedTuple

from gridwatch.billing import BillStatement


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
