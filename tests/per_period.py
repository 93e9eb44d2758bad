"""Per-period reference for the whole-window array path.

The package aggregates, samples and bills a whole window of periods with
array operations.  These loops do the same one period at a time, the way
the scheme describes it, from a window's usage and reports matrices, its
sampled positions and its tariff.  Tests compare the array path
against them, the way `oracle_pearson` backs `pearson`.

`full_matrix_window` is the reference for the window itself: it scales
the whole usage matrix before reading any of it, where `simulate_window`
scales only the entries a trial reads and `WindowData.chunks` a bounded
row chunk at a time.  `matrices` joins a window's chunks into the two
whole matrices, so that tests read the package's blocks.
"""

from typing import Iterable, NamedTuple

import numpy as np

from gridwatch.model import apply_behavior


class Matrices(NamedTuple):
    usage: np.ndarray
    reports: np.ndarray


def matrices(window) -> Matrices:
    """The window's ``(periods, consumers)`` usage and reports: its usage and
    reports `WindowData.chunks`, joined."""
    usage, reports = ([block for _, block in window.chunks(r)] for r in (False, True))
    return Matrices(np.concatenate(usage), np.concatenate(reports))


class FullWindow(NamedTuple):
    usage: np.ndarray
    reports: np.ndarray
    leakage: np.ndarray
    sampled_pos: np.ndarray
    sampled_reports: np.ndarray


def full_matrix_window(config, rng) -> FullWindow:
    """One window from the same draws as `simulate_window`, with usage
    scaled as one matrix in place, by per-consumer bounds, and reports kept
    as a second matrix.  Elasticity scales the bounds of every period when
    the flat tariff is above the level."""
    n, periods = config.consumers, config.total_periods
    lows = np.full(n, config.usage_min)
    highs = np.full(n, config.usage_max)
    usage = rng.random((periods, n))
    if config.elasticity_factor is None:
        usage *= highs - lows
    else:
        factor = config.elasticity_factor if config.tariff > config.elasticity_level else 1.0
        usage *= np.maximum(highs * factor, lows + 1e-12) - lows
    usage += lows
    reports = usage.copy()
    leakage = np.zeros(periods)
    behaviors = dict(config.attackers)  # the misreporting consumers
    for pos in range(n):  # every consumer, in position order
        if pos in behaviors:
            reports[:, pos] = apply_behavior(behaviors[pos], usage[:, pos], rng)
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


def ledger_bills(reports, rate, month_len) -> list[list]:
    """Accrue ``rate * report`` period by period; bill and reset each month.

    Returns the bill columns ``(consumer_id, window_start, window_end,
    amount)``, by month and then by consumer id (its column)."""
    bills = []
    costs = [0.0] * len(reports[0])
    for t, row in enumerate(reports):
        for i, report in enumerate(row):
            costs[i] += float(rate) * float(report)
        if (t + 1) % month_len == 0:
            start = t + 1 - month_len
            bills += [(cid, start, t + 1, cost) for cid, cost in enumerate(costs)]
            costs = [0.0] * len(costs)
    return [list(column) for column in zip(*sorted(bills, key=lambda b: (b[1], b[0])))]
