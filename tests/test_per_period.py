"""Differential tests: the whole-window array path against the per-period
reference in `per_period.py`, over small random scenarios.

The golden digests pin seed 42 on the default region; these cover other
region sizes, attacker mixes, durations, tariffs and seeds.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwatch.billing import TariffSchedule, accrue, issue_bills
from gridwatch.config import loads_config
from gridwatch.detection import series_from_arrays
from gridwatch.harness import DAYS_PER_MONTH, simulate_window
from per_period import accumulate_samples, ledger_bills, window_records

BEHAVIORS = (
    "benign",
    "multiplicative 0.1",
    "multiplicative 3.0",
    "fixed_offset 0.6",
    "fixed_offset 0.4 add",
    "random_offset 0.7",
    "random_offset 0.3 add",
)


@st.composite
def scenarios(draw):
    """A small seeded window (reports kept) and its per-period tariff rates."""
    n = draw(st.integers(2, 6))
    ppd = draw(st.integers(1, 3))
    months = draw(st.integers(1, 2))
    attackers = "\n".join(f"{i} = {draw(st.sampled_from(BEHAVIORS))}" for i in range(n))
    elastic = "elasticity_factor = 0.7\nelasticity_level = 1.0\n" if draw(st.booleans()) else ""
    config = loads_config(
        f"[region]\nconsumers = {n}\nperiods_per_day = {ppd}\n[attackers]\n{attackers}\n"
        f"[billing]\ntariff = {draw(st.sampled_from([0.37, 1.0, 2.5]))}\n{elastic}"
        f"[experiment]\nmonths = {months}\n"
    )
    periods = config.region.total_periods
    if draw(st.booleans()):
        rates = draw(st.lists(st.sampled_from([0.0, 0.25, 0.37, 1.5, 2.0]),
                              min_size=periods, max_size=periods))
        config = dataclasses.replace(config, tariff=TariffSchedule.from_vector(rates, periods))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    window = simulate_window(config, rng, keep_matrices=True)
    return config, window, config.tariff.per_period(periods)


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_simulate_window_matches_per_period_aggregation(scenario):
    config, window, _ = scenario
    ids = config.region.consumer_ids
    records = window_records(window.usage, window.reports, window.sampled_pos)
    for row, ref in zip(window.to_records(), records, strict=True):
        period, actual_total, reported_total, leakage, sampled_id, sampled_report = row
        assert period == ref.period
        assert actual_total == pytest.approx(ref.actual_total, rel=1e-12)
        assert reported_total == pytest.approx(ref.reported_total, rel=1e-12)
        assert abs(leakage - ref.leakage) <= 1e-12 * ref.actual_total
        assert (sampled_id, sampled_report) == (ids[ref.sampled], ref.sampled_report)


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_monthly_bills_match_ledger_loop_bit_for_bit(scenario):
    config, window, rates = scenario
    month_len = DAYS_PER_MONTH * config.region.periods_per_day
    ids = config.region.consumer_ids
    bills = issue_bills(accrue(window.reports, rates, month_len), ids, month_len)
    assert bills == ledger_bills(window.reports, rates, month_len, ids)


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_series_match_per_period_fold(scenario):
    config, window, _ = scenario
    n = len(config.region.consumers)
    folded = accumulate_samples(
        zip(range(len(window.leakage)), window.sampled_pos, window.sampled_reports,
            window.leakage),
        n,
    )
    series = series_from_arrays(window.sampled_pos, window.sampled_reports, window.leakage, n)
    assert [(r.tolist(), l.tolist()) for r, l in series] == folded
