"""Differential tests: the whole-window array path against the per-period
and full-matrix references in `per_period.py`, and a trial's threshold
mask against `detect_region`, over small random scenarios.

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
from gridwatch.harness import DAYS_PER_MONTH, run_trial, simulate_window
from per_period import accumulate_samples, full_matrix_window, ledger_bills, window_records

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
def configs(draw):
    """A small scenario and the seed of its window's stream."""
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
    return config, draw(st.integers(0, 2**32 - 1))


@st.composite
def scenarios(draw):
    """A small seeded window and its per-period tariff rates."""
    config, seed = draw(configs())
    window = simulate_window(config, np.random.default_rng(seed))
    return config, window, config.tariff.per_period(config.region.total_periods)


@given(configs())
@settings(max_examples=60, deadline=None)
def test_lazy_window_matches_full_matrix_bit_for_bit(scenario):
    config, seed = scenario
    window = simulate_window(config, np.random.default_rng(seed))
    ref = full_matrix_window(config, np.random.default_rng(seed))
    for name in ("leakage", "sampled_pos", "sampled_reports", "usage", "reports"):
        assert getattr(window, name).tobytes() == getattr(ref, name).tobytes(), name


@given(configs(), st.sampled_from([None, 0.25, 0.6]), st.sampled_from([0.05, 0.3, 0.5, 1.0]),
       st.integers(2, 8))
@settings(max_examples=100, deadline=None)
def test_threshold_mask_matches_detect_region(scenario, quantile, th, min_samples):
    config, seed = scenario
    config = dataclasses.replace(
        config, low_report_quantile=quantile, th=th, min_samples=min_samples
    )
    outcome = run_trial(config, seed)
    assert outcome.detected == outcome.report.malicious_ids


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_simulate_window_matches_per_period_aggregation(scenario):
    config, window, _ = scenario
    ids = config.region.consumer_ids
    records = window_records(window.usage, window.reports, window.sampled_pos)
    for row, ref in zip(zip(*window.to_records(), strict=True), records, strict=True):
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
