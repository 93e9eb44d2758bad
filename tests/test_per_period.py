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

from gridwatch.billing import TariffSchedule
from gridwatch.config import loads_config
from gridwatch.detection import series_from_arrays
from gridwatch.harness import DAYS_PER_MONTH, run_billing, run_trial, simulate_window
from per_period import (
    accumulate_samples, full_matrix_window, ledger_bills, matrices, window_records,
)

FIELDS = ("leakage", "sampled_pos", "sampled_reports", "usage", "reports")
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
def configs(draw, max_n=6):
    """A small scenario and the seed of its window's stream.

    Up to 6 consumers, each draws a behavior; in a wider region only the
    first, the last and one other consumer do."""
    n = draw(st.integers(2, max_n))
    ppd = draw(st.integers(1, 3))
    months = draw(st.integers(1, 2))
    drawn = range(n) if n <= 6 else (0, draw(st.integers(1, n - 2)), n - 1)
    attackers = "\n".join(f"{i} = {draw(st.sampled_from(BEHAVIORS))}" for i in drawn)
    elastic = "elasticity_factor = 0.7\nelasticity_level = 1.0\n" if draw(st.booleans()) else ""
    config = loads_config(
        f"[region]\nconsumers = {n}\nperiods_per_day = {ppd}\n[attackers]\n{attackers}\n"
        f"[billing]\ntariff = {draw(st.sampled_from([0.37, 1.0, 2.5]))}\n{elastic}"
        f"[experiment]\nmonths = {months}\n"
    )
    periods = config.total_periods
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
    return config, window, config.tariff.per_period(config.total_periods)


def used_stream(seed, warmup):
    """A generator after ``warmup`` 0..9 integers: an odd count leaves half a raw draw buffered."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 10, size=warmup)
    return rng


def assert_same_window_and_stream(config, stream, fields=FIELDS):
    """The window from `simulate_window` and from `full_matrix_window` on the same
    stream, ``fields`` read in the order given, and the draws after each window."""
    rng, ref_rng = stream(), stream()
    window = simulate_window(config, rng)
    ref = full_matrix_window(config, ref_rng)
    for name in fields:
        got = getattr(matrices(window), name) if name in ("usage", "reports") else getattr(window, name)
        assert got.tobytes() == getattr(ref, name).tobytes(), name
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.integers(0, 7, size=5).tolist() == ref_rng.integers(0, 7, size=5).tolist()
    assert rng.random(3).tolist() == ref_rng.random(3).tolist()


@given(configs(max_n=120), st.integers(0, 3), st.permutations(FIELDS))
@settings(max_examples=60, deadline=None)
def test_lazy_window_matches_full_matrix_bit_for_bit(scenario, warmup, fields):
    config, seed = scenario
    assert_same_window_and_stream(config, lambda: used_stream(seed, warmup), fields)


@pytest.mark.parametrize("months", [1, 12])
def test_jump_ahead_window_matches_full_matrix_at_full_size(months):
    # 2,880 and 34,560 periods of the default 100 consumers, the sizes table1 runs
    config = loads_config(
        "[attackers]\n0 = random_offset 0.7\n25 = multiplicative 0.1\n99 = fixed_offset 0.6 add\n"
        f"[billing]\nelasticity_factor = 0.8\nelasticity_level = 0.5\n[experiment]\nmonths = {months}\n"
    )
    assert_same_window_and_stream(
        config, lambda: np.random.default_rng([42, 3]), ("leakage", "sampled_pos", "sampled_reports")
    )


@given(configs(max_n=40))
@settings(max_examples=60, deadline=None)
def test_month_blocks_match_full_matrix_bit_for_bit(scenario):
    config, seed = scenario
    rng = np.random.default_rng(seed)
    window = simulate_window(config, rng)
    after = rng.bit_generator.state
    blocks = list(window.months())
    assert rng.bit_generator.state == after  # the blocks come from a copy of the state
    month_len = DAYS_PER_MONTH * config.region.periods_per_day
    assert [(len(u), len(r)) for u, r in blocks] == [(month_len, month_len)] * config.months
    ref = full_matrix_window(config, np.random.default_rng(seed))
    got = matrices(window)
    assert got.usage.tobytes() == ref.usage.tobytes()
    assert got.reports.tobytes() == ref.reports.tobytes()
    assert window.actual_total.tobytes() == ref.usage.sum(axis=1).tobytes()


def test_window_needs_a_pcg64_generator():
    config = loads_config("[region]\nconsumers = 3\nperiods_per_day = 1\n")
    with pytest.raises(TypeError, match="PCG64"):
        simulate_window(config, np.random.Generator(np.random.MT19937(0)))


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
    assert outcome.true_malicious == config.region.malicious_ids


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_simulate_window_matches_per_period_aggregation(scenario):
    config, window, _ = scenario
    records = window_records(*matrices(window), window.sampled_pos)
    for row, ref in zip(zip(*window.to_records(), strict=True), records, strict=True):
        period, actual_total, reported_total, leakage, sampled_id, sampled_report = row
        assert period == ref.period
        assert actual_total == pytest.approx(ref.actual_total, rel=1e-12)
        assert reported_total == pytest.approx(ref.reported_total, rel=1e-12)
        assert abs(leakage - ref.leakage) <= 1e-12 * ref.actual_total
        assert (sampled_id, sampled_report) == (ref.sampled, ref.sampled_report)


@given(configs())
@settings(max_examples=60, deadline=None)
def test_monthly_bills_match_ledger_loop_bit_for_bit(scenario):
    config, seed = scenario
    month_len = DAYS_PER_MONTH * config.region.periods_per_day
    rates = config.tariff.per_period(config.total_periods)
    window, bills = run_billing(config, seed)
    ledger = ledger_bills(matrices(window).reports, rates, month_len, range(config.region.consumers))
    assert [column.tolist() for column in bills] == ledger


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_series_match_per_period_fold(scenario):
    config, window, _ = scenario
    n = config.region.consumers
    folded = accumulate_samples(
        zip(range(len(window.leakage)), window.sampled_pos, window.sampled_reports,
            window.leakage),
        n,
    )
    series = series_from_arrays(window.sampled_pos, window.sampled_reports, window.leakage, n)
    assert [(r.tolist(), l.tolist()) for r, l in series] == folded
