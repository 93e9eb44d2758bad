"""Differential tests: the whole-window array path against the per-period
and full-matrix references in `per_period.py`, a trial's threshold mask
against `detect_region`, and a Monte-Carlo verdict against the full trial,
over small random scenarios.

The golden digests pin seed 42 on the default region; these cover other
region sizes, attacker mixes, durations, tariffs and seeds.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridwatch.config import loads_config
from gridwatch.detection import correlate, series_from_arrays
from gridwatch._pcg64 import UniformBlock
from gridwatch.harness import (
    DAYS_PER_MONTH, _estimate, _index_successes, derive_trial_seed, run_billing, run_trial,
    simulate_window, trial_success,
)
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
    first, the last and one other consumer do.  The tariff is zero, below,
    at or above the elasticity level when elasticity is on."""
    n = draw(st.integers(2, max_n))
    ppd = draw(st.integers(1, 3))
    months = draw(st.integers(1, 2))
    drawn = range(n) if n <= 6 else (0, draw(st.integers(1, n - 2)), n - 1)
    attackers = "\n".join(f"{i} = {draw(st.sampled_from(BEHAVIORS))}" for i in drawn)
    elastic = "elasticity_factor = 0.7\nelasticity_level = 1.0\n" if draw(st.booleans()) else ""
    config = loads_config(
        f"[region]\nconsumers = {n}\nperiods_per_day = {ppd}\n[attackers]\n{attackers}\n"
        f"[billing]\ntariff = {draw(st.sampled_from([0.0, 0.37, 1.0, 2.5]))}\n{elastic}"
        f"[experiment]\nmonths = {months}\n"
    )
    return config, draw(st.integers(0, 2**32 - 1))


@st.composite
def scenarios(draw):
    """A small scenario and its seeded window."""
    config, seed = draw(configs())
    return config, simulate_window(config, seed)


def assert_same_window(config, seed, fields=FIELDS):
    """The window from `simulate_window` and from `full_matrix_window` on the stream
    of ``seed``, ``fields`` read in the order given.  The sampled positions are the
    stream's last draw, so they pin every draw before them."""
    window = simulate_window(config, seed)
    ref = full_matrix_window(config, np.random.default_rng(seed))
    for name in fields:
        got = getattr(matrices(window), name) if name in ("usage", "reports") else getattr(window, name)
        assert got.tobytes() == getattr(ref, name).tobytes(), name


@given(configs(max_n=120), st.permutations(FIELDS))
@settings(max_examples=60, deadline=None)
def test_lazy_window_matches_full_matrix_bit_for_bit(scenario, fields):
    config, seed = scenario
    assert_same_window(config, seed, fields)


@pytest.mark.parametrize("months", [1, 12])
def test_jump_ahead_window_matches_full_matrix_at_full_size(months):
    # 2,880 and 34,560 periods of the default 100 consumers, the sizes table1 runs
    config = loads_config(
        "[attackers]\n0 = random_offset 0.7\n25 = multiplicative 0.1\n99 = fixed_offset 0.6 add\n"
        f"[billing]\nelasticity_factor = 0.8\nelasticity_level = 0.5\n[experiment]\nmonths = {months}\n"
    )
    assert_same_window(config, np.random.SeedSequence([42, 3]), ("leakage", "sampled_pos", "sampled_reports"))


@given(configs(max_n=40))
@settings(max_examples=60, deadline=None)
def test_month_blocks_match_full_matrix_bit_for_bit(scenario):
    # reports are written into fresh usage blocks: read first and held, they
    # must leave every later usage block, and each other, untouched
    config, seed = scenario
    window = simulate_window(config, seed)
    reports = list(window.report_months())
    usage = list(window.usage_months())
    assert window.draws.state == np.random.PCG64(seed).state  # reading the blocks leaves the saved state
    month_len = DAYS_PER_MONTH * config.periods_per_day
    assert [(len(u), len(r)) for u, r in zip(usage, reports)] == [(month_len, month_len)] * config.months
    ref = full_matrix_window(config, np.random.default_rng(seed))
    assert np.concatenate(reports).tobytes() == ref.reports.tobytes()
    assert np.concatenate(usage).tobytes() == ref.usage.tobytes()
    assert window.actual_total.tobytes() == ref.usage.sum(axis=1).tobytes()
    assert np.concatenate(list(window.report_months())).tobytes() == ref.reports.tobytes()


NO_DRAW_ATTACKS = ("multiplicative 0.1", "multiplicative 3.0", "fixed_offset 0.6")
ATTACKS = (*NO_DRAW_ATTACKS, "random_offset 0.7 add")


@st.composite
def cell_groups(draw):
    """Monte-Carlo cells that share a master seed, a consumer count and
    ``periods_per_day``, in any order: each has its own months (1 to 4), one
    or two attackers and elasticity on or off.  Up to two more cells repeat
    each one's months with attacks that draw nothing, so they reach the
    sampling step in one generator state."""
    n = draw(st.integers(2, 6))
    head = f"[region]\nconsumers = {n}\nperiods_per_day = {draw(st.integers(1, 3))}\n"
    seed = draw(st.integers(0, 2**32 - 1))
    cells = []
    for _ in range(draw(st.integers(1, 4))):
        months = draw(st.integers(1, 4))
        for attacks in [ATTACKS] + [NO_DRAW_ATTACKS] * draw(st.integers(0, 2)):
            ids = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
            attackers = "".join(f"{i} = {draw(st.sampled_from(attacks))}\n" for i in ids)
            elastic = "elasticity_factor = 0.7\nelasticity_level = 1.0\n" if draw(st.booleans()) else ""
            cells.append(loads_config(
                f"{head}[attackers]\n{attackers}[billing]\ntariff = 2.5\n{elastic}"
                f"[experiment]\nmonths = {months}\nmaster_seed = {seed}\nrepetitions = 3\n"
            ))
    return draw(st.permutations(cells)), seed


@given(cell_groups())
@settings(max_examples=60, deadline=None)
def test_shared_draws_match_a_fresh_window_bit_for_bit(group):
    # every cell reads one block sized for the longest: its row starts and
    # attacker columns are computed once and read as prefixes, and each cell
    # reads its own sampled entries
    cells, seed = group
    periods = max(c.total_periods for c in cells)
    draws = UniformBlock(np.random.PCG64(seed).state, periods, cells[0].consumers)
    for cell in cells:
        shared, fresh = simulate_window(cell, seed, draws), simulate_window(cell, seed)
        for name in ("leakage", "sampled_pos", "sampled_reports"):
            assert getattr(shared, name).tobytes() == getattr(fresh, name).tobytes(), name
        assert list(shared.dishonest) == list(fresh.dishonest) == sorted(cell.malicious_ids)
        for pos, reported in fresh.dishonest.items():
            assert shared.dishonest[pos].tobytes() == reported.tobytes()
        after = [window.draws.generator(cell.total_periods).bit_generator.state for window in (shared, fresh)]
        assert after[0] == after[1]
        assert shared.draws.state == fresh.draws.state
    assert _estimate(cells, threads=1) == [_estimate([c], threads=1)[0] for c in cells]


def verdict_cell(draw, n):
    """The text of one cell of a `verdict_groups` group: either mode, the low-report
    filter on or off, 0 to 3 attackers (``multiplicative 1.0`` misreports nothing),
    1 or 2 months, and a threshold and minimum sample count up to where no consumer
    has evidence (a consumer has at most 180 sampled periods)."""
    count = draw(st.sampled_from([0, 1, 1, 1, 2, 3]))  # mostly one: the batched verdict
    ids = draw(st.lists(st.integers(0, n - 1), min_size=min(count, n), max_size=min(count, n), unique=True))
    behaviors = (*ATTACKS, "multiplicative 1.0", "random_offset 0.7")
    attackers = "".join(f"{i} = {draw(st.sampled_from(behaviors))}\n" for i in ids)
    quantile = draw(st.sampled_from(["", "low_report_quantile = 0.25\n", "low_report_quantile = 0.6\n"]))
    return (
        f"[attackers]\n{attackers}"
        f"[detection]\nmode = {draw(st.sampled_from(['threshold', 'threshold', 'most_negative']))}\n"
        f"threshold = {draw(st.sampled_from([0.05, 0.3, 0.5, 0.7, 0.9, 1.0]))}\n"
        f"min_samples = {draw(st.sampled_from([2, 5, 5, 30, 181]))}\n{quantile}"
        f"[experiment]\nmonths = {draw(st.integers(1, 2))}\n"
    )


def group(head, master_seed, *cells):
    """Configs from one ``[region]`` section ``head`` and each cell's ``[attackers]``,
    ``[detection]`` and ``[experiment]`` text, all with one master seed."""
    return [dataclasses.replace(loads_config(head + cell), master_seed=master_seed) for cell in cells]


@st.composite
def verdict_groups(draw):
    """Up to six Monte-Carlo cells (`verdict_cell`) that share a master seed and a
    region size, in any order, and a trial index."""
    n = draw(st.integers(2, 8))
    head = f"[region]\nconsumers = {n}\nperiods_per_day = {draw(st.integers(1, 3))}\n"
    cells = [verdict_cell(draw, n) for _ in range(draw(st.integers(1, 6)))]
    return group(head, draw(st.integers(0, 2**32 - 1)), *cells), draw(st.integers(0, 3))


# A x0.1 attacker's correlation is exactly 1.0 in these trials: at threshold 1.0
# it is flagged, with the low-report filter or without.
EXACT = "[region]\nconsumers = 2\nperiods_per_day = 2\n"
THRESHOLD_1 = "[attackers]\n0 = multiplicative 0.1\n[detection]\nthreshold = 1.0\n"
SMALL = "[region]\nconsumers = 3\nperiods_per_day = 2\n"
TWO_MONTHS = "[experiment]\nmonths = 2\n"


@given(verdict_groups())
@example((group(EXACT, 0, THRESHOLD_1), 0))
@example((group(EXACT, 3, THRESHOLD_1 + "low_report_quantile = 0.25\n"), 0))
@example((group(  # table1's cells on one attacker, shuffled: same-length no-draw pairs, the filter on and off
    SMALL, 11,
    "[attackers]\n1 = fixed_offset 1.0\n" + TWO_MONTHS,
    "[attackers]\n1 = random_offset 1.0\n[detection]\nmode = most_negative\n",
    "[attackers]\n1 = multiplicative 0.1\n",
    "[attackers]\n1 = fixed_offset 1.0\n[detection]\nlow_report_quantile = 0.25\n",
    "[attackers]\n1 = multiplicative 0.1\n" + TWO_MONTHS,
    "[attackers]\n1 = random_offset 1.0\n[detection]\nmode = most_negative\n" + TWO_MONTHS,
), 2))
@example((group(  # two attackers of one length, a threshold random offset, a two-attacker cell
    SMALL, 11,
    "[attackers]\n2 = multiplicative 3.0\n",
    "[attackers]\n0 = random_offset 0.7\n[detection]\nthreshold = 0.3\n",
    "[attackers]\n0 = multiplicative 0.1\n1 = multiplicative 1.0\n",
    "[attackers]\n0 = multiplicative 0.1\n2 = fixed_offset 0.6\n",
    "[attackers]\n0 = fixed_offset 0.6\n[detection]\nmode = most_negative\n",
), 1))
@settings(max_examples=150, deadline=None)
def test_monte_carlo_verdict_is_the_full_trial_verdict(cells_index):
    # each cell's verdict among the others of its trial index, on the block sized
    # for the longest cell, as an estimate shares it, and on the cell's own block
    cells, index = cells_index
    seed = derive_trial_seed(cells[0].master_seed, index)
    draws = UniformBlock(np.random.PCG64(seed).state, max(c.total_periods for c in cells), cells[0].consumers)
    verdicts = _index_successes(cells, index)
    assert verdicts == [trial_success(run_trial(c, seed, draws)) for c in cells]
    assert verdicts == [trial_success(run_trial(c, seed)) for c in cells]


SPECIAL = (0.0, 0.1, 1.0, 1e-300, 1e300, -2.5)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_one_group_correlation_is_the_region_entry_bit_for_bit(data):
    # A single-attacker verdict correlates the attacker's pairs as one group;
    # every group's sums are taken in period order, so it gets the bits, or
    # the NaN, that `correlate` gives that group among all of them.
    n = data.draw(st.integers(1, 5))
    periods = data.draw(st.integers(0, 40))
    positions = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=periods, max_size=periods)),
                         dtype=np.intp)
    values = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(SPECIAL))
    x, y = (np.array(data.draw(st.lists(values, min_size=periods, max_size=periods)), dtype=float)
            for _ in range(2))
    group = data.draw(st.integers(0, n - 1))
    hit = positions == group
    counts, corr = correlate(positions, x, y, n)
    one_count, one_corr = correlate(np.zeros(hit.sum(), np.intp), x[hit], y[hit], 1)
    assert one_count.tolist() == [counts[group]]
    assert one_corr.tobytes() == corr[group : group + 1].tobytes()


def test_shared_draws_must_come_from_the_window_stream():
    config = loads_config("[region]\nconsumers = 3\nperiods_per_day = 1\n")
    draws = UniformBlock(np.random.PCG64(1).state, config.total_periods, 3)
    with pytest.raises(ValueError, match="another generator state"):
        simulate_window(config, 2, draws)
    longer = dataclasses.replace(config, months=2)
    with pytest.raises(ValueError, match="does not fit"):
        simulate_window(longer, 1, draws)


def test_window_needs_a_pcg64_generator():
    # a window's usage block is the jump-ahead of a PCG64 state, and of no other
    with pytest.raises(TypeError, match="PCG64"):
        UniformBlock(np.random.MT19937(0).state, 30, 3)


@given(configs(), st.sampled_from([None, 0.25, 0.6]), st.sampled_from([0.05, 0.3, 0.5, 1.0]),
       st.integers(2, 8))
@settings(max_examples=100, deadline=None)
def test_threshold_mask_matches_detect_region(scenario, quantile, th, min_samples):
    config, seed = scenario
    config = dataclasses.replace(
        config, low_report_quantile=quantile, threshold=th, min_samples=min_samples
    )
    outcome = run_trial(config, seed)
    assert outcome.detected == outcome.report.malicious_ids
    assert outcome.true_malicious == config.malicious_ids


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_simulate_window_matches_per_period_aggregation(scenario):
    config, window = scenario
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
    month_len = DAYS_PER_MONTH * config.periods_per_day
    window, bills = run_billing(config, seed)
    ledger = ledger_bills(matrices(window).reports, config.tariff, month_len)
    assert [column.tolist() for column in bills] == ledger


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_series_match_per_period_fold(scenario):
    config, window = scenario
    n = config.consumers
    folded = accumulate_samples(
        zip(range(len(window.leakage)), window.sampled_pos, window.sampled_reports,
            window.leakage),
        n,
    )
    series = series_from_arrays(window.sampled_pos, window.sampled_reports, window.leakage, n)
    assert [(r.tolist(), l.tolist()) for r, l in series] == folded
