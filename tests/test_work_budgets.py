"""Work budgets: exact counts of the dominant work, which host drift cannot move.

128-bit products are the element count of every `_pcg64._mul_add` call, each
budget a formula in the window's periods ``T``, the consumer count ``n`` and the
row chunk ``B = _pcg64._BLOCK``.  The row starts take two products a row for the
first chunk and one for each later row; the in-row steps take ``n + 1``; every
entry read takes one.  Correlation work is counted in calls of `correlate` and
`low_report_correlations` through the names `harness` looks them up by, and in
the pairs each `correlate` call takes.  A change that lowers a count lowers its
budget here; one that raises it says why.
"""

import dataclasses

import numpy as np
import pytest

from conftest import make_config
from gridwatch import _pcg64, harness
from gridwatch._pcg64 import UniformBlock
from gridwatch.config import MOST_NEGATIVE_MODE, THRESHOLD_MODE
from gridwatch.harness import (
    STANDARD_DURATIONS, case_config, derive_trial_seed, run_billing, run_trial, simulate_window,
)

# Table 1's longest window, 12 months of 2,880 periods.
T_12 = 12 * 2_880


def row_starts(periods):
    return 2 * min(periods, _pcg64._BLOCK) + max(periods - _pcg64._BLOCK, 0)


@pytest.fixture
def products(monkeypatch):
    """A list that grows by each `_mul_add` call's element count, once the
    100-consumer tables are built and the once-per-process numpy check is off."""
    _pcg64._tables(100)
    monkeypatch.setattr(_pcg64, "_checked", True)
    counts, real = [], _pcg64._mul_add

    def counting(*args):
        hi, lo = real(*args)
        counts.append(np.size(lo))
        return hi, lo

    monkeypatch.setattr(_pcg64, "_mul_add", counting)
    return counts


@pytest.fixture
def calls(monkeypatch):
    """Calls of `correlate` and `low_report_correlations` through the names `harness`
    looks them up by, by name: one entry a call, the length of its first argument
    (the pairs `correlate` takes, the groups `low_report_correlations` takes)."""
    lengths = {"correlate": [], "low_report_correlations": []}
    for name, seen in lengths.items():
        real = getattr(harness, name)

        def recording(*args, seen=seen, real=real):
            seen.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(harness, name, recording)
    return lengths


def call_counts(calls):
    return tuple(len(seen) for seen in calls.values())


# Case III's sampled entries over Table 1's durations: one a period of each full trial.
SAMPLED = sum(2_880 * m for m in STANDARD_DURATIONS)


def attacker_rows(config, index):
    """The rows where attacker 25 is sampled in the shared positions of each of Table 1's
    window lengths, summed, read from the shared block's ``generator(periods).integers(...)``."""
    draws = UniformBlock.of_seed(derive_trial_seed(config.master_seed, index), T_12, 100)
    periods = [2_880 * m for m in STANDARD_DURATIONS]
    return sum(np.count_nonzero(draws.generator(p).integers(0, 100, size=p) == 25) for p in periods)


@pytest.mark.parametrize("index, pairs", [(0, 64_564), (7, 64_608)], ids=["0", "7"])
def test_a_table1_trial_index(products, calls, index, pairs):
    # one shared block: its row starts and steps, the attacker's whole column
    # (read by the batched cases I and II), and case III's sampled entries; one
    # `correlate` for the eight batched cells and one for each case III trial.
    # The batched cells correlate the rows of their window length's shared positions
    # where the attacker is sampled, cases I and II alike; each case III trial every
    # sampled pair.
    base = make_config()
    cells = [dataclasses.replace(case_config(base, case, 25), months=m)
             for case in ("I", "II", "III") for m in STANDARD_DURATIONS]
    harness._index_successes(cells, index)
    assert sum(products) == row_starts(T_12) + 101 + T_12 + SAMPLED == 136_677
    assert len(calls["correlate"]) == 1 + len(STANDARD_DURATIONS) == 5
    assert sum(calls["correlate"]) == SAMPLED + 2 * attacker_rows(base, index) == pairs


@pytest.mark.parametrize("index", [0, 7])
@pytest.mark.parametrize("attacker, sampled, total, correlates, pairs", [
    ("multiplicative 0.1", 0, 73_317, 1, {0: 602, 7: 624}),
    ("random_offset 1.0 subtract", SAMPLED, 136_677, len(STANDARD_DURATIONS), {0: SAMPLED, 7: SAMPLED}),
], ids=["batched", "full-trials"])
def test_a_threshold_duration_sweep_trial_index(products, calls, index, attacker, sampled, total, correlates,
                                                pairs):
    # a fig-duration-sweep group: an attacker that draws nothing is batched, one
    # `correlate` for all four cells and no sampled entry read, which correlates the
    # rows of each window length's shared positions where the attacker is sampled; a
    # random offset runs each cell's full trial, reading and correlating every sampled entry
    cfg = make_config(f"25 = {attacker}")
    harness._index_successes([dataclasses.replace(cfg, months=m) for m in STANDARD_DURATIONS], index)
    assert sum(products) == row_starts(T_12) + 101 + T_12 + sampled == total
    assert call_counts(calls) == (correlates, 0)
    assert sum(calls["correlate"]) == (sampled or attacker_rows(cfg, index)) == pairs[index]


def test_the_twelve_month_low_report_detect_window(products):
    # the attacker's column and one sampled entry a period; the report reads nothing more
    cfg = make_config("25 = fixed_offset 0.6 subtract",
                      extra="[detection]\nlow_report_quantile = 0.25\n[experiment]\nmonths = 12\n")
    run_trial(cfg, derive_trial_seed(42, 0)).report
    assert sum(products) == row_starts(T_12) + 101 + 2 * T_12 == 107_877


# The window commands' default region over 12 months: attacker 25 multiplies its usage by 0.1.
TWELVE_MONTHS = "[experiment]\nmonths = 12\n"


def test_the_twelve_month_simulate_window_and_records(products):
    # the attacker's column and one sampled entry a period; the totals' chunked redraws make none
    cfg = make_config(extra=TWELVE_MONTHS)
    simulate_window(cfg, derive_trial_seed(42, 0)).to_records()
    assert sum(products) == row_starts(T_12) + 101 + 2 * T_12 == 107_877


def test_the_twelve_month_bill_window(products):
    # the attacker's column alone: the bills accrue the chunked redraws of the reports
    run_billing(make_config(extra=TWELVE_MONTHS), derive_trial_seed(42, 0))
    assert sum(products) == row_starts(T_12) + 101 + T_12 == 73_317


@pytest.mark.parametrize("mode, quantile, trial, report", [
    (THRESHOLD_MODE, "none", (1, 0), (1, 0)),
    (THRESHOLD_MODE, "0.25", (0, 1), (0, 1)),
    (MOST_NEGATIVE_MODE, "none", (1, 0), (1, 0)),
    (MOST_NEGATIVE_MODE, "0.25", (1, 0), (1, 1)),
], ids=["threshold", "threshold-low-report", "most-negative", "most-negative-low-report"])
def test_each_correlation_pass_runs_once_and_only_where_read(calls, mode, quantile, trial, report):
    # (correlate, low_report_correlations) calls after the trial and after its report:
    # threshold labels read only their evidence, and a most-negative trial leaves the
    # low-report pass to its report
    cfg = make_config("25 = fixed_offset 0.6 subtract",
                      extra=f"[detection]\nmode = {mode}\nlow_report_quantile = {quantile}\n")
    outcome = run_trial(cfg, derive_trial_seed(0, 0))
    assert call_counts(calls) == trial
    outcome.report
    assert call_counts(calls) == report
