"""Work budgets: exact counts of the dominant work, which host drift cannot move.

128-bit products are the element count of every `_pcg64._mul_add` call, each
budget a formula in the window's periods ``T``, the consumer count ``n`` and the
row chunk ``B = _pcg64._BLOCK``.  The row starts take two products a row for the
first chunk and one for each later row; the in-row steps take ``n + 1``; every
entry read takes one.  Correlation work is counted in calls of `correlate` and
`low_report_correlations` through the names `harness` looks them up by.  A
change that lowers a count lowers its budget here; one that raises it says why.
"""

import dataclasses

import numpy as np
import pytest

from conftest import make_config
from gridwatch import _pcg64, harness
from gridwatch.config import MOST_NEGATIVE_MODE, THRESHOLD_MODE
from gridwatch.harness import STANDARD_DURATIONS, case_config, derive_trial_seed, run_trial

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


@pytest.mark.parametrize("index", [0, 7])
def test_a_table1_trial_index(products, index):
    # one shared block: its row starts and steps, the attacker's whole column
    # (read by the batched cases I and II), and case III's sampled entries
    base = make_config()
    cells = [dataclasses.replace(case_config(base, case, 25), months=m)
             for case in ("I", "II", "III") for m in STANDARD_DURATIONS]
    harness._index_successes(cells, index)
    sampled = sum(2_880 * m for m in STANDARD_DURATIONS)
    assert sum(products) == row_starts(T_12) + 101 + T_12 + sampled == 136_677


def test_the_twelve_month_low_report_detect_window(products):
    # the attacker's column and one sampled entry a period; the report reads nothing more
    cfg = make_config("25 = fixed_offset 0.6 subtract",
                      extra="[detection]\nlow_report_quantile = 0.25\n[experiment]\nmonths = 12\n")
    run_trial(cfg, derive_trial_seed(42, 0)).report
    assert sum(products) == row_starts(T_12) + 101 + 2 * T_12 == 107_877


@pytest.mark.parametrize("mode, quantile, trial, report", [
    (THRESHOLD_MODE, "none", (1, 0), (1, 0)),
    (THRESHOLD_MODE, "0.25", (0, 1), (0, 1)),
    (MOST_NEGATIVE_MODE, "none", (1, 0), (1, 0)),
    (MOST_NEGATIVE_MODE, "0.25", (1, 0), (1, 1)),
], ids=["threshold", "threshold-low-report", "most-negative", "most-negative-low-report"])
def test_each_correlation_pass_runs_once_and_only_where_read(monkeypatch, mode, quantile, trial, report):
    # (correlate, low_report_correlations) calls after the trial and after its report:
    # threshold labels read only their evidence, and a most-negative trial leaves the
    # low-report pass to its report
    calls = {"correlate": 0, "low_report_correlations": 0}
    for name in calls:
        real = getattr(harness, name)

        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(harness, name, counting)
    cfg = make_config("25 = fixed_offset 0.6 subtract",
                      extra=f"[detection]\nmode = {mode}\nlow_report_quantile = {quantile}\n")
    outcome = run_trial(cfg, derive_trial_seed(0, 0))
    assert tuple(calls.values()) == trial
    outcome.report
    assert tuple(calls.values()) == report
