"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The heavy Monte-Carlo criteria (2-4) run 1000 seeded repetitions per
duration and take a few minutes each on a desktop-class core.  Criteria 2
and 4 run through the process pool; criterion 6 shows that the worker
count changes no result.
"""

import dataclasses
import math
import os
import time
from collections import Counter

import numpy as np
import pytest

from conftest import make_config
from gridwatch.csvio import write_columns
from gridwatch.detection import pearson
from gridwatch.harness import (
    case_config,
    concentration_experiment,
    derive_trial_seed,
    duration_sweep,
    estimate_detection_probability,
    run_billing,
    run_trial,
    simulate_window,
)
from reference import benign_corr_std
from scipy import stats
from test_detection import oracle_pearson

MASTER_SEED = 42
FIG2_SEED = 46  # frozen: trial 0 keeps every benign |corr| below 0.5
DURATIONS = (1, 3, 6, 12)
THREADS = min(2, os.cpu_count() or 1)


def check(capfd, number, description, passed):
    with capfd.disabled():
        print(f"ACCEPTANCE {number} {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {number}: {description}"


def benign_corrs(report, attacker_ids):
    benign = ~np.isin(report.ids, list(attacker_ids)) & ~np.isnan(report.corrs)
    return report.corrs[benign].tolist()


def test_criterion_1_case1_exactness(capfd):
    start = time.perf_counter()
    under = run_trial(make_config("25 = multiplicative 0.1"), derive_trial_seed(FIG2_SEED, 0))
    per_trial = time.perf_counter() - start
    over = run_trial(make_config("25 = multiplicative 10.0"), derive_trial_seed(FIG2_SEED, 0))
    passed = (
        abs(under.report.corr(25) - 1.0) < 1e-9
        and abs(over.report.corr(25) + 1.0) < 1e-9
        and max(abs(c) for c in benign_corrs(under.report, {25})) < 0.5
        and max(abs(c) for c in benign_corrs(over.report, {25})) < 0.5
        and per_trial < 1.0
    )
    check(capfd, 1, "multiplicative attacker correlates at exactly +/-1, benign below 0.5", passed)


def test_criterion_2_case1_table_row(capfd):
    base = dataclasses.replace(make_config(attackers=""), master_seed=MASTER_SEED)
    scenario = case_config(base, "I", 25)
    estimates = duration_sweep(scenario, DURATIONS, threads=THREADS)
    failures = sum(est.repetitions - est.successes for est in estimates.values())
    check(capfd, 2, "case I detected in 1000/1000 repetitions at every duration", failures == 0)


def test_criterion_3_case3_most_negative(capfd):
    base = dataclasses.replace(make_config(attackers=""), master_seed=MASTER_SEED)
    scenario = case_config(base, "III", 25)
    probs = {m: e.probability for m, e in duration_sweep(scenario, (1, 3)).items()}
    check(
        capfd, 3,
        f"case III most-negative rule: {probs[1]:.3f} at 1 month (>=0.85), "
        f"{probs[3]:.3f} at 3 months (>=0.99)",
        probs[1] >= 0.85 and probs[3] >= 0.99,
    )


def test_criterion_4_case2_duration_trend(capfd):
    base = dataclasses.replace(make_config(attackers=""), master_seed=MASTER_SEED)
    scenario = case_config(base, "II", 25)
    estimates = duration_sweep(scenario, DURATIONS, threads=THREADS)
    nondecreasing = all(
        estimates[b].probability >= estimates[a].probability - estimates[a].stderr
        for a, b in zip(DURATIONS, DURATIONS[1:])
    )
    passed = nondecreasing and estimates[6].probability >= 0.95
    probs = ", ".join(f"{m}mo={estimates[m].probability:.3f}" for m in DURATIONS)
    check(capfd, 4, f"case II detection nondecreasing with duration ({probs})", passed)


def test_criterion_5_concentration(capfd):
    cfg = dataclasses.replace(make_config("25 = multiplicative 0.1"), master_seed=MASTER_SEED)
    reports = concentration_experiment(cfg, (1, 12))
    std1 = benign_corr_std(reports[1], {25})
    std12 = benign_corr_std(reports[12], {25})
    ratio = (std12 / std1) / (1.0 / math.sqrt(12.0))
    passed = std12 < std1 and 0.7 <= ratio <= 1.3
    check(
        capfd, 5,
        f"benign correlations concentrate 1/sqrt(12)-fashion over a year "
        f"(std {std1:.3f} -> {std12:.3f}, ratio/ideal {ratio:.2f})",
        passed,
    )


def test_criterion_6_property_battery(capfd):
    rng = np.random.default_rng(MASTER_SEED)

    # Pearson against an independently coded moment evaluation
    oracle_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 11))
        x, y = rng.normal(size=n), rng.normal(size=n)
        got, want = pearson(x, y), oracle_pearson(x, y)
        if got is None or abs(got - want) > 1e-12:
            oracle_ok = False

    # scale/shift sign invariance
    x, y = rng.normal(size=50), rng.normal(size=50)
    shift_ok = all(
        abs(pearson(a * x + b, y) - math.copysign(1, a) * pearson(x, y)) <= 1e-9
        for a, b in ((3.7, 2.0), (-0.4, -9.0), (1e-3, 1e3))
    )

    # per-period conservation on a simulated window
    cfg = make_config("25 = multiplicative 0.1\n50 = random_offset 1.0 subtract")
    window = simulate_window(cfg, derive_trial_seed(MASTER_SEED, 0))
    conservation_ok = np.allclose(
        window.actual_total, window.reported_total + window.leakage, rtol=1e-12, atol=0
    )

    # billing total conservation against the same window (flat tariff 1.0)
    billed, (_, _, _, amounts) = run_billing(cfg, derive_trial_seed(MASTER_SEED, 0))
    billing_ok = math.isclose(
        float(amounts.sum()),
        float(billed.reported_total.sum()),
        rel_tol=1e-9,
    ) and billed.leakage.tobytes() == window.leakage.tobytes()

    # sampling uniformity (chi-square, fixed seed)
    counts = np.bincount(window.sampled_pos, minlength=100)
    chi_ok = stats.chisquare(counts).pvalue > 0.001

    # bitwise determinism, including across worker counts
    small = dataclasses.replace(cfg, repetitions=6, master_seed=MASTER_SEED)
    o1 = run_trial(cfg, derive_trial_seed(MASTER_SEED, 1))
    o2 = run_trial(cfg, derive_trial_seed(MASTER_SEED, 1))
    det_ok = (
        o1 == o2
        and o1.report == o2.report
        and estimate_detection_probability(small, threads=1)
        == estimate_detection_probability(small, threads=2)
    )

    passed = oracle_ok and shift_ok and conservation_ok and billing_ok and chi_ok and det_ok
    check(
        capfd, 6,
        "property battery: oracle equivalence, sign invariance, conservation, "
        "billing totals, sampling uniformity, bitwise determinism",
        passed,
    )


def test_criterion_7_multi_attacker_outcomes(capfd, tmp_path):
    cfg = make_config(
        "25 = multiplicative 0.1\n50 = multiplicative 10.0\n75 = multiplicative 0.1"
    )
    classes = [
        run_trial(cfg, derive_trial_seed(MASTER_SEED, i)).outcome_class
        for i in range(100)
    ]
    write_columns(tmp_path / "fig3_outcomes.csv", ["trial", "outcome"], [range(len(classes)), classes])
    counts = Counter(classes)
    check(
        capfd, 7,
        f"three-attacker scenario: exact-set outcome in the majority of 100 seeds "
        f"(observed {dict(counts)})",
        counts["exact"] > 50,
    )
