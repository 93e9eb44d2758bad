import dataclasses
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_config, tiny_config
from gridwatch.billing import TariffSchedule
from gridwatch.config import loads_config
from gridwatch.detection import Label
from gridwatch import harness
from gridwatch.errors import ConfigurationError
from gridwatch.harness import (
    MOST_NEGATIVE_MODE,
    ScenarioConfig,
    THRESHOLD_MODE,
    TrialOutcome,
    case_config,
    derive_trial_seed,
    duration_sweep,
    estimate_detection_probability,
    probability_table,
    run_billing,
    run_trial,
    simulate_window,
    trial_success,
)
from gridwatch.model import FixedOffset, Multiplicative, RandomOffset
from per_period import matrices
from reference import benign_corr_std


class TestSeeding:
    def test_trial_seeds_are_injective(self):
        seen = {tuple(derive_trial_seed(3, i).entropy) for i in range(100)}
        seen |= {tuple(derive_trial_seed(4, i).entropy) for i in range(100)}
        assert len(seen) == 200

    def test_adjacent_trial_streams_do_not_collide(self):
        for index in range(3):
            a = np.random.default_rng(derive_trial_seed(0, index)).random(10_000)
            b = np.random.default_rng(derive_trial_seed(0, index + 1)).random(10_000)
            assert not np.array_equal(a, b)
            assert not np.array_equal(a[1:], b[:-1])

    def test_same_seed_bitwise_identical_outcome(self):
        cfg = tiny_config(periods_per_day=8)
        o1 = run_trial(cfg, derive_trial_seed(5, 0))
        o2 = run_trial(cfg, derive_trial_seed(5, 0))
        assert o1 == o2
        assert o1.report == o2.report
        assert o1.report.corrs.tobytes() == o2.report.corrs.tobytes()  # bits, not approx


    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_int_seed_is_its_one_entry_seed_sequence(self, seed):
        cfg = tiny_config(periods_per_day=8)
        as_int, as_sequence = run_trial(cfg, seed), run_trial(cfg, np.random.SeedSequence([seed]))
        assert as_int.samples[2].tobytes() == as_sequence.samples[2].tobytes()
        assert as_int.report == as_sequence.report
        bills = run_billing(cfg, seed)[1], run_billing(cfg, np.random.SeedSequence([seed]))[1]
        assert [c.tobytes() for c in bills[0]] == [c.tobytes() for c in bills[1]]


class TestSimulateWindow:
    def test_period_conservation(self):
        cfg = tiny_config(periods_per_day=8)
        window = simulate_window(cfg, np.random.default_rng(0))
        np.testing.assert_allclose(
            window.actual_total, window.reported_total + window.leakage, rtol=1e-12
        )

    def test_all_benign_zero_leakage(self):
        cfg = tiny_config(attackers="")
        window = simulate_window(cfg, np.random.default_rng(0))
        assert np.all(window.leakage == 0.0)

    def test_single_multiplicative_leakage_identity(self):
        # leakage(t) = (1 - alpha) * attacker_usage(t) for every period
        cfg = tiny_config(attackers="1 = multiplicative 0.1", periods_per_day=8)
        window = simulate_window(cfg, np.random.default_rng(0))
        np.testing.assert_allclose(
            window.leakage, 0.9 * matrices(window).usage[:, 1], rtol=1e-9
        )

    def test_sampled_report_matches_reports_matrix(self):
        cfg = tiny_config(attackers="0 = fixed_offset 0.4 subtract\n2 = random_offset 0.3 add")
        window = simulate_window(cfg, np.random.default_rng(1))
        periods = cfg.total_periods
        expected = matrices(window).reports[np.arange(periods), window.sampled_pos]
        np.testing.assert_array_equal(window.sampled_reports, expected)

    def test_reports_never_negative(self):
        cfg = tiny_config(attackers="0 = fixed_offset 5.0 subtract\n1 = random_offset 5.0 subtract")
        window = simulate_window(cfg, np.random.default_rng(2))
        assert np.all(matrices(window).reports >= 0.0)

    @pytest.mark.parametrize("elastic", [False, True])
    def test_usage_draw_matches_uniform_bit_for_bit(self, elastic):
        # the region's one range against numpy's draw with per-consumer bound arrays;
        # with elasticity, per-period 2-D upper bounds
        base = tiny_config(periods_per_day=24)
        cfg = dataclasses.replace(base, region=dataclasses.replace(base.region, usage_min=0.3, usage_max=2.7))
        lows, highs = np.full(5, 0.3), np.full(5, 2.7)
        periods = cfg.total_periods
        if elastic:
            rates = np.arange(periods) % 3 * 0.5
            cfg = dataclasses.replace(
                cfg, tariff=TariffSchedule.from_vector(rates, periods),
                elasticity_factor=0.3, elasticity_level=0.7,
            )
            scale = np.where(rates > 0.7, 0.3, 1.0)
            highs = np.maximum(highs[None, :] * scale[:, None], lows[None, :] + 1e-12)
        window = simulate_window(cfg, np.random.default_rng(9))
        expected = np.random.default_rng(9).uniform(lows, highs, size=(periods, 5))
        assert matrices(window).usage.tobytes() == expected.tobytes()

    def test_elasticity_hook_caps_usage(self):
        base = tiny_config(extra="[billing]\ntariff = 2.0\n")
        elastic = dataclasses.replace(base, elasticity_factor=0.6, elasticity_level=1.0)
        window = simulate_window(elastic, np.random.default_rng(3))
        assert matrices(window).usage.max() <= 1.5 * 0.6 + 1e-12


class TestRunTrial:
    def test_underreporting_attacker_perfectly_correlated(self):
        cfg = make_config("25 = multiplicative 0.1")
        outcome = run_trial(cfg, derive_trial_seed(46, 0))
        assert outcome.report.corr(25) == pytest.approx(1.0, abs=1e-9)
        assert outcome.report.labels[25] == Label.MALICIOUS_UNDER
        assert 25 in outcome.detected and outcome.all_attackers_found

    def test_overreporting_attacker_anticorrelated(self):
        cfg = make_config("25 = multiplicative 10.0")
        outcome = run_trial(cfg, derive_trial_seed(46, 0))
        assert outcome.report.corr(25) == pytest.approx(-1.0, abs=1e-9)
        assert outcome.report.labels[25] == Label.MALICIOUS_OVER

    def test_constant_leakage_selects_no_one(self):
        # an add-offset attacker makes every period's leakage -0.3 up to
        # rounding (std ~6e-17): no consumer has evidence, in either mode,
        # and the trial is a miss
        attackers = "5 = fixed_offset 0.3 add"
        selecting = tiny_config(attackers, consumers=10, periods_per_day=96,
                                extra="[detection]\nmode = most_negative\n")
        for index in range(50):
            outcome = run_trial(selecting, derive_trial_seed(0, index))
            assert outcome.selected is None and outcome.detected == frozenset()
            assert not trial_success(outcome)
        outcome = run_trial(tiny_config(attackers, consumers=10, periods_per_day=96),
                            derive_trial_seed(0, 0))
        assert (outcome.report.labels == Label.INSUFFICIENT_DATA).all()
        assert outcome.detected == frozenset()

    def test_most_negative_trials_leave_low_report_work_to_report(self, monkeypatch):
        calls = []
        real = harness.low_report_correlations

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(harness, "low_report_correlations", counting)
        cfg = make_config("25 = random_offset 1.0 subtract",
                          extra="[detection]\nmode = most_negative\nlow_report_quantile = 0.25\n")
        estimate_detection_probability(dataclasses.replace(cfg, repetitions=3))
        outcome = run_trial(cfg, derive_trial_seed(0, 0))
        assert calls == []
        report = outcome.report
        assert len(calls) == 1
        # the lazy report equals the one a threshold trial builds eagerly
        eager = run_trial(dataclasses.replace(cfg, mode=THRESHOLD_MODE), derive_trial_seed(0, 0))
        assert len(calls) == 2
        assert report == eager.report

    def test_twelve_month_trial_allocates_no_usage_matrix(self):
        # The (34,560, 100) usage matrix alone would be 27.6 MB; a trial reads
        # only the attacker's column and one sampled entry per period.
        cfg = dataclasses.replace(make_config(), months=12)
        run_trial(cfg, derive_trial_seed(0, 0))  # builds the cached jump tables
        tracemalloc.start()
        try:
            run_trial(cfg, derive_trial_seed(0, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("output", ["bills", "records"])
    def test_twelve_month_outputs_hold_one_month_at_a_time(self, output):
        # The (34,560, 100) usage and reports matrices would be 27.6 MB each;
        # bills and records read the window a month block (2.3 MB) at a time.
        cfg = make_config("25 = fixed_offset 0.6 subtract", extra=(
            "[billing]\nelasticity_factor = 0.8\nelasticity_level = 0.5\n[experiment]\nmonths = 12\n"))

        def run(index):
            if output == "bills":
                return run_billing(cfg, derive_trial_seed(0, index))
            rng = np.random.default_rng(derive_trial_seed(0, index))
            return simulate_window(cfg, rng).to_records()

        run(0)  # builds the cached jump tables
        tracemalloc.start()
        try:
            run(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_most_negative_mode_selects_one(self):
        cfg = make_config("25 = random_offset 1.0 subtract",
                          extra="[detection]\nmode = most_negative\n")
        outcome = run_trial(cfg, derive_trial_seed(0, 0))
        assert outcome.selected == 25
        assert outcome.detected == frozenset({25})


class TestOutcomeScoring:
    def _outcome(self, true_malicious, detected):
        return TrialOutcome(
            true_malicious=frozenset(true_malicious),
            detected=frozenset(detected),
            selected=None,
            config=None,
            counts=None,
            corr=None,
            samples=None,
        )

    def test_derived_fields(self):
        outcome = self._outcome({1, 2}, {2, 9})
        assert not outcome.exact_match and self._outcome({1, 2}, {2, 1}).exact_match
        assert not outcome.all_attackers_found and outcome.true_malicious & outcome.detected == {2}
        assert outcome.false_positive_count == 1

    def test_outcome_classes(self):
        assert self._outcome({1, 2}, {1, 2}).outcome_class == "exact"
        assert self._outcome({1, 2}, {1, 2, 9}).outcome_class == "extra_benign"
        assert self._outcome({1, 2}, {1}).outcome_class == "missed_attacker"
        assert self._outcome({1, 2}, {1, 9}).outcome_class == "missed_attacker"

    def test_trial_success_single_attacker_ignores_false_positives(self):
        assert trial_success(self._outcome({5}, {5, 9}))
        assert not trial_success(self._outcome({5}, {9}))

    def test_trial_success_multi_attacker_requires_exact_set(self):
        assert trial_success(self._outcome({1, 2}, {1, 2}))
        assert not trial_success(self._outcome({1, 2}, {1, 2, 3}))


def install_inline_pool(monkeypatch, cpus=64):
    """Replace the process pool with one that runs its jobs inline: no process
    starts.  The machine reports ``cpus`` CPUs.  Returns the list of worker
    counts the pools were built with."""
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    return asked


class TestEstimates:
    def test_probability_and_stderr(self):
        cfg = tiny_config(attackers="1 = multiplicative 0.1", periods_per_day=24)
        cfg = dataclasses.replace(cfg, repetitions=20)
        est = estimate_detection_probability(cfg)
        assert 0.0 <= est.probability <= 1.0
        p = est.probability
        assert est.stderr == pytest.approx(np.sqrt(p * (1 - p) / 20))

    def test_worker_count_capped_at_job_count(self, monkeypatch):
        # workers = min(threads, range jobs); one job runs without a pool
        asked = install_inline_pool(monkeypatch)
        cfg = tiny_config(attackers="1 = multiplicative 0.1", periods_per_day=24)
        cfg = dataclasses.replace(cfg, repetitions=3)
        assert estimate_detection_probability(cfg, threads=4) == estimate_detection_probability(cfg)
        assert estimate_detection_probability(cfg, threads=2) == estimate_detection_probability(cfg)
        one = dataclasses.replace(cfg, repetitions=1)
        assert estimate_detection_probability(one, threads=2) == estimate_detection_probability(one)
        assert asked == [3, 2]

    def test_worker_count_capped_at_cpu_count(self, monkeypatch):
        asked = install_inline_pool(monkeypatch, cpus=2)
        base = dataclasses.replace(tiny_config(attackers=""), repetitions=3, master_seed=4)
        assert probability_table(base, 1, threads=10**6) == probability_table(base, 1, threads=1)
        assert asked == [2]

    def test_probability_table_builds_one_pool(self, monkeypatch):
        asked = install_inline_pool(monkeypatch)
        base = dataclasses.replace(tiny_config(attackers=""), repetitions=3, master_seed=4)
        serial = probability_table(base, 1, threads=1)
        assert asked == []
        assert probability_table(base, 1, threads=2) == serial
        assert asked == [2]
        assert [(case, months) for case, months, _ in serial] == [
            (case, months) for case in ("I", "II", "III") for months in (1, 3, 6, 12)
        ]

    @settings(max_examples=60, deadline=None)
    @given(reps=st.integers(1, 50), threads=st.integers(1, 4))
    def test_range_jobs_cover_every_trial_once(self, reps, threads):
        # the jobs only record their ranges; the pool runs them inline
        cfg = dataclasses.replace(tiny_config(), repetitions=reps)
        seen = {1: [], 2: []}
        weights = []

        def record(job):
            config, start, stop = job
            seen[config.months].extend(range(start, stop))
            weights.append(config.months * (stop - start))
            return stop - start

        with pytest.MonkeyPatch.context() as mp:
            install_inline_pool(mp)
            mp.setattr(harness, "_count_successes", record)
            estimates = duration_sweep(cfg, (1, 2), threads=threads)
        assert all(sorted(seen[m]) == list(range(reps)) for m in (1, 2))
        assert all(estimates[m].successes == reps for m in (1, 2))
        assert weights == sorted(weights, reverse=True)

    def test_thread_count_does_not_change_result(self):
        cfg = tiny_config(attackers="1 = multiplicative 0.1", periods_per_day=24)
        cfg = dataclasses.replace(cfg, repetitions=8)
        serial = estimate_detection_probability(cfg, threads=1)
        parallel = estimate_detection_probability(cfg, threads=2)
        assert serial == parallel


class TestScenarioBuilders:
    def test_months_scale_periods(self):
        cfg = make_config()
        assert dataclasses.replace(cfg, months=12).total_periods == 12 * 2880

    def test_case_configs(self):
        base = make_config(attackers="")
        c1 = case_config(base, "I", 25)
        c2 = case_config(base, "II", 25)
        c3 = case_config(base, "III", 25)
        assert c1.region.attackers == ((25, Multiplicative(0.1)),)
        # offsets default to the midpoint of the [0.5, 1.5] usage range
        assert c2.region.attackers == ((25, FixedOffset(1.0, "subtract")),)
        assert c3.region.attackers == ((25, RandomOffset(1.0, "subtract")),)
        assert c3.mode == MOST_NEGATIVE_MODE
        assert c1.region.malicious_ids == {25}
        # the case attacker replaces the base's attackers
        assert case_config(make_config("3 = multiplicative 2.0"), "I", 25).region == c1.region

    def test_case_config_pickles_small(self):
        # every range job of a pool carries its config
        job = case_config(make_config(), "I", 25)
        assert len(pickle.dumps(job)) < 1024
        assert pickle.loads(pickle.dumps(job)) == job

    def test_case_config_rejects_unknown_attacker(self):
        with pytest.raises(ConfigurationError):
            case_config(make_config(attackers=""), "I", 250)

    def test_validation(self):
        cfg = make_config()
        with pytest.raises(ConfigurationError):
            dataclasses.replace(cfg, mode="psychic")
        with pytest.raises(ConfigurationError):
            dataclasses.replace(cfg, th=0.0)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(cfg, repetitions=0)
        with pytest.raises(ConfigurationError, match="min_samples"):
            dataclasses.replace(cfg, min_samples=1)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(cfg, elasticity_factor=2.0)
        for factor, level in ((math.inf, 1.0), (math.nan, 1.0), (0.8, math.nan), (0.8, -math.inf)):
            with pytest.raises(ConfigurationError, match="finite"):
                dataclasses.replace(cfg, elasticity_factor=factor, elasticity_level=level)

    @staticmethod
    def five_consumers(usage_max=1.5, attackers="", billing=""):
        """5 consumers, 120 periods of usage up to ``usage_max``."""
        return loads_config(f"[region]\nconsumers = 5\nperiods_per_day = 4\nusage_max = {usage_max}\n"
                            f"[attackers]\n{attackers}\n[billing]\n{billing}\n")

    @pytest.mark.parametrize("values, sums", [
        (dict(usage_max=1e308), "regional totals"),
        (dict(billing="tariff = 1e307"), "monthly bills"),
        (dict(usage_max=1e153), "correlation sums"),
        (dict(attackers="3 = multiplicative 1e153"), "correlation sums"),
        (dict(attackers="3 = random_offset 1e153 add"), "correlation sums"),
        (dict(billing="elasticity_factor = 1e153\nelasticity_level = 0.5"), "correlation sums"),
    ])
    def test_values_that_overflow_a_sum_are_rejected(self, values, sums):
        with pytest.raises(ConfigurationError, match=sums):
            self.five_consumers(**values)

    def test_window_size_limits(self):
        # a window built through the API is checked like a loaded one, before any draw
        cfg = make_config()
        long_region = dataclasses.replace(cfg.region, periods_per_day=4096)
        with pytest.raises(ConfigurationError, match="4300800 periods, above the limit"):
            dataclasses.replace(cfg, region=long_region, months=35)
        longest = dataclasses.replace(cfg, region=long_region, months=34)  # 4,177,920 periods
        assert harness.MAX_PERIODS - 30 * 4096 < longest.total_periods <= harness.MAX_PERIODS
        wide = dataclasses.replace(cfg.region, periods_per_day=4370, consumers=1024)
        with pytest.raises(ConfigurationError, match="values a month, above the limit"):
            dataclasses.replace(cfg, region=wide)

    def test_largest_finite_sums_are_accepted(self):
        # (5 x 1e150)^2 x 120 periods is finite
        cfg = self.five_consumers(usage_max=1e150, attackers="3 = multiplicative 0.1")
        assert run_trial(cfg, derive_trial_seed(0, 0)).report.corr(3) == pytest.approx(1.0)


class TestBillingPath:
    def test_bills_match_reported_totals(self):
        cfg = tiny_config(attackers="1 = multiplicative 0.1")
        window, (_, _, _, amounts) = run_billing(cfg, derive_trial_seed(0, 0))
        assert float(amounts.sum()) == pytest.approx(float(window.reported_total.sum()), rel=1e-9)

    def test_one_bill_per_consumer_per_month(self):
        cfg = dataclasses.replace(tiny_config(), months=2)
        _, bills = run_billing(cfg, derive_trial_seed(0, 0))
        assert all(len(column) == 2 * 5 for column in bills)
        starts = set(bills[1].tolist())
        assert starts == {0, 30 * 4}


class TestConcentration:
    def test_benign_std_helper(self):
        cfg = make_config()
        outcome = run_trial(cfg, derive_trial_seed(42, 1))
        std = benign_corr_std(outcome.report, {25})
        assert 0.0 < std < 1.0
