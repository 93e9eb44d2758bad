import dataclasses
import math
import multiprocessing
import pickle
import signal
import subprocess
import sys
import textwrap
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_config, python_env, tiny_config
from gridwatch.config import MAX_PERIODS, MOST_NEGATIVE_MODE, THRESHOLD_MODE, ScenarioConfig, loads_config
from gridwatch.detection import Label
from gridwatch import _pcg64, harness
from gridwatch.errors import ConfigurationError
from gridwatch.harness import (
    TrialOutcome,
    case_config,
    concentration_experiment,
    derive_trial_seed,
    duration_sweep,
    probability_table,
    run_billing,
    run_trial,
    simulate_window,
    trial_success,
)
from gridwatch.model import FixedOffset, Multiplicative, RandomOffset
from per_period import matrices
from reference import benign_corr_std, same_report


def estimate(cfg, threads=1):
    """The config's own estimate: a sweep of its one duration."""
    return duration_sweep(cfg, (cfg.months,), threads)[cfg.months]


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
        assert same_report(o1.report, o2.report)
        assert o1.report.corrs.tobytes() == o2.report.corrs.tobytes()  # bits, not approx


    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_int_seed_is_its_one_entry_seed_sequence(self, seed):
        cfg = tiny_config(periods_per_day=8)
        as_int, as_sequence = run_trial(cfg, seed), run_trial(cfg, np.random.SeedSequence([seed]))
        assert as_int.window.leakage.tobytes() == as_sequence.window.leakage.tobytes()
        assert same_report(as_int.report, as_sequence.report)
        bills = run_billing(cfg, seed), run_billing(cfg, np.random.SeedSequence([seed]))
        assert [c.tobytes() for c in bills[0]] == [c.tobytes() for c in bills[1]]


class TestSimulateWindow:
    def test_period_conservation(self):
        cfg = tiny_config(periods_per_day=8)
        window = simulate_window(cfg, 0)
        np.testing.assert_allclose(
            window.actual_total, window.reported_total + window.leakage, rtol=1e-12
        )

    def test_all_benign_zero_leakage(self):
        cfg = tiny_config(attackers="")
        window = simulate_window(cfg, 0)
        assert np.all(window.leakage == 0.0)

    def test_single_multiplicative_leakage_identity(self):
        # leakage(t) = (1 - alpha) * attacker_usage(t) for every period
        cfg = tiny_config(attackers="1 = multiplicative 0.1", periods_per_day=8)
        window = simulate_window(cfg, 0)
        np.testing.assert_allclose(
            window.leakage, 0.9 * matrices(window).usage[:, 1], rtol=1e-9
        )

    def test_sampled_report_matches_reports_matrix(self):
        cfg = tiny_config(attackers="0 = fixed_offset 0.4 subtract\n2 = random_offset 0.3 add")
        window = simulate_window(cfg, 1)
        periods = cfg.total_periods
        expected = matrices(window).reports[np.arange(periods), window.sampled_pos]
        np.testing.assert_array_equal(window.sampled_reports, expected)

    def test_reports_never_negative(self):
        cfg = tiny_config(attackers="0 = fixed_offset 5.0 subtract\n1 = random_offset 5.0 subtract")
        window = simulate_window(cfg, 2)
        assert np.all(matrices(window).reports >= 0.0)

    @staticmethod
    def assert_usage_draw_is_uniform(high, tariff, elasticity, scale):
        # the region's one range against numpy's draw with per-consumer bound arrays
        base = tiny_config(periods_per_day=24)
        factor, level = elasticity or (None, None)
        cfg = dataclasses.replace(
            base, usage_min=0.3, usage_max=high, tariff=tariff, elasticity_factor=factor, elasticity_level=level
        )
        lows, highs = np.full(5, 0.3), np.full(5, high * scale)
        if elasticity:
            highs = np.maximum(highs, lows + 1e-12)
        window = simulate_window(cfg, 9)
        expected = np.random.default_rng(9).uniform(lows, highs, size=(cfg.total_periods, 5))
        assert matrices(window).usage.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("elastic", [False, True])
    def test_usage_draw_matches_uniform_bit_for_bit(self, elastic):
        # with elasticity, the tariff 1.0 is above the level 0.7: every period's top scales by 0.3
        if elastic:
            self.assert_usage_draw_is_uniform(2.7, 1.0, (0.3, 0.7), 0.3)
        else:
            self.assert_usage_draw_is_uniform(2.7, 1.0, None, 1.0)

    @pytest.mark.parametrize("high, elasticity", [
        (2.7, (0.3, 0.7)),  # a tariff below the level
        (2.7, (0.3, 0.5)),  # a tariff at the level
        # a range narrower than 1e-12: below the level the top still moves to
        # 1e-12 above usage_min, and without elasticity it stays where it is
        (0.3 + 2e-13, (0.3, 0.7)),
        (0.3 + 2e-13, None),
    ])
    def test_usage_draw_of_an_unscaled_range_matches_uniform_bit_for_bit(self, high, elasticity):
        self.assert_usage_draw_is_uniform(high, 0.5, elasticity, 1.0)

    def test_elasticity_hook_caps_usage(self):
        base = tiny_config(extra="[billing]\ntariff = 2.0\n")
        elastic = dataclasses.replace(base, elasticity_factor=0.6, elasticity_level=1.0)
        window = simulate_window(elastic, 3)
        assert matrices(window).usage.max() <= 1.5 * 0.6 + 1e-12


class TestRunTrial:
    def test_underreporting_attacker_perfectly_correlated(self):
        cfg = make_config("25 = multiplicative 0.1")
        outcome = run_trial(cfg, derive_trial_seed(46, 0))
        assert outcome.report.corrs[25] == pytest.approx(1.0, abs=1e-9)
        assert outcome.report.labels[25] == Label.MALICIOUS_UNDER
        assert 25 in outcome.detected and outcome.true_malicious <= outcome.detected

    def test_overreporting_attacker_anticorrelated(self):
        cfg = make_config("25 = multiplicative 10.0")
        outcome = run_trial(cfg, derive_trial_seed(46, 0))
        assert outcome.report.corrs[25] == pytest.approx(-1.0, abs=1e-9)
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
            assert outcome.detected == frozenset()
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
        estimate(dataclasses.replace(cfg, repetitions=3))
        outcome = run_trial(cfg, derive_trial_seed(0, 0))
        assert calls == []
        report = outcome.report
        assert len(calls) == 1
        # the lazy report equals the one a threshold trial builds eagerly
        eager = run_trial(dataclasses.replace(cfg, mode=THRESHOLD_MODE), derive_trial_seed(0, 0))
        assert len(calls) == 2
        assert same_report(report, eager.report)

    @pytest.mark.parametrize("mode", [THRESHOLD_MODE, MOST_NEGATIVE_MODE])
    def test_reading_the_report_reads_no_usage_entry_again(self, monkeypatch, mode):
        # the report is built from the window the verdict was taken on, not from a new draw
        reads = []
        real = _pcg64.UniformBlock.read

        def counting(self, *args, **kwargs):
            reads.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(_pcg64, "_checked", True)  # the numpy check reads once per process
        monkeypatch.setattr(_pcg64.UniformBlock, "read", counting)
        cfg = make_config("25 = random_offset 1.0 subtract",
                          extra=f"[detection]\nmode = {mode}\nlow_report_quantile = 0.25\n")
        run_trial(cfg, derive_trial_seed(0, 0))
        alone = len(reads)
        reads.clear()
        run_trial(cfg, derive_trial_seed(0, 0)).report
        assert 0 < alone == len(reads)

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

    @staticmethod
    def traced_peak(run):
        """tracemalloc's peak over ``run(1)``, after ``run(0)`` has built the cached jump tables."""
        run(0)
        tracemalloc.start()
        try:
            run(1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("output", ["bills", "records"])
    def test_twelve_month_outputs_hold_one_month_at_a_time(self, output):
        # The (34,560, 100) usage and reports matrices would be 27.6 MB each and a month
        # block 2.3 MB; bills and records read the window a chunk (384 KiB) at a time.
        # Beyond the window's own peak they hold a few chunks, and the records their new
        # whole-window columns (totals, sampled reports, periods).
        cfg = make_config("25 = fixed_offset 0.6 subtract", extra=(
            "[billing]\nelasticity_factor = 0.8\nelasticity_level = 0.5\n[experiment]\nmonths = 12\n"))

        def run(index):
            if output == "bills":
                return run_billing(cfg, derive_trial_seed(0, index))
            return simulate_window(cfg, derive_trial_seed(0, index)).to_records()

        window_peak = self.traced_peak(lambda index: simulate_window(cfg, derive_trial_seed(0, index)))
        new_columns = 4 if output == "records" else 0
        extra = (new_columns * cfg.total_periods + 3 * harness._CHUNK_ENTRIES) * 8
        assert self.traced_peak(run) < window_peak + extra

    def test_regional_totals_hold_one_month_block(self):
        # the totals and a few chunks, no month block
        cfg = dataclasses.replace(make_config(), months=12)
        simulate_window(cfg, derive_trial_seed(0, 0)).actual_total  # builds the cached jump tables
        window = simulate_window(cfg, derive_trial_seed(0, 1))
        tracemalloc.start()
        try:
            window.actual_total
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (cfg.total_periods + 3 * harness._CHUNK_ENTRIES) * 8

    def test_most_negative_mode_selects_one(self):
        cfg = make_config("25 = random_offset 1.0 subtract",
                          extra="[detection]\nmode = most_negative\n")
        outcome = run_trial(cfg, derive_trial_seed(0, 0))
        assert outcome.detected == frozenset({25})


class TestOutcomeScoring:
    def _outcome(self, true_malicious, detected):
        return TrialOutcome(
            true_malicious=frozenset(true_malicious),
            detected=frozenset(detected),
            window=None,
        )

    def test_derived_fields(self):
        # exact match, every attacker found and the false positives, through the verdicts
        missed, extra = self._outcome({1, 2}, {2, 9}), self._outcome({2}, {2, 9})
        assert not trial_success(missed) and trial_success(self._outcome({1, 2}, {2, 1}))
        assert missed.outcome_class == "missed_attacker" and missed.true_malicious & missed.detected == {2}
        assert len(missed.detected - missed.true_malicious) == 1
        assert trial_success(extra) and extra.outcome_class == "extra_benign"

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
    starts.  The process may run on ``cpus`` CPUs, and the machine reports as
    many.  Returns the list of worker counts the pools were built with.  A pool
    runs its initializer once, as its one worker, and then gives this process
    back its SIGINT handler, which a worker's initializer sets to ignore."""
    asked = []

    class InlinePool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            asked.append(max_workers)
            if initializer is not None:
                handler = signal.getsignal(signal.SIGINT)
                initializer(*initargs)
                signal.signal(signal.SIGINT, handler)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    return asked


START_METHOD_TABLE = textwrap.dedent("""\
    import multiprocessing, sys
    from gridwatch import harness
    from gridwatch.config import loads_config

    class Recorded(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            print(self._mp_context.get_start_method())

    harness.ProcessPoolExecutor, harness.usable_cpus = Recorded, lambda: 2  # two workers on any host
    multiprocessing.set_start_method(sys.argv[1])
    base = loads_config("[region]\\nconsumers = 10\\nperiods_per_day = 4\\n[experiment]\\nrepetitions = 4\\n")
    tables = [harness.probability_table(base, 1, durations=(1, 2), threads=t) for t in (1, 2)]
    assert tables[0] == tables[1], tables
""")


SET_POOL_CLASS = textwrap.dedent("""\
    import sys
    from gridwatch import harness
    from gridwatch.config import loads_config

    class Inline:
        # runs its jobs in this process; set on the module before the name is first read
        built = []

        def __init__(self, max_workers, initializer=None, initargs=()):
            Inline.built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    harness.ProcessPoolExecutor, harness.usable_cpus = Inline, lambda: 2  # two workers on any host
    base = loads_config("[region]\\nconsumers = 10\\nperiods_per_day = 4\\n[experiment]\\nrepetitions = 4\\n")
    tables = [harness.probability_table(base, 1, durations=(1, 2), threads=t) for t in (1, 2)]
    assert tables[0] == tables[1], tables
    print(Inline.built, "concurrent.futures.process" in sys.modules)
""")


def test_a_pool_class_set_on_the_module_is_the_one_built():
    # a fresh process: the benchmark's tracer sets its own class at
    # harness.ProcessPoolExecutor before any pool starts; the pooled estimate builds
    # that class, and the real pool module is never imported
    argv = [sys.executable, "-c", SET_POOL_CLASS]
    result = subprocess.run(argv, env=python_env(), capture_output=True, text=True, timeout=300, check=True)
    assert result.stdout == "[2] False\n"


def test_every_harness_annotation_resolves_before_the_pool_class_loads():
    # a fresh process: harness.ProcessPoolExecutor is imported on first access, so no
    # annotation may name it
    probe = ("import typing; from gridwatch import harness; "
             "[typing.get_type_hints(f) for f in vars(harness).values() "
             "if callable(f) and getattr(f, '__module__', None) == harness.__name__]; "
             "print('ProcessPoolExecutor' in vars(harness))")
    result = subprocess.run([sys.executable, "-c", probe], env=python_env(), capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout == "False\n"


class TestEstimates:
    def test_probability_and_stderr(self):
        cfg = tiny_config(attackers="1 = multiplicative 0.1", periods_per_day=24)
        cfg = dataclasses.replace(cfg, repetitions=20)
        est = estimate(cfg)
        assert 0.0 <= est.probability <= 1.0
        p = est.probability
        assert est.stderr == pytest.approx(np.sqrt(p * (1 - p) / 20))

    def test_worker_count_capped_at_job_count(self, monkeypatch):
        # workers = min(threads, range jobs); one job runs without a pool
        asked = install_inline_pool(monkeypatch)
        cfg = tiny_config(attackers="1 = multiplicative 0.1", periods_per_day=24)
        cfg = dataclasses.replace(cfg, repetitions=3)
        assert estimate(cfg, threads=4) == estimate(cfg)
        assert estimate(cfg, threads=2) == estimate(cfg)
        one = dataclasses.replace(cfg, repetitions=1)
        assert estimate(one, threads=2) == estimate(one)
        assert asked == [3, 2]

    def test_worker_count_capped_at_cpu_count(self, monkeypatch):
        # the CPUs this process may run on, not the machine's CPU count; where the
        # platform has no affinity, the CPU count
        asked = install_inline_pool(monkeypatch)
        base = dataclasses.replace(tiny_config(attackers=""), repetitions=3, master_seed=4)
        serial = probability_table(base, 1, threads=1)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {1})
        assert probability_table(base, 1, threads=2) == serial
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 3})
        assert probability_table(base, 1, threads=10**6) == serial
        monkeypatch.delattr(harness.os, "sched_getaffinity")
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        assert probability_table(base, 1, threads=10**6) == serial
        assert asked == [2, 3]

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
        assert probability_table(base, 1, cases=(), threads=2) == []
        assert duration_sweep(base, [], threads=2) == {}

    def test_pool_workers_keep_their_freed_heap(self, monkeypatch):
        # every worker sets the malloc thresholds first, whatever its start method;
        # a serial estimate leaves the caller's process as it is
        install_inline_pool(monkeypatch)
        calls = []
        monkeypatch.setattr(harness, "_keep_freed_heap", lambda: calls.append("set"))
        base = dataclasses.replace(tiny_config(attackers=""), repetitions=3, master_seed=4)
        probability_table(base, 1, threads=1)
        assert calls == []
        probability_table(base, 1, threads=2)
        assert calls == ["set"]

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_a_pool_started_any_way_counts_as_the_serial_run(self, method):
        # Python 3.14 starts pools with forkserver on Linux; spawned workers import
        # gridwatch afresh and still draw every stream as the serial run does
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        argv = [sys.executable, "-c", START_METHOD_TABLE, method]
        result = subprocess.run(argv, env=python_env(), capture_output=True, text=True, timeout=300, check=True)
        assert result.stdout.split() == [method]

    @settings(max_examples=60, deadline=None)
    @given(reps=st.integers(1, 50), threads=st.integers(1, 4))
    def test_range_jobs_cover_every_trial_once(self, reps, threads):
        # one group: three cells of one master seed, consumer count and
        # repetitions; every job covers all of them, the jobs only record
        # their ranges and the pool runs them inline
        base = dataclasses.replace(tiny_config(), repetitions=reps)
        configs = [base, dataclasses.replace(base, months=2), dataclasses.replace(base, months=3)]
        seen = {pos: [] for pos in range(3)}
        lengths = []

        def record(job):
            cells, start, stop = job
            assert cells == tuple(configs)
            for cell in cells:
                seen[configs.index(cell)].extend(range(start, stop))
            lengths.append(stop - start)
            return [stop - start] * len(cells)

        with pytest.MonkeyPatch.context() as mp:
            install_inline_pool(mp)
            mp.setattr(harness, "_count_successes", record)
            estimates = harness._estimate(configs, threads)
        assert all(sorted(seen[pos]) == list(range(reps)) for pos in range(3))
        assert [e.successes for e in estimates] == [reps] * 3
        assert len(lengths) == min(reps, 4 * threads)
        assert lengths == sorted(lengths, reverse=True)

    @pytest.mark.parametrize("change", [
        {"master_seed": 1}, {"repetitions": 4}, {"consumers": 6},
    ])
    def test_configs_of_mixed_groups_are_refused(self, monkeypatch, change):
        # one estimate is one group: its cells share a master seed, a
        # consumer count and repetitions, else no trial runs
        monkeypatch.setattr(harness, "_count_successes", pytest.fail)
        base = dataclasses.replace(tiny_config(), repetitions=3)
        with pytest.raises(ValueError, match="share"):
            harness._estimate([base, dataclasses.replace(base, months=2, **change)], threads=1)

    def test_a_job_shares_one_block_per_trial_index(self, monkeypatch):
        # table1's twelve cells (three cases x four durations) of one seed: per
        # trial index a job computes the row starts and the attacker's column
        # once, for the longest cell, and holds one index's block at a time.
        # Cases I and II are scored on the attacker's periods alone: their
        # attacks draw nothing, so at each duration they share one generator,
        # and all eight take one correlate call; only case III's four cells
        # make their own generators, correlate calls and sampled reads.
        starts, columns, sampled, alive, peak, generators, correlated = [], [], [], [], [], [], []
        real_starts, real_correlate = _pcg64._row_starts, harness.correlate

        def counting_starts(s0, inc, periods, n):
            starts.append((periods, n))
            return real_starts(s0, inc, periods, n)

        def counting_correlate(positions, x, y, n):
            correlated.append(n)
            return real_correlate(positions, x, y, n)

        class Tracked(_pcg64.UniformBlock):
            def __init__(self, *args):
                super().__init__(*args)
                alive.append(weakref.ref(self))
                peak.append(sum(ref() is not None for ref in alive))

            def read(self, cols):
                if np.ndim(cols) == 0:
                    columns.append(int(cols))
                else:
                    sampled.append(len(cols))
                return super().read(cols)

            def generator(self, rows):
                generators.append(rows)
                return super().generator(rows)

        monkeypatch.setattr(_pcg64, "_row_starts", counting_starts)
        monkeypatch.setattr(_pcg64, "_checked", True)  # the numpy check draws from a generator too
        monkeypatch.setattr(harness, "correlate", counting_correlate)
        monkeypatch.setattr(harness, "UniformBlock", Tracked)
        base = dataclasses.replace(tiny_config(attackers=""), repetitions=3)
        table = probability_table(base, 1)
        assert len(table) == 12
        assert starts == [(12 * 30 * 4, 5)] * 3
        assert columns == [1] * 3
        assert sampled == [30 * 4 * months for months in (1, 3, 6, 12)] * 3
        assert peak == [1] * 3
        assert len(generators) == 8 * 3
        assert correlated == [8, 5, 5, 5, 5] * 3  # a group per batched cell, then case III's trials

    def test_only_cells_whose_one_attacker_draws_nothing_are_batched(self, monkeypatch):
        # a threshold random-offset cell draws its offsets before the sampled positions,
        # so it runs the full trial; the x0.1 cell beside it is scored in the batch
        ran = []
        real = harness.run_trial

        def counting(config, trial_seed):
            ran.append(config)
            return real(config, trial_seed)

        monkeypatch.setattr(harness, "run_trial", counting)
        offset, scaled = (tiny_config(a, extra="[detection]\nthreshold = 0.3\n")
                          for a in ("1 = random_offset 1.0", "1 = multiplicative 0.1"))
        for index in range(3):
            verdicts = harness._index_successes([offset, scaled], index)
            assert ran == [offset]
            ran.clear()
            seed = derive_trial_seed(offset.master_seed, index)
            assert verdicts == [trial_success(real(c, seed)) for c in (offset, scaled)]

    def test_thread_count_does_not_change_result(self):
        cfg = tiny_config(attackers="1 = multiplicative 0.1", periods_per_day=24)
        cfg = dataclasses.replace(cfg, repetitions=8)
        serial = estimate(cfg, threads=1)
        parallel = estimate(cfg, threads=2)
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
        assert c1.attackers == ((25, Multiplicative(0.1)),)
        # offsets default to the midpoint of the [0.5, 1.5] usage range
        assert c2.attackers == ((25, FixedOffset(1.0, "subtract")),)
        assert c3.attackers == ((25, RandomOffset(1.0, "subtract")),)
        assert c3.mode == MOST_NEGATIVE_MODE
        assert [cid for cid, _ in c1.attackers] == [25]
        # the case attacker replaces the base's attackers
        assert case_config(make_config("3 = multiplicative 2.0"), "I", 25) == c1

    def test_table1_job_pickles_small(self, monkeypatch):
        # a pool job carries every cell of its group: all 12 of table1's
        jobs = []
        monkeypatch.setattr(harness, "_count_successes", lambda job: jobs.append(job) or [0] * len(job[0]))
        probability_table(dataclasses.replace(make_config(), repetitions=8), 25, threads=1)
        assert [len(cells) for cells, _, _ in jobs] == [12] * 4
        assert max(len(pickle.dumps(job)) for job in jobs) < 4096
        assert pickle.loads(pickle.dumps(jobs[0])) == jobs[0]

    def test_case_config_rejects_unknown_attacker(self):
        with pytest.raises(ConfigurationError):
            case_config(make_config(attackers=""), "I", 250)

    def test_validation(self):
        cfg = make_config()
        with pytest.raises(ConfigurationError):
            dataclasses.replace(cfg, mode="psychic")
        with pytest.raises(ConfigurationError):
            dataclasses.replace(cfg, threshold=0.0)
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
        with pytest.raises(ConfigurationError, match="4300800 periods, above the limit"):
            dataclasses.replace(cfg, periods_per_day=4096, months=35)
        longest = dataclasses.replace(cfg, periods_per_day=4096, months=34)  # 4,177,920 periods
        assert MAX_PERIODS - 30 * 4096 < longest.total_periods <= MAX_PERIODS
        with pytest.raises(ConfigurationError, match="values a month, above the limit"):
            dataclasses.replace(cfg, periods_per_day=4370, consumers=1024)

    def test_largest_finite_sums_are_accepted(self):
        # (5 x 1e150)^2 x 120 periods is finite
        cfg = self.five_consumers(usage_max=1e150, attackers="3 = multiplicative 0.1")
        assert run_trial(cfg, derive_trial_seed(0, 0)).report.corrs[3] == pytest.approx(1.0)


class TestDurationSweeps:
    @pytest.fixture
    def no_trial(self, monkeypatch):
        def trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", trial)

    # a bad duration after a good one: no trial runs before it is refused
    def test_concentration_checks_every_duration_first(self, no_trial):
        with pytest.raises(ConfigurationError, match="months must be >= 1"):
            concentration_experiment(tiny_config(), (1, 0))

    def test_duration_sweep_checks_every_duration_first(self, no_trial):
        with pytest.raises(ConfigurationError, match="months must be >= 1"):
            duration_sweep(tiny_config(), (1, 0))

    def test_probability_table_checks_every_duration_first(self, no_trial):
        with pytest.raises(ConfigurationError, match="months must be >= 1"):
            probability_table(tiny_config(), 1, durations=(1, 0))

    def test_probability_table_checks_every_case_first(self, no_trial):
        with pytest.raises(ConfigurationError, match="^unknown case 'IV'$"):
            probability_table(tiny_config(), 1, cases=("I", "IV"))

    def test_a_one_duration_sweep_is_its_config(self):
        cfg = dataclasses.replace(tiny_config(extra="[billing]\ntariff = 0.5\n"), repetitions=2)
        assert duration_sweep(cfg, (1,)) == {1: harness._estimate([cfg], 1)[0]}
        report = run_trial(cfg, derive_trial_seed(0, 1)).report
        assert same_report(concentration_experiment(cfg, (1,))[1], report)


class TestBillingPath:
    def test_bills_match_reported_totals(self):
        cfg = tiny_config(attackers="1 = multiplicative 0.1")
        _, _, _, amounts = run_billing(cfg, derive_trial_seed(0, 0))
        window = simulate_window(cfg, derive_trial_seed(0, 0))
        assert float(amounts.sum()) == pytest.approx(float(window.reported_total.sum()), rel=1e-9)

    def test_one_bill_per_consumer_per_month(self):
        cfg = dataclasses.replace(tiny_config(), months=2)
        bills = run_billing(cfg, derive_trial_seed(0, 0))
        assert all(len(column) == 2 * 5 for column in bills)
        starts = set(bills[1].tolist())
        assert starts == {0, 30 * 4}


class TestConcentration:
    def test_benign_std_helper(self):
        cfg = make_config()
        outcome = run_trial(cfg, derive_trial_seed(42, 1))
        std = benign_corr_std(outcome.report, {25})
        assert 0.0 < std < 1.0


class TestHeap:
    def test_both_thresholds_are_set_alike_on_every_call(self, monkeypatch):
        calls = []

        class Libc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(harness.ctypes, "CDLL", lambda name: Libc())
        assert harness._keep_freed_heap() is harness._keep_freed_heap() is True
        assert calls == [(-3, 4_000_000), (-1, 64_000_000)] * 2

    def test_without_mallopt_nothing_is_set(self, monkeypatch):
        # musl and macOS: no error, and the manifest says "default"
        monkeypatch.setattr(harness.ctypes, "CDLL", lambda name: object())
        assert harness._keep_freed_heap() is False
