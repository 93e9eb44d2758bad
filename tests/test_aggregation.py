"""The aggregation stage of a window: regional totals, leakage, report sampling
and the per-consumer sample series, checked on the whole-window arrays
(`simulate_window`, `WindowData`, `series_from_arrays`) and, where noted,
on the per-period reference they are compared against."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import tiny_config
from gridwatch.detection import low_report_correlations, series_from_arrays
from gridwatch.errors import ConfigurationError
from gridwatch.harness import simulate_window
from per_period import accumulate_samples, aggregate_period, matrices, window_records


def window_of(config, seed=0):
    return simulate_window(config, seed)


class TestAggregatePeriod:
    def test_all_benign_conserves(self):
        window = window_of(tiny_config(attackers=""))
        assert np.all(window.leakage == 0.0)
        assert np.array_equal(window.reported_total, window.actual_total)

    def test_hand_computed_leakage(self):
        # consumer 0 reports a tenth: (10-1) + (5-5) = 9
        assert aggregate_period([10.0, 5.0], [1.0, 5.0], 0, 0).leakage == pytest.approx(9.0)
        # the window's leakage is the same sum over its attackers, every period
        window = window_of(tiny_config(attackers="0 = multiplicative 0.1\n3 = fixed_offset 0.4 add"))
        np.testing.assert_allclose(
            window.leakage, np.subtract(*matrices(window)).sum(axis=1), rtol=1e-12, atol=1e-15
        )

    def test_sampled_pair_consistency(self):
        # the sampled report is the sampled consumer's, and its id is its position
        cfg = tiny_config(attackers="0 = random_offset 0.3 add\n2 = multiplicative 0.5")
        window = window_of(cfg, seed=4)
        periods = np.arange(cfg.total_periods)
        reports = matrices(window).reports
        assert np.array_equal(window.sampled_reports, reports[periods, window.sampled_pos])
        sampled_id = window.to_records()[4]
        assert sampled_id.dtype == np.int64 and np.array_equal(sampled_id, window.sampled_pos)

    def test_length_mismatch_rejected(self):
        # the reference's own input check
        with pytest.raises(ValueError):
            aggregate_period([1.0, 2.0], [1.0], 0, 0)

    def test_single_consumer_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_config(attackers="", consumers=1)
        with pytest.raises(ValueError):
            aggregate_period([1.0], [1.0], 0, 0)

    @given(
        attackers=st.sampled_from(
            ["", "0 = multiplicative 0.1", "1 = fixed_offset 0.9", "0 = random_offset 2.0 add\n"
             "2 = multiplicative 7.5"]
        ),
        consumers=st.integers(3, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_conservation_property(self, attackers, consumers, seed):
        # reported total (actual minus leakage) equals the sum of the reports
        window = window_of(tiny_config(attackers=attackers, consumers=consumers), seed)
        np.testing.assert_allclose(
            window.reported_total, matrices(window).reports.sum(axis=1), rtol=1e-12, atol=1e-15
        )


class TestAccumulateSamples:
    def test_empty(self):
        # consumers never sampled keep empty series
        series = series_from_arrays(
            np.array([0, 0, 2]), np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3]), 4
        )
        assert [len(r) for r, _ in series] == [2, 0, 1, 0]
        assert all(len(l) == 0 for _, l in (series[1], series[3]))

    def test_single_append(self):
        series = series_from_arrays(np.array([7]), np.array([1.2]), np.array([0.3]), 10)
        assert [list(v) for v in series[7]] == [[1.2], [0.3]]
        assert sum(len(r) for r, _ in series) == 1

    def test_duplicate_period_rejected(self):
        # the reference fold takes each period once
        with pytest.raises(ValueError):
            accumulate_samples([(3, 0, 1.0, 0.0), (3, 0, 1.0, 0.0)], 2)

    def test_series_lengths_sum_to_periods(self, rng):
        positions = rng.integers(0, 4, size=200)
        series = series_from_arrays(positions, rng.uniform(size=200), rng.uniform(size=200), 4)
        assert [len(r) for r, _ in series] == list(np.bincount(positions, minlength=4))
        assert sum(len(l) for _, l in series) == 200


class TestSamplingUniformity:
    def test_chi_square_over_month(self):
        # 2880 periods over 100 consumers: expected 28.8 samples each
        cfg = tiny_config(attackers="", consumers=100, periods_per_day=96)
        window = simulate_window(cfg, 2024)
        counts = np.bincount(window.sampled_pos, minlength=100)
        assert counts.sum() == 2880
        assert counts.mean() == pytest.approx(28.8)
        _, p = stats.chisquare(counts)
        assert p > 0.001

    def test_sampling_independent_across_periods(self):
        # identical consumers every period, yet the sampled position varies
        window = simulate_window(tiny_config(attackers="", consumers=10), 0)
        assert len(set(window.sampled_pos[:100].tolist())) > 1


class TestSeriesFromArrays:
    def test_matches_record_path(self):
        # the grouped slices agree with a period-by-period fold of the records
        cfg = tiny_config(attackers="1 = multiplicative 0.9", consumers=6, periods_per_day=16)
        window = window_of(cfg, seed=11)
        records = window_records(*matrices(window), window.sampled_pos)
        folded = accumulate_samples(
            ((r.period, r.sampled, r.sampled_report, leak) for r, leak in zip(records, window.leakage)),
            6,
        )
        for (ra, la), (rr, lr) in zip(series_from_arrays(
            window.sampled_pos, window.sampled_reports, window.leakage, 6
        ), folded, strict=True):
            assert ra.tolist() == rr
            assert la.tolist() == lr

    @pytest.mark.parametrize("n", [2, 100, 256, 257, 65_536, 65_537])
    def test_groups_follow_the_stable_sort_of_the_positions(self, rng, n):
        # the narrow key's sort gives each group the pairs, in the order, that
        # sorting the positions as given does; the pairs fall on even groups and
        # the last, so every odd group below n - 1 is empty
        positions = np.concatenate([rng.integers(0, n, size=3_000) // 2 * 2, [n - 1, 0, n - 1]])
        reports = np.arange(len(positions), dtype=float)  # each pair's index
        kept = positions.copy()
        series = series_from_arrays(positions, reports, -reports, n)
        assert np.array_equal(positions, kept)
        counts = np.bincount(positions, minlength=n)
        assert [len(r) for r, _ in series] == counts.tolist()
        assert (counts[1:-1:2] == 0).all() and counts[-1] >= 2
        order = np.argsort(positions, kind="stable")
        assert np.array_equal(np.concatenate([r for r, _ in series]), order)
        assert np.array_equal(np.concatenate([l for _, l in series]), -order)

    def test_empty_arrays(self):
        series = series_from_arrays(np.array([], dtype=int), np.array([]), np.array([]), 3)
        assert [len(r) for r, _ in series] == [0, 0, 0]
        assert np.isnan(low_report_correlations(series, 0.25, 5)).all()
