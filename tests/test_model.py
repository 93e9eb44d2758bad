import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwatch.errors import ConfigurationError
from gridwatch.model import (
    Benign,
    ConsumerProfile,
    FixedOffset,
    Multiplicative,
    RandomOffset,
    RegionConfig,
    apply_behavior,
    draw_usage,
    is_benign,
)


class TestDrawUsage:
    def test_support_bounds(self, rng):
        profile = ConsumerProfile(0, usage_min=0.5, usage_max=1.5)
        draws = [draw_usage(profile, rng) for _ in range(1000)]
        assert all(0.5 <= c <= 1.5 for c in draws)

    def test_near_degenerate_interval(self, rng):
        profile = ConsumerProfile(0, usage_min=0.5, usage_max=0.5 + 1e-9)
        assert draw_usage(profile, rng) == pytest.approx(0.5, abs=1e-8)

    def test_law_of_large_numbers_mean(self):
        # uniform mean is (a+b)/2 = 1.0 for the default [0.5, 1.5] range
        rng = np.random.default_rng(7)
        profile = ConsumerProfile(0)
        draws = [draw_usage(profile, rng) for _ in range(100_000)]
        assert abs(np.mean(draws) - 1.0) < 0.01

    def test_same_seed_same_sequence(self):
        profile = ConsumerProfile(0)
        rng1, rng2 = np.random.default_rng(99), np.random.default_rng(99)
        seq1 = [draw_usage(profile, rng1) for _ in range(100)]
        seq2 = [draw_usage(profile, rng2) for _ in range(100)]
        assert seq1 == seq2


class TestApplyBehavior:
    def test_benign_identity(self, rng):
        assert apply_behavior(Benign(), 7.2, rng) == 7.2

    def test_multiplicative_tenth(self, rng):
        assert apply_behavior(Multiplicative(0.1), 10.0, rng) == pytest.approx(1.0)

    def test_fixed_offset_clips_to_zero(self, rng):
        assert apply_behavior(FixedOffset(eta=3.0, direction="subtract"), 2.0, rng) == 0.0

    def test_fixed_offset_add(self, rng):
        assert apply_behavior(FixedOffset(eta=3.0, direction="add"), 2.0, rng) == 5.0

    def test_random_offset_subtract_bounds(self, rng):
        behavior = RandomOffset(theta_max=0.5, direction="subtract")
        for _ in range(200):
            r = apply_behavior(behavior, 1.0, rng)
            assert 0.5 <= r <= 1.0

    def test_random_offset_add_bounds(self, rng):
        behavior = RandomOffset(theta_max=0.5, direction="add")
        for _ in range(200):
            r = apply_behavior(behavior, 1.0, rng)
            assert 1.0 <= r <= 1.5

    def test_random_offset_independent_of_actual(self):
        # identical rng state must give identical offsets regardless of actual
        b = RandomOffset(theta_max=0.5, direction="add")
        r1 = apply_behavior(b, 1.0, np.random.default_rng(5))
        r2 = apply_behavior(b, 2.0, np.random.default_rng(5))
        assert r2 - r1 == pytest.approx(1.0)

    def test_vectorized_matches_scalar(self):
        actuals = np.array([0.0, 0.5, 1.0, 10.0])
        for behavior in (Benign(), Multiplicative(0.3), Multiplicative(2.0),
                         FixedOffset(0.7), FixedOffset(0.7, "add")):
            rng = np.random.default_rng(0)
            vec = np.asarray(apply_behavior(behavior, actuals, rng))
            scal = [apply_behavior(behavior, float(a), np.random.default_rng(0)) for a in actuals]
            assert np.array_equal(vec, np.asarray(scal, dtype=float))

    @given(
        actual=st.floats(min_value=0.0, max_value=1e6),
        eta=st.floats(min_value=1e-6, max_value=1e6),
        alpha=st.floats(min_value=1e-6, max_value=1e6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_reports_never_negative(self, actual, eta, alpha, seed):
        rng = np.random.default_rng(seed)
        behaviors = [
            Benign(),
            Multiplicative(alpha),
            FixedOffset(eta, "subtract"),
            FixedOffset(eta, "add"),
            RandomOffset(eta, "subtract"),
            RandomOffset(eta, "add"),
        ]
        for behavior in behaviors:
            assert apply_behavior(behavior, actual, rng) >= 0.0

    @given(actual=st.floats(min_value=1e-9, max_value=1e6),
           alpha=st.floats(min_value=1e-6, max_value=1e3))
    @settings(max_examples=100, deadline=None)
    def test_multiplicative_exact_ratio(self, actual, alpha):
        rng = np.random.default_rng(0)
        assert apply_behavior(Multiplicative(alpha), actual, rng) / actual == pytest.approx(alpha, rel=1e-12)


class TestValidation:
    def test_usage_range_must_be_increasing(self):
        with pytest.raises(ConfigurationError):
            ConsumerProfile(0, usage_min=1.0, usage_max=1.0)

    def test_negative_usage_min(self):
        with pytest.raises(ConfigurationError):
            ConsumerProfile(0, usage_min=-0.1, usage_max=1.0)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Multiplicative(0.0)

    @pytest.mark.parametrize("model", [Multiplicative, FixedOffset, RandomOffset])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), -1.0])
    def test_attack_parameter_must_be_finite_and_positive(self, model, value):
        with pytest.raises(ConfigurationError, match="finite"):
            model(value)

    def test_alpha_one_is_behaviorally_benign(self):
        assert is_benign(Multiplicative(1.0))
        assert not is_benign(Multiplicative(0.999))

    def test_bad_direction(self):
        with pytest.raises(ConfigurationError):
            FixedOffset(1.0, direction="sideways")

    def test_region_needs_two_consumers(self):
        with pytest.raises(ConfigurationError):
            RegionConfig(0, consumers=(ConsumerProfile(0),))

    def test_region_rejects_duplicate_ids(self):
        with pytest.raises(ConfigurationError):
            RegionConfig(0, consumers=(ConsumerProfile(1), ConsumerProfile(1)))

    def test_total_periods(self):
        region = RegionConfig(
            0, consumers=(ConsumerProfile(0), ConsumerProfile(1)),
            periods_per_day=96, num_days=30,
        )
        assert region.total_periods == 2880
