import dataclasses
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_config
from gridwatch.config import loads_config
from gridwatch.errors import ConfigurationError
from gridwatch.harness import ScenarioConfig, simulate_window
from per_period import matrices
from gridwatch.model import (
    FixedOffset,
    Multiplicative,
    RandomOffset,
    apply_behavior,
)


def usage_of(config, seed):
    return matrices(simulate_window(config, seed)).usage


class TestDrawUsage:
    """The window's usage draw: uniform on the config's [usage_min, usage_max]."""

    def test_support_bounds(self):
        usage = usage_of(tiny_config(attackers="", periods_per_day=48), 12345)
        assert usage.min() >= 0.5 and usage.max() <= 1.5

    def test_near_degenerate_interval(self):
        cfg = loads_config("[region]\nconsumers = 5\nperiods_per_day = 4\nusage_min = 0.5\n"
                           "usage_max = 0.500000001\n")
        np.testing.assert_allclose(usage_of(cfg, 12345), 0.5, atol=1e-8)

    def test_law_of_large_numbers_mean(self):
        # uniform mean is (a+b)/2 = 1.0 for the default [0.5, 1.5] range
        usage = usage_of(tiny_config(attackers="", consumers=100, periods_per_day=40), 7)
        assert usage.size == 120_000
        assert abs(usage.mean() - 1.0) < 0.01

    def test_same_seed_same_sequence(self):
        cfg = tiny_config(attackers="")
        assert usage_of(cfg, 99).tobytes() == usage_of(cfg, 99).tobytes()
        assert usage_of(cfg, 99).tobytes() != usage_of(cfg, 98).tobytes()


def one(behavior, actual, rng):
    """Report for one actual value, through a one-element array."""
    return float(apply_behavior(behavior, np.array([actual]), rng)[0])


class TestApplyBehavior:
    def test_benign_identity(self, rng):
        actual = np.array([7.2, 0.0, 3.5])
        assert apply_behavior(Multiplicative(1.0), actual, rng).tobytes() == actual.tobytes()

    def test_multiplicative_tenth(self, rng):
        assert one(Multiplicative(0.1), 10.0, rng) == pytest.approx(1.0)

    def test_fixed_offset_clips_to_zero(self, rng):
        assert one(FixedOffset(eta=3.0, direction="subtract"), 2.0, rng) == 0.0

    def test_fixed_offset_add(self, rng):
        assert one(FixedOffset(eta=3.0, direction="add"), 2.0, rng) == 5.0

    def test_random_offset_subtract_bounds(self, rng):
        behavior = RandomOffset(theta_max=0.5, direction="subtract")
        r = apply_behavior(behavior, np.ones(200), rng)
        assert np.all((0.5 <= r) & (r <= 1.0))

    def test_random_offset_add_bounds(self, rng):
        behavior = RandomOffset(theta_max=0.5, direction="add")
        r = apply_behavior(behavior, np.ones(200), rng)
        assert np.all((1.0 <= r) & (r <= 1.5))

    def test_random_offset_independent_of_actual(self):
        # identical rng state must give identical offsets regardless of actual
        b = RandomOffset(theta_max=0.5, direction="add")
        r1 = apply_behavior(b, np.ones(50), np.random.default_rng(5))
        r2 = apply_behavior(b, np.full(50, 2.0), np.random.default_rng(5))
        np.testing.assert_allclose(r2 - r1, 1.0, rtol=1e-12)

    def test_vectorized_matches_scalar(self):
        # elementwise: the whole array gives what each element gives alone
        actuals = np.array([0.0, 0.5, 1.0, 10.0])
        for behavior in (Multiplicative(1.0), Multiplicative(0.3), Multiplicative(2.0),
                         FixedOffset(0.7), FixedOffset(0.7, "add")):
            rng = np.random.default_rng(0)
            vec = np.asarray(apply_behavior(behavior, actuals, rng))
            scal = [one(behavior, float(a), np.random.default_rng(0)) for a in actuals]
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
            Multiplicative(1.0),
            Multiplicative(alpha),
            FixedOffset(eta, "subtract"),
            FixedOffset(eta, "add"),
            RandomOffset(eta, "subtract"),
            RandomOffset(eta, "add"),
        ]
        actuals = np.array([0.0, actual, 2.0 * actual])
        for behavior in behaviors:
            assert np.all(apply_behavior(behavior, actuals, rng) >= 0.0)

    @given(actual=st.floats(min_value=1e-9, max_value=1e6),
           alpha=st.floats(min_value=1e-6, max_value=1e3))
    @settings(max_examples=100, deadline=None)
    def test_multiplicative_exact_ratio(self, actual, alpha):
        rng = np.random.default_rng(0)
        assert one(Multiplicative(alpha), actual, rng) / actual == pytest.approx(alpha, rel=1e-12)


class TestValidation:
    def test_usage_range_must_be_increasing(self):
        with pytest.raises(ConfigurationError, match="must be <"):
            ScenarioConfig(consumers=2, usage_min=1.0, usage_max=1.0)

    def test_negative_usage_min(self):
        with pytest.raises(ConfigurationError, match="usage_min must be >= 0"):
            ScenarioConfig(consumers=2, usage_min=-0.1, usage_max=1.0)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Multiplicative(0.0)

    @pytest.mark.parametrize("model", [Multiplicative, FixedOffset, RandomOffset])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), -1.0])
    def test_attack_parameter_must_be_finite_and_positive(self, model, value):
        with pytest.raises(ConfigurationError, match="finite"):
            model(value)

    def test_alpha_one_is_behaviorally_benign(self):
        # a x1.0 entry reports truthfully: the config drops it, as it drops a benign one
        config = ScenarioConfig(consumers=3, attackers={0: Multiplicative(1.0), 1: Multiplicative(0.999)})
        assert config.attackers == ((1, Multiplicative(0.999)),)
        assert config.malicious_ids == {1}

    def test_bad_direction(self):
        with pytest.raises(ConfigurationError):
            FixedOffset(1.0, direction="sideways")

    def test_region_needs_two_consumers(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(consumers=1)

    def test_region_rejects_duplicate_ids(self):
        # one id given twice is an error, not the last behavior silently kept
        with pytest.raises(ConfigurationError, match="unique"):
            ScenarioConfig(consumers=3, attackers=((1, Multiplicative(0.1)), (1, Multiplicative(10.0))))
        with pytest.raises(ConfigurationError, match="unique"):
            loads_config("[region]\nconsumers = 3\n[attackers]\n1 = multiplicative 0.1\n01 = benign\n")

    @pytest.mark.parametrize("cid", [-1, 2])
    def test_attacker_ids_are_positions(self, cid):
        with pytest.raises(ConfigurationError, match=f"id {cid} is outside the region's 0..1 consumers"):
            ScenarioConfig(consumers=2, attackers={cid: Multiplicative(0.1)})

    def test_attackers_sorted_by_id_without_benign(self):
        attackers = {4: FixedOffset(0.3), 0: Multiplicative(1), 2: Multiplicative(1.0), 1: Multiplicative(0.5)}
        config = ScenarioConfig(consumers=5, attackers=attackers)
        assert config.attackers == ((1, Multiplicative(0.5)), (4, FixedOffset(0.3)))
        assert config == ScenarioConfig(consumers=5, attackers=[(1, Multiplicative(0.5)), (4, FixedOffset(0.3))])
        assert hash(config) == hash(ScenarioConfig(consumers=5, attackers=dict(config.attackers)))
        assert config == ScenarioConfig(consumers=5, attackers=MappingProxyType(attackers))  # any mapping
        assert config.malicious_ids == {1, 4}  # alpha = 1 reports truthfully, so it is dropped

    def test_total_periods(self):
        config = ScenarioConfig(consumers=2, periods_per_day=96)
        assert config.total_periods == 2880
        assert dataclasses.replace(config, months=12).total_periods == 12 * 2880
