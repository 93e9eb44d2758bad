"""Grid entities: reporting behaviors and regions.

Every consumer's usage is i.i.d. uniform on the region's
``[usage_min, usage_max]`` per period (no temporal correlation, the
hardest setting for the detector); `harness.simulate_window` computes
the entries a trial reads from the generator's state, bit for bit what a
full draw would give.
Reported values are derived from actual usage by the consumer's behavior
model and are clipped at zero so reports stay physical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Union

import numpy as np

from .errors import ConfigurationError

DEFAULT_USAGE_MIN = 0.5
DEFAULT_USAGE_MAX = 1.5

Direction = Literal["subtract", "add"]


@dataclass(frozen=True)
class Benign:
    """Reports actual usage unchanged."""


@dataclass(frozen=True)
class Multiplicative:
    """Reports a fixed fraction or multiple of actual usage.

    ``alpha`` in (0, 1) under-reports, ``alpha`` > 1 over-reports;
    ``alpha`` = 1 is accepted but behaves exactly like `Benign`.
    """

    alpha: float

    def __post_init__(self):
        _check_positive_finite("alpha", self.alpha)


@dataclass(frozen=True)
class FixedOffset:
    """Adds or subtracts a fixed quantity ``eta``; subtraction clips at zero."""

    eta: float
    direction: Direction = "subtract"

    def __post_init__(self):
        _check_positive_finite("eta", self.eta)
        _check_direction(self.direction)


@dataclass(frozen=True)
class RandomOffset:
    """Adds or subtracts a fresh uniform(0, theta_max) draw each period.

    The offset is drawn independently of the actual usage; subtraction
    clips at zero.
    """

    theta_max: float
    direction: Direction = "subtract"

    def __post_init__(self):
        _check_positive_finite("theta_max", self.theta_max)
        _check_direction(self.direction)


BehaviorModel = Union[Benign, Multiplicative, FixedOffset, RandomOffset]


def _check_positive_finite(name: str, value: float) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise ConfigurationError(f"{name} must be finite and > 0, got {value}")


def _check_direction(direction: str) -> None:
    if direction not in ("subtract", "add"):
        raise ConfigurationError(
            f"direction must be 'subtract' or 'add', got {direction!r}"
        )


def is_benign(behavior: BehaviorModel) -> bool:
    """True when the behavior reports truthfully (includes alpha == 1)."""
    if isinstance(behavior, Benign):
        return True
    return isinstance(behavior, Multiplicative) and behavior.alpha == 1.0


@dataclass(frozen=True)
class RegionConfig:
    """One aggregator's region: consumers with ids ``0..consumers-1``, all
    drawing usage on one range, and the misreporting ones.

    ``attackers`` is given as a mapping or as ``(id, behavior)`` pairs and
    kept as pairs sorted by id, without `Benign` entries.
    """

    region_id: int
    consumers: int
    usage_min: float = DEFAULT_USAGE_MIN
    usage_max: float = DEFAULT_USAGE_MAX
    attackers: tuple[tuple[int, BehaviorModel], ...] = ()
    periods_per_day: int = 96

    def __post_init__(self):
        pairs = list(self.attackers.items() if isinstance(self.attackers, dict) else self.attackers)
        n, ids = self.consumers, [cid for cid, _ in pairs]
        if n < 2:
            raise ConfigurationError(f"a region needs at least 2 consumers, got {n}")
        if len(set(ids)) != len(ids):
            raise ConfigurationError("attacker ids must be unique within a region")
        for cid in ids:
            if not 0 <= cid < n:
                raise ConfigurationError(f"[attackers] id {cid} is outside the region's 0..{n - 1} consumers")
        if not (math.isfinite(self.usage_min) and math.isfinite(self.usage_max)):
            raise ConfigurationError(
                f"usage bounds must be finite, got [{self.usage_min}, {self.usage_max}]"
            )
        if self.usage_min < 0:
            raise ConfigurationError(
                f"usage_min must be >= 0, got {self.usage_min}"
            )
        if not self.usage_min < self.usage_max:
            raise ConfigurationError(
                f"usage_min ({self.usage_min}) must be < usage_max ({self.usage_max})"
            )
        if self.periods_per_day <= 0:
            raise ConfigurationError(
                f"periods_per_day must be > 0, got {self.periods_per_day}"
            )
        attackers = (pair for pair in pairs if not isinstance(pair[1], Benign))
        object.__setattr__(self, "attackers", tuple(sorted(attackers, key=lambda pair: pair[0])))

    @property
    def malicious_ids(self) -> set[int]:
        return {cid for cid, behavior in self.attackers if not is_benign(behavior)}


def apply_behavior(
    behavior: BehaviorModel, actual: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Turn an array of actual usage into the reported values, elementwise.

    The returned report has the same shape and is always >= 0.
    `RandomOffset` draws one offset per element from ``rng``.
    """
    if isinstance(behavior, Benign):
        return actual
    if isinstance(behavior, Multiplicative):
        return behavior.alpha * actual
    if isinstance(behavior, FixedOffset):
        if behavior.direction == "subtract":
            return np.maximum(actual - behavior.eta, 0.0)
        return actual + behavior.eta
    if isinstance(behavior, RandomOffset):
        theta = rng.uniform(0.0, behavior.theta_max, size=actual.shape)
        if behavior.direction == "subtract":
            return np.maximum(actual - theta, 0.0)
        return actual + theta
    raise TypeError(f"unknown behavior model: {behavior!r}")
