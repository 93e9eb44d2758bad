"""Reporting behaviors, and the checks that read a config value as an int or a float
and hold it to its limit.

Every consumer's usage is i.i.d. uniform on the config's
``[usage_min, usage_max]`` per period (no temporal correlation, the
hardest setting for the detector); `harness.simulate_window` computes
the entries a trial reads from its seed's generator state, bit for bit
what a full draw would give.  Truthful reporting is ``Multiplicative(1.0)``.
Reported values are derived from actual usage by the consumer's behavior
model and are clipped at zero so reports stay physical.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, Literal, Union

import numpy as np

from .errors import ConfigurationError

Direction = Literal["subtract", "add"]


@dataclass(frozen=True)
class Multiplicative:
    """Reports a fixed fraction or multiple of actual usage.

    ``alpha`` in (0, 1) under-reports, ``alpha`` > 1 over-reports;
    ``alpha`` = 1 reports truthfully (a config's ``benign``), and a config drops it.
    """

    alpha: float

    def __post_init__(self):
        _check_positive_finite(self, "alpha")


@dataclass(frozen=True)
class FixedOffset:
    """Adds or subtracts a fixed quantity ``eta``; subtraction clips at zero."""

    eta: float
    direction: Direction = "subtract"

    def __post_init__(self):
        _check_positive_finite(self, "eta")
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
        _check_positive_finite(self, "theta_max")
        _check_direction(self.direction)


BehaviorModel = Union[Multiplicative, FixedOffset, RandomOffset]


def check_limit(name: str, value, limit: tuple[str, Callable[[float], bool]]) -> None:
    """A limit is a rule as its error states it, and its test: unless ``value`` passes the
    test, ``<name> must be <rule>, got <value>`` is a `ConfigurationError`."""
    rule, test = limit
    if not test(value):
        raise ConfigurationError(f"{name} must be {rule}, got {value}")


POSITIVE_FINITE = ("finite and > 0", lambda v: 0 < v < math.inf)


def _check_positive_finite(behavior: BehaviorModel, name: str) -> None:
    value = as_real(name, getattr(behavior, name))
    check_limit(name, value, POSITIVE_FINITE)
    object.__setattr__(behavior, name, value)


def as_integer(name: str, value) -> int:
    """``value`` as an ``int`` (numpy integers too); anything else, an integral float
    or a ``bool`` among them, is a `ConfigurationError`, since the config file could not hold it."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def as_real(name: str, value) -> float:
    """``value`` as a ``float`` (ints and numpy numbers too); anything else, a string,
    None or a ``bool`` among them, or an int past float's range, is a `ConfigurationError`."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            return float(value)
    except OverflowError:
        pass
    raise ConfigurationError(f"{name} must be a real number, got {value!r}")


def _check_direction(direction: str) -> None:
    if direction not in ("subtract", "add"):
        raise ConfigurationError(
            f"direction must be 'subtract' or 'add', got {direction!r}"
        )


def apply_behavior(
    behavior: BehaviorModel, actual: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Turn an array of actual usage into the reported values, elementwise.

    The returned report has the same shape and is always >= 0.  An offset is
    ``eta`` or, for `RandomOffset`, one draw per element from ``rng``.
    """
    if isinstance(behavior, Multiplicative):
        return behavior.alpha * actual
    offset = (behavior.eta if isinstance(behavior, FixedOffset)
              else rng.uniform(0.0, behavior.theta_max, size=actual.shape))  # RandomOffset
    if behavior.direction == "subtract":
        return np.maximum(actual - offset, 0.0)
    return actual + offset
