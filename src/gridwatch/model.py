"""Reporting behaviors, and the one field check: a `limited` dataclass field declares
its limit, and `check_fields` reads each such field of a config or a behavior as its
annotation's int or float and holds it to that limit.

Every consumer's usage is i.i.d. uniform on the config's
``[usage_min, usage_max]`` per period (no temporal correlation, the
hardest setting for the detector); `harness.simulate_window` computes
the entries a trial reads from its seed's generator state, bit for bit
what a full draw would give.  Truthful reporting is ``Multiplicative(1.0)``.
Reported values are derived from actual usage by the consumer's behavior
model and are clipped at zero so reports stay physical.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Literal, Union, get_type_hints

import numpy as np

from .errors import ConfigurationError

Direction = Literal["subtract", "add"]


def check_limit(name: str, value, limit: tuple[str, Callable[[float], bool]]) -> None:
    """A limit is a rule as its error states it, and its test: unless ``value`` passes the
    test, ``<name> must be <rule>, got <value>`` is a `ConfigurationError` (a ``str`` value
    shown by its ``repr``)."""
    rule, test = limit
    if not test(value):
        shown = repr(value) if isinstance(value, str) else value
        raise ConfigurationError(f"{name} must be {rule}, got {shown}")


POSITIVE_FINITE = ("finite and > 0", lambda v: 0 < v < math.inf)


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


def limited(limit: tuple[str, Callable], default=MISSING, **metadata):
    """A dataclass field that `check_fields` holds to ``limit``; ``metadata`` rides along."""
    return field(default=default, metadata={"limit": limit, **metadata})


# A dataclass's field types, its annotations resolved once.
field_types = functools.cache(get_type_hints)


def check_fields(obj) -> None:
    """Read each `limited` field of the frozen dataclass ``obj`` by its annotation (an
    ``int`` by `as_integer`, a ``float`` by `as_real`; an unset ``float | None`` stays
    ``None``, and a ``None`` in any other field is held to the limit) and hold it to its
    limit, in field order."""
    kinds = field_types(type(obj))
    for f in fields(obj):
        value, kind = getattr(obj, f.name), kinds[f.name]
        if "limit" not in f.metadata or (kind == float | None and value is None):
            continue
        if kind is int:
            value = as_integer(f.name, value)
        elif kind in (float, float | None):
            value = as_real(f.name, value)
        check_limit(f.name, value, f.metadata["limit"])
        object.__setattr__(obj, f.name, value)


_DIRECTION_LIMIT = ("'subtract' or 'add'", lambda d: d in ("subtract", "add"))


@dataclass(frozen=True)
class Multiplicative:
    """Reports a fixed fraction or multiple of actual usage.

    ``alpha`` in (0, 1) under-reports, ``alpha`` > 1 over-reports;
    ``alpha`` = 1 reports truthfully (a config's ``benign``), and a config drops it.
    """

    alpha: float = limited(POSITIVE_FINITE)

    __post_init__ = check_fields


@dataclass(frozen=True)
class FixedOffset:
    """Adds or subtracts a fixed quantity ``eta``; subtraction clips at zero."""

    eta: float = limited(POSITIVE_FINITE)
    direction: Direction = limited(_DIRECTION_LIMIT, "subtract")

    __post_init__ = check_fields


@dataclass(frozen=True)
class RandomOffset:
    """Adds or subtracts a fresh uniform(0, theta_max) draw each period.

    The offset is drawn independently of the actual usage; subtraction
    clips at zero.
    """

    theta_max: float = limited(POSITIVE_FINITE)
    direction: Direction = limited(_DIRECTION_LIMIT, "subtract")

    __post_init__ = check_fields


BehaviorModel = Union[Multiplicative, FixedOffset, RandomOffset]


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
