"""Scenario configs: the one config object and its file format.

`ScenarioConfig` holds a region and the experiment run on it, one field per
config key, which declares the key's type (its annotation), default, limit and
file section, so adding a key is one field; `model.check_fields` reads and
checks every key when the config is built, before any draw, and only the rules
that join keys have their own code.  The config format is an INI-style
key = value file with five sections: ``[region]``, ``[attackers]``,
``[detection]``, ``[billing]`` and ``[experiment]``.  Loading and writing both
walk one key table, ``_KEYS``, derived from the fields' sections in file
order.  ``[attackers]`` holds free-form
``<consumer id> = <behavior spec>`` entries; a spec is read and written by one
behavior table, ``_BEHAVIORS``, which maps its name to its model, whose fields
follow the name in order.  Unknown sections or keys are hard errors so typos
cannot silently change an experiment.  ``dumps_config`` emits the fully
resolved form, and ``loads_config(dumps_config(c)) == c`` for every valid config.
This module only reads files; `csvio` writes every output file, the run
manifest included.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from pathlib import Path
from typing import Mapping

from .detection import DEFAULT_MIN_SAMPLES, DEFAULT_THRESHOLD, DETECTOR_LIMITS
from .errors import ConfigurationError
from .model import BehaviorModel, FixedOffset, Multiplicative, RandomOffset, as_integer
from .model import POSITIVE_FINITE, check_fields, field_types, limited

DAYS_PER_MONTH = 30
# Size limits, checked when a config is built: one month's float64 usage block up to 1 GiB
MAX_MONTH_ENTRIES = 2**27
MAX_PERIODS = 2**22

THRESHOLD_MODE = "threshold"
MOST_NEGATIVE_MODE = "most_negative"
_MODE_LIMIT = ("'threshold' or 'most_negative'", lambda m: m in (THRESHOLD_MODE, MOST_NEGATIVE_MODE))


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    """One aggregator's region and the experiment run on it; each field is the config key
    of its name, in file order, with its limit and file section.  Consumer ids are positions
    ``0..consumers-1``, all draw usage on one range, and ``attackers``, given as a mapping
    or as ``(id, behavior)`` pairs, is kept as pairs sorted by id, without the entries that
    report truthfully, ``Multiplicative(1.0)``: every attacker left misreports."""

    consumers: int = limited((">= 2", lambda v: v >= 2), 100, section="region")
    periods_per_day: int = limited(("> 0", lambda v: v > 0), 96, section="region")
    usage_min: float = limited((">= 0 and finite", lambda v: 0 <= v < math.inf), 0.5, section="region")
    usage_max: float = limited(("finite", math.isfinite), 1.5, section="region")
    attackers: tuple[tuple[int, BehaviorModel], ...] = dataclasses.field(
        default=(), metadata={"section": "attackers"})
    threshold: float = limited(DETECTOR_LIMITS["threshold"], DEFAULT_THRESHOLD, section="detection")
    min_samples: int = limited(DETECTOR_LIMITS["min_samples"], DEFAULT_MIN_SAMPLES, section="detection")
    mode: str = limited(_MODE_LIMIT, THRESHOLD_MODE, section="detection")
    low_report_quantile: float | None = limited(DETECTOR_LIMITS["low_report_quantile"], None,
                                                section="detection")
    tariff: float = limited(("finite and >= 0", lambda v: 0 <= v < math.inf), 1.0, section="billing")
    elasticity_factor: float | None = limited(POSITIVE_FINITE, None, section="billing")
    elasticity_level: float | None = limited(("finite", math.isfinite), None, section="billing")
    months: int = limited((">= 1", lambda v: v >= 1), 1, section="experiment")
    repetitions: int = limited((">= 1", lambda v: v >= 1), 1000, section="experiment")
    master_seed: int = limited((">= 0", lambda v: v >= 0), 0, section="experiment")

    def __post_init__(self):
        check_fields(self)
        pairs = self.attackers.items() if isinstance(self.attackers, Mapping) else self.attackers
        try:
            if isinstance(pairs, (str, bytes)):  # "" would iterate to no pairs
                raise TypeError
            pairs = [(as_integer("attacker id", cid), behavior) for cid, behavior in pairs]
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"attackers must be a mapping or (id, behavior) pairs, got {self.attackers!r}"
            ) from None
        n, ids = self.consumers, [cid for cid, _ in pairs]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("attacker ids must be unique within a region")
        for cid, behavior in pairs:
            if not 0 <= cid < n:
                raise ConfigurationError(f"[attackers] id {cid} is outside the region's 0..{n - 1} consumers")
            if not isinstance(behavior, BehaviorModel):
                raise ConfigurationError(f"[attackers] id {cid} is not a behavior model: {behavior!r}")
        if not self.usage_min < self.usage_max:
            raise ConfigurationError(
                f"usage_min ({self.usage_min}) must be < usage_max ({self.usage_max})"
            )
        attackers = (pair for pair in pairs if pair[1] != Multiplicative(1.0))
        object.__setattr__(self, "attackers", tuple(sorted(attackers, key=lambda pair: pair[0])))
        month = self.month_periods * n
        for size, what, limit in ((month, "values a month", MAX_MONTH_ENTRIES),
                                  (self.total_periods, "periods", MAX_PERIODS)):
            if size > limit:
                raise ConfigurationError(f"the window has {size} {what}, above the limit of {limit}")
        if (self.elasticity_factor is None) != (self.elasticity_level is None):
            raise ConfigurationError(
                "elasticity_factor and elasticity_level must be set together"
            )
        _check_sums_finite(self)

    @property
    def month_periods(self) -> int:
        return DAYS_PER_MONTH * self.periods_per_day

    @property
    def total_periods(self) -> int:
        return self.month_periods * self.months

    @property
    def usage_span(self) -> float:
        """The width of every period's usage range.  With elasticity set, a tariff above the
        level scales ``usage_max`` by the factor, and the top stays at least 1e-12 above ``usage_min``."""
        low, high = self.usage_min, self.usage_max
        if self.elasticity_factor is None:
            return high - low
        factor = self.elasticity_factor if self.tariff > self.elasticity_level else 1.0
        return max(high * factor, low + 1e-12) - low


def _check_sums_finite(config: ScenarioConfig) -> None:
    """Reject values whose regional totals, monthly bills or correlation sums overflow.

    A total adds up to n values; a bill up to a month of values times the
    rate; a correlation sums up to ``periods`` squares of values as large
    as a total (the leakage is one).  Past ``float``'s range each would end
    as a silent inf or NaN in the output.
    """
    usage = config.usage_min + config.usage_span
    value = usage  # the largest usage or report of any consumer in any period
    for _, b in config.attackers:
        if isinstance(b, Multiplicative):
            value = max(value, b.alpha * usage)
        elif isinstance(b, (FixedOffset, RandomOffset)) and b.direction == "add":
            value = max(value, usage + (b.eta if isinstance(b, FixedOffset) else b.theta_max))
    total = value * config.consumers
    sums = {
        "regional totals": total,
        "monthly bills": value * config.tariff * config.month_periods,
        "correlation sums": total * total * config.total_periods,
    }
    for what, bound in sums.items():
        if not math.isfinite(bound):
            raise ConfigurationError(
                f"usage and reports up to {value!r} overflow the {what}; "
                "lower usage_max, the attack sizes, the elasticity factor or the tariff"
            )


# Every section's keys in file order, from the fields; [attackers] is free-form:
# <consumer id> = <behavior spec>.
_FIELDS = dataclasses.fields(ScenarioConfig)
_KEYS = {
    section: [f.name for f in _FIELDS if f.metadata["section"] == section and f.name != "attackers"]
    for section in dict.fromkeys(f.metadata["section"] for f in _FIELDS)
}


def _parse(section: str, name: str, raw: str):
    """One raw value as its field's type; the error names the section and key."""
    kind = field_types(ScenarioConfig)[name]
    if kind is str:
        return raw
    if kind == float | None and raw.lower() in ("none", "off", ""):
        return None
    try:
        return int(raw) if kind is int else float(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigurationError(f"[{section}] {name} = {raw!r} is not {noun}") from None


def _format(name: str, value) -> str:
    """A value as its field's type writes it: a float field as a float even when given an int."""
    if value is None:
        return "none"
    return repr(float(value)) if field_types(ScenarioConfig)[name] in (float, float | None) else str(value)


# Every behavior spec's name and model; the model's fields follow the name in order
# (the size, then the direction).  'benign' is `Multiplicative(1.0)`.
_BEHAVIORS = {"multiplicative": Multiplicative, "fixed_offset": FixedOffset, "random_offset": RandomOffset}


def parse_behavior(text: str) -> BehaviorModel:
    """Parse a behavior spec: 'multiplicative A' | 'fixed_offset E [DIR]' |
    'random_offset T [DIR]' | 'benign'."""
    parts = text.split()
    if not parts:
        raise ConfigurationError("empty behavior spec")
    kind, args = parts[0], parts[1:]
    if kind == "benign" and not args:
        return Multiplicative(alpha=1.0)
    model = _BEHAVIORS.get(kind)
    if model is not None and 1 <= len(args) <= len(dataclasses.fields(model)):
        try:
            return model(float(args[0]), *args[1:])
        except ValueError as exc:
            raise ConfigurationError(f"bad behavior spec {text!r}: {exc}") from exc
    raise ConfigurationError(f"bad behavior spec {text!r}")


def format_behavior(behavior: BehaviorModel) -> str:
    name = next(name for name, model in _BEHAVIORS.items() if isinstance(behavior, model))
    size, *direction = (getattr(behavior, f.name) for f in dataclasses.fields(behavior))
    return " ".join([name, repr(float(size)), *direction])


def loads_config(text: str, source: str = "<string>") -> ScenarioConfig:
    """Parse and validate a config from text; `ScenarioConfig` fills the keys it does not give."""
    # No header can name a section "\n", so [DEFAULT] is an ordinary, unknown section.
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    parser.optionxform = str  # keep attacker ids as written
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigurationError(f"cannot parse {source}: {exc}") from exc
    raw = {name: dict(parser.items(name)) for name in parser.sections()}
    for name, entries in raw.items():
        if name not in _KEYS:
            raise ConfigurationError(f"unknown section [{name}]")
        unknown = [e for e in entries if e not in _KEYS[name]]
        if unknown and name != "attackers":
            raise ConfigurationError(f"unknown key {unknown[0]!r} in section [{name}]")
    values = {
        key: _parse(name, key, raw[name][key])
        for name, keys in _KEYS.items()
        for key in keys
        if key in raw.get(name, {})
    }

    attackers = []
    for entry, spec in raw.get("attackers", {}).items():
        try:
            cid = int(entry)
        except ValueError:
            raise ConfigurationError(f"[attackers] key {entry!r} is not a consumer id") from None
        attackers.append((cid, parse_behavior(spec)))
    return ScenarioConfig(**values, attackers=attackers)


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return loads_config(text, source=str(path))


def dumps_config(config: ScenarioConfig) -> str:
    """Fully resolved config text; round-trips through `loads_config`."""
    blocks = []
    for name, keys in _KEYS.items():
        lines = [f"{key} = {_format(key, getattr(config, key))}\n" for key in keys]
        if name == "attackers":
            lines = [f"{cid} = {format_behavior(b)}\n" for cid, b in config.attackers]
        blocks.append(f"[{name}]\n" + "".join(lines))
    return "\n".join(blocks)
