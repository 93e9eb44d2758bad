"""Config-file loading, writing, and run manifests.

The config format is an INI-style key = value file with five sections:
``[region]``, ``[attackers]``, ``[detection]``, ``[billing]`` and
``[experiment]``.  Loading and writing both walk one key table, ``_KEYS``.
Every key has a default except the free-form attacker entries;
unknown sections or keys are hard errors so typos cannot silently change
an experiment.  ``dumps_config`` emits the fully resolved form, and
``loads_config(dumps_config(c)) == c`` for every valid config.
"""

from __future__ import annotations

import configparser
import dataclasses
import json
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .detection import DEFAULT_MIN_SAMPLES, DEFAULT_THRESHOLD
from .errors import ConfigurationError
from .harness import ScenarioConfig, THRESHOLD_MODE
from .model import (
    Benign,
    BehaviorModel,
    DEFAULT_USAGE_MAX,
    DEFAULT_USAGE_MIN,
    FixedOffset,
    Multiplicative,
    RandomOffset,
    RegionConfig,
)

_OPTIONAL_FLOAT = "optional float"  # a float, or none/off/empty for None


class _Key(NamedTuple):
    name: str
    kind: type | str  # int, float, str or _OPTIONAL_FLOAT
    default: object
    minimum: int | None = None
    field: str | None = None  # the ScenarioConfig field it sets; a region key sets its namesake


# Every section's keys in file order; [attackers] is free-form: <consumer id> = <behavior spec>.
_KEYS: dict[str, tuple[_Key, ...]] = {
    "region": (
        _Key("region_id", int, 0),
        _Key("consumers", int, 100, 2),
        _Key("periods_per_day", int, 96, 1),
        _Key("usage_min", float, DEFAULT_USAGE_MIN),
        _Key("usage_max", float, DEFAULT_USAGE_MAX),
    ),
    "attackers": (),
    "detection": (
        _Key("threshold", float, DEFAULT_THRESHOLD, field="th"),
        _Key("min_samples", int, DEFAULT_MIN_SAMPLES, 2, "min_samples"),
        _Key("mode", str, THRESHOLD_MODE, field="mode"),
        _Key("low_report_quantile", _OPTIONAL_FLOAT, None, field="low_report_quantile"),
    ),
    "billing": (
        _Key("tariff", float, 1.0, field="tariff"),
        _Key("elasticity_factor", _OPTIONAL_FLOAT, None, field="elasticity_factor"),
        _Key("elasticity_level", _OPTIONAL_FLOAT, None, field="elasticity_level"),
    ),
    "experiment": (
        _Key("months", int, 1, 1, "months"),
        _Key("repetitions", int, 1000, 1, "repetitions"),
        _Key("master_seed", int, 0, 0, "master_seed"),
    ),
}
_FIELD_KEYS = [key for keys in _KEYS.values() for key in keys if key.field]


def _parse(section: str, key: _Key, raw: str):
    """One raw value as its key's type; the error names the section and key."""
    if key.kind is str:
        return raw
    if key.kind == _OPTIONAL_FLOAT and raw.lower() in ("none", "off", ""):
        return None
    try:
        value = int(raw) if key.kind is int else float(raw)
    except ValueError:
        noun = "an integer" if key.kind is int else "a number"
        raise ConfigurationError(f"[{section}] {key.name} = {raw!r} is not {noun}") from None
    if key.minimum is not None and value < key.minimum:
        raise ConfigurationError(f"[{section}] {key.name} = {value} must be >= {key.minimum}")
    return value


def _format(key: _Key, value) -> str:
    """A value as its key's type writes it: a float field as a float even when given an int."""
    if value is None:
        return "none"
    return repr(float(value)) if key.kind in (float, _OPTIONAL_FLOAT) else str(value)


def parse_behavior(text: str) -> BehaviorModel:
    """Parse a behavior spec: 'multiplicative A' | 'fixed_offset E [DIR]' |
    'random_offset T [DIR]' | 'benign'."""
    parts = text.split()
    if not parts:
        raise ConfigurationError("empty behavior spec")
    kind, args = parts[0], parts[1:]
    try:
        if kind == "benign" and not args:
            return Benign()
        if kind == "multiplicative" and len(args) == 1:
            return Multiplicative(alpha=float(args[0]))
        if kind == "fixed_offset" and len(args) in (1, 2):
            return FixedOffset(eta=float(args[0]), direction=args[1] if len(args) == 2 else "subtract")
        if kind == "random_offset" and len(args) in (1, 2):
            return RandomOffset(theta_max=float(args[0]), direction=args[1] if len(args) == 2 else "subtract")
    except ValueError as exc:
        raise ConfigurationError(f"bad behavior spec {text!r}: {exc}") from exc
    raise ConfigurationError(f"bad behavior spec {text!r}")


def format_behavior(behavior: BehaviorModel) -> str:
    if isinstance(behavior, Benign):
        return "benign"
    if isinstance(behavior, Multiplicative):
        return f"multiplicative {float(behavior.alpha)!r}"
    if isinstance(behavior, FixedOffset):
        return f"fixed_offset {float(behavior.eta)!r} {behavior.direction}"
    if isinstance(behavior, RandomOffset):
        return f"random_offset {float(behavior.theta_max)!r} {behavior.direction}"
    raise ConfigurationError(f"unknown behavior model {behavior!r}")


def loads_config(text: str, source: str = "<string>") -> ScenarioConfig:
    """Parse and validate a config from text, filling all defaults."""
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
        unknown = [e for e in entries if e not in {key.name for key in _KEYS[name]}]
        if unknown and name != "attackers":
            raise ConfigurationError(f"unknown key {unknown[0]!r} in section [{name}]")
    values = {}
    for name, keys in _KEYS.items():
        given = raw.get(name, {})
        for key in keys:
            values[key.name] = _parse(name, key, given[key.name]) if key.name in given else key.default

    attackers = []
    for entry, spec in raw.get("attackers", {}).items():
        try:
            cid = int(entry)
        except ValueError:
            raise ConfigurationError(f"[attackers] key {entry!r} is not a consumer id") from None
        attackers.append((cid, parse_behavior(spec)))
    region = RegionConfig(**{key.name: values[key.name] for key in _KEYS["region"]}, attackers=attackers)
    fields = {key.field: values[key.name] for key in _FIELD_KEYS}
    return ScenarioConfig(region=region, **fields)


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return loads_config(text, source=str(path))


def dumps_config(config: ScenarioConfig) -> str:
    """Fully resolved config text; round-trips through `loads_config`."""
    values = {key.name: getattr(config, key.field) for key in _FIELD_KEYS}
    values.update({key.name: getattr(config.region, key.name) for key in _KEYS["region"]})
    blocks = []
    for name, keys in _KEYS.items():
        lines = [f"{key.name} = {_format(key, values[key.name])}\n" for key in keys]
        if name == "attackers":
            lines = [f"{cid} = {format_behavior(b)}\n" for cid, b in config.region.attackers]
        blocks.append(f"[{name}]\n" + "".join(lines))
    return "\n".join(blocks)


@dataclasses.dataclass
class RunManifest:
    """Everything needed to re-run an experiment bit-identically."""

    command: str
    master_seed: int
    config_text: str
    outputs: list[str]
    wall_clock_seconds: float
    version: str = __version__

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2) + "\n"


def write_manifest(manifest: RunManifest, path: str | Path) -> None:
    Path(path).write_text(manifest.to_json(), encoding="utf-8")
