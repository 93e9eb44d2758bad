"""Config-file loading, writing, and run manifests.

The config format is an INI-style key = value file with five sections:
``[region]``, ``[attackers]``, ``[detection]``, ``[billing]`` and
``[experiment]``.  Loading and writing both walk one key table, ``_KEYS``,
which gives each key's section; the `ScenarioConfig` field of the key's name
gives its type (`harness.FIELD_TYPES`), default and limits.  ``[attackers]``
holds free-form entries; unknown sections or keys are hard errors so typos
cannot silently change an experiment.  ``dumps_config`` emits the fully
resolved form, and ``loads_config(dumps_config(c)) == c`` for every valid config.
"""

from __future__ import annotations

import configparser
import dataclasses
import json
import platform
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigurationError
from .harness import FIELD_TYPES, ScenarioConfig, usable_cpus
from .model import BehaviorModel, FixedOffset, Multiplicative, RandomOffset

# Every section's keys in file order; [attackers] is free-form: <consumer id> = <behavior spec>.
_KEYS: dict[str, tuple[str, ...]] = {
    "region": ("region_id", "consumers", "periods_per_day", "usage_min", "usage_max"),
    "attackers": (),
    "detection": ("threshold", "min_samples", "mode", "low_report_quantile"),
    "billing": ("tariff", "elasticity_factor", "elasticity_level"),
    "experiment": ("months", "repetitions", "master_seed"),
}


def _parse(section: str, name: str, raw: str):
    """One raw value as its field's type (`FIELD_TYPES`); the error names the section and key."""
    kind = FIELD_TYPES[name]
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
    return repr(float(value)) if FIELD_TYPES[name] in (float, float | None) else str(value)


def parse_behavior(text: str) -> BehaviorModel:
    """Parse a behavior spec: 'multiplicative A' | 'fixed_offset E [DIR]' |
    'random_offset T [DIR]' | 'benign'."""
    parts = text.split()
    if not parts:
        raise ConfigurationError("empty behavior spec")
    kind, args = parts[0], parts[1:]
    try:
        if kind == "benign" and not args:
            return Multiplicative(alpha=1.0)
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
    if isinstance(behavior, Multiplicative):
        return f"multiplicative {float(behavior.alpha)!r}"
    if isinstance(behavior, FixedOffset):
        return f"fixed_offset {float(behavior.eta)!r} {behavior.direction}"
    return f"random_offset {float(behavior.theta_max)!r} {behavior.direction}"


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


@dataclasses.dataclass
class RunManifest:
    """Everything needed to re-run an experiment bit-identically, and where it ran."""

    command: str
    master_seed: int
    config_text: str
    outputs: list[str]
    wall_clock_seconds: float
    version: str = __version__
    python: str = platform.python_version()
    numpy: str = np.__version__
    cpu_count: int = dataclasses.field(default_factory=usable_cpus)
    heap: str = "default"

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2) + "\n"


def write_manifest(manifest: RunManifest, path: str | Path) -> None:
    Path(path).write_text(manifest.to_json(), encoding="utf-8")
