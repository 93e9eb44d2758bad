"""Config-file loading, writing, and run manifests.

The config format is an INI-style key = value file with five sections:
``[region]``, ``[attackers]``, ``[detection]``, ``[billing]`` and
``[experiment]``.  Every key has a default except the attacker entries;
unknown sections or keys are hard errors so typos cannot silently change
an experiment.  ``write_config`` emits the fully resolved form and
``load_config(write_config(c)) == c`` for every valid config.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import json
from pathlib import Path

from . import __version__
from .billing import TariffSchedule
from .detection import DEFAULT_MIN_SAMPLES, DEFAULT_THRESHOLD
from .errors import ConfigurationError
from .harness import DAYS_PER_MONTH, ScenarioConfig, THRESHOLD_MODE
from .model import (
    Benign,
    BehaviorModel,
    ConsumerProfile,
    DEFAULT_USAGE_MAX,
    DEFAULT_USAGE_MIN,
    FixedOffset,
    Multiplicative,
    RandomOffset,
    RegionConfig,
)

_SCHEMA: dict[str, dict[str, str]] = {
    "region": {
        "region_id": "0",
        "consumers": "100",
        "periods_per_day": "96",
        "usage_min": repr(DEFAULT_USAGE_MIN),
        "usage_max": repr(DEFAULT_USAGE_MAX),
    },
    "attackers": {},  # free-form: <consumer id> = <behavior spec>
    "detection": {
        "threshold": repr(DEFAULT_THRESHOLD),
        "min_samples": str(DEFAULT_MIN_SAMPLES),
        "mode": THRESHOLD_MODE,
        "low_report_quantile": "none",
    },
    "billing": {
        "tariff": "1.0",
        "elasticity_factor": "none",
        "elasticity_level": "none",
    },
    "experiment": {
        "months": "1",
        "repetitions": "1000",
        "master_seed": "0",
    },
}


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
        return f"multiplicative {behavior.alpha!r}"
    if isinstance(behavior, FixedOffset):
        return f"fixed_offset {behavior.eta!r} {behavior.direction}"
    if isinstance(behavior, RandomOffset):
        return f"random_offset {behavior.theta_max!r} {behavior.direction}"
    raise ConfigurationError(f"unknown behavior model {behavior!r}")


class _Section:
    def __init__(self, name: str, values: dict[str, str]):
        self.name = name
        self.values = values

    def _raw(self, key: str) -> str:
        if key in self.values:
            return self.values[key]
        return _SCHEMA[self.name][key]

    def get_int(self, key: str, minimum: int | None = None) -> int:
        raw = self._raw(key)
        try:
            value = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"[{self.name}] {key} = {raw!r} is not an integer"
            ) from None
        if minimum is not None and value < minimum:
            raise ConfigurationError(
                f"[{self.name}] {key} = {value} must be >= {minimum}"
            )
        return value

    def get_float(self, key: str) -> float:
        raw = self._raw(key)
        try:
            return float(raw)
        except ValueError:
            raise ConfigurationError(
                f"[{self.name}] {key} = {raw!r} is not a number"
            ) from None

    def get_optional_float(self, key: str) -> float | None:
        raw = self._raw(key)
        if raw.lower() in ("none", "off", ""):
            return None
        return self.get_float(key)

    def get_str(self, key: str) -> str:
        return self._raw(key)


def _read_sections(text: str, source: str) -> dict[str, _Section]:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep attacker ids as written
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigurationError(f"cannot parse {source}: {exc}") from exc
    sections: dict[str, _Section] = {}
    for name in parser.sections():
        if name not in _SCHEMA:
            raise ConfigurationError(f"unknown section [{name}]")
        values = dict(parser.items(name))
        if name != "attackers":
            for key in values:
                if key not in _SCHEMA[name]:
                    raise ConfigurationError(f"unknown key {key!r} in section [{name}]")
        sections[name] = _Section(name, values)
    for name in _SCHEMA:
        sections.setdefault(name, _Section(name, {}))
    return sections


def loads_config(text: str, source: str = "<string>") -> ScenarioConfig:
    """Parse and validate a config from text, filling all defaults."""
    sec = _read_sections(text, source)

    region_sec = sec["region"]
    n = region_sec.get_int("consumers", minimum=2)
    usage_min = region_sec.get_float("usage_min")
    usage_max = region_sec.get_float("usage_max")

    attackers: dict[int, BehaviorModel] = {}
    for key, value in sec["attackers"].values.items():
        try:
            cid = int(key)
        except ValueError:
            raise ConfigurationError(
                f"[attackers] key {key!r} is not a consumer id"
            ) from None
        if not 0 <= cid < n:
            raise ConfigurationError(
                f"[attackers] id {cid} is outside the region's 0..{n - 1} consumers"
            )
        attackers[cid] = parse_behavior(value)

    profiles = tuple(
        ConsumerProfile(
            consumer_id=i,
            usage_min=usage_min,
            usage_max=usage_max,
            behavior=attackers.get(i, Benign()),
        )
        for i in range(n)
    )

    exp_sec = sec["experiment"]
    months = exp_sec.get_int("months", minimum=1)

    region = RegionConfig(
        region_id=region_sec.get_int("region_id"),
        consumers=profiles,
        periods_per_day=region_sec.get_int("periods_per_day", minimum=1),
        num_days=DAYS_PER_MONTH * months,
    )

    det_sec = sec["detection"]
    bill_sec = sec["billing"]
    return ScenarioConfig(
        region=region,
        months=months,
        th=det_sec.get_float("threshold"),
        min_samples=det_sec.get_int("min_samples", minimum=2),
        mode=det_sec.get_str("mode"),
        low_report_quantile=det_sec.get_optional_float("low_report_quantile"),
        tariff=TariffSchedule.flat(bill_sec.get_float("tariff")),
        elasticity_factor=bill_sec.get_optional_float("elasticity_factor"),
        elasticity_level=bill_sec.get_optional_float("elasticity_level"),
        master_seed=exp_sec.get_int("master_seed", minimum=0),
        repetitions=exp_sec.get_int("repetitions", minimum=1),
    )


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return loads_config(text, source=str(path))


def dumps_config(config: ScenarioConfig) -> str:
    """Fully resolved config text; round-trips through `loads_config`."""
    consumers = config.region.consumers
    if config.tariff.flat_rate is None:
        raise ConfigurationError("only flat tariffs are representable in config files")
    lows = {c.usage_min for c in consumers}
    highs = {c.usage_max for c in consumers}
    if len(lows) != 1 or len(highs) != 1:
        raise ConfigurationError(
            "config files describe one shared usage range per region"
        )
    ids = config.region.consumer_ids
    if ids != list(range(len(ids))):
        raise ConfigurationError("config files use contiguous consumer ids from 0")

    def opt(v):
        return "none" if v is None else repr(v)

    out = io.StringIO()
    out.write("[region]\n")
    out.write(f"region_id = {config.region.region_id}\n")
    out.write(f"consumers = {len(consumers)}\n")
    out.write(f"periods_per_day = {config.region.periods_per_day}\n")
    out.write(f"usage_min = {lows.pop()!r}\n")
    out.write(f"usage_max = {highs.pop()!r}\n\n")
    out.write("[attackers]\n")
    for c in consumers:
        if not isinstance(c.behavior, Benign):
            out.write(f"{c.consumer_id} = {format_behavior(c.behavior)}\n")
    out.write("\n[detection]\n")
    out.write(f"threshold = {config.th!r}\n")
    out.write(f"min_samples = {config.min_samples}\n")
    out.write(f"mode = {config.mode}\n")
    out.write(f"low_report_quantile = {opt(config.low_report_quantile)}\n\n")
    out.write("[billing]\n")
    out.write(f"tariff = {config.tariff.flat_rate!r}\n")
    out.write(f"elasticity_factor = {opt(config.elasticity_factor)}\n")
    out.write(f"elasticity_level = {opt(config.elasticity_level)}\n\n")
    out.write("[experiment]\n")
    out.write(f"months = {config.months}\n")
    out.write(f"repetitions = {config.repetitions}\n")
    out.write(f"master_seed = {config.master_seed}\n")
    return out.getvalue()


def write_config(config: ScenarioConfig, path: str | Path) -> None:
    Path(path).write_text(dumps_config(config), encoding="utf-8")


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
