"""The config file's exact text, as `dumps_config` writes it into every run
manifest, and the exact error for each kind of bad input.

A run is replayed from the manifest's ``config_text``, so a change to the
loader or writer must leave both byte-identical.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwatch.cli import main
from gridwatch.config import (
    _KEYS, MOST_NEGATIVE_MODE, THRESHOLD_MODE, ScenarioConfig, dumps_config, loads_config,
)
from gridwatch.errors import ConfigurationError
from gridwatch.model import FixedOffset, Multiplicative, RandomOffset, field_types

MINIMAL = "[attackers]\n25 = multiplicative 0.1\n"

TINY = """\
[region]
consumers = 5
periods_per_day = 4

[attackers]
1 = multiplicative 0.1

[experiment]
repetitions = 3
"""

EVERY_KEY_SET = """\
[region]
consumers = 12
periods_per_day = 8
usage_min = 0.25
usage_max = 2.5

[attackers]
3 = fixed_offset 0.7 add
10 = random_offset 0.3
0 = multiplicative 10.0
5 = benign

[detection]
threshold = 0.35
min_samples = 7
mode = most_negative
low_report_quantile = 0.2

[billing]
tariff = 1.75
elasticity_factor = 0.8
elasticity_level = 1.2

[experiment]
months = 2
repetitions = 40
master_seed = 12345
"""


def resolved(region="consumers = 100\nperiods_per_day = 96", attackers="25 = multiplicative 0.1",
             detection="mode = threshold\nlow_report_quantile = none",
             billing="tariff = 1.0\nelasticity_factor = none\nelasticity_level = none",
             experiment="months = 1\nrepetitions = 1000\nmaster_seed = 0"):
    return (
        f"[region]\n{region}\nusage_min = 0.5\nusage_max = 1.5\n\n"
        f"[attackers]\n{attackers}\n\n"
        f"[detection]\nthreshold = 0.5\nmin_samples = 5\n{detection}\n\n"
        f"[billing]\n{billing}\n\n"
        f"[experiment]\n{experiment}\n"
    )


@pytest.mark.parametrize(
    "text, expected",
    [
        (MINIMAL, resolved()),
        (TINY, resolved(region="consumers = 5\nperiods_per_day = 4", attackers="1 = multiplicative 0.1",
                        experiment="months = 1\nrepetitions = 3\nmaster_seed = 0")),
        (MINIMAL + "[detection]\nmode = most_negative\nlow_report_quantile = 0.25\n",
         resolved(detection="mode = most_negative\nlow_report_quantile = 0.25")),
        (MINIMAL + "[billing]\ntariff = 1.75\nelasticity_factor = 0.8\nelasticity_level = 1.2\n",
         resolved(billing="tariff = 1.75\nelasticity_factor = 0.8\nelasticity_level = 1.2")),
        (MINIMAL + "[experiment]\nmonths = 3\nmaster_seed = 99\n",
         resolved(experiment="months = 3\nrepetitions = 1000\nmaster_seed = 99")),
        (EVERY_KEY_SET,
         "[region]\nconsumers = 12\nperiods_per_day = 8\nusage_min = 0.25\nusage_max = 2.5\n\n"
         "[attackers]\n0 = multiplicative 10.0\n3 = fixed_offset 0.7 add\n10 = random_offset 0.3 subtract\n\n"
         "[detection]\nthreshold = 0.35\nmin_samples = 7\nmode = most_negative\nlow_report_quantile = 0.2\n\n"
         "[billing]\ntariff = 1.75\nelasticity_factor = 0.8\nelasticity_level = 1.2\n\n"
         "[experiment]\nmonths = 2\nrepetitions = 40\nmaster_seed = 12345\n"),
    ],
)
def test_written_text_is_exact(text, expected):
    assert dumps_config(loads_config(text)) == expected
    assert dumps_config(loads_config(expected)) == expected


@pytest.mark.parametrize(
    "text, message",
    [
        ("[region]\nconsumers = x\n", "[region] consumers = 'x' is not an integer"),
        ("[region]\nconsumers = 1\n", "consumers must be >= 2, got 1"),
        ("[region]\nconsumers = 1.5\n", "[region] consumers = '1.5' is not an integer"),
        ("[region]\nusage_min = abc\n", "[region] usage_min = 'abc' is not a number"),
        ("[detection]\nmin_samples = 1\n", "min_samples must be >= 2, got 1"),
        ("[experiment]\nmonths = 0\n", "months must be >= 1, got 0"),
        ("[experiment]\nmaster_seed = -1\n", "master_seed must be >= 0, got -1"),
        ("[experiment]\nrepetitions = 0\n", "repetitions must be >= 1, got 0"),
        ("[billing]\ntariff = none\n", "[billing] tariff = 'none' is not a number"),
        ("[detection]\nlow_report_quantile = foo\n",
         "[detection] low_report_quantile = 'foo' is not a number"),
        ("[detection]\nmode = weird\n", "mode must be 'threshold' or 'most_negative', got 'weird'"),
        ("[attackers]\nx = multiplicative 0.1\n", "[attackers] key 'x' is not a consumer id"),
        ("[attackers]\n-1 = multiplicative 0.1\n",
         "[attackers] id -1 is outside the region's 0..99 consumers"),
        ("[attackers]\n25 =\n", "empty behavior spec"),
        ("[attackers]\n25 = multiplicative abc\n",
         "bad behavior spec 'multiplicative abc': could not convert string to float: 'abc'"),
        ("[region]\nusage_max = inf\n", "usage_max must be finite, got inf"),
        ("[region]\nusage_min = nan\n", "usage_min must be >= 0 and finite, got nan"),
        ("[detection]\nthresold = 0.5\n", "unknown key 'thresold' in section [detection]"),
        ("[region]\nregion_id = 0\n", "unknown key 'region_id' in section [region]"),
        ("[creds]\nuser = x\n", "unknown section [creds]"),
        ("consumers = 5\n",
         "cannot parse <string>: File contains no section headers.\n"
         "file: '<string>', line: 1\n'consumers = 5\\n'"),
    ],
)
def test_error_message_is_exact(text, message):
    with pytest.raises(ConfigurationError) as exc:
        loads_config(text)
    assert str(exc.value) == message


# Each key's values just outside its limit, and the values at its edges that it allows
# (the nearest inside where an edge is open, none where a larger value would overflow a sum
# or the edge joins another key).
LIMIT_EDGES = {
    "consumers": (["1"], ["2"]),
    "periods_per_day": (["0"], ["1"]),
    "usage_min": (["-5e-324"], ["0.0"]),
    "usage_max": (["inf", "nan"], []),
    "threshold": (["0.0", "1.0000000000000002"], ["5e-324", "1.0"]),
    "min_samples": (["1"], ["2"]),
    "mode": (["weird"], [THRESHOLD_MODE, MOST_NEGATIVE_MODE]),
    "low_report_quantile": (["0.0", "1.0"], ["5e-324", "0.9999999999999999"]),
    "tariff": (["-5e-324", "inf"], ["0.0"]),
    "elasticity_factor": (["0.0", "inf"], ["5e-324"]),
    "elasticity_level": (["-inf", "inf", "nan"], ["-1.7976931348623157e+308", "1.7976931348623157e+308"]),
    "months": (["0"], ["1"]),
    "repetitions": (["0"], ["1"]),
    "master_seed": (["-1"], ["0"]),
}
# Each key's limit, as its field declares it.
LIMITS = {f.name: f.metadata.get("limit") for f in dataclasses.fields(ScenarioConfig)}


def setting(key, raw):
    """A config file that sets ``key`` to ``raw``, and each elasticity key's partner."""
    section = next(name for name, keys in _KEYS.items() if key in keys)
    partner = {"elasticity_factor": "elasticity_level = 1.0", "elasticity_level": "elasticity_factor = 0.8"}
    return f"[{section}]\n{key} = {raw}\n{partner.get(key, '')}\n"


def value_of(key, raw):
    kind = field_types(ScenarioConfig)[key]
    return raw if kind is str else int(raw) if kind is int else float(raw)


def test_every_numeric_key_is_limited_once():
    # every key declares its section and limit in its field, `mode` among them, and only
    # the free-form attackers declares none; every attack field declares its limit
    keys = [f for f in dataclasses.fields(ScenarioConfig) if f.name != "attackers"]
    assert all({"section", "limit"} <= set(f.metadata) for f in keys)
    assert set(LIMIT_EDGES) == {f.name for f in keys}
    for model in (Multiplicative, FixedOffset, RandomOffset):
        assert all("limit" in f.metadata for f in dataclasses.fields(model)), model


@pytest.mark.parametrize("key, raw", [(key, raw) for key, (outside, _) in LIMIT_EDGES.items() for raw in outside])
def test_a_key_just_outside_its_limit_is_one_error_line(tmp_path, capsys, key, raw):
    path = tmp_path / "bad.cfg"
    path.write_text(setting(key, raw))
    assert main(["detect", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
    rule, value = LIMITS[key][0], value_of(key, raw)
    shown = repr(value) if isinstance(value, str) else value
    assert capsys.readouterr().err == f"gridwatch: error: {key} must be {rule}, got {shown}\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("key, raw", [(key, raw) for key, (_, edges) in LIMIT_EDGES.items() for raw in edges])
def test_a_key_at_the_edge_of_its_limit_loads(key, raw):
    assert getattr(loads_config(setting(key, raw)), key) == value_of(key, raw)


def int_valued(low, high):
    """Integers in [low, high] that a float holds exactly: an API caller may
    pass ``2`` where a float field means ``2.0``."""
    return st.integers(max(low, -(2**53)), min(high, 2**53))


POSITIVE = st.floats(0.0, 1e6, exclude_min=True) | int_valued(1, 10**6)
DIRECTIONS = st.sampled_from(["subtract", "add"])
BEHAVIORS = st.one_of(
    st.just(Multiplicative(1.0)),
    st.builds(Multiplicative, POSITIVE),
    st.builds(FixedOffset, POSITIVE, DIRECTIONS),
    st.builds(RandomOffset, POSITIVE, DIRECTIONS),
)


@st.composite
def api_configs(draw):
    """Any config the API builds, within the size limits, elasticity on or off;
    a float field may be given an int."""
    n = draw(st.integers(2, 2000))
    usage_min = draw(st.floats(0.0, 1e6) | int_valued(0, 10**6))
    elastic = draw(st.booleans())
    return ScenarioConfig(
        consumers=n,
        usage_min=usage_min,
        usage_max=draw(st.floats(usage_min, 1e9, exclude_min=True)
                       | int_valued(math.floor(usage_min) + 1, 10**9)),
        attackers=draw(st.dictionaries(st.integers(0, n - 1), BEHAVIORS, max_size=6)),
        periods_per_day=draw(st.integers(1, 200)),
        months=draw(st.integers(1, 12)),
        threshold=draw(st.floats(0.0, 1.0, exclude_min=True) | st.just(1)),
        min_samples=draw(st.integers(2, 10**6)),
        mode=draw(st.sampled_from([THRESHOLD_MODE, MOST_NEGATIVE_MODE])),
        low_report_quantile=draw(st.none() | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        tariff=draw(st.floats(0.0, 1e6) | int_valued(0, 10**6)),
        elasticity_factor=draw(st.floats(0.0, 1e3, exclude_min=True) | int_valued(1, 1000)) if elastic else None,
        elasticity_level=draw(st.floats(-1e300, 1e300) | int_valued(-(2**53), 2**53)) if elastic else None,
        master_seed=draw(st.integers(0, 2**70)),
        repetitions=draw(st.integers(1, 10**9)),
    )


@given(api_configs())
@settings(max_examples=200, deadline=None)
def test_every_config_round_trips(config):
    # the manifest's config_text describes every config the API can build,
    # and the text it writes is a fixed point of loading and writing
    text = dumps_config(config)
    assert loads_config(text) == config
    assert dumps_config(loads_config(text)) == text


def test_every_key_is_one_field_in_one_section():
    # a key's type and section come from its field, so adding a key is one field;
    # every key is a field, and every field but the free-form attackers is in one section
    keys = [key for section in _KEYS.values() for key in section]
    fields = [f.name for f in dataclasses.fields(ScenarioConfig) if f.name != "attackers"]
    assert sorted(keys) == sorted(fields)


def test_every_key_has_a_type_the_file_can_hold():
    # the types `_parse` and `_format` know; anything else would be written as str()
    for section in _KEYS.values():
        for key in section:
            assert field_types(ScenarioConfig)[key] in (int, float, str, float | None), key


def scenario(**fields):
    return ScenarioConfig(**{"consumers": 10, **fields})


@pytest.mark.parametrize("build", [
    lambda: scenario(consumers=10.0),
    lambda: scenario(periods_per_day=4.0),
    lambda: scenario(attackers={3.0: Multiplicative(0.1)}),
    lambda: scenario(attackers=[("3", Multiplicative(0.1))]),
    lambda: scenario(months=1.5),
    lambda: scenario(months=2.0),
    lambda: scenario(min_samples=5.0),
    lambda: scenario(master_seed=1.0),
    lambda: scenario(repetitions=10.0),
    lambda: scenario(months=True),
    lambda: scenario(master_seed=False),
    lambda: scenario(attackers={True: Multiplicative(0.1)}),
], ids=["consumers", "periods_per_day", "attacker_id", "attacker_id_text",
        "months", "months_integral", "min_samples", "master_seed", "repetitions",
        "months_bool", "master_seed_bool", "attacker_id_bool"])
def test_an_integer_field_takes_only_integers(build):
    # the config file holds only integers there, so a float (integral or not) or a
    # bool is refused when it is built, not after a run or when its manifest reloads
    with pytest.raises(ConfigurationError, match="must be an integer"):
        build()


@pytest.mark.parametrize("build", [
    lambda: scenario(usage_min="0.5"),
    lambda: scenario(usage_max="1.5"),
    lambda: scenario(threshold="0.5"),
    lambda: scenario(tariff=None),
    lambda: scenario(low_report_quantile="0.25"),
    lambda: scenario(elasticity_factor="0.8", elasticity_level=0.5),
    lambda: scenario(elasticity_factor=0.8, elasticity_level=[0.5]),
    lambda: Multiplicative("2"),
    lambda: FixedOffset(eta=None),
    lambda: RandomOffset(theta_max=b"0.7"),
    lambda: scenario(tariff=10**400),
    lambda: scenario(threshold=True),
    lambda: scenario(usage_min=False),
    lambda: Multiplicative(True),
], ids=["usage_min", "usage_max", "th", "tariff", "low_report_quantile", "elasticity_factor",
        "elasticity_level", "alpha", "eta", "theta_max", "tariff_past_float",
        "th_bool", "usage_min_bool", "alpha_bool"])
def test_a_float_field_takes_only_numbers(build):
    # one ConfigurationError, not a TypeError from the first comparison; a bool is
    # no number the config file could hold
    with pytest.raises(ConfigurationError, match="must be a real number"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: scenario(mode=None), "mode must be 'threshold' or 'most_negative', got None"),
    (lambda: FixedOffset(0.6, None), "direction must be 'subtract' or 'add', got None"),
    (lambda: RandomOffset(1.0, None), "direction must be 'subtract' or 'add', got None"),
], ids=["mode", "fixed_offset_direction", "random_offset_direction"])
def test_none_is_held_to_the_limit_of_a_field_that_cannot_be_unset(build, message):
    # only a `float | None` field may be left unset; a None mode would run threshold
    # detection and a None direction would add its offset past the overflow check
    with pytest.raises(ConfigurationError) as caught:
        build()
    assert str(caught.value) == message


@pytest.mark.parametrize("behavior", ["multiplicative 0.1", None, 0.1, Multiplicative],
                         ids=["text", "none", "float", "class"])
def test_an_attacker_must_be_a_behavior_model(behavior):
    # refused when the config is built, naming the id, not as a TypeError in the first trial
    with pytest.raises(ConfigurationError, match=r"^\[attackers\] id 3 is not a behavior model"):
        scenario(attackers={3: behavior})


@pytest.mark.parametrize("attackers", [5, None, "ab", "", b"", [1, 2], [(1,)], [(1, Multiplicative(0.5), 3)]],
                         ids=["int", "none", "text", "empty_text", "empty_bytes", "bare_ids", "short_pair",
                              "long_pair"])
def test_attackers_must_be_a_mapping_or_pairs(attackers):
    # one ConfigurationError naming the field, not a TypeError or ValueError from unpacking
    with pytest.raises(ConfigurationError, match="^attackers must be a mapping or"):
        scenario(attackers=attackers)


def test_real_numbers_are_floats():
    config = scenario(
        usage_max=np.float32(1.5), attackers={3: Multiplicative(np.int64(2))},
        threshold=np.float64(0.5), tariff=2, elasticity_factor=1, elasticity_level=np.int8(0),
    )
    assert loads_config(dumps_config(config)) == config
    assert type(config.tariff) is float and type(config.usage_max) is float
    assert type(config.attackers[0][1].alpha) is float


def test_numpy_integers_are_integers():
    config = scenario(
        consumers=np.int64(10), attackers={np.int32(3): Multiplicative(0.1)},
        months=np.int64(2), master_seed=np.uint64(7), repetitions=np.int16(5),
    )
    assert loads_config(dumps_config(config)) == config
    assert type(config.months) is int and config.attackers[0][0] == 3
