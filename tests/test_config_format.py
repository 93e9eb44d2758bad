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

from gridwatch.config import (
    _FIELD_TYPES, _KEYS, MOST_NEGATIVE_MODE, THRESHOLD_MODE, ScenarioConfig, dumps_config, loads_config,
)
from gridwatch.errors import ConfigurationError
from gridwatch.model import FixedOffset, Multiplicative, RandomOffset

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
        ("[region]\nconsumers = 1\n", "a region needs at least 2 consumers, got 1"),
        ("[region]\nconsumers = 1.5\n", "[region] consumers = '1.5' is not an integer"),
        ("[region]\nusage_min = abc\n", "[region] usage_min = 'abc' is not a number"),
        ("[detection]\nmin_samples = 1\n", "min_samples must be >= 2, got 1"),
        ("[experiment]\nmonths = 0\n", "months must be >= 1, got 0"),
        ("[experiment]\nmaster_seed = -1\n", "master_seed must be >= 0, got -1"),
        ("[experiment]\nrepetitions = 0\n", "repetitions must be >= 1, got 0"),
        ("[billing]\ntariff = none\n", "[billing] tariff = 'none' is not a number"),
        ("[detection]\nlow_report_quantile = foo\n",
         "[detection] low_report_quantile = 'foo' is not a number"),
        ("[detection]\nmode = weird\n", "unknown detection mode 'weird'"),
        ("[attackers]\nx = multiplicative 0.1\n", "[attackers] key 'x' is not a consumer id"),
        ("[attackers]\n-1 = multiplicative 0.1\n",
         "[attackers] id -1 is outside the region's 0..99 consumers"),
        ("[attackers]\n25 =\n", "empty behavior spec"),
        ("[attackers]\n25 = multiplicative abc\n",
         "bad behavior spec 'multiplicative abc': could not convert string to float: 'abc'"),
        ("[region]\nusage_max = inf\n", "usage bounds must be finite, got [0.5, inf]"),
        ("[region]\nusage_min = nan\n", "usage bounds must be finite, got [nan, 1.5]"),
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
    # a key's type comes from its field, so adding a key is one field and one entry here;
    # every key is a field, and every field but the free-form attackers is in one section
    keys = [key for section in _KEYS.values() for key in section]
    fields = [f.name for f in dataclasses.fields(ScenarioConfig) if f.name != "attackers"]
    assert sorted(keys) == sorted(fields)


def test_every_key_has_a_type_the_file_can_hold():
    # the types `_parse` and `_format` know; anything else would be written as str()
    for section in _KEYS.values():
        for key in section:
            assert _FIELD_TYPES[key] in (int, float, str, float | None), key


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
], ids=["consumers", "periods_per_day", "attacker_id", "attacker_id_text",
        "months", "months_integral", "min_samples", "master_seed", "repetitions"])
def test_an_integer_field_takes_only_integers(build):
    # the config file holds only integers there, so a float (integral or not)
    # is refused when it is built, not after a run or when its manifest reloads
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
], ids=["usage_min", "usage_max", "th", "tariff", "low_report_quantile", "elasticity_factor",
        "elasticity_level", "alpha", "eta", "theta_max", "tariff_past_float"])
def test_a_float_field_takes_only_numbers(build):
    # one ConfigurationError, not a TypeError from the first comparison
    with pytest.raises(ConfigurationError, match="must be a real number"):
        build()


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
