"""The config file's exact text, as `dumps_config` writes it into every run
manifest, and the exact error for each kind of bad input.

A run is replayed from the manifest's ``config_text``, so a change to the
loader or writer must leave both byte-identical.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwatch.billing import TariffSchedule
from gridwatch.config import dumps_config, loads_config
from gridwatch.errors import ConfigurationError
from gridwatch.harness import MOST_NEGATIVE_MODE, THRESHOLD_MODE, ScenarioConfig
from gridwatch.model import Benign, FixedOffset, Multiplicative, RandomOffset, RegionConfig

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
region_id = 7
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
        f"[region]\nregion_id = 0\n{region}\nusage_min = 0.5\nusage_max = 1.5\n\n"
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
         "[region]\nregion_id = 7\nconsumers = 12\nperiods_per_day = 8\nusage_min = 0.25\nusage_max = 2.5\n\n"
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
        ("[region]\nconsumers = 1\n", "[region] consumers = 1 must be >= 2"),
        ("[region]\nconsumers = 1.5\n", "[region] consumers = '1.5' is not an integer"),
        ("[region]\nusage_min = abc\n", "[region] usage_min = 'abc' is not a number"),
        ("[detection]\nmin_samples = 1\n", "[detection] min_samples = 1 must be >= 2"),
        ("[experiment]\nmonths = 0\n", "[experiment] months = 0 must be >= 1"),
        ("[experiment]\nmaster_seed = -1\n", "[experiment] master_seed = -1 must be >= 0"),
        ("[experiment]\nrepetitions = 0\n", "[experiment] repetitions = 0 must be >= 1"),
        ("[billing]\ntariff = none\n", "[billing] tariff = 'none' is not a number"),
        ("[detection]\nlow_report_quantile = foo\n",
         "[detection] low_report_quantile = 'foo' is not a number"),
        ("[detection]\nmode = weird\n", "unknown detection mode 'weird'"),
        ("[attackers]\nx = multiplicative 0.1\n", "[attackers] key 'x' is not a consumer id"),
        ("[attackers]\n-1 = multiplicative 0.1\n",
         "[attackers] id -1 is outside the region's 0..99 consumers"),
        ("[detection]\nthresold = 0.5\n", "unknown key 'thresold' in section [detection]"),
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


POSITIVE = st.floats(0.0, 1e6, exclude_min=True)
DIRECTIONS = st.sampled_from(["subtract", "add"])
BEHAVIORS = st.one_of(
    st.builds(Benign),
    st.builds(Multiplicative, POSITIVE),
    st.builds(FixedOffset, POSITIVE, DIRECTIONS),
    st.builds(RandomOffset, POSITIVE, DIRECTIONS),
)


@st.composite
def api_configs(draw):
    """Any config the API builds with a flat tariff, within the size limits."""
    n = draw(st.integers(2, 2000))
    usage_min = draw(st.floats(0.0, 1e6))
    region = RegionConfig(
        region_id=draw(st.integers(-(2**70), 2**70)),
        consumers=n,
        usage_min=usage_min,
        usage_max=draw(st.floats(usage_min, 1e9, exclude_min=True)),
        attackers=draw(st.dictionaries(st.integers(0, n - 1), BEHAVIORS, max_size=6)),
        periods_per_day=draw(st.integers(1, 200)),
    )
    elastic = draw(st.booleans())
    return ScenarioConfig(
        region=region,
        months=draw(st.integers(1, 12)),
        th=draw(st.floats(0.0, 1.0, exclude_min=True)),
        min_samples=draw(st.integers(2, 10**6)),
        mode=draw(st.sampled_from([THRESHOLD_MODE, MOST_NEGATIVE_MODE])),
        low_report_quantile=draw(st.none() | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        tariff=TariffSchedule.flat(draw(st.floats(0.0, 1e6))),
        elasticity_factor=draw(st.floats(0.0, 1e3, exclude_min=True)) if elastic else None,
        elasticity_level=draw(st.floats(-1e300, 1e300)) if elastic else None,
        master_seed=draw(st.integers(0, 2**70)),
        repetitions=draw(st.integers(1, 10**9)),
    )


@given(api_configs())
@settings(max_examples=200, deadline=None)
def test_every_flat_tariff_config_round_trips(config):
    # the manifest's config_text describes every config the API can build
    text = dumps_config(config)
    assert loads_config(text) == config
    assert dumps_config(loads_config(text)) == text
