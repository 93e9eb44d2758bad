"""The CLI's error-line rule as a property: whatever the config file and the
flags, a run ends in exactly one of three ways.

- exit 0: every CSV cell is finite, and the manifest's ``config_text`` loads
  back to the run's config;
- exit 1: stderr is exactly one ``gridwatch: error:`` line;
- exit 2: argparse rejected the command line.

Any other exception fails the test, and so does a numpy ``RuntimeWarning``
(``pyproject.toml`` turns them into errors).  Windows stay small: at most
10 consumers, 4 periods a day and 2 months, at ``--reps`` 2 or fewer.  The
size limits and each bad input found so far keep their example tests in
``test_cli.py``.
"""

import contextlib
import csv
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwatch.cli import _COMMANDS, main
from gridwatch.config import loads_config

# Values a key may take: its own tame ones, or any of the hostile ones.
HOSTILE = (
    "nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "2.2250738585072014e-308",
    "0", "-0.0", "-0.5", "-1", "1e3", "none", "x",
)
TAME = {
    "region_id": ("0", "3"),
    "consumers": ("2", "5", "10"),
    "periods_per_day": ("1", "2", "4"),
    "usage_min": ("0.5", "0.1", "0", "5e-324"),
    "usage_max": ("1.5", "3", "0.6"),
    "threshold": ("0.5", "0.25", "1", "5e-324"),
    "min_samples": ("2", "5"),
    "mode": ("threshold", "most_negative"),
    "low_report_quantile": ("none", "0.25", "0.5"),
    "tariff": ("1.0", "0.37", "0", "5e-324"),
    "elasticity_factor": ("none", "0.8", "1.5"),
    "elasticity_level": ("none", "0.5", "1.0"),
    "months": ("1", "2"),
    "repetitions": ("1", "2"),
    "master_seed": ("0", "7"),
}
KEYS = {
    "region": ("region_id", "consumers", "periods_per_day", "usage_min", "usage_max"),
    "detection": ("threshold", "min_samples", "mode", "low_report_quantile"),
    "billing": ("tariff", "elasticity_factor", "elasticity_level"),
    "experiment": ("months", "repetitions", "master_seed"),
}
BEHAVIORS = (
    "benign", "multiplicative 0.1", "multiplicative 3", "fixed_offset 0.6",
    "fixed_offset 0.4 add", "random_offset 0.7", "random_offset 0.3 add",
)
hostile_behaviors = st.one_of(
    st.builds("multiplicative {}".format, st.sampled_from(HOSTILE)),
    st.builds(
        "{} {} {}".format,
        st.sampled_from(("fixed_offset", "random_offset")),
        st.sampled_from(HOSTILE),
        st.sampled_from(("", "add", "subtract", "sideways")),
    ),
    st.sampled_from(("", "multiplicative", "benign 1", "median 0.5")),
)
# At most 10 consumers, so ids 10 and up are out of range, as are -1 and x.
HOSTILE_IDS = ("-1", "4", "9", "10", "25", "x")


def tame_or_hostile(tame, hostile):
    """Mostly a tame value, so that many runs get past loading; a hostile one in five."""
    return st.integers(0, 4).flatmap(lambda k: hostile if k == 2 else st.sampled_from(tame))


@st.composite
def config_texts(draw):
    """Config text with some keys of each section and mostly one attacker.
    A window that loads has at most 10 consumers, 4 periods a day and 2 months."""
    text = ""
    for section, keys in KEYS.items():
        chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
        if section == "region":  # the defaults (100 consumers, 96 a day) are too big
            chosen = ["consumers", "periods_per_day", *(k for k in chosen if k not in
                                                        ("consumers", "periods_per_day"))]
        hostile = st.sampled_from(HOSTILE)
        text += f"[{section}]\n" + "".join(
            f"{k} = {draw(tame_or_hostile(TAME[k], hostile))}\n" for k in chosen
        )
    ids = tame_or_hostile(("0", "1"), st.sampled_from(HOSTILE_IDS))
    count = draw(tame_or_hostile((1,), st.sampled_from((0, 2, 3))))
    behaviors = tame_or_hostile(BEHAVIORS, hostile_behaviors)
    attackers = draw(st.dictionaries(ids, behaviors, min_size=count, max_size=count))
    return text + "[attackers]\n" + "".join(f"{cid} = {spec}\n" for cid, spec in attackers.items())


def finite_cells(path):
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.reader(handle):
            for cell in row:
                try:
                    number = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(number), f"{path.name}: {cell}"


# What follows --reps: a config file, or what argparse rejects (no --config, a bad flag).
USAGE_ERRORS = ((), ("--reps", "two"), ("--threads", "1.5"), ("--bogus",))


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@given(
    text=config_texts(),
    reps=tame_or_hostile(("1", "2"), st.sampled_from(("0", "-1"))),
    threads=tame_or_hostile(("1",), st.just("0")),
    usage_error=tame_or_hostile((None,), st.sampled_from(USAGE_ERRORS)),
)
@settings(max_examples=25, deadline=None)
def test_every_run_ends_in_a_result_an_error_line_or_a_usage_error(
    command, text, reps, threads, usage_error
):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "run.cfg").write_text(text, encoding="utf-8")
        argv = [command, "--out-dir", tmp, "--threads", threads, "--reps", reps]
        argv += ["--config", str(out / "run.cfg")] if usage_error is None else usage_error
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        err = stderr.getvalue()
        assert "Traceback" not in err
        if usage_error is not None:
            assert code == 2
            return
        if code == 1:
            assert err.startswith("gridwatch: error:") and err.count("\n") == 1, err
            return
        assert (code, err) == (0, "")
        manifest = json.loads(next(out.glob("*_manifest.json")).read_text(encoding="utf-8"))
        for output in manifest["outputs"]:
            finite_cells(Path(output))
        config = dataclasses.replace(loads_config(text), repetitions=int(reps))
        assert loads_config(manifest["config_text"]) == config

