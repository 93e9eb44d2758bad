"""Golden SHA-256 digests of seeded outputs at master seed 42.

A performance change must leave every simulated array and every exported
CSV below bit-for-bit unchanged.  A mismatch names the artifacts that
moved; a change that moves one on purpose says why in CHANGES.md.

Print the current digests with ``python tests/test_golden.py`` (run with
``src`` on ``PYTHONPATH``).
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from conftest import make_config
from gridwatch.cli import main
from gridwatch.config import loads_config
from gridwatch.harness import case_config, derive_trial_seed, simulate_window
from per_period import matrices

SEED = 42
GOLDEN = Path(__file__).with_name("golden_seed42.json")
# usage and reports are the window's month blocks, joined; the sampled ids
# are the sampled positions (ids are positions)
ARRAYS = ("usage", "reports", "actual_total", "reported_total", "leakage",
          "sampled_ids", "sampled_reports")
# The 12-month window with a fixed-offset attacker, the low-report filter and
# a tariff above the elasticity level, so that the usage draw takes the
# scaled span in every period.
WINDOW_CONFIG = """[attackers]
25 = fixed_offset 0.6 subtract

[detection]
low_report_quantile = 0.25

[billing]
elasticity_factor = 0.8
elasticity_level = 0.5

[experiment]
months = 12
master_seed = 42
"""
TABLE_CONFIG = """[attackers]
25 = multiplicative 0.1

[experiment]
repetitions = 2
master_seed = 42
"""
# 50 repetitions reach the borderline case II 1-month cell, whose count a
# verdict that read one entry wrong would move.
TABLE50_CONFIG = TABLE_CONFIG.replace("repetitions = 2", "repetitions = 50")
# The Monte-Carlo verdict of one fixed-offset attacker on its low-report pairs.
LOW_REPORT_SWEEP_CONFIG = """[attackers]
25 = fixed_offset 0.6 subtract

[detection]
low_report_quantile = 0.25

[experiment]
repetitions = 20
master_seed = 42
"""
# Two misreporting consumers: the verdict needs the exact set, so it reads
# every consumer's correlation.
TWO_ATTACKER_SWEEP_CONFIG = """[attackers]
25 = multiplicative 0.1
75 = multiplicative 0.3

[experiment]
repetitions = 20
master_seed = 42
"""
# One random-offset attacker in threshold mode: its Monte-Carlo verdict draws the
# offsets before the sampled positions, so each cell runs the full trial on the
# shared block.  At threshold 0.65 the counts sit between 0 and 6.
RANDOM_OFFSET_SWEEP_CONFIG = """[region]
consumers = 30

[attackers]
7 = random_offset 0.9

[detection]
threshold = 0.65

[experiment]
repetitions = 6
master_seed = 42
"""
# Two periods a day: at 1 month most consumers have fewer than min_samples
# sampled reports, so the concentration CSV has empty corr cells and
# insufficient_data labels beside defined ones.
SPARSE_CONFIG = """[region]
periods_per_day = 2

[attackers]
25 = multiplicative 0.1

[experiment]
master_seed = 42
"""


def _array_digest(array: np.ndarray) -> str:
    h = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
    h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _window_digests(name, config):
    window = simulate_window(config, derive_trial_seed(SEED, 0))
    arrays = {**matrices(window)._asdict(), "sampled_ids": window.sampled_pos,
              **{attr: getattr(window, attr) for attr in ARRAYS[2:] if attr != "sampled_ids"}}
    return {f"{name}/{attr}": _array_digest(arrays[attr]) for attr in ARRAYS}


def _cli_digests(tmp_dir: Path):
    runs = (  # (digest key, config, command, output file)
        ("records.csv", WINDOW_CONFIG, "simulate", "records.csv"),
        ("detection.csv", WINDOW_CONFIG, "detect", "detection.csv"),
        ("bills.csv", WINDOW_CONFIG, "bill", "bills.csv"),
        ("table1.csv", TABLE_CONFIG, "table1", "table1.csv"),
        ("fig_corr.csv", TABLE_CONFIG, "fig-corr", "fig_corr.csv"),
        ("fig_concentration.csv", SPARSE_CONFIG, "fig-concentration", "fig_concentration.csv"),
        ("fig_duration_sweep.csv", TABLE_CONFIG, "fig-duration-sweep", "fig_duration_sweep.csv"),
        ("table1-50reps.csv", TABLE50_CONFIG, "table1", "table1.csv"),
        ("fig_duration_sweep-low-report.csv", LOW_REPORT_SWEEP_CONFIG, "fig-duration-sweep",
         "fig_duration_sweep.csv"),
        ("fig_duration_sweep-two-attackers.csv", TWO_ATTACKER_SWEEP_CONFIG, "fig-duration-sweep",
         "fig_duration_sweep.csv"),
        ("fig_duration_sweep-random-offset.csv", RANDOM_OFFSET_SWEEP_CONFIG, "fig-duration-sweep",
         "fig_duration_sweep.csv"),
    )
    out = {}
    for key, text, command, filename in runs:
        config = tmp_dir / f"{command}.cfg"
        config.write_text(text)
        code = main([command, "--config", str(config), "--out-dir", str(tmp_dir)])
        assert code == 0, command
        out[key] = hashlib.sha256((tmp_dir / filename).read_bytes()).hexdigest()
    return out


def current_digests(tmp_dir: Path) -> dict[str, str]:
    base = dataclasses.replace(make_config(attackers=""), master_seed=SEED)
    digests = {}
    for case in ("I", "II", "III"):
        scenario = case_config(base, case, 25)
        for months in (1, 12):
            digests.update(_window_digests(f"case{case}-{months}m", dataclasses.replace(scenario, months=months)))
    digests.update(_window_digests("elasticity-12m", loads_config(WINDOW_CONFIG)))
    digests.update(_cli_digests(tmp_dir))
    return digests


def test_seeded_outputs_match_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = current_digests(tmp_path)
    moved = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
    assert not moved, f"digests changed: {moved}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(current_digests(Path(tmp)), indent=2, sort_keys=True))
