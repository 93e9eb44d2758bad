"""Command-line entry points for seeded experiment runs.

Every subcommand loads a config file, applies command-line overrides,
runs the corresponding experiment, writes plot-ready CSV files into the
output directory, and drops a run manifest beside them.  Exit codes:
0 success, 1 runtime error, 2 usage error, 130 interrupted (SIGINT).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time
from pathlib import Path

from . import __version__, csvio, harness
from .config import ScenarioConfig, dumps_config, load_config
from .csvio import RunManifest, write_manifest
from .errors import ConfigurationError, GridwatchError
from .harness import (
    STANDARD_DURATIONS,
    concentration_experiment,
    derive_trial_seed,
    duration_sweep,
    probability_table,
    run_billing,
    run_trial,
)

CONCENTRATION_DURATIONS = (1, 12)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridwatch",
        description="Seeded smart-grid metering simulator and misreporting detector",
    )
    parser.add_argument("--version", action="version", version=f"gridwatch {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the scenario config file")
        p.add_argument("--seed", type=int, default=None, help="override [experiment] master_seed")
        p.add_argument("--reps", type=int, default=None, help="override [experiment] repetitions")
        p.add_argument("--threshold", type=float, default=None, help="override [detection] threshold")
        p.add_argument("--out-dir", default=".", help="directory for CSV outputs and the manifest")
        p.add_argument("--threads", type=int, default=1, help="worker processes for repeated trials")
    return parser


def _load(args) -> ScenarioConfig:
    if args.threads < 1:
        raise ConfigurationError(f"--threads must be >= 1, got {args.threads}")
    config = load_config(args.config)
    overrides = {"master_seed": args.seed, "repetitions": args.reps, "threshold": args.threshold}
    return dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})


def _single_attacker_id(config: ScenarioConfig) -> int:
    if len(config.attackers) != 1:
        raise ConfigurationError(f"table1 needs exactly one attacker, got {len(config.attackers)}")
    return config.attackers[0][0]


# A window command keeps only what it writes: its window is freed before the CSV renders.
def _cmd_simulate(config: ScenarioConfig, out_dir: Path, threads: int) -> Path:
    # Trial 0's stream, as `detect` and `bill` draw it; looked up on `harness` so its wrappers see it.
    records = harness.simulate_window(config, derive_trial_seed(config.master_seed, 0)).to_records()
    return csvio.export_records(records, out_dir / "records.csv")


def _cmd_detect(config: ScenarioConfig, out_dir: Path, threads: int, filename="detection.csv") -> Path:
    report = run_trial(config, derive_trial_seed(config.master_seed, 0)).report
    return csvio.export_detection(report, out_dir / filename)


def _cmd_bill(config: ScenarioConfig, out_dir: Path, threads: int) -> Path:
    bills = run_billing(config, derive_trial_seed(config.master_seed, 0))[1]
    return csvio.export_bills(bills, out_dir / "bills.csv")


def _cmd_table1(config: ScenarioConfig, out_dir: Path, threads: int) -> Path:
    rows = probability_table(config, _single_attacker_id(config), threads=threads)
    return csvio.export_probability_table(rows, out_dir / "table1.csv")


def _cmd_fig_concentration(config: ScenarioConfig, out_dir: Path, threads: int) -> Path:
    reports = concentration_experiment(config, CONCENTRATION_DURATIONS)
    return csvio.export_concentration(reports, out_dir / "fig_concentration.csv")


def _cmd_fig_duration_sweep(config: ScenarioConfig, out_dir: Path, threads: int) -> Path:
    estimates = duration_sweep(config, STANDARD_DURATIONS, threads=threads)
    case = config.mode
    rows = [(case, months, est) for months, est in sorted(estimates.items())]
    return csvio.export_probability_table(rows, out_dir / "fig_duration_sweep.csv")


# command name: (help text, handler(config, out_dir, threads) -> the CSV path it wrote)
_COMMANDS = {
    "simulate": ("simulate one window and export the per-period records", _cmd_simulate),
    "detect": ("simulate one window and export per-consumer correlations and labels", _cmd_detect),
    "bill": ("simulate one window and export monthly bills", _cmd_bill),
    "table1": ("correct-detection probability for the three attack cases across durations", _cmd_table1),
    "fig-corr": (
        "per-consumer correlation chart data for the configured scenario",
        functools.partial(_cmd_detect, filename="fig_corr.csv"),
    ),
    "fig-concentration": (
        "per-consumer correlations at 1-month vs 12-month durations", _cmd_fig_concentration
    ),
    "fig-duration-sweep": (
        "detection probability of the configured scenario across durations", _cmd_fig_duration_sweep
    ),
}


def main(argv=None) -> int:
    heap_kept = harness._keep_freed_heap()  # this process and the workers it forks
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load(args)
        out_dir = Path(args.out_dir)
        start = time.perf_counter()
        output = _COMMANDS[args.command][1](config, out_dir, args.threads)
        elapsed = time.perf_counter() - start
        manifest_path = out_dir / f"{args.command.replace('-', '_')}_manifest.json"
        manifest_path.unlink(missing_ok=True)  # the CSV is replaced: the old manifest no longer describes it
        manifest = RunManifest(
            command=args.command,
            master_seed=config.master_seed,
            config_text=dumps_config(config),
            outputs=[str(output)],
            wall_clock_seconds=elapsed,
            heap="glibc thresholds set" if heap_kept else "default",
        )
        write_manifest(manifest, manifest_path)
    except (GridwatchError, OSError) as exc:
        print(f"gridwatch: error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("gridwatch: error: interrupted", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
