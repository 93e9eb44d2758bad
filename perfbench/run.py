"""gridwatch benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mc_serial --seed 42 --seconds 25 --trace 0

Workloads (see README.md for why each exists):

- ``mc_serial``: ``gridwatch table1 --threads 1`` on the default
  100-consumer region, attacker 25, ``REPS`` repetitions;
- ``mc_pool``: the same with ``--threads 2``;
- ``window_12m``: ``simulate``, ``detect`` and ``bill`` on one 12-month
  window with a fixed-offset attacker, low-report filter and elasticity.

Every workload is a closed loop with a single caller: each pass is a fresh
``pass_main.py`` process, started only after the previous pass has ended,
and inside a pass each command starts after the previous one returned.
Passes repeat until ``--seconds`` have gone by (at least ``MIN_PASSES``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics computed from
the traced passes' spans.  Lines before the last are for people; the last
line is the JSON result.  The exit code is nonzero, with no result line,
when gridwatch cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))

REPS = 20
MIN_PASSES = 3
SETUP_PROBES = 5
RUN_DEADLINE_S = 170.0
# Exact counts that the seed changes: CSV sizes, and the pickled master seed.
SEED_DEPENDENT_COUNTS = ("csvio.bytes_written", "harness.dispatch_bytes")

MC_CONFIG = """[attackers]
25 = multiplicative 0.1

[experiment]
repetitions = {reps}
master_seed = {seed}
"""
# eta = 0.6 rather than 1.0: at 1.0 every kept low report is a clipped zero,
# the attacker's correlation is undefined and the low-report path gives no
# verdict.
WINDOW_CONFIG = """[attackers]
25 = fixed_offset 0.6 subtract

[detection]
low_report_quantile = 0.25

[billing]
elasticity_factor = 0.8
elasticity_level = 0.5

[experiment]
months = 12
master_seed = {seed}
"""
# table1 runs cases I/II/III at 1, 3, 6 and 12 months for each repetition.
MC_TRIAL_MONTHS_PER_REP = 3 * (1 + 3 + 6 + 12)


@dataclass(frozen=True)
class Workload:
    config: str
    commands: tuple[tuple[str, ...], ...]
    outputs: dict[str, str]  # command name -> the CSV it writes
    workers: int
    trial_months: int  # simulated months of the whole region per pass


def _table1(threads: int) -> Workload:
    return Workload(
        config=MC_CONFIG,
        commands=(("table1", "--threads", str(threads)),),
        outputs={"table1": "table1.csv"},
        workers=threads,
        trial_months=MC_TRIAL_MONTHS_PER_REP * REPS,
    )


WORKLOADS = {
    "mc_serial": _table1(1),
    "mc_pool": _table1(2),
    "window_12m": Workload(
        config=WINDOW_CONFIG,
        commands=(("simulate",), ("detect",), ("bill",)),
        outputs={"simulate": "records.csv", "detect": "detection.csv", "bill": "bills.csv"},
        workers=1,
        trial_months=3 * 12,
    ),
}


class BenchAbort(Exception):
    """gridwatch could not be run at all; no result is printed."""


@dataclass
class Pass:
    setup_s: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    command_s: dict[str, float]
    failures: list[tuple[str, str]]  # (command, what went wrong)
    attempted: int
    pass_dir: Path
    env: dict


class Runner:
    """Starts passes of one workload, one at a time, and checks their outputs."""

    def __init__(self, name: str, seed: int, run_dir: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.count = 0
        # Digest each output must have: the golden one at the golden seed,
        # otherwise the first pass's (or, for mc_pool, the serial reference's).
        self.expected = dict(GOLDEN["digests"]) if seed == GOLDEN["seed"] else {}

    def config_text(self) -> str:
        return self.workload.config.format(reps=REPS, seed=self.seed % 2**32)

    def run(self, commands=None, trace=False, keep=False) -> Pass:
        commands = self.workload.commands if commands is None else commands
        self.count += 1
        pass_dir = self.run_dir / f"pass-{self.count:03d}"
        pass_dir.mkdir(parents=True)
        job = pass_dir / "job.json"
        job.write_text(json.dumps({
            "root": str(ROOT),
            "pass_dir": str(pass_dir),
            "config_text": self.config_text(),
            "commands": [list(c) for c in commands],
            "outputs": [self.workload.outputs[c[0]] for c in commands],
            "trace": trace,
        }), encoding="utf-8")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchAbort(f"run passed its {RUN_DEADLINE_S:.0f} s deadline")
        with open(pass_dir / "log.txt", "wb") as log:
            started = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "pass_main.py"), str(job)],
                cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
            )
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
            finally:
                _kill_group(proc)
        result_path = pass_dir / "result.json"
        if proc.returncode != 0 or not result_path.exists():
            log_text = (pass_dir / "log.txt").read_text(errors="replace").strip()
            raise BenchAbort(f"pass exited with {proc.returncode}: {log_text[-2000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        p = self._score(result, commands, started, pass_dir)
        if not keep:
            shutil.rmtree(pass_dir)
        return p

    def _score(self, result, commands, started, pass_dir) -> Pass:
        failures = []
        for cmd in result["commands"]:
            if cmd["code"] != 0 or cmd["error"]:
                failures.append((cmd["name"], f"exit {cmd['code']} {cmd['error'] or ''}".strip()))
            reload = result["config_reloads"].get(cmd["name"])
            if reload is not True:
                failures.append((cmd["name"], f"manifest config_text reload: {reload}"))
        for command in commands:
            output = self.workload.outputs[command[0]]
            got = result["digests"].get(output)
            want = self.expected.setdefault(output, got)
            if got is None or got != want:
                failures.append((command[0], f"{output} sha256 {got} != expected {want}"))
        cmds = result["commands"]
        return Pass(
            setup_s=result["ready"] - started,
            wall_s=cmds[-1]["end"] - cmds[0]["start"] if cmds else 0.0,
            cpu_s=result["cpu_s"],
            peak_rss_mb=result["peak_rss_mb"],
            command_s={c["name"]: c["end"] - c["start"] for c in cmds},
            failures=failures,
            attempted=max(1, len(cmds)),
            pass_dir=pass_dir,
            env=result["env"],
        )


def _kill_group(proc: subprocess.Popen) -> None:
    """Stop the pass and any pool worker it left behind, then reap the pass."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def end_to_end(runner: Runner, seconds: float, out) -> tuple[dict, list[Pass]]:
    w = runner.workload
    probes = [runner.run(commands=()) for _ in range(SETUP_PROBES)]
    reference = None
    if w.workers > 1:
        reference = runner.run(commands=(("table1", "--threads", "1"),))
    passes: list[Pass] = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        passes.append(runner.run())
    wall = statistics.median(p.wall_s for p in passes)
    metrics = {
        "setup_s": (statistics.median(p.setup_s for p in probes + passes), "s"),
        "wall_s": (wall, "s"),
        "trial_months_per_s": (w.trial_months / wall, "1/s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in passes), "MB"),
    }
    for p in passes:
        print(f"pass wall_s={p.wall_s:.4f} setup_s={p.setup_s:.4f} cpu_s={p.cpu_s:.3f} "
              f"rss_mb={p.peak_rss_mb:.1f} " +
              " ".join(f"{k}_s={v:.4f}" for k, v in p.command_s.items()), file=out)
    if len(w.commands) > 1:
        for name in (command[0] for command in w.commands):
            print(f"{name}_s = {statistics.median(p.command_s[name] for p in passes):.4f} s", file=out)
    if reference is not None:
        eff = reference.wall_s / (w.workers * wall)
        print(f"pool_efficiency = {eff:.3f} (serial {reference.wall_s:.3f} s / "
              f"({w.workers} x {wall:.3f} s); R = {REPS}, so pool start-up, 12 pools per "
              f"pass, weighs more than at 1000 repetitions)", file=out)
    return metrics, probes + ([reference] if reference else []) + passes


def per_layer(runner: Runner, seconds: float, out) -> tuple[dict, list[Pass]]:
    from layers import layer_metrics  # this script's directory is on sys.path

    w = runner.workload
    everything: list[Pass] = []
    serial_wall = None
    if w.workers > 1:
        reference = runner.run(commands=(("table1", "--threads", "1"),))
        everything.append(reference)
        serial_wall = reference.wall_s
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.monotonic()
    rounds = 0
    while rounds < 2 or time.monotonic() - start < seconds:
        order = (False, True) if rounds % 2 == 0 else (True, False)
        for trace in order:
            p = runner.run(trace=trace, keep=trace)
            (traced if trace else plain).append(p)
        rounds += 1
    everything += plain + traced
    plain_wall = statistics.median(p.wall_s for p in plain)
    traced_wall = statistics.median(p.wall_s for p in traced)
    expected = dict(GOLDEN["counts"][runner.name])
    if runner.seed != GOLDEN["seed"]:
        for name in SEED_DEPENDENT_COUNTS:
            del expected[name]
    metrics, drift, unsteady = layer_metrics(traced, expected, out)
    traced[-1].failures += [(w.commands[-1][0], line) for line in unsteady]
    for p in traced:
        shutil.rmtree(p.pass_dir)
    metrics["harness.pool_efficiency"] = (
        (serial_wall / (w.workers * plain_wall) if serial_wall else 1.0), "ratio")
    metrics["trace_overhead_pct"] = (100.0 * (traced_wall / plain_wall - 1.0), "%")
    print(f"traced wall_s = {traced_wall:.4f} s, untraced wall_s = {plain_wall:.4f} s "
          f"({len(traced)} + {len(plain)} passes)", file=out)
    for line in drift:
        print(f"count drift from the seed code: {line}", file=out)
    return metrics, everything


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gridwatch" / "cli.py").is_file():
        print(f"run.py: error: no gridwatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    out = sys.stdout
    try:
        runner = Runner(args.workload, args.seed, run_dir)
        runner.run(commands=())  # compiles bytecode; not timed
        measure = per_layer if args.trace else end_to_end
        metrics, passes = measure(runner, args.seconds, out)
    except BenchAbort as exc:
        print(f"run.py: error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(len({command for command, _ in p.failures}) for p in passes)
    for command, what in (f for p in passes for f in p.failures):
        print(f"FAILED {command}: {what}", file=out)
    env = dict(passes[-1].env, nproc=len(os.sched_getaffinity(0)), seed=args.seed,
               reps=REPS, workload=args.workload, trace=args.trace)
    print(f"env {json.dumps(env, sort_keys=True)}", file=out)
    print(f"failed_ratio = {failed}/{attempted} operations", file=out)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}", file=out)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
