"""Run the benchmark over several seeds and summarise each metric.

Usage (from the root of a checkout):

    python3 perfbench/collect.py --workloads mc_serial mc_pool window_12m \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/results/BENCH_<tag>.json

Each (workload, seed) is one ``run.py`` run, one after the other.  For
every workload and metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
next to the metric's bound from ``BENCHMARK.json``.  With ``--out`` the
runs are added to that JSON file (runs of the same workload, seed and
trace mode are replaced) and its summary is recomputed, so one file can
hold a whole set of runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), {})
    return {"workload": workload, "seed": seed, "trace": trace, "env": env,
            "notes": lines[:-1], "result": json.loads(lines[-1])}


def summarise(runs: list[dict]) -> dict:
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    summary: dict = {}
    for run in runs:
        key = f"{run['workload']}/trace{run['trace']}"
        for name, metric in run["result"]["metrics"].items():
            entry = summary.setdefault(key, {}).setdefault(
                name, {"unit": metric["unit"], "values": []})
            entry["values"].append(metric["value"])
    for metrics in summary.values():
        for name, entry in metrics.items():
            values = entry["values"]
            entry["median"] = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry["q1"], entry["q3"] = q1, q3
                entry["spread"] = (q3 - q1) / entry["median"] if entry["median"] else None
            if name in bounds:
                entry["bound"] = bounds[name]
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    runs = []
    for workload in args.workloads:
        for seed in args.seeds:
            run = run_once(workload, seed, args.seconds, args.trace)
            result = run["result"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " +
                  " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
            runs.append(run)

    if args.out:
        old = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        fresh = {(r["workload"], r["seed"], r["trace"]) for r in runs}
        runs = [r for r in old.get("runs", [])
                if (r["workload"], r["seed"], r["trace"]) not in fresh] + runs
    summary = summarise(runs)
    for key, metrics in summary.items():
        print(key)
        for name, e in metrics.items():
            spread = e.get("spread")
            bound = e.get("bound")
            flag = "" if bound is None or spread is None else (
                " ok" if spread < bound / 3 else " WIDE")
            print(f"  {name:52s} median {e['median']:.6g} {e['unit']}  "
                  f"spread {spread if spread is None else round(spread, 4)}"
                  f"{'' if bound is None else f'  bound {bound}'}{flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
