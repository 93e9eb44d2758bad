"""Per-layer metrics from the spans that traced passes wrote.

Every value is per pass and, for times, the median over the traced passes.
Layer names follow gridwatch's modules (see README.md for the map from
each metric to the end-to-end metric and workload it should move).

- ``*.ms``: busy time of a layer that every workload runs, in ms per pass;
  ``self_ms`` leaves out the time of wrapped layers called from inside it.
- ``*.pct``: busy time of a layer that only some workloads run, as a
  share of the pass's command time (0 where the workload never calls it).
  With pool workers the share of all workers together can pass 100.
- counts are exact and must repeat from pass to pass.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict

MS = 1000.0
EVERY_WORKLOAD_MS = (
    ("model.apply_behavior.ms", "model.apply_behavior", "dur"),
    ("aggregation.series_from_arrays.ms", "aggregation.series_from_arrays", "dur"),
    ("detection.detect_region.self_ms", "detection.detect_region", "self"),
    ("detection.pearson.ms", "detection.pearson", "dur"),
    ("config.load_config.ms", "config.load_config", "dur"),
    ("config.write_manifest.ms", "config.write_manifest", "dur"),
)
SOME_WORKLOADS_PCT = (
    ("detection.most_negative.pct", "detection.most_negative", "dur"),
    ("detection.low_report_filter.pct", "detection.low_report_filter", "dur"),
    ("harness.run_billing.self_pct", "harness.run_billing", "self"),
    ("billing.accrue.pct", "billing.accrue", "dur"),
    ("billing.issue_bills.pct", "billing.issue_bills", "dur"),
    ("harness.to_records.pct", "harness.to_records", "dur"),
)
MODES = ("threshold", "most_negative")


def _load(pass_dir):
    """Span lists of the pass process and of each pool worker, and the counters."""
    main = json.loads((pass_dir / "spans-main.json").read_text(encoding="utf-8"))
    lists = [main["spans"]]
    for path in sorted(pass_dir.glob("spans-*.json")):
        if path.name != "spans-main.json":
            lists.append(json.loads(path.read_text(encoding="utf-8"))["spans"])
    return lists, main["counters"]


def _one_pass(p):
    """Layer totals, trial latencies and counts of one traced pass."""
    lists, counters = _load(p.pass_dir)
    dur = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    trials = []  # (months, mode, seconds, pearson calls)
    trial_months = 0
    for spans in lists:
        child_time = [0.0] * len(spans)
        trial_of = [-1] * len(spans)
        pearson = defaultdict(int)
        for i, (name, start, end, parent, months, mode) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                trial_of[i] = trial_of[parent]
            if name == "harness.run_trial":
                trial_of[i] = i
            elif name == "detection.pearson" and trial_of[i] >= 0:
                pearson[trial_of[i]] += 1
            elif name == "harness.simulate_window":
                trial_months += months
        for i, (name, start, end, parent, months, mode) in enumerate(spans):
            dur[name] += end - start
            self_time[name] += end - start - child_time[i]
            calls[name] += 1
            if name == "harness.run_trial":
                trials.append((months, mode, end - start, pearson[i]))
    command_s = sum(p.command_s.values()) or math.inf  # inf: no command ran
    values = {
        "harness.simulate_window.self_ms_per_trial_month":
            MS * self_time["harness.simulate_window"] / max(trial_months, 1),
        "csvio.export.ms": MS * sum(v for k, v in dur.items() if k.startswith("csvio.")),
    }
    picked = {"dur": dur, "self": self_time}
    for metric, span, kind in EVERY_WORKLOAD_MS:
        values[metric] = MS * picked[kind][span]
    for metric, span, kind in SOME_WORKLOADS_PCT:
        values[metric] = 100.0 * picked[kind][span] / command_s
    counts = {
        "detection.pearson.calls_per_trial":
            sum(t[3] for t in trials) / len(trials) if trials else 0.0,
        "billing.accrue.calls": calls["billing.accrue"],
        "harness.pools_created": counters["pools_created"],
        "harness.dispatch_bytes": counters["dispatch_bytes"],
        "csvio.bytes_written": counters["bytes_written"],
    }
    for mode in MODES:
        of_mode = [t[3] for t in trials if t[1] == mode]
        counts[f"detection.pearson.calls_per_trial.{mode}"] = (
            sum(of_mode) / len(of_mode) if of_mode else 0.0)
    detail = {name: MS * seconds for name, seconds in sorted(dur.items())}
    return values, counts, trials, detail


def _nearest_rank(ordered, q):
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def tail(values):
    """(q, value) at the highest listed percentile with >= 10 samples beyond it.

    Below 20 samples no percentile qualifies and the median stands in.
    """
    ordered = sorted(values)
    n = len(ordered)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n - math.ceil(q / 100.0 * n) >= 10:
            return q, _nearest_rank(ordered, q)
    return 50.0, statistics.median(ordered)


def layer_metrics(traced, expected_counts, out):
    """Metrics for the JSON line, count drifts from ``expected_counts``, and
    counts that did not repeat exactly across the traced passes.

    Also prints, for people, every wrapped layer's busy time and the
    run_trial latency at each duration.
    """
    per_pass = [_one_pass(p) for p in traced]
    metrics = {}
    for name in per_pass[0][0]:
        metrics[name] = (statistics.median(v[name] for v, *_ in per_pass),
                         "%" if name.endswith("pct") else "ms")
    drift, unsteady = [], []
    first = per_pass[0][1]
    for name, value in first.items():
        seen = [c[name] for _, c, *_ in per_pass]
        if any(v != value for v in seen):
            unsteady.append(f"{name} does not repeat across traced passes: {seen}")
        if name in expected_counts and value != expected_counts[name]:
            drift.append(f"{name} = {value}, seed code gave {expected_counts[name]}")
        unit = "B" if name.endswith("bytes") or name.endswith("written") else "count"
        metrics[name] = (value, unit)
    trials = [t for _, _, ts, _ in per_pass for t in ts]
    by_months = defaultdict(list)
    for months, _, seconds, _ in trials:
        by_months[months].append(MS * seconds)
    for months, values in sorted(by_months.items()):
        q, value = tail(values)
        print(f"harness.run_trial {months}m: p50 = {statistics.median(values):.3f} ms, "
              f"p{q:g} = {value:.3f} ms, n = {len(values)}", file=out)
    twelve = by_months.get(12, [])
    q, value = tail(twelve) if twelve else (50.0, 0.0)
    metrics["harness.run_trial.p50_ms.12m"] = (statistics.median(twelve) if twelve else 0.0, "ms")
    metrics["harness.run_trial.tail_ms.12m"] = (value, "ms")
    metrics["harness.run_trial.samples.12m"] = (len(twelve), "count")
    metrics["harness.run_trial.p50_ms_per_month"] = (
        statistics.median(MS * s / m for m, _, s, _ in trials) if trials else 0.0, "ms")
    for name in per_pass[0][3]:
        busy = statistics.median(d.get(name, 0.0) for *_, d in per_pass)
        print(f"busy {name} = {busy:.3f} ms per pass", file=out)
    return metrics, drift, unsteady
