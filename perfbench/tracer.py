"""In-memory span recorder that wraps gridwatch's layer functions from outside.

Each wrapper is installed at the name its caller looks it up by (for
example ``gridwatch.harness.detect_region``, not only
``gridwatch.detection.detect_region``), so nothing under ``src/`` changes.
A span is ``[name, start, end, parent, months, mode]``: ``parent`` is the
index of the enclosing span in the same list (-1 at the top), and
``months``/``mode`` are filled for spans whose first argument is a
``ScenarioConfig``.  Spans stay in memory and are written out once, at the
end of the pass or, in a pool worker, when the worker exits.

Pool workers are forked, so they inherit the wrappers.  The wrapped
``ProcessPoolExecutor`` gives each worker an initializer that clears the
spans copied from the parent and registers a flush at worker exit; the
worker files sit next to the main one.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import islice
from multiprocessing import util as mp_util
from pathlib import Path

# Spans whose first argument is a ScenarioConfig: they record months and mode.
CONFIG_SPANS = {"harness.run_trial", "harness.simulate_window", "harness.run_billing"}
EXPORTS = ("export_records", "export_detection", "export_bills", "export_probability_table")


def _call_sites():
    """(span name, object, attribute) for every name a caller looks a layer up by."""
    import gridwatch.cli as cli
    import gridwatch.detection as detection
    import gridwatch.harness as harness

    return (
        ("harness.run_trial", harness, "run_trial"),
        ("harness.run_trial", cli, "run_trial"),
        ("harness.simulate_window", harness, "simulate_window"),
        ("model.apply_behavior", harness, "apply_behavior"),
        ("aggregation.series_from_arrays", harness, "series_from_arrays"),
        ("detection.detect_region", harness, "detect_region"),
        ("detection.most_negative", harness, "most_negative"),
        ("detection.pearson", detection, "pearson"),
        ("detection.low_report_filter", detection, "low_report_filter"),
        ("harness.run_billing", cli, "run_billing"),
        ("billing.accrue", harness, "accrue"),
        ("billing.issue_bills", harness, "issue_bills"),
        ("harness.to_records", harness.WindowData, "to_records"),
        ("config.load_config", cli, "load_config"),
        ("config.write_manifest", cli, "write_manifest"),
    )


class Tracer:
    """Spans and exact counters of one process."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = {"pools_created": 0, "dispatch_bytes": 0, "bytes_written": 0}

    def span(self, name: str, fn, config_arg: bool = False):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None, None]
            if config_arg:
                rec[4], rec[5] = args[0].months, args[0].mode
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        return wrapper

    def install(self) -> None:
        for name, owner, attr in _call_sites():
            setattr(owner, attr, self.span(name, getattr(owner, attr), name in CONFIG_SPANS))
        import gridwatch.csvio as csvio
        import gridwatch.harness as harness

        for attr in EXPORTS:
            setattr(csvio, attr, self._counting_export(attr, getattr(csvio, attr)))
        harness.ProcessPoolExecutor = self._pool_class()

    def _counting_export(self, attr: str, fn):
        timed = self.span(f"csvio.{attr}", fn)

        def export(*args, **kwargs):
            path = timed(*args, **kwargs)
            self.counters["bytes_written"] += os.path.getsize(path)
            return path

        return export

    def _pool_class(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                kwargs["initializer"] = tracer.start_worker
                kwargs["initargs"] = ()
                super().__init__(*args, **kwargs)
                tracer.counters["pools_created"] += 1

            def map(self, fn, *iterables, timeout=None, chunksize=1):
                iterables = [list(it) for it in iterables]
                jobs = zip(*iterables)
                while chunk := tuple(islice(jobs, chunksize)):
                    tracer.counters["dispatch_bytes"] += len(pickle.dumps(chunk))
                return super().map(fn, *iterables, timeout=timeout, chunksize=chunksize)

        return TracedPool

    def start_worker(self) -> None:
        """Pool initializer: forget the parent's spans, flush ours at worker exit."""
        self.spans.clear()
        self.stack.clear()
        self.counters = dict.fromkeys(self.counters, 0)
        mp_util.Finalize(None, self.dump, args=(f"spans-{os.getpid()}.json",), exitpriority=10)

    def dump(self, filename: str = "spans-main.json") -> None:
        with open(self.out_dir / filename, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)
