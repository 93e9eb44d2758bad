"""The benchmark's traced run wraps gridwatch functions at the names their
callers look them up by (`perfbench/tracer.py`).  A renamed or deleted
name makes ``perfbench/run.py --trace 1`` abort; this test makes it fail
here first.  The tracer is loaded from its file and not installed."""

import importlib.util
from pathlib import Path

import gridwatch.csvio as csvio
import gridwatch.harness as harness

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_site_resolves():
    tracer = load_tracer()
    missing = [
        f"{name} ({getattr(owner, '__name__', owner)}.{attr})"
        for name, owner, attr in tracer._call_sites()
        if not callable(getattr(owner, attr, None))
    ]
    missing += [f"csvio.{attr}" for attr in tracer.EXPORTS if not callable(getattr(csvio, attr, None))]
    assert not missing, f"names the benchmark's tracer wraps are gone: {missing}"
    assert callable(getattr(harness, "ProcessPoolExecutor", None)), "harness.ProcessPoolExecutor"
