"""One benchmark pass, run in its own fresh process by ``run.py``.

Usage: ``python3 perfbench/pass_main.py JOB.json``.  The job names the
checkout root, the pass directory, the config text and the gridwatch
commands to run.  The pass imports gridwatch from the checkout's ``src/``,
writes the config, then issues each command through ``gridwatch.cli.main``
one after the other.  It writes ``result.json`` into the pass directory:

- ``ready``: ``time.monotonic()`` when the first command was ready; the
  parent subtracts its own reading taken before it started this process;
- per command: exit code, error text, and its start and end times;
- ``cpu_s`` and ``peak_rss_mb`` over the commands, pool workers included;
- SHA-256 digests of the outputs, and whether each manifest's
  ``config_text`` reloads to the config that was run.

With ``trace`` set it installs ``tracer.Tracer`` before the first command
and writes the spans beside the result.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_and_rss() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


def _check_outputs(job: dict, out_dir: Path, loads_config) -> tuple[dict, dict]:
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in job["outputs"]
        if (out_dir / name).exists()
    }
    expected = loads_config(job["config_text"])
    reloads = {}
    for command in job["commands"]:
        manifest = out_dir / f"{command[0]}_manifest.json"
        try:
            text = json.loads(manifest.read_text(encoding="utf-8"))["config_text"]
            reloads[command[0]] = loads_config(text) == expected
        except (OSError, KeyError, ValueError) as exc:
            reloads[command[0]] = f"{type(exc).__name__}: {exc}"
    return digests, reloads


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    import gridwatch
    import gridwatch.cli
    from gridwatch.config import loads_config

    if not Path(gridwatch.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"gridwatch imported from {gridwatch.__file__}, not {src}")
    out_dir = Path(job["pass_dir"])
    if job["trace"]:
        from tracer import Tracer  # this script's directory is on sys.path

        tracer = Tracer(out_dir)
        tracer.install()
    config_path = out_dir / "config.ini"
    config_path.write_text(job["config_text"], encoding="utf-8")

    ready = time.monotonic()
    cpu0, _ = _cpu_and_rss()
    commands = []
    for command in job["commands"]:
        argv = [*command, "--config", str(config_path), "--out-dir", str(out_dir)]
        start = time.perf_counter()
        error = None
        try:
            code = gridwatch.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a usage error this way
            code = exc.code
        except Exception:  # a traceback is a failed operation, not a crashed bench
            code, error = -1, traceback.format_exc()
        commands.append({"name": command[0], "code": code, "error": error,
                         "start": start, "end": time.perf_counter()})
    cpu1, peak_rss_mb = _cpu_and_rss()

    if job["trace"]:
        tracer.dump()
    digests, reloads = _check_outputs(job, out_dir, loads_config)
    import numpy

    result = {
        "ready": ready,
        "commands": commands,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_rss_mb,
        "digests": digests,
        "config_reloads": reloads,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "start_method": multiprocessing.get_start_method(),
        },
    }
    (out_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
