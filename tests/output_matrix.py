"""SHA-256 digests of every command's CSV over a fixed matrix of seeded runs.

A change meant to leave the seeded outputs alone is checked by running this on
the change and on its parent and comparing the two JSON objects:

    PYTHONPATH=src python tests/output_matrix.py > after.json

The matrix is each of the seven commands × six 3-month, 20-repetition configs
(attacker 25 as ``multiplicative 0.1``, ``fixed_offset 0.6 subtract`` or
``random_offset 1.0 subtract``, each with and without
``low_report_quantile = 0.25``) × master seeds 42 and 7 × ``--threads`` 1 and
2: 168 runs, each through `gridwatch.cli.main` in a temporary directory.  The
object maps each run to its CSV's digest, and ``<run> config_text`` to the
digest of its manifest's ``config_text``.  A run that fails is an error.
"""

import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

from gridwatch.cli import _COMMANDS, main

ATTACKS = ("multiplicative 0.1", "fixed_offset 0.6 subtract", "random_offset 1.0 subtract")
QUANTILES = ("none", "0.25")
SEEDS = (42, 7)
THREADS = (1, 2)


def config_text(attack: str, quantile: str) -> str:
    return (f"[attackers]\n25 = {attack}\n\n[detection]\nlow_report_quantile = {quantile}\n\n"
            "[experiment]\nmonths = 3\nrepetitions = 20\n")


def digests(root: Path) -> dict[str, str]:
    out = {}
    runs = itertools.product(ATTACKS, QUANTILES, _COMMANDS, SEEDS, THREADS)
    for k, (attack, quantile, command, seed, threads) in enumerate(runs):
        run = f"{command} [{attack}, quantile {quantile}] seed {seed} threads {threads}"
        work = root / str(k)
        work.mkdir()
        config = work / "scenario.toml"
        config.write_text(config_text(attack, quantile))
        argv = [command, "--config", str(config), "--seed", str(seed),
                "--threads", str(threads), "--out-dir", str(work)]
        with contextlib.redirect_stdout(io.StringIO()):
            status = main(argv)
        if status != 0:
            raise SystemExit(f"{run}: exit status {status}")
        manifest = json.loads((work / f"{command.replace('-', '_')}_manifest.json").read_text())
        (csv,) = manifest["outputs"]
        out[run] = hashlib.sha256(Path(csv).read_bytes()).hexdigest()
        out[f"{run} config_text"] = hashlib.sha256(manifest["config_text"].encode()).hexdigest()
    return out


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(digests(Path(tmp)), sys.stdout, indent=1, sort_keys=True)
    print()
