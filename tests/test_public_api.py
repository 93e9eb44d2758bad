"""The package's public names, pinned: adding or removing one is a deliberate
edit of this list, not a side effect of a refactor; and the module layering."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridwatch
from conftest import python_env

PUBLIC = [
    "BehaviorModel",
    "ConfigurationError",
    "DetectionReport",
    "FixedOffset",
    "GridwatchError",
    "InputError",
    "Label",
    "Multiplicative",
    "ProbabilityEstimate",
    "RandomOffset",
    "ScenarioConfig",
    "TrialOutcome",
    "__version__",
    "accrue",
    "apply_behavior",
    "concentration_experiment",
    "derive_trial_seed",
    "detect_region",
    "issue_bills",
    "low_report_filter",
    "most_negative",
    "pearson",
    "probability_table",
    "run_trial",
]


def test_public_names_are_pinned():
    assert sorted(gridwatch.__all__) == PUBLIC


def test_every_public_name_resolves():
    missing = [name for name in gridwatch.__all__ if not hasattr(gridwatch, name)]
    assert not missing, f"names in gridwatch.__all__ that the package does not define: {missing}"


PACKAGE = Path(gridwatch.__file__).parent


def imported_names(module: str) -> list[str]:
    """What ``gridwatch.<module>`` imports: ``json``, ``errors.GridwatchError``, ``.__version__``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    return names


def test_config_does_not_import_the_simulation():
    # the config owns its fields, types and checks; the harness imports it, never the reverse
    assert not [name for name in imported_names("config") if "harness" in name.split(".")]


def fresh_process(probe: str, env: dict[str, str]) -> str:
    """What ``probe`` prints in a new interpreter run with ``env``."""
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    return result.stdout


def test_the_cli_defers_numpy_random_numpy_ma_and_the_pool_stack():
    # a fresh process: importing numpy.random costs about 10 ms of start-up, and only the
    # first window or seed needs it; the low-report cutoff is computed without numpy.ma;
    # the process-pool stack costs about 17 ms and 2 MB, and a command at the default
    # --threads 1 never starts a pool
    deferred = {"numpy.random", "numpy.ma", "concurrent.futures", "multiprocessing", "signal"}
    probe = f"import sys, gridwatch.cli; print(sorted({deferred!r} & set(sys.modules)))"
    assert fresh_process(probe, python_env()) == "[]\n"


def blas_probe(module: str) -> str:
    """A probe that prints the variable after ``import <module>``, and the threads of the
    process (- where /proc/self/task does not exist)."""
    return (
        f"import os, {module}; tasks = '/proc/self/task'; "
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir(tasks)) if os.path.isdir(tasks) else '-')"
    )


@pytest.mark.parametrize("caller, pinned", [(None, "1"), ("3", "3")], ids=["unset", "set-by-caller"])
def test_importing_gridwatch_runs_openblas_on_one_thread_unless_the_caller_says(caller, pinned):
    # a fresh process: numpy's OpenBLAS would start one thread per CPU when it loads,
    # which spins a core for about 0.13 s, and would split a long dot product across
    # them, so results would depend on the CPU count.  The test process's variable is
    # already set by its own import of gridwatch, so the child's is removed or replaced.
    env = python_env({k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"})
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    value, threads = fresh_process(blas_probe("gridwatch.cli"), env).split()
    assert value == pinned
    if caller is None and threads != "-":
        assert threads == "1"


def test_the_test_process_runs_openblas_on_one_thread():
    # a fresh process that loads this suite's conftest as pytest does, the variable removed:
    # conftest imports gridwatch before numpy, so the pin holds in the test process too
    env = python_env({k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"})
    env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).parent), env["PYTHONPATH"]])
    _, threads = fresh_process(blas_probe("conftest"), env).split()
    if threads == "-":
        pytest.skip("no /proc/self/task to count threads in")
    assert threads == "1"


def test_config_reads_and_csvio_writes():
    # config only reads configs; every output file, the manifest included, is csvio's
    writing = {"contextlib", "json", "os", "platform", "numpy", "__version__", "GridwatchError"}
    assert not [name for name in imported_names("config") if set(name.split(".")) & writing]
    assert not [name for name in imported_names("csvio") if "config" in name.split(".")]


def opens_or_replaces(tree: ast.AST) -> bool:
    """Whether ``tree`` calls ``open``, ``os.replace``, ``.write_text`` or ``.write_bytes``."""
    calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return any(
        isinstance(f, ast.Name) and f.id == "open"
        or isinstance(f, ast.Attribute) and f.attr in ("write_text", "write_bytes")
        or isinstance(f, ast.Attribute) and f.attr == "replace" and getattr(f.value, "id", None) == "os"
        for f in calls
    )


def test_only_csvio_opens_or_replaces_a_file():
    writers = {
        path.stem for path in PACKAGE.glob("*.py")
        if opens_or_replaces(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert writers == {"csvio"}
