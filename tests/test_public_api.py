"""The package's public names, pinned: adding or removing one is a deliberate
edit of this list, not a side effect of a refactor; and the module layering."""

import ast
import subprocess
import sys
from pathlib import Path

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


def test_the_cli_defers_numpy_random_and_numpy_ma():
    # a fresh process: importing numpy.random costs about 10 ms of start-up, and only the
    # first window or seed needs it; the low-report cutoff is computed without numpy.ma
    probe = "import sys, gridwatch.cli; print(sorted({'numpy.random', 'numpy.ma'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", probe], env=python_env(), capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout == "[]\n"


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
