"""The suite's own pytest settings (``pyproject.toml``): a failing property test
reports its falsifying example, and the tests after it still run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after():
    pass
"""


def test_a_failing_property_test_reports_its_example(tmp_path):
    # hypothesis imports libcst to report the example; a warning on that import,
    # turned into an error by the settings, would end the session there
    (tmp_path / "test_probe.py").write_text(PROBE)
    argv = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "test_probe.py"]
    result = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = result.stdout + result.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out
