import os
from pathlib import Path

import gridwatch  # before numpy: its OpenBLAS thread pin holds only if set before numpy loads
import numpy as np
import pytest
from gridwatch.config import loads_config


def make_config(attackers="25 = multiplicative 0.1", extra=""):
    """Standard 100-consumer benchmark region, 1 month of 15-minute periods."""
    return loads_config(f"[attackers]\n{attackers}\n{extra}")


def tiny_config(attackers="1 = multiplicative 0.1", consumers=5, periods_per_day=4, extra=""):
    """Small fast region for structural tests."""
    return loads_config(
        f"[region]\nconsumers = {consumers}\nperiods_per_day = {periods_per_day}\n"
        f"[attackers]\n{attackers}\n{extra}"
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def python_env(environ=os.environ) -> dict[str, str]:
    """``environ`` with this checkout's ``src`` first on ``PYTHONPATH``, for a subprocess."""
    env = dict(environ)
    src = str(Path(gridwatch.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
