"""Seeded smart-grid metering simulator with correlation-based misreporting
detection, privacy-preserving aggregation, and aggregator-side billing."""

__version__ = "0.1.0"

import os

# Before numpy loads: its OpenBLAS starts one thread per CPU at load, which busy-waits
# before it sleeps (about 0.13 s of CPU on a 2-vCPU VM), and splits a dot product of
# more than 10,000 entries across its threads, so a correlation's last bits would
# depend on the CPU count.  A value the caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .billing import accrue, issue_bills
from .config import ScenarioConfig
from .detection import (
    DetectionReport,
    Label,
    detect_region,
    low_report_filter,
    most_negative,
    pearson,
)
from .errors import ConfigurationError, GridwatchError, InputError
from .harness import (
    ProbabilityEstimate,
    TrialOutcome,
    concentration_experiment,
    derive_trial_seed,
    probability_table,
    run_trial,
)
from .model import (
    BehaviorModel,
    FixedOffset,
    Multiplicative,
    RandomOffset,
    apply_behavior,
)

__all__ = [
    "__version__",
    "accrue",
    "issue_bills",
    "DetectionReport",
    "Label",
    "detect_region",
    "low_report_filter",
    "most_negative",
    "pearson",
    "ConfigurationError",
    "GridwatchError",
    "InputError",
    "ProbabilityEstimate",
    "ScenarioConfig",
    "TrialOutcome",
    "concentration_experiment",
    "derive_trial_seed",
    "probability_table",
    "run_trial",
    "BehaviorModel",
    "FixedOffset",
    "Multiplicative",
    "RandomOffset",
    "apply_behavior",
]
