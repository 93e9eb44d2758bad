"""Seeded smart-grid metering simulator with correlation-based misreporting
detection, privacy-preserving aggregation, and aggregator-side billing."""

__version__ = "0.1.0"

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
