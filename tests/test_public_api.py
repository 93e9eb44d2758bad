"""The package's public names, pinned: adding or removing one is a deliberate
edit of this list, not a side effect of a refactor."""

import gridwatch

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
    "estimate_detection_probability",
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
