"""Seeded correlations against the closed forms in `theory.py`.

Criterion 7's region (x0.1 under-reporters at 25 and 75, a x10
over-reporter at 50) fails by design: each under-reporter's population
correlation is far below the threshold.  These tests pin that number,
so the failure is shown to be the statistic's and not the code's.
"""

import dataclasses
import math

import numpy as np
import pytest

from conftest import make_config
from gridwatch.harness import derive_trial_seed, run_trial
from theory import multiplicative_correlations

ATTACKERS = {25: 0.1, 50: 10.0, 75: 0.1}
SEEDS = [derive_trial_seed(42, i) for i in range(20)]  # fixed before the first run


def test_closed_form_of_criterion_7():
    # 0.9 / sqrt(0.81 + 81 + 0.81) and -9 / sqrt(82.62)
    assert multiplicative_correlations([0.1, 10.0, 0.1]) == pytest.approx([0.0990, -0.9901, 0.0990], abs=1e-4)
    assert multiplicative_correlations([0.5]) == [1.0]


def test_criterion_7_attackers_match_their_population_correlations():
    config = make_config("\n".join(f"{cid} = multiplicative {a}" for cid, a in ATTACKERS.items()))
    config = dataclasses.replace(config, months=12)
    corrs = np.array([run_trial(config, seed).corr[list(ATTACKERS)] for seed in SEEDS])
    means, stderrs = corrs.mean(axis=0), corrs.std(axis=0, ddof=1) / math.sqrt(len(SEEDS))
    expected = multiplicative_correlations(ATTACKERS.values())
    for cid, mean, stderr, rho in zip(ATTACKERS, means, stderrs, expected):
        assert abs(mean - rho) <= 4 * stderr, (cid, mean, stderr, rho)
    under = [i for i, a in enumerate(ATTACKERS.values()) if a < 1]
    assert (means[under] < config.th).all()
