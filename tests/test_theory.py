"""Seeded correlations against the closed forms in `theory.py`.

Criterion 7's region (x0.1 under-reporters at 25 and 75, a x10
over-reporter at 50) fails by design: each under-reporter's population
correlation is far below the threshold.  These tests pin that number,
so the failure is shown to be the statistic's and not the code's.
Benign consumers' correlations are checked against their exact
permutation moments in every attack case, and the offset attackers of
cases II and III against their population correlations.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_config
from gridwatch.harness import case_config, derive_trial_seed, run_trial
from theory import (
    benign_moments, fixed_offset_moments, multiplicative_correlations, random_offset_correlation,
)

ATTACKERS = {25: 0.1, 50: 10.0, 75: 0.1}
SEEDS = [derive_trial_seed(42, i) for i in range(20)]  # fixed before the first run
BENIGN_SEEDS = [derive_trial_seed(2024, i) for i in range(20)]  # fixed before the first run


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
    assert (means[under] < config.threshold).all()


@pytest.mark.parametrize("case", ["I", "II", "III"])
def test_benign_correlations_have_their_permutation_moments(case):
    # z = r * sqrt(m - 1), pooled over the 99 benign consumers of every seed,
    # has mean 0 and mean square 1
    config = dataclasses.replace(case_config(make_config(attackers=""), case, 25), months=12)
    benign = np.arange(100) != 25
    z = []
    for seed in BENIGN_SEEDS:
        outcome = run_trial(config, seed)
        mean, mean_square = benign_moments(outcome.counts[benign])
        z.append((outcome.corr[benign] - mean) / np.sqrt(mean_square))
    z = np.concatenate(z)
    for values, expected in ((z, 0.0), (z**2, 1.0)):
        stderr = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(values.mean() - expected) <= 4 * stderr, (case, values.mean(), stderr)


def test_closed_forms_of_the_offset_attacks():
    # case_config's offsets on U(0.5, 1.5): eta = theta_max = 1, the range's midpoint
    cov, var_r, var_d = fixed_offset_moments(Fraction(1, 2), Fraction(3, 2), 1)
    assert (cov, var_r, var_d) == (Fraction(1, 64), Fraction(5, 192), Fraction(5, 192))
    assert cov / var_r == Fraction(3, 5)
    assert random_offset_correlation(0.5, 1.5, 1.0) == pytest.approx(-0.641544, abs=2e-6)
    assert random_offset_correlation(0.5, 1.5, 1.0, grid=2000) == pytest.approx(-0.641544, abs=2e-6)


@pytest.mark.parametrize("case", ["II", "III"])
def test_offset_attackers_match_their_population_correlations(case):
    # the 12-month attacker r over the criterion-7 seeds, within 4 standard errors
    config = dataclasses.replace(case_config(make_config(attackers=""), case, 25), months=12)
    ((_, behavior),) = config.attackers
    if case == "II":
        cov, var_r, var_d = fixed_offset_moments(config.usage_min, config.usage_max, behavior.eta)
        expected = float(cov) / math.sqrt(var_r * var_d)
    else:
        expected = random_offset_correlation(config.usage_min, config.usage_max, behavior.theta_max)
    corrs = np.array([run_trial(config, seed).corr[25] for seed in SEEDS])
    stderr = corrs.std(ddof=1) / math.sqrt(len(SEEDS))
    assert abs(corrs.mean() - expected) <= 4 * stderr, (case, corrs.mean(), stderr, expected)
