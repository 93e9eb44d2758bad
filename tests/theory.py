"""Closed-form population values that seeded runs are checked against.

Every consumer's usage is i.i.d. uniform with one variance, so with
multiplicative attackers (attacker ``i`` reports ``alpha_i * u_i``) the
leakage is ``L = sum_i (1 - alpha_i) * u_i``: benign consumers add nothing
to it.  Attacker ``k``'s report then has the population correlation

    rho_k = (1 - alpha_k) / sqrt(sum_i (1 - alpha_i)**2)

with the leakage: the usage variance cancels, and a positive ``alpha_k``
keeps the sign.

A benign consumer's reports are independent of the leakage, and its ``m``
sampled (report, leakage) pairs are exchangeable, so its ``r`` has the
moments of its permutation distribution (E. J. G. Pitman, JRSS Suppl. 4,
1937): ``E[r] = 0`` and ``E[r**2] = 1 / (m - 1)`` exactly, whatever the
attack.

An offset attacker's report is ``R = max(u - theta, 0)``, and the leakage it
makes is ``D = u - R = min(u, theta)``.  A fixed offset ``theta = eta`` gives
piecewise-polynomial moments, exact in rationals; a random offset
``theta ~ U(0, theta_max)``, drawn independently of ``u``, is integrated by
the midpoint rule.
"""

import math
from fractions import Fraction

import numpy as np


def multiplicative_correlations(alphas):
    """``rho_k`` for each attacker's ``alpha_k``, in the order given."""
    norm = math.sqrt(sum((1.0 - a) ** 2 for a in alphas))
    return [(1.0 - a) / norm for a in alphas]


def benign_moments(m):
    """``(E[r], E[r**2])`` of a benign consumer with ``m`` sampled periods."""
    return 0.0, 1.0 / (m - 1)


def fixed_offset_moments(low, high, eta):
    """``(Cov(R, D), Var R, Var D)`` for ``u ~ U(low, high)`` and ``low <= eta <= high``,
    exact in `Fraction`: ``R = 0, D = u`` below ``eta`` and ``R = u - eta, D = eta`` above."""
    low, high, eta = (Fraction(v) for v in (low, high, eta))
    width, above = high - low, high - eta
    mean_r, mean_rr = above**2 / (2 * width), above**3 / (3 * width)
    mean_d = ((eta**2 - low**2) / 2 + eta * above) / width
    mean_dd = ((eta**3 - low**3) / 3 + eta**2 * above) / width
    return eta * mean_r - mean_r * mean_d, mean_rr - mean_r**2, mean_dd - mean_d**2


def random_offset_correlation(low, high, theta_max, grid=1000):
    """``rho(R, D)`` for ``u ~ U(low, high)`` and ``theta ~ U(0, theta_max)``: the midpoint
    rule on a ``grid x grid`` lattice of ``(u, theta)``, 250 rows of ``u`` at a time."""
    theta = (np.arange(grid) + 0.5) * (theta_max / grid)
    sums = np.zeros(5)
    for rows in np.array_split(np.arange(grid), max(1, grid // 250)):
        u = low + (rows[:, None] + 0.5) * ((high - low) / grid)
        d = np.minimum(u, theta)
        r = u - d
        sums += [r.sum(), d.sum(), (r * r).sum(), (d * d).sum(), (r * d).sum()]
    mean_r, mean_d, mean_rr, mean_dd, mean_rd = sums / grid**2
    return (mean_rd - mean_r * mean_d) / math.sqrt((mean_rr - mean_r**2) * (mean_dd - mean_d**2))
