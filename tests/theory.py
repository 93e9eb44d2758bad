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
"""

import math


def multiplicative_correlations(alphas):
    """``rho_k`` for each attacker's ``alpha_k``, in the order given."""
    norm = math.sqrt(sum((1.0 - a) ** 2 for a in alphas))
    return [(1.0 - a) / norm for a in alphas]


def benign_moments(m):
    """``(E[r], E[r**2])`` of a benign consumer with ``m`` sampled periods."""
    return 0.0, 1.0 / (m - 1)
