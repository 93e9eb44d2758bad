"""Closed-form population values that seeded runs are checked against.

Every consumer's usage is i.i.d. uniform with one variance, so with
multiplicative attackers (attacker ``i`` reports ``alpha_i * u_i``) the
leakage is ``L = sum_i (1 - alpha_i) * u_i``: benign consumers add nothing
to it.  Attacker ``k``'s report then has the population correlation

    rho_k = (1 - alpha_k) / sqrt(sum_i (1 - alpha_i)**2)

with the leakage: the usage variance cancels, and a positive ``alpha_k``
keeps the sign.
"""

import math


def multiplicative_correlations(alphas):
    """``rho_k`` for each attacker's ``alpha_k``, in the order given."""
    norm = math.sqrt(sum((1.0 - a) ** 2 for a in alphas))
    return [(1.0 - a) / norm for a in alphas]
