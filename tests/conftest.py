import math
import random

import pytest

from liecolour import AbelianGroup, CommutationFactor, Character, field, h_perp, linalg


def random_commutation_factor(group, f, rng):
    """Uniformly sample a valid bimultiplicative commutation factor.

    Off-diagonal generator values are arbitrary roots of unity compatible
    with both cyclic orders (mirrored so eps(a,b) eps(b,a) = 1); diagonal
    values are +-1, with -1 only allowed on even-order factors.
    """
    m = f.m
    k = group.rank
    exps = [[0] * k for _ in range(k)]
    for i in range(k):
        ni = group.orders[i]
        if ni % 2 == 0:
            exps[i][i] = rng.choice([0, m // 2])
        for j in range(i + 1, k):
            step = m // math.gcd(group.orders[i], group.orders[j])
            e = step * rng.randrange(m // step)
            exps[i][j] = e
            exps[j][i] = (-e) % m
    return CommutationFactor(group, f, exps)


FACTOR_BATTERY_ORDERS = [[2], [4], [2, 2], [3, 3], [2, 4]]


def battery_groups():
    return [AbelianGroup(o) for o in FACTOR_BATTERY_ORDERS]


def field_for(group):
    return field(math.lcm(group.exponent, 4))


@pytest.fixture(scope="session")
def rng():
    return random.Random(20240817)


def augmented_closure_rank(module):
    """The unblocked Burnside closure, a reference for the sector-block ones:
    the dimension of the unital algebra that the action matrices and the
    diagonal grading operators T_chi, chi in H-perp, generate, computed by
    closing the identity under right multiplication as d^2-long words."""
    f, d = module.field, module.dim
    group = module.algebra.group
    mats = list(module.action)
    for exps in h_perp(group, module.hsub).elements:
        if any(exps):
            chi = Character(group, exps)
            mats.append([{i: chi.eval(deg, f)} for i, deg in enumerate(module.degrees)])

    def products(w):
        wm = linalg.zeros(d)
        for t, x in w.items():
            wm[t // d][t % d] = x
        for g in mats:
            yield {i * d + j: x for i, row in enumerate(linalg.mat_mul(wm, g)) for j, x in row.items()}

    eye = {i * d + i: f.one for i in range(d)}
    return linalg.RowBasis(f, d * d).close([eye], products).rank
