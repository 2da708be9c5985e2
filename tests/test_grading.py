import random
import time

import pytest

from liecolour import (
    AbelianGroup,
    CommutationFactor,
    Multiplier,
    eps_eval,
    field,
    make_commutation_factor,
    multiplier_inverse,
    parity_split,
    scheunert_multiplier,
    trivial_multiplier,
    twisted_factor,
)
from liecolour.errors import InvalidCommutationFactor
from liecolour.grading import _Bimultiplicative
from liecolour.workbench import GROUP, discolouring_sigma, sl2c_factor

from conftest import battery_groups, field_for, random_commutation_factor

F4 = field(4)


def super_sign_z2():
    return CommutationFactor(AbelianGroup([2]), F4, [[2]])


def test_sl2c_factor_is_valid_and_matches_formula():
    eps = sl2c_factor()
    for a in GROUP.elements():
        for b in GROUP.elements():
            sign = (-1) ** ((a[0] * b[1] - a[1] * b[0]) % 2)
            assert eps.eval(a, b) == sign
    assert eps.eval((1, 0), (0, 1)) == -1


def test_super_sign_factor():
    eps = super_sign_z2()
    assert eps.eval((1,), (1,)) == -1
    assert eps.eval((0,), (1,)) == 1


def test_invalid_diagonal_rejected():
    # eps(g1, g1) = zeta_4 is not +-1 (and breaks the order condition)
    with pytest.raises(InvalidCommutationFactor):
        make_commutation_factor(GROUP, F4, [[1, 0], [0, 0]])


def test_antisymmetry_violation_rejected():
    # eps(g1, g2) = -1 but eps(g2, g1) = +1
    with pytest.raises(InvalidCommutationFactor):
        make_commutation_factor(GROUP, F4, [[0, 2], [0, 0]])


def test_eps_eval_examples():
    eps = sl2c_factor()
    assert eps_eval(eps, (1, 0), (1, 0)) == 1
    for b in GROUP.elements():
        assert eps_eval(eps, (0, 0), b) == 1
    assert eps_eval(super_sign_z2(), (1,), (1,)) == -1


def test_eps_bimultiplicative_exhaustive():
    for g in battery_groups():
        if g.order() > 8:
            continue
        f = field_for(g)
        rng = random.Random(g.order())
        eps = random_commutation_factor(g, f, rng)
        for a in g.elements():
            for a2 in g.elements():
                for b in g.elements():
                    assert eps.eval(g.add(a, a2), b) == eps.eval(a, b) * eps.eval(a2, b)
                    assert eps.eval(b, g.add(a, a2)) == eps.eval(b, a) * eps.eval(b, a2)


def test_parity_split_examples():
    split = parity_split(sl2c_factor())
    assert split.gamma0 == tuple(sorted(GROUP.elements())) and split.gamma1 == ()
    split2 = parity_split(super_sign_z2())
    assert split2.gamma0 == ((0,),) and split2.gamma1 == ((1,),)
    colour_super = CommutationFactor(GROUP, F4, [[2, 0], [0, 2]])
    split3 = parity_split(colour_super)
    assert split3.gamma0 == ((0, 0), (1, 1))
    assert split3.gamma1 == ((0, 1), (1, 0))


def test_parity_split_even_part_is_subgroup():
    for g in battery_groups():
        f = field_for(g)
        rng = random.Random(77 + g.order())
        for _ in range(5):
            eps = random_commutation_factor(g, f, rng)
            split = parity_split(eps)
            g0 = set(split.gamma0)
            for a in g0:
                for b in g0:
                    assert g.add(a, b) in g0


def test_scheunert_multiplier_examples():
    sigma = scheunert_multiplier(sl2c_factor())
    for a in GROUP.elements():
        for b in GROUP.elements():
            assert sigma.eval(a, b) == (-1) ** (a[0] * b[1])
    assert scheunert_multiplier(super_sign_z2()).exponents == ((0,),)
    trivial_eps = CommutationFactor(GROUP, F4, [[0, 0], [0, 0]])
    assert scheunert_multiplier(trivial_eps).exponents == ((0, 0), (0, 0))


def test_scheunert_identity_on_battery(rng):
    groups = battery_groups() + [
        AbelianGroup([4, 4]),  # 16 elements
        AbelianGroup([2, 2, 2]),  # three generators
        AbelianGroup([2, 3]),
    ]
    for g in groups:
        f = field(__import__("math").lcm(g.exponent, 4))
        for _ in range(4):
            eps = random_commutation_factor(g, f, rng)
            sigma = scheunert_multiplier(eps)
            split = parity_split(eps)
            for a in g.elements():
                for b in g.elements():
                    lhs = sigma.eval(a, b) * sigma.eval(b, a).inverse() * eps.eval(a, b)
                    want = f.one if not (split.parity(a) and split.parity(b)) else -f.one
                    assert lhs == want


def test_twisted_factor_discolouring_sigma_kills_sl2c_factor():
    eps = twisted_factor(sl2c_factor(), discolouring_sigma())
    for a in GROUP.elements():
        for b in GROUP.elements():
            assert eps.eval(a, b) == 1


def test_twisted_factor_identity_and_roundtrip():
    eps = sl2c_factor()
    one = trivial_multiplier(GROUP, F4)
    assert twisted_factor(eps, one) == eps
    sigma = discolouring_sigma()
    assert twisted_factor(twisted_factor(eps, sigma), multiplier_inverse(sigma)) == eps


def test_twisted_factor_composes(rng):
    for g in battery_groups():
        f = field_for(g)
        eps = random_commutation_factor(g, f, rng)
        s1 = scheunert_multiplier(eps)
        s2 = multiplier_inverse(s1)
        lhs = twisted_factor(eps, s1 * s2)
        rhs = twisted_factor(twisted_factor(eps, s1), s2)
        for a in g.elements():
            for b in g.elements():
                assert lhs.eval(a, b) == rhs.eval(a, b)


def test_multiplier_inverse_examples():
    sigma = discolouring_sigma()
    assert multiplier_inverse(sigma).exponents == sigma.exponents  # values are +-1
    one = trivial_multiplier(GROUP, F4)
    assert multiplier_inverse(one).exponents == one.exponents
    z3 = AbelianGroup([3])
    f12 = field(12)
    s = Multiplier(z3, f12, [[4]])  # sigma(1,1) = zeta_3
    sinv = multiplier_inverse(s)
    assert sinv.exponents == ((8,),)
    for a in z3.elements():
        for b in z3.elements():
            assert s.eval(a, b) * sinv.eval(a, b) == 1


def test_a_large_factor_is_validated_on_generator_pairs(monkeypatch):
    """A factor on Z16 x Z16 (256 elements, the JSON reader's cap) is checked
    without evaluating eps on all 65,536 pairs of elements: on none at all."""
    calls = []
    real = _Bimultiplicative.eval

    def counted(self, a, b):
        calls.append((a, b))
        return real(self, a, b)

    monkeypatch.setattr(_Bimultiplicative, "eval", counted)
    group = AbelianGroup([16, 16])
    f = field(16)
    start = time.perf_counter()
    eps = CommutationFactor(group, f, [[8, 3], [13, 8]])
    assert time.perf_counter() - start < 0.1
    assert calls == []
    assert eps.eval((1, 0), (1, 0)) == -f.one and eps.eval((1, 0), (0, 1)) == f.zeta(3)


def _all_pairs_verdict(group, f, exps):
    """The first failure, as (message, pair), of the check over every pair
    of group elements that generator pairs now decide, or None."""
    eps = CommutationFactor.__new__(CommutationFactor)
    _Bimultiplicative.__init__(eps, group, f, exps)
    try:
        eps._check_orders(InvalidCommutationFactor)
    except InvalidCommutationFactor as exc:
        return str(exc), exc.pair
    one = f.one
    for a in group.elements():
        v = eps.eval(a, a)
        if v != one and v != -one:
            return f"eps({a},{a}) = {v!r} is not +-1", (a, a)
        for b in group.elements():
            if eps.eval(a, b) * eps.eval(b, a) != one:
                return f"eps({a},{b}) * eps({b},{a}) != 1", (a, b)
    return None


def test_generator_pairs_decide_as_all_pairs_do():
    rng = random.Random(1613)
    groups = battery_groups() + [AbelianGroup(o) for o in ([4, 4], [2, 2, 2], [3, 6])]
    verdicts = []
    for trial in range(150):
        group = rng.choice(groups)
        f = field_for(group)
        k = group.rank
        exps = random_commutation_factor(group, f, rng).exponents
        exps = [list(row) for row in exps]
        kind = trial % 3
        if kind == 1:  # one entry moved: usually invalid
            i, j = rng.randrange(k), rng.randrange(k)
            exps[i][j] = (exps[i][j] + rng.choice([f.m // 2, f.m // 4 or 1, 1])) % f.m
        elif kind == 2:  # any table
            exps = [[rng.randrange(f.m) for _ in range(k)] for _ in range(k)]
        want = _all_pairs_verdict(group, f, exps)
        try:
            CommutationFactor(group, f, exps)
            got = None
        except InvalidCommutationFactor as exc:
            got = str(exc), exc.pair
        assert got == want, (group.orders, exps)
        verdicts.append(want is None)
    # both outcomes are exercised
    assert 20 < sum(verdicts) < 130
