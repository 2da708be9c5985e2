import random
from fractions import Fraction

import pytest

from liecolour import field
from liecolour.jsonio import num_from_json
from liecolour.errors import InvalidInput


def test_small_cyclotomic_polynomials():
    assert field(1).poly == (-1, 1)
    assert field(2).poly == (1, 1)
    assert field(3).poly == (1, 1, 1)
    assert field(4).poly == (1, 0, 1)
    assert field(6).poly == (1, -1, 1)
    assert field(12).poly == (1, 0, -1, 0, 1)


def test_field_degree_is_euler_phi():
    phis = {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 8: 4, 12: 4}
    for m, phi in phis.items():
        assert field(m).degree == phi


def test_field_rejects_zero_order():
    with pytest.raises(InvalidInput):
        field(0)


def test_zeta_values():
    f4 = field(4)
    assert f4.zeta(2) == -1
    assert f4.zeta(0) == 1
    i = f4.zeta(1)
    assert i.coeffs == (Fraction(0), Fraction(1))
    assert field(2).zeta(1) == -1


def test_basic_arithmetic():
    f4 = field(4)
    i = f4.zeta(1)
    assert (f4.one + i) * (f4.one - i) == 2
    f3 = field(3)
    assert f3.zeta(1) + f3.zeta(2) == -1
    a = f4.num([Fraction(3, 7), Fraction(-1, 2)])
    assert a + f4.zero == a
    assert a - a == 0


def test_inverse_examples():
    f4 = field(4)
    assert f4.from_rational(2).inverse() == Fraction(1, 2)
    i = f4.zeta(1)
    assert i.inverse() == -i
    x = f4.one + i
    inv = x.inverse()
    assert inv == (f4.one - i) * Fraction(1, 2)
    assert x * inv == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        field(4).zero.inverse()


def test_mixed_fields_rejected():
    with pytest.raises(InvalidInput):
        field(4).one + field(3).one


def _random_num(f, rng):
    return f.num(
        [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(f.degree)]
    )


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 12])
def test_field_axioms_on_random_triples(m):
    rng = random.Random(1000 + m)
    f = field(m)
    for _ in range(25):
        a, b, c = (_random_num(f, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


@pytest.mark.parametrize("m", list(range(1, 13)))
def test_zeta_has_multiplicative_order_m(m):
    f = field(m)
    z = f.zeta(1)
    acc = f.one
    for k in range(1, m):
        acc = acc * z
        assert acc != 1 or k == m  # no earlier return to 1
    assert acc * z == 1


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 12])
def test_inverse_roundtrip_random(m):
    rng = random.Random(2000 + m)
    f = field(m)
    done = 0
    while done < 100:
        a = _random_num(f, rng)
        if a.is_zero():
            continue
        assert a.inverse() * a == 1
        done += 1


def test_reduction_is_canonical():
    # two construction routes to the same number give identical coefficients
    for m in (3, 4, 6, 8, 12):
        f = field(m)
        for a in range(m):
            for b in range(m):
                assert (f.zeta(a) * f.zeta(b)).coeffs == f.zeta(a + b).coeffs
        x = f.one + f.zeta(1)
        assert (x * x).coeffs == (f.one + f.zeta(1) * 2 + f.zeta(1) ** 2).coeffs


def test_power_and_division():
    f = field(8)
    z = f.zeta(1)
    assert z**8 == 1
    assert z**-1 == z.inverse()
    assert (f.from_rational(3) / f.from_rational(6)) == Fraction(1, 2)


def test_serialization_roundtrip_bit_exact():
    f = field(12)
    x = f.num([Fraction(3, 7), Fraction(-5, 2), Fraction(0), Fraction(11, 13)])
    blob = x.to_json()
    assert blob["m"] == 12
    assert blob["coeffs"] == ["3/7", "-5/2", "0", "11/13"]
    y = num_from_json(blob)
    assert y.coeffs == x.coeffs and y.field is x.field


def test_char_eval_examples():
    from liecolour import AbelianGroup, Character

    g22 = AbelianGroup([2, 2])
    f4 = field(4)
    trivial = Character(g22, (0, 0))
    for gamma in g22.elements():
        assert trivial.eval(gamma, f4) == 1
    ch = Character(g22, (1, 1))
    assert ch.eval((1, 0), f4) == -1
    g3 = AbelianGroup([3])
    f12 = field(12)
    ch3 = Character(g3, (1,))
    assert ch3.eval((1,), f12) == f12.zeta(4)  # zeta_12^4 is a primitive cube root


def test_char_eval_requires_compatible_field():
    from liecolour import AbelianGroup, Character

    g3 = AbelianGroup([3])
    with pytest.raises(InvalidInput):
        Character(g3, (1,)).eval((1,), field(4))


def test_characters_are_multiplicative():
    from liecolour import AbelianGroup, Character

    g = AbelianGroup([2, 4])
    f = field(4)
    ch = Character(g, (1, 3))
    for a in g.elements():
        for b in g.elements():
            assert ch.eval(g.add(a, b), f) == ch.eval(a, f) * ch.eval(b, f)
