import random
from fractions import Fraction

import pytest

from liecolour import field, modp


def _fp_by_coefficient(x, p, omega):
    """The F_p image computed one Fraction coordinate at a time."""
    acc, w = 0, 1
    for c in x.coeffs:
        if c:
            acc = (acc + c.numerator % p * pow(c.denominator % p, -1, p) * w) % p
        w = w * omega % p
    return acc


@pytest.mark.parametrize("m", [3, 4, 12])
def test_scalar_to_fp_matches_the_per_coefficient_formula(m):
    f = field(m)
    p, omega = modp.fp_for_field(f)
    rng = random.Random(3000 + m)

    def rand():
        big = rng.random() < 0.3
        return f.num([
            Fraction(rng.randint(-10**9, 10**9) if big else rng.randint(-40, 40),
                     rng.randint(1, 10**7) if big else rng.randint(1, 30))
            for _ in range(f.degree)
        ])

    for _ in range(200):
        a, b = rand(), rand()
        image = modp.scalar_to_fp(a, p, omega)
        assert image == _fp_by_coefficient(a, p, omega)
        # zeta -> omega is a ring map
        assert modp.scalar_to_fp(a * b, p, omega) == image * modp.scalar_to_fp(b, p, omega) % p
        assert modp.scalar_to_fp(a + b, p, omega) == (image + modp.scalar_to_fp(b, p, omega)) % p


@pytest.mark.parametrize("m", [3, 4, 12])
def test_scalar_to_fp_refuses_a_denominator_divisible_by_p(m):
    f = field(m)
    p, omega = modp.fp_for_field(f)
    for x in (f.from_rational(Fraction(3, p)),
              f.num([Fraction(1, 2)] + [Fraction(1, 2 * p)] * (f.degree - 1))):
        with pytest.raises(ValueError):
            modp.scalar_to_fp(x, p, omega)
