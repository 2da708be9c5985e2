import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liecolour import field, fpfield
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


def _dense_num(f, rng):
    return f.num([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(f.degree)])


@pytest.mark.parametrize("m", [5, 9, 15, 16, 60, 105])
def test_inverse_of_dense_elements(m):
    # 105 is the first m whose cyclotomic polynomial has a coefficient -2
    rng = random.Random(3000 + m)
    f = field(m)
    for _ in range(5):
        a = _dense_num(f, rng)
        assert a.inverse() * a == 1


def test_inverse_skips_a_prime_that_divides_the_denominator_or_the_norm():
    f = field(4)
    p = fpfield.prime_for(4)
    a, b = next((a, b) for a in range(1, 1025) for b in range(1, 1025) if a * a + b * b == p)
    on_a_root = f.num([a, b])  # its norm a^2 + b^2 is p: zero at a root mod p
    over_p = f.num([Fraction(1, p), Fraction(2, p)])
    for x in (on_a_root, over_p, on_a_root * over_p):
        assert x.inverse() * x == 1
    assert on_a_root.inverse() == f.num([Fraction(a, p), Fraction(-b, p)])


@pytest.mark.parametrize("m", [4, 5, 12, 60])
def test_a_wrong_residue_raises_past_the_height_bound(monkeypatch, m):
    # a residue that is wrong at the first prime is carried by CRT into
    # every later one, so no candidate passes; the search must stop with
    # ArithmeticError once the primes cover the height bound, not run on
    f = field(m)
    x = _dense_num(f, random.Random(4000 + m))
    height = fpfield._inverse_height(x)
    y = x.inverse()
    assert all(abs(q.numerator) <= height and q.denominator <= height
               for q in (Fraction(c, y.den) for c in y.nums))
    bound = 2 * height**2
    first = fpfield.prime_for(m)
    real = fpfield._inverse_mod
    primes = []

    def corrupted(f, nums, den, p):
        primes.append(p)
        assert len(primes) < 1000, "the inverse did not stop"
        coords = real(f, nums, den, p)
        return (coords + 1) % p if p == first else coords

    monkeypatch.setattr(fpfield, "_inverse_mod", corrupted)
    with pytest.raises(ArithmeticError):
        x.inverse()
    # it stops at the first prime whose product with the earlier ones passes
    # the bound (none of these primes divides the norm or the denominator)
    product = 1
    for k, p in enumerate(primes):
        product *= p
        assert (product > bound) == (k == len(primes) - 1)


def test_an_inverse_at_m_512_takes_under_half_a_second():
    f = field(512)
    a = _dense_num(f, random.Random(512))
    start = time.perf_counter()
    inv = a.inverse()
    assert time.perf_counter() - start < 0.5
    assert inv * a == 1


def test_rational_vector_brings_a_vector_over_one_denominator():
    modulus = fpfield.prime_for(4) * fpfield.prime_for(4, 1)
    want = [Fraction(1, 3), Fraction(-2, 5), Fraction(7, 15), Fraction(0), Fraction(4, 9)]
    residues = [q.numerator * pow(q.denominator, -1, modulus) % modulus for q in want]
    nums, den = fpfield._rational_vector(residues, modulus)
    assert [Fraction(a, den) for a in nums] == want and den == 45


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


# -- the integer normal form: numerators over one denominator ---------------

PROPERTY_MS = [1, 2, 3, 4, 5, 8, 12]
COEFF = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.fractions(min_value=-30, max_value=30, max_denominator=24),
)


def _draw_coeffs(data, f, label):
    # rationals (every coordinate but the first zero) hit the fast paths
    rational = data.draw(st.booleans(), label=f"{label} rational")
    size = 1 if rational else f.degree
    head = data.draw(st.lists(COEFF, min_size=size, max_size=size), label=label)
    return head + [Fraction(0)] * (f.degree - size)


def _oracle_mul(f, a, b):
    """Fraction convolution of two coordinate vectors, reduced mod Phi_m."""
    deg = f.degree
    conv = [Fraction(0)] * (2 * deg - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    for k in range(2 * deg - 2, deg - 1, -1):
        c, conv[k] = conv[k], Fraction(0)
        for i in range(deg):
            conv[k - deg + i] -= c * f.poly[i]
    return tuple(conv[:deg])


def _assert_normal(x):
    deg = x.field.degree
    assert len(x.nums) == deg and all(type(n) is int for n in x.nums)
    assert type(x.den) is int and x.den > 0
    assert math.gcd(*x.nums, x.den) == 1
    if not any(x.nums):
        assert (x.nums, x.den) == ((0,) * deg, 1)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.sampled_from(PROPERTY_MS), st.data())
def test_every_operation_keeps_the_normal_form(m, data):
    f = field(m)
    a = f.num(_draw_coeffs(data, f, "a"))
    b = f.num(_draw_coeffs(data, f, "b"))
    results = [a, b, a + b, a - b, b - a, -a, a * b, a * 2, Fraction(1, 3) * a,
               a + 1, 1 - a, a * 0, a ** 3, f.zeta(data.draw(st.integers(0, m - 1))) * a]
    if not a.is_zero():
        results += [a.inverse(), b / a, 5 / a]
    for x in results:
        _assert_normal(x)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.sampled_from(PROPERTY_MS), st.data())
def test_equality_is_coefficient_equality_and_hash_follows(m, data):
    f = field(m)
    a = f.num(_draw_coeffs(data, f, "a"))
    c = f.num(_draw_coeffs(data, f, "c"))
    candidates = [f.num(_draw_coeffs(data, f, "b")), (a + c) - c, a * f.one, -(-a)]
    for b in candidates:
        assert (a == b) == (a.coeffs == b.coeffs)
        if a == b:
            assert hash(a) == hash(b)
    r = a.coeffs[0]
    zeros = (Fraction(0),) * (f.degree - 1)
    for q in (r, Fraction(r.numerator, r.denominator + 1), data.draw(COEFF, label="q")):
        assert (a == q) == (a.coeffs == (q,) + zeros)
        if q.denominator == 1:
            assert (a == int(q)) == (a == q)
        # a == b implies hash(a) == hash(b) against int and Fraction too
        plain = (q, int(q)) if q.denominator == 1 else (q,)
        for x in (a, f.from_rational(q)):
            for y in plain:
                if x == y:
                    assert hash(x) == hash(y)
        assert f.from_rational(q) == q and {q: "q"}.get(f.from_rational(q)) == "q"


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.sampled_from(PROPERTY_MS), st.data())
def test_arithmetic_agrees_with_a_fraction_oracle(m, data):
    f = field(m)
    ca, cb = _draw_coeffs(data, f, "a"), _draw_coeffs(data, f, "b")
    a, b = f.num(ca), f.num(cb)
    assert (a + b) - b == a
    assert (a * b).coeffs == _oracle_mul(f, ca, cb)
    assert (a + b).coeffs == tuple(x + y for x, y in zip(ca, cb))
    if not a.is_zero():
        assert a * a.inverse() == 1
        assert (a.inverse() * b) * a == b


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.sampled_from(PROPERTY_MS), st.data())
def test_json_form_is_the_fraction_strings(m, data):
    f = field(m)
    coeffs = _draw_coeffs(data, f, "a")
    x = f.num(coeffs)
    assert x.to_json() == {"m": m, "coeffs": [str(c) for c in coeffs]}
    assert x.coeffs == tuple(coeffs)
    back = num_from_json(x.to_json())
    assert (back.nums, back.den) == (x.nums, x.den)
