"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Every scalar in this package is a CycloNum: a tuple of integer numerators
in the power basis {zeta^i : 0 <= i < phi(m)} over one positive integer
denominator, reduced modulo the m-th cyclotomic polynomial and kept in
lowest terms (the numerators and the denominator have gcd 1, and zero is
0/1).  This normal form is unique, so equality is a plain tuple comparison
and all verdicts downstream (irreducibility, isomorphism, classification)
are exact.  `coeffs` reads the same element as a tuple of Fractions.

Fields are interned: field(m) always returns the same object, and numbers
from different fields refuse to mix.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, sub

from .errors import InvalidInput


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient lists, lowest degree first)
# ---------------------------------------------------------------------------

def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_div_exact(num, den):
    """Exact division of integer polynomials; raises if it does not divide."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        shift = len(num) - len(den)
        lead, dlead = num[-1], den[-1]
        if lead % dlead:
            raise ArithmeticError("inexact polynomial division")
        coef = lead // dlead
        q[shift] = coef
        for i, d in enumerate(den):
            num[shift + i] -= coef * d
        _poly_trim(num)
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return q


@lru_cache(maxsize=None)
def _cyclotomic_poly(m):
    """Coefficients of the m-th cyclotomic polynomial (monic, over Z)."""
    # x^m - 1 = prod over d | m of Phi_d; divide out the proper divisors.
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            num = _poly_div_exact(num, _cyclotomic_poly(d))
    return tuple(num)


class CycloField:
    """The field Q(zeta_m) with zeta_m a primitive m-th root of unity."""

    __slots__ = ("m", "degree", "poly", "_reduction", "_zeta_pow", "zero", "one")

    def __init__(self, m):
        if m < 1:
            raise InvalidInput("root-of-unity order must be >= 1")
        self.m = m
        self.poly = _cyclotomic_poly(m)
        self.degree = len(self.poly) - 1
        # x^k for k in [degree, 2*degree - 2], reduced to the power basis;
        # integer rows, since Phi_m is monic
        deg = self.degree
        top = tuple(-c for c in self.poly[:deg])
        rows = [top]
        for _ in range(deg - 2):
            prev = rows[-1]
            row = (0,) + prev[: deg - 1]
            lead = prev[deg - 1]
            if lead:
                row = tuple(r + lead * t for r, t in zip(row, top))
            rows.append(row)
        self._reduction = tuple(rows)
        self.zero = CycloNum(self, (0,) * deg, 1)
        self.one = CycloNum(self, (1,) + (0,) * (deg - 1), 1)
        self._zeta_pow = None

    def num(self, coeffs):
        return self.from_ratios([(c.numerator, c.denominator) for c in map(Fraction, coeffs)])

    def from_ratios(self, pairs):
        """The element with power-basis coordinates p/q, for integer pairs
        (p, q) with q > 0."""
        if len(pairs) != self.degree:
            raise InvalidInput(
                f"expected {self.degree} coefficients, got {len(pairs)}"
            )
        den = math.lcm(*(q for _, q in pairs))
        return _reduced(self, tuple([p * (den // q) for p, q in pairs]), den)

    def from_rational(self, r):
        pad = (0,) * (self.degree - 1)
        if type(r) is int:
            return CycloNum(self, (r,) + pad, 1)
        r = Fraction(r)
        return CycloNum(self, (r.numerator,) + pad, r.denominator)

    def zeta(self, k=1):
        """zeta_m^k as a reduced field element."""
        if self._zeta_pow is None:
            # power basis elements first, then shift-reduce up to m
            pows = []
            cur = self.one
            if self.degree == 1:
                # Q(zeta_1) = Q(zeta_2) = Q: zeta is +-1
                gen = self.from_rational(1 if self.m == 1 else -1)
            else:
                gen = CycloNum(self, (0, 1) + (0,) * (self.degree - 2), 1)
            for _ in range(self.m):
                pows.append(cur)
                cur = cur * gen
            self._zeta_pow = tuple(pows)
        return self._zeta_pow[k % self.m]

    def complex_embedding(self):
        """Numeric values of the power basis (zeta -> exp(2 pi i / m))."""
        z = complex(math.cos(2 * math.pi / self.m), math.sin(2 * math.pi / self.m))
        vals, cur = [], complex(1.0)
        for _ in range(self.degree):
            vals.append(cur)
            cur *= z
        return vals

    def __repr__(self):
        return f"CycloField(m={self.m})"

    def __eq__(self, other):
        return isinstance(other, CycloField) and self.m == other.m

    def __hash__(self):
        return hash(("CycloField", self.m))


@lru_cache(maxsize=None)
def field(m):
    """Interned field constructor; field(m) is a singleton per m."""
    return CycloField(m)


def _reduced(f, nums, den):
    """The CycloNum nums/den (den > 0) in lowest terms."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple([n // g for n in nums])
            den //= g
    return CycloNum(f, nums, den)


class CycloNum:
    """An element of Q(zeta_m): power-basis numerators `nums` over `den`."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, f, nums, den):
        self.field = f
        self.nums = nums
        self.den = den

    @property
    def coeffs(self):
        """The power-basis coordinates as Fractions."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not any(self.nums)

    def is_rational(self):
        return not any(self.nums[1:])

    def rational_value(self):
        if not self.is_rational():
            raise InvalidInput(f"{self!r} is not rational")
        return Fraction(self.nums[0], self.den)

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            if other.field is not self.field:
                raise InvalidInput("mixed cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def _combine(self, other, op):
        """self op other for op in (add, sub), over the common denominator."""
        if type(other) is not CycloNum or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return _reduced(self.field, tuple(map(op, self.nums, other.nums)), da)
        return _reduced(
            self.field,
            tuple([op(a * db, b * da) for a, b in zip(self.nums, other.nums)]),
            da * db,
        )

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return CycloNum(self.field, tuple([-n for n in self.nums]), self.den)

    def __mul__(self, other):
        f = self.field
        if type(other) is not CycloNum or other.field is not f:
            if isinstance(other, (int, Fraction)) and not other:
                return f.zero
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        na, nb = self.nums, other.nums
        den = self.den * other.den
        # rational fast path: most scalars in practice are plain rationals
        if not any(nb[1:]):
            b = nb[0]
            return _reduced(f, tuple([a * b for a in na]), den) if b else f.zero
        if not any(na[1:]):
            a = na[0]
            return _reduced(f, tuple([a * b for b in nb]), den) if a else f.zero
        deg = f.degree
        conv = [0] * (2 * deg - 1)
        for i, a in enumerate(na):
            if a:
                for j, b in enumerate(nb, i):
                    conv[j] += a * b
        out = conv[:deg]
        for c, row in zip(conv[deg:], f._reduction):
            if c:
                for i, r in enumerate(row):
                    if r:
                        out[i] += c * r
        return _reduced(f, tuple(out), den)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse: of a rational at once, of any other
        element mod primes p = 1 (mod m) and checked exactly (fpfield.inverse)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        nums, den = self.nums, self.den
        if self.is_rational():
            n = nums[0]
            if n < 0:
                n, den = -n, -den
            return CycloNum(self.field, (den,) + nums[1:], n)
        # imported here, not at the top: fpfield brings in numpy (see colouralg)
        from .fpfield import inverse

        return inverse(self)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        acc, base = self.field.one, self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CycloNum):
            return (
                self.field is other.field
                and self.nums == other.nums
                and self.den == other.den
            )
        if isinstance(other, int):
            num, den = other, 1
        elif isinstance(other, Fraction):
            num, den = other.numerator, other.denominator
        else:
            return NotImplemented
        return self.den == den and self.nums[0] == num and not any(self.nums[1:])

    def __hash__(self):
        if not any(self.nums[1:]):
            # equal to this Fraction (or int), so it must hash the same
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.field.m, self.nums, self.den))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = f"z{self.field.m}" if i == 1 else f"z{self.field.m}^{i}"
                parts.append(mono if c == 1 else f"({c})*{mono}")
        return " + ".join(parts)

    def complex_value(self):
        basis = self.field.complex_embedding()
        return sum(float(c) * b for c, b in zip(self.coeffs, basis))

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {"m": self.field.m, "coeffs": [str(c) for c in self.coeffs]}


def char_eval(character, gamma, f):
    """Value of a character at a group element, inside the field f.

    The character is given by exponents a over a group with cyclic orders
    n_i; the value is zeta_m^{sum a_i * gamma_i * (m / n_i)}, which requires
    every n_i (hence the group exponent) to divide m.
    """
    orders = character.group.orders
    for n in orders:
        if f.m % n:
            raise InvalidInput(
                f"field order {f.m} is not divisible by cyclic order {n}"
            )
    e = 0
    for a, g, n in zip(character.exponents, gamma, orders):
        e += a * g * (f.m // n)
    return f.zeta(e % f.m)
