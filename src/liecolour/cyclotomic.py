"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Every scalar in this package is a CycloNum: a vector of rationals in the
power basis {zeta^i : 0 <= i < phi(m)}, reduced modulo the m-th cyclotomic
polynomial.  Reduction gives a unique normal form, so equality is a plain
coefficient comparison and all verdicts downstream (irreducibility,
isomorphism, classification) are exact.

Fields are interned: field(m) always returns the same object, and numbers
from different fields refuse to mix.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidInput

Rat = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
        # x^k for k in [degree, 2*degree - 2], reduced to the power basis
        deg = self.degree
        top = [Fraction(-c) for c in self.poly[:deg]]
        rows = [tuple(top)]
        for _ in range(deg - 2):
            prev = rows[-1]
            row = [_ZERO] + list(prev[: deg - 1])
            lead = prev[deg - 1]
            if lead:
                for i in range(deg):
                    row[i] += lead * top[i]
            rows.append(tuple(row))
        self._reduction = tuple(rows)
        self.zero = CycloNum(self, (_ZERO,) * deg)
        self.one = CycloNum(self, (_ONE,) + (_ZERO,) * (deg - 1))
        self._zeta_pow = None

    def num(self, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != self.degree:
            raise InvalidInput(
                f"expected {self.degree} coefficients, got {len(coeffs)}"
            )
        return CycloNum(self, coeffs)

    def from_rational(self, r):
        r = Fraction(r)
        return CycloNum(self, (r,) + (_ZERO,) * (self.degree - 1))

    def zeta(self, k=1):
        """zeta_m^k as a reduced field element."""
        if self._zeta_pow is None:
            # power basis elements first, then shift-reduce up to m
            pows = []
            cur = self.one
            gen_coeffs = [_ZERO] * self.degree
            if self.degree == 1:
                # Q(zeta_1) = Q(zeta_2) = Q: zeta is +-1
                gen = self.from_rational(1 if self.m == 1 else -1)
            else:
                gen_coeffs[1] = _ONE
                gen = CycloNum(self, tuple(gen_coeffs))
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


class CycloNum:
    """An element of Q(zeta_m) in reduced power-basis coordinates."""

    __slots__ = ("field", "coeffs")

    def __init__(self, f, coeffs):
        self.field = f
        self.coeffs = coeffs

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not any(self.coeffs)

    def is_rational(self):
        return not any(self.coeffs[1:])

    def rational_value(self):
        if not self.is_rational():
            raise InvalidInput(f"{self!r} is not rational")
        return self.coeffs[0]

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            if other.field is not self.field:
                raise InvalidInput("mixed cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloNum(
            self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloNum(
            self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return CycloNum(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self.field.zero
            r = Fraction(other)
            return CycloNum(self.field, tuple(a * r for a in self.coeffs))
        if not isinstance(other, CycloNum):
            return NotImplemented
        if other.field is not self.field:
            raise InvalidInput("mixed cyclotomic fields")
        f = self.field
        deg = f.degree
        ca, cb = self.coeffs, other.coeffs
        if deg == 1:
            return CycloNum(f, (ca[0] * cb[0],))
        # rational fast path: most scalars in practice are plain rationals
        if not any(ca[1:]):
            return CycloNum(f, tuple(ca[0] * b for b in cb)) if ca[0] else f.zero
        if not any(cb[1:]):
            return CycloNum(f, tuple(a * cb[0] for a in ca)) if cb[0] else f.zero
        conv = [_ZERO] * (2 * deg - 1)
        for i, a in enumerate(ca):
            if a:
                for j, b in enumerate(cb):
                    if b:
                        conv[i + j] += a * b
        out = conv[:deg]
        red = f._reduction
        for k in range(deg, 2 * deg - 1):
            c = conv[k]
            if c:
                row = red[k - deg]
                for i in range(deg):
                    if row[i]:
                        out[i] += c * row[i]
        return CycloNum(f, tuple(out))

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.is_rational():
            return self.field.from_rational(1 / self.coeffs[0])
        f = self.field
        mod = [Fraction(c) for c in f.poly]
        a = _poly_trim(list(self.coeffs))
        # extended gcd of a and Phi_m over Q; gcd is a nonzero constant
        r0, r1 = mod, a
        s0, s1 = [], [_ONE]
        while True:
            q, r = _rat_poly_divmod(r0, r1)
            if not r:
                break
            s = _rat_poly_sub(s0, _rat_poly_mul(q, s1))
            r0, r1, s0, s1 = r1, r, s1, s
        if len(r1) != 1:
            raise ArithmeticError("cyclotomic polynomial not coprime to element")
        inv_lead = 1 / r1[0]
        coeffs = [c * inv_lead for c in s1]
        coeffs = (coeffs + [_ZERO] * f.degree)[: f.degree]
        return CycloNum(f, tuple(coeffs))

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
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.m, self.coeffs))

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


# ---------------------------------------------------------------------------
# rational polynomial helpers used by inverse()
# ---------------------------------------------------------------------------

def _rat_poly_divmod(num, den):
    num = list(num)
    q = [_ZERO] * max(len(num) - len(den) + 1, 0)
    inv_lead = 1 / den[-1]
    while len(num) >= len(den):
        coef = num[-1] * inv_lead
        shift = len(num) - len(den)
        q[shift] = coef
        for i, d in enumerate(den):
            num[shift + i] -= coef * d
        num.pop()
        _poly_trim(num)
        if not num:
            break
    return q, num


def _rat_poly_mul(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly_trim(out)


def _rat_poly_sub(a, b):
    out = list(a) + [_ZERO] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return _poly_trim(out)


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
