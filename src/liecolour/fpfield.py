"""Arithmetic of Q(zeta_m) modulo primes p = 1 (mod m).

Such a p has an element omega of multiplicative order m, and zeta -> omega^k
(k a unit mod m) maps Z[zeta_m], localised away from p, onto F_p: the
roots of Phi_m mod p are the r_k = omega^k.  This module holds what modp's
certificates and the scalar inverse share: the primes (prime_for), omega
(order_m_root), the images at the roots and back (_root_powers,
_power_coordinates, by Lagrange interpolation), CRT (_crt) and rational
reconstruction (_rational, _rational_vector).

inverse, the inverse of a scalar of Q(zeta_m) that is not rational, is
solved this way: at each prime the inverse's value at each root r_k is the
inverse of the scalar's value there, the values are interpolated to
power-basis coordinates and combined by CRT with the earlier primes', and
the candidate that rational reconstruction gives is returned once its
product with the scalar is exactly 1.  Its cost grows with the number of
primes, at most twice the number that the inverse's height needs, each a
few phi(m)^2 int64 products; the extended Euclidean algorithm over Z[x]
it replaced grew with its integer remainder sequence (1.1 s at m = 512 and
16 s at m = 1024 on a dense element with small coordinates).

The int64 sums here add phi(m) products of two residues in [0, p); _roots
raises OverflowError once phi(m) (p - 1)^2 >= 2^63, far past the primes
that m <= 1024 needs (prime_for gives p of about 2^20).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, isqrt

import numpy as np

from .abelian import _prime_factors
from .cyclotomic import _reduced, field
from .errors import InvalidInput


@lru_cache(maxsize=None)
def prime_for(m, i=0):
    """The (i+1)-th smallest prime p > 2^20 with p = 1 (mod m)."""
    if i:
        p = prime_for(m, i - 1) + m
    else:
        base = 1 << 20
        p = base + 1 + ((-base) % m)
    while _prime_factors(p) != {p}:
        p += m
    return p


@lru_cache(maxsize=None)
def order_m_root(m, p):
    """Deterministic element of exact multiplicative order m in F_p."""
    if (p - 1) % m:
        raise InvalidInput(f"{p} != 1 mod {m}")
    for g in range(2, p):
        w = pow(g, (p - 1) // m, p)
        if all(pow(w, m // q, p) != 1 for q in _prime_factors(m)):
            return w
    raise InvalidInput("no root found")  # unreachable for prime p


def _rational(u, modulus):
    """The fraction a/b = u (mod modulus) with |a|, b <= sqrt(modulus/2),
    or None (Wang's rational reconstruction; such a fraction is unique)."""
    bound = isqrt(modulus // 2)
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _rational_vector(residues, modulus):
    """Integers a_j and D > 0 with residues[j] = a_j / D (mod modulus), or
    None.  A residue that the D so far does not bring to |a_j| <=
    sqrt(modulus/2) is reconstructed by _rational, whose denominator then
    joins D; a vector over one denominator takes one _rational call."""
    bound = isqrt(modulus // 2)
    nums, den = [], 1
    for u in residues:
        t = u * den % modulus
        if t > modulus - t:
            t -= modulus
        if abs(t) > bound:
            q = _rational(t % modulus, modulus)
            if q is None:
                return None
            nums = [a * q.denominator for a in nums]
            den *= q.denominator
            t = q.numerator
        nums.append(t)
    return nums, den


@lru_cache(maxsize=None)
def _root_tables(m):
    """Integer tables of Q(zeta_m), the same at every prime p = 1 (mod m),
    for the roots r_k = omega^k of Phi = Phi_m mod p, k the units mod m in
    increasing order: the exponents k s mod m of r_k^s (rows k, columns
    s < phi(m)), the coefficients j Phi_j of Phi' (j >= 1) and the Hankel
    matrix of Phi_{j+1+s}."""
    poly = field(m).poly
    n = len(poly) - 1
    units = np.array([k for k in range(1, m + 1) if gcd(k, m) == 1], dtype=np.int64)
    exponents = units[:, None] * np.arange(n, dtype=np.int64) % m
    derivative = np.array([j * c for j, c in enumerate(poly)][1:], dtype=np.int64)
    padded = np.array(poly[1:] + (0,) * n, dtype=np.int64)
    return exponents, derivative, padded[np.add.outer(np.arange(n), np.arange(n))]


@lru_cache(maxsize=None)
def _roots(m, p):
    """At a prime p = 1 (mod m): omega^t mod p for t < m, with omega =
    order_m_root(m, p), and 1 / Phi'(r_k) mod p at the roots r_k = omega^k
    of Phi = Phi_m mod p, k as in _root_tables (Phi' has no zero at a root,
    as p does not divide m); both int64 arrays."""
    exponents, derivative, _ = _root_tables(m)
    if len(exponents) * (p - 1) ** 2 >= 1 << 63:
        raise OverflowError(f"F_{p} sums over the {len(exponents)} roots of Phi_{m} overflow int64")
    omega, powers = order_m_root(m, p), [1]
    for _ in range(m - 1):
        powers.append(powers[-1] * omega % p)
    powers = np.array(powers, dtype=np.int64)
    scale = _inverses((powers[exponents] @ derivative % p).tolist(), p)
    return powers, np.array(scale, dtype=np.int64)


def _root_powers(m, p):
    """r_k^s mod p, rows k and columns s as in _root_tables: the matrix that
    takes power-basis coordinates mod p to the images under zeta -> r_k."""
    return _roots(m, p)[0][_root_tables(m)[0]]


def _inverses(values, p):
    """The inverses mod p of a list of residues, by one pow and the prefix
    products, or None if one of them is 0."""
    prefix, acc = [], 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % p
    if acc == 0:
        return None
    inv, out = pow(acc, -1, p), [0] * len(values)
    for k in range(len(values) - 1, -1, -1):
        out[k] = inv * prefix[k] % p
        inv = inv * values[k] % p
    return out


def _power_coordinates(m, images, p, at_roots):
    """Power-basis coordinates mod p of elements of Q(zeta_m) given by their
    images under zeta -> r_k: images[k] holds the images under root k of
    at_roots (_root_powers(m, p)), and the result has the same shape,
    coordinate j first.  This is Lagrange interpolation at the roots of
    Phi = Phi_m mod p: y = sum_k y(r_k) Phi(X) / ((X - r_k) Phi'(r_k)), as
    the k-th term is 0 at the other roots, and coordinate j of it is
    sum_s Phi_{j+1+s} z_s with z_s = sum_k r_k^s y(r_k) / Phi'(r_k)."""
    scale = _roots(m, p)[1]
    images = np.asarray(images)
    n = len(images)
    z = at_roots.T @ (images.reshape(n, -1) * scale[:, None] % p) % p
    return (_root_tables(m)[2] @ z % p).reshape(images.shape)


def _inverse_mod(f, nums, den, p):
    """Power-basis coordinates mod p of the inverse y of x = nums/den, a
    nonzero element of f = Q(zeta_m) with p = 1 (mod m), or None when p
    divides den or the norm of nums: y(r_k) = den / nums(r_k) at each root
    r_k of Phi_m mod p, interpolated by _power_coordinates."""
    if den % p == 0:
        return None
    at_roots = _root_powers(f.m, p)
    x = np.array([c % p for c in nums], dtype=np.int64)
    values = _inverses((at_roots @ x % p).tolist(), p)
    if values is None:
        return None
    y = np.array(values, dtype=np.int64) * (den % p) % p
    return _power_coordinates(f.m, y, p, at_roots)


def _inverse_height(x):
    """A height bound H for the inverse y = den / alpha of x = alpha / den,
    alpha = sum_j nums_j zeta^j: every coordinate a/b of y, in lowest
    terms, has |a| <= H and b <= H, and so does every fraction that
    _rational_vector forms on the way.

    It is derived from the norm.  With s = sum_j |nums_j| >= |sigma(alpha)|
    for each embedding sigma and n = phi(m): y = den adj(alpha) / N(alpha)
    with adj(alpha) in Z[zeta], so each b divides |N(alpha)| <= s^n, which
    bounds the denominators.  |N(alpha)| >= 1 gives |sigma(y)| <=
    den s^(n-1) / |N(alpha)|.  Lagrange interpolation at the roots zeta_k
    of Phi = Phi_m gives each coordinate as sum_k sigma_k(y) q_kj /
    Phi'(zeta_k), with |q_kj| <= |Phi|_1 for the coefficients q_kj of
    Phi / (X - zeta_k), and |Phi'(zeta_k)| = m / |g(zeta_k)| >= m / 2^(m-n)
    for g = (X^m - 1) / Phi, a product of m - n factors zeta_k - w with
    |w| = 1.  So |a| = |y_j| b <= n |Phi|_1 2^(m-n) den s^(n-1) / m."""
    f = x.field
    n, m = f.degree, f.m
    s = sum(abs(c) for c in x.nums)
    lagrange = (n * sum(abs(c) for c in f.poly) * x.den * s ** (n - 1)) << (m - n)
    return max(s**n, -(-lagrange // m))


def inverse(x):
    """The inverse of x, an element of Q(zeta_m) that is not rational: its
    coordinates are found mod the primes p = 1 (mod m) of prime_for by
    _inverse_mod and combined by CRT.  Each time the number of primes
    combined reaches a power of two they are brought back to Q by
    _rational_vector, and the candidate y is returned if x y == 1 exactly;
    so at most twice the primes its coordinates need are used, with one
    reconstruction per doubling.  Only the primes that divide the
    denominator of x, or the norm of its numerator, are skipped, so a
    candidate passes once the product of the primes is large enough: past
    2 H^2, for H the height bound of _inverse_height, the reconstruction is
    unique and exact.  So once the product passes 2 H^2, one more
    reconstruction is made, and ArithmeticError is raised if it fails: a
    residue was wrong, and CRT would carry it into every later prime."""
    f = x.field
    bound = 2 * _inverse_height(x) ** 2
    residues, modulus, used = None, 1, 0
    for i in count():
        p = prime_for(f.m, i)
        coords = _inverse_mod(f, x.nums, x.den, p)
        if coords is None:
            continue
        residues = _crt(residues, coords, modulus, p)
        modulus *= p
        used += 1
        covered = modulus > bound
        if used & (used - 1) and not covered:
            continue
        lifted = _rational_vector(residues.tolist(), modulus)
        if lifted is not None:
            y = _reduced(f, tuple(lifted[0]), lifted[1])
            if x * y == f.one:
                return y
        if covered:
            raise ArithmeticError(
                f"no inverse of {x} reconstructs from {used} primes past its height bound"
            )


def _crt(residues, coords, modulus, p):
    """The residues mod modulus * p that are `residues` mod modulus (None
    when modulus is 1) and `coords` mod p."""
    if residues is None:
        return coords
    step = (coords - residues % p) * pow(modulus, -1, p) % p
    return residues.astype(object) + modulus * step.astype(object)
