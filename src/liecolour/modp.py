"""Mod-p acceleration for rank computations.

Reducing Q(zeta_m) -> F_p along zeta -> omega (omega of multiplicative
order m, which exists whenever p = 1 mod m) can only lower ranks.  That
one-sided guarantee is used as a sound fast path:

* `certifies_full_closure`: a full closure rank mod p certifies that the
  matrices generate the whole matrix algebra over the exact field;
* `certifies_zero_nullity`: full column rank mod p certifies that an exact
  nullspace is zero.

These two are the interface.  False means "no certificate" (the rank
dropped, or a denominator is 0 mod p), never the opposite verdict.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .abelian import _prime_factors
from .errors import InvalidInput

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def prime_for(m):
    """Smallest prime p > 2^20 with p = 1 (mod m)."""
    base = 1 << 20
    p = base + 1 + ((-base) % m)
    while not _is_prime(p):
        p += m
    return p


@lru_cache(maxsize=None)
def order_m_root(m, p):
    """Deterministic element of exact multiplicative order m in F_p."""
    if (p - 1) % m:
        raise InvalidInput(f"{p} != 1 mod {m}")
    for g in range(2, p):
        w = pow(g, (p - 1) // m, p)
        if w == 1 and m > 1:
            continue
        if all(pow(w, m // q, p) != 1 for q in _prime_factors(m)) or m == 1:
            return w
    raise InvalidInput("no root found")  # unreachable for prime p


def scalar_to_fp(x, p, omega):
    """Image of a CycloNum under zeta -> omega in F_p: the numerators'
    image times den^-1.  Raises ValueError when p divides the denominator."""
    acc, w = 0, 1
    for n in x.nums:
        if n:
            acc += n * w
        w = w * omega % p
    if x.den != 1:
        acc *= pow(x.den % p, -1, p)
    return acc % p


def mat_to_fp(mat, p, omega, ncols):
    """F_p image of a matrix of sparse rows, as an int64 array."""
    out = np.zeros((len(mat), ncols), dtype=np.int64)
    for i, row in enumerate(mat):
        for j, x in row.items():
            out[i, j] = scalar_to_fp(x, p, omega)
    return out


def fp_for_field(f):
    p = prime_for(f.m)
    return p, order_m_root(f.m, p)


class _FpEchelon:
    """Row echelon accumulator over F_p with int64 numpy rows."""

    def __init__(self, ncols, p):
        self.p = p
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    @property
    def rank(self):
        return len(self.rows)

    def add(self, vec):
        p = self.p
        v = vec % p
        for row, piv in zip(self.rows, self.pivots):
            c = int(v[piv])
            if c:
                v = (v - c * row) % p
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return None
        piv = int(nz[0])
        v = v * pow(int(v[piv]), -1, p) % p
        self.rows.append(v)
        self.pivots.append(piv)
        return v


def closure_rank(mats, p, dim):
    """Dimension over F_p of the unital algebra generated by the matrices.

    Words are explored by right multiplication from a growing echelon basis;
    at termination the computed span is closed under every generator, hence
    equals the span of all words.
    """
    ech = _FpEchelon(dim * dim, p)
    gens = [g % p for g in mats]
    eye = np.eye(dim, dtype=np.int64)
    work = [ech.add(eye.reshape(-1))]
    while work:
        w = work.pop()
        if w is None:
            continue
        wm = w.reshape(dim, dim)
        for g in gens:
            cand = wm @ g % p
            added = ech.add(cand.reshape(-1))
            if added is not None:
                work.append(added)
                if ech.rank == dim * dim:
                    return ech.rank
    return ech.rank


def fp_rank(rows, p):
    """Rank over F_p of a stack of integer rows (numpy 2-D array)."""
    if len(rows) == 0:
        return 0
    ech = _FpEchelon(rows.shape[1], p)
    for r in rows:
        ech.add(r)
    return ech.rank


def certifies_zero_nullity(f, rows, ncols):
    """True if the rows over f have rank ncols mod p, which proves that
    their exact nullspace is zero."""
    try:
        p, omega = fp_for_field(f)
        return bool(rows) and fp_rank(mat_to_fp(rows, p, omega, ncols), p) == ncols
    except ValueError:  # a denominator is 0 mod p
        return False


def certifies_full_closure(f, mats, d):
    """True if the unital algebra the d x d matrices over f generate has
    dimension d^2 mod p, which proves it is all of End(f^d)."""
    try:
        p, omega = fp_for_field(f)
        return closure_rank([mat_to_fp(g, p, omega, d) for g in mats], p, d) == d * d
    except ValueError:  # a denominator is 0 mod p
        return False
