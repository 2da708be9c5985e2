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

The closure is computed one sector block at a time.  The Burnside algebra
A of a graded module is generated by the action matrices and the diagonal
grading operators T_chi.  The T_chi span the sector projections P_s, over Q
and mod p alike, because |Gamma/H| <= 256 < p.  So A is the direct sum of
the blocks P_s A P_t, and P_s A P_t is spanned by the words in the action
matrices alone, restricted to V_t and landing in V_s.  Each rho(x_k) maps
V_t into V_{t + deg x_k}, so closure_rank takes the action cut into such
blocks (gmodule builds them), closes the identity of each sector V_t under
left multiplication, and adds up the block ranks: the same algebra, and
the same dimension, as the closure of the d^2-long words under all the
generators.  An ungraded module is one block.
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


def closure_rank(sectors, p, dim):
    """Dimension over F_p of the unital algebra generated by a graded action
    and its sector projections (why blocks suffice: see the module docstring).

    `sectors` is (sizes, blocks): sizes[t] is the dimension of the t-th
    non-empty sector and each block (s, t, g) is an F_p array, the part of
    one action matrix from sector t into sector s.  For each source sector
    t the identity of V_t is closed under left multiplication by the
    blocks, with one echelon per target sector s, and the block ranks are
    summed.  At termination each block span is closed under every g, hence
    equals the span of all words applied to V_t.  `dim`, the sum of the
    sizes, is not needed for the rank; callers and the perfbench tracer
    compare the result with dim^2.
    """
    sizes, blocks = sectors
    out_of = {}
    for s, t, g in blocks:
        out_of.setdefault(t, []).append((s, g % p))
    total = 0
    for t, n in enumerate(sizes):
        echs = {t: _FpEchelon(n * n, p)}
        work = [(t, echs[t].add(np.eye(n, dtype=np.int64).reshape(-1)))]
        while work:
            u, w = work.pop()
            wm = w.reshape(sizes[u], n)
            for s, g in out_of.get(u, ()):
                ech = echs.get(s)
                if ech is None:
                    ech = echs[s] = _FpEchelon(sizes[s] * n, p)
                elif ech.rank == ech.ncols:
                    continue
                added = ech.add((g @ wm % p).reshape(-1))
                if added is not None:
                    work.append((s, added))
        total += sum(ech.rank for ech in echs.values())
    return total


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


def certifies_full_closure(f, sectors, d):
    """True if the unital algebra that a graded action over f and its sector
    projections generate has dimension d^2 mod p, which proves it is all of
    End(f^d).  `sectors` is (sizes, blocks) as closure_rank takes it, with
    exact sparse blocks."""
    sizes, blocks = sectors
    try:
        p, omega = fp_for_field(f)
        fp = [(s, t, mat_to_fp(g, p, omega, sizes[t])) for s, t, g in blocks]
    except ValueError:  # a denominator is 0 mod p
        return False
    return closure_rank((sizes, fp), p, d) == d * d
