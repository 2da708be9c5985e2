"""Mod-p acceleration for rank and nullspace computations.

Reducing Q(zeta_m) -> F_p along zeta -> omega (omega of multiplicative
order m, which exists whenever p = 1 mod m) can only lower ranks.  That
one-sided guarantee is used as a sound fast path, with three certificates:

* `certifies_full_closure`: a full closure rank mod p certifies that the
  matrices generate the whole matrix algebra over the exact field;
* `certified_nullspace` with no free column mod p: full column rank mod p
  certifies that an exact nullspace is zero;
* `certified_nullspace` otherwise: a nullspace basis solved mod p, lifted
  to Q(zeta_m) and checked exactly against every constraint row.

These are the interface.  False or None means "no certificate" (the rank
dropped, a denominator is 0 mod p, the lift failed), never the opposite
verdict; the caller then computes exactly.

The nullspace is solved by one whole-array Gauss-Jordan elimination
(`fp_rref`) under each embedding zeta -> omega^k, gcd(k, m) = 1, which must
all give the same pivot columns.  The phi(m) images of each reduced entry
determine its power-basis coordinates mod p (a Vandermonde solve), and
rational reconstruction (Wang 1981; Monagan, ISSAC 2004) lifts them to Q,
adding primes p = 1 (mod m) with CRT, up to _MAX_PRIMES, while a coordinate
does not reconstruct or a candidate fails the exact check.  A candidate
returned is therefore exact, and the basis is complete and the very basis
`linalg.nullspace` returns:

* the rank mod p is at most the exact rank, so the exact nullity is at
  most the number of free columns mod p;
* each candidate is 1 at its own free column and 0 at the other free
  columns, so the candidates are independent and, being exact solutions
  as many as the free columns, span the exact nullspace;
* each candidate's last nonzero entry is its own free column (an entry of
  the reduced form is 0 left of its row's pivot), so the free columns are
  the last-nonzero positions of the exact nullspace, which are the exact
  free columns; a nullspace vector is fixed by its free coordinates, so
  each candidate equals the exact basis vector of its free column.

The closure is computed one sector block at a time.  The Burnside algebra
A of a graded module is generated by the action matrices and the diagonal
grading operators T_chi.  The T_chi span the sector projections P_s, over Q
and mod p alike, because |Gamma/H| <= 256 < p.  So A is the direct sum of
the blocks P_s A P_t, and P_s A P_t is spanned by the words in the action
matrices alone, restricted to V_t and landing in V_s.  Each rho(x_k) maps
V_t into V_{t + deg x_k}, so closure_rank closes the identity of each
sector V_t under left multiplication by such blocks and adds up the block
ranks: the same algebra, and dimension, as the closure of the d^2-long
words under all the generators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from . import linalg
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
def prime_for(m, i=0):
    """The (i+1)-th smallest prime p > 2^20 with p = 1 (mod m)."""
    if i:
        p = prime_for(m, i - 1) + m
    else:
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


def closure_rank(mats, p, dim, parts):
    """Dimension over F_p of the unital algebra generated by a graded action
    and its sector projections (why blocks suffice: see the module docstring).

    `mats` are the dim x dim F_p action matrices and `parts` the basis
    indices of each non-empty sector.  By homogeneity the columns of sector
    t hit one sector s: the block V_t -> V_s.  Each V_t's identity is closed
    under the blocks, one echelon per target s, and the ranks are summed;
    each block span, closed under every block, is that of all words on V_t.
    Callers and the perfbench tracer compare the result with dim^2.
    """
    sizes = [len(idx) for idx in parts]
    sector = {i: s for s, idx in enumerate(parts) for i in idx}
    out_of = {}
    for t, idx in enumerate(parts):
        for g in mats:
            cut = g[:, idx] % p
            nz = np.flatnonzero(cut)
            if nz.size:
                s = sector[int(nz[0]) // len(idx)]
                out_of.setdefault(t, []).append((s, cut[parts[s]]))
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


def fp_rref(a, p):
    """Reduce the int64 array `a` in place to its reduced row echelon form
    over F_p, by one whole-array Gauss-Jordan elimination, and return the
    pivot columns.  Row i of the result has its pivot 1 at column
    pivots[i]; the rows from len(pivots) on are zero."""
    a %= p
    nrows, ncols = a.shape
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i], c:] = a[[i, r], c:]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        # row r is 0 left of column c, so no row changes there
        col = a[:, c].copy()
        col[r] = 0
        hit = np.flatnonzero(col)
        if hit.size:
            a[hit, c:] = (a[hit, c:] - np.outer(col[hit], a[r, c:])) % p
        pivots.append(c)
    return pivots


def fp_rank(rows, p):
    """Rank over F_p of a stack of integer rows (an int64 numpy 2-D array,
    which is left reduced in place, as fp_rref leaves it)."""
    return len(fp_rref(rows, p))


# Primes p = 1 (mod m) that a nullspace lift may combine by CRT.
_MAX_PRIMES = 4


def _rational(u, modulus):
    """The fraction a/b = u (mod modulus) with |a|, b <= sqrt(modulus/2),
    or None (Wang's rational reconstruction; such a fraction is unique)."""
    bound = isqrt(modulus // 2)
    if u <= bound:
        return u
    if modulus - u <= bound:
        return u - modulus
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _power_coordinates(images, p, omega, units):
    """Power-basis coordinates mod p of elements given by their images under
    zeta -> omega^k for k in units: images[t] holds the images under
    units[t], and the result has the same shape, coordinate t first."""
    n = len(units)
    vandermonde = np.array(
        [[pow(omega, k * i, p) for i in range(n)] for k in units], dtype=np.int64
    )
    stacked = np.stack(images)
    system = np.hstack([vandermonde, stacked.reshape(n, -1)])
    fp_rref(system, p)  # the Vandermonde block is invertible: it becomes I
    return system[:, n:].reshape(stacked.shape)


def certified_nullspace(f, rows, ncols):
    """Basis of {x : R x = 0} over f solved mod p and checked exactly (see
    the module docstring), or None when there is no certificate.

    The basis, when given, is the one linalg.nullspace(f, rows, ncols)
    returns.  [] is certified by full column rank mod p.  None is returned
    for an empty system (nothing to eliminate), a denominator divisible by
    a prime used, pivot columns that differ between embeddings or primes,
    or no candidate basis that reconstructs and passes the exact check
    within _MAX_PRIMES primes.
    """
    if not rows:
        return None
    m = f.m
    units = [k for k in range(1, m + 1) if gcd(k, m) == 1]
    pivots = None
    residues, modulus = None, 1
    for i in range(_MAX_PRIMES):
        p = prime_for(m, i)
        omega = order_m_root(m, p)
        images = []
        for k in units:
            try:
                a = mat_to_fp(rows, p, pow(omega, k, p), ncols)
            except ValueError:  # a denominator is 0 mod p
                return None
            if pivots is None:
                rank = fp_rank(a, p)
                if rank == ncols:
                    return []
                pivots = [int(np.flatnonzero(row)[0]) for row in a[:rank]]
                free = sorted(set(range(ncols)).difference(pivots))
            elif fp_rref(a, p) != pivots:
                return None
            images.append(a[:rank, free])
            del a  # hold one embedding's array at a time
        # the pivot variable of row r is -sum_j R[r, j] x_j
        coords = -_power_coordinates(images, p, omega, units) % p
        if residues is None:
            residues = coords.astype(object)
        else:
            # CRT: keep residues mod modulus, lift to mod modulus * p
            step = (coords - residues % p) * pow(modulus, -1, p) % p
            residues = residues + modulus * step.astype(object)
        modulus *= p
        basis = _lift(f, residues, modulus, pivots, free)
        # the exact check: every constraint row vanishes at every candidate
        if basis is not None and not any(linalg.mat_vec(rows, x) for x in basis):
            return basis
    return None


def _lift(f, residues, modulus, pivots, free):
    """Candidate nullspace vectors from the coordinates mod `modulus` of
    their pivot entries, residues[t, r, j] for coordinate t, pivot row r
    and free column free[j]; None if a coordinate does not reconstruct."""
    basis = [{col: f.one} for col in free]
    for r, j in sorted(set(zip(*np.nonzero(residues)[1:]))):
        coeffs = [_rational(int(u), modulus) for u in residues[:, r, j]]
        if None in coeffs:
            return None
        basis[j][pivots[r]] = f.num(coeffs)
    return basis


def certifies_full_closure(f, mats, parts, d):
    """True if the unital algebra that a graded action over f and its sector
    projections generate has dimension d^2 mod p, which proves it is all of
    End(f^d).  `mats` are the exact sparse action matrices and `parts` the
    basis indices of each non-empty sector, as closure_rank takes them."""
    try:
        p, omega = fp_for_field(f)
        fp = [mat_to_fp(g, p, omega, d) for g in mats]
    except ValueError:  # a denominator is 0 mod p
        return False
    return closure_rank(fp, p, d, parts) == d * d
