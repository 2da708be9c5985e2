"""Exact sparse linear algebra over a cyclotomic field.

A vector is a dict {column: CycloNum} that never stores a zero, so `==` is
equality and `not v` is the zero test; a matrix is a list of such rows.
Action matrices carry about three nonzeros per row, and every loop here
runs over stored entries only; the only zero checks are where a sum is
formed.  `sparse` and `dense` are the two conversions, used where matrices
enter and leave the program (user input, display, JSON).  The incremental
RowBasis keeps a reduced row echelon basis and is the one elimination
engine: behind nullspaces, quotients, restrictions, inversion and minimal
polynomials, and (`RowBasis.close`) every closure.  The representation
identity, for modules and (on the adjoint matrices) for algebras, is
checked by `representation_defect` on integer coordinates with numpy,
multiplying only stored entries that meet; its arrays live only inside
one call.
"""

from __future__ import annotations

import math
from bisect import bisect

import numpy as np

from .errors import InvalidInput


def sparse(seq):
    return {j: x for j, x in enumerate(seq) if not x.is_zero()}


def dense(f, row, ncols):
    out = [f.zero] * ncols
    for j, x in row.items():
        out[j] = x
    return out


def zeros(n):
    return [{} for _ in range(n)]


def identity(f, n):
    return [{i: f.one} for i in range(n)]


def _add_at(y, j, t):
    """y[j] += t (t nonzero), dropping the entry if the sum cancels."""
    s = y.get(j)
    if s is None:
        y[j] = t
    elif (s := s + t).is_zero():
        del y[j]
    else:
        y[j] = s


def axpy(y, c, x):
    """y += c x in place (c nonzero); returns y."""
    for j, xj in x.items():
        _add_at(y, j, c * xj)
    return y


def vec_add(u, v):
    out = dict(u)
    for j, y in v.items():
        _add_at(out, j, y)
    return out


def mat_add(a, b):
    return [vec_add(ra, rb) for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [vec_add(ra, {j: -y for j, y in rb.items()}) for ra, rb in zip(a, b)]


def mat_scale(a, s):
    if s.is_zero():
        return zeros(len(a))
    return [{j: x * s for j, x in row.items()} for row in a]


def vec_mat(v, a):
    """The row vector v times the matrix a."""
    out = {}
    for t, x in v.items():
        axpy(out, x, a[t])
    return out


def mat_mul(a, b):
    return [vec_mat(row, b) for row in a]


def mat_vec(a, v):
    """The matrix a times the column vector v."""
    out = {}
    for i, row in enumerate(a):
        acc = None
        for j, x in row.items():
            y = v.get(j)
            if y is not None:
                acc = x * y if acc is None else acc + x * y
        if acc is not None and not acc.is_zero():
            out[i] = acc
    return out


def transpose(a, ncols):
    out = zeros(ncols)
    for i, row in enumerate(a):
        for j, x in row.items():
            out[j][i] = x
    return out


class RowBasis:
    """Incrementally built reduced row echelon basis of a subspace."""

    def __init__(self, f, ncols):
        self.field = f
        self.ncols = ncols
        self.rows = []  # in pivot order
        self.pivots = []
        self._row_at = {}  # pivot -> row

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec, coords=False):
        """Residual of vec modulo the span; optionally the combination used,
        as {index into rows: coefficient}.  A basis row is zero at every
        other pivot, so the coefficient of each row is vec's own entry at
        that row's pivot."""
        v = dict(vec)
        used = {}
        for p, c in vec.items():
            row = self._row_at.get(p)
            if row is not None:
                axpy(v, -c, row)
                used[p] = c
        if not coords:
            return v
        return v, {k: used[p] for k, p in enumerate(self.pivots) if p in used}

    def add(self, vec):
        """Insert vec; returns True if it enlarged the span."""
        v = self.reduce(vec)
        if not v:
            return False
        pivot = min(v)
        inv = v[pivot].inverse()
        v = {j: x * inv for j, x in v.items()}
        # keep the basis fully reduced
        for row in self.rows:
            c = row.get(pivot)
            if c is not None:
                axpy(row, -c, v)
        at = bisect(self.pivots, pivot)
        self.rows.insert(at, v)
        self.pivots.insert(at, pivot)
        self._row_at[pivot] = v
        return True

    def close(self, vectors, images):
        """Grow to the smallest span containing the vectors and closed under
        `images`: images(v) is added for every v that enlarged the span.
        Returns self."""
        work = [v for v in vectors if self.add(v)]
        while work and self.rank < self.ncols:
            for w in images(work.pop()):
                if self.add(w):
                    if self.rank == self.ncols:
                        return self
                    work.append(w)
        return self


def row_span(f, vectors, ncols):
    basis = RowBasis(f, ncols)
    for v in vectors:
        basis.add(v)
    return basis


def nullspace(f, rows, ncols):
    """Basis of {x : R x = 0} for the given constraint rows (exact).

    Free variables are taken in increasing column order, so the output is
    deterministic.
    """
    basis = row_span(f, rows, ncols)
    out = []
    for fcol in range(ncols):
        if fcol in basis._row_at:
            continue
        v = {fcol: f.one}
        for row, p in zip(basis.rows, basis.pivots):
            c = row.get(fcol)
            if c is not None:
                v[p] = -c
        out.append(v)
    return out


def invert(f, a):
    """Inverse of the n x n matrix given by n rows, or None if singular: the
    reduced echelon form of [A | I] is [I | A^-1] exactly when every pivot
    lies in the A block."""
    n = len(a)
    if any(j >= n for r in a for j in r):
        raise InvalidInput("inverse of a non-square matrix")
    basis = row_span(f, [{**r, n + i: f.one} for i, r in enumerate(a)], 2 * n)
    if basis.pivots != list(range(n)):
        return None
    return [{j - n: x for j, x in row.items() if j >= n} for row in basis.rows]


def is_invertible(f, a):
    return row_span(f, a, len(a)).rank == len(a)


def min_poly(f, mat):
    """Coefficients (low degree first, monic) of the minimal polynomial.

    Each power vec(A^k) is reduced with the unit tag e_k appended, so a
    residual is always e_k minus a combination of lower tags; the first
    power whose matrix block reduces to zero carries the monic dependency
    in its tag block (by Cayley-Hamilton, at k <= n at the latest).
    """
    n = len(mat)
    nn = n * n
    basis = RowBasis(f, nn + n + 1)
    power = identity(f, n)
    for k in range(n + 1):
        flat = {i * n + j: x for i, row in enumerate(power) for j, x in row.items()}
        resid = basis.reduce({**flat, nn + k: f.one})
        if min(resid) >= nn:
            return [resid.get(nn + t, f.zero) for t in range(k + 1)]
        basis.add(resid)
        power = mat_mul(power, mat)


# -- the representation identity, on integer coordinates ----------------------

_INT64_SAFE = 2**62
_PRODUCTS = 2**11  # monomial products formed at once in representation_defect


def _exact_dtype(bound):
    """int64 when `bound` caps every intermediate below 2^62, else Python ints."""
    return np.int64 if bound < _INT64_SAFE else object


def _integer_coords(scalars, phi):
    """(L, X) with L the lcm of the denominators and X[r] the power-basis
    numerators of L * scalars[r]; X is int64 when every entry fits."""
    den = math.lcm(*(x.den for x in scalars))
    rows = [x.nums if x.den == den else [v * (den // x.den) for v in x.nums] for x in scalars]
    try:
        arr = np.array(rows, dtype=np.int64)
    except OverflowError:
        arr = np.array(rows, dtype=object)
    return den, arr.reshape(len(rows), phi)


def _max_abs(arr):
    return max(int(arr.max()), -int(arr.min())) if arr.size else 0


def _join(left, right):
    """The index pairs (l, r), grouped by l, with left[l] == right[r]."""
    order = np.argsort(right, kind="stable")
    keys = right[order]
    lo = np.searchsorted(keys, left)
    cnt = np.searchsorted(keys, left, "right") - lo
    li = np.repeat(np.arange(len(left)), cnt)
    return li, order[np.arange(len(li)) + np.repeat(lo + cnt - np.cumsum(cnt), cnt)]


def _nonzero_sums(key, coef):
    """The distinct keys, increasing, whose coefficients have a nonzero
    sum, and those sums."""
    if not len(key):
        return key, coef
    order = np.argsort(key, kind="stable")
    key, coef = key[order], coef[order]
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    sums = np.add.reduceat(coef, first)
    keep = sums != 0
    return key[first][keep], sums[keep]


def representation_defect(algebra, mats, d):
    """The first failure of the representation identity

        rho([[x_i, x_j]]) = rho(x_i) rho(x_j) - eps(a, b) rho(x_j) rho(x_i)

    for the d x d action matrices `mats` (sparse rows, one per basis element
    of `algebra`, of degrees a and b): (i, j, column) with i <= j, the pair
    first in lexicographic order and then the smallest column where the two
    sides differ; None if the identity holds.  Exact.

    Every matrix entry is scaled by the lcm L of the entries' denominators
    and split into monomials v zeta^s (v an integer, 0 <= s < phi(m)), and
    every structure constant c_ij^k likewise by the lcm M of theirs into
    monomials w zeta^u.  Both sides times L^2 M are then sums of products
    of two monomials, with eps(a, b) = zeta^e:

        M v v' zeta^(s+t)  and  -M v v' zeta^(s+t+e)   for the two products,
        L w v zeta^(u+t)                                for the bracket.

    A product is formed only for stored entries that meet (an entry in
    column c of rho(x_a) and one in row c of rho(x_b)), by a vectorised
    join, so the work grows with the number of monomial products, as in a
    sparse matrix product, and not with n^2 d^3.  Every term in row r of
    the difference comes from monomials in row r, so the rows are taken in
    blocks of about _PRODUCTS products (at least one row), which bounds the
    memory of a call.  In each block the difference is summed per (pair,
    column, row, power of zeta mod m), each power reduced to the power
    basis by its coordinates, and summed again per coordinate.

    Bound.  Let n = len(mats), B = max |v|, K the number of distinct s,
    Cb = max |w|, Ku the number of distinct u and Zs the largest sum of
    |coordinate u of zeta^q| over the powers q that can occur.  In one (pair,
    column, row, power) each product has at most d K terms (for every inner
    index and s, one t at most gives the power), each at most M B^2, and
    the bracket at most n Ku terms, each at most L Cb B.  So every partial
    sum of the first summation is at most

        T = 2 d K M B^2 + n Ku L Cb B

    and every partial sum of the second at most Zs T.  The integers are
    int64 when Zs T < 2^62 and Python ints (dtype object) otherwise.
    """
    f = algebra.field
    m, phi, n = f.m, f.degree, len(mats)
    # stored entries row by row, so that a block of rows is a slice
    at = [(k, r, c) for r in range(d) for k, mat in enumerate(mats) for c in mat[r]]
    L, vals = _integer_coords([mats[k][r][c] for k, r, c in at], phi)
    ent, s = np.nonzero(vals)
    if not len(ent):
        return None  # rho = 0 satisfies the identity
    k, r, c = np.array(at, np.int64)[ent].T
    table = [(i * n + j, algebra.bracket_basis(i, j)) for i in range(n) for j in range(i, n)]
    ct = [(p, kk) for p, row in table for kk in row]
    M, cvals = _integer_coords([row[kk] for _, row in table for kk in row], phi)
    cent, u = np.nonzero(cvals)
    cp, ck = np.array(ct, np.int64).reshape(-1, 2)[cent].T
    deg = [algebra.degree(i) for i in range(n)]
    by_deg = {(a, b): algebra.epsilon.exponent(a, b) for a in set(deg) for b in set(deg)}
    expo = np.array([by_deg[a, b] for a in deg for b in deg], np.int64)

    # the powers of zeta that can occur, their coordinates, and the bound
    # (not np.unique: its first call adds about 1.5 MiB of resident memory)
    S, U, E = (np.flatnonzero(np.bincount(x, minlength=1)) for x in (s, u, expo))
    st = (S[:, None] + S).ravel()
    reach = np.concatenate((st, (st[:, None] + E).ravel(), (U[:, None] + S).ravel()))
    used = np.flatnonzero(np.bincount(reach % m, minlength=m))
    Z = np.array([f.zeta(q).nums for q in used.tolist()], np.int64).reshape(-1, phi)
    B = _max_abs(vals)
    bound = int(abs(Z).sum(axis=0).max()) * (
        2 * d * len(S) * M * B * B + n * len(U) * L * _max_abs(cvals) * B
    )
    dtype = _exact_dtype(bound)
    v, w = vals[ent, s].astype(dtype), cvals[cent, u].astype(dtype)
    zpos = np.zeros(m, np.int64)
    zpos[used] = np.arange(len(used))
    zr, zu = np.nonzero(Z)

    # blocks of output rows with about _PRODUCTS products each (or one row):
    # every term of row `row` of the difference comes from monomials in that row
    per_row = np.bincount(r, np.bincount(r, minlength=d)[c], minlength=d).cumsum()
    cuts = np.searchsorted(per_row, np.arange(_PRODUCTS, per_row[-1], _PRODUCTS)) + 1
    edges = np.searchsorted(r, np.concatenate(([0], cuts, [d])))
    first = None
    for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()):
        if lo == hi:
            continue
        # rho(x_a)[row, inner] rho(x_b)[inner, col] for every ordered pair
        # (a, b): the pair (a, b) itself when a <= b, the twisted product of
        # (b, a) when a >= b; then c_ij^k rho(x_k)
        li, ri = _join(c[lo:hi], r)
        li += lo
        a, b, ppow = k[li], k[ri], s[li] + s[ri]
        fwd, back = a <= b, a >= b
        bli, bri = _join(ck, k[lo:hi])
        bri += lo
        pair = np.concatenate((a[fwd] * n + b[fwd], b[back] * n + a[back], cp[bli]))
        col = np.concatenate((c[ri][fwd], c[ri][back], c[bri]))
        row = np.concatenate((r[li][fwd], r[li][back], r[bri]))
        power = np.concatenate((ppow[fwd], (ppow + expo[b * n + a])[back], u[bli] + s[bri])) % m
        prod = v[li] * v[ri]
        if M != 1:
            prod = M * prod
        coef = np.concatenate((prod[fwd], -prod[back], -L * (w[bli] * v[bri])))
        # sum per (pair, column, row, power), then per power-basis coordinate
        key, sums = _nonzero_sums(np.ravel_multi_index((pair, col, row, power), (n * n, d, d, m)), coef)
        li, ri = _join(zpos[key % m], zr)
        key, _ = _nonzero_sums(key[li] // m * phi + zu[ri], sums[li] * Z[zr[ri], zu[ri]].astype(dtype))
        if len(key):
            here = int(key[0]) // (d * phi)  # pair * d + column
            first = here if first is None else min(first, here)
    if first is None:
        return None
    p, col = divmod(first, d)
    return p // n, p % n, col
