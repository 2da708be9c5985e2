"""Exact dense linear algebra over a cyclotomic field.

Matrices are plain lists of lists of CycloNum; dimensions here never exceed
a few dozen, so the point is exactness and determinism, not speed.  The
incremental RowBasis keeps a reduced row echelon basis and is the one
elimination engine: behind nullspaces, quotients, restrictions, inversion
and minimal polynomials, and (`RowBasis.close`) every closure.
"""

from __future__ import annotations

from .errors import InvalidInput


def zeros(f, rows, cols):
    z = f.zero
    return [[z] * cols for _ in range(rows)]


def identity(f, n):
    m = zeros(f, n, n)
    for i in range(n):
        m[i][i] = f.one
    return m


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, s):
    return [[x * s for x in row] for row in a]


def mat_mul(a, b, f):
    n, k = len(a), len(b)
    cols = len(b[0]) if b else 0
    out = zeros(f, n, cols)
    for i in range(n):
        arow = a[i]
        orow = out[i]
        for t in range(k):
            x = arow[t]
            if x.is_zero():
                continue
            brow = b[t]
            for j in range(cols):
                y = brow[j]
                if not y.is_zero():
                    orow[j] = orow[j] + x * y
    return out


def mat_vec(a, v, f):
    out = [f.zero] * len(a)
    for i, row in enumerate(a):
        acc = f.zero
        for x, y in zip(row, v):
            if not x.is_zero() and not y.is_zero():
                acc = acc + x * y
        out[i] = acc
    return out


def mat_eq(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for x, y in zip(ra, rb):
            if x != y:
                return False
    return True


def transpose(a):
    return [list(col) for col in zip(*a)]


def vec_is_zero(v):
    return all(x.is_zero() for x in v)


class RowBasis:
    """Incrementally built reduced row echelon basis of a subspace."""

    def __init__(self, f, ncols):
        self.field = f
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec, coords=False):
        """Residual of vec modulo the span; optionally the combination used."""
        v = list(vec)
        cs = [self.field.zero] * len(self.rows) if coords else None
        for idx, (row, p) in enumerate(zip(self.rows, self.pivots)):
            c = v[p]
            if c.is_zero():
                continue
            for j in range(p, self.ncols):
                if not row[j].is_zero():
                    v[j] = v[j] - c * row[j]
            if coords:
                cs[idx] = c
        return (v, cs) if coords else v

    def add(self, vec):
        """Insert vec; returns True if it enlarged the span."""
        v = self.reduce(vec)
        pivot = next((j for j in range(self.ncols) if not v[j].is_zero()), None)
        if pivot is None:
            return False
        inv = v[pivot].inverse()
        v = [x * inv for x in v]
        # keep the basis fully reduced
        for row in self.rows:
            c = row[pivot]
            if not c.is_zero():
                for j in range(pivot, self.ncols):
                    if not v[j].is_zero():
                        row[j] = row[j] - c * v[j]
        at = next(
            (k for k, p in enumerate(self.pivots) if p > pivot), len(self.pivots)
        )
        self.rows.insert(at, v)
        self.pivots.insert(at, pivot)
        return True

    def contains(self, vec):
        return vec_is_zero(self.reduce(vec))

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

    def copy(self):
        other = RowBasis(self.field, self.ncols)
        other.rows = [list(r) for r in self.rows]
        other.pivots = list(self.pivots)
        return other


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
    pivset = set(basis.pivots)
    free = [j for j in range(ncols) if j not in pivset]
    out = []
    for fcol in free:
        v = [f.zero] * ncols
        v[fcol] = f.one
        for row, p in zip(basis.rows, basis.pivots):
            c = row[fcol]
            if not c.is_zero():
                v[p] = -c
        out.append(v)
    return out


def invert(f, a):
    """Matrix inverse, or None if singular: the reduced echelon form of
    [A | I] is [I | A^-1] exactly when every pivot lies in the A block."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise InvalidInput("inverse of a non-square matrix")
    basis = row_span(f, [list(r) + e for r, e in zip(a, identity(f, n))], 2 * n)
    if basis.pivots != list(range(n)):
        return None
    return [row[n:] for row in basis.rows]


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
        tag = [f.zero] * (n + 1)
        tag[k] = f.one
        resid = basis.reduce([x for row in power for x in row] + tag)
        if vec_is_zero(resid[:nn]):
            return resid[nn : nn + k + 1]
        basis.add(resid)
        power = mat_mul(power, mat, f)
