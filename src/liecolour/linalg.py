"""Exact sparse linear algebra over a cyclotomic field.

A vector is a dict {column: CycloNum} that never stores a zero, so `==` is
equality and `not v` is the zero test; a matrix is a list of such rows.
Action matrices carry about three nonzeros per row, and every loop here
runs over stored entries only; the only zero checks are where a sum is
formed.  `sparse` and `dense` are the two conversions, used where matrices
enter and leave the program (user input, display, JSON).  The incremental
RowBasis keeps a reduced row echelon basis and is the one elimination
engine: behind nullspaces, quotients, restrictions, inversion and minimal
polynomials, and (`RowBasis.close`) every closure.
"""

from __future__ import annotations

from bisect import bisect

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

    def contains(self, vec):
        return not self.reduce(vec)

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
        other.rows = [dict(r) for r in self.rows]
        other.pivots = list(self.pivots)
        other._row_at = dict(zip(other.pivots, other.rows))
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
