"""Differential tests of the exact linear algebra against sympy.

Seeded random matrices over Q(i) and Q(zeta_3), singular ones included,
are fed both to `liecolour.linalg` (as sparse rows) and to sympy's
DomainMatrix over the matching algebraic field; rank, nullspace, inverse
and minimal polynomial must agree.
"""

import random
from fractions import Fraction

import pytest

from liecolour import field, linalg
from liecolour.errors import InvalidInput

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

FIELDS = {
    "Q(i)": (4, sympy.I, sympy.sqrt(-1)),
    "Q(zeta3)": (3, (-1 + sympy.sqrt(-3)) / 2, sympy.sqrt(-3)),
}
CASES_PER_FIELD = 40


def _to_sympy(K, zeta, x):
    """x = sum c_i zeta^i as an element of the sympy field K (zeta in K)."""
    acc = K.zero
    for i, c in enumerate(x.coeffs):
        acc += K.convert(sympy.QQ(c.numerator, c.denominator)) * zeta**i
    return acc


def _domain_matrix(K, zeta, rows, ncols):
    """The sparse rows as a DomainMatrix with ncols columns."""
    dense = [[K.zero] * ncols for _ in rows]
    for i, r in enumerate(rows):
        for j, x in r.items():
            dense[i][j] = _to_sympy(K, zeta, x)
    return DomainMatrix(dense, (len(rows), ncols), K)


def _random_matrix(f, rng, nrows, ncols):
    def entry():
        return f.num([Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(2)])

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.4:
        # force a dependency: one row becomes a combination of two others
        i, j, k = (rng.randrange(nrows) for _ in range(3))
        a, b = entry(), entry()
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return [linalg.sparse(r) for r in rows]


def _matrices(name):
    m, zeta, gen = FIELDS[name]
    f = field(m)
    K = sympy.QQ.algebraic_field(gen)
    zeta = K.from_sympy(zeta)
    rng = random.Random(f"linalg-{name}")
    for _ in range(CASES_PER_FIELD):
        n = rng.randint(1, 5)
        ncols = n if rng.random() < 0.6 else rng.randint(1, 5)
        yield f, K, zeta, _random_matrix(f, rng, n, ncols), ncols
    # minimal polynomials of lower degree than the characteristic one
    c = f.zeta(1) + f.from_rational(Fraction(1, 2))
    B = _random_matrix(f, rng, 2, 2)
    block = B + [{j + 2: x for j, x in r.items()} for r in B]
    jordan = [{i: c, i + 1: f.one} for i in range(2)] + [{2: c}]
    for square in (linalg.zeros(3), linalg.mat_scale(linalg.identity(f, 3), c), block, jordan):
        yield f, K, zeta, square, len(square)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_rank_and_nullspace_match_sympy(name):
    for f, K, zeta, rows, ncols in _matrices(name):
        rank = _domain_matrix(K, zeta, rows, ncols).rank()
        assert linalg.row_span(f, rows, ncols).rank == rank
        null = linalg.nullspace(f, rows, ncols)
        assert len(null) == ncols - rank
        for v in null:
            assert not linalg.mat_vec(rows, v)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_invert_matches_sympy(name):
    # n sparse rows are an n x n matrix: an entry past column n raises, and
    # a matrix generated with fewer columns is one with zero columns
    singular = regular = narrow = 0
    for f, K, zeta, rows, ncols in _matrices(name):
        n = len(rows)
        if any(j >= n for r in rows for j in r):
            with pytest.raises(InvalidInput):
                linalg.invert(f, rows)
            continue
        dm = _domain_matrix(K, zeta, rows, n)
        inv = linalg.invert(f, rows)
        if dm.det() == K.zero:
            assert inv is None
            singular += 1
            narrow += ncols < n
        else:
            assert _domain_matrix(K, zeta, inv, n) == dm.inv()
            regular += 1
    assert singular and regular and narrow  # every branch is exercised


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_min_poly_matches_sympy(name):
    x = sympy.Symbol("x")
    degrees = []
    for f, K, zeta, rows, ncols in _matrices(name):
        n = len(rows)
        if ncols != n:
            continue
        mu = linalg.min_poly(f, rows)
        deg = len(mu) - 1
        assert mu[-1] == f.one
        # mu(A) = 0, and I, A, ..., A^(deg-1) are independent
        acc = linalg.zeros(n)
        power = linalg.identity(f, n)
        powers = []
        for c in mu:
            acc = linalg.mat_add(acc, linalg.mat_scale(power, c))
            powers.append({i * n + j: y for i, r in enumerate(power) for j, y in r.items()})
            power = linalg.mat_mul(power, rows)
        assert acc == linalg.zeros(n)
        assert _domain_matrix(K, zeta, powers[:deg], n * n).rank() == deg
        # mu divides the characteristic polynomial
        charpoly = sympy.Poly(_domain_matrix(K, zeta, rows, n).charpoly(), x, domain=K)
        mu_poly = sympy.Poly([_to_sympy(K, zeta, c) for c in reversed(mu)], x, domain=K)
        assert charpoly.rem(mu_poly).is_zero
        degrees.append((deg, n))
    assert any(deg < n for deg, n in degrees) and any(deg == n for deg, n in degrees)
