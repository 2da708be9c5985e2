"""The integer-coordinate kernel behind module and algebra validation.

`linalg.representation_defect` must report exactly what the sparse exact
loop it replaced reported: the first pair (i <= j) at which
rho([[x_i,x_j]]) = rho(x_i)rho(x_j) - eps rho(x_j)rho(x_i) fails, and
the smallest column where it fails there.  The oracle below is that loop,
on `linalg.mat_mul`.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from liecolour import AbelianGroup, CommutationFactor, field, linalg, make_algebra
from liecolour.gmodule import GradedModule
from liecolour.abelian import full_subgroup
from liecolour.workbench import GROUP, catalog_modules, make_V_lambda, sl2c_factor


def _oracle(alg, act, d):
    eps = alg.epsilon
    n = alg.dim()
    for i in range(n):
        for j in range(i, n):
            lhs = linalg.zeros(d)
            for k, c in alg.bracket_basis(i, j).items():
                lhs = linalg.mat_add(lhs, linalg.mat_scale(act[k], c))
            rhs = linalg.mat_sub(
                linalg.mat_mul(act[i], act[j]),
                linalg.mat_scale(linalg.mat_mul(act[j], act[i]), eps.eval(alg.degree(i), alg.degree(j))),
            )
            if lhs != rhs:
                cols = {c for a, b in zip(lhs, rhs) for c in a.keys() | b.keys() if a.get(c) != b.get(c)}
                return i, j, min(cols)
    return None


def _defect(alg, act, d):
    return linalg.representation_defect(alg, act, d)


def _perturbed(f, act, k, r, c, delta):
    out = [[dict(row) for row in mat] for mat in act]
    x = out[k][r].get(c, f.zero) + delta
    if x.is_zero():
        del out[k][r][c]
    else:
        out[k][r][c] = x
    return out


def _conjugate(f, act, p):
    """p A p^-1 for every action matrix A."""
    inv = linalg.invert(f, p)
    return [linalg.mat_mul(p, linalg.mat_mul(a, inv)) for a in act]


def _scale_diagonal(act, diag, inv):
    """D A D^-1 for D = diag(diag), given D^-1 = diag(inv) (an inverse at
    m = 1024 is slow, so it is written down, not computed)."""
    return [
        [{c: x * diag[r] * inv[c] for c, x in row.items()} for r, row in enumerate(mat)]
        for mat in act
    ]


def _dense_unimodular(f, d, rng):
    """A seeded dense matrix with determinant 1 and small integer and
    zeta entries: a lower times an upper unitriangular matrix."""
    z = f.zeta(1)

    def entry():
        return f.from_rational(rng.randint(-2, 2)) + z * rng.randint(-1, 1)

    low = [{**{c: entry() for c in range(r)}, r: f.one} for r in range(d)]
    up = [{r: f.one, **{c: entry() for c in range(r + 1, d)}} for r in range(d)]
    return [linalg.sparse(linalg.dense(f, row, d)) for row in linalg.mat_mul(low, up)]


def _check_perturbations(alg, act, d, rng, count, must_fail=True):
    """act is a representation; single-entry perturbations get the oracle's
    verdict, and fail (must_fail) where the algebra leaves no room for a
    perturbed representation."""
    f = alg.field
    assert _defect(alg, act, d) is None and _oracle(alg, act, d) is None
    for _ in range(count):
        k, r, c = rng.randrange(len(act)), rng.randrange(d), rng.randrange(d)
        delta = rng.choice([f.one, -f.one, f.from_rational(2), f.zeta(1)])
        bad = _perturbed(f, act, k, r, c, delta)
        got = _defect(alg, bad, d)
        assert got == _oracle(alg, bad, d)
        assert got is not None or not must_fail


@pytest.fixture(scope="module")
def catalog():
    return catalog_modules()


def test_every_catalog_module_and_its_perturbations(catalog):
    rng = random.Random(12)
    for module in catalog.values():
        if module.dim:
            _check_perturbations(module.algebra, module.action, module.dim, rng, 2)


@pytest.mark.parametrize("name", ["V3", "E+2", "loopE1", "U++3", "bd_loop", "O-4c"])
def test_dense_conjugates_and_their_perturbations(catalog, name):
    module = catalog[name]
    rng = random.Random(name)
    p = _dense_unimodular(module.field, module.dim, rng)
    dense = _conjugate(module.field, module.action, p)
    _check_perturbations(module.algebra, dense, module.dim, rng, 4)


def test_large_sparse_module_and_its_perturbations():
    # V_lambda is nearly monomial: the products are formed only where
    # stored entries meet, so d = 161 costs about as much as its nonzeros
    module = make_V_lambda(160)
    _check_perturbations(module.algebra, module.action, module.dim, random.Random(160), 3)


def _heisenberg(m):
    """The colour Heisenberg algebra [[x, y]] = z over Z_n x Z_n, with
    eps(x, y) = zeta_m^(m/n), and its 3-dim module v0 -> v1 -> v2; n = m up
    to m = 12 and n = 4 at larger m (the factor is checked on every pair of
    group elements), and over Q (m = 1) n = 2 and eps = 1."""
    f = field(m)
    n = 2 if m == 1 else m if m <= 12 else 4
    group = AbelianGroup([n, n])
    e = m // n if m > 1 else 0
    eps = CommutationFactor(group, f, [[0, e], [-e, 0]])
    basis = [("x", (1, 0)), ("y", (0, 1)), ("z", (1, 1))]
    alg = make_algebra(group, eps, basis, {(0, 1): {2: 1}})
    act = [[{}, {0: f.one}, {}], [{}, {}, {1: f.one}], [{}, {}, {0: -eps.eval((1, 0), (0, 1))}]]
    return alg, act


@pytest.mark.parametrize("m", [1, 3, 4, 5, 8, 12, 1024])
def test_cyclotomic_orders(m):
    alg, act = _heisenberg(m)
    f = alg.field
    rng = random.Random(m)
    # the Heisenberg algebra has many 3-dim representations, so some
    # perturbations stay valid
    _check_perturbations(alg, act, 3, rng, 6, must_fail=False)
    # spread the entries over several powers of zeta, with denominators
    k = m // 2 + 1
    diag = [f.one, f.zeta(k) / 3, f.zeta(1) * 2]
    inv = [f.one, f.zeta(-k) * 3, f.zeta(-1) / 2]
    spread = _scale_diagonal(act, diag, inv)
    _check_perturbations(alg, spread, 3, rng, 6, must_fail=False)


def test_dimension_zero_and_empty_algebra():
    alg = make_V_lambda(2).algebra
    assert _defect(alg, [[], [], []], 0) is None
    assert GradedModule(alg, full_subgroup(GROUP), [], [[], [], []]).dim == 0
    empty = make_algebra(GROUP, sl2c_factor(), [], {})
    assert empty.dim() == 0
    assert _defect(empty, [], 4) is None


@pytest.mark.parametrize("make", [lambda: make_V_lambda(3), lambda: _heisenberg(12)])
def test_large_entries_take_the_python_int_branch(monkeypatch, make):
    # conjugating by diag(2^40, 1, ...) makes entries near 2^80 after
    # clearing denominators, past the int64 bound: the same verdicts must
    # come from the Python-int branch
    made = make()
    alg, act = (made.algebra, made.action) if isinstance(made, GradedModule) else made
    f, d = alg.field, len(act[0])
    chosen = []
    choose = linalg._exact_dtype
    monkeypatch.setattr(linalg, "_exact_dtype", lambda bound: chosen.append(choose(bound)) or chosen[-1])
    diag = [f.from_rational(2**40)] + [f.one] * (d - 1)
    inv = [f.from_rational(Fraction(1, 2**40))] + [f.one] * (d - 1)
    rng = random.Random(40)
    for _ in range(6):
        k, r, c = rng.randrange(len(act)), rng.randrange(d), rng.randrange(d)
        for sample in (act, _perturbed(f, act, k, r, c, f.one)):
            chosen.clear()
            plain = _defect(alg, sample, d)
            assert chosen == [np.int64]
            big = _defect(alg, _scale_diagonal(sample, diag, inv), d)
            assert chosen == [np.int64, object]
            assert big == plain
        assert plain is not None
