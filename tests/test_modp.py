import functools
import gc
import importlib.util
import os
import random
import re
from fractions import Fraction
from math import isqrt
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from liecolour import (
    AbelianGroup,
    coarsen,
    commutant,
    direct_sum,
    dual_characters,
    field,
    intertwiners,
    is_isomorphic,
    jsonio,
    linalg,
    modp,
    parity_shift,
    recolour_module,
    trivial_subgroup,
    twist,
)
from liecolour import gmodule
from liecolour.abelian import _prime_factors, jordan_holder, subgroup_from_generators
from liecolour.colouralg import ColourAlgebra
from liecolour.grading import CommutationFactor
from liecolour.gmodule import GradedModule, _closure_rank_exact, _intertwiner_system
from liecolour.loopfunctor import loop
from liecolour.workbench import (
    GROUP,
    catalog_modules,
    classify_lambda,
    discolouring_sigma,
    make_bd_model,
    make_V_lambda,
    sl2c_factor,
)

from conftest import augmented_closure_rank


def _fp_by_coefficient(x, p, omega):
    """The F_p image computed one Fraction coordinate at a time."""
    acc, w = 0, 1
    for c in x.coeffs:
        if c:
            acc = (acc + c.numerator % p * pow(c.denominator % p, -1, p) * w) % p
        w = w * omega % p
    return acc


def _diagonal_images(scalars, p, omega):
    """The F_p images of the scalars through an FpView, as the diagonal of
    one sparse diagonal matrix."""
    n = len(scalars)
    image = modp.FpView([[{i: x} for i, x in enumerate(scalars)]], n).images(p, omega)
    return [int(x) for x in image[0].diagonal()]


@pytest.mark.parametrize("m", [3, 4, 12])
def test_scalar_to_fp_matches_the_per_coefficient_formula(m):
    # FpView is the library's one map from scalars to F_p
    f = field(m)
    p, omega = modp.fp_for_field(f)
    rng = random.Random(3000 + m)

    def rand():
        big = rng.random() < 0.3
        return f.num([
            Fraction(rng.randint(-10**9, 10**9) if big else rng.randint(-40, 40),
                     rng.randint(1, 10**7) if big else rng.randint(1, 30))
            for _ in range(f.degree)
        ])

    pairs = [(rand(), rand()) for _ in range(200)]
    a_images, b_images, products, sums = (
        _diagonal_images(column, p, omega)
        for column in zip(*((a, b, a * b, a + b) for a, b in pairs))
    )
    assert a_images == [_fp_by_coefficient(a, p, omega) for a, _ in pairs]
    # zeta -> omega is a ring map
    assert products == [x * y % p for x, y in zip(a_images, b_images)]
    assert sums == [(x + y) % p for x, y in zip(a_images, b_images)]


@pytest.mark.parametrize("m", [3, 4, 12])
def test_scalar_to_fp_refuses_a_denominator_divisible_by_p(m):
    f = field(m)
    p, omega = modp.fp_for_field(f)
    for x in (f.from_rational(Fraction(3, p)),
              f.num([Fraction(1, 2)] + [Fraction(1, 2 * p)] * (f.degree - 1))):
        with pytest.raises(ValueError):
            modp.FpView([[{0: x}]], 1).images(p, omega)


def _block_closure_rank(module):
    p, omega = modp.fp_for_field(module.field)
    fp = module.fp_view.images(p, omega)
    parts = [idx for idx in module.sector_indices().values() if idx]
    return modp.closure_rank(fp, p, module.dim, parts)


def test_block_closure_rank_equals_the_exact_closure():
    modules = catalog_modules(4)
    modules["loopE2"] = loop(modules["E2"], trivial_subgroup(GROUP)).module
    # reducible: closures below d^2, ungraded and graded
    modules["V1+V2"] = direct_sum(modules["V1"], modules["V2"])
    modules["E+2+O-2"] = direct_sum(modules["E+2"], modules["O-2"])
    # one vector in Z2 x Z2: three empty sectors
    modules["E+0 shifted"] = parity_shift(modules["E+0"], (1, 0))
    # a degree-0 generator that is no bracket, so its block from a sector
    # into itself is needed
    abelian = ColourAlgebra(GROUP, sl2c_factor(), [("x", (0, 0))], {})
    modules["diag(1, 2)"] = GradedModule(
        abelian, trivial_subgroup(GROUP), [(0, 0)] * 2, [[{0: 1}, {1: 2}]]
    )
    ranks = {}
    for name, m in modules.items():
        parts = [idx for idx in m.sector_indices().values() if idx]
        exact = _closure_rank_exact(m.field, m.action, parts, m.dim)
        ranks[name] = (_block_closure_rank(m), exact, augmented_closure_rank(m))
    assert {name: r for name, r in ranks.items() if len(set(r)) > 1} == {}
    assert len(ranks) == 62
    below = [name for name, (*_, oracle) in ranks.items() if oracle < modules[name].dim ** 2]
    assert {"loopE2", "V1+V2", "E+2+O-2", "diag(1, 2)"} <= set(below)


# ---------------------------------------------------------------------------
# The incremental F_p echelon, the spin tree and the closure's int64 bound
# ---------------------------------------------------------------------------

@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 7, 1048589]),
    st.integers(1, 80),
    st.lists(
        st.sampled_from(["random", "zero", "repeat", "combination", "sparse"]), max_size=120
    ),
    st.integers(0, 2**32 - 1),
)
@example(1048589, 12, ["random"] * 16 + ["zero", "repeat", "combination"], 0)
@example(7, 20, ["sparse"] * 24 + ["combination", "random"], 0)
def test_echelon_equals_the_batch_rref(p, ncols, kinds, seed):
    # rows fed one at a time give the basis fp_rref gives on the stack, also
    # once the basis fills its ncols rows and more rows arrive; a sparse row
    # (one to three nonzeros) has a zero coefficient on most basis rows
    rng = np.random.default_rng(seed)
    rows = []
    for kind in kinds:
        if kind == "sparse":
            row = np.zeros(ncols, dtype=np.int64)
            at = rng.choice(ncols, size=min(ncols, rng.integers(1, 4)), replace=False)
            row[at] = rng.integers(1, p, at.size)
        elif kind == "random" or not rows:
            row = rng.integers(0, p, ncols)
        elif kind == "zero":
            row = np.zeros(ncols, dtype=np.int64)
        elif kind == "repeat":
            row = rows[rng.integers(len(rows))].copy()
        else:
            coeffs = rng.integers(0, p, len(rows))
            row = coeffs @ np.array(rows) % p
        rows.append(row.astype(np.int64))
    ech = modp._FpEchelon(ncols, p)
    for row in rows:
        before = ech.rank
        added = ech.add(row.copy())
        assert (added is None) == (ech.rank == before)
        if added is not None:
            assert added[ech.pivots[before]] == 1
    stacked = np.array(rows, dtype=np.int64).reshape(-1, ncols)
    pivots = modp.fp_rref(stacked, p)
    order = np.argsort(ech.pivots[: ech.rank])
    assert ech.pivots[: ech.rank][order].tolist() == pivots
    assert np.array_equal(ech.rows[: ech.rank][order], stacked[: len(pivots)])


def test_spin_tree_starts_a_generator_for_each_closed_block():
    # blocks {0, 1}, {2, 3, 4} and {5}: a cyclic shift on each block, and a
    # second matrix that keeps the blocks
    p, d = modp.prime_for(4), 6
    shift = np.zeros((d, d), dtype=np.int64)
    for i, j in ((1, 0), (0, 1), (3, 2), (4, 3), (2, 4)):
        shift[i, j] = 1
    other = np.zeros((d, d), dtype=np.int64)
    other[:2, :2] = [[5, 7], [11, 13]]
    other[2:5, 2:5] = [[2, 0, 1], [3, 4, 0], [0, 6, 8]]
    other[5, 5] = 9
    mats = np.stack([shift, other])
    tree = modp._spin_tree(mats, p, d)
    assert [c for k, c in tree if k is None] == [0, 2, 5]
    basis = []
    for i, (k, j) in enumerate(tree):
        if k is None:
            basis.append(np.eye(1, d, j, dtype=np.int64)[0])
        else:
            assert j < i
            basis.append(mats[k] @ basis[j] % p)
    assert modp.fp_rank(np.array(basis), p) == d


def _primes_near_2_30(m):
    """A stand-in for prime_for at this m, with 2^30 in place of 2^20: the
    (i+1)-th smallest prime p > 2^30 with p = 1 (mod m)."""

    @functools.lru_cache(maxsize=None)
    def prime(_, i=0):
        p = prime(m, i - 1) + m if i else (1 << 30) + 1 + (-(1 << 30)) % m
        while _prime_factors(p) != {p}:
            p += m
        return p

    return prime


def test_closure_past_the_int64_bound_gives_no_certificate(monkeypatch):
    V, graded = make_V_lambda(2), catalog_modules(2)["E+2"]
    f = V.field
    parts = {name: [idx for idx in M.sector_indices().values() if idx]
             for name, M in (("V", V), ("graded", graded))}
    assert modp.certifies_full_closure(f, V.fp_view, parts["V"])
    assert modp.certifies_full_closure(f, graded.fp_view, parts["graded"])
    # at a prime p = 1 (mod 4) near 2^30, 3^2 (p - 1)^2 > 2^63: the view's
    # one bound refuses both, whatever their sectors (V has one of 3, E+2
    # three of 1)
    monkeypatch.setattr(modp, "prime_for", _primes_near_2_30(f.m))
    assert not modp.certifies_full_closure(f, V.fp_view, parts["V"])
    assert not modp.certifies_full_closure(f, graded.fp_view, parts["graded"])


def test_one_int64_bound_stops_every_certificate(monkeypatch):
    """At a prime p near 2^30, max(d^2, phi(m)) (p - 1)^2 < 2^63 holds for
    d = 2 and fails for d = 3: a view of dimension 3 gets no certificate
    from any of the three certificate functions, one of dimension 2 does."""

    def certificates(M):
        f, view = M.field, M.fp_view
        parts = [idx for idx in M.sector_indices().values() if idx]
        return (modp.certifies_full_closure(f, view, parts),
                modp.whole_spin_test(f, view)({0: f.one}),
                modp.certified_hom(f, view, view, M.degrees, M.degrees))

    identity = [[{0: F4.one}, {1: F4.one}]]
    assert certificates(make_V_lambda(1)) == (True, True, identity)
    assert certificates(make_V_lambda(2))[:2] == (True, True)
    monkeypatch.setattr(modp, "prime_for", _primes_near_2_30(F4.m))
    p = modp.fp_for_field(F4)[0]
    assert 1 << 30 < p and 4 * (p - 1) ** 2 < 1 << 63 <= 9 * (p - 1) ** 2
    assert certificates(make_V_lambda(1)) == (True, True, identity)
    assert certificates(make_V_lambda(2)) == (False, False, None)
    V = make_V_lambda(2)
    with pytest.raises(ValueError, match="overflow int64"):
        V.fp_view.images(p, modp.order_m_root(F4.m, p))


# ---------------------------------------------------------------------------
# Hom by spinning mod p against the exact nullspace
# ---------------------------------------------------------------------------

def _exact_maps(V, W):
    """The intertwiner basis that linalg.nullspace gives, as matrices."""
    variables, rows = _intertwiner_system(V, W)
    out = []
    for sol in linalg.nullspace(V.field, rows, len(variables)):
        mat = linalg.zeros(W.dim)
        for t, x in sol.items():
            r, c = variables[t]
            mat[r][c] = x
        out.append(mat)
    return out


def _certified(V, W):
    """certified_hom on (V, W): None when there is no certificate."""
    return modp.certified_hom(V.field, V.fp_view, W.fp_view, V.degrees, W.degrees)


def _same_shape(V, W):
    return V.algebra == W.algebra and V.hsub == W.hsub and V.dim == W.dim


def test_intertwiners_equal_the_exact_nullspace_on_the_catalog():
    modules = catalog_modules(4)
    pairs = [(a, b) for a in modules for b in modules if _same_shape(modules[a], modules[b])]
    assert len(pairs) == 171
    differ = [(a, b) for a, b in pairs
              if intertwiners(modules[a], modules[b]) != _exact_maps(modules[a], modules[b])]
    assert differ == []
    # every pair was solved by spinning, none fell back
    fell_back = [(a, b) for a, b in pairs if _certified(modules[a], modules[b]) is None]
    assert fell_back == []


def _perfbench_inputs():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "inputs.py")
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_intertwiners_equal_the_exact_nullspace_on_dense_conjugates(tmp_path):
    inputs = _perfbench_inputs()
    inputs.write_inputs(2, str(tmp_path))

    def load(stem):
        return jsonio.load_file(str(tmp_path / f"{stem}.json"))[1]

    checked = 0
    for stem in inputs.DENSE:
        plain, dense = load(stem), load(f"{stem}_dense")
        for V, W in ((plain, dense), (dense, plain), (dense, dense)):
            maps = intertwiners(V, W)
            assert maps == _exact_maps(V, W), stem
            assert maps and _certified(V, W) is not None, stem
            checked += 1
    assert checked == 24


def test_a_heavy_classification_row_takes_no_fallback(monkeypatch):
    """classify_lambda(13) (modules of dimension 28) passes with every Hom
    solved by spinning: the fallback's dense system is never built."""
    def refuse(V, W):
        raise AssertionError("intertwiners fell back to the dense system")

    monkeypatch.setattr(gmodule, "_intertwiner_system", refuse)
    row = classify_lambda(13)
    assert row.passed and row.graded_dims == [28]


@functools.cache
def _families():
    """The catalog up to lambda = 3, in lists of modules of one algebra and
    grading (the lists of two or more)."""
    families = []
    for m in catalog_modules(3).values():
        for fam in families:
            if fam[0].algebra == m.algebra and fam[0].hsub == m.hsub:
                fam.append(m)
                break
        else:
            families.append([m])
    return [fam for fam in families if len(fam) > 1]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.data())
def test_a_sector_preserving_conjugate_is_isomorphic(data):
    """V and P V P^-1 for a random invertible P that keeps each sector: Hom
    is the exact basis, and an isomorphism is found."""
    family = data.draw(st.sampled_from(_families()), label="family")
    V = data.draw(st.sampled_from(family), label="V")
    f = V.field
    entry = st.builds(lambda a, b: f.num([a, b]), st.integers(-3, 3), st.integers(-2, 2))
    P = linalg.zeros(V.dim)
    for idx in V.sector_indices().values():
        for r in idx:
            for c in idx:
                x = data.draw(entry, label="P")
                if not x.is_zero():
                    P[r][c] = x
    P_inv = linalg.invert(f, P)
    assume(P_inv is not None)
    conj = [linalg.mat_mul(linalg.mat_mul(P, a), P_inv) for a in V.action]
    W = GradedModule(V.algebra, V.hsub, V.degrees, conj)
    maps = intertwiners(V, W)
    assert maps == _exact_maps(V, W) and len(maps) == len(intertwiners(V, V))
    assert is_isomorphic(V, W) and is_isomorphic(W, V)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.data())
def test_hom_from_a_direct_sum_adds_up(data):
    """dim Hom(V + W, X) = dim Hom(V, X) + dim Hom(W, X) and the other way
    round; V + W is spun from several unit vectors."""
    family = data.draw(st.sampled_from(_families()), label="family")
    V, W, X = (data.draw(st.sampled_from(family), label=n) for n in "VWX")
    S = direct_sum(V, W)
    for a, b in ((S, X), (X, S)):
        maps = intertwiners(a, b)
        assert maps == _exact_maps(a, b)
    split = (len(intertwiners(V, X)) + len(intertwiners(W, X)),
             len(intertwiners(X, V)) + len(intertwiners(X, W)))
    assert (len(intertwiners(S, X)), len(intertwiners(X, S))) == split


F4 = field(4)
P4 = modp.prime_for(4)


def _abelian(f):
    """One degree-0 generator over f, so any matrix is a module action."""
    return ColourAlgebra(GROUP, CommutationFactor(GROUP, f, [[0, 0], [0, 0]]), [("x", (0, 0))], {})


def _modules(f, *actions):
    """Modules of _abelian(f), all in degree 0, of the given actions."""
    alg = _abelian(f)
    return [GradedModule(alg, trivial_subgroup(GROUP), [(0, 0)] * len(a), [a]) for a in actions]


def _realising(rows, ncols, f=F4):
    """Modules V, W whose intertwiner system is `rows` on ncols variables
    (ncols >= len(rows)): V a line on which a degree-0 generator acts as 0,
    W = F^ncols on which it acts as -R, so M: V -> W intertwines iff R m = 0
    (the abelian algebra makes any action a module).  Spinning V is trivial."""
    neg = [{j: -x for j, x in row.items()} for row in rows]
    neg += [{} for _ in range(ncols - len(rows))]
    V, W = _modules(f, [{}], neg)
    assert _intertwiner_system(V, W) == ([(r, 0) for r in range(ncols)], rows)
    return V, W


def _realising_dually(rows, ncols, f=F4):
    """Modules V, W with the same system as _realising, the other way round
    (ncols >= len(rows)): V = F^ncols on which the generator acts as R^T, W a
    line on which it acts as 0, so M: V -> W intertwines iff M R^T = 0.
    Here V is spun from unit vectors under R^T, with several generators
    when R^T is not cyclic."""
    V, W = _modules(f, linalg.transpose(rows, ncols), [{}])
    assert _intertwiner_system(V, W) == ([(0, c) for c in range(ncols)], rows)
    return V, W


def _q(x):
    return F4.from_rational(x)


# systems with a one-dimensional exact nullspace that no certificate covers;
# the flag says whether they get as far as lifting a candidate
NO_CERTIFICATE = {
    # p divides a denominator: the system has no image mod p
    "denominator divisible by p": (lambda: [{0: _q(Fraction(1, P4)), 1: F4.one}], False),
    # p -> 0: the rank drops mod p, the candidate fails the exact check and
    # the next prime has other last columns
    "rank drop": (lambda: [{0: _q(P4), 1: F4.one}], True),
    # zeta - w vanishes under zeta -> w, whose rational candidate fails the
    # exact check, but not under zeta -> w^3 = -w, which has other last columns
    "pivots differ between embeddings": (
        lambda: [{0: F4.zeta() - modp.order_m_root(4, P4), 1: F4.one}], True),
}


@pytest.mark.parametrize("name", sorted(NO_CERTIFICATE))
def test_each_fallback_returns_the_exact_basis(name, monkeypatch):
    make, lifted = NO_CERTIFICATE[name]
    V, W = _realising(make(), 2)
    if not lifted:
        def refuse(*args):
            raise AssertionError("lifted a candidate")
        monkeypatch.setattr(modp, "_lift", refuse)
    assert _certified(V, W) is None
    maps = intertwiners(V, W)
    assert maps == _exact_maps(V, W) and len(maps) == 1


def test_a_height_past_four_primes_is_lifted_within_its_bound(monkeypatch):
    # the nullspace (10^13, 1) needs a modulus past 2 10^26, five primes of
    # about 2^20; the height bound of the inputs lets the lift go that far
    rows = [{0: F4.one, 1: _q(-10**13)}]
    V, W = _realising(rows, 2)
    assert 2 * 10**26 < P4**5 and P4**4 < 2 * 10**26
    calls = _solves_per_call(monkeypatch)
    assert _certified(V, W) == _exact_maps(V, W) == [[{0: _q(10**13)}, {0: F4.one}]]
    assert len(set(calls[0][1])) == 5
    assert 2 * modp._hom_height(F4, V.fp_view.action, W.fp_view.action,
                                V.degrees, W.degrees) ** 2 >= P4**5


def test_order_m_root_has_exact_order_m():
    for m in range(1, 1025):
        p = modp.prime_for(m)
        w = modp.order_m_root(m, p)
        # the order is the least divisor k of m with w^k = 1
        assert min(k for k in range(1, m + 1) if m % k == 0 and pow(w, k, p) == 1) == m


def _rational_by_search(u, modulus):
    """The fraction a/b = u (mod modulus) with |a|, b <= sqrt(modulus/2),
    found by trying every b, or None."""
    bound = isqrt(modulus // 2)
    found = set()
    for b in range(1, bound + 1):
        a = u * b % modulus
        a = a - modulus if a > modulus // 2 else a
        if abs(a) <= bound:
            found.add(Fraction(a, b))
    assert len(found) <= 1
    return found.pop() if found else None


@pytest.mark.parametrize("modulus", [97, 1009])
def test_rational_reconstruction_equals_a_search(modulus):
    for u in range(modulus):
        assert modp._rational(u, modulus) == _rational_by_search(u, modulus), u


def test_heights_beyond_one_prime_are_lifted_by_crt():
    # the solution (1/1009, 1000003, 1) needs three primes: one prime
    # reconstructs numerators and denominators up to 724 only
    assert isqrt(P4 // 2) == 724
    rows = [{0: F4.one, 2: _q(Fraction(-1, 1009))}, {1: F4.one, 2: _q(-1000003)}]
    exact = linalg.nullspace(F4, rows, 3)
    assert exact == [{0: _q(Fraction(1, 1009)), 1: _q(1000003), 2: F4.one}]
    for V, W in (_realising(rows, 3), _realising_dually(rows, 3)):
        assert _certified(V, W) == _exact_maps(V, W) == intertwiners(V, W)
        assert len(_exact_maps(V, W)) == 1


def _solves_per_call(monkeypatch):
    """Wrap modp.certified_hom and modp._hom_solutions: the returned list
    gets, per certified_hom call, [result, primes of its solves]."""
    calls = []
    real_hom, real_solve = modp.certified_hom, modp._hom_solutions

    def hom(*args):
        call = [None, []]
        calls.append(call)
        call[0] = real_hom(*args)
        return call[0]

    def solve(act_v, act_w, tree, unknowns, p):
        calls[-1][1].append(p)
        return real_solve(act_v, act_w, tree, unknowns, p)

    monkeypatch.setattr(modp, "certified_hom", hom)
    monkeypatch.setattr(modp, "_hom_solutions", solve)
    return calls


def test_a_rational_hom_basis_is_solved_under_one_embedding(monkeypatch):
    """Every Hom basis of classify_lambda(0..21) is rational, so each
    certified_hom call that is not answered at once solves one embedding
    per prime it uses."""
    calls = _solves_per_call(monkeypatch)
    for lam in range(22):
        assert classify_lambda(lam).passed
    solved = [primes for _, primes in calls if primes]
    assert len(solved) >= 100
    assert all(len(primes) == len(set(primes)) for primes in solved)
    assert all(out is not None for out, _ in calls)


def _conjugate(V, P):
    """P rho_V P^-1 as a module of V's algebra and grading."""
    P_inv = linalg.invert(V.field, P)
    conj = [linalg.mat_mul(linalg.mat_mul(P, a), P_inv) for a in V.action]
    return GradedModule(V.algebra, V.hsub, V.degrees, conj)


def test_a_hom_basis_that_is_not_rational_is_solved_under_every_embedding(monkeypatch):
    """V_1 and its conjugate by diag(1, i), and V_2 and a dense conjugate
    by a Gaussian unimodular P: the only intertwiners are not rational, so
    the rational candidate of the first embedding fails and the second
    embedding of Q(i) is solved at the same prime."""
    f = make_V_lambda(1).field
    i = f.zeta()
    assert f.m == 4 and i * i == -f.one
    g = lambda a, b: f.num([a, b])  # a + b i
    upper = [{0: f.one, 1: g(1, 1), 2: g(0, -2)}, {1: f.one, 2: g(2, 1)}, {2: f.one}]
    lower = [{0: f.one}, {0: g(-1, 2), 1: f.one}, {0: g(1, 0), 1: g(0, 1), 2: f.one}]
    cases = [(make_V_lambda(1), [{0: f.one}, {1: i}]),
             (make_V_lambda(2), linalg.mat_mul(upper, lower))]
    calls = _solves_per_call(monkeypatch)
    for V, P in cases:
        W = _conjugate(V, P)
        del calls[:]
        maps = _certified(V, W)
        assert maps is not None and maps == _exact_maps(V, W) and len(maps) == 1
        assert not all(x.is_rational() for row in maps[0] for x in row.values())
        assert calls[0][1] == [P4, P4]
    # Hom(V_1, P V_1 P^-1) is spanned by P, scaled to 1 at its last entry
    V1, P = cases[0]
    assert _certified(V1, _conjugate(V1, P)) == [[{0: -i}, {1: f.one}]]


def _entry(data, f, p, kind):
    """A random element with small coordinates, or for one entry in four
    of a "large" or "p" system, large or p-adically awkward ones."""
    special = kind != "small" and data.draw(st.integers(0, 3), label="special") == 0
    coeffs = []
    for _ in range(f.degree):
        if not special or data.draw(st.booleans(), label="plain"):
            c = Fraction(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 3)))
        elif kind == "large":
            c = Fraction(data.draw(st.integers(-10**6, 10**6)), data.draw(st.integers(1, 10**3)))
        else:
            c = data.draw(st.sampled_from([Fraction(p), Fraction(-2 * p), Fraction(1, p)]))
        coeffs.append(c)
    return f.num(coeffs)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.sampled_from([1, 3, 4, 5, 12]), st.data())
def test_certified_hom_is_none_or_the_exact_basis(m, data):
    f = field(m)
    p = modp.prime_for(m)
    kind = data.draw(st.sampled_from(["small", "large", "p"]), label="kind")
    ncols = data.draw(st.integers(1, 6), label="ncols")
    rows = []
    for _ in range(data.draw(st.integers(1, 4), label="nrows")):
        row = {}
        for j in range(ncols):
            if data.draw(st.booleans(), label="nonzero"):
                x = _entry(data, f, p, kind)
                if not x.is_zero():
                    row[j] = x
        if row:
            rows.append(row)
    # a dependent row makes the system rank-deficient
    if rows and data.draw(st.booleans(), label="dependent"):
        c = _entry(data, f, p, kind)
        extra = linalg.axpy(dict(rows[0]), c, rows[-1]) if not c.is_zero() else dict(rows[0])
        if extra:
            rows.append(extra)
    # a system with more rows than variables gets unconstrained variables
    ncols = max(ncols, len(rows))
    for V, W in (_realising(rows, ncols, f), _realising_dually(rows, ncols, f)):
        out = _certified(V, W)
        assert out is None or out == _exact_maps(V, W)


def test_zero_actions_give_the_unit_maps_at_once(monkeypatch):
    """Both actions zero: every degree-0 map intertwines, and the basis is
    the E_rc in the order of the intertwiner system's variables, which is
    what linalg.nullspace gives for a system without rows."""
    def refuse(*args):
        raise AssertionError("spun a module whose action is zero")

    monkeypatch.setattr(modp, "_spin_tree", refuse)
    alg = _abelian(F4)
    graded = trivial_subgroup(GROUP)
    ungraded = subgroup_from_generators(GROUP, [(1, 0), (0, 1)])
    cases = [
        (graded, [(0, 0), (1, 0), (0, 0)], [(1, 0), (0, 0), (1, 1), (0, 0)], 5),
        (graded, [(1, 1)], [(1, 1), (0, 1), (1, 1)], 2),
        (ungraded, [(0, 0), (1, 0)], [(1, 1), (0, 0), (0, 1)], 6),
    ]
    for hsub, deg_v, deg_w, count in cases:
        V, W = (GradedModule(alg, hsub, deg, [[{}] * len(deg)]) for deg in (deg_v, deg_w))
        variables, rows = _intertwiner_system(V, W)
        assert rows == [] and len(variables) == count
        assert linalg.nullspace(F4, rows, count) == [{t: F4.one} for t in range(count)]
        assert _certified(V, W) == _exact_maps(V, W) == intertwiners(V, W)


# ---------------------------------------------------------------------------
# The rank-one path of certifies_full_closure against the closure rank
# ---------------------------------------------------------------------------

def _parts(degrees):
    """The basis indices of each non-empty sector, by degree."""
    parts = {}
    for i, deg in enumerate(degrees):
        parts.setdefault(deg, []).append(i)
    return list(parts.values())


def _closure_verdicts(module):
    """certifies_full_closure on the module, closure_rank == d^2 on its F_p
    image, and the unblocked exact oracle's rank == d^2."""
    f, d = module.field, module.dim
    parts = _parts(module.degrees)
    p, omega = modp.fp_for_field(f)
    view = modp.FpView(module.action, d)
    fp = view.images(p, omega)
    return (modp.certifies_full_closure(f, view, parts),
            modp.closure_rank(fp, p, d, parts) == d * d,
            augmented_closure_rank(module) == d * d)


def _random_graded_action(data):
    """Random homogeneous matrices on a Z2 x Z2-graded F4^d, with the
    attributes augmented_closure_rank reads: a graded action that need not
    be a module of any algebra, which the closure does not ask."""
    elements = GROUP.elements()
    d = data.draw(st.integers(1, 5), label="d")
    degrees = [data.draw(st.sampled_from(elements), label="degree") for _ in range(d)]
    mats = []
    for _ in range(data.draw(st.integers(1, 3), label="generators")):
        g = data.draw(st.sampled_from(elements), label="generator degree")
        mat = [{} for _ in range(d)]
        for r in range(d):
            for c in range(d):
                if degrees[r] == GROUP.add(degrees[c], g) and data.draw(st.booleans()):
                    x = F4.num([data.draw(st.integers(-2, 2)), data.draw(st.integers(-1, 1))])
                    if not x.is_zero():
                        mat[r][c] = x
        mats.append(mat)
    return SimpleNamespace(field=F4, dim=d, degrees=degrees, action=mats,
                           algebra=SimpleNamespace(group=GROUP), hsub=trivial_subgroup(GROUP))


def _sector_conjugate(V, data):
    """P V P^-1 for a random invertible P that keeps each sector."""
    f = V.field
    entry = st.builds(lambda a, b: f.num([a, b]), st.integers(-3, 3), st.integers(-2, 2))
    P = linalg.zeros(V.dim)
    for idx in V.sector_indices().values():
        for r in idx:
            for c in idx:
                x = data.draw(entry, label="P")
                if not x.is_zero():
                    P[r][c] = x
    P_inv = linalg.invert(f, P)
    assume(P_inv is not None)
    conj = [linalg.mat_mul(linalg.mat_mul(P, a), P_inv) for a in V.action]
    return GradedModule(V.algebra, V.hsub, V.degrees, conj)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_full_closure_certificate_equals_the_closure_rank_and_the_oracle(data):
    """The rank-one path and its fallback answer closure_rank == d^2 on every
    input, and so does the exact closure here: catalog modules, direct sums,
    twists, sector-preserving dense conjugates (no diagonal block: the
    fallback) and random graded actions (both verdicts)."""
    kind = data.draw(st.sampled_from(["catalog", "sum", "twist", "conjugate", "action"]))
    if kind == "action":
        module = _random_graded_action(data)
    else:
        family = data.draw(st.sampled_from(_families()), label="family")
        module = data.draw(st.sampled_from(family), label="module")
        if kind == "sum":
            small = [m for m in family if m.dim <= 5] or [module]
            module = direct_sum(*(data.draw(st.sampled_from(small), label="summand")
                                  for _ in range(2)))
        elif kind == "twist":
            characters = dual_characters(module.algebra.group)
            module = twist(module, data.draw(st.sampled_from(characters), label="character"))
        elif kind == "conjugate":
            module = _sector_conjugate(module, data)
    full, by_rank, by_oracle = _closure_verdicts(module)
    assert full == by_rank == by_oracle


def _refuse_closure_rank(monkeypatch):
    def refuse(*args):
        raise AssertionError("closure_rank was called")

    monkeypatch.setattr(modp, "closure_rank", refuse)


@pytest.mark.parametrize("forward", [True, False])
def test_a_non_split_extension_fails_one_spin(monkeypatch, forward):
    """Z2-graded, odd x acting by [[0, 0], [1, 0]]: e_0 is alone in its
    sector, and x e_0 = e_1 spins it to all of F_p^2, but x^T e_0 = 0, so
    the closure is not End(F_p^2) and closure_rank is not needed to say
    so.  The witness is the submodule spanned by e_1.  With x^T acting
    instead, the forward spin is the proper one, and the witness is e_0's."""
    z2 = AbelianGroup([2])
    alg = ColourAlgebra(z2, CommutationFactor(z2, F4, [[2]]), [("x", (1,))], {})
    x = [{}, {0: 1}] if forward else [{1: 1}, {}]
    V = GradedModule(alg, trivial_subgroup(z2), [(0,), (1,)], [x])
    parts = _parts(V.degrees)
    fp = V.fp_view.images(P4, modp.order_m_root(4, P4))
    assert modp._rank_one_index(fp, P4, parts) == 0
    assert modp._spans_all(fp, P4, 2, 0) == forward
    assert modp._spans_all(fp.transpose(0, 2, 1), P4, 2, 0) != forward
    _refuse_closure_rank(monkeypatch)
    assert not modp.certifies_full_closure(F4, V.fp_view, parts)
    verdict = gmodule.is_graded_irreducible(V)
    assert not verdict.irreducible and verdict.witness.dim == 1
    assert verdict.witness.rows == ({1 if forward else 0: F4.one},)


@pytest.mark.parametrize("x, y", [
    # a block with distinct diagonal entries that is not diagonal
    ([[1, 1], [1, 2]], [[0, 0], [0, 0]]),
    # a diagonal block whose entries repeat, and products that are scalars
    ([[2, 0], [0, 2]], [[0, 1], [1, 0]]),
])
def test_no_idempotent_from_a_block_that_is_not_a_usable_diagonal(x, y):
    """Two commuting degree-0 generators on one sector of two: the closure
    is the two-dimensional algebra they generate, while e_0 spins to all of
    F_p^2 both ways, so reading E_00 off either block would wrongly give
    End; no index is found, and closure_rank decides."""
    alg = ColourAlgebra(GROUP, CommutationFactor(GROUP, F4, [[0, 0], [0, 0]]),
                        [("x", (0, 0)), ("y", (0, 0))], {})
    V = GradedModule(alg, trivial_subgroup(GROUP), [(0, 0)] * 2, [x, y])
    fp = V.fp_view.images(P4, modp.order_m_root(4, P4))
    assert modp._spans_all(fp, P4, 2, 0) and modp._spans_all(fp.transpose(0, 2, 1), P4, 2, 0)
    assert modp._rank_one_index(fp, P4, [[0, 1]]) is None
    assert modp.closure_rank(fp, P4, 2, [[0, 1]]) == augmented_closure_rank(V) == 2
    assert not modp.certifies_full_closure(F4, V.fp_view, [[0, 1]])


def test_only_a_product_is_diagonal_on_loop_e3(monkeypatch):
    """loopE3 (d = 8, four sectors of 2) has no one-vector sector and every
    action matrix has a zero diagonal, so no single block V_t -> V_t is a
    diagonal with an entry once on it; a product through V_t -> V_s -> V_t
    gives E_ii, and two spins decide the closure.  Next to the trivial line
    E+0 the product's entry 0 at the line is the one that occurs once, and
    the line spins to itself."""
    catalog = catalog_modules(3)
    module = catalog["loopE3"]
    _refuse_closure_rank(monkeypatch)
    for M, full in ((module, True), (direct_sum(catalog["E+0"], module), False)):
        d, parts = M.dim, _parts(M.degrees)
        assert min(map(len, parts)) == 2
        p, omega = modp.fp_for_field(M.field)
        fp = M.fp_view.images(p, omega)
        assert not fp.diagonal(axis1=1, axis2=2).any()
        assert modp._rank_one_index(fp, p, parts) is not None
        assert modp.certifies_full_closure(M.field, M.fp_view, parts) == full
    verdict = gmodule.is_graded_irreducible(module)
    assert verdict.irreducible and verdict.closure_dim == 64


def test_catalog_irreducibility_never_falls_back_to_the_closure_rank(monkeypatch):
    """V_lambda, E+- and loopE at lambda <= 8 are certified by the rank-one
    path (a one-vector sector, a diagonal h block or a product): a silent
    fallback to closure_rank fails here."""
    calls = []
    real = modp.closure_rank

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(modp, "closure_rank", counting)
    modules = catalog_modules(8)
    names = [n for n in modules if re.fullmatch(r"(V|E[+-]|loopE)[0-9]", n)]
    assert len(names) == 9 + 10 + 4
    for name in names:
        verdict = gmodule.is_graded_irreducible(modules[name])
        assert verdict.irreducible and verdict.closure_dim == modules[name].dim ** 2, name
    assert calls == []


# ---------------------------------------------------------------------------
# One F_p view per module, and the witness search's whole-spin filter
# ---------------------------------------------------------------------------

def _exact_spin_dim(module, i):
    """Dimension of the exact spin of e_i under the module's action."""
    f = module.field

    def images(v):
        return (linalg.mat_vec(mat, v) for mat in module.action)

    return linalg.RowBasis(f, module.dim).close([{i: f.one}], images).rank


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_a_unit_vector_that_the_filter_skips_spins_to_the_whole_module(data):
    """Whenever whole_spin_test lets the witness search skip e_i, the
    exact spin of e_i is the whole module (the lattice argument of the modp
    docstring): catalog modules, direct sums (proper spins abound),
    sector-preserving dense conjugates and random homogeneous actions."""
    kind = data.draw(st.sampled_from(["catalog", "sum", "conjugate", "action"]))
    if kind == "action":
        module = _random_graded_action(data)
        view = modp.FpView(module.action, module.dim)
    else:
        family = data.draw(st.sampled_from(_families()), label="family")
        module = data.draw(st.sampled_from(family), label="module")
        if kind == "sum":
            small = [m for m in family if m.dim <= 5] or [module]
            module = direct_sum(*(data.draw(st.sampled_from(small), label="summand")
                                  for _ in range(2)))
        elif kind == "conjugate":
            module = _sector_conjugate(module, data)
        view = module.fp_view
    d, one = module.dim, module.field.one
    whole = modp.whole_spin_test(module.field, view)
    for i in range(d):
        if whole({i: one}):
            assert _exact_spin_dim(module, i) == d, i


@functools.cache
def _reducible_battery():
    """Reducible modules whose witnesses and summands the filter must not
    change: sums of two catalog modules of one family, the loops of the
    Z2-graded catalog modules along the trivial subgroup and of V_lambda
    along the first composition step."""
    out = {}
    for family in _families():
        small = [m for m in family if m.dim <= 6][:3]
        for a, V in enumerate(small):
            for b, W in enumerate(small):
                out[f"{family[0]!r} sum {a} {b}"] = direct_sum(V, W)
    catalog = catalog_modules(4)
    step = jordan_holder(GROUP).chain[1]
    for lam in range(5):
        for v in ("E", "O"):
            out[f"loop {v}{lam}"] = loop(catalog[f"{v}{lam}"], trivial_subgroup(GROUP)).module
        out[f"loop V{lam}"] = loop(catalog[f"V{lam}"], step).module
    return out


def _first_proper_unit_spin(module):
    for i in range(module.dim):
        sub = gmodule.spin(module, [{i: module.field.one}])
        if 0 < sub.dim < module.dim:
            return sub
    return None


def test_witnesses_are_the_first_proper_unit_spin(monkeypatch):
    """is_graded_irreducible's witness is the first proper exact spin of a
    unit vector, in index order, whenever there is one: the unit vectors
    skipped mod p are exactly ones whose spin is the whole module."""
    skipped = []
    real = modp.whole_spin_test

    def recording(f, view):
        whole = real(f, view)

        def test(i):
            skipped.append(whole(i))
            return skipped[-1]

        return test

    monkeypatch.setattr(modp, "whole_spin_test", recording)
    compared = 0
    for name, module in _reducible_battery().items():
        reference = _first_proper_unit_spin(module)
        if reference is None:
            continue
        verdict = gmodule.is_graded_irreducible(module)
        assert not verdict.irreducible, name
        assert verdict.witness.rows == reference.rows, name
        compared += 1
    assert compared >= 30
    assert any(skipped) and not all(skipped)


def test_decompose_gives_the_summands_of_exact_spins(monkeypatch):
    """decompose with the filter returns the summands it returns when every
    candidate vector is spun exactly."""
    battery = _reducible_battery()
    filtered = {name: [s.rows for s in gmodule.decompose(M)] for name, M in battery.items()}
    monkeypatch.setattr(modp, "whole_spin_test", lambda f, view: lambda v: False)
    exact = {name: [s.rows for s in gmodule.decompose(M)] for name, M in battery.items()}
    assert filtered == exact
    assert sum(len(rows) > 1 for rows in exact.values()) >= 30


def test_intertwiners_on_modules_that_share_a_view_and_that_do_not():
    """Parity shifts and coarsenings keep the action tuple and share its
    view, whose Hom spin tree then serves modules of other degrees; twists
    and recolourings get views of their own.  intertwiners equals the exact
    nullspace on every pair."""
    catalog = catalog_modules(3)
    sigma = discolouring_sigma()
    elements = GROUP.elements()
    checked = 0
    for name in ("E+2", "O-2", "loopE1", "loopO3", "E3"):
        V = catalog[name]
        shifts = [parity_shift(V, h) for h in elements]
        assert all(S.fp_view is V.fp_view for S in shifts)
        coarse = coarsen(V, subgroup_from_generators(GROUP, [(1, 0), (0, 1)]))
        assert coarse.fp_view is V.fp_view
        twists = [twist(V, chi) for chi in dual_characters(GROUP)]
        assert all(T.fp_view is not V.fp_view for T in twists)
        pairs = [(V, S) for S in shifts] + [(S, V) for S in shifts]
        pairs += [(T, S) for T in twists for S in shifts[:2]] + [(V, T) for T in twists]
        if V.hsub.order() == 1:
            recoloured = [recolour_module(M, sigma) for M in (V, *twists[:2])]
            assert all(R.fp_view is not M.fp_view for R, M in zip(recoloured, (V, *twists)))
            pairs += [(R, Q) for R in recoloured for Q in recoloured]
            pairs += [(parity_shift(recoloured[0], h), recoloured[1]) for h in elements]
        for A, B in pairs:
            assert intertwiners(A, B) == _exact_maps(A, B), name
            checked += 1
    assert checked >= 150


def test_a_view_is_dropped_with_its_module():
    """Nothing outside the module holds its view: once the module is gone,
    so is the view that its reductions and spin tree filled."""
    T = twist(catalog_modules(3)["loopE3"], dual_characters(GROUP)[1])
    action = T.fp_view.action

    def views():
        return [o for o in gc.get_objects() if isinstance(o, modp.FpView) and o.action is action]

    assert gmodule.is_graded_irreducible(T).irreducible and len(commutant(T)) == 1
    assert len(views()) == 1
    del T
    gc.collect()
    assert views() == []


def test_one_classification_row_reduces_each_action_once_per_prime(monkeypatch):
    """classify_lambda(7) reduces the entries of each action tuple mod each
    prime at most once, and spins each Hom tree once: every module that
    holds the tuple reads one view."""
    reduced, spun = [], []
    entries, tree = modp.FpView._entries, modp.FpView.tree

    def counting_entries(self, p):
        if p not in self._reduced:
            reduced.append((self.action, p))
        return entries(self, p)

    def counting_tree(self, p, omega):
        if self._tree is None:
            spun.append((self.action, p, omega))
        return tree(self, p, omega)

    monkeypatch.setattr(modp.FpView, "_entries", counting_entries)
    monkeypatch.setattr(modp.FpView, "tree", counting_tree)
    assert classify_lambda(7).passed
    # the tuples are held in the lists, so their ids stay distinct
    assert len(reduced) == len({(id(a), p) for a, p in reduced})
    assert len(spun) == len({(id(a), p, w) for a, p, w in spun})


# ---------------------------------------------------------------------------
# the generator action against the whole action
# ---------------------------------------------------------------------------

def _oracle_modules(tmp_path):
    """catalog_modules(4), the block-model modules and the seed-2 dense
    conjugates of perfbench/inputs.py, by name."""
    modules = dict(catalog_modules(4))
    _, seed, lm = make_bd_model()
    modules.update({"bd seed": seed, "bd loop": lm.module,
                    "bd loop+loop": direct_sum(lm.module, lm.module)})
    inputs = _perfbench_inputs()
    inputs.write_inputs(2, str(tmp_path))
    for stem in inputs.DENSE:
        modules[f"{stem}_dense"] = jsonio.load_file(str(tmp_path / f"{stem}_dense.json"))[1]
    return modules


def _full_basis_maps(V, W):
    """The degree-0 maps M with M rho_V(x) = rho_W(x) M for every basis
    element x, as linalg.nullspace gives them for that system."""
    variables = [(r, c) for r in range(W.dim) for c in range(V.dim)
                 if W.degrees[r] == V.degrees[c]]
    index = {rc: t for t, rc in enumerate(variables)}
    rows = []
    for A, B in zip(V.action, W.action):
        for r in range(W.dim):
            for c in range(V.dim):
                row = {}
                for t in range(V.dim):  # (M A)[r][c]
                    if c in A[t] and (r, t) in index:
                        linalg.axpy(row, A[t][c], {index[(r, t)]: V.field.one})
                for t, b in B[r].items():  # (B M)[r][c]
                    if (t, c) in index:
                        linalg.axpy(row, -b, {index[(t, c)]: V.field.one})
                if row:
                    rows.append(row)
    out = []
    for sol in linalg.nullspace(V.field, rows, len(variables)):
        mat = linalg.zeros(W.dim)
        for t, x in sol.items():
            r, c = variables[t]
            mat[r][c] = x
        out.append(mat)
    return out


def test_generator_spins_and_closures_equal_the_whole_action(tmp_path):
    modules = _oracle_modules(tmp_path)
    assert len(modules) == 68
    spins = closures = 0
    for name, V in modules.items():
        f, d = V.field, V.dim
        assert len(V.generator_action) == 2 < len(V.action), name

        def images(v):
            return (linalg.mat_vec(mat, v) for mat in V.action)

        for i in range(d):
            whole = linalg.RowBasis(f, d).close([{i: f.one}], images)
            assert gmodule.spin(V, [{i: f.one}]).rows == tuple(whole.rows), (name, i)
            spins += 1
        parts = [idx for idx in V.sector_indices().values() if idx]
        assert (_closure_rank_exact(f, V.generator_action, parts, d)
                == _closure_rank_exact(f, V.action, parts, d)), name
        closures += 1
    assert (spins, closures) == (234, 68)


def test_intertwiners_equal_the_whole_action_nullspace(tmp_path):
    modules = _oracle_modules(tmp_path)
    pairs = [(a, b) for a in modules for b in modules if _same_shape(modules[a], modules[b])]
    assert len(pairs) == 210
    differ = [(a, b) for a, b in pairs
              if intertwiners(modules[a], modules[b]) != _full_basis_maps(modules[a], modules[b])]
    assert differ == []


def _scaled_sl2_modules():
    """An sl2 in which the generator t = p a3 of the discoloured sl2 has
    rho(t) = 0 mod p = prime_for(4): the basis (a1, a2, p a3), where
    a1 = -(1/p) [[a2, p a3]] is the index that ColourAlgebra.generators
    drops.  Its modules, from V_0..V_4: each V_lambda, its even/odd
    grading, and the sums V_1 + V_1 and V_1 + V_2."""
    p = modp.prime_for(4)
    q = Fraction(1, p)
    lie = make_V_lambda(0).algebra
    alg = ColourAlgebra(GROUP, lie.epsilon, lie.basis,
                        {(0, 1): {2: q}, (1, 2): {0: -p}, (2, 0): {1: -p}})
    h2 = subgroup_from_generators(GROUP, [(1, 1)])
    modules = {}
    for lam in range(5):
        a1, a2, a3 = make_V_lambda(lam).action
        mats = [a1, a2, linalg.mat_scale(a3, alg.field.from_rational(p))]
        V = GradedModule(alg, make_V_lambda(lam).hsub, [(0, 0)] * (lam + 1), mats)
        modules[f"V{lam}"] = V
        modules[f"E{lam}"] = gmodule.regrade(V, h2, [(0, j % 2) for j in range(lam + 1)])
    modules["V1+V1"] = direct_sum(modules["V1"], modules["V1"])
    modules["V1+V2"] = direct_sum(modules["V1"], modules["V2"])
    return alg, modules


def test_a_generator_that_vanishes_mod_p_withholds_certificates_only():
    """Mod p the generator images of these modules are rho(a2) and 0, whose
    algebra is commutative: the closure and Hom certificates are declined
    where the whole action would give them, and every verdict and Hom
    basis is still the exact one."""
    alg, modules = _scaled_sl2_modules()
    assert alg.generators == (1, 2)
    f = alg.field
    declined = []
    for name, V in modules.items():
        d = V.dim
        parts = [idx for idx in V.sector_indices().values() if idx]
        full = _closure_rank_exact(f, V.action, parts, d) == d * d
        certified = modp.certifies_full_closure(f, V.fp_view, parts)
        assert full or not certified, name
        if full and not certified:
            declined.append(name)
        verdict = gmodule.is_graded_irreducible(V)
        assert verdict.irreducible == full, name
        if not full:
            verdict.witness.validate()
            assert 0 < verdict.witness.dim < d and verdict.witness.homogeneous, name
    # E1 has two one-vector sectors, so its projections and rho(a2) still
    # generate End(F_p^2)
    assert declined == ["V1", "V2", "E2", "V3", "E3", "V4", "E4"]
    pairs = [(a, b) for a in modules for b in modules if _same_shape(modules[a], modules[b])]
    assert len(pairs) == 16
    no_certificate = 0
    for a, b in pairs:
        V, W = modules[a], modules[b]
        exact = _full_basis_maps(V, W)
        maps = _certified(V, W)
        assert maps is None or maps == exact, (a, b)
        no_certificate += maps is None
        assert intertwiners(V, W) == exact, (a, b)
    assert no_certificate == 13
