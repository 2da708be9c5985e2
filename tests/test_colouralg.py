import random
from collections import Counter
from itertools import product

import pytest

from liecolour import (
    CommutationFactor,
    Multiplier,
    bracket,
    discolour,
    field,
    is_superalgebra,
    make_algebra,
    recolour,
    trivial_multiplier,
)
from liecolour import linalg
from liecolour.colouralg import ColourAlgebra
from liecolour.errors import AlgebraValidationError, InvalidInput
from liecolour.grading import parity_split, twisted_factor
from liecolour.workbench import (
    GROUP,
    make_bd_model,
    make_sl2_discoloured,
    make_sl2c,
    discolouring_sigma,
    sl2c_factor,
)

from conftest import battery_groups, field_for, random_commutation_factor

F4 = field(4)


def test_sl2c_passes_axioms():
    alg = make_sl2c()
    assert alg.dim() == 3
    assert alg.bracket_basis(0, 1) == {2: F4.one}
    assert alg.bracket_basis(1, 2) == {0: F4.one}
    assert alg.bracket_basis(2, 0) == {1: F4.one}


def test_sign_flipped_constants_remain_valid():
    # flipping one bracket sign only rescales a basis vector: the fresh
    # Jacobi oracle vanishes and the validator accepts
    constants = {(0, 1): {2: 1}, (1, 2): {0: -1}, (2, 0): {1: 1}}
    assert _jacobi_defect(constants) == 0
    alg = make_algebra(
        GROUP, sl2c_factor(), [("a1", (1, 0)), ("a2", (0, 1)), ("a3", (1, 1))], constants
    )
    assert alg.bracket_basis(1, 2) == {0: -F4.one}


@pytest.mark.parametrize("k", [3, -1])
def test_bracket_output_index_out_of_range_is_invalid_input(k):
    basis = [("a1", (1, 0)), ("a2", (0, 1)), ("a3", (1, 1))]
    with pytest.raises(InvalidInput, match="output index"):
        ColourAlgebra(GROUP, sl2c_factor(), basis, {(0, 1): {k: 1}})


@pytest.mark.parametrize("constants, index", [
    ({(0.5, 1): {2: 1}}, "input index 0.5"),  # was dropped: [x0, x1] = 0
    ({(0, 1): {2.5: 1}}, "output index 2.5"),  # was stored at index 2
    ({(True, 1): {2: 1}}, "input index True"),  # was read as (1, 1)
])
def test_non_integer_bracket_index_is_invalid_input(constants, index):
    basis = [("a1", (1, 0)), ("a2", (0, 1)), ("a3", (1, 1))]
    with pytest.raises(InvalidInput, match=index):
        ColourAlgebra(GROUP, sl2c_factor(), basis, constants)


@pytest.mark.parametrize("constants", [
    {(1, 2): {1: 1}, (0, 1): {0: 1}},
    {(2, 1): {1: 1}, (0, 1): {0: 1}},
], ids=["supplied-pair", "filled-pair"])
def test_grading_error_reports_the_first_supplied_pair(constants):
    # both tables break the grading at (0, 1) and at (1, 2) or its
    # antisymmetric partner: the pair reported is (0, 1), however the
    # constants are ordered and whichever of (i, j), (j, i) is supplied
    with pytest.raises(AlgebraValidationError) as err:
        ColourAlgebra(GROUP, sl2c_factor(), [("a1", (1, 0)), ("a2", (0, 1)), ("a3", (1, 1))],
                      constants)
    assert (err.value.kind, err.value.witness) == ("grading", (0, 1, 0))


def test_jacobi_violation_caught_with_witness():
    # one even element acting on an odd one whose square feeds back: with
    # [h,x] = x and [[x,x]] = h the cyclic sum on (h,x,x) is -2h != 0
    from liecolour import AbelianGroup

    z2 = AbelianGroup([2])
    sup = CommutationFactor(z2, F4, [[2]])
    constants = {(0, 1): {1: 1}, (1, 1): {0: 1}}
    with pytest.raises(AlgebraValidationError) as err:
        make_algebra(z2, sup, [("h", (0,)), ("x", (1,))], constants)
    assert err.value.kind == "jacobi"
    assert len(err.value.witness) == 3


def _jacobi_defect(constants):
    """Fresh evaluation of the eps-Jacobi sum on colour-sl2-shaped data."""
    eps = sl2c_factor()
    degrees = [(1, 0), (0, 1), (1, 1)]
    full = {}
    for (i, j), row in constants.items():
        full[(i, j)] = {k: F4.from_rational(c) for k, c in row.items()}
    for i in range(3):
        for j in range(3):
            if (i, j) not in full and (j, i) in full:
                s = -eps.eval(degrees[i], degrees[j])
                full[(i, j)] = {k: s * c for k, c in full[(j, i)].items()}
    full = {ij: full.get(ij, {}) for ij in [(i, j) for i in range(3) for j in range(3)]}
    worst = 0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                acc = {}
                combos = [
                    (eps.eval(degrees[k], degrees[i]), i, (j, k)),
                    (eps.eval(degrees[i], degrees[j]), j, (k, i)),
                    (eps.eval(degrees[j], degrees[k]), k, (i, j)),
                ]
                for coef, outer, inner in combos:
                    for t, ct in full[inner].items():
                        for u, cu in full[(outer, t)].items():
                            acc[u] = acc.get(u, F4.zero) + coef * ct * cu
                worst += sum(0 if v.is_zero() else 1 for v in acc.values())
    return worst


def test_abelian_algebra_valid_on_any_grading():
    basis = [("x", (0, 0)), ("y", (1, 0)), ("z", (0, 1))]
    alg = make_algebra(GROUP, sl2c_factor(), basis, {})
    assert all(not row for row in alg.constants.values())


def test_bracket_examples():
    alg = make_sl2c()
    a1, a2 = alg.basis_element(0), alg.basis_element(1)
    assert bracket(alg, a1, a2) == alg.basis_element(2)
    # -eps((0,1),(1,0)) = +1, so the reversed bracket gives a3 as well
    assert bracket(alg, a2, a1) == alg.basis_element(2)
    assert bracket(alg, a1, a1) == [F4.zero] * 3


def test_bracket_is_bilinear():
    alg = make_sl2c()
    i = F4.zeta(1)
    x = [F4.one, i, F4.zero]
    y = [F4.zero, F4.from_rational(2), -i]
    lhs = bracket(alg, x, y)
    parts = [
        [c * xi * yj for c in bracket(alg, alg.basis_element(p), alg.basis_element(q))]
        for p, xi in enumerate(x)
        for q, yj in enumerate(y)
        for c in [F4.one]
    ]
    acc = [F4.zero] * 3
    for p, xi in enumerate(x):
        for q, yj in enumerate(y):
            term = bracket(alg, alg.basis_element(p), alg.basis_element(q))
            acc = [a + xi * yj * t for a, t in zip(acc, term)]
    assert lhs == acc


def test_bracket_grading_additivity():
    alg = make_sl2c()
    for i in range(3):
        for j in range(3):
            want = GROUP.add(alg.degree(i), alg.degree(j))
            for k, c in alg.bracket_basis(i, j).items():
                if not c.is_zero():
                    assert alg.degree(k) == want


def test_discolour_matches_stated_lie_brackets():
    lie = discolour(make_sl2c(), discolouring_sigma())
    assert lie.bracket_basis(0, 1) == {2: F4.one}
    assert lie.bracket_basis(1, 2) == {0: -F4.one}
    assert lie.bracket_basis(2, 0) == {1: -F4.one}
    assert lie == make_sl2_discoloured()
    for a in GROUP.elements():
        for b in GROUP.elements():
            assert lie.epsilon.eval(a, b) == 1


def test_discolour_with_trivial_multiplier_is_identity():
    alg = make_sl2c()
    assert discolour(alg, trivial_multiplier(GROUP, F4)) == alg


def test_recolour_roundtrip():
    alg = make_sl2c()
    sigma = discolouring_sigma()
    assert recolour(discolour(alg, sigma), sigma) == alg
    assert recolour(make_sl2_discoloured(), sigma) == alg
    assert recolour(alg, trivial_multiplier(GROUP, F4)) == alg


def test_discolour_composes():
    alg = make_sl2c()
    s1 = discolouring_sigma()
    s2 = trivial_multiplier(GROUP, F4)
    via_product = discolour(alg, s1 * s2)
    stepwise = discolour(discolour(alg, s1), s2)
    assert via_product == stepwise


@pytest.mark.parametrize(
    "make", [make_sl2c, make_sl2_discoloured, lambda: make_bd_model()[0]],
    ids=["sl2c", "sl2_discoloured", "bd_model"],
)
def test_discolour_equals_its_validated_rebuild(make):
    # discolour stores its result unchecked; the validating constructor on
    # the twisted factor and the sigma-scaled brackets must accept it and
    # give the same algebra, for every multiplier with values +-1
    alg = make()
    deg = [d for _, d in alg.basis]
    for exps in product((0, 2), repeat=4):
        sigma = Multiplier(GROUP, F4, [exps[:2], exps[2:]])
        scaled = {
            (i, j): {k: sigma.eval(deg[i], deg[j]) * c for k, c in row.items()}
            for (i, j), row in alg.constants.items()
        }
        rebuilt = ColourAlgebra(GROUP, twisted_factor(alg.epsilon, sigma), alg.basis, scaled)
        assert discolour(alg, sigma) == rebuilt, exps


def test_is_superalgebra_examples():
    from liecolour import AbelianGroup

    assert is_superalgebra(make_sl2_discoloured())  # trivial factor, all even
    assert not is_superalgebra(make_sl2c())
    z2 = AbelianGroup([2])
    sup = CommutationFactor(z2, F4, [[2]])
    alg = make_algebra(z2, sup, [("q", (1,))], {})
    assert is_superalgebra(alg)


def test_is_superalgebra_agrees_with_the_all_pairs_definition(rng):
    # the definition: eps(a, b) = (-1)^{p(a) p(b)} on every pair of elements;
    # each random factor is compared, and so is the super sign of its parity
    def all_pairs(eps):
        split, one = parity_split(eps), eps.field.one
        return all(
            eps.eval(a, b) == (-one if split.parity(a) and split.parity(b) else one)
            for a in eps.group.elements()
            for b in eps.group.elements()
        )

    verdicts = Counter()
    for group in battery_groups():
        f = field_for(group)
        for _ in range(8):
            eps = random_commutation_factor(group, f, rng)
            e, half = eps.exponents, f.m // 2
            sup = [[half if e[i][i] and e[j][j] else 0 for j in range(len(e))] for i in range(len(e))]
            for factor in (eps, CommutationFactor(group, f, sup)):
                want = all_pairs(factor)
                assert is_superalgebra(make_algebra(group, factor, [], {})) == want
                verdicts[want] += 1
    assert verdicts[True] and verdicts[False]


def test_fuzzed_single_entry_perturbations(rng):
    alg = make_sl2c()
    for _ in range(50):
        i, j, k = rng.randrange(3), rng.randrange(3), rng.randrange(3)
        delta = F4.from_rational(rng.choice([1, -1, 2]))
        constants = {key: dict(row) for key, row in alg._table.items()}
        row = constants.setdefault((i, j), {})
        row[k] = row.get(k, F4.zero) + delta
        try:
            ColourAlgebra(GROUP, sl2c_factor(), alg.basis, constants)
        except AlgebraValidationError:
            continue
        # a perturbation that validates must be genuinely consistent
        assert _jacobi_defect({ij: r for ij, r in constants.items()}) == 0


# -- the eps-Jacobi check against the triple loop it replaced ------------------


def _unchecked(group, eps, basis, constants):
    """The algebra with its completed table, without validation."""
    alg = ColourAlgebra._derived(group, eps, tuple((n, group.reduce(d)) for n, d in basis), {})
    table = {}
    for ij, row in constants.items():
        row = {k: alg._scalar(c) for k, c in row.items()}
        table[ij] = {k: c for k, c in row.items() if not c.is_zero()}
    alg._table = alg._complete(table)
    return alg


def _oracle(alg):
    """(kind, witness, message) of the first failure, by the exhaustive
    loops over pairs and triples that validation used to run; None if the
    table is a colour algebra."""
    n = len(alg.basis)
    eps = alg.epsilon
    zero = alg.field.zero
    deg = [d for _, d in alg.basis]
    for (i, j), row in alg._table.items():
        want = alg.group.add(deg[i], deg[j])
        for k, c in row.items():
            if not c.is_zero() and deg[k] != want:
                return "grading", (i, j, k), f"bracket ({i},{j}) hits basis {k} outside degree {want}"
    for i in range(n):
        for j in range(n):
            sign = -eps.eval(deg[i], deg[j])
            lhs, rhs = alg._table[(i, j)], alg._table[(j, i)]
            for k in set(lhs) | set(rhs):
                if lhs.get(k, zero) != sign * rhs.get(k, zero):
                    return "antisymmetry", (i, j), f"[[x{i},x{j}]] != -eps [[x{j},x{i}]] at basis {k}"
    for i, j, k in product(range(n), repeat=3):
        a, b, c = deg[i], deg[j], deg[k]
        acc = {}
        for term, (p, q, r) in (
            (eps.eval(c, a), (i, j, k)),
            (eps.eval(a, b), (j, k, i)),
            (eps.eval(b, c), (k, i, j)),
        ):
            for t, ct in alg._table[(q, r)].items():
                for u, cu in alg._table[(p, t)].items():
                    acc[u] = acc.get(u, zero) + term * ct * cu
        if any(not v.is_zero() for v in acc.values()):
            return "jacobi", (i, j, k), f"eps-Jacobi fails on triple ({i},{j},{k})"
    return None


def _verdict(group, eps, basis, constants):
    try:
        ColourAlgebra(group, eps, basis, constants)
    except AlgebraValidationError as err:
        return err.kind, err.witness, str(err)
    return None


def _agree(group, eps, basis, constants):
    """The new check and the oracle give the same verdict; returns it."""
    got = _verdict(group, eps, basis, constants)
    assert got == _oracle(_unchecked(group, eps, basis, constants))
    return got


def _random_table(rng, n, pairs, coeffs):
    """Random brackets on the allowed (i, j) -> k slots, sometimes also
    supplying the (j, i) entry or a slot outside the grading."""
    constants = {}
    for (i, j), ks in pairs.items():
        if rng.random() < 0.8:
            constants[(i, j)] = {k: rng.choice(coeffs) for k in ks if rng.random() < 0.9}
    if rng.random() < 0.15:
        (i, j), ks = rng.choice(sorted(pairs.items()))
        if i != j:
            constants[(j, i)] = {k: rng.choice(coeffs) for k in ks}
    if rng.random() < 0.1:
        i, j, k = (rng.randrange(n) for _ in range(3))
        constants.setdefault((i, j), {})[k] = rng.choice(coeffs)
    return constants


def test_jacobi_check_matches_the_triple_loop_on_fuzzed_sl2c_tables():
    # sl2c-shaped: a1, a2, a3 of degrees (1,0), (0,1), (1,1) and an even h,
    # brackets only where the grading allows them (eps(a, a) = 1, so
    # [[x, x]] = 0 and the diagonal is left out)
    rng = random.Random(2024)
    basis = [("a1", (1, 0)), ("a2", (0, 1)), ("a3", (1, 1)), ("h", (0, 0))]
    pairs = {(0, 1): [2], (1, 2): [0], (0, 2): [1], (0, 3): [0], (1, 3): [1], (2, 3): [2]}
    i4 = F4.zeta(1)
    coeffs = [1, -1, 2, F4.one + i4, i4, -i4]
    kinds, witnesses = Counter(), set()
    for _ in range(300):
        got = _agree(GROUP, sl2c_factor(), basis, _random_table(rng, 4, pairs, coeffs))
        kinds[got[0] if got else "valid"] += 1
        if got and got[0] == "jacobi":
            witnesses.add(got[1])
    assert kinds["jacobi"] >= 30 and kinds["valid"] >= 5, kinds
    assert len(witnesses) >= 3, witnesses


def test_jacobi_check_matches_the_triple_loop_on_the_super_example():
    # Z2 super: h even, x odd, [h,x] ~ x and [[x,x]] ~ h as in
    # test_jacobi_violation_caught_with_witness, with fuzzed coefficients
    from liecolour import AbelianGroup

    z2 = AbelianGroup([2])
    sup = CommutationFactor(z2, F4, [[2]])
    basis = [("h", (0,)), ("x", (1,)), ("y", (1,))]
    rng = random.Random(7)
    pairs = {(0, 1): [1, 2], (0, 2): [1, 2], (1, 1): [0], (1, 2): [0], (2, 2): [0], (0, 0): [0]}
    kinds = Counter()
    for _ in range(300):
        got = _agree(z2, sup, basis, _random_table(rng, 3, pairs, [1, -1, 2, F4.zeta(1)]))
        kinds[got[0] if got else "valid"] += 1
    assert kinds["jacobi"] >= 30, kinds
    assert _agree(z2, sup, basis[:2], {(0, 1): {1: 1}, (1, 1): {0: 1}})[:2] == ("jacobi", (0, 1, 1))


@pytest.mark.parametrize("make", [make_sl2c, make_sl2_discoloured, lambda: make_bd_model()[0]])
def test_valid_tables_pass_both_checks(make):
    alg = make()
    assert _agree(alg.group, alg.epsilon, alg.basis, alg.constants) is None


def _gl_constants(n):
    """gl(n) on the matrix units E_ab (index a n + b):
    [[E_ab, E_cd]] = delta_bc E_ad - delta_da E_cb."""
    constants = {}
    for i in range(n * n):
        a, b = divmod(i, n)
        for j in range(i + 1, n * n):
            c, d = divmod(j, n)
            row = Counter()
            row[a * n + d] += b == c
            row[c * n + b] -= d == a
            if any(row.values()):
                constants[(i, j)] = {k: v for k, v in row.items() if v}
    return constants


def test_jacobi_check_matches_the_triple_loop_on_perturbed_gl3():
    # a larger, sparse adjoint: gl(3) with trivial eps, one structure
    # constant changed at a time
    from liecolour import AbelianGroup

    z2 = AbelianGroup([2])
    eps = CommutationFactor(z2, F4, [[0]])
    basis = [(f"E{a}{b}", (0,)) for a in range(3) for b in range(3)]
    constants = _gl_constants(3)
    assert _agree(z2, eps, basis, constants) is None
    rng = random.Random(9)
    kinds = Counter()
    for _ in range(40):
        bad = {ij: dict(row) for ij, row in constants.items()}
        i, j = sorted(rng.sample(range(9), 2))
        row = bad.setdefault((i, j), {})
        k = rng.randrange(9)
        row[k] = row.get(k, 0) + rng.choice([1, -1, 2])
        got = _agree(z2, eps, basis, bad)
        kinds[got[0] if got else "valid"] += 1
    assert kinds["jacobi"] >= 20, kinds


# ---------------------------------------------------------------------------
# generating sets
# ---------------------------------------------------------------------------

def _generated_dim(alg, idx):
    """Dimension of the subalgebra that the basis elements idx generate, as
    the span of idx closed under the bracket of every pair of span rows."""
    f, n = alg.field, alg.dim()
    span = linalg.RowBasis(f, n)
    for t in idx:
        span.add({t: f.one})
    grew = True
    while grew:
        grew = False
        rows = [linalg.dense(f, r, n) for r in span.rows]
        for x in rows:
            for y in rows:
                if span.add(linalg.sparse(alg.bracket(x, y))):
                    grew = True
    return span.rank


def _gl(n):
    from liecolour import AbelianGroup

    z2 = AbelianGroup([2])
    basis = [(f"E{a}{b}", (0,)) for a in range(n) for b in range(n)]
    return ColourAlgebra(z2, CommutationFactor(z2, F4, [[0]]), basis, _gl_constants(n))


_ALGEBRAS = {
    "sl2c": make_sl2c,
    "sl2_discoloured": make_sl2_discoloured,
    "bd_model": lambda: make_bd_model()[0],
    "gl2": lambda: _gl(2),
    "gl3": lambda: _gl(3),
    "abelian": lambda: make_algebra(
        GROUP, sl2c_factor(), [("x", (0, 0)), ("y", (1, 0)), ("z", (0, 1))], {}
    ),
}


@pytest.mark.parametrize("name", list(_ALGEBRAS))
def test_generators_generate_and_none_can_be_dropped(name):
    alg = _ALGEBRAS[name]()
    gens = alg.generators
    assert list(gens) == sorted(set(gens))
    assert _generated_dim(alg, gens) == alg.dim()
    for t in gens:
        assert _generated_dim(alg, [u for u in gens if u != t]) < alg.dim(), t


def test_generators_of_the_catalog_algebras():
    assert make_sl2c().generators == (1, 2)
    assert make_sl2_discoloured().generators == (1, 2)
    bd = make_bd_model()[0]
    assert [bd.basis[t][0] for t in bd.generators] == ["Q1", "Q2"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gl_keeps_an_element_of_nonzero_trace(n):
    # [[gl_n, gl_n]] = sl_n, so the identity is no bracket: a generating set
    # holds a diagonal unit E_aa
    alg = _gl(n)
    assert any(divmod(t, n)[0] == divmod(t, n)[1] for t in alg.generators)


def test_an_abelian_algebra_keeps_every_index():
    assert _ALGEBRAS["abelian"]().generators == (0, 1, 2)


@pytest.mark.parametrize(
    "make", [make_sl2c, make_sl2_discoloured, lambda: make_bd_model()[0]],
    ids=["sl2c", "sl2_discoloured", "bd_model"],
)
def test_discolouring_keeps_the_generators(make):
    # sigma scales each bracket by a nonzero root of unity, so every
    # subalgebra generated by basis elements is unchanged
    alg = make()
    for exps in product((0, 2), repeat=4):
        sigma = Multiplier(GROUP, F4, [exps[:2], exps[2:]])
        assert discolour(alg, sigma).generators == alg.generators, exps
        assert recolour(alg, sigma).generators == alg.generators, exps
